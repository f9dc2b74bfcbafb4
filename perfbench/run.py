"""End-to-end benchmark of the matula CLI as a user runs it.

    python3 perfbench/run.py --workload pairing|bijection|reach|all \
        --seed N --seconds S --trace 0|1

Each workload is a fixed sequence of ``python -m matula.cli`` commands whose
inputs come from the seed.  One client runs them in a closed loop: one child
process at a time, the next starting when the previous one has exited, so
every step pays its own interpreter start.  The sequence repeats until the
time is spent; every output is checked against the oracles in ``oracle.py``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
sequences of wall time, children's CPU time, peak RSS and the per-step times,
plus the median of the no-work invocations run before each sequence
(``setup_s``).
--trace 1 alternates a plain and a traced sequence (see ``trace_step.py``) and
reports the per-layer metrics, with the tracing overhead per step.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it show each metric with its unit, the median and
upper percentile of every timing with its sample count, the failed share,
host facts and per-step figures.  A record of the run, with every sample and
the aggregated spans, is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("pairing", "bijection", "reach")
SETUP_PER_SEQUENCE = 2  # no-work invocations, spread over the run like the steps
DEADLINE_S = 170.0  # a workload's run must exit within 180 s

# table stays below 2**20: above it each new integer rebuilds the factor
# sieve (about 10 ms each), so a 150k-row table there takes minutes.  The
# crossing step keeps that defect measured at a bounded size.  The start
# band is narrow because table time and peak RSS grow with the start.
FACTOR_SIEVE_EDGE = 1 << 20
TABLE_FROM = (500_000, 600_000)
TABLE_ROWS = 150_000
CROSSING_ROWS = 100

# number-of on the 97 KB forest: the integer is exact but has about 14,000
# digits, over Python's default limit for int-to-str conversion.
DIGIT_LIMIT = (3, "error: Exceeds the limit (4300 digits) for integer string conversion; "
                  "use sys.set_int_max_str_digits() to increase the limit")


@dataclass
class Step:
    """One CLI command of a workload and the check of its stdout."""

    name: str
    args: list[str]
    check: Callable[[bytes], str | None]  # error message, or None when right
    primary: bool = False  # counted in primary_s; every other step in secondary_s
    # (exit code, last stderr line) of a documented defect: counted as failed
    # but leaves the run correct.  Any other non-zero exit makes it incorrect.
    known_failure: tuple[int, str] | None = None


class Launcher:
    """Client of launch.py, which spawns each child from a small process."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> dict:
        req = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    """Runs steps through the launcher and counts attempts, failures and errors."""

    def __init__(self, launcher: Launcher, started: float):
        self.launcher = launcher
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: dict[str, int] = {}

    def run(self, step: Step, record: Path | None = None) -> dict:
        """Run one step, plain or (with a record path) traced, and check it."""
        if record is None:
            argv = [sys.executable, "-m", "matula.cli", *step.args]
        else:
            argv = [sys.executable, str(BENCH / "trace_step.py"), str(record), "--", *step.args]
        out, err = OUT / "stdout", OUT / "stderr"
        timeout = max(1.0, DEADLINE_S - (time.perf_counter() - self.started))
        res = self.launcher.run(argv, out, err, timeout)
        stdout = out.read_bytes()
        res["stdout_bytes"] = len(stdout)
        self.attempted += 1
        problem = None
        if res["rc"] != 0:
            tail = err.read_bytes().decode(errors="replace").strip().splitlines()
            last = tail[-1] if tail else ""
            problem = f"exit code {res['rc']}: {last}"
            if step.known_failure != (res["rc"], last):
                self.correct = False
        else:
            try:
                problem = step.check(stdout)
            except Exception as exc:  # any malformed output is a wrong answer
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                self.correct = False
        if problem:
            self.failed += 1
            key = f"{step.name}: {problem[:300]}"
            self.errors[key] = self.errors.get(key, 0) + 1
        res["ok"] = problem is None
        return res


# -- workloads -----------------------------------------------------------------


def pairing_steps(rng: random.Random) -> tuple[dict, list[Step]]:
    import oracle

    n = 100_000 + rng.randint(-1000, 1000)
    lam, mu = oracle.sign_sieve(n)
    liouville, mertens = int(lam[1:].sum()), int(mu[1:].sum())
    pairings = oracle.Pairings(n)
    fixture = OUT / "pairs.txt"
    expected_valid: list[str] = []

    def check_liouville(stdout: bytes) -> str | None:
        expected_valid.clear()
        doc = json.loads(stdout)
        if doc["mode"] != "liouville":
            return f"mode {doc['mode']}"
        problem = pairings.report_error(doc, lam, liouville)
        if problem:
            return problem
        fixture.write_text("".join(f"{k} {l}\n" for k, l in doc["pairs"]))
        expected_valid.append(
            f"valid: {len(doc['pairs'])} pairs, {len(doc['singletons'])} singletons, "
            f"bound={doc['bound']}, exact={liouville}\n"
        )
        return None

    def check_validate(stdout: bytes) -> str | None:
        if not expected_valid:
            return "no checked pairing to compare with"
        got = stdout.decode()
        return None if got == expected_valid[0] else f"{got.strip()!r} != {expected_valid[0].strip()!r}"

    def check_mobius(stdout: bytes) -> str | None:
        doc = json.loads(stdout)
        if doc["mode"] != "mobius":
            return f"mode {doc['mode']}"
        return pairings.report_error(doc, mu, mertens)

    steps = [
        Step("pair-liouville", ["pair", str(n), "--mode", "liouville", "--format", "json"],
             check_liouville, primary=True),
        Step("validate-pairs", ["validate-pairs", str(fixture), "--max", str(n), "--mode", "liouville"],
             check_validate),
        Step("pair-mobius", ["pair", str(n), "--mode", "mobius", "--format", "json"],
             check_mobius, primary=True),
    ]
    return {"N": n, "L": liouville, "M": mertens}, steps


def bijection_steps(rng: random.Random) -> tuple[dict, list[Step]]:
    import oracle

    lo = rng.randint(*TABLE_FROM)
    hi = lo + TABLE_ROWS
    cross_lo = FACTOR_SIEVE_EDGE - CROSSING_ROWS - rng.randint(0, 50)
    cross_hi = FACTOR_SIEVE_EDGE + CROSSING_ROWS
    leaf_max = 300_000
    brackets = oracle.Brackets(cross_hi)
    leaves = oracle.leaf_counts(leaf_max)
    leaf_expected = " ".join(str(k) for k in range(2, leaf_max + 1) if leaves[k] == 2) + "\n"
    sample = sorted(rng.sample(range(TABLE_ROWS + 1), 2000))

    def check_table(first: int, last: int, rows_to_check) -> Callable[[bytes], str | None]:
        def check(stdout: bytes) -> str | None:
            lines = stdout.decode().split("\n")
            if lines[-1] != "" or len(lines) - 1 != last - first + 1:
                return f"{len(lines) - 1} rows, expected {last - first + 1}"
            if [int(line.partition("\t")[0]) for line in lines[:-1]] != list(range(first, last + 1)):
                return "row numbers are not the requested range"
            for i in rows_to_check:
                n, text = first + i, lines[i].partition("\t")[2]
                if brackets.number(text) != n:
                    return f"row {n} re-numbers to {brackets.number(text)}"
                if text != brackets.encode(n):
                    return f"row {n} is not canonical: {text!r}"
            return None

        return check

    def forest_of(size: int) -> tuple[str, int]:
        parts, product, length = [], 1, 0
        while length < size:
            n = rng.randint(lo, hi)
            parts.append(brackets.encode(n))
            product *= n
            length += len(parts[-1]) + 1
        return " ".join(parts), product

    def check_number(product: int) -> Callable[[bytes], str | None]:
        expected = f"{product}\n".encode()
        return lambda stdout: None if stdout == expected else "wrong integer"

    small, small_n = forest_of(10_000)
    big, big_n = forest_of(97_000)
    steps = [
        Step("table", ["table", "--from", str(lo), "--to", str(hi)],
             check_table(lo, hi, sample), primary=True),
        Step("table-crossing", ["table", "--from", str(cross_lo), "--to", str(cross_hi)],
             check_table(cross_lo, cross_hi, range(cross_hi - cross_lo + 1))),
        Step("leaf-class", ["leaf-class", "2", "--max", str(leaf_max)],
             lambda stdout: None if stdout.decode() == leaf_expected else "wrong leaf class"),
        Step("number-of-10k", ["number-of", small], check_number(small_n)),
        Step("number-of-97k", ["number-of", big], check_number(big_n), known_failure=DIGIT_LIMIT),
    ]
    params = {"from": lo, "to": hi, "crossing_from": cross_lo, "crossing_to": cross_hi,
              "number_of_bytes": [len(small), len(big)],
              "number_of_digits": [len(str(small_n)), len(str(big_n))]}
    return params, steps


def reach_steps(rng: random.Random) -> tuple[dict, list[Step]]:
    import oracle

    ratio_max = 1_000_000 + rng.randint(-15_000, 15_000)
    bounds_max = 1_000_000 + rng.randint(-15_000, 15_000)
    degree = 22
    degree_len = oracle.degree_count(degree)

    def check_scan(name: str, n_max: int) -> Callable[[bytes], str | None]:
        def check(stdout: bytes) -> str | None:
            doc = json.loads(stdout)
            if doc["name"] != name or doc["range"] != {"n_min": 2, "n_max": n_max}:
                return f"certificate for {doc['name']} {doc['range']}"
            return None if doc["exceptions"] == [] else f"exceptions {doc['exceptions'][:5]}"

        return check

    def check_degree(stdout: bytes) -> str | None:
        ns = [int(x) for x in stdout.split()]
        if len(ns) != degree_len:
            return f"{len(ns)} integers, the Euler transform of A000081 gives {degree_len}"
        if any(a >= b for a, b in zip(ns, ns[1:])):
            return "not strictly ascending"
        return None

    steps = [
        Step("scan-sousselier", ["scan", "sousselier", "--max", str(ratio_max)],
             check_scan("rank-ratio-monotone", ratio_max), primary=True),
        Step("degree-list", ["degree-list", str(degree)], check_degree),
        Step("scan-mrd", ["scan", "mrd", "--max", str(bounds_max)],
             check_scan("prime-size-bounds", bounds_max), primary=True),
    ]
    return {"sousselier_max": ratio_max, "mrd_max": bounds_max, "degree": degree}, steps


BUILDERS = {"pairing": pairing_steps, "bijection": bijection_steps, "reach": reach_steps}
SETUP = Step("setup", ["--help"],
             lambda stdout: None if stdout.startswith(b"usage: matula") else "no usage text")


# -- statistics ------------------------------------------------------------------


def describe(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f}"
    if n > 10:
        ordered = sorted(samples)
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    return text + f" (n={n})"


def host_facts() -> dict:
    import mpmath
    import numpy

    start = time.process_time()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "calibration_cpu_s": time.process_time() - start,
    }


# -- end-to-end run ----------------------------------------------------------------


def run_plain(runner: Runner, steps: list[Step], seconds: int, record: dict) -> dict:
    series: dict[str, list[float]] = {
        "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "primary_s": [], "secondary_s": [],
        "setup_s": [],
    }
    per_step: dict[str, list[dict]] = {s.name: [] for s in steps}
    laps: list[float] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        series["setup_s"] += [runner.run(SETUP)["wall_s"] for _ in range(SETUP_PER_SEQUENCE)]
        results = [runner.run(s) for s in steps]
        laps.append(time.perf_counter() - lap)
        for s, r in zip(steps, results):
            per_step[s.name].append(r)
        series["wall_s"].append(sum(r["wall_s"] for r in results))
        series["cpu_s"].append(sum(r["cpu_s"] for r in results))
        series["peak_rss_mb"].append(max(r["maxrss_kb"] for r in results) / 1024)
        primary = sum(r["wall_s"] for s, r in zip(steps, results) if s.primary)
        series["primary_s"].append(primary)
        series["secondary_s"].append(series["wall_s"][-1] - primary)
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break

    for name, results in per_step.items():
        walls = [r["wall_s"] for r in results]
        print(f"step {name}: wall {describe(walls)} s, "
              f"cpu {statistics.median(r['cpu_s'] for r in results):.3f} s, "
              f"peak rss {max(r['maxrss_kb'] for r in results) / 1024:.1f} MB, "
              f"stdout {results[0]['stdout_bytes']} B")
    record["series"] = series
    record["steps"] = per_step
    return {name: statistics.median(values) for name, values in series.items()}


# -- traced run --------------------------------------------------------------------


def layer_metrics(records: list[dict], stdout_bytes: int, overhead_share: float) -> dict:
    """Per-layer metrics of one traced sequence, summed over its steps."""
    spans: dict[str, list[float]] = {}
    for rec in records:
        for name, (calls, _total, self_s) in rec["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    m: dict[str, float] = {}
    for name, (calls, self_s) in spans.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def hit_ratio(growth: int, calls: int) -> float:
        return 1 - growth / calls if calls else 0.0

    tree_growth = sum(rec["intern_growth"] for rec in records)
    cuts_growth = sum(rec["cuts_cache"] for rec in records)
    pairs = sum(p for rec in records for p, _ in rec["pair_reports"])
    singles = sum(s for rec in records for _, s in rec["pair_reports"])
    m.update({
        "primes.table_primes": max(rec["table_primes"] for rec in records),
        "primes.table_limit": max(rec["table_limit"] for rec in records),
        "primes.table_mb": max(rec["table_bytes"] for rec in records) / 2**20,
        "primes.factorize.trial_share": share(spans["primes._factorize_trial"][0],
                                              spans["primes.factorize"][0]),
        "forests.intern_size": max(rec["intern_size"] for rec in records),
        "forests.intern_hit_ratio": hit_ratio(tree_growth, spans["forests.Tree"][0]),
        "bijection.memo_entries": max(rec["memo_entries"] for rec in records),
        "algebra.cuts.hit_ratio": hit_ratio(cuts_growth, spans["algebra.cuts"][0]),
        "pairing.pair_yield": share(2 * pairs, 2 * pairs + singles),
        "pairing.singletons": singles,
        "cli.import_s": statistics.median(rec["import_s"] for rec in records),
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_share": overhead_share,
    })
    return m


def run_traced(runner: Runner, steps: list[Step], seconds: int, record: dict) -> dict:
    samples: list[dict] = []
    overheads: dict[str, list[float]] = {s.name: [] for s in steps}
    laps: list[float] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain = [runner.run(s) for s in steps]
        records, traced = [], []
        for i, s in enumerate(steps):
            path = OUT / f"trace-step{i}.json"
            path.unlink(missing_ok=True)
            traced.append(runner.run(s, record=path))
            if not path.exists():
                raise RuntimeError(f"traced step {s.name} wrote no record")
            records.append(json.loads(path.read_text()))
        laps.append(time.perf_counter() - lap)
        for s, p, t in zip(steps, plain, traced):
            overheads[s.name].append(t["wall_s"] / p["wall_s"] - 1)
        plain_wall = sum(r["wall_s"] for r in plain)
        traced_wall = sum(r["wall_s"] for r in traced)
        samples.append(layer_metrics(records, sum(r["stdout_bytes"] for r in traced),
                                     traced_wall / plain_wall - 1))
        if time.perf_counter() - start + statistics.median(laps) > seconds:
            break

    for name, values in overheads.items():
        print(f"step {name}: tracing overhead {statistics.median(values):+.1%} of plain wall time")
    record["layer_samples"] = samples
    record["spans"] = {s.name: rec["spans"] for s, rec in zip(steps, records)}
    return {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}


# -- entry point ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 launcher: Launcher, spec: dict) -> dict:
    runner = Runner(launcher, time.perf_counter())
    rng = random.Random(f"{workload}:{seed}")
    params, steps = BUILDERS[workload](rng)
    print(f"workload {workload} seed {seed}: {json.dumps(params)}")
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "params": params, "host": host_facts()}
    print("host " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    if trace:
        values = run_traced(runner, steps, seconds, record)
        wanted = spec["per_layer"]
    else:
        values = run_plain(runner, steps, seconds, record)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        if trace:
            print(f"{name}: {metric['value']} {metric['unit']}")
        else:
            print(f"{name}: {describe(record['series'][name])} {metric['unit']}")
    attempted, failed = runner.attempted, runner.failed
    print(f"failed_share: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for error, count in runner.errors.items():
        print(f"failed x{count}: {error}")
    record["errors"] = runner.errors
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return {"correct": runner.correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "matula" / "cli.py").is_file():
        print(f"error: no matula sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # The launcher must start while this process is still small (see launch.py).
    launcher = Launcher(env)
    try:
        sys.set_int_max_str_digits(0)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), launcher, spec)
                   for w in names}
    finally:
        launcher.close()
    if len(results) == 1:
        result = results[args.workload]
    else:
        for w, r in results.items():
            print(f"{w}: {json.dumps(r)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
