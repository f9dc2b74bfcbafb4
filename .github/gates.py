"""Spawn-and-measure gates: each row runs one ``matula`` command line and
checks its exit code, its peak RSS, and optionally its stdout's sha256 and
its CPU time.

    python .github/gates.py        # from the repository root

``matula`` must be on PATH.  Each command is spawned from this process,
which imports nothing large: on Linux a child's ``ru_maxrss`` starts from
its spawner's peak.  Peaks and CPU times come from ``os.wait4``.  A limit is
in MB, absolute or above the peak of ``number-of "[]"``, the floor of a
command that sieves, measured once first; a row passes when its peak is
below the limit.  A CPU row spawns with ``OPENBLAS_NUM_THREADS`` unset and
passes when its CPU time is at most 1.1 times its wall time plus 0.05 s.
Exits 1 if any row fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

FIXTURE = "tests/data/pairs_liouville_96.txt"
PAST = "{tmp}/pairs_past_int64.txt"  # the fixture with one member past int64
PAIRS = "{tmp}/pairs_99956.txt"  # the liouville pairs of pair 99956


class Gate(NamedTuple):
    argv: list[str]
    exit: int = 0
    limit: float | None = None  # MB of peak RSS, absolute
    above_floor: float | None = None  # MB of peak RSS above number-of "[]"
    sha256: str | None = None  # of stdout
    cpu: bool = False  # CPU time at most 1.1 * wall + 0.05 s


GATES = [
    # at 10^7 each (198 MB and 113 MB while they read the first n primes
    # into the table)
    Gate(["scan", "sousselier", "--max", "10000000"], limit=60),
    Gate(["scan", "mrd", "--max", "10000000"], limit=60),
    # 341 MB while the report held lists and dicts and the whole text
    Gate(["pair", "1000000", "--format", "json"], limit=200),
    # 628 MB while its 9,999,904 singletons were a list
    Gate(["validate-pairs", FIXTURE, "--max", "10000000"], limit=150),
    Gate(["validate-pairs", FIXTURE, "--max", "10000000", "--format", "json"], limit=150),
    # 1005 MB while a member past int64 made the report hold lists
    Gate(["validate-pairs", PAST, "--max", "10000000"], exit=3, limit=150),
    # the bijection benchmark's widest table step (about 33.4 MB on a 2-core
    # host); a token array that grew with the range instead of the block
    # would show here
    Gate(["table", "--from", "529988", "--to", "679988"], limit=60,
         sha256="c566ff956e1150ee9c39204a09e53e0489c396f169a07afc156d106c5ac4637b"),
    # about 41 MB; 74.6 MB while every prime's key stayed memoised
    Gate(["table", "--from", "1", "--to", "3000000"], limit=55,
         sha256="741a2f9895f80343da7e7663360f34e4822767432c943ac142e83400e5438da5"),
    # about 2.6 and 1.5 MB above the floor; 6.8 and 7.0 MB while every
    # smallest-factor sieve held at least 2**20 entries
    Gate(["leaf-class", "2", "--max", "300000"], above_floor=6),
    Gate(["table", "--from", "1048426", "--to", "1048676"], above_floor=6),
    # about 4.0, 3.1 and 3.2 MB above the floor; 8.0, 5.4 and 5.7 MB while
    # every block carried all five edge columns through its sort and the
    # validator copied the members to int64
    Gate(["pair", "99956", "--mode", "liouville", "--format", "json"], above_floor=7),
    Gate(["pair", "99956", "--mode", "mobius", "--format", "json"], above_floor=7),
    Gate(["validate-pairs", PAIRS, "--max", "99956", "--mode", "liouville"], above_floor=7),
    # about 80 MB: the cut table behind value_increasing_cuts at scale
    Gate(["scan", "cut-decrease", "--max", "1000000"], limit=120,
         sha256="13089b5c0a4972c7a5d6bd998a3d11a24e5796373b0f47543acbc5b5dacc4693"),
    # about 284 MB; 340 MB while the move-log keys were ordered in 64-bit
    # arrays, 502 MB while the cut table concatenated its blocks and the
    # rows were int64
    Gate(["pair", "10000000", "--format", "json"], limit=400,
         sha256="7dc3f0fbabc9c61bb323ab630d5c8dec2c63b9285cd50092fa34651c95eed52f"),
    # about 330 MB; 510 MB while the exceptions went through a set of tuples
    Gate(["scan", "cut-decrease", "--max", "10000000"], limit=400,
         sha256="b59623ba4845ff56d1564808d816cbbeb9cbfcb8c7a31cab1a1745a78eda195e"),
    # no layer calls BLAS, so main() pins OpenBLAS to one thread before numpy
    # loads (an idle default pool added about 0.13 s of CPU per run on a
    # 2-core host, and would add roughly 0.3 s on a 4-core runner)
    Gate(["table", "--from", "529988", "--to", "679988"], cpu=True),
    Gate(["pair", "100000", "--format", "json"], cpu=True),
]


def spawn(argv: list[str], out: str, env: dict[str, str]) -> tuple[int, float, float, float]:
    """Exit code, peak RSS in MB, CPU and wall seconds of matula argv, its
    stdout written to out."""
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        started = time.perf_counter()
        pid = os.posix_spawnp("matula", ["matula", *argv], env, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - started
    finally:
        os.close(fd)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime, wall


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_fixtures(tmp: str) -> None:
    with open(FIXTURE) as src, open(PAST.format(tmp=tmp), "w") as dst:
        dst.write(src.read() + "100000000000000000000 3\n")
    # read in a child, so that this spawner stays small
    pairs = os.path.join(tmp, "pairs_99956.json")
    if spawn(["pair", "99956", "--format", "json"], pairs, dict(os.environ))[0]:
        sys.exit("pair 99956 --format json failed: no pair list to validate")
    convert = 'import json, sys; sys.stdout.writelines(f"{k} {l}\\n" for k, l in json.load(sys.stdin)["pairs"])'
    with open(pairs) as src, open(PAIRS.format(tmp=tmp), "w") as dst:
        subprocess.run([sys.executable, "-c", convert], stdin=src, stdout=dst, check=True)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(tmp)
        out = os.path.join(tmp, "stdout")
        code, floor, _, _ = spawn(["number-of", "[]"], os.devnull, dict(os.environ))
        print(f'number-of "[]": exit {code}, peak RSS {floor:.1f} MB (the floor)')
        failed |= code != 0
        for gate in GATES:
            argv = [arg.format(tmp=tmp) for arg in gate.argv]
            env = dict(os.environ)
            if gate.cpu:
                env.pop("OPENBLAS_NUM_THREADS", None)
            code, mb, cpu, wall = spawn(argv, out if gate.sha256 else os.devnull, env)
            notes = [f"exit {code} (expected {gate.exit})", f"peak RSS {mb:.1f} MB"]
            bad = code != gate.exit
            if gate.limit is not None:
                notes.append(f"limit {gate.limit} MB")
                bad |= mb >= gate.limit
            if gate.above_floor is not None:
                notes.append(f"{mb - floor:.1f} MB above the floor (limit {gate.above_floor} MB)")
                bad |= mb - floor >= gate.above_floor
            if gate.sha256:
                digest = sha256_of(out)
                notes.append(f"sha256 {digest}")
                bad |= digest != gate.sha256
            if gate.cpu:
                notes.append(f"CPU {cpu:.2f} s, wall {wall:.2f} s (CPU limit {1.1 * wall + 0.05:.2f} s)")
                bad |= cpu > 1.1 * wall + 0.05
            print(f"{' '.join(gate.argv)}: {', '.join(notes)}{'  FAILED' if bad else ''}")
            failed |= bad
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
