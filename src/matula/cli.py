"""Command-line front end: every library operation behind one subcommand.

Exit codes: 0 success, 2 usage error, 3 domain error (bad value, non-prime
input, malformed brackets, invalid pair fixture), 4 prime-cap overflow, a
sieve larger than the machine grants, or any other allocation it refuses.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import os
import sys
from typing import TYPE_CHECKING

from .constants import DEFAULT_CAP, LIOUVILLE, MODES, POLICIES
from .errors import CapExceeded, MatulaError, NotPrime, ParseError, SieveTooLarge

if TYPE_CHECKING:
    from .primes import PrimeTable
    from .scans import ScanReport

# Each command imports the layers it runs when it runs, so ``--help`` and a
# usage error load no numpy and, say, ``pair`` never compiles the tree core.

# scan kind -> (function in ``scans``, its bound options in argument order).
# Each option falls back to --max.  The function is looked up on the module
# when the scan runs, so a wrapper rebound on ``scans`` sees the call.
_SCANS = {
    "pan-apn": ("scan_prime_rank_growth", ("max_a", "max_n")),
    "fusion": ("scan_fusion", ("max_m", "max_n")),
    "mrd": ("scan_prime_size_bounds", ("max",)),
    "sousselier": ("scan_rank_ratio_monotone", ("max",)),
    "three-n": ("scan_three_n", ("max",)),
    "cut-decrease": ("scan_cut_decrease", ("max",)),
    "tuple-width": ("check_tuple_width_bound", ("max",)),
    "nap": ("scan_nap_law", ("max",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matula",
        description="Rooted-forest arithmetic on the positive integers.",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        metavar="N",
        help="hard cap for sieved primes (default 2**32)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt_arg(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("arborify", help="forest of an integer, as brackets")
    p.add_argument("n", type=int)
    fmt_arg(p, ("text", "json", "dot"))

    p = sub.add_parser("number-of", help="integer of a bracket forest")
    p.add_argument("brackets")

    p = sub.add_parser("stats", help="vertex/edge/leaf/factor/degree counts")
    p.add_argument("n", type=int)
    fmt_arg(p)

    p = sub.add_parser("degree-list", help="all integers of a given degree")
    p.add_argument("m", type=int)
    fmt_arg(p)

    p = sub.add_parser("leaf-class", help="integers with a given leaf count")
    p.add_argument("leaves", type=int)
    p.add_argument("--max", type=int, required=True, metavar="N")
    fmt_arg(p)

    p = sub.add_parser("butcher", help="graft prime P onto the root of prime Q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("fuse", help="merge the roots of two primes")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("cuts", help="all single-edge cuts of a prime")
    p.add_argument("p", type=int)
    p.add_argument("--trace", action="store_true", help="show descent chains")
    fmt_arg(p)

    p = sub.add_parser("table", help="n<TAB>brackets for a range of integers")
    p.add_argument("--from", dest="lo", type=int, default=1, metavar="A")
    p.add_argument("--to", dest="hi", type=int, required=True, metavar="B")

    p = sub.add_parser("ratio-table", help="exact p_k p_l / p_(kl) rectangle")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    fmt_arg(p)

    p = sub.add_parser("scan", help="exhaustive inequality scans (JSON output)")
    p.add_argument("which", choices=_SCANS)
    p.add_argument("--max", type=int, metavar="N", help="main range bound")
    p.add_argument("--max-a", type=int, metavar="A", help="pan-apn: bound for a")
    p.add_argument("--max-n", type=int, metavar="N", help="pan-apn/fusion: bound for n")
    p.add_argument("--max-m", type=int, metavar="M", help="fusion: bound for m")
    p.add_argument("--timings", action="store_true", help="include elapsed_ms")

    p = sub.add_parser("constellation", help="minimal admissible k-tuple width")
    p.add_argument("k", type=int)
    fmt_arg(p)

    p = sub.add_parser("summatory", help="Mertens/Liouville partial sum")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)

    p = sub.add_parser("partners", help="one-move partners of an integer")
    p.add_argument("k", type=int)
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)
    fmt_arg(p)

    p = sub.add_parser("pair", help="greedy opposite-sign pairing of 1..N")
    p.add_argument("n", type=int)
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)
    p.add_argument("--policy", choices=POLICIES, default="largest")
    fmt_arg(p)

    p = sub.add_parser("validate-pairs", help="check a hand-written pair list")
    p.add_argument("file")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)
    fmt_arg(p)

    return parser


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(", ", ": ")))


def _run(args: argparse.Namespace) -> int:
    from .primes import PrimeTable

    table = PrimeTable(cap=args.cap)
    cmd = args.command

    if cmd == "arborify":
        from . import bijection, forests

        forest = bijection.arborify(args.n, table)
        if args.format == "dot":
            print(forests.render(forest, "dot"))
        elif args.format == "json":
            _emit({"n": args.n, "forest": forests.print_forest(forest)})
        else:
            print(forests.print_forest(forest))

    elif cmd == "number-of":
        from . import bijection, forests

        # a parsed tree keeps a key per vertex, O(depth**2) characters on a
        # path: refuse a well-formed input too tall for the cap before that
        bijection.check_height(forests.bracket_depth(args.brackets), args.cap)
        n = bijection.number_of(forests.parse_forest(args.brackets), table)
        digits = sys.get_int_max_str_digits()  # lifted for this exact integer only
        sys.set_int_max_str_digits(0)
        try:
            print(n)
        finally:
            sys.set_int_max_str_digits(digits)

    elif cmd == "stats":
        from . import bijection, forests

        st = bijection.stats_of(args.n, table)
        walked = forests.stats(bijection.arborify(args.n, table))
        if (st.vertices, st.edges, st.leaves) != tuple(walked):
            raise MatulaError(f"statistic paths disagree for {args.n}")
        doc = {
            "n": args.n,
            "vertices": st.vertices,
            "edges": st.edges,
            "leaves": st.leaves,
            "factors": st.factors,
            "degree": st.degree,
        }
        if args.format == "json":
            _emit(doc)
        else:
            print(
                "vertices={vertices} edges={edges} leaves={leaves} "
                "factors={factors} degree={degree}".format(**doc)
            )

    elif cmd == "degree-list":
        from . import bijection

        ns = bijection.integers_of_degree(args.m, table)
        if args.format == "json":
            _emit({"degree": args.m, "integers": ns})
        else:
            print(" ".join(map(str, ns)))

    elif cmd == "leaf-class":
        from . import bijection

        ns = bijection.integers_with_leaf_count(args.leaves, args.max, table)
        if args.format == "json":
            _emit({"leaves": args.leaves, "max": args.max, "integers": ns})
        else:
            print(" ".join(map(str, ns)))

    elif cmd == "butcher":
        from . import algebra

        print(algebra.butcher(args.p, args.q, table))

    elif cmd == "fuse":
        from . import algebra

        print(algebra.fuse(args.p, args.q, table))

    elif cmd == "cuts":
        from . import algebra

        pairs = sorted(algebra.cuts(args.p, table))
        chains = algebra.cut_chains(args.p, table) if args.trace else None
        if args.format == "json":
            doc: dict = {
                "prime": args.p,
                "cuts": [
                    {"detached": c.detached, "remaining": c.remaining, "product": c.product}
                    for c in pairs
                ],
            }
            if chains is not None:
                doc["chains"] = [list(chain) for _, chain in chains]
            _emit(doc)
        elif not pairs:
            print("no cuts")
        else:
            for c in pairs:
                print(f"{c.detached} {c.remaining} -> {c.product}")
            if chains:
                for _, chain in chains:
                    print("chain: " + " -> ".join(map(str, chain)))

    elif cmd == "table":
        from . import bijection

        for chunk in bijection.table_text(args.lo, args.hi, table):
            sys.stdout.write(chunk)

    elif cmd == "ratio-table":
        from . import scans

        entries = scans.ratio_table(args.k, args.l, table)
        if args.format == "json":
            _emit(
                {
                    "k_max": args.k,
                    "l_max": args.l,
                    "entries": [
                        [k, l, f.numerator, f.denominator]
                        for (k, l), f in sorted(entries.items())
                    ],
                }
            )
        else:
            for (k, l), f in sorted(entries.items()):
                print(f"{k}\t{l}\t{f.numerator}/{f.denominator}")

    elif cmd == "scan":
        report = _run_scan(args, table)
        print(report.to_json(with_elapsed=args.timings))

    elif cmd == "constellation":
        from . import scans

        w = scans.min_constellation_width(args.k, table)
        if args.format == "json":
            _emit({"k": w.k, "width": w.width, "pattern": list(w.pattern)})
        else:
            print(f"k={w.k} width={w.width} pattern={' '.join(map(str, w.pattern))}")

    elif cmd == "summatory":
        from . import pairing

        print(pairing.summatory(args.n, args.mode, table))

    elif cmd == "partners":
        from . import pairing

        ls = pairing.partner_candidates(args.k, args.mode, table)
        if args.format == "json":
            _emit({"k": args.k, "mode": args.mode, "partners": ls})
        else:
            print(" ".join(map(str, ls)) if ls else "no partners")

    elif cmd == "pair":
        from . import pairing

        report = pairing.pair_range(args.n, args.mode, args.policy, table)
        if args.format == "json":
            report.write_json(sys.stdout)
            print()
        else:
            pairs, singletons = report.counts()
            print(
                f"N={report.n} mode={report.mode} policy={report.policy} "
                f"pairs={pairs} singletons={singletons} "
                f"bound={report.bound} exact={report.exact}"
            )

    elif cmd == "validate-pairs":
        from . import pairing

        with open(args.file, "r", encoding="utf-8") as fh:
            rows = pairing._pair_rows(fh.read())
        report = pairing.report_from_pairs(args.max, args.mode, rows, table=table)
        errors = pairing.validation_errors(report, table)
        if args.format == "json":
            report.write_json(sys.stdout)
            print()
        if errors:
            for e in errors:
                print(f"invalid: {e}", file=sys.stderr)
            return 3
        if args.format != "json":
            pairs, singletons = report.counts()
            print(
                f"valid: {pairs} pairs, {singletons} singletons, "
                f"bound={report.bound}, exact={report.exact}"
            )

    return 0


def _run_scan(args: argparse.Namespace, table: PrimeTable) -> ScanReport:
    from . import scans

    name, options = _SCANS[args.which]
    bounds = [getattr(args, o) or args.max for o in options]
    if None in bounds:
        others = "/".join("--" + o.replace("_", "-") for o in options if o != "max")
        raise ValueError(f"{args.which} needs --max" + (f" or {others}" if others else ""))
    return getattr(scans, name)(*bounds, table)


@functools.cache
def _freeze_heap_at_exit() -> None:
    # cached, so one handler however often main() runs
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    """Run one ``matula`` command line and return its exit code.

    Before anything else it registers ``gc.freeze`` to run at interpreter
    exit, once however often it runs.  Exit then skips the collector's
    passes over the frozen heap (about 21k tracked objects once numpy and
    the layers are loaded), whose memory the process hands back whole
    anyway: ``fuse 5 7`` exits about 30 ms sooner.  ``gc.freeze`` is never
    called in-process, because a frozen object is never collected: a
    long-lived caller of ``main()``, such as the tests, would keep every
    cycle made before the call for its lifetime.  Importing this module
    registers nothing.
    """
    _freeze_heap_at_exit()
    # no layer calls BLAS: an idle OpenBLAS worker pool would only spin on the CPU
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CapExceeded, SieveTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:  # an allocation no typed guard foresaw
        print(f"error: {args.command} needs more memory than this machine could allocate",
              file=sys.stderr)
        return 4
    except (NotPrime, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MatulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
