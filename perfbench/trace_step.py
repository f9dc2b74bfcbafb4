"""Run one matula CLI command with timing wrappers around each layer's functions.

Usage: python trace_step.py RECORD.json -- <matula arguments>

The wrappers are installed from outside: every module attribute that names a
wrapped function is rebound (``pairing.cuts`` and ``pairing.fuse`` are the
same objects as ``algebra.cuts`` and ``algebra.fuse``), and ``PrimeTable``
methods, ``Tree.__new__`` and ``Forest.__init__`` are replaced on the class.
Spans are aggregated in memory per name and written to RECORD.json when the
command ends.  Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name) of every wrapped module-level function.
FUNCTIONS = [
    ("forests", "parse_forest", "forests.parse_forest"),
    ("forests", "print_forest", "forests.print_forest"),
    ("bijection", "arborify", "bijection.arborify"),
    ("bijection", "number_of", "bijection.number_of"),
    ("bijection", "integers_with_leaf_count", "bijection.integers_with_leaf_count"),
    ("bijection", "integers_of_degree", "bijection.integers_of_degree"),
    ("algebra", "cuts", "algebra.cuts"),
    ("algebra", "fuse", "algebra.fuse"),
    ("pairing", "partner_moves", "pairing.partner_moves"),
    ("pairing", "pair_range", "pairing.pair_range"),
    ("pairing", "summatory", "pairing.summatory"),
    ("pairing", "sign_of", "pairing.sign"),
    ("pairing", "is_squarefree", "pairing.is_squarefree"),
    ("pairing", "validation_errors", "pairing.validation_errors"),
    ("pairing", "report_from_pairs", "pairing.report_from_pairs"),
    ("scans", "scan_rank_ratio_monotone", "scans.scan_rank_ratio_monotone"),
    ("scans", "scan_prime_size_bounds", "scans.scan_prime_size_bounds"),
    ("cli", "main", "cli.main"),
]

# PrimeTable methods, replaced on the class.
METHODS = [
    "extend_to",
    "factorize",
    "_factorize_trial",
    "ensure_factor_sieve",
    "nth_prime",
    "prime_rank",
]


class Tracer:
    """Aggregated spans: calls, total and self time per name."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self._stack: list[list] = []

    def wrap(self, name: str, fn, on_result=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _rebind(modules, fn, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def main() -> int:
    record_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: trace_step.py RECORD.json -- <matula arguments>")
    argv = sys.argv[3:]

    start = time.perf_counter()
    import matula
    import matula.cli
    import_s = time.perf_counter() - start

    from matula import algebra, bijection, forests, pairing, primes, scans

    layers = {
        "forests": forests,
        "bijection": bijection,
        "algebra": algebra,
        "pairing": pairing,
        "scans": scans,
        "cli": matula.cli,
    }
    modules = [matula, primes, *layers.values()]
    tracer = Tracer()
    tables: list = []
    reports: list[list[int]] = []

    for layer, attr, name in FUNCTIONS:
        fn = getattr(layers[layer], attr)
        on_result = None
        if name == "pairing.pair_range":
            on_result = lambda r: reports.append([len(r.pairs), len(r.singletons)])
        _rebind(modules, fn, tracer.wrap(name, fn, on_result))

    table_cls = primes.PrimeTable
    for attr in METHODS:
        setattr(table_cls, attr, tracer.wrap(f"primes.{attr}", getattr(table_cls, attr)))
    plain_init = table_cls.__init__

    def recording_init(self, *args, **kwargs):
        tables.append(self)
        plain_init(self, *args, **kwargs)

    table_cls.__init__ = recording_init

    tree_cls = forests.Tree
    tree_cls.__new__ = staticmethod(tracer.wrap("forests.Tree", tree_cls.__new__))
    forest_cls = forests.Forest
    forest_cls.__init__ = tracer.wrap("forests.Forest", forest_cls.__init__)
    intern_start = len(tree_cls._intern)

    try:
        return matula.cli.main(argv)
    finally:
        sys.stdout.flush()
        _write_record(record_path, import_s, tracer, intern_start, tables, reports)


def _write_record(path, import_s, tracer, intern_start, tables, reports) -> None:
    from matula import algebra, bijection, forests

    tree_cls = forests.Tree
    biggest = max(tables, key=lambda t: t.limit, default=None)
    table_bytes = 0
    if biggest is not None:
        table_bytes = biggest._primes.nbytes
        if biggest._spf is not None:
            table_bytes += biggest._spf.nbytes
    record = {
        "import_s": import_s,
        "spans": tracer.spans,
        "intern_growth": len(tree_cls._intern) - intern_start,
        "intern_size": len(tree_cls._intern),
        "cuts_cache": len(algebra._cuts_cache),
        "memo_entries": len(bijection._tree_of_prime)
        + len(bijection._number_of_tree)
        + len(bijection._vaf_of_prime)
        + len(bijection._vertex_level_cache),
        "table_primes": biggest.count if biggest is not None else 0,
        "table_limit": biggest.limit if biggest is not None else 0,
        "table_bytes": table_bytes,
        "pair_reports": reports,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
