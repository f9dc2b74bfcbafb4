"""Rooted-forest arithmetic on the positive integers.

Positive integers correspond one-to-one with finite forests of rooted trees:
1 is the empty forest, multiplication is multiset union, and the n-th prime
is the forest of n with a new common root underneath.  This package builds
that correspondence, the tree products and edge cuts it induces on primes,
exhaustive verifiers for a family of prime inequalities, and a pairing
engine that bounds the Mertens and Liouville summatory functions by matching
integers of opposite sign.
"""

import importlib

__version__ = "0.1.0"

# Each export is imported from its defining submodule on first access (PEP 562),
# so ``import matula`` loads no numpy and a command loads only its own layers.
_EXPORTS = {
    "algebra": (
        "CutPair",
        "butcher",
        "cut_chains",
        "cuts",
        "fuse",
        "nap_law_holds",
        "value_increasing_cuts",
    ),
    "bijection": (
        "Stats",
        "arborify",
        "integers_of_degree",
        "integers_with_leaf_count",
        "number_of",
        "stats_of",
    ),
    "constants": ("LIOUVILLE", "MOBIUS"),
    "errors": ("CapExceeded", "MatulaError", "NotPrime", "ParseError", "SieveTooLarge"),
    "forests": (
        "EMPTY_FOREST",
        "LEAF",
        "Forest",
        "Tree",
        "TreeStats",
        "attach_root",
        "detach_root",
        "parse_forest",
        "print_forest",
        "render",
        "stats",
    ),
    "primes": ("PrimeTable", "default_table"),
    "scans": (
        "ConstellationWidth",
        "ScanReport",
        "check_tuple_width_bound",
        "is_admissible",
        "min_constellation_width",
        "ratio_table",
        "scan_cut_decrease",
        "scan_fusion",
        "scan_nap_law",
        "scan_prime_rank_growth",
        "scan_prime_size_bounds",
        "scan_rank_ratio_monotone",
        "scan_three_n",
    ),
    "pairing": (
        "PairingReport",
        "factor_count",
        "is_squarefree",
        "liouville",
        "load_pairs",
        "mobius",
        "pair_range",
        "partner_candidates",
        "partner_moves",
        "report_from_pairs",
        "summatory",
        "validate_report",
        "validation_errors",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
