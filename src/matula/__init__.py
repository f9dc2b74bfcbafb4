"""Rooted-forest arithmetic on the positive integers.

Positive integers correspond one-to-one with finite forests of rooted trees:
1 is the empty forest, multiplication is multiset union, and the n-th prime
is the forest of n with a new common root underneath.  This package builds
that correspondence, the tree products and edge cuts it induces on primes,
exhaustive verifiers for a family of prime inequalities, and a pairing
engine that bounds the Mertens and Liouville summatory functions by matching
integers of opposite sign.
"""

from .algebra import (
    CutPair,
    butcher,
    cut_chains,
    cuts,
    fuse,
    nap_law_holds,
    value_increasing_cuts,
)
from .bijection import (
    Stats,
    arborify,
    integers_of_degree,
    integers_with_leaf_count,
    number_of,
    stats_of,
)
from .errors import CapExceeded, MatulaError, NotPrime, ParseError, SieveTooLarge
from .forests import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    Tree,
    TreeStats,
    attach_root,
    detach_root,
    parse_forest,
    print_forest,
    render,
    stats,
)
from .primes import PrimeTable, default_table
from .scans import (
    ConstellationWidth,
    ScanReport,
    check_tuple_width_bound,
    is_admissible,
    min_constellation_width,
    ratio_table,
    scan_cut_decrease,
    scan_fusion,
    scan_nap_law,
    scan_prime_rank_growth,
    scan_prime_size_bounds,
    scan_rank_ratio_monotone,
    scan_three_n,
)
from .pairing import (
    LIOUVILLE,
    MOBIUS,
    PairingReport,
    factor_count,
    is_squarefree,
    liouville,
    load_pairs,
    mobius,
    pair_range,
    partner_candidates,
    partner_moves,
    report_from_pairs,
    summatory,
    validate_report,
    validation_errors,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ConstellationWidth",
    "CutPair",
    "EMPTY_FOREST",
    "Forest",
    "LEAF",
    "LIOUVILLE",
    "MOBIUS",
    "MatulaError",
    "NotPrime",
    "PairingReport",
    "ParseError",
    "PrimeTable",
    "ScanReport",
    "SieveTooLarge",
    "Stats",
    "Tree",
    "TreeStats",
    "arborify",
    "attach_root",
    "butcher",
    "check_tuple_width_bound",
    "cut_chains",
    "cuts",
    "default_table",
    "detach_root",
    "factor_count",
    "fuse",
    "integers_of_degree",
    "integers_with_leaf_count",
    "is_admissible",
    "is_squarefree",
    "liouville",
    "load_pairs",
    "min_constellation_width",
    "mobius",
    "nap_law_holds",
    "number_of",
    "pair_range",
    "parse_forest",
    "partner_candidates",
    "partner_moves",
    "print_forest",
    "ratio_table",
    "render",
    "report_from_pairs",
    "scan_cut_decrease",
    "scan_fusion",
    "scan_nap_law",
    "scan_prime_rank_growth",
    "scan_prime_size_bounds",
    "scan_rank_ratio_monotone",
    "scan_three_n",
    "stats",
    "stats_of",
    "summatory",
    "validate_report",
    "validation_errors",
    "value_increasing_cuts",
]
