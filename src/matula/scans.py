"""Exhaustive range verifiers for prime inequalities and related tables.

Every scan walks its whole parameter rectangle (no sampling) and returns a
ScanReport whose exception list is exactly the violation set.  Integer
comparisons are exact; only the log-based bounds use floats, with a relative
guard band and a high-precision recheck near the boundary.  The rank-ratio
scan settles an n in floats only where Dusart's lower bound on p_(p_n)
proves it with the guard band to spare, and compares the rest exactly.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from math import log
from typing import TYPE_CHECKING

import numpy as np

from .primes import PrimeTable, _nth_prime_bound, default_table

if TYPE_CHECKING:
    from fractions import Fraction

# The cut algebra and ``fractions`` load inside the scans that use them, so
# ``scan mrd``, ``scan sousselier`` and ``scan three-n`` skip their imports.

GUARD_BAND = 1e-9  # relative width of the float comparison no-man's-land
# n per step of the scans that read the first n primes: their temporaries
# stay a few of these long, whatever n_max is
_TABLE_BLOCK = 1 << 15


@dataclass
class ScanReport:
    """Certificate for one exhaustive scan: the rectangle and its violations."""

    name: str
    range: dict[str, int]
    exceptions: list[tuple]
    elapsed: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_json(self, with_elapsed: bool = True) -> str:
        doc = {
            "name": self.name,
            "range": self.range,
            "exceptions": [list(e) for e in self.exceptions],
            "elapsed_ms": round(self.elapsed * 1000.0, 3) if with_elapsed else None,
        }
        doc.update(self.extra)
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def _timed(scan):
    """Set the report's ``elapsed`` to the wall time the scan took."""

    @functools.wraps(scan)
    def timed(*args, **kwargs) -> ScanReport:
        started = time.perf_counter()
        report = scan(*args, **kwargs)
        report.elapsed = time.perf_counter() - started
        return report

    return timed


@_timed
def scan_prime_rank_growth(
    a_max: int, n_max: int, table: PrimeTable | None = None
) -> ScanReport:
    """Check p_(a*n) > a * p_n over 2 <= a <= a_max, 1 <= n <= n_max.

    The only failures anywhere are (a, n) in {(2,1), (3,1), (4,1)}.
    """
    if a_max < 2 or n_max < 1:
        raise ValueError(f"empty scan range: a_max={a_max}, n_max={n_max}")
    table = table or default_table()
    primes = table.first_n(a_max * n_max)
    base = primes[:n_max]
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    exceptions: list[tuple] = []
    for a in range(2, a_max + 1):
        bad = np.nonzero(primes[a * ns - 1] <= a * base)[0]
        exceptions.extend((a, int(n)) for n in ns[bad])
    exceptions.sort()
    return ScanReport(
        name="prime-rank-growth",
        range={"a_min": 2, "a_max": a_max, "n_min": 1, "n_max": n_max},
        exceptions=exceptions,
    )


@_timed
def scan_fusion(m_max: int, n_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Check p_(m*n) < p_m * p_n over unordered {m, n} in the rectangle.

    The only failures anywhere are {3,4} and {4,4}.
    """
    if m_max < 1 or n_max < 1:
        raise ValueError(f"empty scan range: m_max={m_max}, n_max={n_max}")
    table = table or default_table()
    lo, hi = min(m_max, n_max), max(m_max, n_max)
    primes = table.first_n(lo * hi)
    exceptions: list[tuple] = []
    for m in range(1, lo + 1):
        ns = np.arange(m, hi + 1, dtype=np.int64)
        pm = primes[m - 1]
        bad = np.nonzero(primes[m * ns - 1] >= pm * primes[ns - 1])[0]
        exceptions.extend((m, int(n)) for n in ns[bad])
    exceptions.sort()
    return ScanReport(
        name="fusion",
        range={"m_max": m_max, "n_max": n_max},
        exceptions=exceptions,
    )


def ratio_table(
    k_max: int, l_max: int, table: PrimeTable | None = None
) -> dict[tuple[int, int], Fraction]:
    """Exact rationals p_k * p_l / p_(k*l) for the whole rectangle."""
    if k_max < 1 or l_max < 1:
        raise ValueError(f"empty table range: k_max={k_max}, l_max={l_max}")
    from fractions import Fraction

    table = table or default_table()
    primes = table.first_n(k_max * l_max)
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(1, k_max + 1):
        pk = int(primes[k - 1])
        for l in range(1, l_max + 1):
            out[(k, l)] = Fraction(pk * int(primes[l - 1]), int(primes[k * l - 1]))
    return out


# Sharp bounds on the n-th prime as (name, first n, kind, bound(x, log, num)).
# Each bound is written once: the float pass evaluates it with (np.log, float)
# on an array of n, the recheck with (mpmath.log, mpmath.mpf) on one int n.
_SIZE_BOUNDS = (
    ("lower", 2, "lower", lambda x, log, num: x * ((lg := log(x)) + log(lg) - 1)),
    (
        "upper-refined",
        13,
        "upper",
        lambda x, log, num: x
        * ((lg := log(x)) + (lglg := log(lg)) - 1 + num("1.8") * lglg / lg),
    ),
    (
        "upper-const",
        13,
        "upper",
        lambda x, log, num: x * ((lg := log(x)) + log(lg) - num("0.337")),
    ),
)


def _float_bound_scan(
    name: str, first: int, kind: str, bound, primes: np.ndarray
) -> list[tuple]:
    """Compare p_n = primes[n - first] for n >= first against a bound with a
    guard band.

    kind "lower": pass means p_n >= bound; kind "upper": p_n <= bound.
    Cases within GUARD_BAND relative distance of the boundary are re-decided
    with 60-digit arithmetic.
    """
    ns = np.arange(first, first + len(primes), dtype=np.int64)
    b = bound(ns.astype(np.float64), np.log, float)
    band = GUARD_BAND * np.abs(b)
    p = primes.astype(np.float64)
    if kind == "lower":
        clear_fail = p < b - band
    else:
        clear_fail = p > b + band
    near = np.abs(p - b) <= band
    failures = [int(n) for n in ns[clear_fail]]
    if near.any():
        import mpmath  # here, not at the top: only the 60-digit recheck needs it

        with mpmath.workdps(60):
            for i in np.nonzero(near)[0]:
                n = int(ns[i])
                exact = bound(n, mpmath.log, mpmath.mpf)
                pn = mpmath.mpf(int(primes[i]))
                if (kind == "lower" and pn < exact) or (kind == "upper" and pn > exact):
                    failures.append(n)
    return [(name, n) for n in sorted(failures)]


@_timed
def scan_prime_size_bounds(n_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Check the sharp bounds on the n-th prime.

    lower (n >= 2):        p_n >= n(log n + log log n - 1)
    upper-refined (n>=13): p_n <= n(log n + log log n - 1 + 1.8 log log n / log n)
    upper-const (n>=13):   p_n <= n(log n + log log n - 0.337)
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    table = table or default_table()
    exceptions: list[tuple] = []
    for lo, primes in table.rank_windows(2, n_max, _TABLE_BLOCK):
        for name, first, kind, bound in _SIZE_BOUNDS:
            skip = max(first - lo, 0)
            exceptions += _float_bound_scan(name, lo + skip, kind, bound, primes[skip:])
    return ScanReport(
        name="prime-size-bounds",
        range={"n_min": 2, "n_max": n_max},
        exceptions=sorted(exceptions),
    )


@_timed
def scan_rank_ratio_monotone(n_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Check p_n / n <= p_(p_n) / p_n for 2 <= n <= n_max.

    The inequality is p_n * p_n <= n * p_(p_n).  Dusart (1999) gives
    p_m >= L(m) = m(log m + log log m - 1) for m >= 2 (the "lower" size
    bound), so every n with p_n * p_n < n * L(p_n) * (1 - GUARD_BAND) in
    floats holds without p_(p_n): the guard band dwarfs the float error.
    Only the n left open (n = 2, 3, 4 up to at least 10**7) read p_(p_n)
    from ``nth_primes`` and are compared exactly in integers.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    table = table or default_table()
    lower = _SIZE_BOUNDS[0][3]
    open_ns, open_ps = [], []
    for lo, p in table.rank_windows(2, n_max, _TABLE_BLOCK):
        ns = np.arange(lo, lo + len(p), dtype=np.int64)
        x = p.astype(np.float64)
        left = x * x >= ns * lower(x, np.log, float) * (1 - GUARD_BAND)
        open_ns.append(ns[left])
        open_ps.append(p[left])
    top = int(p[-1])  # p_(n_max)
    if _nth_prime_bound(top) > table.cap:
        # p_(p_n) may lie past the cap: the largest rank the exact check
        # could need names the error, as when it read every p_(p_n)
        table.nth_primes([top])
    ns, p = np.concatenate(open_ns), np.concatenate(open_ps)
    bad = np.flatnonzero(p * p > ns * table.nth_primes(p))
    return ScanReport(
        name="rank-ratio-monotone",
        range={"n_min": 2, "n_max": n_max},
        exceptions=[(int(n),) for n in ns[bad]],
    )


@_timed
def scan_cut_decrease(q_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Certify which cuts of primes <= q_max increase the value.

    Exceptions are (q, product) pairs with product > q; everywhere else a cut
    strictly decreases the value.
    """
    if q_max < 3:
        raise ValueError(f"need q_max >= 3, got {q_max}")
    from .algebra import value_increasing_cuts

    table = table or default_table()
    exceptions = value_increasing_cuts(q_max, table)
    return ScanReport(
        name="cut-decrease",
        range={"q_max": q_max},
        exceptions=exceptions,
    )


@_timed
def scan_nap_law(p_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Check the graft-exchange law x>(y>z) = y>(x>z) for all prime triples
    with values <= p_max (expected to hold identically)."""
    if p_max < 2:
        raise ValueError(f"need p_max >= 2, got {p_max}")
    from .algebra import nap_law_holds

    table = table or default_table()
    # The last triple (P, P, P), P the largest prime <= p_max, reads the
    # prime of rank P * P * pi(P), the largest rank of the scan.  A lower
    # bound of that rank past the table's rank ceiling refuses before any
    # prime is listed: Nagura (1952) puts a prime in (5x/6, x] from x = 30,
    # and Rosser & Schoenfeld (1962) give pi(x) > x / ln x from x = 17.
    if 30 <= p_max <= table.cap:
        low = 5 * p_max // 6 + 1
        rank = low * low * int(p_max / log(p_max) * (1 - GUARD_BAND))
        if rank >= table._rank_ceiling:
            raise table._rank_error(rank)
    ps = table.primes_up_to(p_max)
    table.nth_prime(int(ps[-1]) ** 2 * len(ps))  # the last triple's rank: refused here or nowhere
    exceptions = [
        (a, b, c)
        for a in map(int, ps)
        for b in map(int, ps)
        for c in map(int, ps)
        if not nap_law_holds(a, b, c, table)
    ]
    return ScanReport(
        name="nap-law",
        range={"p_max": p_max},
        exceptions=exceptions,
    )


@_timed
def scan_three_n(n_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Check p_n > 3n for n >= 12; n = 11 fails (31 < 33) and is reported
    as the boundary witness."""
    if n_max < 12:
        raise ValueError(f"need n_max >= 12, got {n_max}")
    table = table or default_table()
    exceptions: list[tuple] = []
    for lo, p in table.rank_windows(12, n_max, _TABLE_BLOCK):
        ns = np.arange(lo, lo + len(p), dtype=np.int64)
        exceptions += [(int(n),) for n in ns[p <= 3 * ns]]
    p11 = int(table.nth_primes([11])[0])
    return ScanReport(
        name="three-n",
        range={"n_min": 12, "n_max": n_max},
        exceptions=exceptions,
        extra={"boundary_witness": {"n": 11, "prime": p11, "three_n": 33}},
    )


# -- admissible constellations ------------------------------------------------


@dataclass(frozen=True)
class ConstellationWidth:
    """Minimal diameter of an admissible k-tuple plus one witness pattern."""

    k: int
    width: int
    pattern: tuple[int, ...]


MAX_CONSTELLATION_K = 13


def is_admissible(pattern: tuple[int, ...], small_primes: list[int]) -> bool:
    """For every prime in small_primes, the offsets miss >= 1 residue class."""
    for p in small_primes:
        if len({o % p for o in pattern}) == p:
            return False
    return True


def min_constellation_width(k: int, table: PrimeTable | None = None) -> ConstellationWidth:
    """Minimal diameter of k integer offsets that, for every prime p <= k,
    avoid at least one residue class mod p.

    Branch-and-bound over even offsets ascending (with 0 fixed first): an
    initial greedy completion seeds the incumbent, then the search prunes any
    branch whose best possible diameter reaches it.
    """
    if not (2 <= k <= MAX_CONSTELLATION_K):
        raise ValueError(
            f"k must be between 2 and {MAX_CONSTELLATION_K}, got {k}"
        )
    table = table or default_table()
    small = [int(p) for p in table.primes_up_to(k)]
    odd = [p for p in small if p > 2]  # even offsets handle p = 2 already
    full = [(1 << p) - 1 for p in odd]  # the mask of all p residues mod p

    def fills(o: int, masks: list[int]) -> bool:
        # would adding offset o cover all residues of some tracked prime?
        for p, m, f in zip(odd, masks, full):
            if m | 1 << o % p == f:
                return True
        return False

    def add(o: int, masks: list[int]) -> list[int]:
        return [m | 1 << o % p for p, m in zip(odd, masks)]

    # greedy incumbent: always take the next admissible even offset
    masks = start = add(0, [0] * len(odd))
    greedy = [0]
    while len(greedy) < k:
        o = greedy[-1] + 2
        while fills(o, masks):
            o += 2
        masks = add(o, masks)
        greedy.append(o)

    best_width = greedy[-1]
    best_pattern = tuple(greedy)

    def dfs(chosen: list[int], masks: list[int]) -> None:
        nonlocal best_width, best_pattern
        if len(chosen) == k:
            if chosen[-1] < best_width:
                best_width = chosen[-1]
                best_pattern = tuple(chosen)
            return
        slots_left = k - len(chosen) - 1
        o = chosen[-1] + 2
        while o + 2 * slots_left < best_width:
            if not fills(o, masks):
                chosen.append(o)
                dfs(chosen, add(o, masks))
                chosen.pop()
            o += 2

    dfs([0], start)

    assert is_admissible(best_pattern, small), "search produced an inadmissible tuple"
    assert best_pattern[0] == 0 and best_pattern[-1] == best_width
    return ConstellationWidth(k=k, width=best_width, pattern=best_pattern)


@_timed
def check_tuple_width_bound(n_max: int, table: PrimeTable | None = None) -> ScanReport:
    """Verify that the minimal admissible (n+1)-tuple diameter is >= p_n
    for 1 <= n <= n_max (n_max at most 12)."""
    if not (1 <= n_max <= MAX_CONSTELLATION_K - 1):
        raise ValueError(f"need 1 <= n_max <= {MAX_CONSTELLATION_K - 1}, got {n_max}")
    table = table or default_table()
    exceptions: list[tuple] = []
    widths: dict[str, int] = {}
    for n in range(1, n_max + 1):
        width = min_constellation_width(n + 1, table).width
        widths[str(n)] = width
        if width < table.nth_prime(n):
            exceptions.append((n,))
    return ScanReport(
        name="tuple-width-vs-prime",
        range={"n_min": 1, "n_max": n_max},
        exceptions=exceptions,
        extra={"widths": widths},
    )
