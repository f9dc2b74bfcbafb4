import json
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from matula import CapExceeded, PrimeTable, scans
from matula.primes import _nth_prime_bound
from matula import (
    check_tuple_width_bound,
    is_admissible,
    min_constellation_width,
    ratio_table,
    scan_fusion,
    scan_prime_rank_growth,
    scan_prime_size_bounds,
    scan_rank_ratio_monotone,
    scan_three_n,
)


def test_rank_growth_tiny(table):
    report = scan_prime_rank_growth(4, 1, table)
    assert report.exceptions == [(2, 1), (3, 1), (4, 1)]


def test_rank_growth_matches_brute_force(table):
    report = scan_prime_rank_growth(100, 100, table)
    brute = [
        (a, n)
        for a in range(2, 101)
        for n in range(1, 101)
        if table.nth_prime(a * n) <= a * table.nth_prime(n)
    ]
    assert report.exceptions == brute == [(2, 1), (3, 1), (4, 1)]


def test_rank_growth_rejects_empty_range(table):
    with pytest.raises(ValueError):
        scan_prime_rank_growth(2, 0, table)


def test_fusion_tiny(table):
    assert scan_fusion(4, 4, table).exceptions == [(3, 4), (4, 4)]
    assert scan_fusion(1, 1, table).exceptions == []


def test_fusion_matches_brute_force(table):
    report = scan_fusion(100, 100, table)
    brute = [
        (m, n)
        for m in range(1, 101)
        for n in range(m, 101)
        if table.nth_prime(m * n) >= table.nth_prime(m) * table.nth_prime(n)
    ]
    assert report.exceptions == brute == [(3, 4), (4, 4)]


def test_fusion_handles_asymmetric_rectangle(table):
    # {3,4} fits the 3 x 300 rectangle as (m, n) = (4, 3) even though 4 > 3
    assert scan_fusion(3, 300, table).exceptions == [(3, 4)]
    assert scan_fusion(300, 3, table).exceptions == [(3, 4)]


def test_ratio_table_pinned_entries(table):
    ratios = ratio_table(13, 13, table)
    assert ratios[(2, 2)] == Fraction(9, 7)
    assert ratios[(3, 2)] == Fraction(15, 13)
    assert ratios[(4, 3)] == Fraction(35, 37)
    assert ratios[(4, 4)] == Fraction(49, 53)
    assert ratios[(5, 5)] == Fraction(121, 97)
    assert ratios[(7, 7)] == Fraction(289, 227)
    assert ratios[(13, 13)] == Fraction(1681, 1009)
    assert ratios[(1, 9)] == Fraction(2)  # rank 1 is neutral: 2*p_9 / p_9
    wide = ratio_table(4, 22, table)
    assert wide[(4, 22)] == Fraction(553, 457)


def test_ratio_table_exceeds_one_exactly_off_the_exceptions(table):
    ratios = ratio_table(13, 13, table)
    for (k, l), value in ratios.items():
        if {k, l} in ({3, 4}, {4}):
            assert value < 1
        else:
            assert value > 1


def test_size_bounds_small(table):
    assert scan_prime_size_bounds(13, table).exceptions == []
    # n = 2: the lower bound is negative, so it holds trivially
    assert 2 * (mpmath.log(2) + mpmath.log(mpmath.log(2)) - 1) < 3


def test_size_bounds_match_direct_evaluation(table):
    report = scan_prime_size_bounds(500, table)
    brute = []
    with mpmath.workdps(50):
        for n in range(2, 501):
            p = table.nth_prime(n)
            lg, lglg = mpmath.log(n), mpmath.log(mpmath.log(n))
            if p < n * (lg + lglg - 1):
                brute.append(("lower", n))
            if n >= 13 and p > n * (lg + lglg - 1 + mpmath.mpf("1.8") * lglg / lg):
                brute.append(("upper-refined", n))
            if n >= 13 and p > n * (lg + lglg - mpmath.mpf("0.337")):
                brute.append(("upper-const", n))
    assert report.exceptions == sorted(brute) == []


@pytest.mark.parametrize("failing", [False, True])
def test_size_bound_recheck_decides_near_cases(monkeypatch, failing):
    # a guard band as wide as the bound sends (almost) every n to the
    # 60-digit recheck; primes one step past the bound must all fail there
    monkeypatch.setattr(scans, "GUARD_BAND", 1.0)
    for name, first, kind, bound in scans._SIZE_BOUNDS:
        fake = []  # p_first, p_first+1, ...
        with mpmath.workdps(60):
            for n in range(first, 300):
                exact = bound(n, mpmath.log, mpmath.mpf)
                below = int(mpmath.floor(exact)) - 1
                above = int(mpmath.ceil(exact)) + 1
                fake.append(below if (kind == "lower") == failing else above)
        got = scans._float_bound_scan(name, first, kind, bound, np.array(fake))
        assert got == ([(name, n) for n in range(first, 300)] if failing else [])


def test_rank_ratio_monotone_small(table):
    report = scan_rank_ratio_monotone(200, table)
    brute = [
        (n,)
        for n in range(2, 201)
        if Fraction(table.nth_prime(n), n)
        > Fraction(table.nth_prime(table.nth_prime(n)), table.nth_prime(n))
    ]
    assert report.exceptions == brute == []
    # n = 2 by hand: 3/2 <= p_3/3 = 5/3
    assert Fraction(3, 2) <= Fraction(5, 3)


def test_rank_ratio_needs_two(table):
    with pytest.raises(ValueError):
        scan_rank_ratio_monotone(1, table)


def test_three_n_small(table):
    report = scan_three_n(1_000, table)
    assert report.exceptions == []
    assert table.nth_prime(12) == 37 > 36
    witness = report.extra["boundary_witness"]
    assert witness == {"n": 11, "prime": 31, "three_n": 33}
    assert witness["prime"] < witness["three_n"]
    with pytest.raises(ValueError):
        scan_three_n(11, table)


WIDTHS = {2: 2, 3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 26, 9: 30, 10: 32, 11: 36, 12: 42, 13: 48}


def test_constellation_widths(table):
    for k, width in WIDTHS.items():
        got = min_constellation_width(k, table)
        assert got.width == width, k
        assert got.pattern[0] == 0 and got.pattern[-1] == width
        assert len(got.pattern) == k
        assert is_admissible(got.pattern, [p for p in (2, 3, 5, 7, 11, 13) if p <= k])


def test_constellation_k2_pattern(table):
    assert min_constellation_width(2, table).pattern == (0, 2)


def test_constellation_minimality_by_enumeration(table):
    # k = 5: no admissible 5-tuple of even offsets has diameter < 12
    for width in range(8, 12, 2):
        found = False
        interior = range(2, width, 2)
        from itertools import combinations

        for combo in combinations(interior, 3):
            pattern = (0, *combo, width)
            if is_admissible(pattern, [2, 3, 5]):
                found = True
        assert not found, width


def test_constellation_rejects_out_of_window(table):
    with pytest.raises(ValueError):
        min_constellation_width(1, table)
    with pytest.raises(ValueError):
        min_constellation_width(14, table)


def test_tuple_width_dominates_prime(table):
    report = check_tuple_width_bound(12, table)
    assert report.exceptions == []
    assert report.extra["widths"] == {str(n): WIDTHS[n + 1] for n in range(1, 13)}
    assert WIDTHS[8] == 26 >= table.nth_prime(7) == 17
    assert WIDTHS[13] == 48 >= table.nth_prime(12) == 37


def test_report_json_shape_and_stability(table):
    report = scan_fusion(10, 10, table)
    doc = json.loads(report.to_json())
    assert set(doc) == {"name", "range", "exceptions", "elapsed_ms"}
    assert doc["exceptions"] == [[3, 4], [4, 4]]
    assert doc["elapsed_ms"] >= 0
    frozen = report.to_json(with_elapsed=False)
    again = scan_fusion(10, 10, table).to_json(with_elapsed=False)
    assert frozen == again
    assert json.loads(frozen)["elapsed_ms"] is None


def test_rerunning_larger_keeps_exceptions(table):
    small = scan_fusion(50, 50, table).exceptions
    large = scan_fusion(150, 150, table).exceptions
    assert set(small) <= set(large)


# -- block-wise scans against the whole-array expressions they replaced -------


class _Doctored:
    """A table whose first primes are replaced at chosen ranks, so that the
    scans have exceptions to find at the edges of their blocks."""

    def __init__(self, table, changes: dict[int, int]):
        self.table, self.changes = table, changes
        self.cap = table.cap

    def first_n(self, n):
        primes = self.table.first_n(n).copy()
        for rank, value in self.changes.items():
            if rank <= n:
                primes[rank - 1] = value
        return primes

    def rank_windows(self, first, last, size):
        for lo, primes in self.table.rank_windows(first, last, size):
            primes = primes.copy()
            for rank, value in self.changes.items():
                if lo <= rank < lo + len(primes):
                    primes[rank - lo] = value
            yield lo, primes

    def nth_primes(self, ranks):
        return self.table.nth_primes(ranks)


def _whole_array(which, n_max, table):
    """The exceptions of one scan, from its expressions over all n at once."""
    primes = table.first_n(n_max)
    if which == "three-n":
        ns = np.arange(12, n_max + 1, dtype=np.int64)
        return [(int(n),) for n in ns[primes[11:n_max] <= 3 * ns]]
    if which == "sousselier":
        ns = np.arange(2, n_max + 1, dtype=np.int64)
        p = primes[1:n_max]
        deep = table.table.first_n(int(p.max()))[p - 1]
        return [(int(n),) for n in ns[p * p > ns * deep]]
    exceptions = []
    for name, first, kind, bound in scans._SIZE_BOUNDS:
        ns = np.arange(first, n_max + 1, dtype=np.int64)
        b = bound(ns.astype(np.float64), np.log, float)
        band = scans.GUARD_BAND * np.abs(b)
        p = primes[first - 1 :].astype(np.float64)
        fail = p < b - band if kind == "lower" else p > b + band
        exceptions += [(name, int(n)) for n in ns[fail]]
        with mpmath.workdps(60):
            for i in np.flatnonzero(np.abs(p - b) <= band):
                exact = bound(int(ns[i]), mpmath.log, mpmath.mpf)
                pn = mpmath.mpf(int(primes[first - 1 + i]))
                if (kind == "lower" and pn < exact) or (kind == "upper" and pn > exact):
                    exceptions.append((name, int(ns[i])))
    return sorted(exceptions)


_BLOCK_SCANS = {
    "three-n": scan_three_n,
    "sousselier": scan_rank_ratio_monotone,
    "mrd": scan_prime_size_bounds,
}


def _doctor(which, n_max, block):
    """Ranks around every multiple of the block, and the last one, altered so
    that the scan fails there: p_n = 3n fails three-n, p_n = 20n fails
    sousselier (p_(20n) < (20n)^2 / n = 400n), and mrd gets p_n = n
    (below the lower bound) and p_n = 100n (above both upper ones) in turn."""
    edges = {r for j in range(1, n_max // block + 2) for r in (j * block - 1, j * block, j * block + 1)}
    edges = sorted(r for r in edges | {n_max} if 13 <= r <= n_max)
    if which == "three-n":
        return {r: 3 * r for r in edges}
    if which == "sousselier":
        return {r: 20 * r for r in edges}
    return {r: (r if i % 2 else 100 * r) for i, r in enumerate(edges)}


@pytest.mark.parametrize("which", list(_BLOCK_SCANS))
@pytest.mark.parametrize("block, j", [(16, 1), (16, 2), (16, 5), (scans._TABLE_BLOCK, 1), (scans._TABLE_BLOCK, 2)])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_block_scans_equal_the_whole_array_at_block_edges(monkeypatch, table, which, block, j, offset):
    monkeypatch.setattr(scans, "_TABLE_BLOCK", block)
    n_max = j * block + offset
    scan = _BLOCK_SCANS[which]
    assert scan(n_max, table).exceptions == _whole_array(which, n_max, _Doctored(table, {})) == []
    changes = _doctor(which, n_max, block)
    doctored = _Doctored(table, changes)
    expected = _whole_array(which, n_max, doctored)
    assert {e[-1] for e in expected} == set(changes)  # each altered rank fails, no other
    assert scan(n_max, doctored).exceptions == expected
    if which == "sousselier":  # every n by the exact route: the same exceptions
        monkeypatch.setattr(scans, "GUARD_BAND", 1.0)
        assert scan(n_max, doctored).exceptions == expected


@pytest.mark.parametrize("scan, n, p", [(scan_three_n, 12, 36), (scan_rank_ratio_monotone, 2, 4)])
def test_the_first_n_of_a_scan_is_checked(table, scan, n, p):
    # p_12 = 36 would fail three-n, p_2 = 4 sousselier (16 > 2 * p_4 = 14)
    assert scan(n, _Doctored(table, {n: p})).exceptions == [(n,)]


def test_sousselier_by_the_bound_equals_the_exact_route(monkeypatch):
    # the bound leaves only n = 2, 3, 4 open; a guard band of 1 leaves every
    # n open, so each reads p_(p_n) and is compared exactly
    t = PrimeTable()
    asked, nth_primes = [], t.nth_primes
    monkeypatch.setattr(t, "nth_primes", lambda ranks: asked.append(list(ranks)) or nth_primes(ranks))
    fast = scan_rank_ratio_monotone(200_000, t).exceptions
    assert asked == [[3, 5, 7]]
    asked.clear()
    monkeypatch.setattr(scans, "GUARD_BAND", 1.0)
    assert scan_rank_ratio_monotone(200_000, t).exceptions == fast == []
    assert asked == [t.first_n(200_000)[1:].tolist()]


def test_sousselier_grows_the_table_no_further_than_p_n():
    t = PrimeTable()
    assert scan_rank_ratio_monotone(10**6, t).exceptions == []
    assert t.limit <= _nth_prime_bound(10**6)  # p_(p_(10**6)) is 285,058,399


def test_scans_that_read_the_first_primes_trace_little_memory():
    # with the first 10**6 primes loaded, what is left is each scan's own
    # temporaries, a few blocks long
    t = PrimeTable()
    t.first_n(10**6)
    for scan, limit_mb in (
        (scan_rank_ratio_monotone, 4),  # 31.5 MB when compared as whole arrays
        (scan_prime_size_bounds, 8),  # 50.2 MB
        (scan_three_n, 4),  # 16.2 MB
    ):
        tracemalloc.start()
        try:
            assert scan(10**6, t).exceptions == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20, (scan.__name__, peak)


def test_size_bounds_recheck_many_near_cases_to_the_same_exceptions(monkeypatch, table):
    # a guard band of 1 % sends about 19,000 of the lower bound's n to the
    # 60-digit recheck, across blocks of 1000
    expected = scan_prime_size_bounds(20_000, table).exceptions
    monkeypatch.setattr(scans, "_TABLE_BLOCK", 1000)
    monkeypatch.setattr(scans, "GUARD_BAND", 1e-2)
    assert scan_prime_size_bounds(20_000, table).exceptions == expected


def _no_triple(*args):
    raise AssertionError(f"a triple was checked: {args}")


@pytest.mark.parametrize("p_max", [1000, 2**31 - 1, 2**62])
def test_nap_scan_past_the_cap_refuses_before_listing_a_prime(monkeypatch, p_max):
    # a lower bound of the last triple's rank P * P * pi(P) is past the rank
    # ceiling: no prime is sieved and no triple checked (under the default
    # cap, p_max = 2**31 - 1 listed 105M primes as Python ints first)
    from matula import algebra

    monkeypatch.setattr(algebra, "nap_law_holds", _no_triple)
    table = PrimeTable(cap=max(10**6, p_max))
    with pytest.raises(CapExceeded):
        scans.scan_nap_law(p_max, table)
    assert table.count == 0


def test_nap_scan_refuses_at_the_last_triples_rank_before_any_triple(monkeypatch):
    # below p_max = 30 no bound is taken: the primes up to 20 are listed, and
    # the rank of the last triple (19, 19, 19), 19 * 19 * 8, is asked first
    from matula import algebra

    monkeypatch.setattr(algebra, "nap_law_holds", _no_triple)
    with pytest.raises(CapExceeded) as refused:
        scans.scan_nap_law(20, PrimeTable(cap=1000))
    assert refused.value.needed == _nth_prime_bound(19 * 19 * 8)


def test_nap_scan_within_the_cap_checks_every_triple(monkeypatch):
    from matula import algebra

    seen = []
    monkeypatch.setattr(algebra, "nap_law_holds", lambda *triple: seen.append(triple[:3]) or True)
    report = scans.scan_nap_law(20, PrimeTable(cap=10**6))
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    assert report.exceptions == [] and seen == [(a, b, c) for a in primes for b in primes for c in primes]
