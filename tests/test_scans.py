import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from matula import scans
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
        fake = [0] * (first - 1)
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
