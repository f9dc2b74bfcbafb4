import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import CapExceeded, NotPrime, PrimeTable
from matula.primes import _CACHE_HEADER, _SEGMENT, _pi_bound
from oracles import primes_below, trial_factor_count


def test_first_primes(table):
    assert table.nth_prime(1) == 2
    assert table.nth_prime(2) == 3
    assert table.nth_prime(6) == 13
    assert table.nth_prime(330) == 2213


def test_nth_prime_agrees_with_plain_sieve(table):
    expected = primes_below(10_000)
    got = [table.nth_prime(i + 1) for i in range(len(expected))]
    assert got == expected


def test_prime_rank_examples(table):
    assert table.prime_rank(2) == 1
    assert table.prime_rank(37) == 12
    with pytest.raises(NotPrime):
        table.prime_rank(4)
    with pytest.raises(NotPrime):
        table.prime_rank(1)


def test_rank_roundtrip_exhaustive(table):
    for n in range(1, 100_001):
        assert table.prime_rank(table.nth_prime(n)) == n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=1_000_000))
def test_rank_roundtrip_sampled_further(n):
    t = PrimeTable()
    assert t.prime_rank(t.nth_prime(n)) == n


def test_factorize_examples(table):
    assert table.factorize(1) == []
    assert table.factorize(12) == [(2, 2), (3, 1)]
    assert table.factorize(2597) == [(7, 2), (53, 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10_000_000))
def test_factorize_sound(k):
    t = PrimeTable()
    prod = 1
    last = 1
    for p, e in t.factorize(k):
        assert p > last and e >= 1
        assert t.is_prime(p)
        prod *= p**e
        last = p
    assert prod == k


def test_factor_count_matches_trial(table):
    for k in range(1, 3_000):
        assert sum(e for _, e in table.factorize(k)) == trial_factor_count(k)


def test_factorize_sound_exhaustive(table):
    for k in range(1, 100_001):
        prod = 1
        for p, e in table.factorize(k):
            prod *= p**e
        assert prod == k


def test_is_prime_examples(table):
    assert not table.is_prime(1)
    assert not table.is_prime(0)
    assert table.is_prime(709)
    assert not table.is_prime(1000)


def test_extension_is_monotone():
    t = PrimeTable()
    before = [t.nth_prime(i) for i in range(1, 101)]
    t.extend_to(1_000_000)
    assert [t.nth_prime(i) for i in range(1, 101)] == before
    assert t.limit >= 1_000_000
    assert t.nth_prime(t.count) <= t.limit


def test_cap_overflow_signals():
    t = PrimeTable(cap=1_000)
    assert t.nth_prime(168) == 997
    with pytest.raises(CapExceeded):
        t.nth_prime(100_000)
    with pytest.raises(CapExceeded):
        t.is_prime(10_001)


def test_nth_prime_past_the_cap_fails_before_sieving():
    t = PrimeTable(cap=10**6)
    with pytest.raises(CapExceeded):
        t.nth_prime(10**6)  # p_n > n ln n, about 1.4e7
    with pytest.raises(CapExceeded):
        t.nth_prime(79_000)  # p_n >= n(ln n + ln ln n - 1), about 1.003e6
    assert t.limit < 10**5
    assert t.nth_prime(78_498) == 999_983  # the last prime below the cap
    with pytest.raises(CapExceeded, match=r"~2\*\*\d+, beyond"):
        PrimeTable().nth_prime(2**5000)


def test_cache_roundtrip(tmp_path, table):
    table.nth_prime(1_000)
    path = tmp_path / "primes.bin"
    table.save(path)
    loaded = PrimeTable.load(path)
    assert loaded.count == table.count
    assert np.array_equal(loaded.first_n(1_000), table.first_n(1_000))
    assert loaded.limit >= loaded.nth_prime(loaded.count)


@pytest.mark.parametrize("header", [b"", b"\x01\x00\x00"])
def test_cache_with_short_header_is_corrupt(tmp_path, header):
    path = tmp_path / "primes.bin"
    path.write_bytes(header)
    with pytest.raises(ValueError, match="corrupt prime cache"):
        PrimeTable.load(path)


@pytest.fixture
def cache_file(tmp_path):
    path = tmp_path / "primes.bin"
    PrimeTable(10**5).save(path)
    return path


def test_cache_roundtrip_keeps_every_rank(cache_file):
    loaded = PrimeTable.load(cache_file)
    assert loaded.count == 9592
    assert loaded.nth_prime(600) == 4409
    assert loaded.prime_rank(10007) == 1230


def _rewrite(path, count, primes):
    (_, crc) = _CACHE_HEADER.unpack(path.read_bytes()[: _CACHE_HEADER.size])
    path.write_bytes(_CACHE_HEADER.pack(count, crc) + primes)


def test_cache_with_a_prime_deleted_is_corrupt(cache_file):
    # still ascending from 2 with a matching count, so only the checksum can
    # tell; without it p_600 read 4421 and the rank of 10007 read 1229
    primes = cache_file.read_bytes()[_CACHE_HEADER.size :]
    _rewrite(cache_file, 9591, primes[: 8 * 500] + primes[8 * 501 :])
    with pytest.raises(ValueError, match="corrupt prime cache"):
        PrimeTable.load(cache_file)


def test_cache_with_one_bit_flipped_is_corrupt(cache_file):
    # p_600 = 4409 becomes 4411: odd, and still between 4397 and 4421
    primes = bytearray(cache_file.read_bytes()[_CACHE_HEADER.size :])
    primes[8 * 599] ^= 0b10
    _rewrite(cache_file, 9592, bytes(primes))
    with pytest.raises(ValueError, match="corrupt prime cache"):
        PrimeTable.load(cache_file)


def test_cache_without_a_checksum_is_corrupt(cache_file):
    raw = cache_file.read_bytes()  # the older format: the count, then the primes
    cache_file.write_bytes(raw[:8] + raw[_CACHE_HEADER.size :])
    with pytest.raises(ValueError, match="corrupt prime cache"):
        PrimeTable.load(cache_file)


def test_cache_absence_is_fine(tmp_path):
    t = PrimeTable.load(tmp_path / "missing.bin")
    assert t.nth_prime(5) == 11


def test_primes_up_to(table):
    assert list(table.primes_up_to(13)) == [2, 3, 5, 7, 11, 13]
    assert list(table.primes_up_to(1)) == []


def test_sieve_segment_without_base_primes():
    # an empty base makes the segment sieve its own base primes up to sqrt(hi)
    empty = np.empty(0, dtype=np.int64)
    assert PrimeTable._sieve_segment(2, 5000, empty).tolist() == primes_below(5000)
    window = PrimeTable._sieve_segment(1_000_000, 1_002_000, empty).tolist()
    assert window == [p for p in primes_below(1_002_000) if p >= 1_000_000]


def test_factor_sieve_grows_geometrically_above_2_20():
    sympy = pytest.importorskip("sympy")
    t = PrimeTable()
    t.factorize(2**20 + 1)
    spf = t._spf
    for k in range(2**20 + 2, 2**20 + 202):
        assert t.factorize(k) == sorted(sympy.factorint(k).items()), k
    assert t._spf is spf


def test_sieve_matches_sympy_on_small_limits():
    sympy = pytest.importorskip("sympy")
    empty = np.empty(0, dtype=np.int64)
    for hi in range(0, 61):
        for lo in range(0, hi + 1):
            got = PrimeTable._sieve_segment(lo, hi, empty).tolist()
            assert got == list(sympy.primerange(lo, hi + 1)), (lo, hi)
    for x in range(2, 61):
        t = PrimeTable(cap=x)  # the cap keeps extend_to from rounding x up
        t.extend_to(x)
        assert t.limit == x
        assert t.primes_up_to(x).tolist() == list(sympy.primerange(x + 1))
        assert t.count == sympy.primepi(x)


def test_sieve_at_segment_edges_and_along_growth():
    sympy = pytest.importorskip("sympy")
    reference = np.array(primes_below(3 * _SEGMENT + 2), dtype=np.int64)
    for k in (1, 2, 3):
        for x in (k * _SEGMENT - 1, k * _SEGMENT, k * _SEGMENT + 1, k * _SEGMENT + 2):
            t = PrimeTable()
            t.extend_to(x)
            assert t.limit == x
            assert t.count == sympy.primepi(x), x
            assert np.array_equal(t._primes, reference[: t.count]), x
    t = PrimeTable()
    before = t._primes
    for x in (10**3, 10**6, 3 * 10**6):
        t.extend_to(x)
        assert t._primes is not before  # readers of the old array keep it
        assert np.array_equal(t._primes[: len(before)], before)
        assert t.count == sympy.primepi(t.limit)
        assert np.array_equal(t._primes, reference[: t.count])
        before = t._primes


def test_pi_bound_covers_pi():
    sympy = pytest.importorskip("sympy")
    grid = {
        *range(2, 3000),
        *range(355_900, 356_100),  # where the bound switches formula
        *np.geomspace(3000, 10**7, 300).astype(int).tolist(),
        10**7,
    }
    for x in sorted(grid):
        assert _pi_bound(x) >= sympy.primepi(x), x


def test_extension_allocates_about_one_table():
    t = PrimeTable()
    tracemalloc.start()
    try:
        t.extend_to(3 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t._primes.nbytes
