import hashlib
import sys
import threading
import tracemalloc
import zlib
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matula import CapExceeded, NotPrime, PrimeTable, SieveTooLarge, algebra, prime_counts
from matula.bijection import integers_with_leaf_count, table_text
from matula.primes import (
    MAX_CAP,
    _CACHE_HEADER,
    _SEGMENT,
    _block_factors,
    _checkpoints,
    _distinct_factors,
    _nth_prime_bound,
    _pi_bound,
    _rank_ceiling,
    _spans,
    _value_dtype,
)
from oracles import distinct_factors_reference, primes_below, trial_factor_count, trial_squarefree


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


def test_cache_out_of_order_with_a_matching_checksum_is_corrupt(cache_file):
    # p_600 and p_601 swapped and the checksum recomputed: only the order
    # check can tell
    primes = bytearray(cache_file.read_bytes()[_CACHE_HEADER.size :])
    primes[8 * 599 : 8 * 601] = primes[8 * 600 : 8 * 601] + primes[8 * 599 : 8 * 600]
    cache_file.write_bytes(_CACHE_HEADER.pack(9592, zlib.crc32(primes)) + primes)
    with pytest.raises(ValueError, match="corrupt prime cache"):
        PrimeTable.load(cache_file)


def test_cache_past_the_cap_is_refused(tmp_path):
    path = tmp_path / "primes.bin"
    PrimeTable(10**4).save(path)
    with pytest.raises(CapExceeded, match=r"~9973, beyond the cap 1000$"):
        PrimeTable.load(path, cap=1000)


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


@pytest.mark.parametrize(
    "lo, hi, size",
    [
        (1, 3000, 1),
        (1, 3000, 7),
        (1, 3000, 2**12),
        (2**16 - 300, 2**16 + 300, 2**16),
        (2**20 - 50, 2**20 + 50, 2**12),
        (97, 97, 2**12),
        (1, 1, 2**16),
        # p**2 starts a block of size p; below it, p is no base prime
        (48, 50, 7),
        (4093**2 - 1, 4093**2 + 1, 4093),
    ],
)
def test_factor_blocks_match_sympy(table, lo, hi, size):
    # per block: the powers and their rows, the remainders, and the tiling
    sympy = pytest.importorskip("sympy")
    base, at = list(sympy.primerange(isqrt(hi) + 1)), lo
    for start, rest, powers in table.factor_blocks(lo, hi, size):
        end = start + len(rest) - 1
        assert start == at and start <= end <= hi
        assert start == lo or start % size == 0
        assert end == hi or (end + 1) % size == 0
        at = end + 1
        root = isqrt(end)
        block = np.arange(start, end + 1)
        assert [(p, e) for p, e, _ in powers] == [
            (p, e) for p in base if p <= root for e in range(1, 64) if p**e <= end
        ]  # e runs 1, 2, ... for each p
        hits = [[] for _ in block]
        for p, e, hit in powers:
            rows = np.arange(len(block))[hit]
            assert rows.tolist() == np.flatnonzero(block % p**e == 0).tolist(), (p, e)
            for i in rows.tolist():
                hits[i].append(p)
        for i, n in enumerate(block.tolist()):
            r = int(rest[i])
            assert int(np.prod(hits[i], dtype=object)) * r == n, n
            assert r == 1 or (r > root and sympy.isprime(r)), n
            small = sorted(p for p, e in sympy.factorint(n).items() if p <= root for _ in range(e))
            assert hits[i] == small, n
    assert at == hi + 1


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


def test_cap_must_fit_int64():
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1"):
        PrimeTable(cap=MAX_CAP + 1)
    assert PrimeTable(cap=MAX_CAP).nth_prime(10) == 29


def test_a_sieve_the_machine_refuses_is_typed():
    # about 740 PB of table: no 64-bit address space grants it, so the
    # allocation fails at once
    t = PrimeTable(cap=MAX_CAP)
    with pytest.raises(SieveTooLarge) as exc:
        t.extend_to(2**62)
    assert exc.value.limit == 2**62
    assert exc.value.nbytes == 8 * _pi_bound(2**62)
    assert f"{2**62}" in str(exc.value) and f"{8 * _pi_bound(2**62)} bytes" in str(exc.value)
    assert t.limit == 1 and t.nth_prime(5) == 11


def test_a_factor_sieve_the_machine_refuses_is_typed():
    # about 800 PB of int64 smallest factors (int32 would wrap the primes
    # past 2**31), refused at once
    t = PrimeTable(cap=MAX_CAP)
    with pytest.raises(SieveTooLarge) as exc:
        t.ensure_factor_sieve(10**17)
    assert (exc.value.limit, exc.value.nbytes) == (10**17, 8 * (10**17 + 1))
    assert t._spf is None and t.factorize(12) == [(2, 2), (3, 1)]
    assert t._spf.dtype == np.int32


def test_the_factor_sieve_is_not_bounded_by_the_cap():
    t = PrimeTable(cap=1000)
    t.ensure_factor_sieve(5000)
    assert len(t._spf) > 5000 and t.factorize(4999) == [(4999, 1)]


@pytest.mark.parametrize("limit", [12, 5000, 10**5, 300_000, 2**20 + 1])
def test_the_factor_sieve_is_the_power_of_two_above_the_request(limit):
    t = PrimeTable()
    t.ensure_factor_sieve(limit)
    assert len(t._spf) == max(1 << limit.bit_length(), 2**16)


def test_a_table_below_rank_2_16_builds_a_256_kb_factor_sieve():
    # its primes' ranks stay below pi(560000) = 46,072; sha256 recorded while
    # every sieve held 2**20 entries
    t = PrimeTable()
    text = "".join(table_text(550_000, 560_000, t))
    assert len(t._spf) <= 2**16
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4bb2463764b261e292d3d00600eb039151b5fc1bf59b0b2e61684ef9851f18dd"
    )


def test_a_leaf_class_to_300000_builds_a_2_19_factor_sieve():
    # sha256 recorded while every sieve held 2**20 entries
    t = PrimeTable()
    found = integers_with_leaf_count(2, 300_000, t)
    assert len(t._spf) <= 2**19
    assert len(found) == 119 and hashlib.sha256(" ".join(map(str, found)).encode()).hexdigest() == (
        "80f41fcd8101e8404651a5c500827598501f2d7a51e64c92041a0c28f7ae2c7d"
    )


def test_omega_parity_matches_trial_division():
    ks = np.array([*range(1, 5001), 2**20 + 7, 3**12, 2 * 3 * 5 * 7 * 11 * 13 * 17])
    odd, square = PrimeTable().omega_parity(ks[::-1])
    assert odd[::-1].tolist() == [trial_factor_count(k) % 2 == 1 for k in ks.tolist()]
    assert square[::-1].tolist() == [not trial_squarefree(k) for k in ks.tolist()]


def test_omega_parity_of_100000_entries_peaks_below_2_mb():
    # pieces of 2**14 entries in the sieve's int32: 3.1 MB while every
    # entry was walked at once in int64
    ks = np.arange(1, 10**5 + 1)
    t = PrimeTable()
    tracemalloc.start()
    try:
        odd, square = t.omega_parity(ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(odd.sum()) == 50_144 and int(square.sum()) == 39_206  # L = -288, Q = 60794
    assert peak < 2 * 2**20


def test_values_below_2_31_are_stored_as_int32():
    assert _value_dtype(2**31 - 1) == np.int32 and _value_dtype(2**31) == np.int64


# -- nth_primes: selected ranks without storing the primes between them ------


def _pi(table, x: int) -> int:
    return len(table.primes_up_to(x))


@st.composite
def _rank_batches(draw, table):
    """(table limit to prepare, ranks, as array?): ranks inside the table,
    around its end, around the edges of the segments sieved after it, and
    anywhere up to two segments past it; unsorted, with duplicates."""
    start = draw(st.sampled_from([0, 5_000, _SEGMENT + 1]))
    end = _pi(table, start)
    edges = [_pi(table, start + k * _SEGMENT) + d for k in (1, 2) for d in (-1, 0, 1, 2)]
    near_end = [r for r in range(end - 1, end + 3) if r >= 1]
    rank = st.one_of(
        st.integers(1, max(end, 1)),
        st.sampled_from(near_end),
        st.sampled_from(edges),
        st.integers(1, edges[-1]),
    )
    ranks = draw(st.lists(rank, max_size=10))
    return start, ranks, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_nth_primes_equals_a_loop_of_nth_prime(table, data):
    start, ranks, as_array = data.draw(_rank_batches(table))
    t = PrimeTable(start)
    before = t.limit
    got = t.nth_primes(np.array(ranks, dtype=np.int64) if as_array else ranks)
    assert got.dtype == np.int64
    fresh = PrimeTable()
    assert got.tolist() == [fresh.nth_prime(r) for r in ranks]
    if ranks:  # the table grows to the base primes at most
        bound = _nth_prime_bound(max(ranks))
        assert t.limit <= max(before, 2 * (isqrt(bound - 1) + 1), 1024)


def test_nth_primes_reads_and_streams_without_storing():
    t = PrimeTable()
    assert t.nth_primes([]).tolist() == [] and t.limit == 1
    assert t.nth_primes(np.empty(0, dtype=np.int64)).dtype == np.int64
    ranks = [10**6, 3, 10**6, 1, 78_498]
    assert t.nth_primes(ranks).tolist() == [15_485_863, 5, 15_485_863, 2, 999_983]
    assert t.limit < 10**4 and t.count < 10**3


def _first_error(table, ranks):
    for r in ranks:
        try:
            table.nth_prime(r)
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return exc
    return None


@st.composite
def _capped_ranks(draw, table):
    """(cap, ranks): ranks below 1, inside the cap, just past pi(cap) where
    only sieving to the cap tells, past the Dusart ceiling, and past int64."""
    cap = draw(st.sampled_from([2, 100, 1_000, 7_919, 10**4, 2 * _SEGMENT + 1]))
    last = _pi(table, cap)
    rank = st.one_of(
        st.integers(-3, 40),
        st.integers(max(last - 3, 1), _rank_ceiling(cap) + 2),
        st.sampled_from([2**62, 2**63 - 1, 2**63, 2**70, -(2**63), -(2**70)]),
    )
    return cap, draw(st.lists(rank, max_size=6))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_nth_primes_raises_what_the_loop_raises_first(table, data):
    cap, ranks = data.draw(_capped_ranks(table))
    expected = _first_error(PrimeTable(cap=cap), ranks)
    t = PrimeTable(cap=cap)
    if expected is None:
        assert t.nth_primes(ranks).tolist() == [PrimeTable().nth_prime(r) for r in ranks]
        return
    with pytest.raises(type(expected)) as exc:
        t.nth_primes(ranks)
    assert str(exc.value) == str(expected)
    if all(-(2**63) <= r < 2**63 for r in ranks):  # the same from an int64 array
        with pytest.raises(type(expected)) as exc:
            PrimeTable(cap=cap).nth_primes(np.array(ranks, dtype=np.int64))
        assert str(exc.value) == str(expected)


def _loop(table, ranks):
    """``[table.nth_prime(r) for r in ranks]``, or the exception it raises."""
    try:
        return [table.nth_prime(r) for r in ranks]
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        return exc


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_nth_primes_in_any_order_equals_the_loop(table, data):
    # ascending and descending ranks are written through views of the
    # output, others in argsort order: the same ranks in each order
    if data.draw(st.booleans(), label="capped"):
        cap, ranks = data.draw(_capped_ranks(table))
        start = 0
    else:
        start, ranks, _ = data.draw(_rank_batches(table))
        cap = PrimeTable().cap
    ranks = sorted(ranks)
    shuffled = data.draw(st.permutations(ranks))
    for order in (ranks, ranks[::-1], shuffled):
        expected = _loop(PrimeTable(cap=cap), order)
        inputs = [order]
        if all(-(2**63) <= r < 2**63 for r in order):
            inputs.append(np.array(order, dtype=np.int64))
        for given_ranks in inputs:
            t = PrimeTable(min(start, cap), cap=cap)
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as exc:
                    t.nth_primes(given_ranks)
                assert str(exc.value) == str(expected)
            else:
                assert t.nth_primes(given_ranks).tolist() == expected


@pytest.mark.parametrize("cap", [1_000, 2 * _SEGMENT + 1])
def test_nth_primes_names_the_first_rank_past_the_cap(table, cap):
    # pi(cap) < rank < the Dusart ceiling: only sieving to the cap tells
    last = _pi(table, cap)
    ranks = [5, last + 1, last + 3, last, last + 2]
    assert last + 3 < _rank_ceiling(cap)
    with pytest.raises(CapExceeded) as exc:
        PrimeTable(cap=cap).nth_primes(ranks)
    assert str(exc.value) == str(CapExceeded(_nth_prime_bound(last + 1), cap))
    assert str(exc.value) == str(_first_error(PrimeTable(cap=cap), ranks))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_windows_are_the_first_primes_split_at_multiples_of_size(table, data):
    # windows from the table, from the segments past it and across both;
    # under a cap the iteration raises what first_n raises
    if data.draw(st.booleans(), label="capped"):
        cap = data.draw(st.sampled_from([2, 100, 7_919, 2 * _SEGMENT + 1]))
        near = st.integers(_pi(table, cap) - 2, _rank_ceiling(cap) + 2)
        last, start = data.draw(near | st.integers(-2, 3)), 0
    else:
        cap, start = PrimeTable().cap, data.draw(st.sampled_from([0, 5_000, _SEGMENT + 1]))
        last = data.draw(st.integers(1, _pi(table, start + 2 * _SEGMENT)))
    first = data.draw(st.integers(1, max(last, 1)))
    size = data.draw(st.sampled_from([7, 1000, 1 << 15]))
    t = PrimeTable(min(start, cap), cap=cap)
    before = t.limit
    try:
        expected = PrimeTable(cap=cap).first_n(last)[first - 1 :].tolist()
    except Exception as exc:  # noqa: BLE001 - compared by type and text
        with pytest.raises(type(exc)) as got:
            list(t.rank_windows(first, last, size))
        assert str(got.value) == str(exc)
        return
    raw = list(t.rank_windows(first, last, size))
    # the windows inside the table are views of it, and read-only
    assert not any(p.flags.writeable for lo, p in raw if lo + len(p) <= t.count + 1)
    windows = [(lo, p.tolist()) for lo, p in raw]
    assert [p for _, window in windows for p in window] == expected
    his = [lo + len(window) - 1 for lo, window in windows]
    assert [lo for lo, _ in windows] == [first, *(hi + 1 for hi in his)][:-1]
    assert all(lo // size == hi // size for (lo, _), hi in zip(windows, his))
    assert all((hi + 1) % size == 0 for hi in his[:-1])  # no window is cut short
    assert t.limit <= max(before, 2 * (isqrt(_nth_prime_bound(last) - 1) + 1), 1024)


def test_nth_primes_past_int64_is_past_the_cap():
    t = PrimeTable()
    with pytest.raises(CapExceeded, match=r"~2\*\*\d+, beyond"):
        t.nth_primes([5, 2**70])
    with pytest.raises(ValueError, match="got 0"):
        t.nth_primes([0, 2**70])
    with pytest.raises(CapExceeded):
        t.nth_primes([2**70, 0])
    assert t.limit < 10**4


def test_nth_primes_from_threads_sharing_a_table(table):
    # readers stream past the table while others extend it under them
    shared = PrimeTable()
    reference = table.first_n(300_000)
    batches = [list(range(k, 300_000, 997 + k)) for k in range(1, 7)]
    errors: list[Exception] = []

    def work(ranks):
        try:
            if ranks[0] % 2:
                shared.extend_to(ranks[0] * 10**5)
            got = shared.nth_primes(ranks[::-1])[::-1]
            assert np.array_equal(got, reference[np.array(ranks) - 1])
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(b,)) for b in batches]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# -- checkpoints: pi(j * _SEGMENT) up to 2**32 ------------------------------


def test_checkpoints_are_spaced_by_the_segment_up_to_2_32():
    counts = _checkpoints()
    assert prime_counts.SPACING == _SEGMENT
    assert len(counts) == 2**32 // _SEGMENT + 1 and counts.dtype == np.int64
    assert counts[0] == 0 and counts[-1] == 203_280_221  # pi(2**32)
    assert np.all(np.diff(counts) > 0) and not counts.flags.writeable


def test_checkpoints_recount_the_first_128_segments():
    base = PrimeTable._sieve_segment(2, isqrt(128 * _SEGMENT), np.empty(0, dtype=np.int64))
    counts = [0]
    for j in range(128):
        segment = PrimeTable._sieve_segment(j * _SEGMENT + 1, (j + 1) * _SEGMENT, base)
        counts.append(counts[-1] + len(segment))
    assert _checkpoints()[:129].tolist() == counts


@pytest.mark.parametrize("j", [1, 3, 64, 129, 700, 1333, 2047, 2048])
def test_checkpoints_match_sympy_primepi(j):
    sympy = pytest.importorskip("sympy")
    assert _checkpoints()[j] == sympy.primepi(j * _SEGMENT)


def _segment(j: int) -> list[int]:
    """The primes in (j * _SEGMENT, (j + 1) * _SEGMENT], listed."""
    return PrimeTable._sieve_segment(j * _SEGMENT + 1, (j + 1) * _SEGMENT, np.empty(0, dtype=np.int64)).tolist()


@pytest.mark.parametrize("j", [1, 2, 77, 1024, 2047])
def test_nth_primes_around_a_checkpoint_reads_the_listed_segments(j):
    # p_(C[j]) closes segment j - 1 and p_(C[j] + 1) opens segment j
    c = int(_checkpoints()[j])
    before, after = _segment(j - 1), _segment(j)
    t = PrimeTable()
    got = t.nth_primes([c + 1, c - 1, c])
    assert got.tolist() == [after[0], before[-2], before[-1]]
    assert t.count < 10**4  # the table grew only to the base primes


def test_nth_primes_sieves_only_the_segments_that_hold_a_rank(monkeypatch):
    # segment 100 up to its last prime, segment 900 only near its start
    counts, pieces = _checkpoints(), []
    one, nine = _segment(100), _segment(900)
    sieve = PrimeTable._sieve_mask

    def spy(lo, hi, base):
        if lo > 2:  # not the base primes
            pieces.append((lo, hi))
        return sieve(lo, hi, base)

    monkeypatch.setattr(PrimeTable, "_sieve_mask", staticmethod(spy))
    ranks = [int(counts[900]) + 5, int(counts[100]) + 1, int(counts[900]) + 9, int(counts[101])]
    got = PrimeTable().nth_primes(ranks).tolist()
    assert got == [nine[4], one[0], nine[8], one[-1]]
    assert pieces[0] == (100 * _SEGMENT + 1, 101 * _SEGMENT)
    assert [lo for lo, _ in pieces[1:]] == [900 * _SEGMENT + 1]
    assert nine[8] <= pieces[1][1] < nine[8] + 10_000


def test_nth_primes_past_2_32_counts_the_segments_in_between():
    # under a cap above 2**32 the ranks past the last checkpoint are found
    # by counting the segments after it, each of which is also listed here
    top = int(_checkpoints()[-1])
    j = 2**32 // _SEGMENT
    listed = [_segment(j + k) for k in range(3)]
    ranks = [top + len(listed[0]) + len(listed[1]) + 7, top + 1, top + len(listed[0])]
    expected = [listed[2][6], listed[0][0], listed[0][-1]]
    assert PrimeTable(cap=2**33).nth_primes(ranks).tolist() == expected
    # under the default cap the first rank past pi(2**32) fails, as
    # nth_prime(top + 1) would after sieving all 2**32
    with pytest.raises(CapExceeded) as exc:
        PrimeTable().nth_primes([5, top + 2, top, top + 1])
    assert str(exc.value) == str(CapExceeded(_nth_prime_bound(top + 2), 2**32))


@pytest.mark.parametrize("j", [1, 3])
@pytest.mark.parametrize("d", [-1, 0, 1])
def test_nth_primes_under_a_cap_at_a_checkpoint_raises_what_the_loop_raises(table, j, d):
    cap = j * _SEGMENT + d
    last = _pi(table, cap)
    for ranks in ([last - 1, last, 3], [last, last + 1, last - 1], [last + 2, 1, last + 1]):
        expected = _loop(PrimeTable(cap=cap), ranks)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as exc:
                PrimeTable(cap=cap).nth_primes(ranks)
            assert str(exc.value) == str(expected)
        else:
            assert PrimeTable(cap=cap).nth_primes(ranks).tolist() == expected


def test_sieve_segment_around_the_presieved_pattern():
    # the pattern strikes 3, 5, 7 and 11 themselves and repeats every 1155
    # odd slots: segments starting below 11, and spanning periods
    sympy = pytest.importorskip("sympy")
    empty = np.empty(0, dtype=np.int64)
    period = 2 * 1155
    for lo in (0, 1, 2, 3, 4, 10, 11, 12, 13, period - 1, period, period + 1, 7 * period + 3):
        for hi in (lo + 1, lo + period - 1, lo + period, lo + period + 1, lo + 5 * period + 17):
            got = PrimeTable._sieve_segment(lo, hi, empty).tolist()
            assert got == list(sympy.primerange(lo, hi + 1)), (lo, hi)


def _spans_loop(first, count, step):
    """``_spans`` as a Python loop over the runs."""
    owner, index = [], []
    for i, (f, c, s) in enumerate(zip(first, count, step)):
        for j in range(c):
            owner.append(i)
            index.append(f + j * s)
    return owner, index


_RUN = st.tuples(st.integers(0, 60), st.integers(0, 5), st.integers(1, 7))


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(_RUN, max_size=12), stepped=st.booleans())
@example(runs=[], stepped=False)
@example(runs=[], stepped=True)
@example(runs=[(3, 0, 1), (9, 0, 4)], stepped=True)  # every count zero
@example(runs=[(0, 0, 2), (5, 3, 4), (1, 0, 1), (7, 2, 3)], stepped=True)
def test_spans_is_the_loop_over_runs(runs, stepped):
    first, count, step = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    if not stepped:
        step = np.ones_like(step)
    owner, index = _spans(first, count, step if stepped else None)
    expected = _spans_loop(first.tolist(), count.tolist(), step.tolist())
    assert (owner.tolist(), index.tolist()) == expected
    assert owner.dtype == index.dtype == np.int32


@pytest.mark.parametrize(
    "first, count, step, dtype",
    [
        ([2**31 - 3], [3], None, np.int32),  # the last index is 2**31 - 1
        ([2**31 - 3], [4], None, np.int64),
        ([0], [3], [2**30 - 1], np.int32),
        ([0], [3], [2**30], np.int64),
    ],
)
def test_spans_widen_to_int64_when_an_index_passes_int32(first, count, step, dtype):
    first, count = np.array(first, dtype=np.int64), np.array(count, dtype=np.int64)
    step = None if step is None else np.array(step, dtype=np.int64)
    owner, index = _spans(first, count, step)
    assert owner.dtype == index.dtype == dtype
    expected = _spans_loop(first.tolist(), count.tolist(), [1] * len(first) if step is None else step.tolist())
    assert (owner.tolist(), index.tolist()) == expected


def _check_block_helpers(table, lo, hi, sympy):
    row, prime, square = _distinct_factors(lo, hi, table)
    (_, rest, powers), = table.factor_blocks(lo, hi, hi + 1)
    reference = distinct_factors_reference(rest, powers)
    assert all(np.array_equal(a, b) for a, b in zip((row, prime, square), reference)), (lo, hi)
    factored = [sorted(sympy.factorint(n).items()) for n in range(lo, hi + 1)]
    expected = [(i, p, e > 1) for i, pairs in enumerate(factored) for p, e in pairs]
    assert list(zip(row.tolist(), prime.tolist(), square.tolist())) == expected, (lo, hi)
    # _block_factors: one (row, p) per prime-power hit and remainder, so each
    # row's primes come with their multiplicities
    row, prime = _block_factors(rest, powers)
    with_multiplicity = [(i, p) for i, pairs in enumerate(factored) for p, e in pairs for _ in range(e)]
    assert sorted(zip(row.tolist(), prime.tolist())) == with_multiplicity, (lo, hi)


@pytest.mark.parametrize(
    "lo, hi", [(1, 3000), (2**16 - 300, 2**16 + 300), (9_990_000, 10**7)]
)
def test_distinct_factors_match_the_reference_and_sympy(table, lo, hi):
    sympy = pytest.importorskip("sympy")
    _check_block_helpers(table, lo, hi, sympy)


def test_distinct_factors_of_the_cut_table_rank_blocks(table, monkeypatch):
    # the blocks of ranks ``_cut_table`` factors for the primes below 10^5
    sympy = pytest.importorskip("sympy")
    blocks = []

    def record(lo, hi, table):
        blocks.append((lo, hi))
        return _distinct_factors(lo, hi, table)

    monkeypatch.setattr(algebra, "_distinct_factors", record)
    primes = table.primes_up_to(10**5)
    algebra._cut_table(primes, table)
    assert blocks[0][0] == 2 and blocks[-1][1] == len(primes)
    for lo, hi in blocks:
        _check_block_helpers(table, lo, hi, sympy)
