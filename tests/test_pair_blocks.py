"""The block partner search of ``pair_range`` against the per-k search.

``pair_range`` reads its partner edges from arrays, one block of k at a time,
for every n: under a cap below n, a k whose moves need a prime past the cap
gets no edges, and the search raises at the largest such k still free at its
turn.  These tests check the cut table against ``_ordered_cuts``, and the
whole pairing, error or report, against ``oracles.pair_range_reference``, a
greedy over ``partner_moves`` one k at a time.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matula import PrimeTable, pair_range
from matula import algebra, pairing
from matula.algebra import _ordered_cuts, value_increasing_cuts
from matula.errors import CapExceeded

from oracles import pair_range_reference

MODES = ("liouville", "mobius")
POLICIES = ("largest", "smallest", "first")


def _outcome(pairing_of, n, mode, policy, cap, table=None):
    """The report JSON of ``pairing_of`` on ``table`` or a fresh table of the
    cap, or the type and message it raised."""
    try:
        return pairing_of(n, mode, policy, table or PrimeTable(cap=cap)).to_json()
    except Exception as exc:  # compared, not hidden: both sides must agree
        return type(exc), str(exc)


def _cut_table_checked(primes, table):
    """``_cut_table(primes)``, after checking it against ``_ordered_cuts``."""
    offsets, detached, remaining = algebra._cut_table(primes, table)
    assert len(offsets) == len(primes) + 1 and offsets[0] == offsets[1] == 0
    for m, q in enumerate(primes.tolist(), start=1):
        lo, hi = offsets[m - 1], offsets[m]
        got = list(zip(detached[lo:hi].tolist(), remaining[lo:hi].tolist()))
        assert got == [tuple(c) for c in _ordered_cuts(q, table)], q
    return offsets, detached, remaining


def test_cut_table_matches_ordered_cuts_below_100000():
    table = PrimeTable()
    _cut_table_checked(table.primes_up_to(100_000), table)


def test_capped_cut_table_blocks_match_ordered_cuts(monkeypatch):
    # blocks of at most 7 ranks: many capped blocks, and the buffer, 7
    # columns at first, doubles several times
    table = PrimeTable()
    primes = table.primes_up_to(10**4)
    blocks = []
    distinct = algebra._distinct_factors

    def record(lo, hi, table):
        blocks.append((lo, hi))
        return distinct(lo, hi, table)

    monkeypatch.setattr(algebra, "_CUT_BLOCK", 7)
    monkeypatch.setattr(algebra, "_distinct_factors", record)
    offsets, detached, remaining = _cut_table_checked(primes, table)
    assert all(hi - lo < 7 for lo, hi in blocks) and len(blocks) > len(primes) // 7
    assert [lo for lo, _ in blocks[1:]] == [hi + 1 for _, hi in blocks[:-1]]
    assert detached.dtype == remaining.dtype == np.int32
    assert offsets[-1] > 2**10 * 7  # at least ten doublings


def test_value_increasing_cuts_match_the_ordered_cuts_below_3000():
    table = PrimeTable()
    expected = sorted(
        {
            (q, s * r)
            for q in table.primes_up_to(3000).tolist()
            for s, r in _ordered_cuts(q, table)
            if s * r > q
        }
    )
    assert value_increasing_cuts(3000, table) == expected


def test_value_increasing_cuts_multiply_int32_cuts_in_int64(monkeypatch):
    # one cut of 7 into 50000 * 50000: 2.5e9 wraps to a negative int32
    def one_cut(primes, table):
        offsets = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        return offsets, np.array([50_000], dtype=np.int32), np.array([50_000], dtype=np.int32)

    monkeypatch.setattr(algebra, "_cut_table", one_cut)
    assert value_increasing_cuts(10, PrimeTable()) == [(7, 2_500_000_000)]


_B = pairing._PAIR_BLOCK

# block edges sit at multiples of the block size; draw next to them often
_N = st.one_of(
    st.integers(1, 3000),
    st.builds(lambda j, d: j * _B + d, st.integers(1, 2), st.integers(-1, 1)),
)


# a cap just around n leaves fused primes past it that no partner needs
_N_CAP = _N.flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.integers(1, 5 * _B), st.integers(n - 2, n + 8)))
)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(n_cap=_N_CAP)
@example(n_cap=(35, 35))  # 5 * 7 fuses to p_12 = 37
@example(n_cap=(49, 52))  # 7 * 7 fuses to p_16 = 53
def test_pair_range_matches_the_per_k_search(mode, policy, n_cap):
    n, cap = n_cap
    expected = _outcome(pair_range_reference, n, mode, policy, cap)
    assert _outcome(pair_range, n, mode, policy, cap) == expected


def test_pair_range_matches_the_per_k_search_in_every_cap_window():
    # every cap in 2..60 and n from cap - 2 to cap + 12: pairings that run
    # past the cap, refusals at a prime or a fusion past it, and sieve
    # refusals (cap 2, n >= 9)
    outcomes = 0
    for cap in range(2, 61):
        table = PrimeTable(cap=cap)  # what either side raises does not depend on its state
        for n in range(max(cap - 2, 1), cap + 13):
            for mode in MODES:
                for policy in POLICIES:
                    expected = _outcome(pair_range_reference, n, mode, policy, cap, table)
                    got = _outcome(pair_range, n, mode, policy, cap, table)
                    assert got == expected, (cap, n, mode, policy)
                    outcomes += isinstance(got, str)
    assert 0 < outcomes < 59 * 15 * 6  # both reports and refusals were compared


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
def test_a_failing_block_propagates_its_error(mode, policy):
    # blocks of n: [2B, n], [B, 2B - 1], [2, B - 1]; the middle one fails,
    # and no other search takes over
    n, failing = 2 * _B + 452, _B
    table = PrimeTable()
    edges = pairing._block_edges
    error = CapExceeded(failing, 0)
    tops = []

    def fail_once(lo, hi, *args):
        tops.append(hi)
        if lo == failing:
            raise error
        return edges(lo, hi, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "_block_edges", fail_once)
        with pytest.raises(CapExceeded) as raised:
            pair_range(n, mode, policy, table)
    assert raised.value is error
    assert tops == [n, 2 * _B - 1]


def test_block_search_and_cut_table_read_ranks_from_the_primes_up_to_n(monkeypatch):
    # a fusion rank past pi(n) fuses to a prime above n, and a cut's ranks are
    # below the cut prime's, so neither path asks the streaming reader
    n = 3000
    expected = {
        (mode, policy): pair_range(n, mode, policy, PrimeTable()).to_json()
        for mode in MODES
        for policy in POLICIES
    }
    cuts = value_increasing_cuts(n, PrimeTable())

    def refuse(self, ranks):  # not a MatulaError: no fallback may hide it
        raise AssertionError(f"nth_primes asked for {list(ranks)}")

    monkeypatch.setattr(PrimeTable, "nth_primes", refuse)
    for (mode, policy), text in expected.items():
        assert pair_range(n, mode, policy, PrimeTable()).to_json() == text
    assert value_increasing_cuts(n, PrimeTable()) == cuts


def test_pair_json_bytes_at_a_million_are_pinned():
    # recorded before the greedy read one run of edges per k; the CLI's stdout
    # (this text and a newline) has sha256 0878e6e8...0b65542
    text = pair_range(10**6, "liouville", "largest").to_json()
    digest = "b309fa16e9ae85472a16bc44f9ea55205eaa7ac092f5add33a059ea8cc7e51ef"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _block_columns(lo, hi, policy, live, table):
    """The five columns k, l, x, y, z of ``_block_edges``' edges of lo..hi
    (none of whose k is flagged)."""
    primes = table.primes_up_to(hi)
    edge_k, edge_l, moves, flagged = pairing._block_edges(
        lo, hi, policy, live, primes, pairing._cut_table(primes, table), table
    )
    assert len(flagged) == 0
    xyz = moves(np.arange(len(edge_k)))
    return edge_k, edge_l, *xyz.T


def test_block_edges_of_the_block_holding_a_million_are_pinned():
    # recorded as int64 columns before the columns became int32, for the
    # block of 4096 integers holding a million; there the sort key
    # (hi - k) * (hi + 1) + hi - l passes 2**31, so a key computed in int32
    # would wrap and reorder the edges
    table = PrimeTable()
    lo = 10**6 // 4096 * 4096
    hi = lo + 4095
    live = np.ones(hi + 1, dtype=bool)
    live[0] = False
    edges = _block_columns(lo, hi, "largest", live, table)
    assert [col.dtype for col in edges] == [np.int32] * 5
    columns = np.stack(edges).astype("<i8")
    assert columns.shape == (5, 50213)
    digest = "1c8b33fe17790473107aa541e64e074f3312f29b770900167d14a12833b6dd97"
    assert hashlib.sha256(columns.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "center",
    [
        30030,  # 2 * 3 * 5 * 7 * 11 * 13: many distinct factors
        2**10 * 3**4,  # high prime powers
        510510,  # 30030 * 17
    ],
)
def test_block_edges_list_the_moves_of_each_k_in_generation_order(center):
    # with every k live and policy ``first``, the block's columns are the
    # per-k ``_moves`` of hi, hi - 1, ..., lo, each in generation order
    table = PrimeTable()
    lo = center // _B * _B
    hi = lo + _B - 1
    live = np.ones(hi + 1, dtype=bool)
    edges = _block_columns(lo, hi, "first", live, table)
    expected = [
        (k, *move) for k in range(hi, lo - 1, -1) for move in pairing._moves(k, table.factorize(k), table)
    ]
    assert list(zip(*(col.tolist() for col in edges))) == expected
