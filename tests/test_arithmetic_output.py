"""``table`` and ``leaf-class`` print from arithmetic alone.

Row text comes from per-prime bracket strings and a block factorization, and
leaf classes from one leaf-count array; neither builds a ``Tree`` or
``Forest``.  The tree path (``print_forest(arborify(n))`` and ``_int_vaf``)
is the oracle.
"""

import contextlib
import hashlib
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    CapExceeded,
    Forest,
    PrimeTable,
    Tree,
    arborify,
    bijection,
    integers_with_leaf_count,
)
from matula.bijection import (
    _TABLE_BLOCK,
    _int_vaf,
    _leaf_counts,
    _prime_key,
    _prime_keys,
    _sorted_keys,
    table_text,
)
from matula.cli import main
from oracles import fresh_memos, leaf_counts_reference, primes_below, table_rows


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# exit code, stdout sha256 and last stderr line of each command, recorded
# from the tree-building loop (one ``arborify`` and ``print_forest`` per row,
# one ``_int_vaf`` per integer) with empty memos; a capped table prints every
# row before the failing one
PARITY = {
    "--cap 50 table --from 10000 --to 10010": (4, "f31cac7e4c9f89a87446b8dee3be9ec0a177e012bff8166941c2ecee69a74cf1", "error: operation needs primes up to ~73, beyond the cap 50"),
    "--cap 1000 table --from 995 --to 1012": (4, "c9507847a3cfa27410476b7a04d4e0f934c9d674a23d958a48215031be787a86", "error: operation needs primes up to ~1009, beyond the cap 1000"),
    "--cap 1000 table --from 5000 --to 5000": (0, "7bd55d9b4e1d433b27638fbc88589341a4677ce3f6d03d8e1a0a43f816faf497", ""),
    "--cap 1000 table --from 4090 --to 4100": (4, "9324976b010fd70c25868aea1db514c35e7c49addbf49013d443e4fef3269bb1", "error: operation needs primes up to ~4091, beyond the cap 1000"),
    "--cap 1000 table --from 1000 --to 8200": (4, "d773b32735701b31fec31f554f461db7d6bf1c00268e5154de6431765c9a16fb", "error: operation needs primes up to ~1009, beyond the cap 1000"),
    "--cap 5000 table --from 4000 --to 9000": (4, "3f152772034ca84fa7a9eb06a23e5dce72f2282e730b8f4d9538c44a36da6eb2", "error: operation needs primes up to ~5003, beyond the cap 5000"),
    "--cap 30 table --from 1 --to 200": (4, "932687411145e0e12297fa2760d63aba93a58854540a5224706fe82e50389ae9", "error: operation needs primes up to ~31, beyond the cap 30"),
    "--cap 2 table --from 1 --to 10": (4, "d665a06bcb1d8022841fb4a968d87c671cc69cb96c952d685fc08b0e85d053e8", "error: operation needs primes up to ~3, beyond the cap 2"),
    "--cap 1000 table --from 18446744073709551615 --to 18446744073709551617": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: operation needs primes up to ~4294967295, beyond the cap 1000"),
    "table --from 1 --to 1": (0, "292287bd057053617f1da37ef5c4b598c185d78259101a0d13041e868ed68838", ""),
    "table --from 4095 --to 4097": (0, "31acad65894aedf089f927b459a59a3859fa777080f1ee4a2d54e6e841ad2a15", ""),
    "table --from 8190 --to 12290": (0, "9439cd3cf4e0eb3832d10903b2b9f45249e3e1e51a83b6c947fb3092065752d8", ""),
    "table --from 1048575 --to 1048577": (0, "3911596742f0d41e741b7645f383314f7060db3cdea695b0f8e37f753351c347", ""),
    "table --from 4194200 --to 4194400": (0, "4ac0c7bd2d901f789abed2abc3a565374da2d6b36d63c3f6400cbb3c849f154b", ""),
    "--cap 24 leaf-class 1 --max 28": (0, "bb3a494766d9f749b15d95bde704f82a7e1c9c3fc68be0a9af206859c48bc675", ""),
    "--cap 24 leaf-class 1 --max 40": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: operation needs primes up to ~29, beyond the cap 24"),
    "--cap 23 leaf-class 1 --max 30": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: operation needs primes up to ~29, beyond the cap 23"),
    "--cap 31 leaf-class 4 --max 31 --format json": (0, "cbd792bae535ffbd5f9fd414e210e11505a311bacee664f45ffa197dda8db64d", ""),
    "--cap 100 leaf-class 2 --max 1000": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: operation needs primes up to ~101, beyond the cap 100"),
    "--cap 2 leaf-class 1 --max 10": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: operation needs primes up to ~3, beyond the cap 2"),
    "leaf-class 2 --max 0": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", ""),
    "leaf-class 2 --max -5": (0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b", ""),
    "leaf-class 1 --max 2": (0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3", ""),
    "leaf-class 1 --max 15": (0, "bb3a494766d9f749b15d95bde704f82a7e1c9c3fc68be0a9af206859c48bc675", ""),
    "leaf-class 2 --max 16": (0, "7da754db8a800e948e532d19bc81b887835644aa9bbdb0d7651d6a90fb098a95", ""),
    "leaf-class 3 --max 4096 --format json": (0, "b78b9b7c59d8f71c6ac22309b8a26484b89110065203f51f98d88f84ff94d8d5", ""),
    "leaf-class 0 --max 10": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "error: leaf count must be >= 1, got 0"),
}


@pytest.mark.parametrize("argv", list(PARITY))
def test_output_equals_the_tree_loop(argv):
    with fresh_memos():
        code, out, err = _run(argv.split())
    last = err.splitlines()[-1] if err else ""
    assert (code, hashlib.sha256(out.encode()).hexdigest(), last) == PARITY[argv]


def test_rows_are_the_printed_forests(table):
    expected = table_rows(1, 2999, table)
    with fresh_memos():  # one row at a time
        assert [f"{n}\t{' '.join(_sorted_keys(n, table))}\n" for n in range(1, 3000)] == expected
    with fresh_memos():  # in blocks
        assert "".join(table_text(1, 2999, table)) == "".join(expected)


@pytest.mark.parametrize("k", [1, 2, 3, 128, 256])
def test_rows_across_block_edges(table, k):
    edge = k * _TABLE_BLOCK
    with fresh_memos():
        assert "".join(table_text(edge - 3, edge + 2, table)) == "".join(table_rows(edge - 3, edge + 2, table))
        assert "".join(table_text(edge - 1, edge - 1, table)) == table_rows(edge - 1, edge - 1, table)[0]
        assert "".join(table_text(edge + 1, edge + 1, table)) == table_rows(edge + 1, edge + 1, table)[0]


def test_one_chunk_per_block(table):
    lo, hi = 3 * _TABLE_BLOCK - 5, 5 * _TABLE_BLOCK + 7
    chunks = list(table_text(lo, hi, table))
    assert len(chunks) == 4  # a tail, two whole blocks, a head
    assert "".join(chunks) == "".join(table_rows(lo, hi, table))


def test_a_capped_block_is_redone_row_by_row():
    capped = PrimeTable(cap=1000)
    with fresh_memos():
        rows = table_text(995, 1012, capped)
        assert "".join(next(rows) for _ in range(14)) == "".join(table_rows(995, 1008, capped))
        with pytest.raises(CapExceeded) as exc:
            next(rows)
    assert exc.value.needed == 1009


def test_bulk_keys_are_the_tree_keys(table):
    primes = primes_below(200_000)
    with fresh_memos():
        keys = _prime_keys(np.array(primes, dtype=np.int64), table)
    with fresh_memos():
        assert keys == [arborify(p, table).trees[0].key for p in primes]


_PRIMES = primes_below(20_000)


@settings(max_examples=80, deadline=None)
@given(
    warm=st.lists(st.sampled_from(_PRIMES), max_size=40, unique=True),
    want=st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=40, unique=True),
    cap=st.one_of(st.none(), st.integers(2, 25_000)),
)
def test_bulk_keys_on_a_warm_memo_are_the_keys_one_at_a_time(table, warm, want, cap):
    # the memo is warmed without a cap, so a hit on a prime past the cap
    # must not count
    capped = table if cap is None else PrimeTable(cap=cap)
    expected = []
    try:
        for p in want:
            with fresh_memos():
                expected.append(_prime_key(p, capped))
    except CapExceeded:
        expected = None
    with fresh_memos():
        _prime_keys(np.array(warm, dtype=np.int64), table)
        if expected is None:
            with pytest.raises(CapExceeded):
                _prime_keys(np.array(want, dtype=np.int64), capped)
        else:
            assert _prime_keys(np.array(want, dtype=np.int64), capped) == expected


def test_the_block_path_makes_no_per_prime_call(monkeypatch):
    with fresh_memos():
        expected = "".join(table_text(500000, 520000, PrimeTable()))

    def refuse(*args, **kwargs):  # not a MatulaError, so the row fallback cannot hide it
        raise AssertionError("a per-prime call")

    monkeypatch.setattr(PrimeTable, "prime_rank", refuse)
    monkeypatch.setattr(PrimeTable, "factorize", refuse)
    with fresh_memos():
        assert "".join(table_text(500000, 520000, PrimeTable())) == expected


def test_ranks_past_the_factor_sieve_go_one_prime_at_a_time(table, monkeypatch):
    # as if every rank above 40 were past the automatic factor sieve: the
    # bulk keys then read no smallest-factor sieve past 40
    expected = "".join(table_rows(1, 3000, table))
    limits = []
    spf_through = PrimeTable._spf_through

    def record(self, limit):
        limits.append(limit)
        return spf_through(self, limit)

    monkeypatch.setattr(bijection, "_AUTO_FACTOR_SIEVE", 40)
    monkeypatch.setattr(PrimeTable, "_spf_through", record)
    with fresh_memos():
        assert "".join(table_text(1, 3000, table)) == expected
    assert 0 < max(limits) <= 40


def test_table_bytes_at_benchmark_scale_are_pinned():
    # the ``table`` step of the bijection benchmark at its widest start
    with fresh_memos():
        code, out, err = _run(["table", "--from", "529988", "--to", "679988"])
    digest = "c566ff956e1150ee9c39204a09e53e0489c396f169a07afc156d106c5ac4637b"
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")


def test_leaf_array_equals_the_forest_walk(table):
    leaves = _leaf_counts(20000, table)
    assert leaves[:2].tolist() == [0, 0]
    assert leaves[2:].tolist() == [_int_vaf(n, table)[2] for n in range(2, 20001)]


def test_leaf_classes_of_small_bounds(table):
    counts = [0] + [arborify(n, table).leaves for n in range(1, 41)]
    for bound in range(41):
        for leaves in range(1, 6):
            expected = [n for n in range(2, bound + 1) if counts[n] == leaves]
            assert integers_with_leaf_count(leaves, bound, table) == expected, (leaves, bound)
    assert integers_with_leaf_count(200, 100, table) == []


def test_table_and_leaf_class_build_no_tree(monkeypatch):
    table = PrimeTable()
    expected = "".join(table_rows(500000, 501000, table))
    pairs = [str(n) for n in range(2, 100001) if _int_vaf(n, table)[2] == 2]

    def refuse(*args, **kwargs):
        raise AssertionError("a tree object was built")

    monkeypatch.setattr(Tree, "__new__", refuse)
    monkeypatch.setattr(Forest, "__init__", refuse)
    with fresh_memos():
        assert _run(["table", "--from", "500000", "--to", "501000"]) == (0, expected, "")
        assert _run(["leaf-class", "2", "--max", "100000"]) == (0, " ".join(pairs) + "\n", "")


def _tree_loop(cap: int, command: str, first: int, bound: int) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``--cap CAP table --from FIRST --to
    BOUND`` or ``--cap CAP leaf-class FIRST --max BOUND`` while each row
    built its forest."""
    out: list[str] = []
    try:
        table = PrimeTable(cap=cap)
        if command == "table":
            if first < 1 or bound < first:
                raise ValueError(f"bad range: from {first} to {bound}")
            for n in range(first, bound + 1):
                out += table_rows(n, n, table)
        else:
            if first < 1:
                raise ValueError(f"leaf count must be >= 1, got {first}")
            ns = [n for n in range(2, bound + 1) if arborify(n, table).leaves == first]
            out.append(" ".join(map(str, ns)) + "\n")
    except CapExceeded as exc:
        return 4, "".join(out), f"error: {exc}\n"
    except ValueError as exc:
        return 3, "".join(out), f"error: {exc}\n"
    return 0, "".join(out), ""


@settings(max_examples=60, deadline=None)
@given(
    cap=st.integers(1, 400),
    command=st.sampled_from(["table", "leaf-class"]),
    start=st.integers(-2, 2 * _TABLE_BLOCK + 50),
    span=st.integers(-3, 300),
)
def test_capped_commands_fuzz_against_the_tree_loop(cap, command, start, span):
    # a leaf class takes its count from start and its bound from start + span
    first = start if command == "table" else start % 7
    flag = "--to" if command == "table" else "--max"
    argv = ["--cap", str(cap), command, str(first), flag, str(start + span)]
    if command == "table":
        argv.insert(3, "--from")
    with fresh_memos():
        expected = _tree_loop(cap, command, first, start + span)
    with fresh_memos():
        got = _run(argv)
    assert got == expected
    assert got[0] in (0, 3, 4)


class _CountingMemo(dict):
    """A key memo that counts every write, one by one or through ``update``."""

    writes = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def update(self, items):
        for key, value in items:
            self[key] = value


def test_bulk_keys_are_written_once_at_benchmark_scale():
    # a missing prime that is also a factor of another's rank (3, whose rank
    # 2 is a factor of the rank 3 of 5) is keyed one level down, not again
    memo = _CountingMemo()
    with fresh_memos():
        bijection._key_of_prime = memo
        code, out, err = _run(["table", "--from", "529988", "--to", "679988"])
    digest = "c566ff956e1150ee9c39204a09e53e0489c396f169a07afc156d106c5ac4637b"
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, digest, "")
    assert memo.writes == len(memo) > 0


def _row_by_row(lo: int, hi: int, table) -> str:
    """The table text of lo..hi one row at a time, through ``_sorted_keys``."""
    return "".join(f"{n}\t{' '.join(_sorted_keys(n, table))}\n" for n in range(lo, hi + 1))


@pytest.mark.parametrize("first, last", [(130, 130), (131, 132), (165, 166)])
def test_windows_across_block_edges_match_the_rows_cold_and_warm(table, first, last):
    # windows around the block edges first * B .. last * B near the benchmark
    # range, with hi = 679988 in the last one; the block path memoises only
    # keys of primes up to pi(hi), and reads a larger prime's key from the
    # memo when it is there
    lo, hi = first * _TABLE_BLOCK - 300, min(last * _TABLE_BLOCK + 300, 679988)
    pi_hi = len(primes_below(hi))
    with fresh_memos():
        expected = _row_by_row(lo, hi, table)
    with fresh_memos():
        assert "".join(table_text(lo, hi, table)) == expected
        assert max(bijection._key_of_prime) <= pi_hi
    factors = {p for n in range(lo, hi + 1) for p, _ in table.factorize(n)}
    large = sorted(p for p in factors if p > pi_hi)[::3]
    assert len(large) > 10
    with fresh_memos():
        for p in large:  # keyed one at a time, as ``_sorted_keys`` keys them
            arborify(p, table)
            _prime_key(p, table)
        assert "".join(table_text(lo, hi, table)) == expected
        assert sorted(p for p in bijection._key_of_prime if p > pi_hi) == large


def test_a_cold_benchmark_table_memoises_the_primes_up_to_pi_hi_in_bounded_memory(monkeypatch):
    # pi(679988) = 55061: only primes up to it occur inside another key of
    # the range, and each of them divides one of its 150001 rows.  Traced
    # peak on a fresh table: 7.9 MB while every key stayed memoised, 2.8 MB
    # with this rule.  Each of those 5,597 keys is built once, and each of
    # the 31,188 larger primes' keys once per block it divides: 41,738
    # builds of 36,785 keys
    built = []
    build_keys = bijection._build_keys

    def count(missing, table):
        keys = build_keys(missing, table)
        built.extend(keys)
        return keys

    monkeypatch.setattr(bijection, "_build_keys", count)
    with fresh_memos():
        tracemalloc.start()
        try:
            for _ in table_text(529988, 679988, PrimeTable()):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        memo = sorted(bijection._key_of_prime)
    assert len(memo) == 5597 and memo == primes_below(55061)
    assert peak < 5 * 2**20
    assert len(built) == 41_738 and len(set(built)) == 36_785
    assert min(p for p, times in Counter(built).items() if times > 1) > 55061


def test_a_capped_table_prints_every_row_before_its_failing_row(table, monkeypatch):
    # the first block keys its primes with the cap bounding pi(hi); the next
    # holds 600011, the first prime past the cap, and goes row by row to it
    capped = PrimeTable(cap=600_000)
    with fresh_memos():
        expected = _row_by_row(597_000, 600_010, table)
    rows = []

    def row_keys(n, table):
        rows.append(n)
        return _sorted_keys(n, table)

    monkeypatch.setattr(bijection, "_sorted_keys", row_keys)
    got = []
    with fresh_memos(), pytest.raises(CapExceeded) as exc:
        for chunk in table_text(597_000, 601_000, capped):
            got.append(chunk)
    assert "".join(got) == expected
    assert exc.value.needed == 600_011
    assert rows[0] == 146 * _TABLE_BLOCK  # 598016: rows before it went by block


def test_leaf_counts_in_blocks_of_7_follow_the_recurrence(table, monkeypatch):
    monkeypatch.setattr(bijection, "_LEAF_BLOCK", 7)
    assert _leaf_counts(3000, table).tolist() == leaf_counts_reference(3000)
    with pytest.raises(CapExceeded) as exc:
        _leaf_counts(3000, PrimeTable(cap=1000))
    assert exc.value.needed == 1009


def test_leaf_counts_across_whole_blocks_follow_the_recurrence(table):
    bound = 4 * bijection._LEAF_BLOCK + 3  # past the edges at 2, 3 and 4 blocks
    assert _leaf_counts(bound, table).tolist() == leaf_counts_reference(bound)
