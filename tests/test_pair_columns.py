"""Column reports against the list reports they stand for.

``pair_range`` keeps a pairing as int32 rows (int64 from n = 2**31 on) and
``report_from_pairs`` as int64 rows (object rows of Python ints past int64),
each with a singleton mask, and build ``pairs``,
``singletons`` and ``move_log`` when first read.  These tests hold such reports to the dataclass contract (``==``,
``replace()``, ``repr``), to the JSON of ``oracles.report_json_reference``
before and after a field is built and mutated, to the per-member validator
in ``oracles``, and the CLI's streamed stdout to ``to_json()`` and a newline.
The pair-list parser is checked against the loader it replaced.
"""

import io
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matula import PairingReport, PrimeTable, load_pairs, pair_range, report_from_pairs
from matula import pairing, validation_errors
from matula.cli import main
from oracles import load_pairs_reference, report_json_reference, validation_errors_reference

MODES = ("liouville", "mobius")
POLICIES = ("largest", "smallest", "first")
LAZY = ("pairs", "singletons", "move_log")


def _built(report):
    return [name for name in LAZY if name in vars(report)]


def _difference(got, expected):
    """None when the texts are equal, else where they first differ: a short
    message in place of pytest's diff, which takes minutes on a 1 MB line."""
    if got == expected:
        return None
    i = len(os.path.commonprefix([got, expected]))
    return f"{len(got)} and {len(expected)} characters, apart from {i}: {got[i : i + 40]!r}"


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 10**5])
def test_pair_stdout_is_the_list_reports_json_and_a_newline(capsys, table, mode, policy, n):
    out = _stdout(capsys, "pair", str(n), "--mode", mode, "--policy", policy, "--format", "json")
    columns = pair_range(n, mode, policy, table)
    assert _difference(columns.to_json() + "\n", out) is None and not _built(columns)
    lists = replace(columns)  # reads every field, so the copy holds lists
    assert not hasattr(lists, "_columns")
    assert _difference(out, lists.to_json() + "\n") is None
    text = _stdout(capsys, "pair", str(n), "--mode", mode, "--policy", policy)
    assert f" pairs={len(lists.pairs)} singletons={len(lists.singletons)} " in text


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("mode", MODES)
def test_the_capped_window_streams_what_the_per_k_search_took(capsys, mode, policy):
    # under --cap 1000 the block search pairs past the cap; the CLI streams
    # the rows as their list report writes them
    for n in range(1001, 1009):
        argv = ["pair", str(n), "--mode", mode, "--policy", policy, "--format", "json"]
        out = _stdout(capsys, "--cap", "1000", *argv)
        report = replace(pair_range(n, mode, policy, PrimeTable(cap=1000)))
        assert out == report.to_json() + "\n", n  # under 30 KB


@pytest.mark.parametrize("mode", MODES)
def test_a_column_report_equals_its_list_report(table, mode):
    columns, lists = pair_range(1000, mode), replace(pair_range(1000, mode))
    assert columns.counts() == (len(lists.pairs), len(lists.singletons))
    assert validation_errors(columns, table) == [] and not _built(columns)
    assert columns == lists and lists == columns
    assert _built(columns) == list(LAZY)
    assert repr(columns) == repr(lists)
    assert columns != replace(lists, pairs=lists.pairs[::-1])


@pytest.mark.parametrize("mode", MODES)
def test_json_chunks_join_to_the_reference_at_any_chunk_size(monkeypatch, mode):
    monkeypatch.setattr(pairing, "_CHUNK", 7)
    for n in (1, 2, 10, 13, 100, 300):
        for with_moves in (True, False):
            report = pair_range(n, mode, "smallest")
            out = io.StringIO()
            report.write_json(out, with_moves)
            assert out.getvalue() == report.to_json(with_moves)
            assert out.getvalue() == report_json_reference(report, with_moves), (n, with_moves)


def _mutate_pairs(report):
    report.pairs.pop()


def _mutate_singletons(report):
    report.singletons.append(report.pairs[0][0])


def _mutate_move_log(report):
    k = report.pairs[0][0]
    report.move_log[k] = {"kind": "fusion", "left": 2, "right": 2}


@pytest.mark.parametrize("mutate", [_mutate_pairs, _mutate_singletons, _mutate_move_log])
def test_to_json_and_validation_read_a_built_and_mutated_field(table, mutate):
    report = pair_range(300, "liouville")
    mutate(report)
    out = io.StringIO()
    report.write_json(out)
    assert out.getvalue() == report.to_json() == report_json_reference(report)
    counts = report.counts()
    assert counts == (len(report.pairs), len(report.singletons))
    errors = validation_errors(report, table)
    assert errors and errors == validation_errors_reference(report, table)


def test_replace_mutants_of_a_column_report_fail_validation(table):
    report = pair_range(1000, "mobius", "first", table)
    (k, l), m = report.pairs[0], report.singletons[-1]
    mutants = [
        replace(report, bound=report.bound + 1),
        replace(report, exact=report.exact - 1),
        replace(report, pairs=report.pairs[1:]),
        replace(report, pairs=[(l, k), *report.pairs[1:]]),
        replace(report, singletons=[*report.singletons, k]),
        replace(report, singletons=report.singletons[:-1], pairs=[*report.pairs, (m, 1)]),
        replace(report, move_log={**report.move_log, k: {"kind": "cut"}}),
    ]
    for mutant in mutants:
        assert mutant != report
        errors = validation_errors(mutant, table)
        assert errors and errors == validation_errors_reference(mutant, table), mutant
    assert validation_errors(report, table) == []
    assert report == replace(pair_range(1000, "mobius", "first", table))


MEMBERS = st.integers(-5, 130)


@st.composite
def columns(draw):
    """n, mode, rows and singleton mask of a column report of 1..n as
    ``validation_errors`` may meet one: pairs drawn, or rows of a greedy
    pairing, some dropped, reordered or given another move, and a mask drawn
    apart from them.  (The report is built in the test: printing it would
    build its lists.)"""
    table = PrimeTable()
    n = draw(st.integers(1, 120))
    mode = draw(st.sampled_from(MODES))
    if draw(st.booleans()):
        greedy = pair_range(n, mode, "largest", table)
        rows = greedy._columns[0]
        if len(rows):
            rows = rows[draw(st.lists(st.integers(0, len(rows) - 1), unique=True))]
        if len(rows) and draw(st.booleans()):
            move = draw(st.sampled_from([(3, 2, 0), (5, 2, 2)]))
            rows[draw(st.integers(0, len(rows) - 1)), 2:] = move
    else:
        pairs = draw(st.lists(st.tuples(MEMBERS, MEMBERS), max_size=20))
        rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    mask = np.array([False] + draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return n, mode, rows, mask


@settings(max_examples=200, deadline=None)
@given(columns())
def test_validation_of_columns_matches_the_per_member_loop(table, drawn):
    n, mode, rows, mask = drawn
    signs = pairing._signs(n, mode, table)
    report = PairingReport._from_columns(n, mode, "fixture", rows, mask, signs)
    got = validation_errors(report, table)
    assert not _built(report)  # the columns were read
    assert got == validation_errors_reference(report, table)


# members of pairs as a fixture may hold them: some far past int64
WIDE = st.one_of(MEMBERS, st.sampled_from([2**63 - 1, 2**63, 10**20, -(2**63) - 1]))


def _list_report(n, mode, pairs, table):
    """The report of ``report_from_pairs`` built by the constructor, its
    singletons and sums from one sign per k."""
    signs = {k: pairing.sign_of(k, mode, table) for k in range(1, n + 1)}
    taken = {m for pair in pairs for m in pair}
    singletons = [k for k, sign in signs.items() if sign and k not in taken]
    bound = abs(sum(signs[k] for k in singletons))
    return PairingReport(n, mode, "fixture", pairs, singletons, bound, sum(signs.values()))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 150), st.sampled_from(MODES), st.lists(st.tuples(WIDE, WIDE), max_size=20))
def test_report_from_pairs_array_and_list_give_one_report(table, n, mode, pairs):
    lists = _list_report(n, mode, pairs, table)
    fits = all(-(2**63) <= m < 2**63 for pair in pairs for m in pair)
    array = np.array(pairs, dtype=np.int64 if fits else object).reshape(-1, 2)
    for given_pairs in (pairs, array):
        rows = report_from_pairs(n, mode, given_pairs, table=table)
        assert rows._columns[0].dtype == (np.int64 if fits else object)
        assert rows.to_json() == lists.to_json()
        out = io.StringIO()
        rows.write_json(out)
        assert out.getvalue() == lists.to_json()
        assert rows.counts() == lists.counts()
        errors = validation_errors(rows, table)
        assert not _built(rows)  # counts, write_json and the validator read the rows
        assert errors == validation_errors(lists, table) == validation_errors_reference(lists, table)
        assert rows == lists and lists == rows


def test_report_from_pairs_keeps_members_past_int64_as_python_ints(table):
    big = 2**63
    report = report_from_pairs(10, "liouville", [(big, 3), (10, 5)], table=table)
    assert report.pairs == [(big, 3), (10, 5)]
    assert f"pair member {big} outside 1..10" in validation_errors(report, table)


def test_json_fills_pieces_of_rows_past_int64(monkeypatch, table):
    # one % per piece fills Python ints past int64 as it fills int64 rows
    monkeypatch.setattr(pairing, "_CHUNK", 7)
    pairs = [(k, k - 1) for k in range(40, 10, -2)] + [(10**20, 3)]
    report = report_from_pairs(40, "liouville", pairs, table=table)
    assert report._columns[0].dtype == object
    out = io.StringIO()
    report.write_json(out)
    assert out.getvalue() == report_json_reference(report)


@pytest.mark.parametrize(
    "pairs, row",
    [
        ([(10, 5), (1, 2, 3)], "pairs[1] is not two integers: (1, 2, 3)"),
        ([(10,)], "pairs[0] is not two integers: (10,)"),
        ([(10, 5), [9, 4], 7], "pairs[2] is not two integers: 7"),
        ([(10, 5), ("a", 2)], "pairs[1] is not two integers: ('a', 2)"),
        ([(10, 2.0)], "pairs[0] is not two integers: (10, 2.0)"),
        (np.array([[10, 5, 1]], dtype=np.int64), "pairs[0] is not two integers: [10, 5, 1]"),
        (np.array([10, 5], dtype=np.int64), "pairs[0] is not two integers: 10"),
        (np.array([[10.0, 5.0]]), "pairs[0] is not two integers: [10.0, 5.0]"),
    ],
)
def test_report_from_pairs_names_the_first_malformed_row(monkeypatch, table, pairs, row):
    def no_sieve(*args):
        raise AssertionError("the sign sieve ran")

    monkeypatch.setattr(pairing, "_signs", no_sieve)
    with pytest.raises(ValueError) as exc:
        report_from_pairs(10, "liouville", pairs, table=table)
    assert str(exc.value) == row


# lines of a pair list: blank, comments, members of every size, and faults
NUMBER = st.one_of(
    st.integers(-1000, 10**6),
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30]),
).map(str)
LINE = st.one_of(
    st.just(""),
    st.sampled_from([" ", "\t", "# a comment", "  # 1 2"]),
    st.builds(
        lambda a, b, c: f"{a} {b}{c}", NUMBER, NUMBER, st.sampled_from(["", " ", "  # c", "#7"])
    ),
    st.builds(lambda a: a, NUMBER),
    st.builds(lambda a, b, c: f"{a} {b} {c}", NUMBER, NUMBER, NUMBER),
    st.sampled_from(["1 x", "1.5 2", "0x10 3", "1_000 2"]),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chars_per_slice", [2, pairing._PARSE_CHARS])
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.booleans(),
)
def test_the_pair_parser_matches_the_list_loader(chars_per_slice, lines, last_newline):
    text = "".join(line + end for line, end in lines)
    if lines and not last_newline:
        text = text[: -len(lines[-1][1])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pairing, "_PARSE_CHARS", chars_per_slice)
        expected = _outcome(load_pairs_reference, text)
        assert _outcome(load_pairs, text) == expected
        if isinstance(expected, list):
            rows = pairing._pair_rows(text)
            assert rows.shape == (len(expected), 2)
            fits = all(-(2**63) <= m < 2**63 for pair in expected for m in pair)
            assert rows.dtype == (np.int64 if fits else object)
            assert list(map(tuple, rows.tolist())) == expected


def test_the_pair_parser_on_empty_text_and_a_late_fault(monkeypatch):
    assert pairing._pair_rows("").shape == (0, 2) and pairing._pair_rows("").dtype == np.int64
    assert load_pairs("# only\n\n") == []
    monkeypatch.setattr(pairing, "_PARSE_CHARS", 4)
    text = "1 2\n" * 9 + "3\n"
    with pytest.raises(ValueError, match=r"^line 10: expected two integers, got '3'$"):
        load_pairs(text)


def _traced_peak(call):
    """call()'s result and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_pair_parser_of_50k_pairs_peaks_below_2_mb():
    # the parse holds one slice of 2**12 characters' lines at a time: 1.5 MB,
    # 3.3 MB with slices of 2**16, and 6.3 MB while it held the whole text's
    # splitlines() list
    text = "".join(f"{k} {k - 1}\n" for k in range(100_000, 0, -2))
    rows, peak = _traced_peak(lambda: pairing._pair_rows(text))
    assert rows.shape == (50_000, 2) and rows[-1].tolist() == [2, 1]
    assert peak < 2 * 2**20


# pair_range(99956) in each mode, as the pairing benchmark runs it: 4.6 and
# 3.3 MB while only k and l go through each block's filter and sort and x, y,
# z are read for the taken rows, against 6.5 and 4.9 MB while all five
# columns did, the cut table's blocks worked in int64 and the greedy listed
# every l of a block
@pytest.mark.parametrize("mode, limit", [("liouville", 5.5), ("mobius", 4.0)])
def test_pair_range_at_the_benchmark_size_traces_a_block_sized_peak(mode, limit):
    table = PrimeTable()
    table.primes_up_to(99_956)
    report, peak = _traced_peak(lambda: pair_range(99_956, mode, "largest", table))
    assert report.counts()[0] > 20_000
    assert peak < limit * 2**20, peak


def test_validating_a_pair_list_of_the_benchmark_size_traces_below_3_6_mb():
    # parse, report and check the pairs of pair_range(99956): 3.2 MB with
    # int32 member values and parse slices of 2**12 characters, 4.0 MB with
    # int64 copies of the members and slices of 2**16
    text = "".join(f"{k} {l}\n" for k, l in pair_range(99_956).pairs)
    table = PrimeTable()

    def validate():
        report = report_from_pairs(99_956, "liouville", pairing._pair_rows(text), table=table)
        return report.counts(), validation_errors(report, table)

    ((pairs, _), errors), peak = _traced_peak(validate)
    assert pairs > 20_000 and errors == []
    assert peak < 3.6 * 2**20, peak


@pytest.mark.parametrize("mode", MODES)
def test_pair_range_keeps_int32_rows(table, mode):
    rows, _ = pair_range(3000, mode, "largest", table)._columns
    assert rows.dtype == np.int32 and rows.shape[1] == 5


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(
        st.one_of(
            st.integers(1, 1000),
            st.integers(1, 10**9 + 5),
            st.integers(1, 2**63 - 1),
            st.sampled_from([10**9 - 1, 10**9]),
        ),
        max_size=60,
    ),
    dtype=st.sampled_from([np.int32, np.int64]),
)
@example(keys=[5, 10, 1, 100, 99, 10**9 - 1, 10**9, 10**9 + 1, 2**63 - 1], dtype=np.int64)
@example(keys=[5, 10, 1, 100, 99, 10**9 - 1, 5], dtype=np.int32)
def test_decimal_order_is_the_order_of_the_decimal_strings(keys, dtype):
    # keys below 10**9 pad in uint32, larger ones in uint64; equal keys keep
    # their order
    if dtype == np.int32:
        keys = [k % 2**31 or 1 for k in keys]
    order = pairing._decimal_order(np.array(keys, dtype=dtype))
    assert order.tolist() == sorted(range(len(keys)), key=lambda i: str(keys[i]))
