"""The array validator, the direct JSON writer and the fixture loader against
the code they replaced: ``validation_errors`` against the per-member loop in
``oracles.validation_errors_reference``, ``to_json`` against ``json.dumps``
of the same document, and ``load_pairs`` against its own text."""

import contextlib
import io
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import CapExceeded, PairingReport, PrimeTable, load_pairs, pair_range, validation_errors
from matula import pairing
from matula.cli import main
from matula.primes import _AUTO_FACTOR_SIEVE
from oracles import report_json_reference, validation_errors_reference

FIXTURE = str(Path(__file__).parent / "data" / "pairs_liouville_96.txt")

# members of 1..n, members outside it, and Python ints far past int64
MEMBERS = st.one_of(st.integers(-50, 350), st.sampled_from([10**30, -(10**30)]))


@st.composite
def reports(draw):
    """A report of 1..n to check: drawn pairs and singletons, or a greedy
    pairing with some pairs dropped and others added, plus members drawn
    again so that duplicates are common."""
    n = draw(st.integers(1, 300))
    mode = draw(st.sampled_from(pairing.MODES))
    pairs = draw(st.lists(st.tuples(MEMBERS, MEMBERS), max_size=25))
    singletons = draw(st.lists(MEMBERS, max_size=25))
    bound, exact = draw(st.integers(0, 60)), draw(st.integers(-60, 60))
    move_log = {}
    if draw(st.booleans()):
        greedy = pair_range(n, mode)
        kept = draw(st.lists(st.booleans(), min_size=len(greedy.pairs), max_size=len(greedy.pairs)))
        pairs += [pair for pair, keep in zip(greedy.pairs, kept) if keep]
        singletons += greedy.singletons
        bound, exact, move_log = greedy.bound, greedy.exact, greedy.move_log
    members = [m for pair in pairs for m in pair] + singletons
    if members:
        again = draw(st.lists(st.sampled_from(members), max_size=6))
        singletons += again[::2]
        pairs += list(zip(again[1::2], draw(st.lists(MEMBERS, min_size=3, max_size=3))))
    order = draw(st.permutations(range(len(pairs))))
    pairs = [pairs[i] for i in order]
    return PairingReport(n, mode, "fixture", pairs, singletons, bound, exact, move_log)


@settings(max_examples=300, deadline=None)
@given(reports())
def test_validation_matches_the_per_member_loop(table, report):
    assert validation_errors(report, table) == validation_errors_reference(report, table)


def test_validate_pairs_runs_one_sign_sieve(monkeypatch):
    passes = []
    blocks = pairing._sign_blocks

    def counted(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(pairing, "_sign_blocks", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate-pairs", FIXTURE, "--max", "1000"]) == 0
    assert out.getvalue().startswith("valid: 48 pairs, 904 singletons")
    assert len(passes) == 1


SCALARS = st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=4))
VALUES = st.integers() | SCALARS  # mostly ints, as ``_move_dict`` writes them
MOVES = st.one_of(
    st.builds(
        lambda q, s, r: {"kind": "cut", "factor": q, "detached": s, "remaining": r},
        VALUES, VALUES, VALUES,
    ),
    st.builds(lambda q, r: {"kind": "fusion", "left": q, "right": r}, VALUES, VALUES),
    # mutants: a key dropped, added or renamed, another kind
    st.dictionaries(
        st.sampled_from(["kind", "factor", "detached", "remaining", "left", "right", "x"]),
        st.one_of(SCALARS, st.sampled_from(["cut", "fusion", "graft"])),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.builds(
        PairingReport,
        n=st.integers(),
        mode=st.text(max_size=6),
        policy=st.text(max_size=6),
        pairs=st.lists(st.tuples(st.integers(), st.integers()), max_size=8)
        | st.lists(st.tuples(st.integers(), st.integers()), max_size=8).map(tuple),
        singletons=st.lists(st.integers(), max_size=8),
        bound=st.integers(),
        exact=st.integers(),
        move_log=st.dictionaries(st.one_of(st.integers(), st.integers().map(str)), MOVES, max_size=12)
        | st.dictionaries(st.integers(), MOVES, max_size=12),
    ),
    st.booleans(),
)
def test_to_json_is_json_dumps_of_the_report(report, with_moves):
    assert report.to_json(with_moves) == report_json_reference(report, with_moves)


def test_load_pairs_round_trips_text_with_comments_and_blank_lines():
    pairs = [(96, 48), (95, 89), (-3, 10**30), (0, 0)]
    text = "# header\n\n96 48\n  95\t89  # a comment\n\r\n-3 1000000000000000000000000000000\n0 0"
    assert load_pairs(text) == pairs
    assert load_pairs("".join(f"{k} {l}\n" for k, l in pairs)) == pairs
    assert load_pairs("") == [] and load_pairs("# only\n \n") == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2\n3\n", "line 2: expected two integers, got '3'"),
        ("1 2\n\n3 4 5 # c\n", "line 3: expected two integers, got '3 4 5 # c'"),
        ("1 x\n3\n", "invalid literal for int() with base 10: 'x'"),
        ("1 2\n3\n4 y\n", "line 2: expected two integers, got '3'"),
        ("# 1 2 3\n5 6#7\n1.5 2\n", "invalid literal for int() with base 10: '1.5'"),
    ],
)
def test_load_pairs_messages_are_the_first_fault_in_line_order(text, message):
    with pytest.raises(ValueError) as exc:
        load_pairs(text)
    assert str(exc.value) == message


def test_members_past_the_automatic_factor_sieve_are_checked(table):
    # 4194305 = 5 * 397 * 2113 lies past the sieve that factorize builds by
    # itself (2**22), so the validator sieves that far for the call; its
    # mobius sign -1 cancels that of 6 but not that of 3
    n = 4194305
    report = PairingReport(n, "mobius", "fixture", [(n, 6), (n, 3)], [], 0, 0)
    errors = validation_errors(report, table)
    assert f"pair ({n}, 3) signs do not cancel" in errors
    assert f"pair ({n}, 6) signs do not cancel" not in errors


def test_a_sieve_past_the_automatic_one_is_not_kept():
    # 6 * 10**6 = 2**7 * 3 * 5**6 and 5999999 = 1013 * 5923 both have an
    # even number of prime factors; the table keeps no 23 MB sieve after
    t = PrimeTable()
    n = 6 * 10**6
    report = pairing.report_from_pairs(n, "liouville", [(n, n - 1)], table=t)
    assert validation_errors(report, t) == [f"pair ({n}, {n - 1}) signs do not cancel"]
    assert t._spf is None or len(t._spf) <= _AUTO_FACTOR_SIEVE + 1


def test_a_move_past_the_cap_raises_instead_of_failing_its_replay():
    # replaying a cut of a prime above 200 needs primes the table may not
    # sieve: a refusal, not 151 move logs that miss their l
    with pytest.raises(CapExceeded):
        validation_errors(pair_range(1000), PrimeTable(cap=200))


def test_a_cut_of_a_composite_factor_gets_its_one_message(table):
    report = pair_range(1000, "liouville", "largest", table)
    k, l = next((k, l) for k, l in report.pairs if k % 4 == 0)
    move = {"kind": "cut", "factor": 4, "detached": 2, "remaining": 2}
    mutant = replace(report, move_log={**report.move_log, k: move})
    assert validation_errors(mutant, table) == [f"move log for {k} does not reach {l}: {move}"]
