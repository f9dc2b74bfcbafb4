import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    PairingReport,
    PrimeTable,
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
from matula import pairing
from oracles import forest_partners, liouville_brute, mobius_brute, validation_errors_reference

FIXTURE = (Path(__file__).parent / "data" / "pairs_liouville_96.txt").read_text()


def test_sign_examples(table):
    assert mobius(1, table) == 1
    assert mobius(12, table) == 0
    assert mobius(30, table) == -1
    assert liouville(1, table) == 1
    assert liouville(8, table) == -1
    # 96 = 2^5 * 3 has six factors, so its sign is +1
    assert factor_count(96, table) == 6
    assert liouville(96, table) == 1


def test_signs_match_brute_force(table):
    for k in range(1, 3_000):
        assert mobius(k, table) == mobius_brute(k)
        assert liouville(k, table) == liouville_brute(k)


def test_summatory_examples(table):
    assert summatory(1, "mobius", table) == 1
    assert summatory(1, "liouville", table) == 1
    assert summatory(96, "liouville", table) == 0
    assert summatory(1000, "mobius", table) == sum(
        mobius_brute(k) for k in range(1, 1001)
    )


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 3_000),
        (pairing._SIGN_BLOCK - 300, pairing._SIGN_BLOCK + 300),
        (2**20 - 300, 2**20 + 300),
    ],
)
def test_sign_blocks_match_brute_force(table, lo, hi):
    for mode, brute in (("mobius", mobius_brute), ("liouville", liouville_brute)):
        blocks = list(pairing._sign_blocks(lo, hi, mode, table))
        if lo > 1:  # the window straddles a block boundary
            assert len(blocks) == 2
        signs = np.concatenate(blocks)
        assert signs.dtype == np.int8
        assert signs.tolist() == [brute(k) for k in range(lo, hi + 1)], mode


def test_summatory_published_values(table):
    # Mertens M(10^6) and the Liouville sum L(10^6)
    assert summatory(10**6, "mobius", table) == 212
    assert summatory(10**6, "liouville", table) == -530


def test_sums_and_fixture_reports_do_not_factorize(monkeypatch):
    t = PrimeTable()

    def no_factorize(k):
        raise AssertionError(f"factorize({k}) called")

    monkeypatch.setattr(t, "factorize", no_factorize)
    assert summatory(96, "liouville", t) == 0
    report = report_from_pairs(96, "liouville", load_pairs(FIXTURE), table=t)
    assert (report.singletons, report.bound, report.exact) == ([], 0, 0)
    report = report_from_pairs(30, "mobius", [(30, 29)], table=t)
    assert report.exact == summatory(30, "mobius", t)


def test_report_from_pairs_rejects_empty_range(table):
    with pytest.raises(ValueError):
        report_from_pairs(0, "liouville", [], table=table)


member = st.one_of(
    st.integers(min_value=-50, max_value=250),
    st.integers(min_value=-(10**30), max_value=10**30),
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    mode=st.sampled_from(["mobius", "liouville"]),
    pairs=st.lists(st.tuples(member, member), max_size=12),
)
def test_fixture_reports_of_arbitrary_pairs_never_raise(table, n, mode, pairs):
    report = report_from_pairs(n, mode, pairs, table=table)
    errors = validation_errors(report, table)
    for k, l in pairs:
        for m in (k, l):
            if not 1 <= m <= n:
                assert f"pair member {m} outside 1..{n}" in errors


def test_summatory_rejects_bad_mode(table):
    with pytest.raises(ValueError):
        summatory(10, "merten", table)


def test_partner_candidate_examples(table):
    assert 3 in partner_candidates(6, "mobius", table)
    assert partner_candidates(35, "mobius", table) == [30]
    assert partner_candidates(2, "mobius", table) == []
    assert partner_candidates(2, "liouville", table) == []


def test_partner_preconditions(table):
    with pytest.raises(ValueError):
        partner_moves(1, "liouville", table)
    with pytest.raises(ValueError):
        partner_moves(12, "mobius", table)  # not squarefree


def test_partners_match_forest_enumeration(table):
    for k in range(2, 101):
        assert set(partner_candidates(k, "liouville", table)) == forest_partners(
            k, "liouville", table
        ), k
        if is_squarefree(k, table):
            assert set(partner_candidates(k, "mobius", table)) == forest_partners(
                k, "mobius", table
            ), k


def test_moves_flip_the_sign(table):
    for k in range(2, 400):
        for mode in ("mobius", "liouville"):
            if mode == "mobius" and not is_squarefree(k, table):
                continue
            for l, _move in partner_moves(k, mode, table):
                assert abs(factor_count(l, table) - factor_count(k, table)) == 1
                assert liouville(l, table) == -liouville(k, table)
                if mode == "mobius":
                    assert mobius(l, table) == -mobius(k, table) != 0


def test_self_fusion_needs_square(table):
    # 9 = 3*3 can fuse its two equal trees into prime #4 = 7
    assert 7 in partner_candidates(9, "liouville", table)
    moves = dict()
    for l, mv in partner_moves(9, "liouville", table):
        moves[l] = mv
    assert moves[7] == {"kind": "fusion", "left": 3, "right": 3}


def test_sieve_filter_matches_factorization_filter(table):
    # pair_range keeps a candidate by its sieve sign, partner_moves by
    # factorizing it: both must give the same moves in the same order
    for mode in ("mobius", "liouville"):
        free = bytearray((pairing._signs(3_000, mode, table) != 0).tobytes())
        for k in range(2, 3_001):
            if not free[k]:
                continue
            sieved = [
                (l, pairing._move_dict(x, y, z))
                for l, x, y, z in pairing._moves(k, table.factorize(k), table)
                if free[l]
            ]
            assert sieved == partner_moves(k, mode, table), (mode, k)
        for policy in ("largest", "smallest", "first"):
            report = pair_range(2_000, mode, policy, table)
            alone = set(report.singletons)
            for k in alone - {1}:
                partners = {l for l, _ in partner_moves(k, mode, table)}
                assert not partners & alone, (mode, policy, k)


def test_pair_range_factorizes_each_k_once_without_squarefree_tests(monkeypatch):
    # uncapped, the block search reads factors from factor_blocks and cuts
    # from its own table: no factorize, square-free test or cut list per k
    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name}{args} called")

        return call

    t = PrimeTable()
    monkeypatch.setattr(t, "factorize", forbidden("factorize"))
    monkeypatch.setattr(pairing, "is_squarefree", forbidden("is_squarefree"))
    monkeypatch.setattr(pairing, "_ordered_cuts", forbidden("_ordered_cuts"))
    uncapped = {}
    for mode in ("mobius", "liouville"):
        for policy in ("largest", "smallest", "first"):
            uncapped[mode, policy] = pair_range(3_000, mode, policy, t)
            assert uncapped[mode, policy].pairs
    monkeypatch.undo()

    # under a cap below n, no move of a k <= 3000 needs a prime past 2999:
    # the block search pairs every k, with no factorize or cut list either
    t = PrimeTable(cap=2_999)
    monkeypatch.setattr(t, "factorize", forbidden("factorize"))
    monkeypatch.setattr(pairing, "is_squarefree", forbidden("is_squarefree"))
    monkeypatch.setattr(pairing, "_ordered_cuts", forbidden("_ordered_cuts"))
    for (mode, policy), report in uncapped.items():
        assert pair_range(3_000, mode, policy, t) == report, (mode, policy)


def test_pair_range_trivial(table):
    for mode in ("mobius", "liouville"):
        report = pair_range(1, mode, "largest", table)
        assert report.pairs == []
        assert report.singletons == [1]
        assert report.bound == 1
        assert report.exact == 1
        assert validate_report(report, table)


def test_pair_range_96_liouville(table):
    report = pair_range(96, "liouville", "largest", table)
    assert validate_report(report, table)
    assert report.exact == 0
    assert report.bound >= abs(report.exact)


def test_pair_range_1000_mobius_all_policies(table):
    for policy in ("largest", "smallest", "first"):
        report = pair_range(1000, "mobius", policy, table)
        assert validate_report(report, table), validation_errors(report, table)
        assert report.bound >= abs(report.exact)
        assert report.exact == summatory(1000, "mobius", table)


def test_pair_range_is_deterministic(table):
    a = pair_range(500, "liouville", "largest", table)
    b = pair_range(500, "liouville", "largest", table)
    assert a == b
    assert a.to_json() == b.to_json()


def test_pair_range_universe_partition(table):
    report = pair_range(200, "mobius", "largest", table)
    members = {m for pair in report.pairs for m in pair} | set(report.singletons)
    assert members == {m for m in range(1, 201) if is_squarefree(m, table)}
    report = pair_range(200, "liouville", "smallest", table)
    members = {m for pair in report.pairs for m in pair} | set(report.singletons)
    assert members == set(range(1, 201))


def test_bound_dominates_summatory_sweep(table):
    for mode in ("mobius", "liouville"):
        exact = 0
        signs = {
            "mobius": lambda k: mobius(k, table),
            "liouville": lambda k: liouville(k, table),
        }[mode]
        reports = {n: pair_range(n, mode, "largest", table) for n in range(1, 301)}
        for n in range(1, 301):
            exact += signs(n)
            assert reports[n].exact == exact
            assert abs(exact) <= reports[n].bound, (mode, n)


def test_bound_dominates_summatory_to_2000_strided(table):
    for mode in ("mobius", "liouville"):
        for n in list(range(350, 2_001, 150)) + [2_000]:
            report = pair_range(n, mode, "largest", table)
            assert abs(report.exact) <= report.bound, (mode, n)
            assert validate_report(report, table)


def test_move_log_replays(table):
    report = pair_range(300, "liouville", "first", table)
    assert set(report.move_log) == {k for k, _ in report.pairs}
    assert validate_report(report, table)


def test_validation_catches_duplicates(table):
    report = report_from_pairs(10, "liouville", [(10, 5), (9, 5)], table=table)
    errors = validation_errors(report, table)
    assert any("more than once" in e for e in errors)
    assert not validate_report(report, table)


def test_validation_catches_sign_violation(table):
    # 5 and 3 are both sign -1 under liouville
    report = report_from_pairs(10, "liouville", [(5, 3)], table=table)
    assert any("signs do not cancel" in e for e in validation_errors(report, table))


def test_validation_catches_orientation(table):
    report = report_from_pairs(10, "liouville", [(5, 6)], table=table)
    assert any("not descending" in e for e in validation_errors(report, table))


def test_validation_catches_alien_and_missing(table):
    report = report_from_pairs(10, "mobius", [(10, 9)], table=table)
    # 9 is not squarefree: alien member; the rest of the universe is fine
    assert any("outside the pairable universe" in e for e in validation_errors(report, table))
    report = PairingReport(
        n=4, mode="liouville", policy="fixture",
        pairs=[(4, 3)], singletons=[1], bound=1, exact=summatory(4, "liouville", table),
    )
    assert any("unaccounted" in e for e in validation_errors(report, table))


def test_validation_catches_wrong_bound_and_move(table):
    good = pair_range(50, "liouville", "largest", table)
    tampered = PairingReport(
        n=good.n, mode=good.mode, policy=good.policy, pairs=good.pairs,
        singletons=good.singletons, bound=good.bound + 2, exact=good.exact,
        move_log=good.move_log,
    )
    assert any("bound" in e for e in validation_errors(tampered, table))
    bad_move = dict(good.move_log)
    k = good.pairs[0][0]
    bad_move[k] = {"kind": "fusion", "left": 2, "right": 2}
    tampered = PairingReport(
        n=good.n, mode=good.mode, policy=good.policy, pairs=good.pairs,
        singletons=good.singletons, bound=good.bound, exact=good.exact,
        move_log=bad_move,
    )
    assert any("move log" in e for e in validation_errors(tampered, table))


# One mutation per check of ``validation_errors`` and ``_replay_move`` that
# the tests above leave unreached: each takes a valid report of 1..300 and returns the
# mutant with the message that must appear.


def _logged(report, kind, replacement):
    """The mutant whose first move of this kind becomes replacement(move, k),
    and the move-log error it must get."""
    k, l = next((k, l) for k, l in report.pairs if report.move_log[k]["kind"] == kind)
    move = replacement(dict(report.move_log[k]), k)
    mutant = replace(report, move_log={**report.move_log, k: move})
    return mutant, f"move log for {k} does not reach {l}: {move}"


def _foreign_factor(move, k):
    return {**move, "factor": next(q for q in (3, 5, 7) if k % q)}


VALIDATION_MUTATIONS = {
    "unknown mode": lambda r: (replace(r, mode="euler"), "unknown mode 'euler'"),
    "singleton outside 1..N": lambda r: (
        replace(r, singletons=r.singletons + [r.n + 1]),
        f"singleton {r.n + 1} outside 1..{r.n}",
    ),
    "paired and a singleton": lambda r: (
        replace(r, singletons=r.singletons + [r.pairs[0][0]]),
        f"{r.pairs[0][0]} appears both paired and as a singleton",
    ),
    "wrong exact": lambda r: (
        replace(r, exact=r.exact + 1),
        f"exact {r.exact + 1} != recomputed {r.exact}",
    ),
    "cut of a factor below 3": lambda r: _logged(r, "cut", lambda mv, k: {**mv, "factor": 2}),
    "cut of a factor not dividing k": lambda r: _logged(r, "cut", _foreign_factor),
    "cut pair not a cut of its factor": lambda r: _logged(
        r, "cut", lambda mv, k: {**mv, "detached": mv["factor"]}
    ),
    "fusion not dividing k": lambda r: _logged(
        r, "fusion", lambda mv, k: {**mv, "left": next(q for q in (3, 5, 7) if k % q)}
    ),
    "malformed move": lambda r: _logged(r, "cut", lambda mv, k: {"kind": "cut"}),
    "unknown move kind": lambda r: _logged(r, "cut", lambda mv, k: {**mv, "kind": "graft"}),
}


@pytest.mark.parametrize("mode", ["liouville", "mobius"])
@pytest.mark.parametrize("mutation", list(VALIDATION_MUTATIONS))
def test_every_validation_check_can_fail(table, mode, mutation):
    report = pair_range(300, mode, "largest", table)
    assert validation_errors(report, table) == []
    mutant, message = VALIDATION_MUTATIONS[mutation](report)
    assert message in validation_errors(mutant, table)


@pytest.mark.parametrize("mode", ["liouville", "mobius"])
@pytest.mark.parametrize("mutation", list(VALIDATION_MUTATIONS))
def test_every_mutant_gets_the_per_member_loops_messages(table, mode, mutation):
    mutant, _ = VALIDATION_MUTATIONS[mutation](pair_range(300, mode, "largest", table))
    assert validation_errors(mutant, table) == validation_errors_reference(mutant, table)


@pytest.mark.parametrize("n", [0, -5])
def test_a_report_of_n_below_1_gets_one_error_before_any_sieve(monkeypatch, table, n):
    # N < 1 leaves nothing to check: one error naming N, and no sign sieve of 0..N
    def no_sieve(*args):
        raise AssertionError(f"_signs{args} called")

    monkeypatch.setattr(pairing, "_signs", no_sieve)
    report = PairingReport(n, "liouville", "fixture", [], [], 0, 0)
    expected = [f"N must be at least 1, got {n}"]
    assert validation_errors(report, table) == expected
    assert validation_errors_reference(report, table) == expected


def test_fixture_pairing_of_96_is_valid(table):
    pairs = load_pairs(FIXTURE)
    assert len(pairs) == 48
    report = report_from_pairs(96, "liouville", pairs, table=table)
    assert validate_report(report, table), validation_errors(report, table)
    assert report.singletons == []
    assert report.bound == 0
    assert report.exact == 0


def test_fixture_loader_rejects_garbage():
    with pytest.raises(ValueError):
        load_pairs("3 2 1\n")
    assert load_pairs("# only a comment\n\n") == []


def test_report_json_round(table):
    report = pair_range(30, "mobius", "largest", table)
    doc = json.loads(report.to_json())
    assert doc["N"] == 30
    assert doc["mode"] == "mobius"
    assert doc["bound"] == report.bound
    assert ["move_log" in doc] == [bool(report.move_log)]
    slim = json.loads(report.to_json(with_moves=False))
    assert "move_log" not in slim
