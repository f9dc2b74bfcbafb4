"""A memo hit answers what a fresh table answers, under any cap.

The memo tables of ``matula.bijection`` and ``matula.algebra`` are
module-global, so one process keeps what an earlier command computed.  Each
command here runs in a process warmed by the same command without a cap, and
under emptied memos, and must print the same bytes and exit the same way.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import CapExceeded, PrimeTable, stats_of
from matula.cli import _SCANS, main
from oracles import fresh_memos, primes_below


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _warm_and_fresh(cap: int, argv: list[str]) -> tuple[tuple, tuple]:
    """The capped run after the uncapped one, and the capped run from empty memos."""
    capped = ["--cap", str(cap), *argv]
    with fresh_memos():
        _run(argv)
        warm = _run(capped)
    with fresh_memos():
        fresh = _run(capped)
    return warm, fresh


@pytest.mark.parametrize(
    "cap, argv",
    [
        (100, ["arborify", "199"]),
        (100, ["stats", "101"]),
        (100, ["table", "--from", "199", "--to", "199"]),
        (100, ["cuts", "199"]),
        (50, ["number-of", "[[][][][]]"]),
        (1000, ["table", "--from", "995", "--to", "1012"]),
        (5000, ["table", "--from", "4000", "--to", "9000"]),
    ],
)
def test_a_memo_hit_respects_the_cap(cap, argv):
    warm, fresh = _warm_and_fresh(cap, argv)
    assert fresh[0] == 4
    assert warm == fresh


def test_stats_of_respects_the_cap_on_a_memo_hit():
    # ``stats`` on the command line also walks the forest, which checks the cap
    with fresh_memos():
        stats_of(101)
        with pytest.raises(CapExceeded):
            stats_of(101, PrimeTable(cap=100))


_PRIMES = primes_below(3000)


def _ints(lo: int, hi: int):
    """Integers in lo..hi; half the draws are primes, which the prime-only commands need."""
    return st.one_of(st.integers(lo, hi), st.sampled_from([p for p in _PRIMES if lo <= p <= hi]))


_MODE = st.sampled_from([[], ["--mode", "mobius"]])
_ARGV = st.one_of(
    st.tuples(st.sampled_from(["arborify", "stats"]), _ints(-3, 3000)).map(lambda t: [t[0], str(t[1])]),
    st.tuples(_ints(-3, 3000), st.booleans()).map(
        lambda t: ["cuts", str(t[0])] + ["--trace"] * t[1]
    ),
    st.tuples(st.sampled_from(["fuse", "butcher"]), _ints(-3, 3000), _ints(-3, 3000)).map(
        lambda t: [t[0], str(t[1]), str(t[2])]
    ),
    st.tuples(_ints(-3, 3000), _MODE).map(lambda t: ["partners", str(t[0]), *t[1]]),
    st.tuples(_ints(-3, 3000), _MODE).map(lambda t: ["summatory", str(t[0]), *t[1]]),
    st.tuples(_ints(-3, 2000), _MODE).map(lambda t: ["pair", str(t[0]), *t[1]]),
    st.tuples(_ints(-3, 3000), st.integers(-3, 299)).map(
        lambda t: ["table", "--from", str(t[0]), "--to", str(t[0] + t[1])]
    ),
    st.tuples(st.integers(-3, 6), _ints(-3, 3000)).map(
        lambda t: ["leaf-class", str(t[0]), "--max", str(t[1])]
    ),
    _ints(-3, 12).map(lambda m: ["degree-list", str(m)]),
    st.tuples(_ints(-3, 30), _ints(-3, 30)).map(lambda t: ["ratio-table", str(t[0]), str(t[1])]),
    st.tuples(st.sampled_from(sorted(_SCANS)), st.integers(-3, 40)).map(
        lambda t: ["scan", t[0], "--max", str(t[1])]
    ),
)


@settings(max_examples=250, deadline=None)
@given(cap=st.integers(1, 5000), argv=_ARGV)
def test_every_subcommand_answers_warm_as_fresh(cap, argv):
    warm, fresh = _warm_and_fresh(cap, argv)
    assert warm[0] in (0, 3, 4)
    assert warm == fresh
