"""Independent brute-force oracles used by the tests.

Everything here works on explicit tree/forest objects (or plain integer
arithmetic) so that the rank-recursion implementations are checked against a
second, structurally different computation path.
"""

import contextlib
import json
from itertools import chain
from math import isqrt

import numpy as np

from matula import Forest, Tree, algebra, arborify, bijection, is_squarefree, number_of, print_forest
from matula import partner_moves, summatory
from matula.pairing import MODES, PairingReport, _replay_move, _signs, default_table, sign_of

# The module-global memo tables of ``matula.bijection``.  A cached value
# skips the calls that computed it, so a test that wraps functions to see
# which ones run starts from empty memos.
BIJECTION_MEMOS = (
    "_tree_of_prime",
    "_number_of_tree",
    "_vaf_of_prime",
    "_vertex_level_cache",
    "_level_primes",
    "_key_of_prime",
)


@contextlib.contextmanager
def fresh_memos():
    """Run the body with empty bijection memos and an empty cuts cache, then
    put the old ones back."""
    memos = [(bijection, name) for name in BIJECTION_MEMOS] + [(algebra, "_cuts_cache")]
    saved = [(module, name, getattr(module, name)) for module, name in memos]
    for module, name in memos:
        setattr(module, name, {})
    try:
        yield
    finally:
        for module, name, memo in saved:
            setattr(module, name, memo)


def table_rows(lo: int, hi: int, table) -> list[str]:
    """Table lines one forest at a time, as ``table`` printed them through trees."""
    return [f"{n}\t{print_forest(arborify(n, table))}\n" for n in range(lo, hi + 1)]


def trial_factor_count(k: int) -> int:
    """Prime factors with multiplicity, by plain trial division."""
    count = 0
    d = 2
    while d * d <= k:
        while k % d == 0:
            k //= d
            count += 1
        d += 1
    return count + (1 if k > 1 else 0)


def trial_squarefree(k: int) -> bool:
    d = 2
    while d * d <= k:
        if k % (d * d) == 0:
            return False
        d += 1
    return True


def mobius_brute(k: int) -> int:
    if not trial_squarefree(k):
        return 0
    return -1 if trial_factor_count(k) % 2 else 1


def liouville_brute(k: int) -> int:
    return -1 if trial_factor_count(k) % 2 else 1


def tree_cuts(tr: Tree) -> list[tuple[Tree, Tree]]:
    """All (detached, remaining) pairs from cutting one edge of a tree."""
    out = []
    kids = tr.children
    for i, child in enumerate(kids):
        rest = kids[:i] + kids[i + 1 :]
        out.append((child, Tree(rest)))
        for detached, kept in tree_cuts(child):
            out.append((detached, Tree(rest + (kept,))))
    return out


def forest_cut_pairs(q: int, table) -> set[tuple[int, int]]:
    """Cut pairs of a prime, via explicit edge removal on its tree."""
    (tree,) = arborify(q, table).trees
    return {
        (number_of(d, table), number_of(r, table)) for d, r in tree_cuts(tree)
    }


def forest_partners(k: int, mode: str, table) -> set[int]:
    """Partners of k reachable by one edge-detachment or one root-fusion,
    enumerated on the actual forest of k."""
    trees = arborify(k, table).trees
    out: set[int] = set()
    for i, tr in enumerate(trees):
        rest = trees[:i] + trees[i + 1 :]
        for detached, kept in tree_cuts(tr):
            out.add(number_of(Forest(rest + (detached, kept)), table))
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            rest = tuple(t for idx, t in enumerate(trees) if idx not in (i, j))
            fused = Tree(trees[i].children + trees[j].children)
            out.add(number_of(Forest(rest + (fused,)), table))
    out = {l for l in out if l < k}
    if mode == "mobius":
        out = {l for l in out if is_squarefree(l, table)}
    return out


def primes_below(n: int) -> list[int]:
    """Plain list-based sieve, independent of the package's numpy one."""
    if n < 2:
        return []
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            for m in range(p * p, n + 1, p):
                flags[m] = False
    return [i for i, ok in enumerate(flags) if ok]


def leaf_counts_reference(bound: int) -> list[int]:
    """Leaf count of the forest of each k in 0..bound (0 for 0 and 1) by the
    recurrence alone: f(p_n) = max(f(n), 1) for the n-th prime and f(ab) =
    f(a) + f(b), over a plain list sieve of smallest factors."""
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for m in range(p * p, bound + 1, p):
                if spf[m] == m:
                    spf[m] = p
    f = [0] * (bound + 1)
    rank = 0
    for k in range(2, bound + 1):
        if spf[k] == k:
            rank += 1
            f[k] = max(f[rank], 1)
        else:
            f[k] = f[spf[k]] + f[k // spf[k]]
    return f


def distinct_factors_reference(rest: np.ndarray, powers: list):
    """(row, prime, square) of a ``PrimeTable.factor_blocks`` block, one
    prime power at a time: every distinct prime factor of every row, sorted
    by row and then by prime, square marking the primes whose square divides
    the row."""
    rows, primes, squares = [], [], []
    for p, e, hit in powers:
        if e == 1:
            row = np.arange(hit.start, len(rest), hit.step)
            square = np.zeros(len(row), dtype=bool)
            rows.append(row)
            primes.append(np.full(len(row), p, dtype=np.int64))
            squares.append(square)
            first = hit.start
        elif e == 2:  # the multiples of p**2 among the multiples of p above
            square[(np.arange(hit.start, len(rest), hit.step) - first) // p] = True
    big = np.flatnonzero(rest > 1)  # the one prime above sqrt(end), the largest
    rows.append(big)
    primes.append(rest[big])
    squares.append(np.zeros(len(big), dtype=bool))
    row = np.concatenate(rows)
    order = np.argsort(row, kind="stable")  # the primes came ascending
    return row[order], np.concatenate(primes)[order], np.concatenate(squares)[order]


def validation_errors_reference(report: PairingReport, table=None) -> list[str]:
    """``pairing.validation_errors`` as a per-member loop over Python sets,
    with each pair's signs recomputed by ``sign_of``; the array passes of the
    package must return the same messages in the same order."""
    table = table or default_table()
    errs: list[str] = []
    if report.mode not in MODES:
        return [f"unknown mode {report.mode!r}"]
    n, mode = report.n, report.mode
    if n < 1:
        return [f"N must be at least 1, got {n}"]

    signs = _signs(n, mode, table)
    seen: set[int] = set()
    for k, l in report.pairs:
        for m in (k, l):
            if not (1 <= m <= n):
                errs.append(f"pair member {m} outside 1..{n}")
            elif m in seen:
                errs.append(f"{m} appears more than once")
            seen.add(m)
        if not l < k:
            errs.append(f"pair ({k}, {l}) is not descending")
        # signs recomputed by factorization, independently of the sieve
        inside = 1 <= min(k, l) and max(k, l) <= n
        if inside and sign_of(k, mode, table) + sign_of(l, mode, table) != 0:
            errs.append(f"pair ({k}, {l}) signs do not cancel")
    for m in report.singletons:
        if not (1 <= m <= n):
            errs.append(f"singleton {m} outside 1..{n}")
        elif m in seen:
            errs.append(f"{m} appears both paired and as a singleton")
        seen.add(m)

    universe = set(np.flatnonzero(signs).tolist())
    missing = universe - seen
    alien = seen - universe
    if missing:
        errs.append(f"universe members unaccounted for: {sorted(missing)[:10]}")
    if alien:
        errs.append(f"members outside the pairable universe: {sorted(alien)[:10]}")

    bound = abs(int(signs[[m for m in report.singletons if 1 <= m <= n]].sum()))
    if report.bound != bound:
        errs.append(f"bound {report.bound} != recomputed {bound}")
    exact = int(signs.sum())
    if report.exact != exact:
        errs.append(f"exact {report.exact} != recomputed {exact}")
    if abs(exact) > bound:
        errs.append(f"|summatory| {abs(exact)} exceeds bound {bound}")

    for k, l in report.pairs:
        mv = report.move_log.get(k)
        if mv is None:
            continue
        if _replay_move(k, mv, table) != l:
            errs.append(f"move log for {k} does not reach {l}: {mv}")
    return errs


def pair_range_reference(n: int, mode: str, policy: str, table) -> PairingReport:
    """``pairing.pair_range`` as a greedy from n down to 2 over the public
    ``partner_moves``, with signs by trial division: each k still free takes
    the largest, the smallest or the first free partner l by ``policy`` (ties
    in generation order), and a free k raises what ``partner_moves`` raises.
    The sign sieve of 1..n comes first and refuses where ``summatory`` does."""
    if isqrt(n) > table.cap:
        summatory(n, mode, table)  # raises CapExceeded before sieving
    sign = mobius_brute if mode == "mobius" else liouville_brute
    signs = [0] + [sign(k) for k in range(1, n + 1)]
    free = [s != 0 for s in signs]
    pairs, move_log = [], {}
    for k in range(n, 1, -1):
        if not free[k]:
            continue
        moves = [(l, mv) for l, mv in partner_moves(k, mode, table) if free[l]]
        if not moves:
            continue
        if policy == "first":
            l, mv = moves[0]
        else:
            l, mv = (max if policy == "largest" else min)(moves, key=lambda move: move[0])
        free[k] = free[l] = False
        pairs.append((k, l))
        move_log[k] = mv
    singletons = [k for k in range(1, n + 1) if free[k]]
    bound = abs(sum(signs[k] for k in singletons))
    return PairingReport(n, mode, policy, pairs, singletons, bound, sum(signs), move_log)


def report_json_reference(report: PairingReport, with_moves: bool = True) -> str:
    """``PairingReport.to_json`` as it was: one ``json.dumps`` of the whole
    document built from the report's list fields."""
    doc = {
        "N": report.n,
        "mode": report.mode,
        "policy": report.policy,
        "pairs": [list(p) for p in report.pairs],
        "singletons": report.singletons,
        "bound": report.bound,
        "exact": report.exact,
    }
    if with_moves and report.move_log:
        doc["move_log"] = {str(k): mv for k, mv in report.move_log.items()}
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def load_pairs_reference(text: str) -> list[tuple[int, int]]:
    """``pairing.load_pairs`` as it was: the whole text split into a list per
    line, then converted with ``int``."""
    lines = text.splitlines()
    rows = list(map(str.split, [line.split("#", 1)[0] for line in lines] if "#" in text else lines))
    bad = len(rows)
    if not set(map(len, rows)) <= {0, 2}:
        bad = next(i for i, parts in enumerate(rows) if len(parts) not in (0, 2))
    numbers = list(map(int, chain.from_iterable(rows[:bad])))  # raises as int() does
    if bad < len(rows):
        raise ValueError(f"line {bad + 1}: expected two integers, got {lines[bad]!r}")
    return list(zip(numbers[::2], numbers[1::2]))
