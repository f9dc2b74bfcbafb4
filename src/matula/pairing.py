"""Mobius/Liouville sums bounded by pairing integers of opposite sign.

Every edge cut turns one prime factor into two and every root fusion turns
two into one, so both moves flip the parity of the factor count.  Pairing
each k with a smaller partner reached by one such move cancels the two signs;
whatever stays unpaired bounds the summatory function in absolute value.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from math import isqrt
from operator import index
from typing import TextIO

import numpy as np

from .algebra import CutPair, _cut_table, _ordered_cuts, cuts, fuse
from .constants import LIOUVILLE, MOBIUS, MODES, POLICIES
from .errors import CapExceeded, SieveTooLarge
from .primes import PrimeTable, _distinct_factors, _spans, _value_dtype, default_table


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def factor_count(k: int, table: PrimeTable | None = None) -> int:
    """Number of prime factors of k with multiplicity."""
    table = table or default_table()
    return sum(e for _, e in table.factorize(k))


def is_squarefree(k: int, table: PrimeTable | None = None) -> bool:
    table = table or default_table()
    return all(e == 1 for _, e in table.factorize(k))


def mobius(k: int, table: PrimeTable | None = None) -> int:
    """0 on a square factor, else (-1)**(number of prime factors)."""
    if k < 1:
        raise ValueError(f"mobius expects k >= 1, got {k}")
    return liouville(k, table) if is_squarefree(k, table) else 0


def liouville(k: int, table: PrimeTable | None = None) -> int:
    """(-1)**(number of prime factors with multiplicity)."""
    if k < 1:
        raise ValueError(f"liouville expects k >= 1, got {k}")
    return -1 if factor_count(k, table) % 2 else 1


def sign_of(k: int, mode: str, table: PrimeTable | None = None) -> int:
    return mobius(k, table) if mode == MOBIUS else liouville(k, table)


def summatory(n: int, mode: str, table: PrimeTable | None = None) -> int:
    """Partial sum of the mode's sign function over 1..n, one sieved block at a time."""
    _check_mode(mode)
    if n < 1:
        raise ValueError(f"summatory expects n >= 1, got {n}")
    table = table or default_table()
    if isqrt(n) > table.cap:  # refuse where the block loop would, before sieving to it
        first = ((table.cap + 1) ** 2 // _SIGN_BLOCK + 1) * _SIGN_BLOCK - 1  # its block's end
        raise CapExceeded(isqrt(min(n, first)), table.cap)
    return sum(int(block.sum()) for block in _sign_blocks(1, n, mode, table))


_SIGN_BLOCK = 1 << 16  # integers per sign-sieve block; bounds its int64 work array


def _sign_blocks(lo: int, hi: int, mode: str, table: PrimeTable) -> Iterator[np.ndarray]:
    """int8 signs of lo..hi (lo >= 1), in blocks aligned to multiples of _SIGN_BLOCK.

    Each prime power of ``PrimeTable.factor_blocks`` flips its multiples' signs
    (mobius mode zeroes them from p**2 on), and a remainder above 1 flips again.
    """
    for _start, rest, powers in table.factor_blocks(lo, hi, _SIGN_BLOCK):
        signs = np.ones(len(rest), dtype=np.int8)
        for _p, e, hit in powers:
            if mode == MOBIUS and e > 1:
                signs[hit] = 0
            else:
                signs[hit] *= -1
        signs[rest > 1] *= -1
        yield signs


@lru_cache(maxsize=1)  # validating a report reuses the sieve it was built from
def _signs(n: int, mode: str, table: PrimeTable) -> np.ndarray:
    """Sign of every k in 0..n, indexed by k (0 at k = 0), read-only.

    One int8 array is allocated up front and filled block by block; an
    allocation the machine refuses, or a length past numpy's index range
    (n >= 2**63 - 1), raises ``SieveTooLarge``.
    """
    if n >= np.iinfo(np.intp).max:  # numpy would raise "Maximum allowed dimension exceeded"
        raise SieveTooLarge(n, n + 1)
    try:
        signs = np.zeros(n + 1, dtype=np.int8)
    except MemoryError:
        raise SieveTooLarge(n, n + 1) from None
    lo = 1
    for block in _sign_blocks(1, n, mode, table):
        signs[lo : lo + len(block)] = block
        lo += len(block)
    signs.flags.writeable = False
    return signs


# -- partner moves -------------------------------------------------------------


def _moves(
    k: int, factors: list[tuple[int, int]], table: PrimeTable
) -> Iterator[tuple[int, int, int, int]]:
    """(l, x, y, z) for every l < k one cut or one root fusion reaches.

    ``factors`` is k's factorization; x, y, z encode the move as the columns
    of ``_block_edges`` do.  Each factor's prime rank is looked up once, so a
    fusion costs one ``nth_prime`` call, skipped when the fused prime passes
    the cap and q * r does not: then it exceeds q * r, so l > k.
    """
    for q, _e in factors:
        if q < 3:
            continue
        for s, r in _ordered_cuts(q, table):
            l = (k // q) * s * r
            if l < k:
                yield l, q, s, r
    ranks = [table.prime_rank(p) for p, _ in factors]
    for i, (q, e) in enumerate(factors):
        for j in range(i, len(factors)):
            if j == i and e < 2:
                continue
            r = factors[j][0]
            try:
                l = (k // (q * r)) * table.nth_prime(ranks[i] * ranks[j])
            except CapExceeded:
                if q * r > table.cap:
                    raise
                continue
            if l < k:
                yield l, q, r, 0


def _move_dict(x: int, y: int, z: int) -> dict:
    """The move-log entry of a move in column encoding (z = 0 for a fusion)."""
    if z:
        return {"kind": "cut", "factor": x, "detached": y, "remaining": z}
    return {"kind": "fusion", "left": x, "right": y}


def partner_moves(
    k: int, mode: str, table: PrimeTable | None = None
) -> list[tuple[int, dict]]:
    """All (l, move) with l < k reachable by one cut or one root fusion.

    Cut: pick a prime factor q >= 3 of k and an edge cut (s, r) of q; the
    factor q becomes s*r.  Fusion: pick primes q, r with q*r | k (q == r only
    if q**2 | k); the two factors merge into their fused prime.  Both flip
    the sign; in mobius mode k must be squarefree and candidates with square
    factors are dropped (by factorizing each one; ``pair_range`` reads the
    same filter from its sign sieve).  Generation order is deterministic:
    cuts first by ascending factor then ascending pair, fusions after,
    smaller factor first.
    """
    _check_mode(mode)
    if k < 2:
        raise ValueError(f"partner moves need k >= 2, got {k}")
    table = table or default_table()
    factors = table.factorize(k)
    if mode == MOBIUS and any(e > 1 for _, e in factors):
        raise ValueError(f"mobius pairing is over squarefree integers, got {k}")
    return [
        (l, _move_dict(x, y, z))
        for l, x, y, z in _moves(k, factors, table)
        if mode == LIOUVILLE or is_squarefree(l, table)
    ]


def partner_candidates(
    k: int, mode: str, table: PrimeTable | None = None
) -> list[int]:
    """De-duplicated ascending list of possible partners l < k of k."""
    return sorted({l for l, _ in partner_moves(k, mode, table)})


# -- partner edges in blocks ----------------------------------------------------

# integers per partner-search block; bounds its edge arrays.  pair_range(99956)
# traces 4.6 MB in liouville mode, 3.5 MB with blocks of 2**11 and 6.3 MB with
# 2**13; blocks of 2**11 made pair_range(10**7) 4-20 % slower, as each block
# pays for walking every base prime up to its sqrt once
_PAIR_BLOCK = 1 << 12


def _block_edges(
    lo: int,
    hi: int,
    policy: str,
    live: np.ndarray,
    primes: np.ndarray,
    cut_table: tuple[np.ndarray, np.ndarray, np.ndarray],
    table: PrimeTable,
) -> tuple[np.ndarray, np.ndarray, Callable[[list[int]], np.ndarray], np.ndarray]:
    """(k, l, moves, flagged): int32 columns k and l (int64 past 2**31) of
    every edge (k, l) of ``_moves`` with lo <= k <= hi and both ends marked
    in ``live``, in the order a greedy ``policy`` tries them; ``moves``,
    which gives the (len(rows), 3) columns x, y, z of the edges at some
    rows; and ``flagged``, the live k (ascending, with no edges) whose
    ``_moves`` raise, as ``primes`` holds the primes up to min(n, cap).

    The order is k descending, then the policy's key on l, then ``_moves``'
    generation order.  A cut of factor x into y * z has z >= 2; a fusion of
    x and y has z = 0.  Only k and l go through the ``live`` filter and the
    sort; x, y and z stay in generation order until ``moves`` reads them.
    """
    dtype = _value_dtype(hi)
    row, q, square = _distinct_factors(lo, hi, table)
    alive = live[row + lo] != 0
    k, q, square = (row[alive] + lo).astype(dtype), q[alive].astype(dtype), square[alive]
    rank = np.searchsorted(primes, q) + 1
    flagged = np.empty(0, dtype=dtype)
    if hi > table.cap:  # a factor past the primes, or a fusion past them with q * r past the cap
        a, b = _fusion_pairs(k, square)
        stuck = (rank[a] * rank[b] > len(primes)) & (q[a] * q[b] > table.cap)
        flagged = np.unique(np.concatenate([k[rank > len(primes)], k[a[stuck]]]))
        keep = ~np.isin(k, flagged)
        k, q, square, rank = k[keep], q[keep], square[keep], rank[keep]
    cuts = _cut_edges(k, q, rank, cut_table)
    fusions = _fusion_edges(k, q, square, rank, primes)
    # each candidate's factor x = q[x_at], its y and z, and its l
    x_at, y, z, edge_l = (np.concatenate(pair) for pair in zip(cuts, fusions))
    del cuts, fusions
    edge = np.flatnonzero(live[edge_l]).astype(dtype)  # the candidates kept
    edge_l = edge_l[edge]
    edge_k = k[x_at[edge]]
    order = np.argsort(_policy_key(edge_k, edge_l, lo, hi, policy), kind="stable")
    edge = edge[order]
    edge_k = edge_k[order]
    edge_l = edge_l[order]

    def moves(rows: list[int]) -> np.ndarray:
        at = edge[rows]
        return np.stack([q[x_at[at]], y[at], z[at]], axis=1)

    return edge_k, edge_l, moves, flagged


def _fusion_pairs(k: np.ndarray, square: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b): the rows of the two factors of every root fusion of sorted k."""
    at = np.arange(len(k))
    return _spans(at + 1 - square, np.searchsorted(k, k, side="right") - at - 1 + square)


def _cut_edges(
    k: np.ndarray, q: np.ndarray, rank: np.ndarray, cut_table: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """(x_at, y, z, l) of every cut that makes k smaller: the factor q[x_at]
    of k[x_at] becomes y * z, ascending by factor, then by (y, z).  A cut
    (s, r) of q shrinks k exactly when r <= (q - 1) // s, so s * r, which
    may pass every k, is formed only for the cuts kept."""
    offsets, detached, remaining = cut_table
    owner, i = _spans(offsets[rank - 1], offsets[rank] - offsets[rank - 1])
    s = detached[i].astype(q.dtype, copy=False)
    shrinks = remaining[i] <= (q[owner] - 1) // s
    owner, i, s = owner[shrinks], i[shrinks], s[shrinks]
    r = remaining[i].astype(q.dtype, copy=False)
    return owner, s, r, k[owner] // q[owner] * s * r


def _fusion_edges(
    k: np.ndarray, q: np.ndarray, square: np.ndarray, rank: np.ndarray, primes: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(x_at, y, z, l) of every root fusion that makes k smaller: factors
    x = q[x_at] <= y of k[x_at] (equal on a square) merge into the prime of
    rank rank_x * rank_y, and z = 0.  Factor x meets itself on a square, then
    each later factor of its k, so the fusions come ordered by x, then y.
    ``primes`` holds the primes up to min(n, cap) >= x * y (no k here needs
    a fusion past the cap), so a rank past it gives a prime above x * y:
    dropped unread.  x * y divides k, so it fits k's dtype; the rank
    products are int64."""
    a, b = _fusion_pairs(k, square)
    fused = rank[a] * rank[b]
    inside = fused <= len(primes)
    a, b, fused = a[inside], b[inside], primes[fused[inside] - 1]
    product = q[a] * q[b]
    shrinks = fused < product
    a, b, fused, product = a[shrinks], b[shrinks], fused[shrinks], product[shrinks]
    return a, q[b], np.zeros(len(a), dtype=k.dtype), k[a] // product * fused.astype(k.dtype)


def _policy_key(edge_k: np.ndarray, edge_l: np.ndarray, lo: int, hi: int, policy: str) -> np.ndarray:
    """The sort key of a block's edges under ``policy``, ties left in
    generation order: 0 <= l < k <= hi, so the k term (hi - k) * (hi + 1)
    outweighs any l term in 0..hi.  The key stays below (hi - lo + 1) *
    (hi + 1), and is int32 while that is below 2**31."""
    key = (hi - edge_k).astype(np.int64 if (hi - lo + 1) * (hi + 1) >= 2**31 else np.int32)
    if policy != "first":
        key *= hi + 1
        key += edge_l if policy == "smallest" else hi - edge_l
    return key


def _greedy_rows(edge_k: np.ndarray, edge_l: np.ndarray, free: bytearray) -> list[int]:
    """Rows of the edges a greedy takes, reading them in order: each k still
    marked in ``free`` takes the first edge of its run whose l is marked, and
    both ends are cleared.  Nothing is taken inside a run before its pick, so
    this is the edge-by-edge greedy with each taken k read once.  The l
    column is read through a memoryview, one entry at a time as the search
    reaches it, so no list of every l is made."""
    starts = np.flatnonzero(np.diff(edge_k, prepend=0)).tolist()  # edge_k >= 2
    ls = memoryview(edge_l)
    rows = []
    for k, a, b in zip(edge_k[starts].tolist(), starts, [*starts[1:], len(ls)]):
        if free[k]:
            for i in range(a, b):
                if free[ls[i]]:
                    free[k] = free[ls[i]] = 0
                    rows.append(i)
                    break
    return rows


# -- the pairing engine ---------------------------------------------------------

_LAZY = ("pairs", "singletons", "move_log")  # the fields a column report builds on demand
# rows (or integers of the singleton mask) per piece of JSON text: writing the
# report of pair_range(99956) peaks at 1.8 MB under tracemalloc, 5.9 MB with
# 2**14 rows a piece
_CHUNK = 1 << 12


@dataclass
class PairingReport:
    """Outcome of pairing 1..n: matched pairs, leftovers, and the sign bound.

    pairs hold (k, l) with l < k and opposite signs; singletons are the
    unpaired members of the pairable universe (1 is always among them) and
    bound is the absolute signed count of the singletons, an upper bound for
    the summatory function's absolute value at n.

    ``pair_range`` and ``report_from_pairs`` make reports that keep their
    pairs as rows and their singletons as a mask: int32 rows from
    ``pair_range`` (int64 from n = 2**31 on), int64 rows from
    ``report_from_pairs`` (an object array of Python ints when a supplied
    member is past int64).  ``pairs``, ``singletons`` and ``move_log`` are
    built from these when first read and kept from then on.  Until one of
    them is built, ``to_json``, ``write_json``, ``counts`` and
    ``validation_errors`` read the columns.  Only the constructor and
    ``replace()`` make a report that holds lists from the start.
    """

    n: int
    mode: str
    policy: str
    pairs: list[tuple[int, int]]
    singletons: list[int]
    bound: int
    exact: int
    move_log: dict[int, dict] = field(default_factory=dict)

    @classmethod
    def _from_columns(
        cls,
        n: int,
        mode: str,
        policy: str,
        rows: np.ndarray,
        unpaired: np.ndarray,
        signs: np.ndarray,
    ) -> PairingReport:
        """A report whose pairs are the rows of an int32 or int64 array (or
        of an object array of Python ints), k, l and, with five columns, the
        move x, y, z of ``_block_edges`` (each k in one row, as ``move_log``
        keeps one move per k); its singletons are marked in the bool
        ``unpaired`` (indexed by k, False at 0); bound and exact sum come
        from signs."""
        report = cls.__new__(cls)
        vars(report).update(
            n=n,
            mode=mode,
            policy=policy,
            bound=abs(int(signs[unpaired].sum())),
            exact=int(signs.sum()),
            _columns=(rows, unpaired),
        )
        return report

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: build a field of
        # a column report
        columns = vars(self).get("_columns")
        if columns is None or name not in _LAZY:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, unpaired = columns
        if name == "pairs":
            value = list(zip(rows[:, 0].tolist(), rows[:, 1].tolist()))
        elif name == "singletons":
            value = np.flatnonzero(unpaired).tolist()
        else:
            value = {k: mv for k, _, mv in _row_moves(rows)}
        setattr(self, name, value)
        return value

    def _column_view(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(rows, unpaired) while none of the lazy fields is built, else None."""
        fields = vars(self)
        if any(name in fields for name in _LAZY):
            return None
        return fields.get("_columns")

    def counts(self) -> tuple[int, int]:
        """(number of pairs, number of singletons), without building either list."""
        columns = self._column_view()
        if columns is None:
            return len(self.pairs), len(self.singletons)
        rows, unpaired = columns
        return len(rows), int(np.count_nonzero(unpaired))

    def to_json(self, with_moves: bool = True) -> str:
        """``json.dumps(doc, sort_keys=True, separators=(", ", ": "))`` of the
        report, with the move log's keys written as ``str(k)``."""
        columns = self._column_view()
        if columns is not None:
            return "".join(_column_json(self, *columns, with_moves))
        doc = {"N": self.n, "bound": self.bound, "exact": self.exact, "mode": self.mode}
        doc.update(pairs=self.pairs, policy=self.policy, singletons=self.singletons)
        if with_moves and self.move_log:
            doc["move_log"] = {str(k): mv for k, mv in self.move_log.items()}
        return _dumps(doc)

    def write_json(self, out: TextIO, with_moves: bool = True) -> None:
        """Write ``to_json()``'s text to ``out``; a column report writes it
        in pieces of ``_CHUNK`` rows and never holds all of it."""
        columns = self._column_view()
        if columns is None:
            out.write(self.to_json(with_moves))
        else:
            out.writelines(_column_json(self, *columns, with_moves))


_dumps = partial(json.dumps, sort_keys=True, separators=(", ", ": "))  # the report's JSON form


# A move-log entry's text, keyed by k and filled with (k, y, x, z) for a cut
# and (k, x, y) for a fusion: ``_move_dict``'s keys in sorted order.
_FUSION_JSON = '"%d": {"kind": "fusion", "left": %d, "right": %d}'
_CUT_JSON = '"%d": {"detached": %d, "factor": %d, "kind": "cut", "remaining": %d}'


def _row_moves(rows: np.ndarray) -> Iterator[tuple[int, int, dict]]:
    """(k, l, move-log entry) of each row of a five-column array, in row
    order; nothing for a two-column one."""
    if rows.shape[1] < 5:
        return
    for start in range(0, len(rows), _CHUNK):
        for k, l, x, y, z in rows[start : start + _CHUNK].tolist():
            yield k, l, _move_dict(x, y, z)


def _decimal_order(keys: np.ndarray) -> np.ndarray:
    """Indices that put positive int64 keys in the order of their decimal
    strings: by the digits padded with zeros to a common length, then by
    length (a key whose digits are a prefix of another's comes first).
    Keys below 10**9 pad to 9 digits in uint32, larger ones to 19 in uint64
    (below 10**19 < 2**64); the digit counts are uint8."""
    narrow = keys.max(initial=0) < 10**9
    powers = 10 ** np.arange(9 if narrow else 19, dtype=np.uint32 if narrow else np.uint64)
    keys = keys.astype(powers.dtype)
    digits = np.ones(len(keys), dtype=np.uint8)
    for power in powers[1:]:
        digits += keys >= power
    keys *= powers[digits.max(initial=1) - digits]
    return np.lexsort((digits, keys))


def _joined(pieces: Iterator[str]) -> Iterator[str]:
    """The non-empty pieces, each after the first led by ', '."""
    sep = ""
    for piece in pieces:
        if piece:
            yield sep + piece
            sep = ", "


def _move_log_json(rows: np.ndarray) -> str:
    """The move-log entries of five-column rows, in row order, filled by one
    ``%`` from a flat list of each row's values."""
    k, _, x, y, z = rows.T
    cut = z != 0
    values = np.stack([k, np.where(cut, y, x), np.where(cut, x, y), z], axis=1)
    keep = np.ones(values.shape, dtype=bool)
    keep[:, 3] = cut
    templates = ", ".join([_CUT_JSON if c else _FUSION_JSON for c in cut.tolist()])
    return templates % tuple(values[keep].tolist())


def _column_json(
    report: PairingReport, rows: np.ndarray, unpaired: np.ndarray, with_moves: bool
) -> Iterator[str]:
    """``to_json()``'s text of a column report, in pieces of ``_CHUNK`` rows."""
    doc = {"N": report.n, "bound": report.bound, "exact": report.exact, "mode": report.mode}
    yield _dumps(doc)[:-1]  # without the closing brace
    if with_moves and rows.shape[1] == 5 and len(rows):
        yield ', "move_log": {'
        order = _decimal_order(rows[:, 0])
        yield from _joined(
            _move_log_json(rows[order[start : start + _CHUNK]])
            for start in range(0, len(rows), _CHUNK)
        )
        yield "}"
    yield ', "pairs": ['
    yield from _joined(
        ", ".join(["[%d, %d]"] * len(piece)) % tuple(piece.ravel().tolist())
        for piece in (rows[start : start + _CHUNK, :2] for start in range(0, len(rows), _CHUNK))
    )
    yield f'], "policy": {_dumps(report.policy)}, "singletons": ['
    yield from _joined(
        ", ".join(map(str, (np.flatnonzero(unpaired[lo : lo + _CHUNK]) + lo).tolist()))
        for lo in range(0, len(unpaired), _CHUNK)
    )
    yield "]}"


def pair_range(
    n: int,
    mode: str = LIOUVILLE,
    policy: str = "largest",
    table: PrimeTable | None = None,
) -> PairingReport:
    """Greedily pair n..2 downward with one-move partners of opposite sign.

    In mobius mode only squarefree integers take part (square-bearing ones
    contribute 0 and stay out of the report); in liouville mode everything
    does.  Candidates are ``partner_moves``' moves, tried in the policy's
    order with ties in generation order, but filtered by the sign sieve of
    1..n instead of one factorization each.  They come as arrays, one block
    of k at a time (``_block_edges``, from ``PrimeTable.factor_blocks`` and
    one table of the cuts of every prime up to min(n, cap)); each k still
    free reads its run of edges up to the first free partner
    (``_greedy_rows``), and the chosen rows k, l, x, y, z go into one array
    in the order taken, int32 when n < 2**31 (every value is at most n) and
    else int64.  A k whose moves need a prime past the cap has no edges; if
    it is free at its turn, its ``_moves`` raise.  A number whose candidates
    are all taken becomes a singleton; no backtracking is attempted.
    Deterministic for fixed (n, mode, policy).
    """
    _check_mode(mode)
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if n < 1:
        raise ValueError(f"pair_range expects n >= 1, got {n}")
    table = table or default_table()
    signs = _signs(n, mode, table)
    free = bytearray((signs != 0).tobytes())  # 1 while k has a sign and no partner
    live = np.frombuffer(free, dtype=np.bool_)  # a view: sees every take
    rows = np.empty((np.count_nonzero(live) // 2, 5), dtype=_value_dtype(n))  # a pair takes two
    m = 0  # rows taken
    primes = table.primes_up_to(min(n, table.cap))
    cut_table = _cut_table(primes, table)
    top = n  # every k above top is settled
    while top >= 2:
        lo = max(top // _PAIR_BLOCK * _PAIR_BLOCK, 2)
        edge_k, edge_l, moves, flagged = _block_edges(lo, top, policy, live, primes, cut_table, table)
        taken = _greedy_rows(edge_k, edge_l, free)
        for k in flagged[live[flagged]][::-1].tolist():  # free at their turn: raise at the largest
            list(_moves(k, table.factorize(k), table))  # raises CapExceeded
            raise AssertionError(f"{k} was flagged, but none of its moves passes the cap")
        rows[m : m + len(taken), 0] = edge_k[taken]
        rows[m : m + len(taken), 1] = edge_l[taken]
        rows[m : m + len(taken), 2:] = moves(taken)
        m += len(taken)
        top = lo - 1
        del edge_k, edge_l, moves  # before the next block's edges are built
    return PairingReport._from_columns(n, mode, policy, rows[:m], live, signs)


# -- validation ------------------------------------------------------------------


def validation_errors(
    report: PairingReport, table: PrimeTable | None = None
) -> list[str]:
    """Re-check every report invariant; empty list means the report is valid.

    Array passes over the members (those outside 1..n stay Python ints); each
    pair's signs come from ``PrimeTable.omega_parity``, not the block sieve,
    so the smallest-factor sieve grows to the largest member inside 1..n.  A
    column report's members are read from its rows and its singletons from
    its mask, which holds each once and only inside 1..n.
    """
    table = table or default_table()
    if report.mode not in MODES:
        return [f"unknown mode {report.mode!r}"]
    n, mode = report.n, report.mode
    if n < 1:
        return [f"N must be at least 1, got {n}"]
    signs = _signs(n, mode, table)
    columns = report._column_view()
    if columns is None:
        flat = [m for k, l in report.pairs for m in (k, l)]
        paired = len(flat)
        flat.extend(report.singletons)
        single = None
    else:
        rows, single = columns
        flat = rows[:, :2].reshape(-1)
        paired = len(flat)
    try:
        members = np.asarray(flat, dtype=np.int64)  # int64 rows are read in place
    except OverflowError:  # a member past int64 is outside 1..n
        members = np.array([m if 0 < m <= n else 0 for m in flat], dtype=np.int64)
    inside = (members >= 1) & (members <= n)
    values = np.zeros(len(members), dtype=_value_dtype(n))  # 0 has no sign and is never seen
    np.copyto(values, members, casting="unsafe", where=inside)
    del members
    seen = np.zeros(n + 1, dtype=bool)
    seen[values] = True
    seen[0] = False
    again = np.zeros(len(values), dtype=bool)  # an inside value met before
    if np.count_nonzero(seen) < np.count_nonzero(inside):
        again[:] = inside
        again[np.unique(values, return_index=True)[1]] = False
    flagged = ~inside | again
    both = np.repeat(inside[:paired:2] & inside[1:paired:2], 2)
    odd, square = table.omega_parity(np.where(both, values[:paired], 1))
    sign = np.where(square & (mode == MOBIUS), 0, 1 - 2 * odd.astype(np.int8))
    suspect = flagged[:paired].reshape(-1, 2).any(axis=1) | (sign[::2] + sign[1::2] != 0)
    suspect |= values[1:paired:2] >= values[:paired:2]

    errs: list[str] = []
    for i in np.flatnonzero(suspect).tolist():
        k, l = flat[2 * i], flat[2 * i + 1]
        for j, m in ((2 * i, k), (2 * i + 1, l)):
            if not inside[j]:
                errs.append(f"pair member {m} outside 1..{n}")
            elif again[j]:
                errs.append(f"{m} appears more than once")
        if not l < k:
            errs.append(f"pair ({k}, {l}) is not descending")
        if both[2 * i] and sign[2 * i] + sign[2 * i + 1] != 0:
            errs.append(f"pair ({k}, {l}) signs do not cancel")
    for j in (np.flatnonzero(flagged[paired:]) + paired).tolist():
        if not inside[j]:
            errs.append(f"singleton {flat[j]} outside 1..{n}")
        else:
            errs.append(f"{flat[j]} appears both paired and as a singleton")
    total = int(signs[values[paired:]].sum())
    if single is not None:
        again = np.flatnonzero(single & seen).tolist()
        errs.extend(f"{m} appears both paired and as a singleton" for m in again)
        seen |= single
        total += int(signs[single].sum())

    universe = signs != 0
    missing = np.flatnonzero(universe & ~seen)[:10].tolist()
    alien = np.flatnonzero(seen & ~universe)[:10].tolist()
    alien = sorted({*alien, *(int(flat[j]) for j in np.flatnonzero(~inside).tolist())})
    if missing:
        errs.append(f"universe members unaccounted for: {missing}")
    if alien:
        errs.append(f"members outside the pairable universe: {alien[:10]}")

    bound = abs(total)
    if report.bound != bound:
        errs.append(f"bound {report.bound} != recomputed {bound}")
    exact = int(signs.sum())
    if report.exact != exact:
        errs.append(f"exact {report.exact} != recomputed {exact}")
    if abs(exact) > bound:
        errs.append(f"|summatory| {abs(exact)} exceeds bound {bound}")

    if columns is None:
        moves = ((k, l, report.move_log.get(k)) for k, l in report.pairs)
    else:
        moves = _row_moves(rows)
    memo: dict[tuple, object] = {}  # one replay per distinct move
    for k, l, mv in moves:
        if mv is None:
            continue
        if _replay_move(k, mv, table, memo) != l:
            errs.append(f"move log for {k} does not reach {l}: {mv}")
    return errs


def _replay_move(
    k: int, move: dict, table: PrimeTable, memo: dict | None = None
) -> int | None:
    """The l a move-log entry takes k to; None if k cannot make that move or
    the entry is malformed, but a refusal of the table propagates.  ``memo``
    keeps what does not depend on k: whether (s, r) is a cut of q, keyed
    (q, s, r), and the fused prime of q and r, keyed (q, r)."""
    memo = {} if memo is None else memo
    try:
        if move["kind"] == "cut":
            q, s, r = move["factor"], move["detached"], move["remaining"]
            if q < 3 or k % q != 0:
                return None
            is_cut = memo.get((q, s, r))
            if is_cut is None:
                is_cut = memo[q, s, r] = CutPair(s, r) in cuts(q, table)
            return (k // q) * s * r if is_cut else None
        if move["kind"] == "fusion":
            q, r = move["left"], move["right"]
            if k % (q * r) != 0:
                return None
            fused = memo.get((q, r))
            if fused is None:
                fused = memo[q, r] = fuse(q, r, table)
            return (k // (q * r)) * fused
    except (CapExceeded, SieveTooLarge):
        raise  # the table refused: no verdict on the entry
    except Exception:
        return None
    return None


def validate_report(report: PairingReport, table: PrimeTable | None = None) -> bool:
    """True iff the report passes every invariant re-check."""
    return not validation_errors(report, table)


# -- fixtures ----------------------------------------------------------------------

# characters of a pair list split and converted at a time, cut at a line end:
# parsing a 50k-pair list peaks at 1.5 MB under tracemalloc, 3.3 MB with
# 2**16 characters, and smaller slices leave less of the parse's freed heap
# resident: validate-pairs of the pairing benchmark's list peaks about
# 0.46 MB lower than with slices of 2**14 and 2.9 MB lower than with 2**16,
# at the same speed
_PARSE_CHARS = 1 << 12


def _pair_rows(text: str) -> np.ndarray:
    """The pairs of a hand-written list, two integers per line and '#'
    comments, as an (m, 2) int64 array; an object array of Python ints when
    a member is past int64.  Errors are those of ``load_pairs``."""
    chunks = [np.empty(0, dtype=np.int64)]
    start = line = 0  # the slice's first character and the lines before it
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHARS) + 1 or len(text)
        numbers, lines = _slice_numbers(text[start:end], line)
        chunks.append(numbers)
        start, line = end, line + lines
    return np.concatenate(chunks).reshape(-1, 2)


def _slice_numbers(part: str, line: int) -> tuple[np.ndarray, int]:
    """The integers of whole lines ``part`` of a pair list, whose first line
    is line + 1, as int64 (an object array past int64), and its line count."""
    lines = part.splitlines()
    rows = list(map(str.split, [ln.split("#", 1)[0] for ln in lines] if "#" in part else lines))
    bad = len(rows)
    if not set(map(len, rows)) <= {0, 2}:
        bad = next(i for i, parts in enumerate(rows) if len(parts) not in (0, 2))
    numbers = list(map(int, chain.from_iterable(rows[:bad])))  # raises as int() does
    if bad < len(rows):
        raise ValueError(f"line {line + bad + 1}: expected two integers, got {lines[bad]!r}")
    try:
        return np.array(numbers, dtype=np.int64), len(rows)
    except OverflowError:
        return np.array(numbers, dtype=object), len(rows)


def load_pairs(text: str) -> list[tuple[int, int]]:
    """Parse a hand-written pair list: two integers per line, '#' comments."""
    return list(map(tuple, _pair_rows(text).tolist()))


def report_from_pairs(
    n: int,
    mode: str,
    pairs: list[tuple[int, int]] | np.ndarray,
    policy: str = "fixture",
    table: PrimeTable | None = None,
) -> PairingReport:
    """Wrap an externally supplied pairing of 1..n into a checkable report.

    ``pairs`` may also be an (m, 2) array, as ``_pair_rows`` parses it.  The
    report keeps them as rows, int64 when every member fits and else an
    object array of Python ints, and builds its lists only when they are
    read.  A row that is not two integers raises ``ValueError`` before the
    sign sieve runs.
    """
    _check_mode(mode)
    if n < 1:
        raise ValueError(f"report_from_pairs expects n >= 1, got {n}")
    rows = _member_rows(pairs)
    table = table or default_table()
    signs = _signs(n, mode, table)
    members = rows.reshape(-1)
    # the members inside 1..n, then flipped (members outside 1..n are the validator's)
    unpaired = np.zeros(n + 1, dtype=bool)
    unpaired[members[(members >= 1) & (members <= n)].astype(np.int64, copy=False)] = True
    np.logical_not(unpaired, out=unpaired)
    unpaired &= signs != 0
    return PairingReport._from_columns(n, mode, policy, rows, unpaired, signs)


def _member_rows(pairs) -> np.ndarray:
    """pairs as an (m, 2) int64 array, or an object array of Python ints when
    a member is past int64; a ValueError names the first row that is not two
    integers."""
    if isinstance(pairs, np.ndarray) and pairs.dtype == np.int64 and pairs.shape[1:] == (2,):
        return pairs
    checked = []
    for i, row in enumerate(pairs.tolist() if isinstance(pairs, np.ndarray) else pairs):
        try:
            k, l = map(index, row)
        except (TypeError, ValueError):
            raise ValueError(f"pairs[{i}] is not two integers: {row!r}") from None
        checked.append((k, l))
    try:
        return np.array(checked, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(checked, dtype=object).reshape(-1, 2)
