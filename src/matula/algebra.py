"""Products and cuts on primes seen as rooted trees.

Grafting one prime's tree onto the root of another's (the Butcher product)
and merging two roots (fusion) act on prime ranks; cutting an edge splits a
prime into a pair of primes.  All three are computed purely on ranks, so no
tree objects are built here; the tests cross-check against the forest model.
``_cut_table`` lists the cuts of every prime up to some x at once, as arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .primes import PrimeTable, _distinct_factors, _spans, _value_dtype, default_table


class CutPair(NamedTuple):
    """Result of cutting one edge: the detached subtree's prime and the
    prime of what remains.  Their product is the composite the cut creates
    when applied inside a factor."""

    detached: int
    remaining: int

    @property
    def product(self) -> int:
        return self.detached * self.remaining


def butcher(s: int, t: int, table: PrimeTable | None = None) -> int:
    """Graft the tree of prime s onto the root of prime t's tree.

    With t the n-th prime, the result is the (s*n)-th prime.
    """
    table = table or default_table()
    table.prime_rank(s)  # raises NotPrime on bad input
    return table.nth_prime(s * table.prime_rank(t))


def fuse(q: int, r: int, table: PrimeTable | None = None) -> int:
    """Merge the roots of two primes' trees: ranks multiply.

    Commutative and associative; the rank-1 prime (2) is the identity.
    """
    table = table or default_table()
    return table.nth_prime(table.prime_rank(q) * table.prime_rank(r))


_cuts_cache: dict[int, tuple[CutPair, ...]] = {}


def cuts(q: int, table: PrimeTable | None = None) -> frozenset[CutPair]:
    """All single-edge cuts of prime q's tree, as de-duplicated CutPairs.

    For q the n-th prime: cutting a root edge detaches a prime factor d of n
    and leaves the (n/d)-th prime; cutting deeper inside the branch of d
    relays a cut of d.  The single-vertex tree (q == 2) has no edges and
    yields the empty set.
    """
    return frozenset(_ordered_cuts(q, table or default_table()))


def _ordered_cuts(q: int, table: PrimeTable) -> tuple[CutPair, ...]:
    """``cuts(q)`` in ascending order, memoised in ``_cuts_cache`` (a hit
    counts only within the cap, where a fresh computation would not fail)."""
    got = _cuts_cache.get(q) if q <= table.cap else None
    if got is None:
        n = table.prime_rank(q)
        acc: set[CutPair] = set()
        if n > 1:
            for d in table.prime_factors(n):
                rest = n // d
                acc.add(CutPair(d, table.nth_prime(rest)))
                for s, r in _ordered_cuts(d, table):
                    acc.add(CutPair(s, table.nth_prime(rest * r)))
        got = tuple(sorted(acc))
        _cuts_cache[q] = got
    return got


# ranks per block of _cut_table; bounds its work arrays.  At 10**6 the build
# traces 4.3 MB above the table it keeps, 7.0 MB with blocks of 2**14, most
# of it the buffer's last doubling; at 10**7 it takes about 2.2 s, against
# 2.5 s with blocks of 2**9, whose per-block factoring costs more than their
# smaller arrays save
_CUT_BLOCK = 1 << 10


def _cut_table(
    primes: np.ndarray, table: PrimeTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cuts of every prime in ``primes`` (all primes up to some x), as
    (offsets, detached, remaining): those of the m-th prime are the pairs
    (detached[i], remaining[i]) for i in offsets[m - 1]:offsets[m], in the
    order of ``_ordered_cuts``.

    The cuts of p_m are the root cuts (d, p_{m/d}) and the relayed cuts
    (s, p_{(m/d) r}), for each prime d | m and each cut (s, r) of d.  A cut
    leaves a smaller tree (r < d), so every rank read is below m, inside
    ``primes``.  The ranks are filled in ascending blocks of at most
    ``_CUT_BLOCK`` ranks that end below both 2 lo and p_lo, so each d | m
    has its cuts from an earlier block.  detached and remaining are the two
    rows of one int32 buffer (int64 past 2**31) that doubles as it fills.
    A block works in int32 too: its ranks, including the rank products
    (m / d) r < m, are at most len(primes), and it sorts by the index of the
    remaining prime, which ascends with the prime.
    """
    offsets = np.zeros(len(primes) + 1, dtype=np.int64)
    cuts = np.empty((2, _CUT_BLOCK), dtype=_value_dtype(int(primes.max(initial=0))))
    ranks = _value_dtype(len(primes))  # every rank read is at most len(primes)
    lo = 2  # p_1 = 2 is a single vertex: no cuts
    while lo <= len(primes):
        hi = min(2 * lo - 1, int(primes[lo - 1]) - 1, lo + _CUT_BLOCK - 1, len(primes))
        row, d, _ = _distinct_factors(lo, hi, table)
        rank = np.searchsorted(primes, d) + 1
        owner, i = _spans(offsets[rank - 1], offsets[rank] - offsets[rank - 1])
        row, rest = row.astype(ranks), ((row + lo) // d).astype(ranks)  # rest = m / d
        who = np.concatenate([row, row[owner]])  # m - lo
        s = np.concatenate([d.astype(cuts.dtype), cuts[0, i]])
        # the index of the remaining prime: rank m / d, or (m / d) r below m
        at = np.concatenate([rest, rest[owner] * cuts[1, i].astype(ranks, copy=False)])
        at -= 1
        del owner, i, row, rest
        order = np.lexsort((at, s, who))  # at ascends with the remaining prime
        who, s, at = who[order], s[order], at[order]
        del order
        new = np.ones(len(who), dtype=bool)
        new[1:] = (who[1:] != who[:-1]) | (s[1:] != s[:-1]) | (at[1:] != at[:-1])
        counts = np.bincount(who[new], minlength=hi - lo + 1)
        offsets[lo : hi + 1] = offsets[lo - 1] + np.cumsum(counts)
        start, end = offsets[lo - 1], offsets[hi]
        if end > cuts.shape[1]:
            grown = np.empty((2, max(2 * cuts.shape[1], end)), dtype=cuts.dtype)
            grown[:, :start] = cuts[:, :start]
            cuts = grown
        cuts[0, start:end], cuts[1, start:end] = s[new], primes[at[new]]
        lo = hi + 1
    return offsets, cuts[0, : offsets[-1]], cuts[1, : offsets[-1]]


def cut_chains(
    q: int, table: PrimeTable | None = None
) -> list[tuple[CutPair, tuple[int, ...]]]:
    """Cuts of q with their display chains.

    A deep cut moves the detached subtree down one level per step; the chain
    lists the intermediate primes and ends at the two-factor product, e.g.
    59 -> 41 -> 29 -> 22.  Root cuts have a single step.
    """
    table = table or default_table()
    n = table.prime_rank(q)
    out: list[tuple[CutPair, tuple[int, ...]]] = []
    if n == 1:
        return out
    for d in table.prime_factors(n):
        rest = n // d
        root_pair = CutPair(d, table.nth_prime(rest))
        out.append((root_pair, (q, root_pair.product)))
        for pair, inner in cut_chains(d, table):
            chain = [q]
            chain.extend(table.nth_prime(rest * c) for c in inner[1:])
            relayed = CutPair(pair.detached, table.nth_prime(rest * pair.remaining))
            chain.append(relayed.product)
            out.append((relayed, tuple(chain)))
    out.sort()
    return out


def nap_law_holds(p: int, q: int, r: int, table: PrimeTable | None = None) -> bool:
    """Whether grafting p then q onto r equals grafting q then p onto r."""
    table = table or default_table()
    return butcher(p, butcher(q, r, table), table) == butcher(
        q, butcher(p, r, table), table
    )


def value_increasing_cuts(
    limit: int, table: PrimeTable | None = None
) -> list[tuple[int, int]]:
    """All (q, product) with q prime <= limit and some cut of q whose
    two-factor product exceeds q.  Cuts normally decrease the value; the
    exceptions are rare and this scan certifies them for a range.  They are
    sorted and de-duplicated as arrays, before any Python int is made."""
    table = table or default_table()
    primes = table.primes_up_to(limit)
    offsets, detached, remaining = _cut_table(primes, table)
    q = np.repeat(primes, np.diff(offsets))
    product = np.multiply(detached, remaining, dtype=np.int64)  # int32 * int32 can wrap
    up = product > q
    q, product = q[up], product[up]
    order = np.lexsort((product, q))
    q, product = q[order], product[order]
    new = np.ones(len(q), dtype=bool)
    new[1:] = (q[1:] != q[:-1]) | (product[1:] != product[:-1])
    return list(zip(q[new].tolist(), product[new].tolist()))
