"""The arborification bijection between positive integers and rooted forests.

The map sends 1 to the empty forest, a product to the multiset union of the
factors' forests, and the n-th prime to the tree obtained by putting a root
below the forest of n.  Vertex/edge/leaf statistics and the induced degree
grading are computed arithmetically (they are completely additive), with the
forest path kept as an independent cross-check in the tests.  The bracket
text of a range (``table_text``) and the leaf classes are arithmetic too:
they build no tree or forest object.  The table builds the keys of a block's
primes together, level by level from the smallest-factor sieve, and the
block's text with one join; it memoises only the keys that another key of
its range can contain.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import log, prod

import numpy as np

from .errors import CapExceeded, MatulaError
from .forests import Forest, Tree, attach_root
from .primes import (
    _AUTO_FACTOR_SIEVE,
    PrimeTable,
    _block_factors,
    _nth_prime_bound,
    default_table,
)

# Math values below do not depend on which table computed them, so the caches
# are module-global; dict reads/writes are atomic under CPython.  A hit counts
# only for a prime within the table's cap: computing prime p afresh touches
# no prime above p, so a hit answers what the table itself would.
# ``_key_of_prime`` gets every prime ``_prime_key`` keys, but from a table up
# to hi only the primes up to pi(hi): every rank there is at most pi(hi), so
# no key of the range holds a larger prime, and each larger prime's key
# lives only as long as the block that prints it.
_tree_of_prime: dict[int, Tree] = {}
_number_of_tree: dict[Tree, int] = {}
_vaf_of_prime: dict[int, tuple[int, int, int]] = {}
_key_of_prime: dict[int, str] = {}


def arborify(n: int, table: PrimeTable | None = None) -> Forest:
    """Forest of n: empty for 1, one tree per prime factor (with multiplicity)."""
    if n < 1:
        raise ValueError(f"arborify expects n >= 1, got {n}")
    table = table or default_table()
    trees: list[Tree] = []
    for p, e in table.factorize(n):
        t = _prime_tree(p, table)
        trees.extend([t] * e)
    return Forest(trees)


def _prime_tree(p: int, table: PrimeTable) -> Tree:
    t = _tree_of_prime.get(p) if p <= table.cap else None
    if t is None:
        t = attach_root(arborify(table.prime_rank(p), table))
        _tree_of_prime[p] = t
        _number_of_tree[t] = p
    return t


def number_of(obj: Forest | Tree, table: PrimeTable | None = None) -> int:
    """Inverse of arborify: a tree maps to a prime, a forest to the product."""
    table = table or default_table()
    if isinstance(obj, Tree):
        return _tree_number(obj, table)
    return prod(_tree_number(t, table) for t in obj.trees)


# The number of the path on h vertices for h = 0..13 (OEIS A007097): p
# applied h times to 1.  A tree of height h is p_n where n's forest holds a
# tree of height h - 1, whose number divides n; so by induction the number
# of any tree of height h is at least the h-th term.
_PATH_TOWER = (
    1, 2, 3, 5, 11, 31, 127, 709, 5381, 52711, 648391, 9737333, 174440041, 3657500101,
)


def _least_number(height: int, cap: int) -> int:
    """A lower bound on the number of any tree of this height (1 for height
    0, the empty forest), exact up to height 13; past that, p_n >= n(ln n +
    ln ln n - 1) (Dusart 1999) grows it one level at a time until it passes
    cap."""
    top = len(_PATH_TOWER) - 1
    least = _PATH_TOWER[min(height, top)]
    for _ in range(height - top):
        if least > cap:
            break
        least *= int(log(least) + log(log(least))) - 2  # floored, float-safe
    return least


def check_height(height: int, cap: int) -> None:
    """Raise CapExceeded if a tree of this height needs a prime past cap, so
    a caller can refuse a tall input before sieving, recursing or parsing."""
    least = _least_number(height, cap)
    if least > cap:
        raise CapExceeded(least, cap)


def _tree_number(t: Tree, table: PrimeTable) -> int:
    p = _number_of_tree.get(t)
    if p is None or p > table.cap:
        check_height(t.height, table.cap)
        p = table.nth_prime(prod(_tree_number(child, table) for child in t.children))
        _number_of_tree[t] = p
        _tree_of_prime[p] = t
    return p


# -- bracket strings without trees --------------------------------------------


def _prime_key(p: int, table: PrimeTable) -> str:
    """Bracket key of prime p's tree: a root under the sorted keys of its rank's forest."""
    key = _key_of_prime.get(p) if p <= table.cap else None
    if key is None:
        key = "[%s]" % "".join(_sorted_keys(table.prime_rank(p), table))
        _key_of_prime[p] = key
    return key


def _sorted_keys(n: int, table: PrimeTable) -> list[str]:
    """Keys of the trees of n's forest, ascending; the same calls, in the
    same order, as ``arborify``, so it raises what ``arborify`` raises."""
    keys: list[str] = []
    for p, e in table.factorize(n):
        keys += [_prime_key(p, table)] * e
    keys.sort()
    return keys


def _prime_keys(primes: np.ndarray, table: PrimeTable, top: int | None = None) -> list[str]:
    """Keys of the distinct primes given, in their order, each what
    ``_prime_key`` returns; the missing ones are built together
    (``_build_keys``), and those up to top (all by default) memoised.

    A memo hit counts only for a prime within the cap, as in ``_prime_key``.
    """
    held = np.fromiter(map(_key_of_prime.__contains__, primes.tolist()), bool, len(primes))
    missing = primes[~held | (primes > table.cap)]
    built = _build_keys(missing, table) if len(missing) else {}
    _key_of_prime.update([(p, key) for p, key in built.items() if top is None or p <= top])
    primes = primes.tolist()
    return list(map(built.get, primes, map(_key_of_prime.get, primes)))


def _build_keys(missing: np.ndarray, table: PrimeTable) -> dict[int, str]:
    """Keys of distinct primes by prime, one level of their trees at a time;
    the caller decides which to memoise.

    One ``searchsorted`` gives every rank, a walk of the smallest-factor
    sieve factors them all, one ``_prime_keys`` call keys and memoises their
    distinct factors, the next level (all at most pi of the largest prime),
    and ``_join_groups`` lays every key out.  A missing prime that is also a
    factor at some later level is memoised there and left out of the result,
    so each key is built once per call.  The table grows to the largest
    prime as ``prime_rank`` would grow it, so a prime past the cap raises
    CapExceeded.  A rank past the automatic factor sieve is factored by
    ``_sorted_keys`` (trial division), so no call builds a larger sieve than
    ``factorize`` would.
    """
    ranks = np.searchsorted(table.primes_up_to(int(missing.max())), missing) + 1
    far = ranks > _AUTO_FACTOR_SIEVE
    built = {
        p: "[%s]" % "".join(_sorted_keys(k, table))
        for p, k in zip(missing[far].tolist(), ranks[far].tolist())
    }
    missing, ranks = missing[~far], ranks[~far]
    owners, factors = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    owner = np.flatnonzero(ranks > 1)  # rank 1, the prime 2, has no factor
    if len(owner):
        spf, rest = table._spf_through(int(ranks.max())), ranks[owner]
        while len(owner):  # one prime factor of every rank left per step
            p = spf[rest].astype(np.int64)
            owners.append(owner)
            factors.append(p)
            rest //= p
            left = rest > 1
            owner, rest = owner[left], rest[left]
    sub, which = np.unique(np.concatenate(factors), return_inverse=True)
    words = _prime_keys(sub, table)  # may key some of missing, further down
    mine = ~np.fromiter(map(_key_of_prime.__contains__, missing.tolist()), bool, len(missing))
    owner = np.concatenate(owners)
    kept = mine[owner]
    owner, which = (np.cumsum(mine) - 1)[owner[kept]], which[kept]  # renumbered
    missing = missing[mine]
    heads = ["["] + ["]\t["] * (len(missing) - 1) + ["]"]  # the keys, tab-separated
    text = _join_groups(heads, owner, which, words, "")
    built.update(zip(missing.tolist(), text.split("\t")))
    return built


def _join_groups(
    heads: list[str], owner: np.ndarray, which: np.ndarray, words: list[str], sep: str
) -> str:
    """heads[0] + group 0 + heads[1] + ... + group k-1 + heads[k] in one
    join, group i being the words[which[j]] with owner[j] == i in ascending
    string order, separated by sep.  The token order comes from ``_slots``,
    so its sort arrays are freed before the join, and the token array goes
    before the join too: that keeps a table block at the peak memory of a
    join per row."""
    pool = words + [sep + w for w in words] if sep else words
    tokens = np.array(pool + heads, dtype=object)[_slots(len(heads), owner, which, words, sep)]
    tokens = tokens.tolist()
    return "".join(tokens)


def _slots(
    heads: int, owner: np.ndarray, which: np.ndarray, words: list[str], sep: str
) -> np.ndarray:
    """Where ``_join_groups`` reads each token in its pool: the words, their
    separated copies if sep is set, then the heads.

    One argsort on owner * len(words) + string rank of the word orders the
    pairs, a group's later words read the separated copies, and each head
    goes in before its group's first pair.
    """
    rank = np.empty(len(words), dtype=np.int64)
    rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    order = np.multiply(owner, len(words), dtype=np.int64)
    order += rank[which]
    order = np.argsort(order)
    owner, which = owner[order], which[order]
    del order
    pool = len(words)
    if sep:
        np.add(which[1:], pool, out=which[1:], where=owner[1:] == owner[:-1])
        pool *= 2
    at = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=heads - 1))))
    return np.insert(which, at, np.arange(pool, pool + heads))


_TABLE_BLOCK = 1 << 12  # rows per table block; bounds the work arrays and text chunk


def table_text(lo: int, hi: int, table: PrimeTable | None = None) -> Iterator[str]:
    """The lines ``n<TAB>forest key`` for n in lo..hi, one text chunk per block
    of rows aligned to multiples of _TABLE_BLOCK.

    A block builds the keys it misses together (``_prime_keys``) and its
    text with one join (``_table_block``).  Of those keys, it memoises the
    ones of primes up to pi(hi), which later blocks can read inside their
    keys; a larger prime's key is built again by each block it divides.
    Rows go one at a time, through ``_sorted_keys``, past 2**62 (int64 work
    arrays) and from the first block that raises a MatulaError: it fails on
    one of its own rows, or on sqrt of its end past the cap, as every later
    block then does too.  So every row before a failing one is yielded, as
    ``arborify`` would print it.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"bad range: from {lo} to {hi}")
    table = table or default_table()
    try:
        for start, rest, powers in table.factor_blocks(lo, min(hi, 2**62 - 1), _TABLE_BLOCK):
            yield _table_block(start, rest, powers, hi, table)
            lo = start + len(rest)
    except MatulaError:
        pass
    for n in range(lo, hi + 1):
        yield f"{n}\t{' '.join(_sorted_keys(n, table))}\n"


def _table_block(lo: int, rest: np.ndarray, powers: list, hi: int, table: PrimeTable) -> str:
    """Table lines of the ``PrimeTable.factor_blocks`` block that starts at lo.

    Each prime power's multiples get one factor p; a remainder above 1 is one
    more prime factor (``_block_factors``).  The keys of the block's distinct
    primes come from ``_prime_keys``, and ``_join_groups`` writes the rows:
    each row's head ``"\\n%d\\t"`` (no newline on the first), then its keys
    in string order, space-separated, and one newline at the end; one ``%``
    numbers the heads.
    """
    row, p = _block_factors(rest, powers)
    primes, which = np.unique(p, return_inverse=True)
    row, which = row.astype(np.int32), which.astype(np.int32)  # a block is short
    del p
    # A block prime p <= m occurs in another key of lo..hi iff p_p <= hi,
    # which the primes up to min(hi, p_m) settle.  Past the cap,
    # _prime_keys raises before any sieving here.
    m, top = int(primes.max(initial=1)), 0
    if m <= table.cap:
        top = len(table.primes_up_to(min(hi, table.cap, _nth_prime_bound(m))))
    heads = ["%d\t"] + ["\n%d\t"] * (len(rest) - 1) + ["\n"]  # keys hold no %
    text = _join_groups(heads, row, which, _prime_keys(primes, table, top), " ")
    return text % tuple(range(lo, lo + len(rest)))


@dataclass(frozen=True)
class Stats:
    """Forest statistics of an integer.

    factors is the number of prime factors with multiplicity and always
    equals vertices - edges; degree is vertices + edges.  Both are
    completely additive, and degree has the parity of factors.
    """

    vertices: int
    edges: int
    leaves: int
    factors: int
    degree: int


def _prime_vaf(p: int, table: PrimeTable) -> tuple[int, int, int]:
    got = _vaf_of_prime.get(p) if p <= table.cap else None
    if got is None:
        v, _a, f = _int_vaf(table.prime_rank(p), table)
        # adding a root gives one new vertex and one edge per tree of the
        # forest: edges go from a(k) to a(k) + (v(k) - a(k)) = v(k)
        got = (v + 1, v, max(f, 1))
        _vaf_of_prime[p] = got
    return got


def _int_vaf(k: int, table: PrimeTable) -> tuple[int, int, int]:
    v = a = f = 0
    for p, e in table.factorize(k):
        pv, pa, pf = _prime_vaf(p, table)
        v += e * pv
        a += e * pa
        f += e * pf
    return v, a, f


def stats_of(n: int, table: PrimeTable | None = None) -> Stats:
    """Vertex/edge/leaf counts plus factor count and degree, arithmetically."""
    if n < 1:
        raise ValueError(f"stats_of expects n >= 1, got {n}")
    v, a, f = _int_vaf(n, table or default_table())
    return Stats(v, a, f, v - a, v + a)


# -- degree and leaf enumeration ---------------------------------------------

_vertex_level_cache: dict[int, list[int]] = {}  # c -> the n whose forests have c vertices
_level_primes: dict[int, list[int]] = {}  # j -> the primes whose trees have j vertices


def _extend(levels: list[list[int]], p: int, weight: int, targets: Iterable[int]) -> None:
    """Add p of this weight to a product table: levels[w] gains p times each
    product of weight w - weight, for ascending targets w, so p may repeat
    and each multiset is formed once (distinct by unique factorization)."""
    for w in targets:
        levels[w] += [x * p for x in levels[w - weight]]


def _primes_with_vertex_count(j: int, table: PrimeTable) -> list[int]:
    """The primes whose trees have j vertices, ascending: p of the cached
    vertex level j - 1, from one ``nth_primes`` call kept in
    ``_level_primes``; a kept level counts only within the cap, where
    asking again would not fail."""
    primes = _level_primes.get(j)
    if primes is None or primes[-1] > table.cap:  # ascending, as the ranks are
        primes = table.nth_primes(_vertex_level_cache[j - 1]).tolist()
        _level_primes[j] = primes
    return primes


def _integers_with_vertex_count(c: int, table: PrimeTable) -> list[int]:
    """All n whose forest has exactly c vertices, ascending (finite), each
    lower level cached on the way.  One forward product table, a prime on j
    vertices weighing j, takes the primes level by level: level j - 1 is
    complete once those on fewer than j vertices are in.  The table stops at
    the tallest height within the cap: the next level holds a path whose
    prime passes it, so asking for that level's primes raises first."""
    got = _vertex_level_cache.get(c)
    if got is None:
        # levels 0..top: up to c, or up to the tallest height within the cap
        top = next((h for h in range(c) if _least_number(h + 1, table.cap) > table.cap), c)
        levels = [[1]] + [[] for _ in range(top)]
        for j in range(1, c + 1):
            _vertex_level_cache[j - 1] = sorted(levels[j - 1])
            for p in _primes_with_vertex_count(j, table):
                _extend(levels, p, j, range(j, top + 1))
        got = _vertex_level_cache[c] = sorted(levels[c])
    return got


def integers_of_degree(m: int, table: PrimeTable | None = None) -> list[int]:
    """All n with degree m, ascending.  Each degree level is a finite set:
    every prime factor contributes an odd degree >= 1."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    table = table or default_table()
    c = (m + 1) // 2  # a prime whose tree has j vertices has j - 1 edges: degree 2j - 1
    _integers_with_vertex_count(max(c - 1, 0), table)
    # every level's primes before the table, so a level past the cap raises first
    by_level = [_primes_with_vertex_count(j, table) for j in range(1, c + 1)]
    levels = [[1]] + [[] for _ in range(m)]
    for j, primes in enumerate(by_level, 1):
        # no prime still to come weighs less, so past m - (2j - 1) only m reads it
        targets = [*range(2 * j - 1, m - 2 * j + 2), m]
        for p in primes:
            _extend(levels, p, 2 * j - 1, targets)
    return sorted(levels[m])


def integers_with_leaf_count(
    leaf_count: int, bound: int, table: PrimeTable | None = None
) -> list[int]:
    """All n <= bound whose forest has exactly leaf_count leaves, ascending."""
    if leaf_count < 1:
        raise ValueError(f"leaf count must be >= 1, got {leaf_count}")
    if bound < 2:
        return []
    leaves = _leaf_counts(bound, table or default_table())
    return np.flatnonzero(leaves == leaf_count).tolist()


_LEAF_BLOCK = 1 << 14  # integers per vectorised step of ``_leaf_counts``


def _leaf_counts(bound: int, table: PrimeTable) -> np.ndarray:
    """int8 leaf count of every k in 0..bound (bound >= 2), indexed by k.

    Leaf counts are completely additive and a prime p_n has max(f(n), 1)
    leaves, so from the smallest-factor sieve f[k] = f[spf k] + f[k / spf k]
    for a composite k and f[p] = max(f[pi(p)], 1) for a prime.  For lo >= 16
    every k in [lo, 2 lo) reads only entries below lo (pi(2 lo) < lo), so
    such a block is a few array assignments; below 16 they go one at a time.
    A block holds at most _LEAF_BLOCK integers, which bounds its work
    arrays.  f(n) <= log2 n, so int8 holds it.  Raises CapExceeded, naming
    the first prime past the cap, when 2..bound holds one.
    """
    cap = table.cap
    top = min(bound, 2 * cap)  # Bertrand: (cap, 2 cap] holds a prime
    spf = table._spf_through(top)
    for lo in range(cap + 1, top + 1, _LEAF_BLOCK):
        hi = min(lo + _LEAF_BLOCK, top + 1)
        past = np.flatnonzero(spf[lo:hi] == np.arange(lo, hi))
        if len(past):
            raise CapExceeded(lo + int(past[0]), cap)
    f = np.zeros(bound + 1, dtype=np.int8)
    count = 0  # primes below the current k or block
    for k in range(2, min(bound, 15) + 1):
        p = int(spf[k])
        if p == k:
            count += 1
            f[k] = max(f[count], 1)
        else:
            f[k] = f[p] + f[k // p]
    lo = 16
    while lo <= bound:
        hi = min(2 * lo, lo + _LEAF_BLOCK, bound + 1)
        ks = np.arange(lo, hi)
        s = spf[lo:hi]
        prime = s == ks
        ranks = count + np.cumsum(prime)
        out = f[lo:hi]
        out[prime] = f[ranks[prime]]  # pi(p) >= 2 has a leaf: no max needed
        comp = ~prime
        out[comp] = f[s[comp]] + f[ks[comp] // s[comp]]
        count = int(ranks[-1])
        lo = hi
    return f
