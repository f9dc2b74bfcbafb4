"""The arborification bijection between positive integers and rooted forests.

The map sends 1 to the empty forest, a product to the multiset union of the
factors' forests, and the n-th prime to the tree obtained by putting a root
below the forest of n.  Vertex/edge/leaf statistics and the induced degree
grading are computed arithmetically (they are completely additive), with the
forest path kept as an independent cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

from .errors import CapExceeded
from .forests import Forest, Tree, attach_root, detach_root
from .primes import PrimeTable, default_table

# Math values below do not depend on which table computed them, so the caches
# are module-global; dict reads/writes are atomic under CPython.
_tree_of_prime: dict[int, Tree] = {}
_number_of_tree: dict[Tree, int] = {}
_vaf_of_prime: dict[int, tuple[int, int, int]] = {}


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
    t = _tree_of_prime.get(p)
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
    n = 1
    for t in obj.trees:
        n *= _tree_number(t, table)
    return n


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
    if p is None:
        check_height(t.height, table.cap)
        p = table.nth_prime(number_of(detach_root(t), table))
        _number_of_tree[t] = p
        _tree_of_prime[p] = t
    return p


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
    got = _vaf_of_prime.get(p)
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

_vertex_level_cache: dict[int, list[int]] = {}


def _integers_with_vertex_count(c: int, table: PrimeTable) -> list[int]:
    """All n whose forest has exactly c vertices, ascending (finite)."""
    got = _vertex_level_cache.get(c)
    if got is None:
        got = sorted(_multiset_products(_prime_pool(c, table), c))  # [1] at c = 0
        _vertex_level_cache[c] = got
    return got


def _prime_pool(c: int, table: PrimeTable) -> list[tuple[int, int]]:
    """(p, j) for every prime p whose tree has j <= c vertices: p = p_k with
    k's forest on j - 1 vertices.  The primes of all levels come from one
    ``nth_primes`` call, ranks in level order."""
    levels = [_integers_with_vertex_count(j - 1, table) for j in range(1, c + 1)]
    ranks = [k for level in levels for k in level]
    weights = [j for j, level in enumerate(levels, 1) for _ in level]
    return list(zip(table.nth_primes(ranks).tolist(), weights))


def _multiset_products(pool: list[tuple[int, int]], total: int) -> list[int]:
    """Products over multisets drawn from (value, weight) with weights summing
    to total.  Distinct multisets give distinct products (unique factorization),
    so no de-duplication is needed."""
    out: list[int] = []
    pool = sorted(pool, key=lambda entry: entry[1])  # lightest first

    def rec(i: int, remaining: int, acc: int) -> None:
        if remaining == 0:
            out.append(acc)
            return
        for j in range(i, len(pool)):
            val, w = pool[j]
            if w > remaining:
                break
            rec(j, remaining - w, acc * val)

    rec(0, total, 1)
    return out


def integers_of_degree(m: int, table: PrimeTable | None = None) -> list[int]:
    """All n with degree m, ascending.  Each degree level is a finite set:
    every prime factor contributes an odd degree >= 1."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    table = table or default_table()
    # a prime whose tree has j vertices has j - 1 edges, so degree 2j - 1
    pool = [(p, 2 * j - 1) for p, j in _prime_pool((m + 1) // 2, table)]
    return sorted(_multiset_products(pool, m))


def integers_with_leaf_count(
    leaf_count: int, bound: int, table: PrimeTable | None = None
) -> list[int]:
    """All n <= bound whose forest has exactly leaf_count leaves, ascending."""
    if leaf_count < 1:
        raise ValueError(f"leaf count must be >= 1, got {leaf_count}")
    table = table or default_table()
    return [
        n for n in range(2, bound + 1) if _int_vaf(n, table)[2] == leaf_count
    ]
