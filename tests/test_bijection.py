import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    CapExceeded,
    PrimeTable,
    arborify,
    attach_root,
    integers_of_degree,
    integers_with_leaf_count,
    number_of,
    parse_forest,
    print_forest,
    stats,
    stats_of,
)
from matula.bijection import _integers_with_vertex_count, _least_number
from matula.primes import _AUTO_FACTOR_SIEVE

# the first twenty integers and their forests, worked out by hand
FIRST_TWENTY = {
    1: "",
    2: "[]",
    3: "[[]]",
    4: "[] []",
    5: "[[[]]]",
    6: "[[]] []",
    7: "[[][]]",
    8: "[] [] []",
    9: "[[]] [[]]",
    10: "[[[]]] []",
    11: "[[[[]]]]",
    12: "[[]] [] []",
    13: "[[[]][]]",
    14: "[[][]] []",
    15: "[[[]]] [[]]",
    16: "[] [] [] []",
    17: "[[[][]]]",
    18: "[[]] [[]] []",
    19: "[[][][]]",
    20: "[[[]]] [] []",
}

# every rooted tree on at most five vertices and its prime
SMALL_TREES = [
    (2, "[]"),
    (3, "[[]]"),
    (5, "[[[]]]"),
    (7, "[[][]]"),
    (11, "[[[[]]]]"),
    (17, "[[[][]]]"),
    (13, "[[[]][]]"),
    (19, "[[][][]]"),
    (31, "[[[[[]]]]]"),
    (59, "[[[[][]]]]"),
    (41, "[[[[]][]]]"),
    (67, "[[[][][]]]"),
    (29, "[[[[]]][]]"),
    (23, "[[[]][[]]]"),
    (43, "[[[][]][]]"),
    (37, "[[[]][][]]"),
    (53, "[[][][][]]"),
]


def test_first_twenty_table(table):
    for n, brackets in FIRST_TWENTY.items():
        assert print_forest(arborify(n, table)) == brackets, n


def test_small_tree_primes(table):
    seen_vertex_counts = []
    for p, brackets in SMALL_TREES:
        forest = arborify(p, table)
        assert len(forest.trees) == 1
        assert print_forest(forest) == brackets
        assert number_of(parse_forest(brackets), table) == p
        seen_vertex_counts.append(forest.trees[0].vertices)
    assert sorted(seen_vertex_counts) == [1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5]


def test_arborify_edges():
    assert print_forest(arborify(1)) == ""
    with pytest.raises(ValueError):
        arborify(0)


def test_bijection_dense(table):
    for n in range(1, 100_001):
        assert number_of(arborify(n, table), table) == n


def test_broom_is_53(table):
    broom = attach_root(parse_forest("[] [] [] []"))
    assert number_of(broom, table) == 53


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10_000), st.integers(2, 10_000))
def test_multiplicative(m, n):
    left = arborify(m * n)
    merged = sorted(
        list(arborify(m).trees) + list(arborify(n).trees), key=lambda t: t.key
    )
    assert list(left.trees) == merged


def test_multiplicative_many_random_pairs(table):
    import random

    rng = random.Random(20260810)
    for _ in range(10_000):
        m, n = rng.randint(2, 30_000), rng.randint(2, 30_000)
        merged = sorted(
            list(arborify(m, table).trees) + list(arborify(n, table).trees),
            key=lambda t: t.key,
        )
        assert list(arborify(m * n, table).trees) == merged


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 50_000), st.integers(1, 50_000))
def test_stats_completely_additive(m, n):
    a, b, c = stats_of(m), stats_of(n), stats_of(m * n)
    assert (
        c.vertices == a.vertices + b.vertices
        and c.edges == a.edges + b.edges
        and c.leaves == a.leaves + b.leaves
        and c.factors == a.factors + b.factors
        and c.degree == a.degree + b.degree
    )


def test_stats_examples(table):
    z = stats_of(1, table)
    assert (z.vertices, z.edges, z.leaves, z.factors, z.degree) == (0, 0, 0, 0, 0)
    assert stats_of(13, table).degree == 7
    assert stats_of(2597, table).degree == 19
    assert stats_of(2, table).leaves == 1


def test_stats_match_forest_walk(table):
    for n in range(1, 10_000):
        st_arith = stats_of(n, table)
        v, e, l = stats(arborify(n, table))
        assert (st_arith.vertices, st_arith.edges, st_arith.leaves) == (v, e, l)
        assert st_arith.factors == st_arith.vertices - st_arith.edges
        assert st_arith.degree == st_arith.vertices + st_arith.edges
        assert st_arith.degree % 2 == st_arith.factors % 2


def test_vertex_count_not_monotone(table):
    assert stats_of(53, table).vertices == 5
    assert stats_of(59, table).vertices == 5
    assert stats_of(47, table).vertices == 6


def test_degree_levels(table):
    assert integers_of_degree(0, table) == [1]
    assert integers_of_degree(1, table) == [2]
    assert integers_of_degree(2, table) == [4]
    assert integers_of_degree(3, table) == [3, 8]
    assert integers_of_degree(4, table) == [6, 16]
    assert integers_of_degree(5, table) == [5, 7, 12, 32]


def test_degree_levels_complete_against_sweep(table):
    by_degree: dict[int, list[int]] = {}
    for n in range(1, 5001):
        by_degree.setdefault(stats_of(n, table).degree, []).append(n)
    for m in range(0, 10):
        level = integers_of_degree(m, table)
        assert [n for n in level if n <= 5000] == by_degree.get(m, [])
        assert all(stats_of(n, table).degree == m for n in level)


def _rooted_tree_counts(n_max: int) -> list[int]:
    """Rooted trees on n vertices (OEIS A000081) for n <= n_max, by Otter's
    Euler transform a(n+1) = (1/n) sum_k (sum_{d | k} d a(d)) a(n-k+1)."""
    a = [0, 1]
    for n in range(1, n_max):
        total = sum(
            sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[n - k + 1]
            for k in range(1, n + 1)
        )
        a.append(total // n)
    return a


def test_vertex_levels_count_rooted_trees():
    table = PrimeTable()  # c = 12 reaches p_9737333 = 174440041; freed afterwards
    counts = _rooted_tree_counts(13)
    assert counts[13] == 12486
    for c in range(13):
        # a forest on c vertices is a rooted tree on c + 1 once given a root
        assert len(_integers_with_vertex_count(c, table)) == counts[c + 1], c


def _euler_transform(b: list[int], n_max: int) -> list[int]:
    """Multisets of total weight n for n <= n_max, drawn from b[d] kinds of
    weight d: c(n) = (1/n) sum_k (sum_{d | k} d b(d)) c(n - k), c(0) = 1."""
    c = [1]
    for n in range(1, n_max + 1):
        total = sum(
            sum(d * b[d] for d in range(1, k + 1) if k % d == 0) * c[n - k]
            for k in range(1, n + 1)
        )
        c.append(total // n)
    return c


def test_no_degree_level_misses_a_member(table):
    # a prime whose tree has j vertices has degree 2j - 1, and there are as
    # many such primes as rooted trees on j vertices; degree m counts the
    # multisets of them of total degree m
    trees = _rooted_tree_counts(10)
    kinds = [0] * 21
    for j in range(1, 11):
        kinds[2 * j - 1] = trees[j]
    counts = _euler_transform(kinds, 20)
    assert counts[:6] == [1, 1, 1, 2, 2, 4]  # the levels test_degree_levels lists
    for m in range(21):
        assert len(integers_of_degree(m, table)) == counts[m], m


def test_degree_levels_ascend_and_have_their_degree(table):
    for m in range(14):
        level = integers_of_degree(m, table)
        assert all(a < b for a, b in zip(level, level[1:])), m
        assert all(stats_of(n, table).degree == m for n in level), m


def test_leaf_classes(table):
    assert integers_with_leaf_count(1, 1000, table) == [2, 3, 5, 11, 31, 127, 709]
    assert integers_with_leaf_count(2, 41, table) == [
        4, 6, 7, 9, 10, 13, 15, 17, 22, 23, 25, 29, 33, 41,
    ]
    assert integers_with_leaf_count(1, 1, table) == []


def test_leaf_classes_past_the_automatic_factor_sieve_leave_no_sieve():
    # one leaf forest is one path: p applied to 1 again and again (A007097);
    # past 2**22 the smallest-factor sieve is built for the call alone
    t = PrimeTable()
    tower = [2]
    while (n := t.nth_prime(tower[-1])) <= 5_000_000:
        tower.append(n)
    assert integers_with_leaf_count(1, 5_000_000, t) == tower
    assert t._spf is None or len(t._spf) <= _AUTO_FACTOR_SIEVE + 1


@pytest.mark.parametrize("depth", [14, 3000])
def test_number_of_too_tall_fails_before_sieving(depth):
    fresh = PrimeTable()
    unsieved = fresh.limit
    tree = parse_forest("[" * depth + "]" * depth)
    with pytest.raises(CapExceeded):
        number_of(tree, fresh)
    assert fresh.limit == unsieved


def test_path_tower_is_the_number_of_each_path(table):
    # the h-vertex path is p applied h times to 1 (OEIS A007097)
    n = 1
    for h in range(1, 11):
        n = table.nth_prime(n)
        path = parse_forest("[" * h + "]" * h)
        assert path.trees[0].height == h
        assert _least_number(h, table.cap) == n == number_of(path, table)
