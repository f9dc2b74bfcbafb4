import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matula import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    ParseError,
    Tree,
    attach_root,
    detach_root,
    parse_forest,
    print_forest,
    render,
    stats,
)
from matula.forests import bracket_depth

CHERRY = Tree([LEAF, LEAF])
CHAIN2 = Tree([LEAF])


def trees(max_leaves=8):
    return st.recursive(
        st.just(LEAF),
        lambda kids: st.lists(kids, max_size=4).map(Tree),
        max_leaves=max_leaves,
    )


def forests():
    return st.lists(trees(), max_size=5).map(Forest)


def test_attach_root_basics():
    assert attach_root(EMPTY_FOREST) is LEAF
    assert attach_root(Forest([LEAF])) is CHAIN2
    assert attach_root(Forest([LEAF, LEAF])) is CHERRY


def test_detach_root_inverts():
    assert detach_root(LEAF) == EMPTY_FOREST
    assert detach_root(CHERRY) == Forest([LEAF, LEAF])
    chain4 = Tree([Tree([CHAIN2])])
    assert detach_root(chain4) == Forest([Tree([CHAIN2])])


@settings(max_examples=200)
@given(forests())
def test_attach_detach_roundtrip(f):
    assert detach_root(attach_root(f)) == f


def test_parse_examples():
    assert parse_forest("") == EMPTY_FOREST
    assert parse_forest("   ") == EMPTY_FOREST
    assert parse_forest("[[]] []") == Forest([CHAIN2, LEAF])
    # child order in the input does not matter
    assert parse_forest("[] [[]]") == Forest([CHAIN2, LEAF])


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_forest("[[]")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_forest("[] ]")
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_forest("[x]")
    assert err.value.offset == 1


def test_print_examples():
    assert print_forest(EMPTY_FOREST) == ""
    assert print_forest(Forest([LEAF, LEAF])) == "[] []"
    chain5 = Tree([Tree([Tree([CHAIN2])])])
    assert print_forest(Forest([chain5])) == "[[[[[]]]]]"


@settings(max_examples=200)
@given(forests())
def test_codec_roundtrip(f):
    assert parse_forest(print_forest(f)) == f


@settings(max_examples=100)
@given(forests())
def test_reprint_is_idempotent(f):
    s = print_forest(f)
    assert print_forest(parse_forest(s)) == s


@settings(max_examples=100)
@given(forests(), st.randoms(use_true_random=False))
def test_parse_normalises_any_well_formed_spelling(f, rng):
    # scramble component order and spacing; the parse must still canonicalise
    parts = [t.key for t in f.trees]
    rng.shuffle(parts)
    scrambled = "  ".join(parts) + " "
    assert parse_forest(scrambled) == f
    assert print_forest(parse_forest(scrambled)) == print_forest(f)


@settings(max_examples=120)
@given(trees(), st.randoms(use_true_random=False))
def test_child_insertion_order_is_canonicalised(t, rng):
    kids = list(t.children)
    rng.shuffle(kids)
    assert Tree(kids) is t


def test_interning_makes_equal_trees_identical():
    a = Tree([CHAIN2, LEAF])
    b = Tree([LEAF, Tree([LEAF])])
    assert a is b


def test_stats_examples():
    assert stats(LEAF) == (1, 0, 1)
    nested_cherry = Tree([CHERRY])  # 4 vertices, 2 leaves
    assert stats(nested_cherry) == (4, 3, 2)


@settings(max_examples=150)
@given(forests())
def test_stats_add_over_forests(f):
    v, e, l = stats(f)
    assert v == sum(stats(t).vertices for t in f)
    assert e == sum(stats(t).edges for t in f)
    assert l == sum(stats(t).leaves for t in f)
    assert e == v - len(f.trees)


@settings(max_examples=150)
@given(forests())
def test_bracket_depth_is_the_tallest_height(f):
    assert bracket_depth(print_forest(f)) == max((t.height for t in f), default=0)


def test_bracket_depth_examples():
    assert bracket_depth("") == bracket_depth(" \t") == 0
    assert bracket_depth("[] [[[]] []]") == 3
    with pytest.raises(ParseError) as exc:
        bracket_depth("[[]] ] [")
    assert exc.value.offset == 5


def test_forests_compare_by_their_trees():
    f = Forest([CHERRY, LEAF])
    g = parse_forest("[] [[] []]")
    assert f == g and hash(f) == hash(g) and f.trees[1] is g.trees[1]
    assert f != Forest([CHERRY]) and f != print_forest(f)
    assert Tree._intern[(LEAF, LEAF)] is CHERRY


def test_render_a_tree_deeper_than_the_recursion_limit():
    depth = 1500
    path = parse_forest("[" * depth + "]" * depth)
    ascii_lines = render(path, "ascii").split("\n")
    assert ascii_lines[-1] == "  " * (depth - 1) + "*" and len(ascii_lines) == depth
    dot = render(path, "dot")
    assert dot.count("->") == depth - 1
    assert f"  n0_{depth - 2} -> n0_{depth - 1};" in dot


def test_render_ascii_two_trees():
    f = parse_forest("[[]] []")
    assert render(f, "ascii") == "*\n  *\n*"


def test_render_dot_single_vertex():
    out = render(LEAF, "dot")
    assert out == "digraph forest {\n  node [shape=point];\n  n0_0;\n}"
    assert "->" not in out


def test_render_dot_two_chains():
    f = parse_forest("[[]] [[]]")
    out = render(f, "dot")
    assert out.count("->") == 2
    assert "n0_0 -> n0_1;" in out and "n1_0 -> n1_1;" in out
    assert out.startswith("digraph forest {") and out.endswith("}")


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(LEAF, "svg")


def test_render_is_deterministic():
    strings = set()
    for _ in range(5):
        kids = [CHERRY, CHAIN2, LEAF, LEAF]
        random.shuffle(kids)
        strings.add(render(Forest(kids), "dot"))
    assert len(strings) == 1
