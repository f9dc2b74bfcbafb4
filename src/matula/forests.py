"""Canonical rooted trees and forests, with a bracket codec and renderers.

A tree is an unordered multiset of child trees; storage order is canonical
(children ascending by their bracket string), so isomorphic trees compare
equal and the printer doubles as a canonical form.  Trees are interned on
their canonical child tuple: structurally equal trees are the same object,
so equality and hashing are by identity, and a forest compares by its trees.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import ParseError

_BY_KEY = attrgetter("key")


class Tree:
    """A rooted tree; ``Tree(children)`` canonicalises and interns."""

    __slots__ = ("children", "key", "vertices", "leaves", "height")

    _intern: dict[tuple["Tree", ...], "Tree"] = {}

    children: tuple["Tree", ...]
    key: str
    vertices: int
    leaves: int
    height: int  # vertices on the longest path from the root

    def __new__(cls, children: Iterable["Tree"] = ()):
        kids = tuple(sorted(children, key=_BY_KEY))
        self = cls._intern.get(kids)
        if self is None:
            self = object.__new__(cls)
            self.children = kids
            self.key = "[%s]" % "".join(t.key for t in kids)
            self.vertices = 1 + sum(t.vertices for t in kids)
            self.leaves = sum(t.leaves for t in kids) if kids else 1
            self.height = 1 + max((t.height for t in kids), default=0)
            cls._intern[kids] = self
        return self

    @property
    def edges(self) -> int:
        return self.vertices - 1

    def __repr__(self) -> str:
        return f"Tree({self.key!r})"

    def __iter__(self) -> Iterator["Tree"]:
        return iter(self.children)

    # interning makes identity comparison correct; object.__eq__/__hash__ apply


LEAF = Tree()


class Forest:
    """A multiset of trees, stored in canonical (ascending key) order."""

    __slots__ = ("trees", "key")

    trees: tuple[Tree, ...]
    key: str

    def __init__(self, trees: Iterable[Tree] = ()):
        ts = tuple(sorted(trees, key=_BY_KEY))
        self.trees = ts
        self.key = " ".join(t.key for t in ts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.trees == other.trees

    def __hash__(self) -> int:
        return hash(self.trees)

    def __repr__(self) -> str:
        return f"Forest({self.key!r})"

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.trees)

    def __len__(self) -> int:
        return len(self.trees)

    @property
    def vertices(self) -> int:
        return sum(t.vertices for t in self.trees)

    @property
    def edges(self) -> int:
        return sum(t.vertices - 1 for t in self.trees)

    @property
    def leaves(self) -> int:
        return sum(t.leaves for t in self.trees)


EMPTY_FOREST = Forest()


def attach_root(forest: Forest) -> Tree:
    """Add a common root below all trees of the forest (empty forest -> leaf)."""
    return Tree(forest.trees)


def detach_root(tree: Tree) -> Forest:
    """The forest of the root's branches; inverse of attach_root."""
    return Forest(tree.children)


class TreeStats(NamedTuple):
    vertices: int
    edges: int
    leaves: int


def stats(t: Union[Tree, Forest]) -> TreeStats:
    """(vertices, edges, leaves) of a tree or forest."""
    return TreeStats(t.vertices, t.edges, t.leaves)


# -- bracket codec ----------------------------------------------------------


_STRAY = re.compile(r"[^\[\]\s]")  # \s is str.isspace, as in the grammar


def bracket_depth(s: str) -> int:
    """Check the bracket grammar in one pass that builds no tree, and return
    the deepest nesting (the tallest tree's height; 0 for no trees).

    Grammar: a tree term is "[" followed by zero or more tree terms followed
    by "]"; terms are separated by optional whitespace.  Raises ParseError
    with the offset of the first offending character: a stray character or
    an unmatched "]", or at the end the outermost "[" still open.
    """
    codes = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    steps = (codes == ord("[")).astype(np.int8) - (codes == ord("]"))
    depth = np.cumsum(steps, dtype=np.intp)
    stray = _STRAY.search(s)
    end = stray.start() if stray else len(s)
    unmatched = depth[:end] < 0
    if unmatched.any():
        raise ParseError("unmatched ']'", int(unmatched.argmax()))
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", end)
    if depth.size and depth[-1]:
        closed = np.flatnonzero(depth == 0)  # the outermost open "[" comes after these
        raise ParseError("unclosed '['", s.index("[", closed[-1] + 1 if closed.size else 0))
    return int(depth.max(initial=0))


def parse_forest(s: str) -> Forest:
    """Parse whitespace-separated bracket terms into a canonical forest.

    Child order in the input is irrelevant; the result is canonical.  The
    grammar and its errors are ``bracket_depth``'s, which checks s first.
    """
    bracket_depth(s)
    stack: list[list[Tree]] = [[]]
    for ch in s:
        if ch == "[":
            stack.append([])
        elif ch == "]":
            kids = stack.pop()
            stack[-1].append(Tree(kids))
    return Forest(stack[0])


def print_forest(f: Forest) -> str:
    """Canonical bracket string; inverse of parse_forest on canonical input."""
    return f.key


# -- renderers ---------------------------------------------------------------


def render(obj: Union[Tree, Forest], format: str = "ascii") -> str:
    """Render a tree or forest as indented ASCII or as a DOT digraph.

    ascii: each component lists its root first, children indented two spaces
    per depth (the root sits at the bottom-most logical level).
    dot: edges oriented root -> child, node ids are per-component preorder
    indices, so output is deterministic and diff-friendly.
    """
    walk = _preorder((obj,) if isinstance(obj, Tree) else obj.trees)
    if format == "ascii":
        return "\n".join("  " * depth + "*" for _, _, depth, _ in walk)
    if format == "dot":
        lines = ["digraph forest {", "  node [shape=point];"]
        for comp, vertex, _, parent in walk:
            lines.append(f"  n{comp}_{vertex};")
            if parent is not None:
                lines.append(f"  n{comp}_{parent} -> n{comp}_{vertex};")
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown render format: {format!r}")


def _preorder(trees: tuple[Tree, ...]) -> Iterator[tuple[int, int, int, int | None]]:
    """(component, vertex, depth, parent) of every vertex in preorder, with one
    explicit stack; vertex and parent are per-component preorder indices."""
    for comp, root in enumerate(trees):
        stack: list[tuple[Tree, int, int | None]] = [(root, 0, None)]
        vertex = 0
        while stack:
            node, depth, parent = stack.pop()
            yield comp, vertex, depth, parent
            stack.extend((child, depth + 1, vertex) for child in reversed(node.children))
            vertex += 1
