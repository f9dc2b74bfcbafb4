"""Canonical rooted trees and forests, with a bracket codec and renderers.

A tree is an unordered multiset of child trees; storage order is canonical
(children ascending by their bracket string), so isomorphic trees compare
equal and the printer doubles as a canonical form.  Trees are interned:
structurally equal trees are the same object, which makes equality, hashing
and memoisation cheap in the bulk scans.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import ParseError

_BY_KEY = attrgetter("key")


class Tree:
    """A rooted tree; ``Tree(children)`` canonicalises and interns."""

    __slots__ = ("children", "key", "vertices", "leaves", "height")

    _intern: dict[str, "Tree"] = {}

    children: tuple["Tree", ...]
    key: str
    vertices: int
    leaves: int
    height: int  # vertices on the longest path from the root

    def __new__(cls, children: Iterable["Tree"] = ()):
        kids = tuple(sorted(children, key=_BY_KEY))
        key = "[%s]" % "".join(t.key for t in kids)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.children = kids
        self.key = key
        self.vertices = 1 + sum(t.vertices for t in kids)
        self.leaves = sum(t.leaves for t in kids) if kids else 1
        self.height = 1 + max((t.height for t in kids), default=0)
        cls._intern[key] = self
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
        return isinstance(other, Forest) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

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


def parse_forest(s: str) -> Forest:
    """Parse whitespace-separated bracket terms into a canonical forest.

    Grammar: a tree term is "[" followed by zero or more tree terms followed
    by "]".  Child order in the input is irrelevant; the result is canonical.
    Raises ParseError with the byte offset of the first offending character.
    """
    stack: list[list[Tree]] = [[]]
    opened_at: list[int] = []
    for i, ch in enumerate(s):
        if ch == "[":
            stack.append([])
            opened_at.append(i)
        elif ch == "]":
            if len(stack) == 1:
                raise ParseError("unmatched ']'", i)
            kids = stack.pop()
            opened_at.pop()
            stack[-1].append(Tree(kids))
        elif ch.isspace():
            continue
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if len(stack) > 1:
        raise ParseError("unclosed '['", opened_at[0])
    return Forest(stack[0])


def print_forest(f: Forest) -> str:
    """Canonical bracket string; inverse of parse_forest on canonical input."""
    return f.key


# -- renderers ---------------------------------------------------------------


def _as_trees(obj: Union[Tree, Forest]) -> tuple[Tree, ...]:
    return (obj,) if isinstance(obj, Tree) else obj.trees


def render(obj: Union[Tree, Forest], format: str = "ascii") -> str:
    """Render a tree or forest as indented ASCII or as a DOT digraph.

    ascii: each component lists its root first, children indented two spaces
    per depth (the root sits at the bottom-most logical level).
    dot: edges oriented root -> child, node ids are per-component preorder
    indices, so output is deterministic and diff-friendly.
    """
    if format == "ascii":
        return _render_ascii(_as_trees(obj))
    if format == "dot":
        return _render_dot(_as_trees(obj))
    raise ValueError(f"unknown render format: {format!r}")


def _render_ascii(trees: tuple[Tree, ...]) -> str:
    lines: list[str] = []

    def walk(t: Tree, depth: int) -> None:
        lines.append("  " * depth + "*")
        for child in t.children:
            walk(child, depth + 1)

    for t in trees:
        walk(t, 0)
    return "\n".join(lines)


def _render_dot(trees: tuple[Tree, ...]) -> str:
    lines = ["digraph forest {", "  node [shape=point];"]
    for comp, t in enumerate(trees):
        counter = [0]

        def walk(node: Tree, parent: str | None) -> None:
            name = f"n{comp}_{counter[0]}"
            counter[0] += 1
            lines.append(f"  {name};")
            if parent is not None:
                lines.append(f"  {parent} -> {name};")
            for child in node.children:
                walk(child, name)

        walk(t, None)
    lines.append("}")
    return "\n".join(lines)
