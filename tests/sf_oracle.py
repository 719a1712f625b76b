"""Reference rooted spanning forest poset, built tree by tree.

``oracle_spanning_forest_poset`` is the earlier builder of the package's
spanning forest family: each tree is a ``RootedTree`` record of its
vertices, its sorted edges and its root, each forest a sorted tuple of
trees, and a u-merge of trees with minima a < b draws an edge between the
two roots and keeps B's root (u = 0) or A's (u = 1).  Each pair of trees is
joined once per build, keyed by the two trees' texts, and a joined tree is
interned by its text.  It shares nothing with the parent-tuple forests but
``poset.closure`` and ``_merge_tag``, and serves as the oracle that their
payloads, covers and cover tags must match.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from whitneydual.partitions import _merge_tag
from whitneydual.poset import GradedPoset, closure


def _edge_text(edges: tuple[tuple[int, int], ...]) -> str:
    """The edge list of a rooted tree's text: "1-2,2-3"."""
    return ",".join([f"{a}-{b}" for a, b in edges])


@dataclass(frozen=True, slots=True)
class RootedTree:
    """A rooted labeled tree given by its vertex set, edge set, and root;
    its text and hash are computed once, when it is built.  ``shape`` is
    the edge-list text and the hash of (vertices, edges), when the caller
    has them: the two trees of a join differ only in their root."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    shape: InitVar[Optional[tuple[str, int]]] = None
    text: str = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self, shape: Optional[tuple[str, int]]) -> None:
        if shape is None:
            shape = _edge_text(self.edges), hash((self.vertices, self.edges))
        inner, shape_hash = shape
        object.__setattr__(self, "text", f"{self.root}<{inner}>")
        object.__setattr__(self, "_hash", hash((shape_hash, self.root)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, slots=True)
class TreeForest:
    """A spanning forest of rooted trees, trees sorted by minimal vertex."""

    trees: tuple[RootedTree, ...]

    def render(self) -> str:
        return "/".join([t.text for t in self.trees])


def _joins(t1: RootedTree, t2: RootedTree) -> tuple[RootedTree, RootedTree]:
    """An edge between the two roots; u = 1 keeps the min tree's root."""
    edge = tuple(sorted((t1.root, t2.root)))
    vertices = tuple(sorted(t1.vertices + t2.vertices))
    edges = tuple(sorted(t1.edges + t2.edges + (edge,)))
    shape = _edge_text(edges), hash((vertices, edges))
    return (RootedTree(vertices, edges, t2.root, shape),
            RootedTree(vertices, edges, t1.root, shape))


def oracle_spanning_forest_poset(n: int) -> GradedPoset:
    """Rooted spanning forests of [n]; covers merge two trees at their roots,
    each tagged ``_merge_tag(min A, min B, u)``."""
    trees: dict[str, RootedTree] = {}
    joined: dict[tuple[str, str], tuple[RootedTree, RootedTree]] = {}

    def joins(t1: RootedTree, t2: RootedTree) -> tuple[RootedTree, RootedTree]:
        pair = (t1.text, t2.text)
        out = joined.get(pair)
        if out is None:
            a, b = _joins(t1, t2)
            out = joined[pair] = (trees.setdefault(a.text, a), trees.setdefault(b.text, b))
        return out

    def merges(forest: TreeForest) -> Iterator[tuple[int, tuple]]:
        parts = forest.trees
        for i, j in combinations(range(len(parts)), 2):
            head, middle, tail = parts[:i], parts[i + 1:j], parts[j + 1:]
            tag = _merge_tag(parts[i].vertices[0], parts[j].vertices[0], 0)
            for u, tree in enumerate(joins(parts[i], parts[j])):
                yield tag + u, head + (tree,) + middle + tail

    bottom = TreeForest(tuple(RootedTree((g,), (), g) for g in range(1, n + 1)))
    return closure(bottom, merges, TreeForest, TreeForest.render)
