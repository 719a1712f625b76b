"""Normalized bicolored binary forests and their merge/chain combinatorics.

Trees are immutable recursive structures; every vertex caches the valency
(smallest leaf label below it).  Forests keep their trees sorted by valency.
The canonical encoding renders a leaf as its label and an internal vertex as
"(left right)^color", trees joined by "|", e.g. "((1 4)^1 (2 3)^0)^0".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence, Union

from .config import DEFAULT_LIMITS, Limits
from .errors import InternalGuardError, InvalidForestError, InvalidMergeError
from .partitions import (
    PairLabel,
    PointedPartition,
    WeightedPartition,
    _check_n,
    label_less_bullet,
    label_less_w,
)
from .poset import GradedPoset, closure

POINTED = "pointed"
WEIGHTED = "weighted"
FLAVORS = (POINTED, WEIGHTED)


@dataclass(frozen=True)
class Leaf:
    label: int

    @property
    def valency(self) -> int:
        return self.label

    def render(self) -> str:
        return str(self.label)


@dataclass(frozen=True)
class Node:
    left: "Tree"
    right: "Tree"
    color: int
    valency: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.color not in (0, 1):
            raise InvalidForestError("vertex color must be 0 or 1")
        object.__setattr__(
            self, "valency", min(self.left.valency, self.right.valency)
        )

    def render(self) -> str:
        return f"({self.left.render()} {self.right.render()})^{self.color}"


Tree = Union[Leaf, Node]


def leaf_labels(t: Tree) -> list[int]:
    if isinstance(t, Leaf):
        return [t.label]
    return leaf_labels(t.left) + leaf_labels(t.right)


def internal_vertices(t: Tree) -> list[Node]:
    if isinstance(t, Leaf):
        return []
    return internal_vertices(t.left) + internal_vertices(t.right) + [t]


def is_normalized(t: Tree) -> bool:
    """The smallest leaf label sits to the left at every internal vertex."""
    if isinstance(t, Leaf):
        return True
    return (
        t.left.valency < t.right.valency
        and is_normalized(t.left)
        and is_normalized(t.right)
    )


def is_lyndon_vertex(v: Node) -> bool:
    """Left child a leaf, or the left child's right valency exceeds v's."""
    if isinstance(v.left, Leaf):
        return True
    return v.left.right.valency > v.right.valency


def _pointed_ok(v: Node) -> bool:
    if isinstance(v.left, Leaf):
        return True
    if v.left.color < v.color:
        return False
    if v.left.color == v.color == 1 and not is_lyndon_vertex(v):
        return False
    return True


def _bicolored_ok(v: Node) -> bool:
    if isinstance(v.left, Leaf):
        return True
    return is_lyndon_vertex(v) or v.left.color > v.color


_VERTEX_RULE = {POINTED: _pointed_ok, WEIGHTED: _bicolored_ok}


def tree_valid(t: Tree, flavor: str) -> bool:
    return is_normalized(t) and all(_VERTEX_RULE[flavor](v) for v in internal_vertices(t))


@dataclass(frozen=True)
class BicoloredForest:
    """A set of bicolored binary trees with pairwise disjoint leaf labels."""

    trees: tuple[Tree, ...]

    def __post_init__(self) -> None:
        labels: set[int] = set()
        for t in self.trees:
            these = leaf_labels(t)
            if labels & set(these):
                raise InvalidForestError("leaf label sets must be disjoint")
            labels |= set(these)
        vals = [t.valency for t in self.trees]
        if vals != sorted(vals):
            raise InvalidForestError("trees must be sorted by minimal leaf")

    @classmethod
    def of(cls, *trees: Tree) -> "BicoloredForest":
        return cls(tuple(sorted(trees, key=lambda t: t.valency)))

    @classmethod
    def bottom(cls, n: int) -> "BicoloredForest":
        return cls(tuple(Leaf(i) for i in range(1, n + 1)))

    def render(self) -> str:
        return "|".join(t.render() for t in self.trees)

    def leaf_set(self) -> list[int]:
        return sorted(l for t in self.trees for l in leaf_labels(t))

    def rank(self) -> int:
        return len(self.leaf_set()) - len(self.trees)


def is_pointed_lyndon(f: BicoloredForest) -> bool:
    return all(tree_valid(t, POINTED) for t in f.trees)


def is_bicolored_lyndon(f: BicoloredForest) -> bool:
    return all(tree_valid(t, WEIGHTED) for t in f.trees)


FOREST_PREDICATE = {POINTED: is_pointed_lyndon, WEIGHTED: is_bicolored_lyndon}


def reverse_minimal_extension(f: BicoloredForest) -> list[Node]:
    """The unique children-first ordering with weakly decreasing valencies.

    Equal-valency vertices lie on one leftmost path, so (valency desc,
    depth desc) is forced to be a linear extension.
    """
    order: list[tuple[int, int, Node]] = []

    def walk(t: Tree, depth: int) -> None:
        if isinstance(t, Leaf):
            return
        order.append((t.valency, depth, t))
        walk(t.left, depth + 1)
        walk(t.right, depth + 1)

    for t in f.trees:
        walk(t, 0)
    order.sort(key=lambda item: (-item[0], -item[1]))
    return [v for _, _, v in order]


def forest_word(f: BicoloredForest) -> list[PairLabel]:
    """Labels (valency(L), valency(R))^color along the reverse-minimal order."""
    return [
        PairLabel(v.left.valency, v.right.valency, v.color)
        for v in reverse_minimal_extension(f)
    ]


def forest_to_chain(
    f: BicoloredForest, flavor: str, strict: bool = True
) -> tuple[list, list[PairLabel]]:
    """The saturated chain from the bottom obtained by replaying the merges.

    Returns (partition objects bottom..top, word).  With ``strict`` the forest
    must satisfy the flavor's predicate; otherwise any normalized forest is
    accepted (the chain then need not be ascent-free).
    """
    if flavor not in FLAVORS:
        raise InvalidForestError(f"unknown flavor {flavor!r}")
    if strict and not FOREST_PREDICATE[flavor](f):
        raise InvalidForestError(f"forest {f.render()} is not {flavor}-valid")
    if not all(is_normalized(t) for t in f.trees):
        raise InvalidForestError("forest must be normalized")
    word = forest_word(f)
    cls = PointedPartition if flavor == POINTED else WeightedPartition
    chain = [cls.bottom(f.leaf_set())]
    blocks = {block[0][0]: block for block in chain[0].blocks}
    for lab in word:
        blocks[lab.a] = cls.joins(blocks[lab.a], blocks.pop(lab.b))[lab.u]
        chain.append(cls(tuple(blocks[m] for m in sorted(blocks))))
    return chain, word


def chain_to_forest(
    word: Sequence[PairLabel], n: int, flavor: str, strict: bool = True
) -> BicoloredForest:
    """Inverse of forest_to_chain: attach a colored vertex per merge label.

    With ``strict`` the word must be ascent-free for the flavor's label
    order (the result is then flavor-valid); otherwise any replayable word
    is accepted and yields a normalized forest.
    """
    if flavor not in FLAVORS:
        raise InvalidForestError(f"unknown flavor {flavor!r}")
    components: dict[int, Tree] = {i: Leaf(i) for i in range(1, n + 1)}
    for lab in word:
        if lab.a not in components or lab.b not in components:
            raise InvalidForestError(
                f"label {lab} does not merge two current components"
            )
        components[lab.a] = Node(components[lab.a], components[lab.b], lab.u)
        del components[lab.b]
    forest = BicoloredForest.of(*components.values())
    if strict:
        if not _word_ascent_free(word, flavor):
            raise InvalidForestError("word is not ascent-free for this flavor")
        if not FOREST_PREDICATE[flavor](forest):
            raise InternalGuardError(
                "ascent-free word produced an invalid forest; flavor rules are broken"
            )
    return forest


_LABEL_LESS = {POINTED: label_less_bullet, WEIGHTED: label_less_w}


def _word_ascent_free(word: Sequence[PairLabel], flavor: str) -> bool:
    less = _LABEL_LESS[flavor]
    return not any(less(a, b) for a, b in zip(word, word[1:]))


def u_merge(
    f: BicoloredForest, t1: Tree, t2: Tree, u: int, flavor: str
) -> BicoloredForest:
    """Join two trees of the forest under a new u-colored root, then slide.

    While the joined tree violates the flavor's conditions, the new vertex
    (keeping its right subtree) is exchanged with its left child: r with
    subtrees (x(A,B), C) becomes x(r(A,C), B).  Terminates because once the
    new vertex's left child is a leaf the conditions hold.
    """
    if t1 is t2 or t1 == t2:
        raise InvalidMergeError("cannot merge a tree with itself")
    if t1 not in f.trees or t2 not in f.trees:
        raise InvalidMergeError("both trees must belong to the forest")
    if t1.valency >= t2.valency:
        raise InvalidMergeError("first tree must carry the smaller minimal leaf")
    if not FOREST_PREDICATE[flavor](f):
        raise InvalidForestError(f"forest is not {flavor}-valid")

    spine: list[tuple[Tree, int]] = []  # (right subtree, color) of vertices above r
    r: Node = Node(t1, t2, u)

    def rebuild(sub: Tree) -> Tree:
        t = sub
        for right, color in reversed(spine):
            t = Node(t, right, color)
        return t

    for _ in range(len(internal_vertices(t1)) + 1):
        merged = rebuild(r)
        if tree_valid(merged, flavor):
            rest = [t for t in f.trees if t is not t1 and t is not t2]
            return BicoloredForest.of(*rest, merged)
        x = r.left
        if isinstance(x, Leaf):
            raise InternalGuardError("slide reached a leaf with conditions unmet")
        spine.append((x.right, x.color))
        r = Node(x.left, r.right, u)
    raise InternalGuardError("slide did not terminate within the tree height")


def build_flyn(n: int, flavor: str, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The poset of flavor-valid forests on [n]; covers are u-merges."""
    _check_n(n, limits.max_n_build)
    if flavor not in FLAVORS:
        raise InvalidForestError(f"unknown flavor {flavor!r}")

    def merges(forest: BicoloredForest) -> Iterator[BicoloredForest]:
        for t1, t2 in combinations(forest.trees, 2):
            for u in (0, 1):
                yield u_merge(forest, t1, t2, u, flavor)

    return closure(BicoloredForest.bottom(n), merges, BicoloredForest.render, limits)


# -- exhaustive enumeration (independent of the closure construction) -------------


def normalized_trees(leaves: Sequence[int]) -> Iterator[Tree]:
    """All normalized bicolored binary trees on the given leaf set."""
    leaves = tuple(sorted(leaves))
    if len(leaves) == 1:
        yield Leaf(leaves[0])
        return
    first, rest = leaves[0], leaves[1:]
    for size in range(0, len(rest)):
        for extra in combinations(rest, size):
            left_set = (first,) + extra
            right_set = tuple(v for v in rest if v not in extra)
            for lt in normalized_trees(left_set):
                for rt in normalized_trees(right_set):
                    for u in (0, 1):
                        yield Node(lt, rt, u)


def _set_partitions(items: tuple[int, ...]) -> Iterator[list[tuple[int, ...]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for size in range(0, len(rest) + 1):
        for extra in combinations(rest, size):
            block = (first,) + extra
            remaining = tuple(v for v in rest if v not in extra)
            for sub in _set_partitions(remaining):
                yield [block] + sub


def all_valid_forests(n: int, flavor: str) -> Iterator[BicoloredForest]:
    """Generate-and-filter enumeration of flavor-valid forests on [n]."""
    rule = FOREST_PREDICATE[flavor]

    def block_trees(block: tuple[int, ...]) -> list[Tree]:
        return [t for t in normalized_trees(block) if tree_valid(t, flavor)]

    def assemble(blocks: list[tuple[int, ...]], acc: list[Tree]) -> Iterator[BicoloredForest]:
        if not blocks:
            forest = BicoloredForest.of(*acc)
            if not rule(forest):
                raise InternalGuardError(
                    f"assembled forest {forest.render()} breaks the {flavor} rule"
                )
            yield forest
            return
        for t in block_trees(blocks[0]):
            yield from assemble(blocks[1:], acc + [t])

    for blocks in _set_partitions(tuple(range(1, n + 1))):
        yield from assemble(blocks, [])


def all_valid_trees(n: int, flavor: str) -> list[Tree]:
    """All flavor-valid single trees with leaf set [n]."""
    return [t for t in normalized_trees(range(1, n + 1)) if tree_valid(t, flavor)]
