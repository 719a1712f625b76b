"""Normalized bicolored binary forests and their merge/chain combinatorics.

Trees are immutable recursive structures.  Every vertex records four small
ints once, when it is built: its valency (smallest leaf label below it), its
leaf set as a bitmask, a bitmask of the vertex rules (normalized, pointed,
bicolored) that hold at every vertex of its subtree, and its hash, from its
children's, so that hashing a tree or forest never walks it.  Each rule
looks only at one vertex, its left child and that child's right child, so
a vertex's rules are its children's rules ANDed with its own local ones, and
validity is one field read.  Forests keep their trees sorted by valency and
record the union of their leaf sets, the AND of their trees' rules and a
hash from their trees'.
The canonical encoding renders a leaf as its label and an internal vertex as
"(left right)^color", trees joined by "|", e.g. "((1 4)^1 (2 3)^0)^0".

The map phi sends a valid forest to an ascent-free chain (top, word) of the
flavor's partition poset; ``forest_word`` reads the word and ``chain_top``
the top straight off the trees.  ``flyn_to_sorting_dual`` finds the
isomorphism of the forest poset onto the sorting dual by walking the merge
tags of the covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Optional, Union

from .config import DEFAULT_LIMITS, Limits, check_n
from .errors import InternalGuardError, InvalidForestError, InvalidMergeError
from .isomorphism import tag_walk
from .labeling import EdgeLabeling
from .partitions import (
    PairLabel,
    PointedPartition,
    WeightedPartition,
    _merge_tag,
    _pair_merges,
)
from .poset import GradedPoset, closure

POINTED = "pointed"
WEIGHTED = "weighted"
FLAVORS = (POINTED, WEIGHTED)

# vertex rule bits; a tree is flavor-valid when it is normalized and the
# flavor's rule holds at every vertex
_NORMALIZED, _POINTED_OK, _BICOLORED_OK = 1, 2, 4
_ALL_RULES = _NORMALIZED | _POINTED_OK | _BICOLORED_OK
_VALID = {POINTED: _NORMALIZED | _POINTED_OK, WEIGHTED: _NORMALIZED | _BICOLORED_OK}
# the partition family where a forest's chain lives
_FAMILY = {POINTED: PointedPartition, WEIGHTED: WeightedPartition}


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise InvalidForestError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int
    leaves: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)
    rules = _ALL_RULES

    def __post_init__(self) -> None:
        if self.label < 0:
            raise InvalidForestError("leaf labels must be non-negative")
        object.__setattr__(self, "leaves", 1 << self.label)
        object.__setattr__(self, "_hash", hash(self.label))

    def __hash__(self) -> int:
        return self._hash

    @property
    def valency(self) -> int:
        return self.label

    def render(self) -> str:
        return str(self.label)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Node:
    left: "Tree"
    right: "Tree"
    color: int
    valency: int = field(init=False, compare=False)
    leaves: int = field(init=False, compare=False, repr=False)
    rules: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.color not in (0, 1):
            raise InvalidForestError("vertex color must be 0 or 1")
        left, right = self.left, self.right
        object.__setattr__(self, "valency", min(left.valency, right.valency))
        object.__setattr__(self, "leaves", left.leaves | right.leaves)
        rules = left.rules & right.rules & _local_rules(left, right, self.color)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_hash", hash((left._hash, right._hash, self.color)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Same shape, colors and labels; a stack of pairs, not recursion."""
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            if a.__class__ is Node:
                if a.color != b.color:
                    return False
                stack += ((a.right, b.right), (a.left, b.left))
            elif a.label != b.label:
                return False
        return True

    def __repr__(self) -> str:
        return f"Node({_render(self)!r})"

    def render(self) -> str:
        return _render(self)


Tree = Union[Leaf, Node]


_CLOSE = (")^0", ")^1")  # the text after a vertex's right subtree, by color


def _render(t: Tree) -> str:
    """The canonical text of t; a stack, not recursion, so deep trees render.

    Walks down each left spine, opening "(" and stacking each vertex.  Once
    a vertex's left subtree is written, it writes " ", puts the vertex's
    ")^color" in its place on the stack and walks its right subtree; that
    text is popped and written once the right subtree is done.
    """
    out: list[str] = []
    stack: list = []
    while True:
        while t.__class__ is Node:
            out.append("(")
            stack.append(t)
            t = t.left
        out.append(str(t.label))
        while stack:
            v = stack[-1]
            if v.__class__ is str:
                out.append(stack.pop())
                continue
            out.append(" ")
            stack[-1] = _CLOSE[v.color]
            t = v.right
            break
        else:
            return "".join(out)


def _local_rules(left: Tree, right: Tree, color: int) -> int:
    """The rule bits that hold at a vertex of this color over left and right,
    read before it is built: the smaller valency on the left; if left is
    internal, pointed needs its color at least the vertex's and a Lyndon
    vertex when both are 1, bicolored a Lyndon vertex or its color above the
    vertex's."""
    rules = _NORMALIZED if left.valency < right.valency else 0
    if left.__class__ is Leaf:
        return rules | _POINTED_OK | _BICOLORED_OK
    lyndon = left.right.valency > right.valency
    if left.color > color or (left.color == color and (color == 0 or lyndon)):
        rules |= _POINTED_OK
    if lyndon or left.color > color:
        rules |= _BICOLORED_OK
    return rules


def is_valid(x: Tree | BicoloredForest, flavor: str) -> bool:
    """A tree or forest is normalized, with the flavor's vertex rule at every
    internal vertex."""
    return x.rules & _VALID[flavor] == _VALID[flavor]


@dataclass(frozen=True, slots=True)
class BicoloredForest:
    """A set of bicolored binary trees with pairwise disjoint leaf labels."""

    trees: tuple[Tree, ...]
    leaves: int = field(init=False, compare=False, repr=False)
    rules: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        leaves, rules = 0, _ALL_RULES
        for t in self.trees:
            if leaves & t.leaves:
                raise InvalidForestError("leaf label sets must be disjoint")
            leaves |= t.leaves
            rules &= t.rules
        vals = [t.valency for t in self.trees]
        if vals != sorted(vals):
            raise InvalidForestError("trees must be sorted by minimal leaf")
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_hash", hash(tuple([t._hash for t in self.trees])))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, *trees: Tree) -> "BicoloredForest":
        return cls(tuple(sorted(trees, key=lambda t: t.valency)))

    @classmethod
    def bottom(cls, n: int) -> "BicoloredForest":
        return cls(tuple(Leaf(i) for i in range(1, n + 1)))

    def render(self) -> str:
        return "|".join([_render(t) for t in self.trees])


def reverse_minimal_extension(f: BicoloredForest) -> list[Node]:
    """The unique children-first ordering with weakly decreasing valencies.

    Equal-valency vertices lie on one leftmost path, so (valency desc,
    depth desc) is forced to be a linear extension.
    """
    order: list[tuple[int, int, Node]] = []
    stack: list[tuple[Tree, int]] = [(t, 0) for t in f.trees]
    while stack:
        t, depth = stack.pop()
        if isinstance(t, Node):
            order.append((t.valency, depth, t))
            stack += ((t.left, depth + 1), (t.right, depth + 1))
    order.sort(key=lambda item: (-item[0], -item[1]))
    return [v for _, _, v in order]


def forest_word(f: BicoloredForest, flavor: str) -> list[PairLabel]:
    """The word of phi(f): labels (valency(L), valency(R))^color along the
    reverse-minimal order.  The forest must satisfy the flavor's predicate,
    so the word is ascent-free for the flavor's label order; anything else
    raises InvalidForestError."""
    _check_flavor(flavor)
    if not is_valid(f, flavor):
        raise InvalidForestError(f"forest {f.render()} is not {flavor}-valid")
    return [
        PairLabel(v.left.valency, v.right.valency, v.color)
        for v in reverse_minimal_extension(f)
    ]


def tree_point(t: Tree) -> int:
    """The point of t's block at the top of its chain: a 1-merge keeps the
    min block's point and a 0-merge the other block's, so it is the leaf
    reached from the root by going left at 1-colored vertices and right at
    0-colored ones."""
    while isinstance(t, Node):
        t = t.left if t.color else t.right
    return t.label


def _ones(t: Tree) -> int:
    """The number of 1-colored vertices of t; a stack, not recursion."""
    count, stack = 0, [t]
    while stack:
        v = stack.pop()
        if isinstance(v, Node):
            count += v.color
            stack += (v.left, v.right)
    return count


def chain_top(f: BicoloredForest, flavor: str) -> PointedPartition | WeightedPartition:
    """The top of phi(f), read off the trees: one block per tree, its members
    the tree's leaves, pointed at ``tree_point`` or weighted by the number of
    1-colored vertices, since each u-merge adds u to the weight.  Validity
    is left to ``forest_word``."""
    _check_flavor(flavor)
    cls = _FAMILY[flavor]
    tag = tree_point if flavor == POINTED else _ones
    return cls(tuple(
        (tuple(i for i in range(t.leaves.bit_length()) if t.leaves >> i & 1), tag(t))
        for t in f.trees
    ))


def u_merge(t1: Tree, t2: Tree, u: int, flavor: str) -> Tree:
    """Join two trees under a new u-colored vertex r, then slide r down:
    while the tree breaks the flavor's rules, r with subtrees (x(A,B), t2)
    becomes x(r(A,t2), B).  Only r's own rules can fail, since each step
    mends those of the vertex above r, and the vertices above that keep
    their children's valencies, colors and right children.  So r stops over
    the first vertex X of t1's left spine where ``_local_rules(X, t2, u)``
    hold, at the latest t1's minimal leaf, and only r and the spine above it
    are built."""
    _check_flavor(flavor)
    if t1.leaves & t2.leaves:
        raise InvalidMergeError("the two trees share a leaf")
    if t1.valency >= t2.valency:
        raise InvalidMergeError("first tree must carry the smaller minimal leaf")
    need = _VALID[flavor]
    if t1.rules & t2.rules & need != need:
        raise InvalidForestError(f"a merged tree is not {flavor}-valid")

    spine: list[Node] = []  # the vertices above r, top down
    x = t1
    while _local_rules(x, t2, u) & need != need:
        spine.append(x)
        x = x.left
    merged: Tree = Node(x, t2, u)
    for v in reversed(spine):
        merged = Node(merged, v.right, v.color)
    if merged.rules & need != need:
        raise InternalGuardError("slide ended with the flavor's conditions unmet")
    return merged


def build_flyn(n: int, flavor: str, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The poset of flavor-valid forests on [n]; covers are u-merges, keyed
    by their trees as the partition families' are by their blocks."""
    check_n(n)
    _check_flavor(flavor)

    def joins(t1: Tree, t2: Tree) -> tuple[Tree, Tree]:
        return u_merge(t1, t2, 0, flavor), u_merge(t1, t2, 1, flavor)

    valency = attrgetter("valency")
    merges = lambda forest: _pair_merges(forest.trees, valency, joins)
    return closure(BicoloredForest.bottom(n), merges, BicoloredForest, BicoloredForest.render,
                   limits)


def flyn_to_sorting_dual(
    flyn: GradedPoset, dual: GradedPoset, labeling: EdgeLabeling,
    limits: Limits = DEFAULT_LIMITS,
) -> Optional[list[int]]:
    """The isomorphism of ``build_flyn`` onto ``construct_R(labeling.poset,
    labeling)`` that sends each u-merge of trees with minimal leaves a < b to
    the cover of the dual that appends (a,b)^u, as a list of images; None if
    the merge tags give none.

    A forest cover's tag is ``_merge_tag(a, b, u)`` and a dual cover's the
    index of its label in the labeling's label poset, read here as the
    merge tag of that label; ``tag_walk`` finds and checks the map.
    """
    labels = labeling.label_poset.labels
    as_tag = [_merge_tag(lab.a, lab.b, lab.u) for lab in labels]
    tags = None if dual.cover_tags is None else [as_tag[i] for i in dual.cover_tags]
    return tag_walk(flyn, flyn.cover_tags, dual, tags, limits)


def all_valid_trees(n: int, flavor: str) -> list[Tree]:
    """All flavor-valid single trees with leaf set [n].

    Every subtree of a valid tree is valid, so the trees on a leaf set are
    the valid u-joins of the valid trees on the two sides of each split,
    memoised per leaf set.  Each split puts the minimum on the left, and the
    trees come in the order of generating every normalized tree and keeping
    the valid ones.
    """
    _check_flavor(flavor)
    memo: dict[tuple[int, ...], list[Tree]] = {}

    def trees(leaves: tuple[int, ...]) -> list[Tree]:
        if leaves in memo:
            return memo[leaves]
        if len(leaves) == 1:
            out: list[Tree] = [Leaf(leaves[0])]
        else:
            first, rest = leaves[0], leaves[1:]
            out = []
            for size in range(len(rest)):
                for extra in combinations(rest, size):
                    right = tuple(v for v in rest if v not in extra)
                    for lt in trees((first,) + extra):
                        for rt in trees(right):
                            for u in (0, 1):
                                t = Node(lt, rt, u)
                                if is_valid(t, flavor):
                                    out.append(t)
        memo[leaves] = out
        return out

    return trees(tuple(range(1, n + 1)))
