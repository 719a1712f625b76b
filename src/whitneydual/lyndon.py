"""Normalized bicolored binary forests and their merge/chain combinatorics.

Trees are immutable recursive structures: a leaf's label is a non-negative
int, a vertex's color the int 0 or 1, and its two children share no leaf,
else InvalidForestError.  Every vertex records six small ints once, when it
is built: its valency (smallest leaf label below it), its leaf set as a
bitmask, a bitmask of the vertex rules (normalized, pointed, bicolored) that
hold at every vertex of its subtree, its point and weight in the top of
phi's chain (the left child's point at a 1-colored vertex and the right
child's at a 0-colored one; the children's weights plus its color), and its
hash, from its children's, so that hashing a tree or forest never walks it.
It also carries its canonical ``text``, written from its children's texts,
so that rendering, ``repr`` and comparing two trees never walk one either.
The pointed (bicolored) rule is read off ``label_less_bullet``
(``label_less_w``).  Each rule looks only at one vertex, its left child and
that child's right child, so a vertex's rules are its children's ANDed with
its own, and validity is one field read.  Forests keep their trees sorted by
valency and record the union of their leaf sets and the AND of their trees'
rules.
The canonical encoding renders a leaf as its label and an internal vertex as
"(left right)^color", trees joined by "|", e.g. "((1 4)^1 (2 3)^0)^0".
``build_flyn`` slides a pair of trees wherever a forest holds it and builds
each vertex once, through a table keyed by its children's identities and
its color that it hands to ``u_merge``, so equal trees are one object.

The map phi sends a valid forest to an ascent-free chain (top, word) of the
flavor's partition poset.  ``phi_reader`` reads both off the trees and
memoises each vertex's sorted letters, so a forest's word is its trees'
letters merged.  ``flyn_to_sorting_dual`` finds the isomorphism of the
forest poset onto the sorting dual of the flavor's partition labeling
(``label_lambda_bullet`` or ``label_lambda_w``) by walking the merge tags of
the covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Callable, Optional, Union

from .config import DEFAULT_LIMITS, Limits, check_n
from .errors import InternalGuardError, InvalidForestError, InvalidMergeError, PreconditionError
from .isomorphism import tag_walk
from .labeling import EdgeLabeling
from .partitions import (
    PairLabel,
    _merge_tag,
    _pair_merges,
    label_less_bullet,
    label_less_w,
)
from .poset import GradedPoset, closure

POINTED = "pointed"
WEIGHTED = "weighted"
FLAVORS = (POINTED, WEIGHTED)

# vertex rule bits; a tree is flavor-valid when it is normalized and the
# flavor's rule holds at every vertex
_NORMALIZED, _POINTED_OK, _BICOLORED_OK = 1, 2, 4
_ALL_RULES = _NORMALIZED | _POINTED_OK | _BICOLORED_OK
# per flavor: its rule bit and the label order in which phi's words are the
# ascent-free ones
_FLAVOR = {
    POINTED: (_POINTED_OK, label_less_bullet),
    WEIGHTED: (_BICOLORED_OK, label_less_w),
}
_VALID = {flavor: _NORMALIZED | bit for flavor, (bit, _) in _FLAVOR.items()}
# the field of a tree that tags its block in the top of phi's chain
_TOP_FIELD = {POINTED: attrgetter("point"), WEIGHTED: attrgetter("weight")}
# the flavor rule bits at a vertex (a,r)^u over an internal left child
# (a,b)^c, at 4 * (b > r) + 2 * c + u: each holds unless the child's label is
# below the vertex's.  The orders compare by < and = only: a = 1, b, r in {2, 3} stand for all
_LEFT_INTERNAL_RULES = tuple(
    sum(bit for bit, less in _FLAVOR.values()
        if not less(PairLabel(1, 2 + b_above_r, c), PairLabel(1, 3 - b_above_r, u)))
    for b_above_r in (0, 1) for c in (0, 1) for u in (0, 1)
)


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise InvalidForestError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int
    leaves: int = field(init=False, compare=False, repr=False)
    text: str = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)
    rules = _ALL_RULES
    weight = 0

    def __post_init__(self) -> None:
        if type(self.label) is not int or self.label < 0:
            raise InvalidForestError(f"leaf label {self.label!r} is not a non-negative int")
        object.__setattr__(self, "leaves", 1 << self.label)
        object.__setattr__(self, "text", str(self.label))
        object.__setattr__(self, "_hash", hash(self.label))

    def __hash__(self) -> int:
        return self._hash

    @property
    def valency(self) -> int:
        return self.label

    @property
    def point(self) -> int:
        return self.label


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Node:
    left: "Tree"
    right: "Tree"
    color: int
    valency: int = field(init=False, compare=False)
    leaves: int = field(init=False, compare=False, repr=False)
    rules: int = field(init=False, compare=False, repr=False)
    point: int = field(init=False, compare=False, repr=False)
    weight: int = field(init=False, compare=False, repr=False)
    text: str = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        left, right, color = self.left, self.right, self.color
        if type(color) is not int or color not in (0, 1):
            raise InvalidForestError(f"vertex color {color!r} is not the int 0 or 1")
        if left.leaves & right.leaves:
            raise InvalidForestError("the two children share a leaf")
        object.__setattr__(self, "valency", min(left.valency, right.valency))
        object.__setattr__(self, "leaves", left.leaves | right.leaves)
        rules = left.rules & right.rules & _local_rules(left, right, color)
        object.__setattr__(self, "rules", rules)
        # a 1-merge keeps the min block's point and a 0-merge the other's
        object.__setattr__(self, "point", left.point if color else right.point)
        object.__setattr__(self, "weight", left.weight + right.weight + color)
        object.__setattr__(self, "text", f"({left.text} {right.text})^{color:d}")
        object.__setattr__(self, "_hash", hash((left._hash, right._hash, color)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Same shape, colors and labels: the same canonical text."""
        return other.__class__ is Node and self.text == other.text

    def __repr__(self) -> str:
        return f"Node({self.text!r})"


Tree = Union[Leaf, Node]


def _local_rules(left: Tree, right: Tree, color: int) -> int:
    """The rule bits at a vertex of this color over left and right, read
    before it is built: the smaller valency on the left, and each flavor's
    rule unless left is internal with its label below the vertex's.  phi's
    word runs down the valencies, labels with distinct first entries are no
    ascent, and a valency's vertices lie on one left path, child first."""
    rules = _NORMALIZED if left.valency < right.valency else 0
    if left.__class__ is Leaf:
        return rules | _POINTED_OK | _BICOLORED_OK
    i = 4 * (left.right.valency > right.valency) + 2 * left.color + color
    return rules | _LEFT_INTERNAL_RULES[i]


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

    @classmethod
    def of(cls, *trees: Tree) -> "BicoloredForest":
        return cls(tuple(sorted(trees, key=lambda t: t.valency)))

    @classmethod
    def bottom(cls, n: int) -> "BicoloredForest":
        return cls(tuple(Leaf(i) for i in range(1, n + 1)))

    def render(self) -> str:
        return "|".join([t.text for t in self.trees])


def phi_reader(flavor: str) -> Callable[[BicoloredForest], tuple[tuple, tuple[int, ...]]]:
    """A reader of phi for the flavor: ``read(forest) -> (top, word)``.

    The top holds one block per tree, (leaf bitmask, point or weight).  The
    word holds the merge tag of each vertex's label (valency(L),
    valency(R))^color, sorted on (valency desc, leaf count asc): vertices of
    one valency all hold that leaf, so they lie on one path and the deeper
    has fewer leaves.  That order is children first, and no two vertices of
    one forest share the key.

    Each vertex is read once per reader, without recursion: its sorted
    entries (``_phi_entry``) are its children's merged with its own, kept
    with its tags and its block in a memo keyed by the vertex's identity.
    The memo holds each vertex, so no id is reused while the reader lives.
    A forest that is not flavor-valid raises InvalidForestError, as does an
    unknown flavor.
    """
    _check_flavor(flavor)
    need = _VALID[flavor]
    tag_of = _TOP_FIELD[flavor]
    memo: dict[int, tuple[Tree, tuple, tuple[int, ...], tuple[int, int]]] = {}

    def visit(root: Tree) -> tuple:
        stack = [root]
        while stack:
            t = stack[-1]
            if id(t) in memo:
                stack.pop()
                continue
            entries: tuple = ()
            if t.__class__ is Node:
                left, right = memo.get(id(t.left)), memo.get(id(t.right))
                if left is None or right is None:
                    stack += [c for c, m in ((t.left, left), (t.right, right)) if m is None]
                    continue
                entries = tuple(sorted((*left[1], *right[1], _phi_entry(t))))
            memo[id(t)] = (t, entries, tuple([e[-1] for e in entries]), (t.leaves, tag_of(t)))
            stack.pop()
        return memo[id(root)]

    def read(forest: BicoloredForest) -> tuple[tuple, tuple[int, ...]]:
        if forest.rules & need != need:
            raise InvalidForestError(f"forest {forest.render()} is not {flavor}-valid")
        trees = [memo.get(id(t)) or visit(t) for t in forest.trees]
        top = tuple([m[3] for m in trees])
        internal = [m for m in trees if m[1]]
        if len(internal) == 1:
            return top, internal[0][2]
        entries = sorted([e for m in internal for e in m[1]])
        return top, tuple([e[-1] for e in entries])

    return read


def _phi_entry(v: Node) -> tuple[int, int, int]:
    """v's letter of phi's word under its sort key: valency descending, then
    leaf count ascending, then the merge tag of (valency(L), valency(R))^color."""
    return -v.valency, v.leaves.bit_count(), _merge_tag(v.left.valency, v.right.valency, v.color)


def u_merge(
    t1: Tree, t2: Tree, u: int, flavor: str, node: Callable[[Tree, Tree, int], Node] = Node,
) -> Tree:
    """Join two trees under a new u-colored vertex r, then slide r down:
    while the tree breaks the flavor's rules, r with subtrees (x(A,B), t2)
    becomes x(r(A,t2), B).  Only r's own rules can fail, since each step
    mends those of the vertex above r, and the vertices above that keep
    their children's valencies, colors and right children.  So r stops over
    the first vertex X of t1's left spine where ``_local_rules(X, t2, u)``
    hold, at the latest t1's minimal leaf, and only r and the spine above it
    are built, each by ``node(left, right, color)``: ``build_flyn`` passes
    its vertex table.  A color u other than the int 0 or 1 is refused."""
    if u.__class__ is not int or u >> 1:  # 0 and 1 are the ints with u >> 1 == 0
        raise InvalidMergeError(f"merge color {u!r} is not the int 0 or 1")
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
    merged: Tree = node(x, t2, u)
    for v in reversed(spine):
        merged = node(merged, v.right, v.color)
    if merged.rules & need != need:
        raise InternalGuardError("slide ended with the flavor's conditions unmet")
    return merged


def build_flyn(n: int, flavor: str, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The poset of flavor-valid forests on [n]; covers are u-merges, keyed
    by their trees as the partition families' are by their blocks.  A pair
    of trees is slid for each forest that holds it, and each vertex is built
    once: the slides get it from a table keyed by its children's identities
    and its color.  The children are that table's vertices or the bottom's
    leaves, so equal trees are one object, and a slide that repeats one
    builds nothing."""
    check_n(n)
    _check_flavor(flavor)
    vertices: dict[tuple[int, int, int], Node] = {}

    def node(left: Tree, right: Tree, color: int) -> Node:
        key = (id(left), id(right), color)
        v = vertices.get(key)
        if v is None:
            v = vertices[key] = Node(left, right, color)
        return v

    def slides(t1: Tree, t2: Tree) -> tuple[Tree, Tree]:
        return u_merge(t1, t2, 0, flavor, node), u_merge(t1, t2, 1, flavor, node)

    valency = attrgetter("valency")
    merges = lambda forest: _pair_merges(forest.trees, valency, slides)
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
    for lab in labels:
        if lab.__class__ is not PairLabel:
            raise PreconditionError(f"label {lab!r} is no merge label (a,b)^u")
    as_tag = [_merge_tag(lab.a, lab.b, lab.u) for lab in labels]
    tags = None if dual.cover_tags is None else [as_tag[i] for i in dual.cover_tags]
    return tag_walk(flyn, flyn.cover_tags, dual, tags, limits)


def all_valid_trees(n: int, flavor: str) -> list[Tree]:
    """All flavor-valid single trees with leaf set [n].

    Every subtree of a valid tree is valid, so the trees on a leaf set are
    the valid u-joins of the valid trees on the two sides of each split,
    memoised per leaf set, and a vertex is built only once its rules are
    read to hold.  Each split puts the minimum on the left, and the
    trees come in the order of generating every normalized tree and keeping
    the valid ones.
    """
    _check_flavor(flavor)
    return _valid_trees(tuple(range(1, n + 1)), _VALID[flavor], {})


def _valid_trees(
    leaves: tuple[int, ...], need: int, memo: dict[tuple[int, ...], list[Tree]]
) -> list[Tree]:
    """The trees of ``all_valid_trees`` on ``leaves``; ``memo`` holds those
    of each leaf set met so far, and is dropped with its caller's frame."""
    if leaves in memo:
        return memo[leaves]
    if len(leaves) == 1:
        out: list[Tree] = [Leaf(leaves[0])]
    else:
        first, rest = leaves[0], leaves[1:]
        out = []
        for size in range(len(rest)):
            for extra in combinations(rest, size):
                lefts = _valid_trees((first,) + extra, need, memo)
                rights = _valid_trees(tuple(v for v in rest if v not in extra), need, memo)
                for lt in lefts:
                    for rt in rights:
                        for u in (0, 1):
                            if _local_rules(lt, rt, u) & need == need:
                                out.append(Node(lt, rt, u))
    memo[leaves] = out
    return out
