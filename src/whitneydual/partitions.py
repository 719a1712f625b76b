"""Weighted/pointed partition posets, rooted spanning forests, and labelings.

Each family is generated from its bottom element by ``poset.closure`` under
one cover rule: join two blocks (or trees) in every allowed way, tagging
each cover with its merge label (``_merge_tag``), which the labelings read,
and keying it by its parts (a forest: its parent tuple), from which the
closure builds each new element.
Each of the label orders lambda_w and lambda_bullet is one predicate on
PairLabels here, shared by the label posets and the Lyndon forest rules;
a labeling of a whole family is swept from one bottom per rank.

Canonical element encodings (also the JSON payloads):
    weighted  block {1,3} with weight 1      ->  "13^1",  blocks joined by "/"
    pointed   block {1,3} pointed at 3       ->  "1~3"    (tilde before the point)
    plain     block {1,3}                    ->  "13"
    forest    tree with root 1, edge {1,2}   ->  "1<1-2>"  (held as parents (0, 1, 1))
Blocks and trees are ordered by their minima, elements ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterator, Sequence

from .config import DEFAULT_LIMITS, MAX_N, Limits, check_n
from .errors import NotGradedError, PreconditionError
from .labeling import EdgeLabeling, LabelPoset
from .poset import GradedPoset, closure


# -- element types ---------------------------------------------------------------


def _pair_merges(parts: tuple, low, joins) -> Iterator[tuple[int, tuple]]:
    """Every cover that u-merges two parts A, B with low(A) < low(B), tagged
    with its label and keyed by its parts: (``_merge_tag(low(A), low(B), u)``,
    the cover's parts).

    ``parts`` is sorted by ``low``, and ``joins(A, B)`` is the merged part of
    each u-merge, indexed by u, whose low is low(A).  So it takes A's slot,
    the other parts are kept, and the key, the argument of the family's
    constructor, needs no sort.  No element is built here: ``closure``
    builds one per key new in its rank.
    """
    for i, j in combinations(range(len(parts)), 2):
        head, middle, tail = parts[:i], parts[i + 1:j], parts[j + 1:]
        tag = _merge_tag(low(parts[i]), low(parts[j]), 0)
        for u, joined in enumerate(joins(parts[i], parts[j])):
            yield tag + u, head + (joined,) + middle + tail


def _merge_tag(a: int, b: int, u: int) -> int:
    """One small int per label (a,b)^u, 0 <= a < b, whatever the ground set:
    twice the pair's position in the colexicographic order of pairs, plus u."""
    return 2 * a + b * (b - 1) + u


def _block_min(block) -> int:
    return block[0][0]


def _check_int(value: object, what: str) -> None:
    """Raise NotGradedError unless value is an int; type(), not isinstance(),
    so True and False are refused."""
    if type(value) is not int:
        raise NotGradedError(f"{what} {value!r} is not an int")


def _check_blocks(blocks: Sequence[tuple[int, ...]]) -> None:
    """Raise NotGradedError unless each block is a nonempty tuple of ints,
    sorted and distinct, and the blocks are disjoint and sorted by minimum."""
    seen: set[int] = set()
    for members in blocks:
        if set(map(type, members)) != {int}:
            raise NotGradedError(f"block {members!r} is not a nonempty tuple of ints")
        if tuple(sorted(members)) != members:
            raise NotGradedError("block members must be sorted")
        if not seen.isdisjoint(members):
            raise NotGradedError("blocks must be disjoint")
        seen.update(members)
    if len(seen) != sum(map(len, blocks)):
        raise NotGradedError("block members must be distinct")
    mins = [members[0] for members in blocks]
    if mins != sorted(mins):
        raise NotGradedError("blocks must be sorted by minimum")


@dataclass(frozen=True, slots=True)
class PairLabel:
    """The label (a,b)^u attached to a merge of blocks with minima a < b."""

    a: int
    b: int
    u: int

    def __post_init__(self) -> None:
        for entry in (self.a, self.b, self.u):
            _check_int(entry, "label entry")
        if not self.a < self.b:
            raise NotGradedError(f"label ({self.a},{self.b}) needs a < b")
        if self.u not in (0, 1):
            raise NotGradedError("label color must be 0 or 1")

    def __str__(self) -> str:
        return f"({self.a},{self.b})^{self.u}"


@dataclass(frozen=True, slots=True)
class WeightedPartition:
    """A set partition with an integer weight 0..|B|-1 on each block."""

    blocks: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        for members, weight in self.blocks:
            _check_int(weight, "weight")
            if not 0 <= weight <= len(members) - 1:
                raise NotGradedError(f"weight {weight} out of range for block {members}")
        _check_blocks([members for members, _ in self.blocks])

    @classmethod
    def bottom(cls, ground: Sequence[int]) -> "WeightedPartition":
        return cls(tuple(((g,), 0) for g in sorted(ground)))

    def render(self) -> str:
        return "/".join(
            "".join(str(v) for v in members) + f"^{weight}"
            for members, weight in self.blocks
        )

    @staticmethod
    def joins(a, b) -> tuple:
        """The merged block of each u-merge: the weights add up, plus u."""
        members, weight = tuple(sorted(a[0] + b[0])), a[1] + b[1]
        return (members, weight), (members, weight + 1)

    def merges(self) -> Iterator[tuple[int, tuple]]:
        """All single-merge covers, each as (merge tag, the cover's blocks)."""
        return _pair_merges(self.blocks, _block_min, self.joins)


@dataclass(frozen=True, slots=True)
class PointedPartition:
    """A set partition with a distinguished element in each block."""

    blocks: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        for members, point in self.blocks:
            _check_int(point, "point")
            if point not in members:
                raise NotGradedError(f"point {point} not in block {members}")
        _check_blocks([members for members, _ in self.blocks])

    @classmethod
    def bottom(cls, ground: Sequence[int]) -> "PointedPartition":
        return cls(tuple(((g,), g) for g in sorted(ground)))

    def render(self) -> str:
        return "/".join(
            "".join(("~" if v == point else "") + str(v) for v in members)
            for members, point in self.blocks
        )

    @staticmethod
    def joins(a, b) -> tuple:
        """The merged block of each u-merge: u = 1 keeps the min block's point."""
        members = tuple(sorted(a[0] + b[0]))
        return (members, b[1]), (members, a[1])

    def merges(self) -> Iterator[tuple[int, tuple]]:
        """All single-merge covers, each as (merge tag, the cover's blocks)."""
        return _pair_merges(self.blocks, _block_min, self.joins)


@dataclass(frozen=True, slots=True)
class SetPartition:
    """A plain set partition, blocks sorted by minimum."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_blocks(self.blocks)

    def render(self) -> str:
        return "/".join("".join(str(v) for v in members) for members in self.blocks)

    @classmethod
    def bottom(cls, ground: Sequence[int]) -> "SetPartition":
        return cls(tuple((g,) for g in sorted(ground)))

    def merges(self) -> Iterator[tuple[int, tuple]]:
        joins = lambda a, b: (tuple(sorted(a + b)),)
        return _pair_merges(self.blocks, lambda b: b[0], joins)


_LABELS = MAX_N + 1  # the most entries of a parent tuple
# the text "a-b" (a < b) of the edge {v, p} at v * _LABELS + p; labels are one
# digit (MAX_N < 10), so the texts sort as the edges do
_EDGE_TEXT = [f"{min(v, p)}-{max(v, p)}" for v in range(_LABELS) for p in range(_LABELS)]
# the label v at v, as an int and as text, so an entry True (equal to 1) is
# written as 1
_LABEL_INT = tuple(range(_LABELS))
_LABEL_TEXT = [str(v) for v in range(_LABELS)]


class RootedForest(tuple):
    """A rooted spanning forest as its parent tuple: entry v is the parent of
    vertex v, a root is its own parent, and entry 0, like every label off the
    ground set, is 0.  A u-merge of trees A, B with minima a < b hangs one
    root under the other: u = 0 keeps B's root, u = 1 keeps A's.  Nothing is
    checked at construction (``closure`` builds one per element); ``merges``
    and ``render`` refuse a tuple that is no forest (NotGradedError)."""

    __slots__ = ()

    @classmethod
    def bottom(cls, ground: Sequence[int]) -> "RootedForest":
        """The one-vertex trees on ``ground``, distinct ints in 1..MAX_N."""
        parents = [0] * _LABELS
        for g in ground:
            _check_int(g, "label")
            if not 0 < g < _LABELS or parents[g]:
                raise NotGradedError(f"label {g} is repeated or outside 1..{MAX_N}")
            parents[g] = g
        if not any(parents):
            raise NotGradedError("a forest needs a nonempty ground set")
        return cls(parents[:max(parents) + 1])

    def _roots(self) -> tuple[int, ...]:
        """The root of each vertex, 0 off the ground set, by pointer jumping:
        after k rounds a vertex has gone 2^k steps up or reached its root, and
        a forest's paths have at most MAX_N - 1 steps; a cycle ends off a root."""
        try:
            roots = self
            for _ in range((MAX_N - 1).bit_length()):
                roots = itemgetter(*roots)(roots)
            forest = (1 < len(self) <= _LABELS and self[0] == 0 and min(self) >= 0
                      and itemgetter(*roots)(self) == roots
                      and self.count(0) == roots.count(0) < len(self))
        except (IndexError, TypeError):  # an entry that is no index of self
            forest = False
        if not forest:
            raise NotGradedError(f"{self!r} is no rooted forest on labels 1..{MAX_N}")
        return roots

    def render(self) -> str:
        """Each tree as "root<a-b,...>", edges a < b sorted, trees by minima."""
        roots = self._roots()
        edges: dict[int, list[str]] = {root: [] for root in roots}  # by min vertex
        for v, parent in enumerate(self):
            if v != parent:
                edges[roots[v]].append(_EDGE_TEXT[v * _LABELS + parent])
        del edges[0]  # the labels off the ground set
        return "/".join([f"{_LABEL_TEXT[root]}<{','.join(sorted(texts))}>"
                         for root, texts in edges.items()])

    def merges(self) -> Iterator[tuple[int, tuple]]:
        """All single-merge covers, each as (merge tag, the cover's parents)."""
        roots = self._roots()
        if len(set(roots)) < 3:  # 0 and one root: a tree has no merge
            return
        trees = [(_LABEL_INT[root], roots.index(root)) for root in dict.fromkeys(roots) if root]
        parents = list(itemgetter(*self)(_LABEL_INT))
        for (ra, a), (rb, b) in combinations(trees, 2):
            tag = _merge_tag(a, b, 0)
            parents[ra] = rb
            yield tag, tuple(parents)
            parents[ra] = parents[rb] = ra
            yield tag + 1, tuple(parents)
            parents[rb] = rb


# -- poset construction -------------------------------------------------------------


def _build(cls, n: int, limits: Limits) -> GradedPoset:
    """The family of ``cls`` on [n]: its bottom closed under its merges, each
    element built once from its parts (validated then, unless a forest)."""
    check_n(n)
    return closure(cls.bottom(range(1, n + 1)), cls.merges, cls, cls.render, limits)


def build_weighted(n: int, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The poset of weighted partitions of [n]."""
    return _build(WeightedPartition, n, limits)


def build_pointed(n: int, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The poset of pointed partitions of [n]."""
    return _build(PointedPartition, n, limits)


def build_partition_lattice(n: int, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """The lattice of set partitions of [n] ordered by refinement."""
    return _build(SetPartition, n, limits)


def build_spanning_forest_poset(n: int, limits: Limits = DEFAULT_LIMITS) -> GradedPoset:
    """Rooted spanning forests of [n]; covers merge two trees at their roots."""
    return _build(RootedForest, n, limits)


# -- label posets -------------------------------------------------------------------


def label_less_w(x: PairLabel, y: PairLabel) -> bool:
    """lambda_w: ordinal sum over a of the grids {(a,b)^u : b > a}, product order."""
    if x.a != y.a:
        return x.a < y.a
    return x.b <= y.b and x.u <= y.u and x != y


def label_less_bullet(x: PairLabel, y: PairLabel) -> bool:
    """lambda_bullet: ordinal sum over a of antichain (a,b)^0 below chain (a,b)^1."""
    if x.a != y.a:
        return x.a < y.a
    return x.u < y.u or (x.u == y.u == 1 and x.b < y.b)


def _pair_labels(ground: Sequence[int]) -> list[PairLabel]:
    """All labels on a sorted ground set: a label poset's labels, in index order."""
    return [PairLabel(a, b, u) for a, b in combinations(ground, 2) for u in (0, 1)]


# -- concrete labelings --------------------------------------------------------------


def _merge_labels(p: GradedPoset, cls) -> tuple[list[PairLabel], list[int]]:
    """The labels on the ground of p, and per cover of ``p.covers`` the index
    of its merge label among them, read off its tag (refused if none)."""
    bottom = p.object(p.zero())
    if not isinstance(bottom, cls):
        raise PreconditionError(
            f"this labeling needs a poset of {cls.__name__} elements, "
            f"got {type(bottom).__name__}"
        )
    if p.cover_tags is None:
        raise PreconditionError(
            "this labeling reads the merge tag of each cover, which only posets "
            "built by build_weighted or build_pointed carry"
        )
    labels = _pair_labels([members[0] for members, _ in bottom.blocks])
    slot = {_merge_tag(lab.a, lab.b, lab.u): i for i, lab in enumerate(labels)}
    try:
        return labels, [slot[tag] for tag in p.cover_tags]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        tag = next(t for t in p.cover_tags if not isinstance(t, int) or t not in slot)
        raise PreconditionError(f"cover tag {tag!r} is no merge tag of this poset") from None


class _FamilyLabeling(EdgeLabeling):
    """A merge labeling of a whole family, swept from the first element of
    each rank: the upper filter of a partition alpha collapses onto the same
    family on alpha's block minima, keeping every merge label (a, b)^u, and
    lambda_w and lambda_bullet compare labels only by < and =.  So each check
    passes or fails on all alpha of one rank alike, and its first failing
    bottom, hence its witness, is that of the sweep over every bottom."""

    __slots__ = ()

    def bottoms(self) -> list[int]:
        order, rank = self.poset.topo_order(), self.poset.rank
        return [x for i, x in enumerate(order) if not i or rank(x) != rank(order[i - 1])]


def _labeling_from(p: GradedPoset, cls, less) -> EdgeLabeling:
    labels, index = _merge_labels(p, cls)
    # closed under merges (an element with m blocks has all m(m - 1) of them
    # as upper covers), p is the whole family above its bottom; an interval is not
    closed = all(
        len(p.upper_covers(x)) == len(obj.blocks) * (len(obj.blocks) - 1)
        for x, obj in enumerate(p.objects)
    )
    return (_FamilyLabeling if closed else EdgeLabeling)(p, LabelPoset(labels, less), index)


def label_lambda_w(p: GradedPoset) -> EdgeLabeling:
    """(min A, min B)^u on each merge of a weighted partition poset."""
    return _labeling_from(p, WeightedPartition, label_less_w)


def label_lambda_bullet(p: GradedPoset) -> EdgeLabeling:
    """(min A, min B)^u on each merge of a pointed partition poset."""
    return _labeling_from(p, PointedPartition, label_less_bullet)


def label_lambda_bullet2(p: GradedPoset) -> EdgeLabeling:
    """Same label map as label_lambda_bullet, over the weighted label order."""
    return _labeling_from(p, PointedPartition, label_less_w)


def label_lambda_tilde(p: GradedPoset) -> EdgeLabeling:
    """The two-coordinate labeling of a pointed partition poset, swept from
    every bottom: its labels depend on the number of blocks.

    A u-merge of blocks with minima a < b on a lower element with m blocks is
    labeled (b, a+n-m) when u = 0 and (b, b+n-m) when u = 1, n the size of
    the bottom's ground set; labels compare in the lexicographic (total)
    order.  m is read off the lower element's blocks, not its rank, so an
    upper filter or any poset closed from a pointed partition gets the
    labels that the whole family gives its covers.  Kept as the known
    non-example: it fails the unique-increasing-chain requirement.
    """
    labels, index = _merge_labels(p, PointedPartition)
    n = sum(len(members) for members, _ in p.object(p.zero()).blocks)
    shift = [n - len(x.blocks) for x in p.objects]  # n - m per lower element
    raw = []
    for (x, _), i in zip(p.covers, index):
        lab = labels[i]
        raw.append((lab.b, (lab.a if lab.u == 0 else lab.b) + shift[x]))
    used = sorted(set(raw))
    lp = LabelPoset.total_order([f"({x},{y})" for x, y in used])
    index_of = {pair: i for i, pair in enumerate(used)}
    return EdgeLabeling(p, lp, map(index_of.__getitem__, raw))


LABELING_BUILDERS = {
    "lambda_w": label_lambda_w,
    "lambda_bullet": label_lambda_bullet,
    "lambda_bullet2": label_lambda_bullet2,
    "lambda_tilde": label_lambda_tilde,
}

FAMILY_BUILDERS = {
    "weighted": build_weighted,
    "pointed": build_pointed,
    "partition": build_partition_lattice,
    "sf": build_spanning_forest_poset,
}

