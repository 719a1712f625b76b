"""Reference tree validity, slide, chain replay and census point.

``oracle_tree_valid`` walks the whole tree and applies the flavor's vertex
rule, which reads ``is_lyndon_vertex``, at every internal vertex;
``oracle_u_merge`` slides the new vertex down one step at a time and, after
each step, rebuilds the whole tree and re-validates it with
``oracle_tree_valid``.  Both are slow and serve only as
the independent oracle that the cached fields must match at small n.
``oracle_chain`` replays a forest's merges in a partition family, building
and validating every partition of the chain; its top is what ``chain_top``
must read off the trees, and ``oracle_point``, the point of a tree's top in
the pointed family, what ``tree_point`` must find.  ``chain_to_forest``
goes the other way, from a chain's word to its forest: the inverse of phi.
``normalized_trees`` generates every normalized tree, and
``all_valid_forests`` keeps the forests
of oracle-valid trees over every set partition: the generate-and-filter
enumerations that the package's tree generator and forest closure must
match.  ``left_comb`` builds the left combs that the ``pbw`` bases write as
text; ``theta`` of each, and ``comb_text`` for the two-product operad, are
the oracle for that text.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from whitneydual.errors import InternalGuardError, InvalidForestError
from whitneydual.lyndon import (
    POINTED,
    WEIGHTED,
    BicoloredForest,
    Leaf,
    Node,
    is_valid,
    reverse_minimal_extension,
)
from whitneydual.partitions import PairLabel, PointedPartition, label_less_bullet, label_less_w


def leaf_labels(t) -> list[int]:
    if isinstance(t, Leaf):
        return [t.label]
    return leaf_labels(t.left) + leaf_labels(t.right)


def internal_vertices(t) -> list[Node]:
    if isinstance(t, Leaf):
        return []
    return internal_vertices(t.left) + internal_vertices(t.right) + [t]


def oracle_is_normalized(t) -> bool:
    """The smallest leaf label sits to the left at every internal vertex."""
    if isinstance(t, Leaf):
        return True
    return (
        min(leaf_labels(t.left)) < min(leaf_labels(t.right))
        and oracle_is_normalized(t.left)
        and oracle_is_normalized(t.right)
    )


def is_lyndon_vertex(v: Node) -> bool:
    """Left child a leaf, or the least leaf of the left child's right subtree
    exceeds the least leaf of v's right subtree."""
    return isinstance(v.left, Leaf) or min(leaf_labels(v.left.right)) > min(
        leaf_labels(v.right)
    )


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


def oracle_tree_valid(t, flavor: str) -> bool:
    return oracle_is_normalized(t) and all(
        _VERTEX_RULE[flavor](v) for v in internal_vertices(t)
    )


def oracle_u_merge(f: BicoloredForest, t1, t2, u: int, flavor: str) -> BicoloredForest:
    """Join t1 and t2 under a new u-colored root, then slide it down until
    the whole rebuilt tree is valid."""
    spine: list[tuple] = []  # (right subtree, color) of vertices above r
    r = Node(t1, t2, u)
    for _ in range(len(internal_vertices(t1)) + 1):
        merged = r
        for right, color in reversed(spine):
            merged = Node(merged, right, color)
        if oracle_tree_valid(merged, flavor):
            rest = [t for t in f.trees if t is not t1 and t is not t2]
            return BicoloredForest.of(*rest, merged)
        x = r.left
        assert isinstance(x, Node), "slide reached a leaf with conditions unmet"
        spine.append((x.right, x.color))
        r = Node(x.left, r.right, u)
    raise AssertionError("slide did not terminate within the tree height")


def oracle_chain(f: BicoloredForest, cls) -> list:
    """Replay f's merges children-first in the partition family ``cls`` with
    ``cls.joins``, the vertex color choosing the join: every partition of the
    chain, bottom to top, each built and validated."""
    ground = [i for i in range(f.leaves.bit_length()) if f.leaves >> i & 1]
    chain = [cls.bottom(ground)]
    blocks = {members[0]: (members, tag) for members, tag in chain[0].blocks}
    for v in reverse_minimal_extension(f):
        a, b = v.left.valency, v.right.valency
        blocks[a] = cls.joins(blocks[a], blocks.pop(b))[v.color]
        chain.append(cls(tuple(blocks[m] for m in sorted(blocks))))
    return chain


_LABEL_LESS = {POINTED: label_less_bullet, WEIGHTED: label_less_w}


def chain_to_forest(word: Sequence[PairLabel], n: int, flavor: str) -> BicoloredForest:
    """Inverse of phi: attach a colored vertex per merge label.

    The word must replay on [n] and be ascent-free for the flavor's label
    order, else InvalidForestError; the resulting forest is then
    flavor-valid, and InternalGuardError reports a broken flavor rule if not.
    """
    components: dict[int, object] = {i: Leaf(i) for i in range(1, n + 1)}
    for lab in word:
        if lab.a not in components or lab.b not in components:
            raise InvalidForestError(
                f"label {lab} does not merge two current components"
            )
        components[lab.a] = Node(components[lab.a], components[lab.b], lab.u)
        del components[lab.b]
    forest = BicoloredForest.of(*components.values())
    less = _LABEL_LESS[flavor]
    if any(less(a, b) for a, b in zip(word, word[1:])):
        raise InvalidForestError("word is not ascent-free for this flavor")
    if not is_valid(forest, flavor):
        raise InternalGuardError(
            "ascent-free word produced an invalid forest; flavor rules are broken"
        )
    return forest


def oracle_point(t) -> int:
    """The point of the one block at the top of t's chain in the pointed
    partition poset."""
    ((_, point),) = oracle_chain(BicoloredForest.of(t), PointedPartition)[-1].blocks
    return point


def normalized_trees(leaves: Sequence[int]) -> Iterator:
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
    """Forests on [n] whose trees are all oracle-valid, block by block."""

    def block_trees(block: tuple[int, ...]) -> list:
        return [t for t in normalized_trees(block) if oracle_tree_valid(t, flavor)]

    def assemble(blocks: list[tuple[int, ...]], acc: list) -> Iterator[BicoloredForest]:
        if not blocks:
            yield BicoloredForest.of(*acc)
            return
        for t in block_trees(blocks[0]):
            yield from assemble(blocks[1:], acc + [t])

    for blocks in _set_partitions(tuple(range(1, n + 1))):
        yield from assemble(blocks, [])


def left_comb(n: int, colors: Sequence[int]):
    """((1 ∘_{c1} 2) ∘_{c2} 3) ... ∘_{c_{n-1}} n as a bicolored tree."""
    assert len(colors) == n - 1, "a left comb on n leaves has n-1 colors"
    t = Leaf(1)
    for k, c in zip(range(2, n + 1), colors):
        t = Node(t, Leaf(k), c)
    return t


def comb_text(t, symbols: tuple[str, str]) -> str:
    """A tree's text with ``symbols[color]`` between its children, left
    child first, outer parentheses dropped (the Com² monomial)."""
    def text(v) -> str:
        if isinstance(v, Leaf):
            return str(v.label)
        return f"({text(v.left)}{symbols[v.color]}{text(v.right)})"

    body = text(t)
    return body[1:-1] if isinstance(t, Node) else body
