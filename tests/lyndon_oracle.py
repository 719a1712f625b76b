"""Reference tree validity, slide and census point.

``oracle_tree_valid`` walks the whole tree and applies the flavor's vertex
rule at every internal vertex; ``oracle_u_merge`` slides the new vertex down
one step at a time and, after each step, rebuilds the whole tree and
re-validates it with ``oracle_tree_valid``.  Both are slow and serve only as
the independent oracle that the cached fields must match at small n.
``oracle_point`` replays a tree's merges in the pointed partition poset and
reads the point of the one block at the top, which the census's walk from
the root must match.
"""

from __future__ import annotations

from whitneydual.lyndon import POINTED, WEIGHTED, BicoloredForest, Leaf, Node
from whitneydual.partitions import PointedPartition


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


def _lyndon(v: Node) -> bool:
    return isinstance(v.left, Leaf) or min(leaf_labels(v.left.right)) > min(
        leaf_labels(v.right)
    )


def _pointed_ok(v: Node) -> bool:
    if isinstance(v.left, Leaf):
        return True
    if v.left.color < v.color:
        return False
    if v.left.color == v.color == 1 and not _lyndon(v):
        return False
    return True


def _bicolored_ok(v: Node) -> bool:
    if isinstance(v.left, Leaf):
        return True
    return _lyndon(v) or v.left.color > v.color


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


def oracle_point(t) -> int:
    """Merge t's blocks children-first with ``PointedPartition.joins``, the
    vertex color choosing the join, and return the top block's point."""

    def block(v):
        if isinstance(v, Leaf):
            return ((v.label,), v.label)
        return PointedPartition.joins(block(v.left), block(v.right))[v.color]

    ((_, point),) = PointedPartition((block(t),)).blocks
    return point
