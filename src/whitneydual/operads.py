"""Tree monomials, Lyndon-tree census by chain top, and left-comb bases.

Monomials are fully parenthesized strings over leaf labels and a binary
product; the two-product variants subscript the symbol.  Machine-readable
output uses "o", "o0", "o1"; display output uses "∘", "∘₀", "∘₁".
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits, check_n
from .errors import LimitExceededError, PreconditionError
from .lyndon import Leaf, Node, Tree, all_valid_trees, tree_point


def _render(t: Tree, symbols: tuple[str, str], swap_zero: bool) -> str:
    """Fully parenthesized text of t, ``symbols[color]`` between the children
    (right child first if ``swap_zero`` and color 0); a stack, not recursion."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Leaf):
            out.append(str(item.label))
        else:
            first, second = item.left, item.right
            if swap_zero and item.color == 0:
                first, second = second, first
            stack += (")", second, symbols[item.color], first, "(")
    return "".join(out)


def theta(t: Tree, machine: bool = False) -> str:
    """The product monomial of a bicolored tree: left∘right when the root is
    colored 1 and right∘left when it is colored 0, recursively."""
    body = _render(t, ("o", "o") if machine else ("∘", "∘"), swap_zero=True)
    return body[1:-1] if isinstance(t, Node) else body


def left_comb(n: int, colors: Sequence[int]) -> Tree:
    """((1 ∘_{c1} 2) ∘_{c2} 3) ... ∘_{c_{n-1}} n as a bicolored tree."""
    if len(colors) != n - 1:
        raise PreconditionError("a left comb on n leaves has n-1 colors")
    t: Tree = Leaf(1)
    for k, c in zip(range(2, n + 1), colors):
        t = Node(t, Leaf(k), c)
    return t


def _step_colors(n: int) -> Iterator[tuple[int, ...]]:
    # 0...01...1 color words: i-1 zeros then ones, for i = 1..n
    for i in range(1, n + 1):
        yield tuple(0 if k < i else 1 for k in range(1, n))


def pbw_perm_basis(n: int, machine: bool = False, limits: Limits = DEFAULT_LIMITS) -> list[str]:
    """The n left-comb monomials with a 0..0 1..1 color word, rendered via theta."""
    if n < 1:
        raise LimitExceededError("n must be at least 1")
    out = set()
    for colors in _step_colors(n):
        limits.check_deadline()
        out.add(theta(left_comb(n, colors), machine=machine))
    return sorted(out)


def pbw_com2_basis(n: int, machine: bool = False, limits: Limits = DEFAULT_LIMITS) -> list[str]:
    """The n left-comb monomials with subscripted products kept explicit."""
    if n < 1:
        raise LimitExceededError("n must be at least 1")
    # subscripted products keep both orders textual: color is the subscript
    symbols = ("o0", "o1") if machine else ("∘₀", "∘₁")
    out = set()
    for colors in _step_colors(n):
        limits.check_deadline()
        body = _render(left_comb(n, colors), symbols, swap_zero=False)
        out.add(body[1:-1] if n > 1 else body)
    return sorted(out)


def tlyn_trees(n: int, flavor: str) -> dict[int, list[Tree]]:
    """Single-tree forests of the flavor on [n], by the point p = 1..n of
    their chain's top, ``tree_point``.

    The chain is always read in the pointed partition poset, for both
    flavors.
    """
    check_n(n)
    out: dict[int, list[Tree]] = {p: [] for p in range(1, n + 1)}
    for t in all_valid_trees(n, flavor):
        out[tree_point(t)].append(t)
    return out
