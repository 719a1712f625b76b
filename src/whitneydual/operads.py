"""Tree monomials, Lyndon-tree census by chain top, and left-comb bases.

Monomials are fully parenthesized strings over leaf labels and a binary
product; the two-product variants subscript the symbol.  Machine-readable
output uses "o", "o0", "o1"; display output uses "∘", "∘₀", "∘₁".
"""

from __future__ import annotations

from itertools import accumulate

from .config import DEFAULT_LIMITS, Limits, check_n
from .errors import LimitExceededError
from .lyndon import Leaf, Node, Tree, all_valid_trees


def _monomial(t: Tree, sym: str) -> str:
    """Fully parenthesized text of t, ``sym`` between the children, right
    child first at a 0-colored vertex; a stack, not recursion."""
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
            if item.color == 0:
                first, second = second, first
            stack += (")", second, sym, first, "(")
    return "".join(out)


def theta(t: Tree, machine: bool = False) -> str:
    """The product monomial of a bicolored tree: left∘right when the root is
    colored 1 and right∘left when it is colored 0, recursively."""
    body = _monomial(t, "o" if machine else "∘")
    return body[1:-1] if isinstance(t, Node) else body


def _starts(pieces: list[str]) -> list[int]:
    # where each piece starts in "".join(pieces), and where the text ends
    return [0, *accumulate(map(len, pieces))]


def _outer(body: str, n: int) -> str:
    # a comb on n > 1 leaves is a vertex: drop the parentheses around it
    return body[1:-1] if n > 1 else body


def pbw_perm_basis(n: int, machine: bool = False, limits: Limits = DEFAULT_LIMITS) -> list[str]:
    """The n left-comb monomials with a 0..0 1..1 color word, written as
    theta writes them: a 0-colored step joins leaf k as k∘t, a 1-colored
    one as t∘k.  Comb i is two slices of texts written once, its 0-steps
    (leaves i..2) and its 1-steps (leaves i+1..n); no tree is built."""
    if type(n) is not int or n < 1:
        raise LimitExceededError(f"n={n!r} is not an int of at least 1")
    sym = "o" if machine else "∘"
    down = [f"({k}{sym}" for k in range(n, 1, -1)]  # 0-steps, leaf n first
    up = [f"{sym}{k})" for k in range(2, n + 1)]  # 1-steps, leaf 2 first
    down_at, up_at = _starts(down), _starts(up)
    zeros, ones = "".join(down), "".join(up)
    out = set()
    for i in range(1, n + 1):
        limits.check_deadline()
        inner = zeros[down_at[n - i]:] + "1" + ")" * (i - 1)
        out.add(_outer("(" * (n - i) + inner + ones[up_at[i - 1]:], n))
    return sorted(out)


def pbw_com2_basis(n: int, machine: bool = False, limits: Limits = DEFAULT_LIMITS) -> list[str]:
    """The n left-comb monomials with subscripted products kept explicit,
    (..((1∘_{c2} 2)∘_{c3} 3)..)∘_{cn} n.  Comb i is the ∘₀ steps of leaves
    2..i and the ∘₁ steps of leaves i+1..n, two slices of texts written
    once; no tree is built."""
    if type(n) is not int or n < 1:
        raise LimitExceededError(f"n={n!r} is not an int of at least 1")
    # subscripted products keep both orders textual: color is the subscript
    s0, s1 = ("o0", "o1") if machine else ("∘₀", "∘₁")
    zero = [f"{s0}{k})" for k in range(2, n + 1)]
    at = _starts(zero)  # the ∘₁ steps have the same lengths
    zeros, ones = "".join(zero), "".join(f"{s1}{k})" for k in range(2, n + 1))
    out = set()
    for i in range(1, n + 1):
        limits.check_deadline()
        steps = zeros[:at[i - 1]] + ones[at[i - 1]:]
        out.add(_outer("(" * (n - 1) + "1" + steps, n))
    return sorted(out)


def tlyn_trees(n: int, flavor: str) -> dict[int, list[Tree]]:
    """Single-tree forests of the flavor on [n], by the point p = 1..n of
    their chain's top, which each tree records as its ``point``.

    The chain is always read in the pointed partition poset, for both
    flavors.
    """
    check_n(n)
    out: dict[int, list[Tree]] = {p: [] for p in range(1, n + 1)}
    for t in all_valid_trees(n, flavor):
        out[t.point].append(t)
    return out
