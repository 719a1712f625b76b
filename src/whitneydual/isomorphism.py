"""Exact poset isomorphism by invariant refinement plus backtracking.

The initial coloring of each element is (rank, up-degree, down-degree,
Möbius value); colors are then refined by the multisets of neighbor colors
until stable, and a backtracking search maps color class by color class.
Deterministic (ties broken by element index) and exact, never probabilistic.
A configurable node budget guards against pathological inputs.
"""

from __future__ import annotations

from typing import Optional

from .config import DEFAULT_LIMITS
from .errors import BudgetExhaustedError, InternalGuardError
from .poset import GradedPoset


def _refine(p: GradedPoset, colors: list[int]) -> list[int]:
    """Iterate neighborhood color refinement to a fixpoint."""
    while True:
        sig = [
            (
                colors[x],
                tuple(sorted(colors[y] for y in p.upper_covers(x))),
                tuple(sorted(colors[y] for y in p.lower_covers(x))),
            )
            for x in p.elements()
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _initial_colors(p: GradedPoset) -> list[int]:
    mu = p.mobius_all()
    sig = [
        (p.rank(x), len(p.upper_covers(x)), len(p.lower_covers(x)), mu[x])
        for x in p.elements()
    ]
    palette = {s: i for i, s in enumerate(sorted(set(sig)))}
    return [palette[s] for s in sig]


def are_isomorphic(
    p: GradedPoset,
    q: GradedPoset,
    node_budget: int = DEFAULT_LIMITS.iso_node_budget,
) -> Optional[dict[int, int]]:
    """A rank- and cover-preserving bijection P -> Q, or None if none exists.

    Raises BudgetExhaustedError if the search exceeds ``node_budget`` nodes.
    """
    if len(p) != len(q):
        return None
    cp = _refine(p, _initial_colors(p))
    cq = _refine(q, _initial_colors(q))
    if sorted(cp) != sorted(cq):
        return None

    classes_q: dict[int, list[int]] = {}
    for y in q.elements():
        classes_q.setdefault(cq[y], []).append(y)

    # map small color classes first; index order inside a class
    order = sorted(p.elements(), key=lambda x: (len(classes_q[cp[x]]), cp[x], x))
    position = {x: i for i, x in enumerate(order)}
    # the covers of order[i] whose other end is mapped before it: their images
    # must be covers of order[i]'s image
    placed_up = [
        [u for u in p.upper_covers(x) if position[u] < i] for i, x in enumerate(order)
    ]
    placed_down = [
        [d for d in p.lower_covers(x) if position[d] < i] for i, x in enumerate(order)
    ]
    q_up = [set(q.upper_covers(y)) for y in q.elements()]
    q_down = [set(q.lower_covers(y)) for y in q.elements()]
    mapping: dict[int, int] = {}
    used = [False] * len(q)
    nodes = 0

    # depth-first search with an explicit stack: next_pos[i] is the position of
    # the next candidate for order[i] in its color class
    next_pos = [0] * len(order)
    i = 0
    while i < len(order):
        x = order[i]
        if x in mapping:  # back from a dead end below: release the current choice
            used[mapping.pop(x)] = False
        need_up = {mapping[u] for u in placed_up[i]}
        need_down = {mapping[d] for d in placed_down[i]}
        candidates = classes_q[cp[x]]
        k = next_pos[i]
        while k < len(candidates):
            y = candidates[k]
            k += 1
            if used[y]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExhaustedError(
                    f"isomorphism search exceeded {node_budget} nodes"
                )
            if need_up <= q_up[y] and need_down <= q_down[y]:
                mapping[x] = y
                used[y] = True
                break
        if x in mapping:
            next_pos[i] = k
            i += 1
            if i < len(order):
                next_pos[i] = 0
        elif i == 0:
            return None
        else:
            i -= 1
    # equal color multisets plus per-pair cover checks make the map a poset
    # isomorphism: cover counts match globally, so no cover can be missed
    q_covers = set(q.covers)
    if not all((mapping[a], mapping[b]) in q_covers for a, b in p.covers):
        raise InternalGuardError("isomorphism search returned a map that breaks a cover")
    return dict(mapping)
