"""Exact poset isomorphism by individualisation and refinement.

P and Q are coloured together, as the disjoint union P ⊔ Q with one palette,
so a colour class ("cell") holds elements of both posets and an isomorphism
must map the P members of each cell onto its Q members.  The scheme is the
one of McKay and Piperno, *Practical graph isomorphism II* (2014):

- The initial colour of an element is (rank, up-degree, down-degree, Möbius
  value).
- Refinement splits cells by how many cover neighbours each element has in
  a splitter cell, until the colouring is equitable.  Splitters wait on a
  queue; when a cell splits, every piece but the largest joins the queue
  (Hopcroft's trick) and only the touched members move.  A cell whose P and
  Q counts differ ends the branch at once.
- The search goes depth-first over individualisations: in the first cell
  with more than one P member, the smallest P element is paired with each Q
  member of the cell in index order, the pair becomes a cell of its own and
  refinement restarts from that cell alone.  A discrete equitable colouring
  (every cell one P and one Q element) is an isomorphism.
- Splits are undone from a trail, so backtracking copies nothing.

One search node is one candidate pair tried.  The node budget and the
deadline of ``Limits`` are checked at every node, and the deadline at every
refinement round too.  The search is deterministic and exact; on
posets with automorphisms the bijection it returns is one of several.
"""

from __future__ import annotations

from typing import Optional

from .config import DEFAULT_LIMITS, Limits
from .errors import BudgetExhaustedError, InternalGuardError
from .poset import GradedPoset


class _Colouring:
    """The shared colouring of P ⊔ Q (P is 0..n-1, Q is n..2n-1) and its trail.

    A cell is the slice ``elems[s:end[s]]``, named by its start ``s``;
    ``cell[v]`` is the start of v's cell and ``pos[v]`` is v's place in
    ``elems``.  Every cell lies inside one rank, so an element has cover
    neighbours in a cell from one side only, and a single count per element
    splits by up- and down-neighbours alike.
    """

    def __init__(self, p: GradedPoset, q: GradedPoset, limits: Limits) -> None:
        self.n = len(p)
        self.limits = limits
        self.nbrs: list[tuple[int, ...]] = []
        for poset, shift in ((p, 0), (q, self.n)):
            for x in poset.elements():
                nb = poset.upper_covers(x) + poset.lower_covers(x)
                self.nbrs.append(tuple(v + shift for v in nb))
        size = 2 * self.n
        self.elems: list[int] = []
        self.pos = [0] * size
        self.cell = [0] * size
        self.end = [0] * size
        self.count = [0] * size
        self.queued = [False] * size
        # one entry per split: (cell, its old end, the starts of the new cells)
        self.trail: list[tuple[int, int, list[int]]] = []

    def start(self, p: GradedPoset, q: GradedPoset) -> bool:
        """Colour by invariants and refine; False if P and Q disagree."""
        keys = []
        for poset in (p, q):
            mu = poset.mobius_all()
            keys += [
                (poset.rank(x), len(poset.upper_covers(x)), len(poset.lower_covers(x)), mu[x])
                for x in poset.elements()
            ]
        classes: dict[tuple, list[int]] = {}
        for v in sorted(range(2 * self.n), key=keys.__getitem__):
            classes.setdefault(keys[v], []).append(v)
        starts = []
        for members in classes.values():
            if not self._balanced(members):
                return False
            s = len(self.elems)
            starts.append(s)
            self.end[s] = s + len(members)
            for v in members:
                self.pos[v] = len(self.elems)
                self.cell[v] = s
                self.elems.append(v)
        # the colouring is equitable with respect to the whole set (the degrees
        # are in the key), so the largest cell need not be a splitter
        largest = max(starts, key=lambda s: self.end[s] - s)
        return self.refine([s for s in starts if s != largest])

    def _balanced(self, members: list[int]) -> bool:
        return 2 * sum(v < self.n for v in members) == len(members)

    def refine(self, queue: list[int]) -> bool:
        """Split cells against the queued splitters until the colouring is
        equitable; False as soon as a cell has unequal P and Q counts."""
        elems, end, cell, count, queued = self.elems, self.end, self.cell, self.count, self.queued
        for s in queue:
            queued[s] = True
        while queue:
            self.limits.check_deadline()
            s = queue.pop()
            queued[s] = False
            touched = []
            for w in elems[s:end[s]]:
                for v in self.nbrs[w]:
                    if count[v] == 0:
                        touched.append(v)
                    count[v] += 1
            by_cell: dict[int, dict[int, list[int]]] = {}
            for v in touched:
                by_cell.setdefault(cell[v], {}).setdefault(count[v], []).append(v)
                count[v] = 0
            for c, groups in by_cell.items():
                if not self._split(c, groups, queue):
                    for s in queue:
                        queued[s] = False
                    queue.clear()
                    return False
        return True

    def _split(self, c: int, groups: dict[int, list[int]], queue: list[int]) -> bool:
        """Split cell c by the neighbour counts of its touched members."""
        e = self.end[c]
        touched = sum(len(g) for g in groups.values())
        if len(groups) == 1 and touched == e - c:
            return True
        pieces = [groups[k] for k in sorted(groups)]
        if not all(self._balanced(g) for g in pieces):
            return False
        elems, pos, cell, end = self.elems, self.pos, self.cell, self.end
        # the touched members move to the back of the cell, piece by piece;
        # the untouched ones stay where they are, in the cell named c
        j = e - touched
        starts = [c] if j > c else []
        for g in pieces:
            starts.append(j)
            for v in g:
                self._place(v, j)
                j += 1
        for a, b in zip(starts, starts[1:] + [e]):
            end[a] = b
            if a != c:
                for i in range(a, b):
                    cell[elems[i]] = a
        self.trail.append((c, e, starts[1:]))
        if self.queued[c]:
            new = starts[1:]
        else:
            largest = max(starts, key=lambda a: end[a] - a)
            new = [a for a in starts if a != largest]
        for a in new:
            self.queued[a] = True
        queue.extend(new)
        return True

    def _place(self, v: int, j: int) -> None:
        """Swap v into position j."""
        elems, pos = self.elems, self.pos
        u = elems[j]
        elems[pos[v]], pos[u] = u, pos[v]
        elems[j], pos[v] = v, j

    def undo(self, mark: int) -> None:
        """Merge back every split made since the trail had length ``mark``."""
        elems, cell, end = self.elems, self.cell, self.end
        while len(self.trail) > mark:
            c, e, starts = self.trail.pop()
            for a in starts:
                for i in range(a, end[a]):
                    cell[elems[i]] = c
            end[c] = e

    def target(self, s: int) -> Optional[int]:
        """The first cell at or after position s with more than one P member,
        or None if the colouring is discrete."""
        end, size = self.end, len(self.elems)
        while s < size and end[s] - s == 2:
            s = end[s]
        return s if s < size else None

    def individualise(self, c: int, x: int, y: int) -> bool:
        """Give the pair (x, y) of cell c a cell of its own, then refine."""
        self._place(x, c)
        self._place(y, c + 1)
        e = self.end[c]
        self.end[c] = c + 2
        self.end[c + 2] = e
        for i in range(c + 2, e):
            self.cell[self.elems[i]] = c + 2
        self.trail.append((c, e, [c + 2]))
        return self.refine([c])


def are_isomorphic(
    p: GradedPoset, q: GradedPoset, limits: Limits = DEFAULT_LIMITS
) -> Optional[dict[int, int]]:
    """A rank- and cover-preserving bijection P -> Q, or None if none exists.

    Raises BudgetExhaustedError if the search tries more than
    ``limits.iso_node_budget`` candidate pairs, and TimeBudgetExceededError
    once ``limits.deadline`` has passed.
    """
    if len(p) != len(q):
        return None
    n = len(p)
    budget = limits.iso_node_budget
    colouring = _Colouring(p, q, limits)
    if not colouring.start(p, q):
        return None
    nodes = 0
    # one frame per level: [cell, its smallest P element, its Q members,
    # index of the next Q member to try, trail length before the level]
    stack: list[list] = []
    c = colouring.target(0)
    while c is not None:
        members = colouring.elems[c:colouring.end[c]]
        x = min(v for v in members if v < n)
        stack.append([c, x, sorted(v for v in members if v >= n), 0, len(colouring.trail)])
        while True:
            frame = stack[-1]
            c, x, candidates, k, mark = frame
            colouring.undo(mark)
            if k == len(candidates):
                stack.pop()
                if not stack:
                    return None
                continue
            frame[3] = k + 1
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(f"isomorphism search exceeded {budget} nodes")
            limits.check_deadline()
            if colouring.individualise(c, x, candidates[k]):
                break
        c = colouring.target(c)
    pairs = (sorted(colouring.elems[i:i + 2]) for i in range(0, 2 * n, 2))
    mapping = dict(sorted((a, b - n) for a, b in pairs))
    q_covers = set(q.covers)
    if not all((mapping[a], mapping[b]) in q_covers for a, b in p.covers):
        raise InternalGuardError("isomorphism search returned a map that breaks a cover")
    return mapping
