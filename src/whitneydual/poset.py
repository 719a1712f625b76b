"""Finite graded posets with a minimum, stored as Hasse diagrams.

Elements are dense integer indices; each index carries an opaque payload
string (and optionally a payload object) kept in a side table so that the
poset algorithms never inspect payloads.  The covers come in any order, and
the tags ``closure`` gives them (``cover_tags``; a hand-built poset has
none) beside them; both are kept in sorted cover order, as are the labels of
an edge labeling (``EdgeLabeling.cover_labels``).  All instances are
immutable after construction; the Möbius values are cached lazily.  There
are no reachability bitsets: every order query walks the Hasse diagram from
one element.  ``below(y)`` walks down the lower covers from y;
``saturated_chains(x, y)`` goes up the upper covers from x, inside the
down-set of y; ``mobius_from(x)`` sweeps the filter of x once, each
element pushing the bitmask of the nonzero values below it up its upper
covers, and reads no lower cover.  Nothing reads the order dual: the dual
labeling checks read the poset upward too.  A poset, like everything else
the package allocates, holds no reference cycle, so ``_collector_paused``
can keep Python's cyclic collector off while one is built or used.
"""

from __future__ import annotations

import gc
from collections import abc
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import ElementNotFoundError, NotGradedError


class GradedPoset:
    """Finite graded poset with a unique minimum, given by its cover relations.

    Covers, and their tags if any, come in any order; they are kept sorted,
    each tag beside its cover.  One breadth-first pass from the one element
    with no lower cover ranks each element by its depth, and refuses a cover
    that does not go up exactly one rank and an element it never reaches.
    So the covers are acyclic and transitively reduced: a path a < z < ... <
    b puts b two or more ranks above a.  Covers that are not pairs of ints,
    objects or tags not one per element or cover in a sequence, a repeated
    cover, a self-cover and non-graded input are refused, never repaired.
    A cover given as a tuple of two ints is kept as that object, not copied
    (``closure`` hands over one such tuple per cover); another pair becomes
    a new tuple.
    """

    __slots__ = (
        "payloads_", "objects", "covers", "cover_tags", "_up", "_down", "_rank", "_zero", "_mu",
    )

    def __init__(
        self,
        payloads: Sequence[str],
        covers: Iterable[tuple[int, int]],
        objects: Optional[Sequence[Any]] = None,
        cover_tags: Optional[Sequence[Any]] = None,
    ) -> None:
        self.payloads_ = tuple(payloads)
        n = len(self.payloads_)
        if n == 0:
            raise NotGradedError("poset must be nonempty")
        if len(set(self.payloads_)) != n:
            raise NotGradedError("payload strings must be distinct")
        if objects is not None and (not isinstance(objects, abc.Sequence) or len(objects) != n):
            raise NotGradedError("payload side table needs a sequence of one object per element")
        self.objects = tuple(objects) if objects is not None else None

        given = []
        try:  # around the loop, not each cover
            for c in covers:
                a, b = c
                # type(), not isinstance(): True and False are not indices
                if type(a) is not int or type(b) is not int:
                    raise NotGradedError(f"cover ({a!r}, {b!r}) is not a pair of integers")
                # a caller's pair is kept, not copied: closure's covers are shared
                given.append(c if type(c) is tuple else (a, b))
        except (TypeError, ValueError):
            raise NotGradedError(f"covers[{len(given)}] is not a pair of integers") from None
        if cover_tags is not None and (
            not isinstance(cover_tags, abc.Sequence) or len(cover_tags) != len(given)
        ):
            raise NotGradedError("cover tags need a sequence of one tag per cover")
        order = sorted(range(len(given)), key=given.__getitem__)
        self.covers = cov = tuple(map(given.__getitem__, order))
        self.cover_tags = None if cover_tags is None else tuple(map(cover_tags.__getitem__, order))
        del given, order  # not kept to the peak below: FLyn₇'s 516 096 indices take 18 MB
        up: list[list[int]] = [[] for _ in range(n)]
        down: list[list[int]] = [[] for _ in range(n)]
        last, bad = None, []
        for c in cov:  # a repeat sits next to its twin, and is refused first
            a, b = c
            if c == last:
                raise NotGradedError(f"cover ({a},{b}) is given twice")
            last = c
            if 0 <= a < n and 0 <= b < n and a != b:
                up[a].append(b)
                down[b].append(a)
            else:
                bad.append(c)
        if bad:
            a, b = bad[0]
            if a == b and 0 <= a < n:
                raise NotGradedError(f"self-cover at {a}")
            raise ElementNotFoundError(f"cover ({a},{b}) out of range")
        for adj in (up, down):  # in place: each list goes as its tuple is made
            for x, row in enumerate(adj):
                adj[x] = tuple(row)
        self._up = tuple(up)
        self._down = tuple(down)
        minima = [x for x, below in enumerate(down) if not below]
        if len(minima) != 1:
            raise NotGradedError(f"expected a unique minimal element, found {len(minima)}")
        self._zero = minima[0]
        rank = [-1] * n
        rank[self._zero] = 0
        queue = minima  # breadth first: it grows as it is walked
        for a in queue:
            r = rank[a] + 1
            for b in up[a]:
                if rank[b] < 0:
                    rank[b] = r
                    queue.append(b)
                elif rank[b] != r:
                    raise NotGradedError(
                        f"cover {self.payloads_[a]} -> {self.payloads_[b]} spans ranks "
                        f"{rank[a]} -> {rank[b]}; poset is not graded"
                    )
        if len(queue) < n:
            raise NotGradedError("cover digraph is cyclic or disconnected from the minimum")
        self._rank = tuple(rank)
        self._mu: Optional[tuple[int, ...]] = None

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.payloads_)

    def __repr__(self) -> str:
        return f"GradedPoset(|P|={len(self)}, rank={self.max_rank()})"

    def payload(self, x: int) -> str:
        self._check(x)
        return self.payloads_[x]

    def object(self, x: int) -> Any:
        self._check(x)
        if self.objects is None:
            return self.payloads_[x]
        return self.objects[x]

    def index(self, payload: str) -> int:
        """The element with this payload, by a scan: no payload dict is kept."""
        try:
            return self.payloads_.index(payload)
        except ValueError:
            raise ElementNotFoundError(f"no element with payload {payload!r}") from None

    def elements(self) -> range:
        return range(len(self.payloads_))

    def zero(self) -> int:
        return self._zero

    def rank(self, x: int) -> int:
        self._check(x)
        return self._rank[x]

    def max_rank(self) -> int:
        return max(self._rank)

    def upper_covers(self, x: int) -> tuple[int, ...]:
        self._check(x)
        return self._up[x]

    def lower_covers(self, x: int) -> tuple[int, ...]:
        self._check(x)
        return self._down[x]

    def maximal_elements(self) -> list[int]:
        return [x for x in self.elements() if not self._up[x]]

    def _check(self, x: int) -> None:
        if not (type(x) is int and 0 <= x < len(self.payloads_)):
            raise ElementNotFoundError(f"unknown element {x!r}")

    # -- order relation ---------------------------------------------------------

    def below(self, y: int) -> set[int]:
        """The down-set {x : x <= y}, walked along lower covers."""
        self._check(y)
        down = self._down
        seen = {y}
        stack = [y]
        while stack:
            for w in down[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def saturated_chains(self, x: int, y: int) -> Iterator[tuple[int, ...]]:
        """Every saturated chain from x to y, depth first in cover order."""
        self._check(x)
        target = self.below(y)
        stack = [(x,)]
        while stack:
            chain = stack.pop()
            if chain[-1] == y:
                yield chain
            stack += [chain + (z,) for z in reversed(self._up[chain[-1]]) if z in target]

    def topo_order(self) -> list[int]:
        """Elements sorted by rank, then by index; a linear extension."""
        return sorted(self.elements(), key=lambda x: (self._rank[x], x))

    # -- Möbius and Whitney numbers ----------------------------------------------

    def mobius_all(self) -> tuple[int, ...]:
        """One-variable Möbius value mu(0,x) for every x."""
        if self._mu is None:
            self._mu = self.mobius_from(self._zero)
        return self._mu

    def mobius_from(self, x: int) -> tuple[int, ...]:
        """mu(x, y) for every y; 0 where x is not below y.

        One sweep up the filter of x, a rank at a time.  The elements z with
        mu(x, z) != 0 are numbered as they are found, and each element y of
        the filter carries the bitmask of those strictly below it, the union
        of the masks its lower covers pushed up to it.  The values found so
        far are kept as bit planes: for each sign and bit b, the mask of the
        z whose |mu(x, z)| has bit b and that sign.  So the sum of mu over
        [x, y) is the sum of sign * 2^b * popcount(mask & plane) over the
        planes, and mu(x, y) is minus it.  A mask is freed once its element
        has pushed it on.  Only upper covers are read."""
        self._check(x)
        mu = [0] * len(self.payloads_)
        mu[x] = 1
        up = self._up
        planes = {1: 1}  # sign * 2^b -> its plane; x is bit 0, mu(x, x) = 1
        level = dict.fromkeys(up[x], 1)  # element -> mask of the nonzero values below it
        bit = 2
        while level:
            above: dict[int, int] = {}
            while level:
                y, mask = level.popitem()
                m = -sum([w * (mask & plane).bit_count() for w, plane in planes.items()])
                if m:
                    mu[y] = m
                    sign, size = (1, m) if m > 0 else (-1, -m)
                    for b in range(size.bit_length()):
                        if (size >> b) & 1:
                            planes[sign << b] = planes.get(sign << b, 0) | bit
                    mask |= bit
                    bit <<= 1
                for z in up[y]:
                    above[z] = above.get(z, 0) | mask
            level = above
        return tuple(mu)

    def mobius(self, x: int) -> int:
        self._check(x)
        return self.mobius_all()[x]

    def whitney_first(self) -> tuple[int, ...]:
        """w_k = sum of mu over the rank-k level, k = 0..max rank."""
        mu = self.mobius_all()
        w = [0] * (self.max_rank() + 1)
        for x in self.elements():
            w[self._rank[x]] += mu[x]
        return tuple(w)

    def whitney_second(self) -> tuple[int, ...]:
        """W_k = number of elements of rank k, k = 0..max rank."""
        w = [0] * (self.max_rank() + 1)
        for x in self.elements():
            w[self._rank[x]] += 1
        return tuple(w)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and give the caller back the state
    it had, on return or raise.

    The one collector policy of the package: ``closure`` builds under it and
    ``cli.main`` runs each command under it.  It is safe because nothing the
    package allocates forms a reference cycle (``tests/test_gc.py`` runs
    every command under ``gc.DEBUG_SAVEALL`` to keep it so): reference
    counting frees everything, and a collection would only rescan the
    acyclic posets being built, finding nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def closure(
    bottom: Any,
    successors: Callable[[Any], Iterable[tuple[Any, Hashable]]],
    make: Callable[[Hashable], Any],
    render: Callable[[Any], str],
    limits: Limits = DEFAULT_LIMITS,
) -> GradedPoset:
    """The poset generated rank by rank from the object ``bottom`` by a cover rule.

    ``successors(x)`` yields a pair (tag, key) per object covering x: the key
    is that object's raw hashable value (a parts tuple, say), and the tag says
    what made the cover, as a shared value (a small int, say).  The covers
    and their tags are handed on in the order they are reached, and
    ``GradedPoset`` sorts them once, each tag beside its cover in
    ``cover_tags``.  A cover reached twice is refused, with one tag or two
    (NotGradedError).  Each new rank is keyed by key, and each key new in
    its rank is turned into its object by ``make`` and given its payload
    string by ``render`` once, so each element is built, validated and
    rendered once however many covers reach it.  Payloads must tell
    distinct objects apart.  Each rank is appended in sorted
    payload order, so element indices depend only on the payloads.  The
    deadline of ``limits`` is checked once per source element.

    The closure runs under ``_collector_paused``, so a library caller's
    build is not rescanned by the cyclic collector either.  FLyn's rule
    gives equal trees as one object (it builds each tree vertex once), so a
    rank's keys compare by identity.
    """
    with _collector_paused():
        payloads = [render(bottom)]
        objects = [bottom]
        covers: list[tuple[int, int]] = []
        tags: list[Any] = []
        start = 0
        while start < len(objects):
            end = len(objects)
            produced: dict[Hashable, int] = {}  # key -> its position in the rank
            edges = []  # per cover reached: (source, key's position in the rank)
            for src in range(start, end):
                limits.check_deadline()
                for tag, key in successors(objects[src]):
                    edges.append((src, produced.setdefault(key, len(produced))))
                    tags.append(tag)
            new = list(map(make, produced))
            texts = list(map(render, new))
            order = sorted(range(len(new)), key=texts.__getitem__)
            index = [0] * len(new)
            for i, j in enumerate(order):
                if i and texts[j] == texts[order[i - 1]]:
                    raise NotGradedError(f"two distinct elements render as {texts[j]!r}")
                index[j] = end + i
            payloads.extend(texts[j] for j in order)
            objects.extend(new[j] for j in order)
            covers += [(src, index[k]) for src, k in edges]
            start = end
        return GradedPoset(payloads, covers, objects, tags)


def is_whitney_dual(p: GradedPoset, q: GradedPoset) -> bool:
    """True iff |w_k(P)| = W_k(Q) and |w_k(Q)| = W_k(P) for all k."""
    wp = [abs(v) for v in p.whitney_first()]
    wq = [abs(v) for v in q.whitney_first()]
    sp = list(p.whitney_second())
    sq = list(q.whitney_second())
    size = max(len(wp), len(wq), len(sp), len(sq))
    pad = lambda s: s + [0] * (size - len(s))
    return pad(wp) == pad(sq) and pad(wq) == pad(sp)


def is_whitney_twin(p: GradedPoset, q: GradedPoset) -> bool:
    """True iff w_k(P) = w_k(Q) and W_k(P) = W_k(Q) for all k."""
    wp, wq = list(p.whitney_first()), list(q.whitney_first())
    sp, sq = list(p.whitney_second()), list(q.whitney_second())
    size = max(len(wp), len(wq))
    pad = lambda s: s + [0] * (size - len(s))
    return pad(wp) == pad(wq) and pad(sp) == pad(sq)
