"""Edge labelings of graded posets and the ER / EL / EW decision procedures.

Words of labels are tuples of indices into a LabelPoset.  A ``Sweep`` reads a
labeling in one direction: up the upper covers under the label order, or down
the lower covers under its dual, which reads the dual labeling of the order
dual off the poset itself.  The chain-based checks read one sweep,
``chain_words``: per bottom x, rank by rank away from x, the words of the
increasing (or ascent-free) chains from x to each y.  ER stops at the first
rank where some y has other than one increasing word; EL reads the one
increasing word of every [x, y] for Bjorner's one-step test; injectivity looks
for a repeated ascent-free word; Stanley compares the number of ascent-free
words with mu.  Only a failing check walks chains, those of its one failing
interval, one at a time, depth first in cover order (``saturated_chains``),
to rebuild the witness of the first failing [x, y] in its bottoms' order.
Every check runs once per labeling, takes the run's ``limits`` and checks
its deadline once per rank level it sweeps.

Up, the bottoms x are ``EdgeLabeling.bottoms()``: every element, in
topo_order, unless the labeling's upper filters are alike by rank.  Then each
rank is decided at its first element alone.  The merge labelings lambda_w,
lambda_bullet and lambda_bullet2 of ``partitions`` are so.  In both partition
families the upper filter of alpha collapses onto the same family on the
block minima of alpha: each block goes to its minimum (pointed), or the
weights become relative to alpha's (weighted).  The collapse keeps every
merge label (a, b)^u, and both label orders compare labels only by < and =,
so an order-preserving renaming of the minima keeps the label order too.
Every alpha of one rank has as many blocks, so their filters are isomorphic
as labeled posets, and each check passes or fails on all of them alike.  A
check scans the bottoms in topo_order and stops at the first failure, so the
first element of the first failing rank is the first failing bottom either
way, and the witness is the same.  lambda_tilde's labels depend on the number
of blocks, and hand-built labelings have no such collapse: they sweep every
bottom.  So does EL-dual's downward sweep, rank descending, then index.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import InternalGuardError, NotGradedError, PreconditionError
from .poset import GradedPoset


class Ordering(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


class LabelPoset:
    """A finite set of labels with a strict partial order.

    Built from the labels and one predicate ``less(a, b)`` on them.  Labels
    are named by ``str`` and looked up with ``index``; words of labels are
    tuples of indices.  The strictly-less relation is materialized as one
    bitmask per label and validated (irreflexive, transitive) exhaustively at
    construction.
    """

    __slots__ = ("labels", "names", "less_masks", "_index")

    def __init__(self, labels: Iterable, less: Callable[[Any, Any], bool]) -> None:
        self.labels = tuple(labels)
        self.names = tuple(str(l) for l in self.labels)
        if len(self.names) != len(set(self.names)):
            raise NotGradedError("label names must be distinct")
        self._index = {l: i for i, l in enumerate(self.labels)}
        self.less_masks = tuple(
            sum(1 << j for j, y in enumerate(self.labels) if less(x, y))
            for x in self.labels
        )
        self._validate()

    def _validate(self) -> None:
        n = len(self.names)
        for i in range(n):
            if (self.less_masks[i] >> i) & 1:
                raise NotGradedError(f"label order not irreflexive at {self.names[i]}")
            m = self.less_masks[i]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                # a 2-cycle i < j < i fails here too: i is above j, not above i
                if self.less_masks[j] & ~self.less_masks[i]:
                    raise NotGradedError(
                        f"label order not transitive at {self.names[i]} < {self.names[j]}"
                    )

    @classmethod
    def total_order(cls, labels: Sequence) -> "LabelPoset":
        """Chain on the given labels, in the given order."""
        position = {l: i for i, l in enumerate(labels)}
        return cls(labels, lambda a, b: position[a] < position[b])

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def less(self, i: int, j: int) -> bool:
        return bool((self.less_masks[i] >> j) & 1)

    def dual(self) -> "LabelPoset":
        """Same labels with the order reversed."""
        return LabelPoset(self.labels, lambda a, b: self.less(self.index(b), self.index(a)))


def lex_compare(lp: LabelPoset, w1: Sequence[int], w2: Sequence[int]) -> Ordering:
    """Lexicographic comparison of words over a partially ordered alphabet.

    Compared at the first differing position; incomparable labels there make
    the words incomparable.  A proper prefix is less than its extension.
    """
    for a, b in zip(w1, w2):
        if a == b:
            continue
        if lp.less(a, b):
            return Ordering.LESS
        if lp.less(b, a):
            return Ordering.GREATER
        return Ordering.INCOMPARABLE
    if len(w1) == len(w2):
        return Ordering.EQUAL
    return Ordering.LESS if len(w1) < len(w2) else Ordering.GREATER


def is_increasing(lp: LabelPoset, word: Sequence[int]) -> bool:
    return all(lp.less(a, b) for a, b in zip(word, word[1:]))


def is_ascent_free(lp: LabelPoset, word: Sequence[int]) -> bool:
    return not any(lp.less(a, b) for a, b in zip(word, word[1:]))


class EdgeLabeling:
    """A map from the cover relations of a poset to a poset of labels.

    The labels sit beside the covers the way ``GradedPoset.cover_tags`` do:
    ``cover_labels`` holds one label index per cover, parallel to the sorted
    ``poset.covers``.
    """

    __slots__ = (
        "poset", "label_poset", "cover_labels", "filters_alike_by_rank", "_covers", "_reports",
    )

    def __init__(
        self,
        poset: GradedPoset,
        label_poset: LabelPoset,
        cover_labels: Iterable[int],
        filters_alike_by_rank: bool = False,
    ) -> None:
        """``filters_alike_by_rank`` promises that the upper filters of any two
        elements of one rank are isomorphic as labeled posets, up to an
        isomorphism of the label order; the checks then sweep one bottom per
        rank (see the module docstring)."""
        self.poset = poset
        self.label_poset = label_poset
        self.cover_labels = tuple(cover_labels)
        if len(self.cover_labels) != len(poset.covers):
            raise NotGradedError(f"each of the {len(poset.covers)} covers needs one label")
        n = len(label_poset)
        for lab in self.cover_labels:
            # type(), not isinstance(): True and False are not indices
            if type(lab) is not int or not 0 <= lab < n:
                raise NotGradedError(f"label {lab!r} is not an index into {n} labels")
        self.filters_alike_by_rank = filters_alike_by_rank
        self._covers: dict[bool, tuple[tuple[tuple[int, int], ...], ...]] = {}
        self._reports: dict[str, Report] = {}

    def word(self, elements: Sequence[int]) -> tuple[int, ...]:
        covers = self.poset.covers
        word = []
        for cov in zip(elements, elements[1:]):
            k = bisect_left(covers, cov)
            if k == len(covers) or covers[k] != cov:
                raise PreconditionError(f"{cov} is not a cover")
            word.append(self.cover_labels[k])
        return tuple(word)

    def word_names(self, word: Sequence[int]) -> str:
        return "".join(self.label_poset.names[i] for i in word)

    def bottoms(self) -> list[int]:
        """The x whose upper filters the checks sweep, in topo_order: every
        element, or the first of each rank when filters are alike by rank."""
        order = self.poset.topo_order()
        if not self.filters_alike_by_rank:
            return order
        rank = self.poset.rank
        return [x for i, x in enumerate(order) if not i or rank(x) != rank(order[i - 1])]

    def labeled_covers(self, down: bool = False) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per element x, the pairs (z, label of the cover) over the upper
        covers z of x, or over its lower covers when ``down``, in index order."""
        if down not in self._covers:
            p = self.poset
            per: list[list[tuple[int, int]]] = [[] for _ in p.elements()]
            x, z = (1, 0) if down else (0, 1)  # which end of a cover is x, which z
            for cov, lab in zip(p.covers, self.cover_labels):
                per[cov[x]].append((cov[z], lab))
            self._covers[down] = tuple(map(tuple, per))
        return self._covers[down]


class Sweep:
    """A labeling read in one direction.

    Up, chains climb the upper covers and labels compare by the label order;
    down, they descend the lower covers and labels compare by its dual, which
    reads the dual labeling on the order dual without building either.
    """

    __slots__ = ("labeling", "down", "label_poset", "covers", "verdicts", "_reach")

    def __init__(self, labeling: EdgeLabeling, down: bool = False) -> None:
        self.labeling = labeling
        self.down = down
        self.label_poset = labeling.label_poset.dual() if down else labeling.label_poset
        self.covers = labeling.labeled_covers(down)
        self.verdicts: dict[tuple[int, int], bool] = {}  # EL's lex-first verdict per [x, y]
        self._reach: Optional[list[int]] = None

    def order(self) -> list[int]:
        """Every element, in topo_order up and by rank descending, then index, down."""
        p = self.labeling.poset
        return sorted(p.elements(), key=lambda x: (-p.rank(x), x)) if self.down else p.topo_order()

    def reach(self) -> list[int]:
        """Per element y, the bitmask of the z that a chain to y passes:
        z <= y up, z >= y down."""
        if self._reach is None:
            p = self.labeling.poset
            back = p.upper_covers if self.down else p.lower_covers
            reach = self._reach = [0] * len(p)
            for y in self.order():
                m = 1 << y
                for z in back(y):
                    m |= reach[z]
                reach[y] = m
        return self._reach

    def words(self, x: int, y: int) -> Iterator[tuple[int, ...]]:
        """Words of the saturated chains from x to y, in depth-first cover order."""
        word = self.labeling.word
        for c in self.labeling.poset.saturated_chains(x, y, self.down):
            yield word(c[::-1])[::-1] if self.down else word(c)


# -- reports -------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of a labeling check; a failing check carries its witnesses."""

    check: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"check": self.check, "verdict": "pass" if self.passed else "fail",
                "witnesses": self.witnesses, **self.details}

    def __str__(self) -> str:
        lines = [f"[{'pass' if self.passed else 'FAIL'}] {self.check}"]
        lines += [f"    witness: {w}" for w in self.witnesses]
        lines += [f"    {k}: {v}" for k, v in sorted(self.details.items())]
        return "\n".join(lines)


def _failed(
    check: str, labeling: EdgeLabeling, x: int, y: int, kind: str, **fields
) -> Report:
    """The failing report of ``check`` with one witness, the interval [x, y]."""
    p = labeling.poset
    return Report(
        check, False, [{"kind": kind, "interval": [p.payload(x), p.payload(y)], **fields}]
    )


def chain_words(
    sweep: Sweep, x: int, increasing: bool = True
) -> Iterator[dict[int, list[tuple[int, ...]]]]:
    """Words of the increasing (or ascent-free) saturated chains from x, by rank.

    Yields, for k = 0, 1, ..., a dict from every y that is k covers from x in
    the sweep's direction to the words of the increasing x-y chains, or of
    the ascent-free ones when ``increasing`` is false; a y that no such chain
    reaches maps to [].  Each rank is built only when the caller asks for it.
    """
    covers = sweep.covers
    less = sweep.label_poset.less_masks
    want = 1 if increasing else 0
    level: dict[int, list[tuple[int, ...]]] = {x: [()]}
    while level:
        yield level
        nxt: dict[int, list[tuple[int, ...]]] = {}
        for z, words in level.items():
            for y, b in covers[z]:
                into = nxt.setdefault(y, [])
                for w in words:
                    if not w or ((less[w[-1]] >> b) & 1) == want:
                        into.append(w + (b,))
        level = nxt


def _once_per_labeling(check):
    """Run ``check`` once per labeling; later calls return the same report.

    A call that raises (say, at the deadline of ``limits``) stores nothing.
    """

    @functools.wraps(check)
    def memo(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
        if check.__name__ not in labeling._reports:
            labeling._reports[check.__name__] = check(labeling, limits)
        return labeling._reports[check.__name__]

    return memo


def _er_failure(sweep: Sweep, bottoms: Iterable[int], limits: Limits) -> Optional[Report]:
    """The failing ER report of the first interval [x, y], x in ``bottoms``,
    with other than one increasing chain; None if there is none."""
    lp = sweep.label_poset
    for x in bottoms:
        # rank <= 1 intervals trivially have one increasing chain
        for level in islice(chain_words(sweep, x), 2, None):
            limits.check_deadline()
            bad = [y for y, words in level.items() if len(words) != 1]
            if bad:
                y = min(bad)
                inc = [w for w in sweep.words(x, y) if is_increasing(lp, w)]
                return _failed(
                    "ER", sweep.labeling, x, y, "increasing-chain-count",
                    count=len(inc), words=[sweep.labeling.word_names(w) for w in inc],
                )
    return None


def _el_failure(sweep: Sweep, bottoms: Iterable[int], limits: Limits) -> Optional[Report]:
    """The failing EL report of the first interval [x, y], x in ``bottoms``,
    whose increasing chain is not lexicographically first; None if there is
    none.  ER must hold on every interval from ``bottoms``."""
    lp = sweep.label_poset
    covers = sweep.covers
    less = lp.less_masks
    reach = sweep.reach()
    known = sweep.verdicts

    def lex_first(x: int, y: int, word: tuple[int, ...]) -> bool:
        # Bjorner's one-step test: the increasing word's first label must be
        # strictly below the label of every other atom of [x, y], and the rest
        # must be lexicographically first in [c, y], c being its atom.  A second
        # atom carrying the first label fails as well: continued by the
        # increasing chain of [atom, y], it could only follow the increasing
        # word by being increasing itself, which ER rules out.
        verdict = known.get((x, y))
        if verdict is None:
            a, target = word[0], reach[y]
            first = [z for z, m in covers[x] if m == a and (target >> z) & 1]
            verdict = len(first) == 1 and all(
                (less[a] >> m) & 1 or m == a or not (target >> z) & 1 for z, m in covers[x]
            ) and (len(word) < 3 or lex_first(first[0], y, word[1:]))
            known[(x, y)] = verdict
        return verdict

    for x in bottoms:
        for level in islice(chain_words(sweep, x), 2, None):
            limits.check_deadline()
            for y in sorted(level):
                inc = level[y][0]
                if lex_first(x, y, inc):
                    continue
                competitor, relation = next(
                    (w, r) for w in sweep.words(x, y)
                    if w != inc and (r := lex_compare(lp, inc, w)) is not Ordering.LESS
                )
                return _failed(
                    "EL", sweep.labeling, x, y, "not-lex-first",
                    increasing=sweep.labeling.word_names(inc),
                    competitor=sweep.labeling.word_names(competitor),
                    relation=relation.value,
                )
    return None


@_once_per_labeling
def check_ER(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """Every interval must have exactly one increasing maximal chain."""
    return _er_failure(Sweep(labeling), labeling.bottoms(), limits) or Report("ER", True)


@_once_per_labeling
def check_EL(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """ER plus: the increasing chain lexicographically precedes all others."""
    er = check_ER(labeling, limits)
    if not er.passed:
        return Report("EL", False, er.witnesses, {"failed_at": "ER"})
    return _el_failure(Sweep(labeling), labeling.bottoms(), limits) or Report("EL", True)


def rank_two_words(labeling: EdgeLabeling, x: int) -> dict[int, list[tuple[int, int]]]:
    """For every y two ranks above x, the words (label(x,z), label(z,y)) of
    the chains x < z < y, in cover order."""
    up = labeling.labeled_covers()
    buckets: dict[int, list[tuple[int, int]]] = {}
    for z, first in up[x]:
        for y, second in up[z]:
            buckets.setdefault(y, []).append((first, second))
    return buckets


@_once_per_labeling
def check_rank_two_switching(
    labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS
) -> Report:
    """In every rank-2 interval with increasing chain ab, demand a unique ba."""
    lp = labeling.label_poset
    for x in labeling.bottoms():
        limits.check_deadline()
        buckets = rank_two_words(labeling, x)
        for y in sorted(buckets):
            words = buckets[y]
            inc = [w for w in words if lp.less(w[0], w[1])]
            if len(inc) != 1:
                return _failed(
                    "rank-two-switching", labeling, x, y, "increasing-chain-count",
                    count=len(inc),
                )
            a, b = inc[0]
            swapped = [w for w in words if w == (b, a)]
            if len(swapped) != 1:
                return _failed(
                    "rank-two-switching", labeling, x, y, "switched-chain-count",
                    increasing=labeling.word_names((a, b)), switched_count=len(swapped),
                )
    return Report("rank-two-switching", True)


def _first_repeat(words: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    seen: set[tuple[int, ...]] = set()
    for w in words:
        if w in seen:
            return w
        seen.add(w)
    raise InternalGuardError("the failing interval has no repeated word")


@_once_per_labeling
def check_ascent_free_injectivity(
    labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS
) -> Report:
    """No two distinct ascent-free maximal chains of an interval share a word."""
    lp = labeling.label_poset
    sweep = Sweep(labeling)
    for x in labeling.bottoms():
        for level in chain_words(sweep, x, increasing=False):
            limits.check_deadline()
            shared = [y for y, words in level.items() if len(set(words)) < len(words)]
            if shared:
                y = min(shared)
                word = _first_repeat(w for w in sweep.words(x, y) if is_ascent_free(lp, w))
                return _failed(
                    "ascent-free-injectivity", labeling, x, y, "duplicate-word",
                    word=labeling.word_names(word),
                )
    return Report("ascent-free-injectivity", True)


@_once_per_labeling
def check_EW(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """ER + rank-two switching + ascent-free injectivity, aggregated."""
    parts = [
        check_ER(labeling, limits),
        check_rank_two_switching(labeling, limits),
        check_ascent_free_injectivity(labeling, limits),
    ]
    return Report(
        "EW", all(r.passed for r in parts), [w for r in parts for w in r.witnesses],
        {"parts": {r.check: ("pass" if r.passed else "fail") for r in parts}},
    )


def _stanley_failure(sweep: Sweep, starts: Iterable[int], limits: Limits) -> Optional[Report]:
    """The failing report of Stanley's identity from the first x in ``starts``
    with a y, k covers away in the sweep's direction, whose mu(x, y) (mu(y, x)
    down) is not (-1)^k times the number of ascent-free chains from x to y;
    None if there is none.  It holds on every interval where the sweep is ER."""
    p = sweep.labeling.poset
    for x in starts:
        mu = p.mobius_from(x, sweep.down)
        for k, level in enumerate(chain_words(sweep, x, increasing=False)):
            limits.check_deadline()
            for y in sorted(level):
                if mu[y] != (-1) ** k * len(level[y]):
                    return _failed(
                        "stanley-mobius", sweep.labeling, x, y, "mobius-mismatch",
                        mobius=mu[y], ascent_free_chains=len(level[y]),
                    )
    return None


@_once_per_labeling
def stanley_mobius_check(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """For an ER-labeling, mu(0, x) must equal (-1)^rank(x) times the number
    of ascent-free maximal chains of [0, x], for every x.

    Requires that check_ER passes.  Only the intervals [0, x] are checked,
    by the upward sweep from the minimum.
    """
    if not check_ER(labeling, limits).passed:
        raise PreconditionError("stanley_mobius_check requires an ER-labeling")
    zero = [labeling.poset.zero()]
    return _stanley_failure(Sweep(labeling), zero, limits) or Report("stanley-mobius", True)


@_once_per_labeling
def check_EL_dual(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """EL for the dual labeling on the order dual, read by the downward sweep.

    The order dual of a poset with several maximal elements has no minimum,
    so the verdict is the one on the dual of every maximal interval [0, t]:
    each y is decided once, under the first t (index order) above it, by ER
    and then EL from y down.  The sweep from y reads only [0, y], the same
    under every t above y, so this is the check on each dual in turn.
    """
    p = labeling.poset
    down = Sweep(labeling, down=True)
    left = down.order()
    tops = sorted(p.maximal_elements())
    for t in tops:
        under = p.below(t)
        bottoms = [y for y in left if y in under]
        left = [y for y in left if y not in under]
        failed = _er_failure(down, bottoms, limits)
        details = {"failed_at": "ER"} if failed else {}
        failed = failed or _el_failure(down, bottoms, limits)
        if failed:
            details["maximal_interval_top"] = p.payload(t)
            return Report("EL-dual", False, failed.witnesses, details)
    return Report("EL-dual", True, details={"maximal_intervals_checked": len(tops)})


@_once_per_labeling
def stanley_dual_check(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """Stanley's identity on the dual of every maximal interval [0, t], read
    down from t: mu(y, t) against the ascent-free chains from t to y.

    Requires that check_EL_dual passes.
    """
    if not check_EL_dual(labeling, limits).passed:
        raise PreconditionError("stanley_dual_check requires an EL-dual labeling")
    tops = sorted(labeling.poset.maximal_elements())
    return _stanley_failure(Sweep(labeling, down=True), tops, limits) or Report(
        "stanley-mobius", True, details={"maximal_intervals_checked": len(tops)}
    )
