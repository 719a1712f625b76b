"""Edge labelings of graded posets and the ER / EL / EW decision procedures.

Words of labels are tuples of indices into a LabelPoset.  All checks iterate
intervals bottom-up in deterministic order; a failing check reports one
witness, its first failing interval [x, y], so outputs are reproducible.

The chain-based checks read one sweep, ``chain_words``: per bottom x, rank by
rank over the upper filter of x, the words of the increasing (or ascent-free)
chains from x to each y.  ER stops at the first rank where some y has other
than one increasing word, so it never holds more than one word per element
below that rank; EL reads the one increasing word of every [x, y] for
Bjorner's one-step test; injectivity looks for a repeated ascent-free word;
Stanley compares the number of ascent-free words with mu.  Only a failing
check enumerates all chains, those of its one failing interval in depth-first
order, to rebuild the witness.  Every check runs once per labeling, takes the
run's ``limits`` and checks its deadline once per rank level it sweeps.

The bottoms x are ``EdgeLabeling.bottoms()``: every element, in topo_order,
unless the labeling's upper filters are alike by rank.  Then each rank is
decided at its first element alone.  The merge labelings lambda_w,
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
of blocks, and restricted, dual and hand-built labelings have no such
collapse: they sweep every bottom.
"""

from __future__ import annotations

import functools
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
    """A map from the cover relations of a poset to a poset of labels."""

    __slots__ = (
        "poset", "label_poset", "label_of", "filters_alike_by_rank", "_up", "_reports",
    )

    def __init__(
        self,
        poset: GradedPoset,
        label_poset: LabelPoset,
        label_of: dict[tuple[int, int], int],
        filters_alike_by_rank: bool = False,
    ) -> None:
        """``filters_alike_by_rank`` promises that the upper filters of any two
        elements of one rank are isomorphic as labeled posets, up to an
        isomorphism of the label order; the checks then sweep one bottom per
        rank (see the module docstring)."""
        self.poset = poset
        self.label_poset = label_poset
        if set(label_of) != set(poset.covers):
            raise NotGradedError("every cover pair needs exactly one label")
        for lab in label_of.values():
            if not 0 <= lab < len(label_poset):
                raise NotGradedError(f"label index {lab} out of range")
        self.label_of = dict(label_of)
        self.filters_alike_by_rank = filters_alike_by_rank
        self._up: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
        self._reports: dict[str, Report] = {}

    def word(self, elements: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            self.label_of[(a, b)] for a, b in zip(elements, elements[1:])
        )

    def word_names(self, word: Sequence[int]) -> str:
        return "".join(self.label_poset.names[i] for i in word)

    def restrict_to(self, sub: GradedPoset) -> "EdgeLabeling":
        """The induced labeling on a subposet (matched by payload strings)."""
        label_of = {}
        for a, b in sub.covers:
            pa = self.poset.index(sub.payload(a))
            pb = self.poset.index(sub.payload(b))
            label_of[(a, b)] = self.label_of[(pa, pb)]
        return EdgeLabeling(sub, self.label_poset, label_of)

    def bottoms(self) -> list[int]:
        """The x whose upper filters the checks sweep, in topo_order: every
        element, or the first of each rank when filters are alike by rank."""
        order = self.poset.topo_order()
        if not self.filters_alike_by_rank:
            return order
        rank = self.poset.rank
        return [x for i, x in enumerate(order) if not i or rank(x) != rank(order[i - 1])]

    def labeled_up_covers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per element x, the pairs (y, label of x < y) over its upper covers."""
        if self._up is None:
            p = self.poset
            self._up = tuple(
                tuple((y, self.label_of[(x, y)]) for y in p.upper_covers(x))
                for x in p.elements()
            )
        return self._up


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
        head = f"[{'pass' if self.passed else 'FAIL'}] {self.check}"
        lines = [head]
        for w in self.witnesses:
            lines.append(f"    witness: {w}")
        for k, v in sorted(self.details.items()):
            lines.append(f"    {k}: {v}")
        return "\n".join(lines)


def _failed(
    check: str, labeling: EdgeLabeling, x: int, y: int, kind: str, **fields
) -> Report:
    """The failing report of ``check`` with one witness, the interval [x, y]."""
    p = labeling.poset
    return Report(
        check, False, [{"kind": kind, "interval": [p.payload(x), p.payload(y)], **fields}]
    )


def _interval_words(labeling: EdgeLabeling, x: int, y: int) -> list[tuple[int, ...]]:
    """Words of the maximal chains of [x, y], in depth-first order."""
    return [labeling.word(c) for c in labeling.poset.saturated_chains(x, y)]


def chain_words(
    labeling: EdgeLabeling, x: int, increasing: bool = True
) -> Iterator[dict[int, list[tuple[int, ...]]]]:
    """Words of the increasing (or ascent-free) saturated chains from x, by rank.

    Yields, for k = 0, 1, ..., a dict from every y >= x of rank rank(x) + k to
    the words of the increasing x-y chains, or of the ascent-free ones when
    ``increasing`` is false; a y that no such chain reaches maps to [].  Each
    rank is built only when the caller asks for it.
    """
    up = labeling.labeled_up_covers()
    less = labeling.label_poset.less_masks
    want = 1 if increasing else 0
    level: dict[int, list[tuple[int, ...]]] = {x: [()]}
    while level:
        yield level
        nxt: dict[int, list[tuple[int, ...]]] = {}
        for z, words in level.items():
            for y, b in up[z]:
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


@_once_per_labeling
def check_ER(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """Every interval must have exactly one increasing maximal chain."""
    lp = labeling.label_poset
    for x in labeling.bottoms():
        # rank <= 1 intervals trivially have one increasing chain
        for level in islice(chain_words(labeling, x), 2, None):
            limits.check_deadline()
            bad = [y for y, words in level.items() if len(words) != 1]
            if bad:
                y = min(bad)
                inc = [w for w in _interval_words(labeling, x, y) if is_increasing(lp, w)]
                return _failed(
                    "ER", labeling, x, y, "increasing-chain-count",
                    count=len(inc), words=[labeling.word_names(w) for w in inc],
                )
    return Report("ER", True)


@_once_per_labeling
def check_EL(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """ER plus: the increasing chain lexicographically precedes all others."""
    er = check_ER(labeling, limits)
    if not er.passed:
        return Report("EL", False, er.witnesses, {"failed_at": "ER"})
    p = labeling.poset
    lp = labeling.label_poset
    up = labeling.labeled_up_covers()
    less = lp.less_masks
    below = [0] * len(p)  # bit z of below[y] is set iff z <= y; local to this call
    for y in p.topo_order():
        below[y] = 1 << y
        for z in p.lower_covers(y):
            below[y] |= below[z]
    known: dict[tuple[int, int], bool] = {}

    def lex_first(x: int, y: int, word: tuple[int, ...]) -> bool:
        # Bjorner's one-step test: the increasing word's first label must be
        # strictly below the label of every other atom of [x, y], and the rest
        # must be lexicographically first in [c, y], c being its atom.  A second
        # atom carrying the first label fails as well: continued by the
        # increasing chain of [atom, y], it could only follow the increasing
        # word by being increasing itself, which ER rules out.
        verdict = known.get((x, y))
        if verdict is None:
            inside = [(z, m) for z, m in up[x] if (below[y] >> z) & 1]
            first = [z for z, m in inside if m == word[0]]
            verdict = (
                len(first) == 1
                and all(m == word[0] or (less[word[0]] >> m) & 1 for _, m in inside)
                and (len(word) < 3 or lex_first(first[0], y, word[1:]))
            )
            known[(x, y)] = verdict
        return verdict

    for x in labeling.bottoms():
        for level in islice(chain_words(labeling, x), 2, None):
            limits.check_deadline()
            for y in sorted(level):
                inc = level[y][0]
                if lex_first(x, y, inc):
                    continue
                competitor, relation = next(
                    (w, r) for w in _interval_words(labeling, x, y)
                    if w != inc and (r := lex_compare(lp, inc, w)) is not Ordering.LESS
                )
                return _failed(
                    "EL", labeling, x, y, "not-lex-first",
                    increasing=labeling.word_names(inc),
                    competitor=labeling.word_names(competitor),
                    relation=relation.value,
                )
    return Report("EL", True)


def rank_two_words(labeling: EdgeLabeling, x: int) -> dict[int, list[tuple[int, int]]]:
    """For every y two ranks above x, the words (label(x,z), label(z,y)) of
    the chains x < z < y, in cover order."""
    up = labeling.labeled_up_covers()
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
    for x in labeling.bottoms():
        for level in chain_words(labeling, x, increasing=False):
            limits.check_deadline()
            shared = [y for y, words in level.items() if len(set(words)) < len(words)]
            if shared:
                y = min(shared)
                words = _interval_words(labeling, x, y)
                word = _first_repeat(w for w in words if is_ascent_free(lp, w))
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
    passed = all(r.passed for r in parts)
    witnesses = [w for r in parts for w in r.witnesses]
    return Report(
        "EW",
        passed,
        witnesses,
        {"parts": {r.check: ("pass" if r.passed else "fail") for r in parts}},
    )


@_once_per_labeling
def stanley_mobius_check(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """For an ER-labeling, mu(0, x) must equal (-1)^rank(x) times the number
    of ascent-free maximal chains of [0, x], for every x.

    Requires that check_ER passes.  An interval [x, y] with x above the
    minimum is checked on the restriction to the upper filter of x.
    """
    er = check_ER(labeling, limits)
    if not er.passed:
        raise PreconditionError("stanley_mobius_check requires an ER-labeling")
    p = labeling.poset
    zero = p.zero()
    mu = p.mobius_all()
    for k, level in enumerate(chain_words(labeling, zero, increasing=False)):
        limits.check_deadline()
        for y in sorted(level):
            if mu[y] != (-1) ** k * len(level[y]):
                return _failed(
                    "stanley-mobius", labeling, zero, y, "mobius-mismatch",
                    mobius=mu[y], ascent_free_chains=len(level[y]),
                )
    return Report("stanley-mobius", True)


def dual_labeling(labeling: EdgeLabeling) -> EdgeLabeling:
    """The same labels on the order dual, over the dual label order.

    Defined only when the underlying poset has a unique maximum.
    """
    dual_poset = labeling.poset.order_dual()
    label_of = {(b, a): lab for (a, b), lab in labeling.label_of.items()}
    return EdgeLabeling(dual_poset, labeling.label_poset.dual(), label_of)


def maximal_interval_duals(labeling: EdgeLabeling) -> Iterator[tuple[int, EdgeLabeling]]:
    """(t, the dual labeling of [0, t]) for each maximal t, in index order."""
    p = labeling.poset
    zero = p.zero()
    for t in sorted(p.maximal_elements()):
        yield t, dual_labeling(labeling.restrict_to(p.interval(zero, t)))


@_once_per_labeling
def check_EL_dual(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """EL verdict for the dual labeling on the order dual.

    The order dual of a poset with several maximal elements has no minimum,
    so the check runs on the dual of every maximal interval [0, t], one or
    many; every interval of the order dual sits inside one of those, which
    makes the aggregation equivalent to the direct check.
    """
    for t, dual in maximal_interval_duals(labeling):
        rep = check_EL(dual, limits)
        if not rep.passed:
            rep.details["maximal_interval_top"] = labeling.poset.payload(t)
            return Report("EL-dual", False, rep.witnesses, rep.details)
    tops = len(labeling.poset.maximal_elements())
    return Report("EL-dual", True, details={"maximal_intervals_checked": tops})
