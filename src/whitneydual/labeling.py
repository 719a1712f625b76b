"""Edge labelings of graded posets and the ER / EL / EW decision procedures.

Words of labels are tuples of indices into a LabelPoset.  The chain-based
checks read one sweep, ``chain_words``: per bottom x, rank by rank up from
x, the words of the increasing (or ascent-free) chains from x to each y.  ER
stops at the first rank where some y has other than one increasing word; EL
reads the one increasing word of every [x, y] for Bjorner's one-step test;
injectivity looks for a repeated ascent-free word; Stanley compares the
number of ascent-free words with mu.  The dual checks read the same sweeps:
read down from y, a chain's word is its upward word reversed, increasing
(ascent-free) in the dual label order exactly when the upward word is.  So
dual ER is ER, the dual Stanley identity is Stanley's read up, and only the
lex-first test differs (``_dual_failures``).  Only a failing check walks
chains, those of its one failing interval (``saturated_chains``), to rebuild
the witness the per-interval check names first.  Every check runs once per
labeling, takes the run's ``limits`` and checks its deadline once per rank
level it sweeps.

The bottoms x are ``EdgeLabeling.bottoms()``, every element in topo_order;
a labeling type that proves fewer bottoms suffice overrides ``bottoms()``.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import ElementNotFoundError, InternalGuardError, NotGradedError, PreconditionError
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
        try:
            self._index = {l: i for i, l in enumerate(self.labels)}
        except TypeError:
            raise NotGradedError("labels must be hashable") from None
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
        """The position of ``label``; ElementNotFoundError if it is not one."""
        try:
            return self._index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise ElementNotFoundError(f"no label {label!r}") from None

    def less(self, i: int, j: int) -> bool:
        return bool((self.less_masks[i] >> j) & 1)


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

    __slots__ = ("poset", "label_poset", "cover_labels", "_covers", "_reports")

    def __init__(
        self, poset: GradedPoset, label_poset: LabelPoset, cover_labels: Iterable[int]
    ) -> None:
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
        self._covers: Optional[tuple[tuple[tuple[int, int], ...], ...]] = None
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
        """The x whose upper filters the checks sweep: every element, in
        topo_order."""
        return self.poset.topo_order()

    def labeled_covers(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per element x, the pairs (z, label of the cover x -> z) over the
        upper covers z of x, in index order."""
        if self._covers is None:
            per: list[list[tuple[int, int]]] = [[] for _ in self.poset.elements()]
            for (x, z), lab in zip(self.poset.covers, self.cover_labels):
                per[x].append((z, lab))
            self._covers = tuple(map(tuple, per))
        return self._covers


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
    labeling: EdgeLabeling, x: int, increasing: bool = True
) -> Iterator[dict[int, list[tuple[int, ...]]]]:
    """Words of the increasing (or ascent-free) saturated chains from x, by rank.

    Yields, for k = 0, 1, ..., a dict from every y that is k covers above x
    to the words of the increasing x-y chains, or of the ascent-free ones
    when ``increasing`` is false; a y that no such chain reaches maps to [].
    Each rank is built only when the caller asks for it.
    """
    covers = labeling.labeled_covers()
    less = labeling.label_poset.less_masks
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


def _words(labeling: EdgeLabeling, x: int, y: int) -> Iterator[tuple[int, ...]]:
    """Words of the saturated chains from x to y, in depth-first cover order."""
    return map(labeling.word, labeling.poset.saturated_chains(x, y))


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


def _er_failure(
    labeling: EdgeLabeling, bottoms: Iterable[int], limits: Limits
) -> Optional[Report]:
    """The failing ER report of the first interval [x, y], x in ``bottoms``,
    with other than one increasing chain; None if there is none."""
    lp = labeling.label_poset
    for x in bottoms:
        # rank <= 1 intervals trivially have one increasing chain
        for level in islice(chain_words(labeling, x), 2, None):
            limits.check_deadline()
            bad = [y for y, words in level.items() if len(words) != 1]
            if bad:
                y = min(bad)
                inc = [w for w in _words(labeling, x, y) if is_increasing(lp, w)]
                return _failed(
                    "ER", labeling, x, y, "increasing-chain-count",
                    count=len(inc), words=[labeling.word_names(w) for w in inc],
                )
    return None


def _lex_first(
    covers: Sequence[Sequence[tuple[int, int]]], less: Sequence[int], target: int,
    known: dict[tuple[int, int], bool], x: int, y: int, word: tuple[int, ...],
) -> bool:
    """Whether ``word``, the increasing word of [x, y], is lexicographically
    first there; ``target`` is the bitmask of the z <= y, and ``known`` holds
    the verdict per [x, y] decided so far.

    Bjorner's one-step test: the increasing word's first label must be
    strictly below the label of every other atom of [x, y], and the rest
    must be lexicographically first in [c, y], c being its atom.  A second
    atom carrying the first label fails as well: continued by the increasing
    chain of [atom, y], it could only follow the increasing word by being
    increasing itself, which ER rules out.  The test walks up the increasing
    chain until a verdict is known or decided, and that verdict holds for
    every interval [c, y] it passed.
    """
    passed = []
    verdict = known.get((x, y))
    while verdict is None:
        passed.append(x)
        a = word[0]
        first = [z for z, m in covers[x] if m == a and (target >> z) & 1]
        if len(first) != 1 or not all(
            (less[a] >> m) & 1 or m == a or not (target >> z) & 1 for z, m in covers[x]
        ):
            verdict = False
        elif len(word) < 3:
            verdict = True
        else:
            x, word = first[0], word[1:]
            verdict = known.get((x, y))
    for c in passed:
        known[(c, y)] = verdict
    return verdict


def _el_failure(
    labeling: EdgeLabeling, bottoms: Iterable[int], limits: Limits
) -> Optional[Report]:
    """The failing EL report of the first interval [x, y], x in ``bottoms``,
    whose increasing chain is not lexicographically first; None if there is
    none.  ER must hold on every interval from ``bottoms``."""
    p, lp = labeling.poset, labeling.label_poset
    covers = labeling.labeled_covers()
    less = lp.less_masks
    reach = [1 << y for y in p.elements()]  # per y, the bitmask of the z <= y
    for x in p.topo_order():
        for y in p.upper_covers(x):
            reach[y] |= reach[x]
    known: dict[tuple[int, int], bool] = {}  # the verdict per [x, y]
    for x in bottoms:
        for level in islice(chain_words(labeling, x), 2, None):
            limits.check_deadline()
            for y in sorted(level):
                inc = level[y][0]
                if _lex_first(covers, less, reach[y], known, x, y, inc):
                    continue
                competitor, relation = next(
                    (w, r) for w in _words(labeling, x, y)
                    if w != inc and (r := lex_compare(lp, inc, w)) is not Ordering.LESS
                )
                return _failed(
                    "EL", labeling, x, y, "not-lex-first",
                    increasing=labeling.word_names(inc),
                    competitor=labeling.word_names(competitor),
                    relation=relation.value,
                )
    return None


@_once_per_labeling
def check_ER(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """Every interval must have exactly one increasing maximal chain."""
    return _er_failure(labeling, labeling.bottoms(), limits) or Report("ER", True)


@_once_per_labeling
def check_EL(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """ER plus: the increasing chain lexicographically precedes all others."""
    er = check_ER(labeling, limits)
    if not er.passed:
        return Report("EL", False, er.witnesses, {"failed_at": "ER"})
    return _el_failure(labeling, labeling.bottoms(), limits) or Report("EL", True)


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
    for x in labeling.bottoms():
        for level in chain_words(labeling, x, increasing=False):
            limits.check_deadline()
            shared = [y for y, words in level.items() if len(set(words)) < len(words)]
            if shared:
                y = min(shared)
                word = _first_repeat(w for w in _words(labeling, x, y) if is_ascent_free(lp, w))
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


def _stanley_mismatches(labeling: EdgeLabeling, x: int, limits: Limits) -> dict[int, tuple]:
    """The y k ranks above x where mu(x, y) is not (-1)^k times the number of
    ascent-free chains from x to y, each mapped to the two numbers."""
    mu = labeling.poset.mobius_from(x)
    found = {}
    for k, level in enumerate(chain_words(labeling, x, increasing=False)):
        limits.check_deadline()
        for y, words in level.items():
            if mu[y] != (-1) ** k * len(words):
                found[y] = (mu[y], len(words))
    return found


@_once_per_labeling
def stanley_mobius_check(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """For an ER-labeling, mu(0, x) must equal (-1)^rank(x) times the number
    of ascent-free maximal chains of [0, x], for every x.

    Requires that check_ER passes.  Only the intervals [0, x] are checked,
    by the ascent-free sweep from the minimum.
    """
    if not check_ER(labeling, limits).passed:
        raise PreconditionError("stanley_mobius_check requires an ER-labeling")
    p = labeling.poset
    found = _stanley_mismatches(labeling, p.zero(), limits)
    if not found:
        return Report("stanley-mobius", True)
    y = min(found, key=lambda y: (p.rank(y), y))
    mu, count = found[y]
    return _failed(
        "stanley-mobius", labeling, p.zero(), y, "mobius-mismatch",
        mobius=mu, ascent_free_chains=count,
    )


# -- the dual checks -------------------------------------------------------------


def _dual_failures(labeling: EdgeLabeling, x: int, limits: Limits) -> dict[int, bool]:
    """The y above x where [x, y], read down from y, is not EL in the dual
    label order: True where ER fails, False where only the lex-first test does.

    That test is Bjorner's from the top end: the increasing word's last label
    a must be strictly above the label of every other lower cover of y in
    [x, y], and the rest must be lexicographically first in [x, c], c being
    the lower cover it passes; a second lower cover labeled a fails as in EL.
    The sweep passes every cover (c, y) of [x, y] on its way up.  Like EL's,
    the test is exact where ER holds on every subinterval, and is asked
    nowhere else.
    """
    covers = labeling.labeled_covers()
    less = labeling.label_poset.less_masks
    failures: dict[int, bool] = {}
    into: dict[int, list[tuple[int, int]]] = {}  # y -> (c, label) per cover c -> y
    for level in chain_words(labeling, x):
        limits.check_deadline()
        for y, words in level.items():
            if len(words) != 1:
                failures[y] = True
            elif y != x:
                a = words[0][-1]
                by_a = [c for c, b in into[y] if b == a]
                if len(by_a) != 1 or by_a[0] in failures or not all(
                    b == a or (less[b] >> a) & 1 for _, b in into[y]
                ):
                    failures[y] = False
        into = {}
        for c in level:
            for y, b in covers[c]:
                into.setdefault(y, []).append((c, b))
    return failures


def _first_dual_failure(
    labeling: EdgeLabeling, fails: Callable, phases: Sequence, limits: Limits
) -> tuple:
    """(t, phase, y, z) of the first [z, y] that ``fails`` in the order of
    the per-interval check on the dual of each maximal [0, t] in turn: t in
    index order; the y below t and below no earlier t, by rank descending,
    then index, each phase over all of them before the next; then the z below
    y, nearest first, then by index."""
    p = labeling.poset
    down = lambda y: (-p.rank(y), y)
    claimed: set[int] = set()
    for t in sorted(p.maximal_elements()):
        under = sorted(p.below(t) - claimed, key=down)
        claimed.update(under)
        for phase in phases:
            for y in under:
                limits.check_deadline()
                for z in sorted(p.below(y), key=down):
                    if fails(z, y, phase):
                        return t, phase, y, z
    raise InternalGuardError("a failing interval lies below no maximal element")


@_once_per_labeling
def check_EL_dual(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """EL for the dual labeling on the dual of every maximal interval [0, t],
    which is EL on every [z, y] read down from y, decided by the sweeps up
    from ``bottoms()``.  A failing check names the first failing [z, y] of
    ``_first_dual_failure``, ER before EL, each decided by the sweep up from z.
    """
    p, lp = labeling.poset, labeling.label_poset
    failures = functools.cache(lambda z: _dual_failures(labeling, z, limits))
    if not any(map(failures, labeling.bottoms())):
        tops = len(p.maximal_elements())
        return Report("EL-dual", True, details={"maximal_intervals_checked": tops})
    phases = (False,) if check_ER(labeling, limits).passed else (True, False)  # dual ER is ER
    t, er, y, z = _first_dual_failure(
        labeling, lambda z, y, er: failures(z).get(y) is er, phases, limits
    )
    chains = sorted(p.saturated_chains(z, y), key=lambda c: c[::-1])  # depth first down from y
    down = [labeling.word(c)[::-1] for c in chains]
    inc = [w for w in down if is_increasing(lp, w[::-1])]
    names = labeling.word_names
    if er:
        report = _failed("EL-dual", labeling, y, z, "increasing-chain-count",
                         count=len(inc), words=list(map(names, inc)))
        report.details["failed_at"] = "ER"
    else:
        # words of one interval have one length, and they compare under the
        # reversed label order as they compare swapped under the order
        w, r = next(
            (w, r) for w in down
            if w != inc[0] and (r := lex_compare(lp, w, inc[0])) is not Ordering.LESS
        )
        report = _failed("EL-dual", labeling, y, z, "not-lex-first", increasing=names(inc[0]),
                         competitor=names(w), relation=r.value)
    report.details["maximal_interval_top"] = p.payload(t)
    return report


@_once_per_labeling
def stanley_dual_check(labeling: EdgeLabeling, limits: Limits = DEFAULT_LIMITS) -> Report:
    """Stanley's identity on the dual of every maximal interval [0, t]: mu(y, t)
    against the chains of [y, t] ascent-free read up.  A failing check names
    the first failing [y, t] of ``_first_dual_failure``.  Requires EL-dual.
    """
    if not check_EL_dual(labeling, limits).passed:
        raise PreconditionError("stanley_dual_check requires an EL-dual labeling")
    p = labeling.poset
    mismatches = functools.cache(lambda y: {
        t: found for t, found in _stanley_mismatches(labeling, y, limits).items()
        if not p.upper_covers(t)
    })
    if not any(map(mismatches, labeling.bottoms())):
        tops = len(p.maximal_elements())
        return Report("stanley-mobius", True, details={"maximal_intervals_checked": tops})
    _, _, t, y = _first_dual_failure(labeling, lambda y, t, _: t in mismatches(y), [None], limits)
    mu, count = mismatches(y)[t]
    return _failed(
        "stanley-mobius", labeling, t, y, "mobius-mismatch", mobius=mu, ascent_free_chains=count
    )
