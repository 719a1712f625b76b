"""The sorting construction of a Whitney dual from an EW-labeling.

Elements of the dual are pairs (top, word): an element of the source poset
together with the label word of an ascent-free chain from the minimum up to
it.  Covers append one label and re-sort by repeatedly swapping the leftmost
ascent, which moves the new label left past the labels below it;
``poset.closure`` generates the dual from (minimum, empty word) under
that rule, keys each cover by its (top, word) pair, so that each element is
built once, and tags each cover of the dual with the label it appended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import PreconditionError
from .labeling import EdgeLabeling, LabelPoset, chain_words, check_EW
from .poset import GradedPoset, closure


@dataclass(frozen=True, slots=True)
class DualElement:
    """A source element plus the ascent-free label word that reaches it."""

    top: int
    word: tuple[int, ...]


def sort_word(lp: LabelPoset, word: Sequence[int]) -> tuple[int, ...]:
    """Swap the leftmost ascent until the word is ascent-free.

    Done as one insertion pass: each letter in turn moves left past the
    letters below it.  The letters before it are ascent-free all along, so
    the leftmost ascent is always the one just left of the letter moving,
    and a swap there leaves no ascent behind it.  An ascent-free word plus
    one letter, as in a cover of construct_R, costs O(|w|).
    """
    less = lp.less_masks
    w = list(word)
    for i in range(1, len(w)):
        b, j = w[i], i
        while j and (less[w[j - 1]] >> b) & 1:
            w[j] = w[j - 1]
            j -= 1
        w[j] = b
    return tuple(w)


def construct_R(
    p: GradedPoset,
    labeling: EdgeLabeling,
    bypass_ew_check: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> GradedPoset:
    """The Whitney dual poset on ascent-free chain words of an EW-labeling.

    (x,w) is covered by (y, sort(w + label(x,y))) for every cover x < y of
    the source.  Unless ``bypass_ew_check`` is set, the labeling must pass
    check_EW; with the bypass the output carries no validity guarantee and
    its payload strings are marked "unvalidated".
    """
    if labeling.poset is not p:
        raise PreconditionError("labeling must belong to the given poset")
    mark = ""
    if not check_EW(labeling, limits).passed:
        if not bypass_ew_check:
            raise PreconditionError(
                "labeling is not an EW-labeling; pass --bypass-ew-check "
                "(bypass_ew_check=True) to force"
            )
        mark = " [unvalidated]"
    lp = labeling.label_poset
    up = labeling.labeled_covers()

    def covers(el: DualElement) -> Iterator[tuple[int, tuple]]:
        for y, lab in up[el.top]:
            yield lab, (y, sort_word(lp, el.word + (lab,)))

    def payload(el: DualElement) -> str:
        word = "".join(lp.names[i] for i in el.word) or "∅"
        return f"({p.payload(el.top)}, {word}){mark}"

    make = lambda key: DualElement(*key)
    return closure(DualElement(p.zero(), ()), covers, make, payload, limits)


def ascent_free_zero_chains(
    p: GradedPoset, labeling: EdgeLabeling
) -> Iterator[DualElement]:
    """All ascent-free saturated chains from the minimum, rank by rank.

    Read off the ascent-free sweep of ``chain_words`` and independent of
    construct_R; for an EW-labeling the number of results at rank k equals
    |w_k| of the source.
    """
    if labeling.poset is not p:
        raise PreconditionError("labeling must belong to the given poset")
    for level in chain_words(labeling, p.zero(), increasing=False):
        for top, words in level.items():
            for word in words:
                yield DualElement(top, word)


def dual_element_json(p: GradedPoset, labeling: EdgeLabeling, el: DualElement) -> dict:
    """Wire format of a dual element: its top payload and label-name word."""
    return {
        "top": p.payload(el.top),
        "word": [labeling.label_poset.names[i] for i in el.word],
    }
