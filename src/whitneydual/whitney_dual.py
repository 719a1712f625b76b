"""The sorting construction of a Whitney dual from an EW-labeling.

An element of the dual is the pair (top, word): an element of the source
poset, as its index, and the label word, as a tuple of label indices, of an
ascent-free chain from the minimum up to it.  A cover appends one label and
re-sorts by repeatedly swapping the leftmost ascent.  Every word of the dual
is ascent-free (the root word is empty, and each cover inserts one letter
into an ascent-free word), so the re-sort moves only the new label, left
past the labels below it: one insertion, ``insert_letter``, which
``sort_word`` folds over a whole word.  ``poset.closure`` generates the dual
from (minimum, empty word) under that rule, keys each cover by its
(top, word) pair and keeps that key as the element, and tags each cover of
the dual with the label it appended.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import PreconditionError
from .labeling import EdgeLabeling, LabelPoset, chain_words, check_EW
from .poset import GradedPoset, closure


def insert_letter(less: Sequence[int], word: tuple[int, ...], b: int) -> tuple[int, ...]:
    """The ascent-free word ``word`` with ``b`` appended and the leftmost
    ascent swapped until none is left.

    The letters before b have no ascent, so the leftmost ascent is always
    the one just left of b, and a swap there leaves no ascent behind it: b
    moves left past the letters below it, and nothing else moves.  ``less``
    is ``LabelPoset.less_masks``.  O(|word|).
    """
    j = len(word)
    while j and (less[word[j - 1]] >> b) & 1:
        j -= 1
    return word[:j] + (b,) + word[j:]


def sort_word(lp: LabelPoset, word: Sequence[int]) -> tuple[int, ...]:
    """Swap the leftmost ascent until the word is ascent-free.

    Done as one insertion pass, ``insert_letter`` of each letter in turn
    into the ascent-free word of the letters before it.
    """
    less = lp.less_masks
    w: tuple[int, ...] = ()
    for b in word:
        w = insert_letter(less, w, b)
    return w


def construct_R(
    p: GradedPoset,
    labeling: EdgeLabeling,
    bypass_ew_check: bool = False,
    limits: Limits = DEFAULT_LIMITS,
) -> GradedPoset:
    """The Whitney dual poset on ascent-free chain words of an EW-labeling.

    (x,w) is covered by (y, sort(w + label(x,y))) for every cover x < y of
    the source; w is ascent-free, so that is ``insert_letter`` of the label.
    Unless ``bypass_ew_check`` is set, the labeling must pass check_EW; with
    the bypass the output carries no validity guarantee and its payload
    strings are marked "unvalidated".
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
    less, names = labeling.label_poset.less_masks, labeling.label_poset.names
    up, tops = labeling.labeled_covers(), p.payloads_

    def covers(el: tuple) -> Iterator[tuple[int, tuple]]:
        top, w = el
        for y, lab in up[top]:
            yield lab, (y, insert_letter(less, w, lab))

    def payload(el: tuple) -> str:
        top, w = el
        word = "".join([names[i] for i in w]) or "∅"
        return f"({tops[top]}, {word}){mark}"

    return closure((p.zero(), ()), covers, lambda key: key, payload, limits)


def ascent_free_zero_chains(
    p: GradedPoset, labeling: EdgeLabeling
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """All ascent-free saturated chains from the minimum, rank by rank, each
    as the pair (top, word) that is its element of construct_R.

    Read off the ascent-free sweep of ``chain_words`` and independent of
    construct_R; for an EW-labeling the number of results at rank k equals
    |w_k| of the source.
    """
    if labeling.poset is not p:
        raise PreconditionError("labeling must belong to the given poset")
    for level in chain_words(labeling, p.zero(), increasing=False):
        for top, words in level.items():
            for word in words:
                yield top, word
