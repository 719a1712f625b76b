"""Label-word sorting and the generic Whitney dual construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneydual import (
    LabelPoset,
    PairLabel,
    PreconditionError,
    are_isomorphic,
    ascent_free_zero_chains,
    build_pointed,
    build_weighted,
    construct_R,
    is_whitney_dual,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
    sort_word,
)
from whitneydual.labeling import check_EW, is_ascent_free
from whitneydual.partitions import label_less_bullet
from whitneydual.poset import closure
from whitneydual.whitney_dual import insert_letter

from chain_oracle import closed_label_poset


def test_sort_figure_example():
    lp = closed_label_poset(list("abcd"), [(0, 2), (1, 2), (2, 3)])
    word = tuple("abcd".index(ch) for ch in "adbca")
    assert "".join("abcd"[i] for i in sort_word(lp, word)) == "dcaba"


def test_sort_fixed_point(lw):
    lp = lw[3].label_poset
    w = (lp.index(PairLabel(1, 3, 1)), lp.index(PairLabel(1, 2, 0)))
    assert sort_word(lp, w) == w


def test_sort_single_swap():
    labels = [PairLabel(a, b, u) for a in range(1, 8) for b in range(a + 1, 8) for u in (0, 1)]
    lp = LabelPoset(labels, label_less_bullet)
    low, high = lp.index(PairLabel(1, 2, 0)), lp.index(PairLabel(1, 5, 1))
    assert sort_word(lp, (low, high)) == (high, low)


@st.composite
def poset_and_word(draw):
    n = draw(st.integers(2, 6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=8,
        )
    )
    lp = closed_label_poset([f"l{i}" for i in range(n)], pairs)
    word = tuple(draw(st.lists(st.integers(0, n - 1), max_size=8)))
    return lp, word


@settings(max_examples=300, deadline=None)
@given(poset_and_word())
def test_sort_idempotent_and_multiset_stable(data):
    lp, word = data
    out = sort_word(lp, word)
    assert sorted(out) == sorted(word)
    assert sort_word(lp, out) == out
    assert is_ascent_free(lp, out)


def swap_leftmost_ascent(lp, word):
    """The sorting rule as stated: swap the leftmost ascent until none is left."""
    w = list(word)
    while True:
        for i in range(len(w) - 1):
            if lp.less(w[i], w[i + 1]):
                w[i], w[i + 1] = w[i + 1], w[i]
                break
        else:
            return tuple(w)


@settings(max_examples=300, deadline=None)
@given(poset_and_word())
def test_sort_matches_swapping_the_leftmost_ascent(data):
    lp, word = data
    assert sort_word(lp, word) == swap_leftmost_ascent(lp, word)


@settings(max_examples=300, deadline=None)
@given(poset_and_word())
def test_one_insertion_sorts_an_ascent_free_word_plus_a_letter(data):
    lp, word = data
    w = sort_word(lp, word)
    for b in range(len(lp.names)):
        assert insert_letter(lp.less_masks, w, b) == sort_word(lp, w + (b,))


def reference_R(p, labeling):
    """construct_R with each cover re-sorting its whole word by ``sort_word``,
    and with or without the EW check's mark."""
    mark = "" if check_EW(labeling).passed else " [unvalidated]"
    lp = labeling.label_poset
    up = labeling.labeled_covers()

    def covers(el):
        top, word = el
        for y, lab in up[top]:
            yield lab, (y, sort_word(lp, word + (lab,)))

    def payload(el):
        top, word = el
        return f"({p.payload(top)}, {labeling.word_names(word) or '∅'}){mark}"

    return closure((p.zero(), ()), covers, lambda key: key, payload)


@pytest.mark.parametrize("build, label, n, bypass", [
    *((build_pointed, label_lambda_bullet, n, False) for n in range(1, 6)),
    *((build_weighted, label_lambda_w, n, False) for n in range(1, 6)),
    *((build_pointed, label_lambda_tilde, n, True) for n in range(1, 5)),
    *((build_pointed, label_lambda_bullet2, n, True) for n in range(1, 5)),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_construct_r_matches_the_full_re_sort(build, label, n, bypass):
    p = build(n)
    labeling = label(p)
    r, ref = construct_R(p, labeling, bypass_ew_check=bypass), reference_R(p, labeling)
    assert r.payloads_ == ref.payloads_
    assert r.covers == ref.covers
    assert r.cover_tags == ref.cover_tags
    assert r.objects == ref.objects


def test_construct_r_reproduces_figure(figure_posets):
    p, labeling, q = figure_posets
    r = construct_R(p, labeling)
    assert are_isomorphic(r, q) is not None
    assert is_whitney_dual(p, r)


def test_construct_r_weighted_words(lw):
    labeling = lw[3]
    r = construct_R(labeling.poset, labeling)
    assert r.whitney_second() == (1, 6, 9)
    words = {labeling.word_names(word) for _, word in r.objects if word}
    expected = {
        "(2,3)^0(1,2)^0", "(2,3)^0(1,2)^1", "(1,3)^0(1,2)^1",
        "(1,3)^0(1,2)^0", "(1,3)^1(1,2)^0", "(1,3)^1(1,2)^1",
        "(1,2)^1(1,3)^0", "(2,3)^1(1,2)^0", "(2,3)^1(1,2)^1",
    }
    top_words = {labeling.word_names(word) for _, word in r.objects if len(word) == 2}
    assert top_words == expected
    assert words >= expected


def test_construct_r_single_element():
    from whitneydual import EdgeLabeling, GradedPoset

    p = GradedPoset(["·"], [])
    labeling = EdgeLabeling(p, LabelPoset.total_order(["x"]), ())
    assert len(construct_R(p, labeling)) == 1


def test_construct_r_requires_ew(pointed):
    labeling = label_lambda_tilde(pointed[3])
    with pytest.raises(PreconditionError):
        construct_R(pointed[3], labeling)
    forced = construct_R(pointed[3], labeling, bypass_ew_check=True)
    assert all(s.endswith("[unvalidated]") for s in forced.payloads_)


def test_fibers_match_mobius(lw, lb):
    for labeling in (lw[4], lb[4]):
        p = labeling.poset
        r = construct_R(p, labeling)
        fibers: dict[int, int] = {}
        for top, word in r.objects:
            fibers[top] = fibers.get(top, 0) + 1
            assert len(word) == p.rank(top)
        for x in p.elements():
            assert fibers[x] == abs(p.mobius(x))


def test_ascent_free_stream_counts(lw, lb):
    for labeling in (lw[3], lb[4]):
        p = labeling.poset
        per_rank: dict[int, int] = {}
        for _, word in ascent_free_zero_chains(p, labeling):
            per_rank[len(word)] = per_rank.get(len(word), 0) + 1
        expected = [abs(v) for v in p.whitney_first()]
        assert [per_rank.get(k, 0) for k in range(len(expected))] == expected


def test_construct_r_agrees_with_direct_enumeration(lw, lb):
    for labeling in (lw[3], lb[3], lw[4], lb[4]):
        p = labeling.poset
        direct = set(ascent_free_zero_chains(p, labeling))
        assert all(is_ascent_free(labeling.label_poset, word) for _, word in direct)
        assert direct == set(construct_R(p, labeling).objects)
