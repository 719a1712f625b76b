"""The interval-DP labeling checks against the enumerating oracle.

Reports must agree byte for byte (``Report.to_dict()`` dumped as JSON):
verdicts, witness intervals and witness words alike.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import (
    chains_by_top,
    closed_label_poset,
    hall_mobius,
    hall_whitney_dual,
    oracle_EL,
    oracle_EL_dual,
    oracle_ER,
    oracle_EW,
    oracle_injectivity,
    oracle_stanley,
    oracle_stanley_dual,
    rank_level,
    interval,
    restrict_to,
    upper_filter,
)
from whitneydual import (
    EdgeLabeling,
    GradedPoset,
    PreconditionError,
    build_pointed,
    build_weighted,
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    check_ascent_free_injectivity,
    construct_R,
    is_whitney_dual,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
    stanley_mobius_check,
)
from whitneydual.labeling import (
    chain_words,
    is_ascent_free,
    is_increasing,
    stanley_dual_check,
)
from whitneydual.partitions import LABELING_BUILDERS


def stanley_every_interval(labeling: EdgeLabeling):
    """stanley_mobius_check on every interval [x, y], run on the upper filter
    of each x in turn; the first failing report, else the last passing one."""
    p = labeling.poset
    for x in p.topo_order():
        report = stanley_mobius_check(restrict_to(labeling, upper_filter(p, x)))
        if not report.passed:
            break
    return report


PAIRS = [
    (check_ER, oracle_ER),
    (check_EL, oracle_EL),
    (check_ascent_free_injectivity, oracle_injectivity),
    (check_EW, oracle_EW),
    (stanley_mobius_check, oracle_stanley),
    (stanley_every_interval, partial(oracle_stanley, all_intervals=True)),
    (check_EL_dual, oracle_EL_dual),
    (stanley_dual_check, oracle_stanley_dual),
]

LABELINGS = {
    "lambda_w": (build_weighted, "lambda_w", PAIRS),
    "lambda_bullet": (build_pointed, "lambda_bullet", PAIRS),
    "lambda_bullet2": (build_pointed, "lambda_bullet2", PAIRS),
    "lambda_tilde": (build_pointed, "lambda_tilde", PAIRS),
}


def _report(check, labeling) -> str:
    try:
        return json.dumps(check(labeling).to_dict(), sort_keys=True)
    except PreconditionError as exc:
        return f"precondition: {exc}"


def _assert_agree(labeling, pairs) -> None:
    for check, oracle in pairs:
        assert _report(check, labeling) == _report(oracle, labeling), repr(check)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(LABELINGS))
def test_dp_checks_match_oracle(name, n):
    build, labeling_name, pairs = LABELINGS[name]
    # a fresh labeling, so that check_EW's memo holds the DP result only
    labeling = LABELING_BUILDERS[labeling_name](build(n))
    _assert_agree(labeling, pairs)


@pytest.mark.parametrize("name", sorted(LABELINGS))
def test_dual_checks_match_oracle_at_n5(name):
    # the upward dual checks against the oracles that build each maximal
    # interval's dual, one size past the other checks' oracles
    build, labeling_name, _ = LABELINGS[name]
    labeling = LABELING_BUILDERS[labeling_name](build(5))
    _assert_agree(labeling, [
        (check_EL_dual, oracle_EL_dual), (stanley_dual_check, oracle_stanley_dual),
    ])


@st.composite
def labeled_graded_posets(draw):
    """A small graded poset with a minimum, labeled from a random label poset.

    Few labels over several covers per element make equal labels on sibling
    covers common, which is the case the EL walk must carry forward.
    """
    rank = draw(st.integers(1, 4))
    levels = [[0]]
    covers = []
    for _ in range(rank):
        below = levels[-1]
        level = []
        for _ in range(draw(st.integers(1, 3))):
            y = sum(len(lv) for lv in levels) + len(level)
            lower = draw(st.lists(st.sampled_from(below), min_size=1, unique=True))
            covers.extend((x, y) for x in lower)
            level.append(y)
        levels.append(level)
    size = sum(len(lv) for lv in levels)
    poset = GradedPoset([f"e{i}" for i in range(size)], covers)
    n_labels = draw(st.integers(1, 4))
    less = draw(st.lists(
        st.tuples(st.integers(0, n_labels - 1), st.integers(0, n_labels - 1))
        .filter(lambda t: t[0] < t[1]),
        max_size=6,
    ))
    label_poset = closed_label_poset([f"l{i}" for i in range(n_labels)], less)
    labels = [draw(st.integers(0, n_labels - 1)) for _ in poset.covers]
    return EdgeLabeling(poset, label_poset, labels)


FAMILIES = [
    (build_weighted, label_lambda_w),
    (build_pointed, label_lambda_bullet),
    (build_pointed, label_lambda_bullet2),
    (build_pointed, label_lambda_tilde),
]


@lru_cache(maxsize=None)
def _family_labeling(family: int) -> EdgeLabeling:
    build, label = FAMILIES[family]
    return label(build(4))


@st.composite
def perturbed_family_intervals(draw):
    """A partition-poset labeling at n = 4, or an interval of rank two or three
    in it, with a few labels rewritten.

    Random labelings of rank three or more are almost never ER; rewriting a
    label or two of the paper's labelings lands near the ER/EL boundary, and
    rewriting with a label already in use makes ties on sibling covers.
    """
    family = draw(st.integers(0, len(FAMILIES) - 1))
    labeling = _family_labeling(family)
    p = labeling.poset
    if draw(st.booleans()):
        base = labeling
    else:
        x = draw(st.sampled_from(rank_level(p, 0) + rank_level(p, 1)))
        tops = [y for y in p.elements() if x in p.below(y) and p.rank(y) >= p.rank(x) + 2]
        base = restrict_to(labeling, interval(p, x, draw(st.sampled_from(tops))))
    labels = list(base.cover_labels)
    in_use = sorted(set(labels))
    for _ in range(draw(st.integers(0, 3))):
        labels[draw(st.sampled_from(range(len(labels))))] = draw(st.sampled_from(in_use))
    return EdgeLabeling(base.poset, base.label_poset, labels)


@settings(max_examples=200, deadline=None)
@given(st.one_of(labeled_graded_posets(), perturbed_family_intervals()))
def test_dp_checks_match_oracle_on_random_posets(labeling):
    _assert_agree(labeling, PAIRS)


@settings(max_examples=300, deadline=None)
@given(st.one_of(labeled_graded_posets(), perturbed_family_intervals()))
def test_ew_labelings_give_whitney_duals(labeling):
    # the sorting construction of an EW-labeling is a Whitney dual, with
    # |mu(0, y)| elements over each y; these labelings sweep every bottom
    p = labeling.poset
    ew = check_EW(labeling).passed
    dual = construct_R(p, labeling, bypass_ew_check=not ew)
    assert is_whitney_dual(p, dual) == hall_whitney_dual(p, dual)
    if ew:
        assert is_whitney_dual(p, dual)
        over, mu = Counter(el.top for el in dual.objects), hall_mobius(p)
        assert [over[y] for y in p.elements()] == [abs(m) for m in mu]


@settings(max_examples=300, deadline=None)
@given(st.one_of(labeled_graded_posets(), perturbed_family_intervals()))
def test_el_labelings_satisfy_stanleys_identity(labeling):
    # mu(0, y) is (-1)^rank(y) times the number of ascent-free chains of
    # [0, y], against the package's mu and against Hall's
    if not check_EL(labeling).passed:
        return
    assert stanley_mobius_check(labeling).passed
    p, lp = labeling.poset, labeling.label_poset
    words = chains_by_top(labeling, p.zero())
    assert [(-1) ** p.rank(y) * sum(is_ascent_free(lp, w) for w in words[y])
            for y in p.elements()] == hall_mobius(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", ["lambda_w", "lambda_bullet", "lambda_bullet2", "lambda_tilde"])
def test_chain_words_match_enumeration(name, n):
    # per bottom x and top y: the multiset of increasing, and of ascent-free,
    # words that the sweep yields at rank rank(y) - rank(x) above x
    build = build_weighted if name == "lambda_w" else build_pointed
    labeling = LABELING_BUILDERS[name](build(n))
    p = labeling.poset
    lp = labeling.label_poset
    for x in p.elements():
        chains = chains_by_top(labeling, x)
        for increasing, kept in ((True, is_increasing), (False, is_ascent_free)):
            swept = {}
            for k, level in enumerate(chain_words(labeling, x, increasing)):
                for y, words in level.items():
                    assert p.rank(y) - p.rank(x) == k and y not in swept
                    swept[y] = sorted(words)
            assert swept == {
                y: sorted(w for w in words if kept(lp, w)) for y, words in chains.items()
            }
