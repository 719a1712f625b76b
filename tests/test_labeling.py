"""Label posets, lexicographic order on words, and the axiom checkers."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneydual import (
    EdgeLabeling,
    ElementNotFoundError,
    GradedPoset,
    LabelPoset,
    Limits,
    NotGradedError,
    Ordering,
    PairLabel,
    PreconditionError,
    TimeBudgetExceededError,
    build_pointed,
    build_weighted,
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    check_ascent_free_injectivity,
    check_rank_two_switching,
    construct_R,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
    lex_compare,
    stanley_mobius_check,
)
from whitneydual.labeling import is_ascent_free, is_increasing, stanley_dual_check

from chain_oracle import (
    chains_from,
    closed_label_poset,
    dual_label_poset,
    dual_labeling,
    interval,
    oracle_saturated_chains,
    restrict_to,
    upper_filter,
)


# -- label posets -----------------------------------------------------------------


def test_label_poset_validates_transitivity():
    with pytest.raises(NotGradedError):  # a<b, b<c but not a<c
        LabelPoset("abc", lambda x, y: (x, y) in {("a", "b"), ("b", "c")})


def test_label_poset_rejects_a_two_cycle():
    with pytest.raises(NotGradedError, match="not transitive"):  # a<b and b<a
        LabelPoset("ab", lambda x, y: x != y)


def test_label_poset_validates_irreflexive():
    with pytest.raises(NotGradedError):
        LabelPoset("a", lambda x, y: True)


def test_label_poset_rejects_unhashable_labels():
    # distinct names, but a list is no key of the label index: was a bare TypeError
    with pytest.raises(NotGradedError, match="labels must be hashable"):
        LabelPoset([[1], [2]], lambda x, y: False)


def test_label_poset_dual(lb):
    # the oracle's reversed label order, which the package no longer builds
    lp = LabelPoset.total_order(["a", "b", "c"])
    d = dual_label_poset(lp)
    assert d.less(2, 0) and not d.less(0, 2)
    for lp in (lp, lb[4].label_poset):
        assert dual_label_poset(dual_label_poset(lp)).less_masks == lp.less_masks


@pytest.mark.parametrize("label", ["zz", 0, ["a"]])
def test_label_poset_refuses_an_unknown_label(label):
    lp = LabelPoset.total_order(["a", "b"])
    assert lp.index("b") == 1
    with pytest.raises(ElementNotFoundError, match="no label"):
        lp.index(label)


# -- lexicographic order ------------------------------------------------------------


@st.composite
def label_poset_and_words(draw):
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
    words = draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=5), min_size=3, max_size=3)
    )
    return lp, [tuple(w) for w in words]


@settings(max_examples=200, deadline=None)
@given(label_poset_and_words())
def test_lex_compare_is_partial_order(data):
    lp, (w1, w2, w3) = data
    r12 = lex_compare(lp, w1, w2)
    r21 = lex_compare(lp, w2, w1)
    flip = {
        Ordering.LESS: Ordering.GREATER,
        Ordering.GREATER: Ordering.LESS,
        Ordering.EQUAL: Ordering.EQUAL,
        Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
    }
    assert r21 == flip[r12]
    assert (r12 is Ordering.EQUAL) == (w1 == w2)
    if (
        lex_compare(lp, w1, w2) is Ordering.LESS
        and lex_compare(lp, w2, w3) is Ordering.LESS
    ):
        assert lex_compare(lp, w1, w3) is Ordering.LESS


def test_lex_examples(lb):
    alpha = LabelPoset.total_order(["a", "b", "c"])
    ab = (0, 1)
    ba = (1, 0)
    assert lex_compare(alpha, ab, ba) is Ordering.LESS
    assert lex_compare(alpha, ab, ab) is Ordering.EQUAL
    assert lex_compare(alpha, ab, (0, 1, 2)) is Ordering.LESS  # proper prefix
    lp = lb[3].label_poset
    w1 = (lp.index(PairLabel(1, 3, 0)), lp.index(PairLabel(1, 2, 1)))
    w2 = (lp.index(PairLabel(1, 2, 0)), lp.index(PairLabel(1, 3, 0)))
    assert lex_compare(lp, w1, w2) is Ordering.INCOMPARABLE


# -- chain classification --------------------------------------------------------------


def test_classify_figure_chains(figure_posets):
    p, labeling, _ = figure_posets
    lp = labeling.label_poset
    via = lambda mid: [p.zero(), p.index(mid), p.index("1")]
    flags = lambda chain: (
        is_increasing(lp, labeling.word(chain)),
        is_ascent_free(lp, labeling.word(chain)),
    )
    assert flags(via("a")) == (True, False)
    assert flags(via("b")) == (False, True)
    assert flags([p.zero(), p.index("a")]) == (True, True)
    assert flags(via("c")) == (False, True)
    assert labeling.word(via("c")) == (lp.index("c"), lp.index("a"))
    with pytest.raises(PreconditionError, match="not a cover"):
        labeling.word([p.zero(), p.index("1")])


@pytest.mark.parametrize("labels", [
    pytest.param([0, 1, 2, 1, 0], id="one-short"),
    pytest.param([0, 1, 2, 1, 0, 0, 0], id="one-long"),
    pytest.param([0, 1, 2, 1, 0, 3], id="index-past-end"),
    pytest.param([0, 1, 2, 1, 0, -1], id="negative-index"),
    pytest.param([0, 1, 2, 1, 0, 1.0], id="float"),
    pytest.param([0, 1, 2, 1, 0, True], id="bool"),
    pytest.param([0, 1.0, 2, True, False, 0], id="float-and-bools"),
])
def test_labeling_construction_rejects_bad_labels(figure_posets, labels):
    p, labeling, _ = figure_posets
    with pytest.raises(NotGradedError):
        EdgeLabeling(p, labeling.label_poset, labels)


def test_chain_trichotomy(lw):
    labeling = lw[4]
    p = labeling.poset
    lp = labeling.label_poset
    for elems in chains_from(p, p.zero()):
        word = labeling.word(elems)
        inc, af = is_increasing(lp, word), is_ascent_free(lp, word)
        if len(word) <= 1:
            assert inc and af
        else:
            assert not (inc and af)


# -- decision procedures ----------------------------------------------------------------


def test_figure_labeling_is_EW_and_EL(figure_posets):
    _, labeling, _ = figure_posets
    assert check_ER(labeling).passed
    assert check_EL(labeling).passed
    assert check_EW(labeling).passed


def test_one_cover_poset_passes_vacuously():
    from whitneydual import GradedPoset

    p = GradedPoset(["0", "1"], [(0, 1)])
    lp = LabelPoset.total_order(["x"])
    labeling = EdgeLabeling(p, lp, [0])
    for check in (check_ER, check_EL, check_rank_two_switching,
                  check_ascent_free_injectivity, check_EW):
        assert check(labeling).passed


def test_el_implies_er(lw, lb2):
    for labeling in (lw[4], lb2[4]):
        assert check_EL(labeling).passed
        assert check_ER(labeling).passed


def test_el_witness_location(lb):
    report = check_EL(lb[4])
    assert not report.passed
    wit = report.witnesses[0]
    assert wit["interval"][0] == "~1/~2/~3/~4"
    assert wit["interval"][1].startswith("12~3")
    assert wit["relation"] == "incomparable"


def test_rank_two_switching_verdicts(lw, lb, lb2):
    assert check_rank_two_switching(lw[3]).passed
    assert check_rank_two_switching(lb[3]).passed
    report = check_rank_two_switching(lb2[3])
    assert not report.passed
    assert report.witnesses[0]["kind"] == "switched-chain-count"


@pytest.mark.parametrize("words, fields", [
    (["ab", "ba"], None),
    (["ab", "ba", "ba"], {"kind": "switched-chain-count", "increasing": "ab", "switched_count": 2}),
    (["ab", "bb"], {"kind": "switched-chain-count", "increasing": "ab", "switched_count": 0}),
    (["ab", "ab", "ba"], {"kind": "increasing-chain-count", "count": 2}),
    (["ba", "bb"], {"kind": "increasing-chain-count", "count": 0}),
])
def test_rank_two_switching_counts_both_words(words, fields):
    # one rank-2 interval with a middle element per word, labeled by letters a < b
    middles = [f"z{i}" for i in range(len(words))]
    p = GradedPoset(["0", *middles, "1"], [
        cover for i in range(1, len(words) + 1) for cover in ((0, i), (i, len(words) + 1))
    ])
    lp = LabelPoset.total_order(["a", "b"])
    labels = {cover: lp.index(w[k]) for i, w in enumerate(words, 1)
              for k, cover in enumerate(((0, i), (i, len(words) + 1)))}
    report = check_rank_two_switching(EdgeLabeling(p, lp, [labels[c] for c in p.covers]))
    assert report.passed is (fields is None)
    assert report.witnesses == ([] if fields is None else [{"interval": ["0", "1"], **fields}])


def test_injectivity_verdicts(lw, lb):
    assert check_ascent_free_injectivity(lw[4]).passed
    assert check_ascent_free_injectivity(lb[4]).passed


def test_tilde_er_failure(pointed):
    labeling = label_lambda_tilde(pointed[3])
    report = check_ER(labeling)
    assert not report.passed
    wit = report.witnesses[0]
    assert wit["interval"] == ["~1/~2/~3", "12~3"]
    assert sorted(wit["words"]) == ["(2,1)(3,2)", "(2,2)(3,2)"]


def test_stanley_requires_er(pointed):
    labeling = label_lambda_tilde(pointed[3])
    with pytest.raises(PreconditionError):
        stanley_mobius_check(labeling)


def test_stanley_counts(lw, lb):
    # every interval [x, y]: the check on the upper filter of x
    for labeling in (lw[3], lb[3]):
        p = labeling.poset
        for x in p.elements():
            assert stanley_mobius_check(restrict_to(labeling, upper_filter(p, x))).passed
    # rank-two interval specialization: ascent-free chains equal |mu|
    labeling = lw[3]
    p = labeling.poset
    lp = labeling.label_poset
    top = p.index("123^1")
    words = [labeling.word(c) for c in oracle_saturated_chains(p, p.zero(), top)]
    assert sum(1 for w in words if is_ascent_free(lp, w)) == 5 == p.mobius(top)
    top0 = p.index("123^0")
    words0 = [labeling.word(c) for c in oracle_saturated_chains(p, p.zero(), top0)]
    assert sum(1 for w in words0 if is_ascent_free(lp, w)) == 2 == p.mobius(top0)


def test_stanley_mismatch_witness(weighted, monkeypatch):
    import whitneydual.labeling as labeling_module

    sweep = labeling_module.chain_words

    def one_too_many_at_rank_two(labeling, x, increasing=True):
        for k, level in enumerate(sweep(labeling, x, increasing)):
            if not increasing and k == 2:
                level = {y: words + [()] for y, words in level.items()}
            yield level

    monkeypatch.setattr(labeling_module, "chain_words", one_too_many_at_rank_two)
    report = stanley_mobius_check(label_lambda_w(weighted[3]))
    assert str(report) == (
        "[FAIL] stanley-mobius\n"
        "    witness: {'kind': 'mobius-mismatch', 'interval': "
        "['1^0/2^0/3^0', '123^0'], 'mobius': 2, 'ascent_free_chains': 3}"
    )


def test_rank_two_ascent_free_equals_abs_mobius(lw, lb):
    for labeling in (lw[3], lb[3]):
        p = labeling.poset
        lp = labeling.label_poset
        for x in p.elements():
            buckets = {}
            for z in p.upper_covers(x):
                for y in p.upper_covers(z):
                    buckets.setdefault(y, []).append(labeling.word([x, z, y]))
            for y, words in buckets.items():
                af = sum(1 for w in words if is_ascent_free(lp, w))
                assert af == abs(p.mobius_from(x)[y])


def test_dual_labeling_roundtrip(pointed, lb):
    p3 = pointed[3]
    sub = interval(p3, p3.zero(), p3.index("~123"))
    restricted = restrict_to(lb[3], sub)
    dual = dual_labeling(restricted)
    assert check_EL(dual).passed
    double = dual_labeling(dual)
    assert double.cover_labels == restricted.cover_labels
    # a dual-increasing word is the reverse-read of an original increasing word
    lp = restricted.label_poset
    for x in sub.elements():
        for z in sub.upper_covers(x):
            for y in sub.upper_covers(z):
                w = restricted.word([x, z, y])
                dual_word = dual.word([y, z, x])
                assert dual_word == tuple(reversed(w))
                assert is_increasing(dual.label_poset, dual_word) == is_increasing(lp, w)


def test_check_el_dual_passes(lb):
    for n in (2, 3, 4):
        assert check_EL_dual(lb[n]).passed


@pytest.mark.parametrize("label, report", [
    (label_lambda_bullet2, {
        "check": "EL-dual", "verdict": "fail", "witnesses": [{
            "kind": "not-lex-first", "interval": ["1234~5", "12~3/~4/~5"],
            "increasing": "(1,5)^0(1,4)^0", "competitor": "(1,4)^1(1,5)^0",
            "relation": "incomparable",
        }],
        "maximal_interval_top": "1234~5",
    }),
    (label_lambda_tilde, {
        "check": "EL-dual", "verdict": "fail", "witnesses": [{
            "kind": "increasing-chain-count", "interval": ["1234~5", "12~3/~4/~5"],
            "count": 2, "words": ["(5,4)(4,3)", "(5,4)(4,6)"],
        }],
        "failed_at": "ER", "maximal_interval_top": "1234~5",
    }),
], ids=["lambda_bullet2", "lambda_tilde"])
def test_check_el_dual_witness_at_n5(label, report):
    # past the oracle's n <= 4: the report of the per-interval dual check
    assert check_EL_dual(label(build_pointed(5))).to_dict() == report


def test_report_json_shape(lb2):
    report = check_EW(lb2[3])
    doc = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert doc["verdict"] == "fail"
    assert isinstance(doc["witnesses"], list) and doc["witnesses"]
    assert "rank-two-switching" in doc["parts"]


def first_of_each_rank(p) -> list[int]:
    return [min(x for x in p.elements() if p.rank(x) == k) for k in range(p.max_rank() + 1)]


def _count_sweeps(monkeypatch) -> dict:
    """Per (bottom, increasing), the number of ranks each ``chain_words``
    sweep from now on yields, in call order."""
    import whitneydual.labeling as labeling_module

    reads: dict[tuple[int, bool], list[int]] = {}
    sweep = labeling_module.chain_words

    def counting(labeling, x, increasing=True):
        read = reads.setdefault((x, increasing), [])
        read.append(0)
        for level in sweep(labeling, x, increasing):
            read[-1] += 1
            yield level

    monkeypatch.setattr(labeling_module, "chain_words", counting)
    return reads


def test_er_runs_once_per_labeling(weighted, monkeypatch):
    reads = _count_sweeps(monkeypatch)
    lw = label_lambda_w(weighted[4])
    assert check_EL(lw).passed
    assert check_EW(lw).passed
    assert stanley_mobius_check(lw).passed
    # per bottom, increasing sweeps to the top for ER and for EL, then one to
    # rank 2 for rank-two switching; lambda_w's filters are alike by rank, so
    # the bottoms are the first element of each rank
    p = lw.poset
    height = {x: p.max_rank() - p.rank(x) + 1 for x in first_of_each_rank(p)}
    assert {x: read for (x, inc), read in reads.items() if inc} == {
        x: [h, h, min(3, h)] for x, h in height.items()
    }


def test_verify_runs_each_pass_once_per_bottom(pointed, monkeypatch, capsys):
    # EW reuses the reports of the ER, rank-two and injectivity checks
    from whitneydual.cli import main

    reads = _count_sweeps(monkeypatch)
    # lambda_bullet is EW but not EL: exit 11, with every other check passing
    assert main(["verify", "pointed", "lambda_bullet", "4"]) == 11
    assert capsys.readouterr().out.count("[pass]") == 4
    p = pointed[4]
    height = {x: p.max_rank() - p.rank(x) + 1 for x in first_of_each_rank(p)}
    # per bottom: the ascent-free sweep to rank 2 for rank-two switching,
    # then to the top for injectivity; the increasing sweep to the top for
    # ER, then to rank 2 for rank-two switching (EL stops at its first
    # failing bottom, the minimum, and sweeps it to its first failing rank)
    assert {x: read for (x, inc), read in reads.items() if not inc} == {
        x: [min(3, h), h] for x, h in height.items()
    }
    el_read = reads[(p.zero(), True)].pop(1)
    assert 2 < el_read < height[p.zero()]
    assert {x: read for (x, inc), read in reads.items() if inc} == {
        x: [h, min(3, h)] for x, h in height.items()
    }


REDUCED_CHECKS = [
    check_ER, check_EL, check_rank_two_switching, check_ascent_free_injectivity, check_EW,
]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("family, label", [
    (build_weighted, label_lambda_w),
    (build_pointed, label_lambda_bullet),
    (build_pointed, label_lambda_bullet2),
])
def test_one_bottom_per_rank_matches_every_bottom(family, label, n):
    reduced = label(family(n))
    p = reduced.poset
    assert len(reduced.bottoms()) == p.max_rank() + 1
    assert reduced.bottoms() == first_of_each_rank(p)
    # the same label map as a plain EdgeLabeling sweeps every bottom
    full = EdgeLabeling(p, reduced.label_poset, reduced.cover_labels)
    assert full.bottoms() == p.topo_order()
    for check in REDUCED_CHECKS:
        assert check(reduced).to_dict() == check(full).to_dict(), check.__name__


def test_labelings_without_the_collapse_sweep_every_bottom(pointed, lb, monkeypatch):
    from collections import Counter

    import whitneydual.labeling as labeling_module

    p = pointed[4]
    tilde = label_lambda_tilde(p)
    assert len(p) > p.max_rank() + 1 and tilde.bottoms() == p.topo_order()

    sweeps: Counter[tuple[int, int]] = Counter()
    sweep = labeling_module.chain_words

    def counting(swept, x, increasing=True):
        if increasing:
            sweeps[id(swept), x] += 1
        return sweep(swept, x, increasing)

    monkeypatch.setattr(labeling_module, "chain_words", counting)
    sub = interval(p, p.zero(), max(p.maximal_elements()))
    restricted = restrict_to(lb[4], sub)
    for labeling in (
        restricted,
        dual_labeling(restricted),
        # an interval is not closed under merges: its filters differ by rank
        label_lambda_bullet(sub),
    ):
        assert labeling.bottoms() == labeling.poset.topo_order()
        assert check_ER(labeling).passed
        assert sweeps == Counter((id(labeling), x) for x in labeling.poset.elements())
        sweeps.clear()


def test_a_labeling_carries_no_promise_of_alike_filters():
    # 0 < a, b < d, e < t over the chain 0 < 1 < 2 < 3: [b, t] has the two
    # increasing chains b-d-t (0, 1) and b-e-t (0, 2), while every interval
    # from 0, a, d or t, the first element of each rank, has one.  So a sweep
    # of one bottom per rank would pass ER, and no caller can ask for one
    from whitneydual import GradedPoset

    p = GradedPoset(["0", "a", "b", "d", "e", "t"],
                    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    lp = LabelPoset.total_order(["0", "1", "2", "3"])
    labels = [0, 3, 1, 1, 0, 0, 1, 2]  # 0a 0b ad ae bd be dt et
    report = check_ER(EdgeLabeling(p, lp, labels))
    assert not report.passed and report.witnesses[0]["interval"] == ["b", "t"]
    assert report.witnesses[0]["words"] == ["01", "02"]
    with pytest.raises(TypeError):
        EdgeLabeling(p, lp, labels, True)


def test_el_dual_sweeps_up_from_the_bottoms(monkeypatch):
    # the elements EL-dual and the dual Stanley check sweep up from: the
    # bottoms when the checks pass, and so every element without the collapse
    import whitneydual.labeling as labeling_module

    starts: set[int] = set()
    sweep = labeling_module.chain_words

    def counting(labeling, x, increasing=True):
        starts.add(x)
        return sweep(labeling, x, increasing)

    monkeypatch.setattr(labeling_module, "chain_words", counting)
    for build, label in ((build_pointed, label_lambda_bullet), (build_weighted, label_lambda_w)):
        reduced = label(build(5))
        p = reduced.poset
        assert check_EL_dual(reduced).passed and stanley_dual_check(reduced).passed
        assert starts == set(reduced.bottoms()) and len(starts) == p.max_rank() + 1
        starts.clear()
        full = EdgeLabeling(p, reduced.label_poset, reduced.cover_labels)
        assert check_EL_dual(full).passed and stanley_dual_check(full).passed
        assert starts == set(p.elements())
        starts.clear()
    # lambda_tilde fails at its first bottom, the minimum; the witness search
    # then sweeps the z below the first maximal t, rank descending, then
    # index, up to the witness [z, t]: 35 of the 196 elements
    p = build_pointed(5)
    report = check_EL_dual(label_lambda_tilde(p))
    top, z = map(p.index, report.witnesses[0]["interval"])
    assert top == min(p.maximal_elements())
    below = sorted(p.below(top), key=lambda y: (-p.rank(y), y))
    assert starts == {p.zero(), *below[:below.index(z) + 1]}
    assert len(starts) == 35


def test_stanley_dual_mismatch_witness(pointed, monkeypatch):
    # one ascent-free word too many two ranks up: the first maximal t in
    # index order, then the first y below it by rank descending, then index
    import whitneydual.labeling as labeling_module

    sweep = labeling_module.chain_words

    def one_too_many_at_rank_two(labeling, x, increasing=True):
        for k, level in enumerate(sweep(labeling, x, increasing)):
            if not increasing and k == 2:
                level = {y: words + [()] for y, words in level.items()}
            yield level

    labeling = label_lambda_bullet(pointed[4])
    assert check_EL_dual(labeling).passed
    monkeypatch.setattr(labeling_module, "chain_words", one_too_many_at_rank_two)
    assert str(stanley_dual_check(labeling)) == (
        "[FAIL] stanley-mobius\n"
        "    witness: {'kind': 'mobius-mismatch', 'interval': "
        "['123~4', '1~2/~3/~4'], 'mobius': 3, 'ascent_free_chains': 4}"
    )


@pytest.mark.parametrize("check", [
    check_ER,
    check_EL,
    check_rank_two_switching,
    check_ascent_free_injectivity,
    check_EW,
    stanley_mobius_check,
    check_EL_dual,
    stanley_dual_check,
])
def test_checks_honour_the_deadline(check, pointed):
    # a fresh labeling, so that no memoised report answers without a pass
    labeling = label_lambda_bullet(pointed[4])
    with pytest.raises(TimeBudgetExceededError):
        check(labeling, limits=Limits(deadline=time.monotonic() - 1))
    assert labeling._reports == {}
    assert check(labeling) == check(label_lambda_bullet(pointed[4]))


def test_the_deadline_stops_a_sweep_between_levels(monkeypatch):
    # one sweep per rank, so the deadline is checked inside a sweep: one that
    # passes during the sweep from the minimum stops it before its top rank
    import whitneydual.labeling as labeling_module

    class ExpiresAtSecondCheck(Limits):
        calls = 0

        def check_deadline(self) -> None:
            type(self).calls += 1
            if type(self).calls == 2:
                raise TimeBudgetExceededError("time budget exceeded")

    levels: list[int] = []
    sweep = labeling_module.chain_words

    def counting(labeling, x, increasing=True):
        for level in sweep(labeling, x, increasing):
            levels.append(x)
            yield level

    monkeypatch.setattr(labeling_module, "chain_words", counting)
    labeling = label_lambda_w(build_weighted(5))
    with pytest.raises(TimeBudgetExceededError):
        check_ER(labeling, ExpiresAtSecondCheck())
    zero = labeling.poset.zero()
    assert set(levels) == {zero}
    assert len(levels) < labeling.poset.max_rank() + 1


def test_construct_r_checks_ew_under_its_deadline(pointed):
    labeling = label_lambda_bullet(pointed[3])
    with pytest.raises(TimeBudgetExceededError):
        construct_R(pointed[3], labeling, limits=Limits(deadline=time.monotonic() - 1))
    assert labeling._reports == {}
