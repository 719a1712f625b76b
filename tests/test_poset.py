"""Core graded poset engine: construction, Möbius, Whitney numbers, duals."""

from __future__ import annotations

import gc
import random
import time
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import (
    down_bits,
    hall_mobius,
    interval,
    oracle_interval_payloads,
    oracle_mobius,
    oracle_mobius_from,
    oracle_ranks,
    oracle_saturated_chains,
    order_dual,
    upper_filter,
)
from test_labeling_dp import labeled_graded_posets, perturbed_family_intervals
from whitneydual import (
    BicoloredForest,
    ElementNotFoundError,
    GradedPoset,
    Limits,
    Node,
    NotGradedError,
    PointedPartition,
    RootedForest,
    SetPartition,
    TimeBudgetExceededError,
    WeightedPartition,
    WhitneyDualError,
    are_isomorphic,
    build_flyn,
    build_partition_lattice,
    build_pointed,
    build_spanning_forest_poset,
    build_weighted,
    construct_R,
    is_whitney_dual,
    is_whitney_twin,
    label_lambda_bullet,
    label_lambda_w,
)
from whitneydual.labeling import _words
from whitneydual.partitions import FAMILY_BUILDERS
from whitneydual.poset import closure


def chain_poset(k):
    return GradedPoset([f"c{i}" for i in range(k + 1)], [(i, i + 1) for i in range(k)])


def antichain_over_zero(n):
    return GradedPoset(["0"] + [f"a{i}" for i in range(n)], [(0, i + 1) for i in range(n)])


def test_rejects_two_minima():
    with pytest.raises(NotGradedError):
        GradedPoset(["a", "b"], [])


def test_rejects_non_graded_cover():
    # diamond with one long side: 0<a<b<t and 0<t makes 0->t rank-skipping
    with pytest.raises(NotGradedError):
        GradedPoset(["0", "a", "b", "t"], [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_rejects_non_reduced():
    with pytest.raises(NotGradedError):
        GradedPoset(["0", "a", "b"], [(0, 1), (1, 2), (0, 2)])


def test_rejects_cycle():
    with pytest.raises(NotGradedError):
        GradedPoset(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])


def test_rejects_a_repeated_cover():
    # a cover given twice is an input error, not a cover to keep once
    with pytest.raises(NotGradedError, match=r"cover \(0,1\) is given twice"):
        GradedPoset(["a", "b"], [(0, 1), (0, 1)])
    with pytest.raises(NotGradedError, match=r"cover \(0,1\) is given twice"):
        GradedPoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 1)])


def test_rejects_duplicate_payloads():
    with pytest.raises(NotGradedError):
        GradedPoset(["x", "x"], [(0, 1)])


@pytest.mark.parametrize("covers", [
    [(0.5, 1), (1.9, 2)],
    [(0, 1), (1, 2.0)],
    [(False, True), (1, 2)],
    [(0, 1), (True, 2)],
    [("0", 1), (1, 2)],
    [(0, 1, 2)],
    [(0, 1), (1,)],
    [5],
    [(0, 1), None],
])
def test_rejects_covers_that_are_not_ints(covers):
    # nothing is coerced: 0.5 is not cover index 0, nor True index 1; an
    # entry that is not a pair is refused the same way
    with pytest.raises(NotGradedError):
        GradedPoset(["a", "b", "c"], covers)


def test_keeps_the_callers_cover_tuples():
    # pairs built at run time, so no two are one constant; a list pair is copied
    covers = [(a, a + 1) for a in range(3)]
    p = GradedPoset(["a", "b", "c", "d"], covers[::-1])
    assert all(kept is given for kept, given in zip(p.covers, covers))
    q = GradedPoset(["a", "b"], [[0, 1]])
    assert q.covers == ((0, 1),) and type(q.covers[0]) is tuple


@pytest.mark.parametrize("tags", [iter(["x"]), {"x"}, {(0, 1): "x"}])
def test_rejects_cover_tags_that_are_not_a_sequence(tags):
    with pytest.raises(NotGradedError, match="sequence of one tag per cover"):
        GradedPoset(["a", "b"], [(0, 1)], cover_tags=tags)


@pytest.mark.parametrize("objects", [5, iter(["x"]), {"x"}, ["x", "y"]])
def test_rejects_objects_that_are_not_a_sequence_of_one_per_element(objects):
    # an int was a bare TypeError from tuple()
    with pytest.raises(NotGradedError, match="sequence of one object per element"):
        GradedPoset(["a"], [], objects=objects)


def test_unknown_element_errors():
    p = chain_poset(2)
    with pytest.raises(ElementNotFoundError):
        p.mobius(17)
    with pytest.raises(ElementNotFoundError):
        p.index("nope")


@pytest.mark.parametrize("x", [True, False])
def test_bools_are_not_elements(x):
    # type(), not isinstance(), as for the cover entries: True is not element 1
    p = build_weighted(3)
    for query in (p.payload, p.rank, p.upper_covers, p.lower_covers):
        with pytest.raises(ElementNotFoundError, match=f"^unknown element {x!r}$"):
            query(x)


def test_mobius_base_and_chain():
    p = chain_poset(1)
    assert p.mobius(p.zero()) == 1
    assert p.whitney_first() == (1, -1)


def test_mobius_figure_values(figure_posets):
    p, _, q = figure_posets
    assert p.mobius(p.index("1")) == 2
    assert [p.mobius(p.index(e)) for e in "abc"] == [-1, -1, -1]
    assert q.mobius(q.index("(1,ba)")) == 1
    assert q.mobius(q.index("(1,ca)")) == 0


def test_whitney_sequences_figure(figure_posets):
    p, _, q = figure_posets
    assert p.whitney_first() == (1, -3, 2)
    assert p.whitney_second() == (1, 3, 1)
    assert q.whitney_first() == (1, -3, 1)
    assert q.whitney_second() == (1, 3, 2)
    assert is_whitney_dual(p, q)
    assert not is_whitney_twin(p, q)


def test_whitney_antichain():
    p = antichain_over_zero(5)
    assert p.whitney_second() == (1, 5)
    assert is_whitney_dual(p, p)


def test_mobius_sum_vanishes(weighted, pointed, sf):
    for p in [weighted[3], pointed[3], sf[3], weighted[4]]:
        mu = p.mobius_all()
        bits = down_bits(p)
        for x in p.elements():
            total = sum(mu[y] for y in p.elements() if (bits[x] >> y) & 1)
            assert total == (1 if x == p.zero() else 0)


def test_whitney_zeroth_entries(weighted, pointed, sf):
    for p in (weighted[4], pointed[4], sf[4]):
        assert p.whitney_first()[0] == 1
        assert p.whitney_second()[0] == 1


def test_dual_and_twin_relations(weighted, pointed, sf, flyn):
    family = [weighted[3], pointed[3], sf[3], flyn[(3, "pointed")], flyn[(3, "weighted")]]
    for p in family:
        assert is_whitney_twin(p, p)
        for q in family:
            assert is_whitney_dual(p, q) == is_whitney_dual(q, p)
            assert is_whitney_twin(p, q) == is_whitney_twin(q, p)
    # transitivity on this family
    for p in family:
        for q in family:
            for r in family:
                if is_whitney_twin(p, q) and is_whitney_twin(q, r):
                    assert is_whitney_twin(p, r)


def test_isomorphic_implies_twin(flyn):
    p, q = flyn[(3, "pointed")], flyn[(3, "weighted")]
    assert are_isomorphic(p, q) is not None
    assert is_whitney_twin(p, q)
    assert p.whitney_first() == q.whitney_first()


def test_closure_renders_each_element_once():
    makes = renders = 0

    def make(blocks):
        nonlocal makes
        makes += 1
        return WeightedPartition(blocks)

    def render(x):
        nonlocal renders
        renders += 1
        return x.render()

    p = closure(WeightedPartition.bottom(range(1, 5)), WeightedPartition.merges, make, render)
    # 41 elements, 132 covers: one make per element above the given bottom
    # and one render per element, not one per cover
    assert makes + 1 == renders == len(p) < len(p.covers)
    assert p.payloads_ == build_weighted(4).payloads_
    assert p.covers == build_weighted(4).covers


def _dual_of_pointed(n):
    p = build_pointed(n)
    return construct_R(p, label_lambda_bullet(p))


def _flyn_pointed(n):
    return build_flyn(n, "pointed")


def _flyn_weighted(n):
    return build_flyn(n, "weighted")


ELEMENT_BUILDS = [
    (build_weighted, WeightedPartition),
    (build_pointed, PointedPartition),
    (build_partition_lattice, SetPartition),
    (build_spanning_forest_poset, RootedForest),
    (_flyn_pointed, BicoloredForest),
    (_flyn_weighted, BicoloredForest),
]


def _count_builds(monkeypatch, cls):
    """A counter of the ``cls`` objects constructed from now on: by their
    ``__new__`` for a tuple subclass (a parent tuple has no ``__init__``),
    else by their ``__init__``."""
    built = [0]
    if issubclass(cls, tuple):
        new = cls.__new__

        def counted_new(klass, *args):
            built[0] += 1
            return new(klass, *args)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted_new))
        return built
    init = cls.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("build, cls", ELEMENT_BUILDS)
def test_closure_builds_each_element_once(build, cls, n, monkeypatch):
    # the bottom, then one object per key new in its rank; none per cover
    built = _count_builds(monkeypatch, cls)
    p = build(n)
    assert built[0] == len(p) < len(p.covers)
    assert all(type(obj) is cls for obj in p.objects)


@pytest.mark.parametrize("build, cls, n, size", [
    (build_pointed, PointedPartition, 6, 1057),  # 7231 objects were built per cover
    (build_pointed, PointedPartition, 7, 6322),  # 57037
    (build_spanning_forest_poset, RootedForest, 6, 16807),  # 30871
    (_flyn_pointed, BicoloredForest, 6, 16807),  # 30871
])
def test_element_builds_at_full_size(build, cls, n, size, monkeypatch):
    built = _count_builds(monkeypatch, cls)
    assert len(build(n)) == built[0] == size


def _dual_keys(monkeypatch) -> list:
    """The keys that construct_R's cover rule yields from now on, each the
    very object handed to ``closure``."""
    import whitneydual.whitney_dual as whitney_dual_module

    keys, run = [], whitney_dual_module.closure

    def recording(bottom, covers, make, render, limits):
        def recorded(el):
            for tag, key in covers(el):
                keys.append(key)
                yield tag, key

        return run(bottom, recorded, make, render, limits)

    monkeypatch.setattr(whitney_dual_module, "closure", recording)
    return keys


@pytest.mark.parametrize("n, size", [(3, 16), (4, 125), (5, 1296), (6, 16807)])
def test_sorting_dual_elements_are_the_closures_keys(n, size, monkeypatch):
    # the bottom, then for each element the first key that reached it, kept
    # as the element itself: one object per element and none copied
    keys = _dual_keys(monkeypatch)
    r = _dual_of_pointed(n)
    first = {}
    for key in keys:
        first.setdefault(key, key)
    assert len(r) == len(first) + 1 == size < len(r.covers)
    assert r.objects[0][1] == ()
    assert all(type(el) is tuple for el in r.objects)
    assert all(el is first[el] for el in r.objects[1:])


def _distinct_vertices(p):
    """The texts of the internal vertices of the trees of p's forests."""
    seen, stack = set(), [t for f in p.objects for t in f.trees]
    while stack:
        t = stack.pop()
        if isinstance(t, Node) and t.text not in seen:
            seen.add(t.text)
            stack += (t.left, t.right)
    return seen


@pytest.mark.parametrize("build", [_flyn_pointed, _flyn_weighted])
@pytest.mark.parametrize("n, size", [
    (5, 1055),  # 2454 pointed and 2336 weighted were built per slide
    (6, 12696),  # 34404 and 31680
])
def test_flyn_builds_each_vertex_once(build, n, size, monkeypatch):
    built = _count_builds(monkeypatch, Node)
    p = build(n)
    assert built[0] == len(_distinct_vertices(p)) == size


def test_closure_validates_each_new_element():
    # the key of the one cover points its block at 3, outside {1, 2}:
    # building the element from its key runs the family's check
    def bad_merge(x):
        return [(0, (((1, 2), 3),))] if len(x.blocks) == 2 else []

    bottom = PointedPartition.bottom((1, 2))
    with pytest.raises(NotGradedError, match=r"point 3 not in block \(1, 2\)"):
        closure(bottom, bad_merge, PointedPartition, PointedPartition.render)


def test_closure_rejects_two_elements_with_one_payload():
    def successors(k):
        return ((None, k + 1), (None, -(k + 1))) if abs(k) < 2 else ()

    with pytest.raises(NotGradedError, match="two distinct elements render as '1'"):
        closure(0, successors, int, lambda k: str(abs(k)))


def test_closure_rejects_one_cover_with_two_tags():
    def successors(k):
        return ((0, k + 1), (1, k + 1)) if k < 2 else ()

    with pytest.raises(NotGradedError, match=r"cover \(0,1\) is given twice"):
        closure(0, successors, int, str)


def _chain_of_three(k):
    return ((None, k + 1),) if k < 2 else ()


def _two_alike(k):
    return ((None, k + 1), (None, -(k + 1))) if abs(k) < 2 else ()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("successors, limits, error, calls", [
    (_chain_of_three, Limits(), None, 3),
    # the deadline is checked before the rule first runs
    (_chain_of_three, Limits(deadline=time.monotonic() - 1), TimeBudgetExceededError, 0),
    (_two_alike, Limits(), NotGradedError, 1),  # two elements render as "1"
])
def test_closure_leaves_the_collector_as_it_found_it(enabled, successors, limits, error, calls):
    paused = []

    def rule(k):
        paused.append(not gc.isenabled())
        return successors(k)

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert len(closure(0, rule, int, lambda k: str(abs(k)), limits)) == 3
        else:
            with pytest.raises(error):
                closure(0, rule, int, lambda k: str(abs(k)), limits)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True] * calls


def test_closure_keeps_one_tag_per_cover():
    # 0 reaching 1 twice is refused even with one tag, not merged
    with pytest.raises(NotGradedError, match=r"cover \(0,1\) is given twice"):
        closure(0, lambda k: ((5, 1), (7, 2), (5, 1)) if k == 0 else (), int, str)
    # tags come out beside the sorted covers
    tagged = closure(0, lambda k: ((7, 2), (5, 1)) if k == 0 else (), int, str)
    assert tagged.covers == ((0, 1), (0, 2))
    assert tagged.cover_tags == (5, 7)
    assert GradedPoset(["0", "1"], [(0, 1)]).cover_tags is None


def test_cover_tags_follow_their_covers():
    # covers in any order: the sort carries each tag with its cover, and
    # never compares two tags
    p = GradedPoset(["0", "a", "b", "t"], [(2, 3), (0, 2), (1, 3), (0, 1)],
                    cover_tags=[None, "0b", 13, ("0", "a")])
    assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert p.cover_tags == (("0", "a"), "0b", 13, None)
    with pytest.raises(NotGradedError, match="one tag per cover"):
        GradedPoset(["0", "a"], [(0, 1)], cover_tags=["x", "y"])
    with pytest.raises(NotGradedError, match="one tag per cover"):
        GradedPoset(["0", "a", "b"], [(0, 2), (0, 1)], cover_tags=["x"])


def _agree_with_oracle(size, covers):
    """GradedPoset accepts exactly what the old longest-path ranking did,
    with its ranks; else it raises the same class, and the same message
    unless it names a cover that does not go up one rank."""
    try:
        want = oracle_ranks(size, covers)
    except WhitneyDualError as exc:
        want = exc
    try:
        p = GradedPoset([f"e{i}" for i in range(size)], covers)
    except WhitneyDualError as exc:
        assert type(exc) is type(want), (covers, exc, want)
        assert "spans ranks" in str(exc) or str(exc) == str(want), (covers, exc, want)
    else:
        assert tuple(map(p.rank, p.elements())) == want, covers


@pytest.mark.parametrize("size, covers", [
    (3, [(0, 1), (1, 2), (2, 0)]),  # a cycle, so no minimum
    (4, [(0, 1), (1, 2), (2, 3), (3, 1)]),  # a cycle above the minimum
    (4, [(0, 1), (2, 3), (3, 2)]),  # a cycle nothing reaches
    (3, [(0, 2), (1, 2)]),  # two minima
    (2, []),
    (3, [(0, 1), (1, 2), (0, 2)]),  # a cover implied by a longer path
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    (2, [(0, 1), (0, 1)]),  # repeated covers
    (3, [(1, 2), (0, 1), (1, 2)]),
    (2, [(0, 1), (1, 1)]),  # self-covers
    (1, [(0, 0)]),
    (2, [(0, 2)]),  # out of range
    (2, [(-1, 0), (0, 1)]),
    # a repeat is refused before a cover out of range or onto itself
    (2, [(0, 5), (0, 5)]),
    (2, [(-1, 0), (0, 1), (0, 1)]),
    (2, [(0, 0), (0, 1), (0, 1)]),
    (2, [(0, 1.0)]),
    (4, [(2, 3), (0, 2), (1, 3), (0, 1)]),  # a diamond in any order
    (5, [(0, 1), (0, 2), (1, 3), (2, 4)]),
])
def test_ranks_agree_with_the_oracle(size, covers):
    _agree_with_oracle(size, covers)


@st.composite
def cover_lists(draw):
    """The covers of a graded poset, level by level up from one minimum,
    with up to two faults, each a cover left out (two minima, an element
    nothing reaches), a pair added (a cycle, a self-cover, an implied cover,
    an end out of range) or a cover repeated; in any order."""
    sizes = [1] + draw(st.lists(st.integers(1, 3), max_size=3))
    starts = [0, *accumulate(sizes)]
    covers = []
    for lo, mid, hi in zip(starts, starts[1:], starts[2:]):
        for b in range(mid, hi):
            covers += [(a, b) for a in draw(st.sets(st.integers(lo, mid - 1), min_size=1))]
    size = starts[-1]
    for fault in draw(st.lists(st.sampled_from(["drop", "repeat", "add", "stray"]), max_size=2)):
        if fault in ("add", "stray"):  # a stray end may lie out of range
            end = st.integers(0, size - 1) if fault == "add" else st.integers(-1, size)
            covers.append(draw(st.tuples(end, end)))
        elif covers:
            k = draw(st.integers(0, len(covers) - 1))
            if fault == "repeat":
                covers.append(covers[k])
            else:
                del covers[k]
    return size, draw(st.permutations(covers))


@settings(max_examples=300, deadline=None)
@given(cover_lists())
def test_ranks_agree_with_the_oracle_on_random_digraphs(case):
    _agree_with_oracle(*case)


def _sorting_dual(flavor, n):
    build, label = (build_pointed, label_lambda_bullet) if flavor == "pointed" else (
        build_weighted, label_lambda_w)
    labeling = label(build(n))
    return construct_R(labeling.poset, labeling)


@pytest.mark.parametrize("build, sizes", [
    *[pytest.param(build, range(1, 6), id=name) for name, build in FAMILY_BUILDERS.items()],
    pytest.param(_flyn_pointed, [5], id="flyn-pointed"),
    pytest.param(_flyn_weighted, [5], id="flyn-weighted"),
    pytest.param(partial(_sorting_dual, "pointed"), [5], id="R-pointed"),
    pytest.param(partial(_sorting_dual, "weighted"), [5], id="R-weighted"),
])
def test_family_ranks_agree_with_the_oracle_in_any_cover_order(build, sizes):
    for n in sizes:
        p = build(n)
        ranks = tuple(map(p.rank, p.elements()))
        order = list(range(len(p.covers)))
        random.Random(n).shuffle(order)
        covers = [p.covers[k] for k in order]
        assert oracle_ranks(len(p), covers) == ranks
        tags = None if p.cover_tags is None else [p.cover_tags[k] for k in order]
        q = GradedPoset(p.payloads_, covers, p.objects, tags)
        assert (q.covers, q.cover_tags, q.zero()) == (p.covers, p.cover_tags, p.zero())
        assert tuple(map(q.rank, q.elements())) == ranks


def test_interval_and_filter(pointed):
    p3 = pointed[3]
    x = p3.index("~1/~23")
    assert len(upper_filter(p3, x)) == 3
    top = p3.index("~123")
    inter = interval(p3, p3.zero(), top)
    assert inter.whitney_second() == (1, 4, 1)
    single = interval(p3, x, x)
    assert len(single) == 1


def test_interval_requires_comparable(pointed):
    p3 = pointed[3]
    with pytest.raises(ElementNotFoundError):
        interval(p3, p3.index("~1/~23"), p3.index("12~3"))


def test_order_dual_involution(pointed):
    p3 = pointed[3]
    inter = interval(p3, p3.zero(), p3.index("~123"))
    dual = order_dual(inter)
    assert dual.whitney_second() == (1, 4, 1)
    assert are_isomorphic(order_dual(dual), inter) is not None


def test_order_dual_requires_unique_max(pointed):
    with pytest.raises(NotGradedError):
        order_dual(pointed[3])


def test_order_dual_chain():
    c = chain_poset(2)
    d = order_dual(c)
    assert d.whitney_second() == (1, 1, 1)


def test_saturated_chain_words(figure_posets):
    p, labeling, _ = figure_posets
    zero, top = p.zero(), p.index("1")
    assert list(p.saturated_chains(zero, top)) == [(0, 1, 4), (0, 2, 4), (0, 3, 4)]
    words = list(_words(labeling, zero, top))
    assert len(words) == 3 and all(len(w) == 2 for w in words)


def test_saturated_chains_stream_early_stop(pointed, monkeypatch):
    """The first chain, or its word, is had without walking the others, so
    a witness search stops at the first word it needs."""
    p = pointed[4]
    zero, top = p.zero(), p.maximal_elements()[0]
    assert sum(1 for _ in p.saturated_chains(zero, top)) == 36  # 18 merge orders x 2^3 points / 4
    assert next(p.saturated_chains(zero, top))[::3] == (zero, top)
    labeling = label_lambda_bullet(p)
    read = []
    walk = GradedPoset.saturated_chains

    def counted(self, *args):
        for chain in walk(self, *args):
            read.append(chain)
            yield chain

    monkeypatch.setattr(GradedPoset, "saturated_chains", counted)
    assert len(next(_words(labeling, zero, top))) == 3
    assert len(read) == 1


def _assert_order_matches_oracle(p):
    """The walked order queries against the bitset oracle, on all pairs; the
    Möbius values up from x against the minimum-up values of the interval
    [x, y] built as a poset of its own."""
    assert p.mobius_all() == oracle_mobius(p)
    bits = down_bits(p)
    up = [p.mobius_from(x) for x in p.elements()]
    assert up == [oracle_mobius_from(p, x) for x in p.elements()]
    for y in p.elements():
        for x in p.elements():
            below = bool((bits[y] >> x) & 1)
            assert (x in p.below(y)) == below
            if not below:
                assert up[x][y] == 0
                continue
            sub = interval(p, x, y)
            assert list(sub.payloads_) == oracle_interval_payloads(p, x, y)
            assert up[x][y] == oracle_mobius(sub)[sub.index(p.payload(y))]


@settings(max_examples=150, deadline=None)
@given(labeled_graded_posets())
def test_order_queries_match_oracle_on_random_posets(labeling):
    _assert_order_matches_oracle(labeling.poset)
    # the witness walk of the labeling checks
    p = labeling.poset
    for y in p.elements():
        for x in p.below(y):
            chains = oracle_saturated_chains(p, x, y)
            assert list(p.saturated_chains(x, y)) == chains
            assert list(_words(labeling, x, y)) == [labeling.word(c) for c in chains]


def _sorting_dual(build, label, n=4):
    p = build(n)
    return construct_R(p, label(p))


ORACLE_FAMILIES = {
    **{f"{build.__name__}({n})": partial(build, n)
       for build in (build_weighted, build_pointed, build_spanning_forest_poset,
                     build_partition_lattice)
       for n in range(1, 5)},
    "flyn(4, pointed)": partial(build_flyn, 4, "pointed"),
    "flyn(4, weighted)": partial(build_flyn, 4, "weighted"),
    "R_lambda_bullet(4)": partial(_sorting_dual, build_pointed, label_lambda_bullet),
    "R_lambda_w(4)": partial(_sorting_dual, build_weighted, label_lambda_w),
}


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_order_queries_match_oracle_on_families(name):
    _assert_order_matches_oracle(ORACLE_FAMILIES[name]())


MOBIUS_FAMILIES = {
    **{f"{build.__name__}(5)": partial(build, 5)
       for build in (build_weighted, build_pointed, build_spanning_forest_poset,
                     build_partition_lattice)},
    "flyn(5, pointed)": partial(build_flyn, 5, "pointed"),
    "flyn(5, weighted)": partial(build_flyn, 5, "weighted"),
    "R_lambda_bullet(5)": partial(_sorting_dual, build_pointed, label_lambda_bullet, 5),
    "R_lambda_w(5)": partial(_sorting_dual, build_weighted, label_lambda_w, 5),
}


@pytest.mark.parametrize("name", sorted(MOBIUS_FAMILIES))
def test_mobius_pushed_up_matches_the_pull(name):
    p = MOBIUS_FAMILIES[name]()
    for x in p.elements():
        assert p.mobius_from(x) == oracle_mobius_from(p, x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(labeled_graded_posets(), perturbed_family_intervals()))
def test_mobius_from_matches_the_pull_on_random_posets(labeling):
    p = labeling.poset
    for x in p.elements():
        assert p.mobius_from(x) == oracle_mobius_from(p, x)


def test_mobius_sweep_adds_several_bit_planes_of_both_signs():
    # the tops of the rank-four posets: 125 = 0b1111101, 269 = 0b100001101
    for build, tops in ((build_pointed, [125] * 5), (build_weighted, [24, 154, 269, 154, 24])):
        p = build(5)
        mu = p.mobius_all()
        assert [mu[t] for t in p.maximal_elements()] == tops
        assert min(mu) <= -16 and max(mu) >= 16
        assert list(mu) == hall_mobius(p)
        for x in p.elements():
            assert p.mobius_from(x) == oracle_mobius_from(p, x)


class _NoLowerCovers:
    """Stands in for a poset's lower covers: any read of them fails."""

    def __getitem__(self, x):
        raise AssertionError(f"read the lower covers of {x}")

    def __iter__(self):
        raise AssertionError("read the lower covers")


# every mu value of the partition family is nonzero; 84 of the dual's 125 are 0
@pytest.mark.parametrize("name", ["build_pointed(4)", "R_lambda_bullet(4)"])
def test_mobius_from_reads_no_lower_cover(name, monkeypatch):
    p = ORACLE_FAMILIES[name]()
    pulled = [oracle_mobius_from(p, x) for x in p.elements()]
    monkeypatch.setattr(p, "_down", _NoLowerCovers())
    assert [p.mobius_from(x) for x in p.elements()] == pulled
