"""Exact isomorphism search: positives, negatives, budget handling; and the
tag walk, against the search as its oracle."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneydual import (
    BudgetExhaustedError,
    GradedPoset,
    Limits,
    PreconditionError,
    TimeBudgetExceededError,
    are_isomorphic,
    build_flyn,
    build_pointed,
    build_weighted,
    construct_R,
    flyn_to_sorting_dual,
    label_lambda_bullet,
    label_lambda_tilde,
    label_lambda_w,
    tag_walk,
)


def relabelled(p: GradedPoset, perm) -> GradedPoset:
    """The same poset with element i moved to index perm[i]."""
    payloads = [""] * len(p)
    for i in p.elements():
        payloads[perm[i]] = p.payload(i)
    return GradedPoset(payloads, [(perm[a], perm[b]) for a, b in p.covers])


def assert_isomorphism(p: GradedPoset, q: GradedPoset, mapping: dict[int, int]) -> None:
    assert sorted(mapping) == list(p.elements())
    assert sorted(mapping.values()) == list(q.elements())
    assert all(p.rank(x) == q.rank(y) for x, y in mapping.items())
    assert {(mapping[a], mapping[b]) for a, b in p.covers} == set(q.covers)


def test_identity_mapping(weighted):
    p = weighted[3]
    mapping = are_isomorphic(p, p)
    assert mapping is not None
    covers = set(p.covers)
    assert all((mapping[a], mapping[b]) in covers for a, b in p.covers)


def test_relabelled_poset_isomorphic(weighted):
    p = weighted[3]
    n = len(p)
    perm = [(i * 7 + 3) % n for i in range(n)]  # 7 coprime to 10: a permutation
    assert sorted(perm) == list(range(n))
    payloads = [""] * n
    for i in range(n):
        payloads[perm[i]] = f"e{i}"
    q = GradedPoset(payloads, [(perm[a], perm[b]) for a, b in p.covers])
    assert are_isomorphic(p, q) is not None


def test_size_mismatch(weighted, pointed):
    assert are_isomorphic(weighted[3], weighted[4]) is None


def test_twin_but_not_isomorphic(weighted, pointed):
    # equal Whitney numbers of both kinds, different interval structure
    assert are_isomorphic(weighted[3], pointed[3]) is None


def test_flyn_nonisomorphism(flyn, sf):
    assert are_isomorphic(flyn[(4, "weighted")], flyn[(4, "pointed")]) is None
    for n in (3, 4):
        for flavor in ("pointed", "weighted"):
            assert are_isomorphic(sf[n], flyn[(n, flavor)]) is None


def cycle_poset(halves: list[int]) -> GradedPoset:
    """A bottom, then one cycle of covers per entry k: atoms a_0..a_{k-1} and
    rank-two elements b_0..b_{k-1}, with b_i covering a_i and a_{i+1 mod k}."""
    payloads, covers = ["0"], []
    for c, k in enumerate(halves):
        base = len(payloads)
        payloads += [f"a{c}.{i}" for i in range(k)] + [f"b{c}.{i}" for i in range(k)]
        for i in range(k):
            covers += [(0, base + i), (base + i, base + k + i),
                       (base + (i + 1) % k, base + k + i)]
    return GradedPoset(payloads, covers)


def test_search_beyond_colour_refinement():
    # colour refinement sees every atom alike, and every rank-two element
    # alike; only individualisation tells cycles of different lengths apart
    p = cycle_poset([3, 4, 5])
    q = relabelled(p, list(reversed(range(len(p)))))  # first candidate is wrong
    assert_isomorphism(p, q, are_isomorphic(p, q))
    assert are_isomorphic(cycle_poset([6, 6]), cycle_poset([5, 7])) is None
    assert are_isomorphic(cycle_poset([3, 3, 3, 3]), cycle_poset([3, 3, 6])) is None


def test_budget_exhaustion():
    p = GradedPoset(["0"] + [f"a{i}" for i in range(8)], [(0, i + 1) for i in range(8)])
    with pytest.raises(BudgetExhaustedError):
        are_isomorphic(p, p, limits=Limits(iso_node_budget=3))


def test_deadline(weighted):
    with pytest.raises(TimeBudgetExceededError):
        are_isomorphic(weighted[4], weighted[4], limits=Limits(deadline=time.monotonic() - 1))


@pytest.fixture(scope="module")
def named(weighted, pointed, sf, flyn):
    return {
        "pointed3": pointed[3],
        "weighted3": weighted[3],
        "pointed4": pointed[4],
        "weighted4": weighted[4],
        "sf4": sf[4],
        "flyn_pointed4": flyn[(4, "pointed")],
        "flyn_weighted4": flyn[(4, "weighted")],
        "r_pointed4": construct_R(pointed[4], label_lambda_bullet(pointed[4])),
        "r_weighted4": construct_R(weighted[4], label_lambda_w(weighted[4])),
    }


ORACLE_PAIRS = [
    (name, name)
    for name in ("pointed4", "weighted4", "sf4", "flyn_pointed4", "flyn_weighted4",
                 "r_pointed4", "r_weighted4")
] + [
    ("flyn_pointed4", "r_pointed4"),
    ("flyn_weighted4", "r_weighted4"),
    ("flyn_weighted4", "flyn_pointed4"),
    ("weighted3", "pointed3"),
    ("sf4", "flyn_pointed4"),
    ("sf4", "flyn_weighted4"),
]


@pytest.fixture(scope="module")
def oracle(named):
    """networkx's verdict on each pair, with rank as a node attribute.

    Differing Weisfeiler-Lehman hashes prove a pair non-isomorphic; otherwise
    VF2 decides.  Both run once per pair on the posets as built, because VF2's
    time on relabelled copies of these symmetric posets swings from
    milliseconds to minutes.
    """
    nx = pytest.importorskip("networkx")

    def graph(poset):
        g = nx.DiGraph()
        g.add_nodes_from((x, {"rank": poset.rank(x)}) for x in poset.elements())
        g.add_edges_from(poset.covers)
        return g

    def verdict(p, q):
        g, h = graph(p), graph(q)
        wl = [nx.weisfeiler_lehman_graph_hash(x.to_undirected(), node_attr="rank", iterations=8)
              for x in (g, h)]
        if wl[0] != wl[1]:
            return False
        return nx.is_isomorphic(g, h, node_match=lambda u, v: u["rank"] == v["rank"])

    return {(a, b): verdict(named[a], named[b]) for a, b in ORACLE_PAIRS}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_agrees_with_networkx_on_relabellings(named, oracle, data):
    a, b = data.draw(st.sampled_from(ORACLE_PAIRS))
    p = named[a]
    q = relabelled(named[b], data.draw(st.permutations(range(len(named[b])))))
    mapping = are_isomorphic(p, q)
    assert (mapping is not None) == oracle[(a, b)]
    if mapping is not None:
        assert_isomorphism(p, q, mapping)


@pytest.fixture(scope="module")
def forest_duals():
    """(FLyn, R_lambda, its labeling) for each flavour and 1 <= n <= 5."""
    out = {}
    for n in range(1, 6):
        for flavor, build, label in (("pointed", build_pointed, label_lambda_bullet),
                                     ("weighted", build_weighted, label_lambda_w)):
            labeling = label(build(n))
            out[(n, flavor)] = (build_flyn(n, flavor), construct_R(labeling.poset, labeling),
                                labeling)
    return out


def with_tags(p: GradedPoset, covers, tags) -> GradedPoset:
    return GradedPoset(p.payloads_, covers, p.objects, tags)


def test_tag_walk_agrees_with_the_search(forest_duals):
    for (n, flavor), (flyn, r, labeling) in forest_duals.items():
        image = flyn_to_sorting_dual(flyn, r, labeling)
        assert image is not None, (n, flavor)
        assert are_isomorphic(flyn, r) is not None
        assert_isomorphism(flyn, r, dict(enumerate(image)))


@pytest.mark.parametrize("flavor", ["pointed", "weighted"])
def test_tag_walk_refuses_two_swapped_forest_tags(forest_duals, flavor):
    # the first two covers of FLyn's bottom trade tags: the walk follows them
    # to the wrong atoms, and the covers above no longer match
    for n in (3, 4, 5):
        flyn, r, labeling = forest_duals[(n, flavor)]
        tags = list(flyn.cover_tags)
        tags[0], tags[1] = tags[1], tags[0]
        assert flyn_to_sorting_dual(with_tags(flyn, flyn.covers, tags), r, labeling) is None


@pytest.mark.parametrize("flavor", ["pointed", "weighted"])
def test_tag_walk_refuses_a_dropped_dual_cover(forest_duals, flavor):
    flyn, r, labeling = forest_duals[(4, flavor)]
    # the dropped cover's top keeps another lower cover, so the mutant is
    # still graded with a minimum
    covers, tags = list(r.covers), list(r.cover_tags)
    i = max(i for i, (_, b) in enumerate(covers) if len(r.lower_covers(b)) > 1)
    del covers[i], tags[i]
    assert flyn_to_sorting_dual(flyn, with_tags(r, covers, tags), labeling) is None


@pytest.mark.parametrize("flavor", ["pointed", "weighted"])
def test_tag_walk_refuses_a_duplicated_dual_tag(forest_duals, flavor):
    flyn, r, labeling = forest_duals[(4, flavor)]
    tags = list(r.cover_tags)
    x = r.covers[0][0]
    assert r.covers[1][0] == x and tags[0] != tags[1]
    tags[1] = tags[0]  # two upper covers of the bottom now carry one label
    assert flyn_to_sorting_dual(flyn, with_tags(r, r.covers, tags), labeling) is None


def test_tag_walk_refuses_a_missing_tag(forest_duals):
    # the first cover of an atom of R_lambda relabelled with a label no cover
    # of that atom carries: the walk meets a forest cover with no match
    flyn, r, labeling = forest_duals[(4, "pointed")]
    tags = list(r.cover_tags)
    atom = r.upper_covers(r.zero())[0]
    first = r.covers.index((atom, r.upper_covers(atom)[0]))
    used = {t for (a, _), t in zip(r.covers, tags) if a == atom}
    tags[first] = next(i for i in range(len(labeling.label_poset.labels)) if i not in used)
    assert flyn_to_sorting_dual(flyn, with_tags(r, r.covers, tags), labeling) is None


def test_tag_walk_needs_a_tag_per_cover(forest_duals):
    flyn, r, labeling = forest_duals[(3, "pointed")]
    untagged = GradedPoset(r.payloads_, r.covers)
    assert untagged.cover_tags is None
    with pytest.raises(PreconditionError, match="one tag per sorted cover"):
        flyn_to_sorting_dual(flyn, untagged, labeling)
    with pytest.raises(PreconditionError, match="one tag per sorted cover"):
        flyn_to_sorting_dual(GradedPoset(flyn.payloads_, flyn.covers), r, labeling)
    with pytest.raises(PreconditionError, match="one tag per sorted cover"):
        tag_walk(flyn, flyn.cover_tags[1:], r, r.cover_tags)


def test_tag_walk_needs_merge_labels(forest_duals):
    # lambda_tilde's labels are pairs named by strings, not merge labels
    # (a,b)^u, so no merge tag reads off them
    flyn, r, _ = forest_duals[(3, "pointed")]
    with pytest.raises(PreconditionError, match=r"^label '\(2,1\)' is no merge label \(a,b\)\^u$"):
        flyn_to_sorting_dual(flyn, r, label_lambda_tilde(build_pointed(3)))


def test_tag_walk_on_hand_tagged_posets():
    # a diamond whose atoms are listed in the other order in Q: the walk
    # pairs them by tag, not by index, and a size mismatch is no map
    p = GradedPoset(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    q = GradedPoset(["0", "b", "a", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert tag_walk(p, "xyyx", q, "yxxy") == [0, 2, 1, 3]
    assert tag_walk(p, "xyyx", q, "yxyx") is None  # "1" would get two images
    chain = GradedPoset(["0", "a", "1"], [(0, 1), (1, 2)])
    assert tag_walk(p, "xyyx", chain, "xy") is None


def test_tag_walk_deadline(forest_duals):
    flyn, r, labeling = forest_duals[(3, "weighted")]
    with pytest.raises(TimeBudgetExceededError):
        flyn_to_sorting_dual(flyn, r, labeling, Limits(deadline=time.monotonic() - 1))
