"""Exact isomorphism search: positives, negatives, budget handling."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whitneydual import (
    BudgetExhaustedError,
    GradedPoset,
    Limits,
    TimeBudgetExceededError,
    are_isomorphic,
    construct_R,
    label_lambda_bullet,
    label_lambda_w,
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
