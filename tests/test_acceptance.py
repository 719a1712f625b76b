"""Acceptance gate: every desk-scale claim, exact integer arithmetic.

One test per criterion; each prints its own pass/fail line (visible with
``pytest -s`` or in the CLI's ``reproduce-paper`` table, which runs the same
functions).  All comparisons are exact; there are no tolerances.
"""

from __future__ import annotations

import pytest

from chain_oracle import rank_level
from whitneydual import reproduce
from whitneydual.lyndon import POINTED, WEIGHTED, chain_top
from whitneydual.labeling import check_EL_dual
from whitneydual.partitions import WeightedPartition, build_pointed, label_lambda_bullet
from whitneydual.poset import GradedPoset
from whitneydual.reproduce import (
    CRITERIA,
    Context,
    crit_flyn_vs_r,
    crit_forest_bijection,
    crit_labeling_matrix,
    crit_stanley,
)


@pytest.fixture(scope="module")
def ctx():
    return Context(max_n=5)


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, fn, ctx):
    ok, detail = fn(ctx)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_forest_bijection_rejects_swapped_dual_elements():
    # swap the objects of two rank-1 elements of R_lambda(3), keeping its
    # covers and their tags: the element sets still agree and the tag walk
    # still finds its map, but phi no longer sends each forest to its image
    mutant = Context(max_n=3)
    r = mutant.r_dual(3, POINTED)
    a, b = rank_level(r, 1)[:2]
    objects = list(r.objects)
    objects[a], objects[b] = objects[b], objects[a]
    mutant._cache[("Rp", 3)] = GradedPoset(r.payloads_, r.covers, objects, r.cover_tags)
    ok, detail = crit_forest_bijection(mutant)
    assert not ok
    assert detail == "phi gives (1 2)^0|3 another word than the tag walk at n=3 (pointed)"


def test_forest_bijection_rejects_swapped_forest_tags():
    # two covers of FLyn's bottom trade tags: the walk finds no map
    mutant = Context(max_n=3)
    f = mutant.flyn(3, WEIGHTED)
    tags = list(f.cover_tags)
    tags[0], tags[1] = tags[1], tags[0]
    mutant._cache[("flyn", 3, WEIGHTED)] = GradedPoset(f.payloads_, f.covers, f.objects, tags)
    ok, detail = crit_forest_bijection(mutant)
    assert (ok, detail) == (False, "the merge tags give no map FLyn -> R_lambda at n=3 (weighted)")
    assert crit_flyn_vs_r(mutant) == (
        False, "forest poset differs from sorting dual at n=3 (weighted)")


def test_forest_bijection_rejects_a_chain_top_with_one_weight_off(monkeypatch):
    # the words still round trip, but a weighted top whose first block has
    # two or more members comes back with its weight moved by one
    def one_weight_off(forest, flavor):
        top = chain_top(forest, flavor)
        (members, weight), *rest = top.blocks
        if flavor != WEIGHTED or len(members) < 2:
            return top
        return WeightedPartition(((members, (weight + 1) % len(members)), *rest))

    monkeypatch.setattr(reproduce, "chain_top", one_weight_off)
    ok, detail = crit_forest_bijection(Context(max_n=3))
    assert not ok
    assert detail == "chain top mismatch at n=2 (weighted)"


def test_labeling_matrix_below_n6_caches_nothing_at_n6():
    # the n = 6 two-coordinate check reads the pointed poset at n = 6; below
    # max_n = 6 no other criterion needs it, so it must not stay cached
    small = Context(max_n=5)
    ok, detail = crit_labeling_matrix(small)
    assert ok, detail
    assert small._cache and all(key[1] <= 5 for key in small._cache)


def test_el_dual_and_stanley_build_no_poset(monkeypatch):
    # both read the maximal intervals' duals by sweeping up the poset itself
    labeling = label_lambda_bullet(build_pointed(5))
    built = Context(max_n=5)
    for n in range(1, 5):
        built.lw(n), built.lb(n), built.lb2(n)
    constructed = []
    init = GradedPoset.__init__

    def counting(self, *args, **kwargs):
        constructed.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(GradedPoset, "__init__", counting)
    assert check_EL_dual(labeling).passed
    assert len(constructed) == 0
    assert crit_stanley(built) == (True, "identity exact on 22 labeled posets")
    assert len(constructed) == 0
