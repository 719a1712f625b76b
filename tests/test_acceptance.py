"""Acceptance gate: every desk-scale claim, exact integer arithmetic.

One test per criterion; each prints its own pass/fail line (visible with
``pytest -s`` or in the CLI's ``reproduce-paper`` table, which runs the same
functions).  All comparisons are exact; there are no tolerances.
"""

from __future__ import annotations

import pytest

from chain_oracle import _TILDE_INTERVALS, oracle_tilde_failure, rank_level
from whitneydual import lyndon, reproduce
from whitneydual.lyndon import POINTED, WEIGHTED, _phi_entry as phi_entry, phi_reader
from whitneydual.labeling import check_EL_dual
from whitneydual.partitions import PointedPartition, build_pointed, label_lambda_bullet
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
    def one_weight_off(flavor):
        read = phi_reader(flavor)

        def mutant(forest):
            top, word = read(forest)
            (leaves, weight), *rest = top
            size = leaves.bit_count()
            if flavor != WEIGHTED or size < 2:
                return top, word
            return ((leaves, (weight + 1) % size), *rest), word

        return mutant

    monkeypatch.setattr(reproduce, "phi_reader", one_weight_off)
    ok, detail = crit_forest_bijection(Context(max_n=3))
    assert not ok
    assert detail == "chain top mismatch at n=2 (weighted)"


def test_forest_bijection_rejects_a_reader_that_puts_deeper_vertices_last(monkeypatch):
    # same-valency vertices sorted by leaf count descending: a parent's
    # merge is read before its child's, so some word differs from R_lambda's
    def deeper_last(v):
        valency, count, tag = phi_entry(v)
        return valency, -count, tag

    monkeypatch.setattr(lyndon, "_phi_entry", deeper_last)
    ok, detail = crit_forest_bijection(Context(max_n=3))
    assert not ok
    assert detail == "phi gives ((1 2)^0 3)^0 another word than the tag walk at n=3 (pointed)"


def test_labeling_matrix_fails_with_an_er_labeling_in_place_of_the_tilde_one(monkeypatch):
    # lambda_bullet is ER: no interval has two increasing chains under it
    monkeypatch.setattr(reproduce, "label_lambda_tilde", label_lambda_bullet)
    small = Context(max_n=3)
    assert crit_labeling_matrix(small) == (
        False, "two-coordinate labeling unexpectedly ER at n=3")
    message = "expected witness interval not found: ('~1/~2/~3/~4/~5/~6', '12~3/~4/~5/~6')"
    assert reproduce._tilde_failure(small) == message
    assert oracle_tilde_failure(label_lambda_bullet) == message


def test_tilde_check_agrees_with_the_whole_poset_oracle():
    assert tuple(_TILDE_INTERVALS) == reproduce.TILDE_INTERVALS
    assert reproduce._tilde_failure(Context(max_n=3)) is None
    assert oracle_tilde_failure() is None


@pytest.mark.parametrize("dropped,uncovered", [
    (0, "1234~56"),  # the first top alone lies below the maxima pointed at 4 and 5
    (1, "~123456"),
    (2, "1~23456"),
    (3, None),  # 12~3/~4/~5/~6 lies below 12~3/45~6 and the maxima above it
])
def test_tilde_check_names_a_maximal_element_above_no_top(dropped, uncovered, monkeypatch):
    intervals = reproduce.TILDE_INTERVALS[:dropped] + reproduce.TILDE_INTERVALS[dropped + 1:]
    monkeypatch.setattr(reproduce, "TILDE_INTERVALS", intervals)
    expected = uncovered and f"no witness inside the interval below {uncovered}"
    assert reproduce._tilde_failure(Context(max_n=3)) == expected
    assert oracle_tilde_failure(intervals=intervals) == expected


def test_run_all_below_n6_builds_no_pointed_poset_on_6(monkeypatch):
    # the n = 6 two-coordinate check reads four rank-2 intervals and the
    # filters above their tops, none of which runs from ~1/.../~6 to one block
    built = []
    init = GradedPoset.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.objects is not None and isinstance(self.objects[0], PointedPartition):
            counts = [len(x.blocks) for x in self.objects]
            ground = sum(len(members) for members, _ in self.objects[0].blocks)
            built.append((ground, max(counts), min(counts)))

    monkeypatch.setattr(GradedPoset, "__init__", recording)
    assert all(ok for _, ok, _ in reproduce.run_all(5))
    on_six = [(most, fewest) for ground, most, fewest in built if ground == 6]
    assert on_six  # the check did build pointed posets on [6]
    assert (6, 1) not in on_six


def test_labeling_matrix_below_n6_caches_nothing_at_n6():
    # the n = 6 two-coordinate check builds its own small posets on [6];
    # below max_n = 6 no other criterion needs them, so none may stay cached
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
