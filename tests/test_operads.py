"""Tree monomials, the census by chain top, and left-comb bases."""

from __future__ import annotations

import pytest

from whitneydual import (
    Leaf,
    Node,
    build_pointed,
    build_weighted,
    label_lambda_bullet2,
    label_lambda_w,
    pbw_com2_basis,
    pbw_perm_basis,
    theta,
    tlyn_trees,
)
from whitneydual.labeling import chain_words
from whitneydual.lyndon import POINTED, WEIGHTED, all_valid_trees

from lyndon_oracle import (
    comb_text,
    left_comb,
    normalized_trees,
    oracle_point,
    oracle_tree_valid,
)


def test_theta_leaf_and_cherries():
    assert theta(Leaf(7)) == "7"
    assert theta(Node(Leaf(1), Leaf(2), 0)) == "2∘1"
    assert theta(Node(Leaf(1), Leaf(2), 1)) == "1∘2"


def test_theta_worked_example():
    t2 = Node(Node(Leaf(5), Leaf(7), 1), Leaf(6), 0)
    tree = Node(
        Node(Node(Leaf(1), t2, 1), Leaf(4), 1),
        Node(Leaf(2), Leaf(3), 1),
        0,
    )
    assert theta(tree) == "(2∘3)∘((1∘(6∘(5∘7)))∘4)"
    assert theta(tree, machine=True) == "(2o3)o((1o(6o(5o7)))o4)"


def test_theta_of_a_deep_comb():
    # 1199 vertices deep, past the default recursion limit
    n = 1200
    ones = theta(left_comb(n, [1] * (n - 1)), machine=True)
    assert ones == "(" * (n - 2) + "1" + "".join(f"o{k})" for k in range(2, n)) + f"o{n}"
    zeros = theta(left_comb(n, [0] * (n - 1)), machine=True)
    assert zeros == "".join(f"{k}o(" for k in range(n, 2, -1)) + "2o1" + ")" * (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_theta_injective_on_normalized_trees(n):
    rendered = [theta(t) for t in normalized_trees(range(1, n + 1))]
    assert len(rendered) == len(set(rendered))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_counts(n):
    pointed_counts = [len(trees) for trees in tlyn_trees(n, POINTED).values()]
    weighted_counts = [len(trees) for trees in tlyn_trees(n, WEIGHTED).values()]
    assert sum(pointed_counts) == n ** (n - 1)
    assert sum(weighted_counts) == n ** (n - 1)
    assert len(set(pointed_counts)) == 1


def test_census_matches_pointed_mobius(pointed):
    for n in (2, 3, 4):
        p = pointed[n]
        for flavor in (POINTED, WEIGHTED):
            census = tlyn_trees(n, flavor)
            for t in p.maximal_elements():
                point = p.object(t).blocks[0][1]
                assert len(census[point]) == abs(p.mobius(t))


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_census_point_matches_pointed_replay(flavor):
    for n in range(1, 6):
        # the valid trees, built from valid subtrees, against generate-and-filter
        valid = [t for t in normalized_trees(range(1, n + 1)) if oracle_tree_valid(t, flavor)]
        assert all_valid_trees(n, flavor) == valid
        census = tlyn_trees(n, flavor)
        assert sum(len(trees) for trees in census.values()) == len(valid)
        for point, trees in census.items():
            for t in trees:
                assert oracle_point(t) == point


def test_tlyn_n2():
    assert {p: len(trees) for p, trees in tlyn_trees(2, POINTED).items()} == {1: 1, 2: 1}


def test_pbw_perm():
    assert pbw_perm_basis(2) == ["1∘2", "2∘1"]
    for n in range(1, 9):
        assert len(pbw_perm_basis(n)) == n
    assert pbw_perm_basis(1) == ["1"]


def test_pbw_com2():
    assert pbw_com2_basis(3) == [
        "(1∘₀2)∘₀3",
        "(1∘₀2)∘₁3",
        "(1∘₁2)∘₁3",
    ]
    assert pbw_com2_basis(3, machine=True) == [
        "(1o02)o03",
        "(1o02)o13",
        "(1o12)o13",
    ]
    assert len(pbw_com2_basis(6)) == 6


def _step_colors(n):
    # the 0...01...1 color words of the basis combs: i - 1 zeros, then ones
    return [[0] * (i - 1) + [1] * (n - i) for i in range(1, n + 1)]


@pytest.mark.parametrize("machine", [False, True])
def test_pbw_text_matches_the_combs(machine):
    # each basis is written as text; theta of the left combs is the oracle
    symbols = ("o0", "o1") if machine else ("∘₀", "∘₁")
    for n in range(1, 41):
        combs = [left_comb(n, colors) for colors in _step_colors(n)]
        assert pbw_perm_basis(n, machine) == sorted({theta(t, machine) for t in combs})
        assert pbw_com2_basis(n, machine) == sorted({comb_text(t, symbols) for t in combs})


def test_increasing_census_unique_per_top():
    # lambda_w on the weighted poset and lambda_bullet2 on the pointed one are
    # EL, so each maximal interval [0, t] has exactly one increasing chain
    for n in (1, 2, 3, 4):
        for build, label in ((build_pointed, label_lambda_bullet2),
                             (build_weighted, label_lambda_w)):
            p = build(n)
            counts = {}
            for level in chain_words(label(p), p.zero()):
                counts.update({y: len(words) for y, words in level.items()})
            tops = p.maximal_elements()
            assert len(tops) == n
            assert all(counts[t] == 1 for t in tops)
