"""Families of posets: construction counts, labelings, closed-form words."""

from __future__ import annotations

import re
import sys
import threading
from itertools import combinations
from math import comb

import pytest

from whitneydual import (
    GradedPoset,
    LimitExceededError,
    NotGradedError,
    PairLabel,
    PointedPartition,
    PreconditionError,
    WeightedPartition,
    are_isomorphic,
    build_partition_lattice,
    build_pointed,
    build_spanning_forest_poset,
    build_weighted,
    is_whitney_dual,
    is_whitney_twin,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
)
from whitneydual.config import MAX_N
from whitneydual.io import labeling_to_dict
from whitneydual.labeling import is_increasing
from whitneydual.lyndon import POINTED, WEIGHTED, build_flyn
from whitneydual.operads import pbw_com2_basis, pbw_perm_basis, tlyn_trees
from whitneydual.partitions import (
    _EDGE_TEXT,
    RootedForest,
    SetPartition,
    _merge_tag,
    _pair_labels,
    label_less_bullet,
    label_less_w,
)
from whitneydual.poset import closure
from whitneydual.reproduce import Context
from whitneydual.whitney_dual import DualElement

from chain_oracle import (
    chains_from,
    closed_label_poset,
    interval,
    merge_label,
    oracle_merge_labeling,
    oracle_saturated_chains,
    upper_filter,
)
from sf_oracle import oracle_spanning_forest_poset


def test_weighted_counts(weighted):
    assert len(weighted[1]) == 1
    assert len(weighted[3]) == 10
    assert weighted[3].whitney_second() == (1, 6, 3)
    assert weighted[4].whitney_second() == (1, 12, 24, 4)


def test_pointed_counts(pointed):
    assert len(pointed[1]) == 1
    assert len(pointed[3]) == 10
    assert pointed[4].whitney_second() == (1, 12, 24, 4)


def test_rank_is_merges_done(weighted, pointed, sf):
    for p in (weighted[4], pointed[4], sf[4]):
        for x in p.elements():
            obj = p.object(x)
            if hasattr(obj, "blocks"):
                parts = len(obj.blocks)
            else:  # a forest's trees: its roots, the vertices v with p[v] = v
                parts = sum(v == parent for v, parent in enumerate(obj) if v)
            assert p.rank(x) == 4 - parts


def test_limit_errors():
    with pytest.raises(LimitExceededError):
        build_weighted(8)
    with pytest.raises(LimitExceededError):
        build_pointed(0)


CAPPED = {
    "build_weighted": build_weighted,
    "build_pointed": build_pointed,
    "build_partition_lattice": build_partition_lattice,
    "build_spanning_forest_poset": build_spanning_forest_poset,
    "build_flyn pointed": lambda n: build_flyn(n, POINTED),
    "build_flyn weighted": lambda n: build_flyn(n, WEIGHTED),
    "tlyn_trees": lambda n: tlyn_trees(n, POINTED),
    "Context": Context,
}


@pytest.mark.parametrize("n", [0, 8])
@pytest.mark.parametrize("entry", sorted(CAPPED))
def test_every_builder_has_the_one_cap(entry, n):
    with pytest.raises(LimitExceededError) as exc:
        CAPPED[entry](n)
    assert str(exc.value) == f"n={n} outside allowed range 1..7"


SIZED = {**CAPPED, "pbw_perm_basis": pbw_perm_basis, "pbw_com2_basis": pbw_com2_basis}


@pytest.mark.parametrize("n", [True, False, 2.0, 1.5, "3", None])
@pytest.mark.parametrize("entry", sorted(SIZED))
def test_sizes_are_ints(entry, n):
    # by type(): True is not the size 1, nor 2.0 the size 2
    with pytest.raises(LimitExceededError, match=re.escape(f"n={n!r} ")):
        SIZED[entry](n)


def test_second_kind_formula_up_to_six():
    p6 = build_pointed(6)
    assert p6.whitney_second() == tuple(comb(6, k) * (6 - k) ** k for k in range(6))
    w6 = build_weighted(6)
    assert w6.whitney_second() == p6.whitney_second()


def test_partition_lattice():
    for n, size in ((1, 1), (3, 5), (4, 15)):
        assert len(build_partition_lattice(n)) == size
    assert build_partition_lattice(4).whitney_first() == (1, -6, 11, -6)


def test_partition_lattice_matches_weighted_interval(weighted):
    w4 = weighted[4]
    inter = interval(w4, w4.zero(), w4.index("1234^0"))
    assert are_isomorphic(build_partition_lattice(4), inter) is not None
    top = interval(w4, w4.zero(), w4.index("1234^3"))
    assert are_isomorphic(inter, top) is not None


def test_spanning_forests(sf):
    assert sf[3].whitney_second() == (1, 6, 9)
    assert sf[4].whitney_second() == tuple(comb(3, k) * 4**k for k in range(4))
    assert is_whitney_dual(sf[3], build_weighted(3))


def test_sf_duality_and_twins(weighted, pointed, sf):
    for n in (2, 3, 4):
        assert is_whitney_twin(weighted[n], pointed[n])
        assert is_whitney_dual(weighted[n], sf[n])
        assert is_whitney_dual(pointed[n], sf[n])


def test_sf_duality_n5():
    sf5 = build_spanning_forest_poset(5)
    assert is_whitney_dual(build_weighted(5), sf5)
    assert is_whitney_dual(build_pointed(5), sf5)


def test_index_finds_every_payload_of_sf5():
    sf5 = build_spanning_forest_poset(5)
    assert all(sf5.index(sf5.payload(x)) == x for x in sf5.elements())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spanning_forests_match_the_tree_builder(n):
    p, oracle = build_spanning_forest_poset(n), oracle_spanning_forest_poset(n)
    assert p.payloads_ == oracle.payloads_
    assert p.covers == oracle.covers
    assert p.cover_tags == oracle.cover_tags


def test_edge_texts_sort_as_their_edges():
    # a tree's text sorts its edges' texts, which is their order while every
    # label is one digit
    edges = list(combinations(range(1, MAX_N + 1), 2))
    texts = [_EDGE_TEXT[a * (MAX_N + 1) + b] for a, b in edges]
    assert texts == [f"{a}-{b}" for a, b in edges] == sorted(texts)


def test_forest_merges_hang_one_root_under_the_other():
    # trees {2} and {4, 5} rooted at 5, on the ground set {2, 4, 5}
    forest = RootedForest((0, 0, 2, 0, 5, 5))
    assert forest.render() == "2<>/5<4-5>"
    assert list(forest.merges()) == [
        (_merge_tag(2, 4, 0), (0, 0, 5, 0, 5, 5)),  # u = 0 keeps the root of B, 5
        (_merge_tag(2, 4, 1), (0, 0, 2, 0, 5, 2)),  # u = 1 keeps the root of A, 2
    ]
    assert [RootedForest(key).render() for _, key in forest.merges()] == [
        "5<2-5,4-5>", "2<2-5,4-5>",
    ]
    assert RootedForest.bottom([5, 2, 4]) == (0, 0, 2, 0, 4, 5)


@pytest.mark.parametrize("ground, message", [
    ([], "a forest needs a nonempty ground set"),
    ("ab", "label 'a' is not an int"),
    ([1, True], "label True is not an int"),
    ([1, 2.0], "label 2.0 is not an int"),
    ([1, 2, 1], "label 1 is repeated or outside 1..7"),
    ([0, 1], "label 0 is repeated or outside 1..7"),
    ([1, 8], "label 8 is repeated or outside 1..7"),
    ([-1], "label -1 is repeated or outside 1..7"),
], ids=["empty", "str", "bool", "float", "repeated", "zero", "above", "negative"])
def test_forest_bottom_refuses_a_malformed_ground_set(ground, message):
    with pytest.raises(NotGradedError, match=f"^{re.escape(message)}$"):
        RootedForest.bottom(ground)


@pytest.mark.parametrize("parents", [
    (1, 1),  # p[0] != 0
    (0, -1),  # a negative entry, which would index from the end
    (0, 1, -2),
    (0, 3),  # an entry past the end
    (0, 1.0),  # an entry that is no index
    (0, "1"),
    (0, 2, 1),  # a 2-cycle; the 3-cycle has its own test, below
    (0, 2, 0),  # vertex 1 hangs under 2, which is off the ground set
    (0,),  # no vertex
    (),
    tuple(range(9)),  # the label 8
], ids=repr)
@pytest.mark.parametrize("method", ["merges", "render"])
def test_forest_refuses_a_malformed_parent_tuple(parents, method):
    forest = RootedForest(parents)  # not checked here: closure builds one per element
    with pytest.raises(NotGradedError, match="is no rooted forest on labels 1..7$"):
        list(getattr(forest, method)())


def test_forest_refuses_a_three_cycle_in_bounded_time():
    # 1 -> 2 -> 3 -> 1: pointer jumping with no round bound never stops here,
    # so the walk runs in a thread that the test outlives
    forest, refused = RootedForest((0, 2, 3, 1)), []

    def run():
        for method in (forest.merges, forest.render):
            try:
                list(method())
            except NotGradedError:
                refused.append(method.__name__)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert refused == ["merges", "render"]


@pytest.mark.parametrize("element", [
    PairLabel(1, 2, 0),
    WeightedPartition.bottom([1, 2]),
    PointedPartition.bottom([1, 2]),
    SetPartition.bottom([1, 2]),
    RootedForest.bottom([1, 2]),
    DualElement(0, ()),
], ids=lambda element: type(element).__name__)
def test_element_records_have_no_instance_dict(element):
    # SF_7 and R_lambda(7) hold 262 144 of these each
    assert not hasattr(element, "__dict__")
    if isinstance(element, tuple):  # a parent tuple is no bigger than a plain one
        assert sys.getsizeof(element) == sys.getsizeof(tuple(element))


def test_maximal_intervals_pointed_isomorphic(pointed):
    p4 = pointed[4]
    tops = p4.maximal_elements()
    first = interval(p4, p4.zero(), tops[0])
    for t in tops[1:]:
        assert are_isomorphic(first, interval(p4, p4.zero(), t)) is not None


# -- label posets ------------------------------------------------------------------


def test_label_poset_w_structure(lw):
    lp = lw[4].label_poset
    lt = lambda x, y: lp.less(lp.index(PairLabel(*x)), lp.index(PairLabel(*y)))
    assert lt((1, 2, 0), (1, 2, 1))
    assert lt((1, 4, 1), (2, 3, 0))  # ordinal sum across first coordinates
    assert lt((1, 2, 0), (1, 3, 0))
    assert not lt((1, 3, 0), (1, 2, 1)) and not lt((1, 2, 1), (1, 3, 0))


def test_label_poset_bullet_structure(lb):
    lp = lb[4].label_poset
    lt = lambda x, y: lp.less(lp.index(PairLabel(*x)), lp.index(PairLabel(*y)))
    assert not lt((1, 2, 0), (1, 3, 0)) and not lt((1, 3, 0), (1, 2, 0))
    assert lt((1, 2, 0), (1, 2, 1)) and lt((1, 3, 0), (1, 2, 1))
    assert lt((1, 2, 1), (1, 3, 1))
    assert lt((1, 4, 1), (2, 3, 0))


def lambda_w_generators(n):
    """The covers of lambda_w on [n]: in each grid a, (a,b)^u lies below
    (a,b)^1 and (a,b+1)^u; the grid's top (a,n)^1 lies below the bottom
    (a+1,a+2)^0 of the next grid."""
    for a, b in combinations(range(1, n + 1), 2):
        yield (a, b, 0), (a, b, 1)
        if b < n:
            yield from (((a, b, u), (a, b + 1, u)) for u in (0, 1))
        elif a + 2 <= n:
            yield (a, n, 1), (a + 1, a + 2, 0)


def lambda_bullet_generators(n):
    """The covers of lambda_bullet on [n]: in each block a, every (a,b)^0
    lies below the chain (a,a+1)^1 < (a,a+2)^1 < ... < (a,n)^1, whose top lies
    below every (a+1,c)^0 of the next block."""
    for a, b in combinations(range(1, n + 1), 2):
        yield (a, b, 0), (a, a + 1, 1)
        if b < n:
            yield (a, b, 1), (a, b + 1, 1)
        else:
            yield from (((a, n, 1), (a + 1, c, 0)) for c in range(a + 2, n + 1))


@pytest.mark.parametrize("build, label, generators", [
    (build_weighted, label_lambda_w, lambda_w_generators),
    (build_pointed, label_lambda_bullet, lambda_bullet_generators),
    (build_pointed, label_lambda_bullet2, lambda_w_generators),
])
def test_label_poset_is_closure_of_its_covers(build, label, generators):
    for n in range(1, 7):
        lp = label(build(n)).label_poset
        labels = [(a, b, u) for a, b in combinations(range(1, n + 1), 2) for u in (0, 1)]
        at = {l: i for i, l in enumerate(labels)}
        oracle = closed_label_poset(
            [str(PairLabel(*l)) for l in labels],
            [(at[x], at[y]) for x, y in generators(n)],
        )
        assert lp.names == oracle.names
        assert lp.less_masks == oracle.less_masks


# -- labelings on covers ----------------------------------------------------------------


def test_lambda_w_cover_labels(lw):
    labeling = lw[3]
    p = labeling.poset
    name = lambda a, b: labeling.word_names(labeling.word((p.index(a), p.index(b))))
    assert name("1^0/2^0/3^0", "13^1/2^0") == "(1,3)^1"
    assert name("1^0/2^0/3^0", "12^0/3^0") == "(1,2)^0"
    assert name("12^0/3^0", "123^0") == "(1,3)^0"


def test_lambda_bullet_cover_labels(lb):
    labeling = lb[3]
    p = labeling.poset
    name = lambda a, b: labeling.word_names(labeling.word((p.index(a), p.index(b))))
    assert name("~1/~2/~3", "~13/~2") == "(1,3)^1"
    assert name("~1/~2/~3", "~12/~3") == "(1,2)^1"
    assert name("~1/~2/~3", "1~2/~3") == "(1,2)^0"
    assert name("1~2/~3", "12~3") == "(1,3)^0"


def test_zero_merge_keeps_other_point():
    bottom = PointedPartition.bottom(range(1, 6))
    # merge {1,2,4} pointed 2 with {3,5} pointed 5, keeping 5: a 0-merge
    left = PointedPartition((((1, 2, 4), 2), ((3, 5), 5)))
    found = {}
    for _, blocks in left.merges():
        succ = PointedPartition(blocks)
        found[str(merge_label(left, succ))] = succ
    succ = found["(1,3)^0"]
    assert succ.render() == "1234~5"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("build", [build_weighted, build_pointed])
def test_cover_tag_decodes_to_the_merge_label(build, n):
    p = build(n)
    decode = {_merge_tag(lab.a, lab.b, lab.u): lab for lab in _pair_labels(range(1, n + 1))}
    assert len(decode) == n * (n - 1)  # no two labels share a tag
    assert len(p.cover_tags) == len(p.covers)
    for (a, b), tag in zip(p.covers, p.cover_tags):
        assert decode[tag] == merge_label(p.object(a), p.object(b))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_labelings_match_the_merge_label_oracle(n):
    weighted, pointed = build_weighted(n), build_pointed(n)
    for labeling, less in [
        (label_lambda_w(weighted), label_less_w),
        (label_lambda_bullet(pointed), label_less_bullet),
        (label_lambda_bullet2(pointed), label_less_w),
        (label_lambda_tilde(pointed), None),
    ]:
        oracle = oracle_merge_labeling(labeling.poset, less)
        assert labeling_to_dict(labeling) == labeling_to_dict(oracle)


@pytest.mark.parametrize(
    "labeler", [label_lambda_w, label_lambda_bullet, label_lambda_bullet2, label_lambda_tilde]
)
def test_labelers_need_the_merge_tags(labeler, weighted, pointed):
    p = weighted[3] if labeler is label_lambda_w else pointed[3]
    bare = GradedPoset(p.payloads_, p.covers, p.objects)
    assert bare.cover_tags is None
    with pytest.raises(PreconditionError, match="build_weighted or build_pointed"):
        labeler(bare)


@pytest.mark.parametrize("labeler", [label_lambda_bullet, label_lambda_bullet2, label_lambda_tilde])
@pytest.mark.parametrize("tag", [999, "x", [1]])
def test_labelers_refuse_a_tag_that_is_no_merge_tag(labeler, tag):
    # pointed partitions of [2], their one cover tagged with no merge tag
    # of the labels (1,2)^0 and (1,2)^1
    low, high = PointedPartition.bottom([1, 2]), PointedPartition((((1, 2), 1),))
    p = GradedPoset([low.render(), high.render()], [(0, 1)], [low, high], [tag])
    with pytest.raises(PreconditionError, match=f"^cover tag {re.escape(repr(tag))} is no merge tag"):
        labeler(p)


@pytest.mark.parametrize("cls", [WeightedPartition, PointedPartition, SetPartition])
def test_partition_blocks_are_checked(cls):
    # each tag passes its own check, so the blocks' check is the one that fails
    point = lambda members: next(v for v in members if type(v) is int)
    tag = {WeightedPartition: lambda members: 0, PointedPartition: point}.get(cls)
    for blocks, message in [
        (((2, 1),), "block members must be sorted"),
        (((1, 2), (2, 3)), "blocks must be disjoint"),
        (((1,), (1,)), "blocks must be disjoint"),
        (((2,), (1,)), "blocks must be sorted by minimum"),
        (((1, 1),), "block members must be distinct"),
        (((True, 2),), r"block \(True, 2\) is not a nonempty tuple of ints"),
        (((1, 2.0),), r"block \(1, 2.0\) is not a nonempty tuple of ints"),
    ]:
        with pytest.raises(NotGradedError, match=f"^{message}$"):
            cls(blocks if tag is None else tuple((members, tag(members)) for members in blocks))
    if tag is None:  # the tagged records refuse an empty block by its tag
        with pytest.raises(NotGradedError, match=r"^block \(\) is not a nonempty tuple of ints$"):
            cls(((),))


def test_partition_tags_are_checked():
    with pytest.raises(NotGradedError, match=r"^weight 2 out of range for block \(1, 2\)$"):
        WeightedPartition((((1, 2), 2),))
    with pytest.raises(NotGradedError, match=r"^point 3 not in block \(1, 2\)$"):
        PointedPartition((((1, 2), 3),))
    # type(), not isinstance(): True is not the weight 1, nor the point 1
    for cls, tag, name in [(WeightedPartition, True, "weight"), (WeightedPartition, 0.0, "weight"),
                           (PointedPartition, True, "point"), (PointedPartition, 1.0, "point")]:
        with pytest.raises(NotGradedError, match=f"^{name} {tag!r} is not an int$"):
            cls((((1, 2), tag),))


@pytest.mark.parametrize("entries", [(1, 2, True), (True, 2, 0), (1.0, 2, 1.0), (1, "2", 0)])
def test_pair_label_entries_are_ints(entries):
    with pytest.raises(NotGradedError, match=r"^label entry .* is not an int$"):
        PairLabel(*entries)


def test_labelings_reject_wrong_poset_type():
    lattice = build_partition_lattice(3)
    with pytest.raises(PreconditionError):
        label_lambda_w(lattice)
    with pytest.raises(PreconditionError):
        label_lambda_bullet(build_weighted(3))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lambda_tilde_on_an_upper_filter_keeps_the_whole_posets_labels(n):
    # the label reads the lower element's block count, which its rank in a
    # filter above a non-bottom element does not give
    whole = label_lambda_tilde(build_pointed(n))
    p, names = whole.poset, whole.label_poset.names
    name_of = {
        (p.payload(a), p.payload(b)): names[lab] for (a, b), lab in zip(p.covers, whole.cover_labels)
    }
    for x in p.elements():
        if not 0 < p.rank(x) < p.max_rank():
            continue
        f = closure(p.object(x), PointedPartition.merges, PointedPartition, PointedPartition.render)
        labeling = label_lambda_tilde(f)
        assert len(f.covers) > 0
        for (a, b), lab in zip(f.covers, labeling.cover_labels):
            assert labeling.label_poset.names[lab] == name_of[f.payload(a), f.payload(b)]


def test_lambda_tilde_words(pointed):
    labeling = label_lambda_tilde(pointed[3])
    p = labeling.poset
    chain1 = [p.index("~1/~2/~3"), p.index("~12/~3"), p.index("12~3")]
    chain2 = [p.index("~1/~2/~3"), p.index("1~2/~3"), p.index("12~3")]
    assert labeling.word_names(labeling.word(chain1)) == "(2,2)(3,2)"
    assert labeling.word_names(labeling.word(chain2)) == "(2,1)(3,2)"


# -- closed-form increasing words ----------------------------------------------------------


def closed_form_increasing_word(n: int, p: int, variant: str) -> tuple[str, ...]:
    """Predicted word of the unique increasing chain of [0, [n]^p].

    ``variant`` is "bullet" (pointed label order) or "bullet2" (weighted label
    order); the two differ for 1 < p <= n.
    """
    if not 1 <= p <= n:
        raise PreconditionError(f"point {p} outside 1..{n}")
    if variant not in ("bullet", "bullet2"):
        raise PreconditionError(f"unknown variant {variant!r}")
    if p == 1:
        word = [PairLabel(1, k, 1) for k in range(2, n + 1)]
    elif variant == "bullet":
        word = [PairLabel(1, p, 0)]
        word += [PairLabel(1, k, 1) for k in range(2, n + 1) if k != p]
    else:
        word = [PairLabel(1, k, 0) for k in range(2, p + 1)]
        word += [PairLabel(1, k, 1) for k in range(p + 1, n + 1)]
    return tuple(str(l) for l in word)


def test_closed_form_examples():
    assert closed_form_increasing_word(3, 1, "bullet") == ("(1,2)^1", "(1,3)^1")
    assert closed_form_increasing_word(3, 3, "bullet") == ("(1,3)^0", "(1,2)^1")
    assert closed_form_increasing_word(4, 2, "bullet2") == (
        "(1,2)^0",
        "(1,3)^1",
        "(1,4)^1",
    )
    assert closed_form_increasing_word(4, 4, "bullet2") == (
        "(1,2)^0",
        "(1,3)^0",
        "(1,4)^0",
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant", ["bullet", "bullet2"])
def test_closed_form_matches_enumeration(n, variant, lb, lb2):
    labeling = lb[n] if variant == "bullet" else lb2[n]
    p = labeling.poset
    lp = labeling.label_poset
    for top in p.maximal_elements():
        obj = p.object(top)
        point = obj.blocks[0][1]
        words = [labeling.word(c) for c in oracle_saturated_chains(p, p.zero(), top)]
        increasing = [w for w in words if is_increasing(lp, w)]
        assert len(increasing) == 1
        got = tuple(lp.names[i] for i in increasing[0])
        assert got == closed_form_increasing_word(n, point, variant)


# -- upper filter collapse -------------------------------------------------------------------


def phi_filter_isomorphism(p: GradedPoset, alpha: int):
    """Collapse each block of ``alpha`` to its minimum on the upper filter.

    A block of an element above alpha goes to the minima of the blocks of
    alpha inside it, pointed at the minimum of the block holding its point
    (pointed), or weighted by its weight less theirs (weighted).  Returns
    (filter_poset, target_poset, mapping) where ``mapping`` sends filter
    elements to elements of the same family on the block minima.  Verifies
    that the map is a bijection preserving covers and merge labels, and
    that renaming the minima to 1..m in order keeps both label orders on
    the filter's labels; raises NotGradedError otherwise.
    """
    alpha_obj = p.object(alpha)
    cls = type(alpha_obj)
    if cls not in (PointedPartition, WeightedPartition):
        raise PreconditionError("phi_filter_isomorphism needs a partition poset")
    owner = {v: members[0] for members, _ in alpha_obj.blocks for v in members}
    weight = {members[0]: tag for members, tag in alpha_obj.blocks}
    target = closure(cls.bottom(sorted(weight)), cls.merges, cls, cls.render)
    filt = upper_filter(p, alpha)

    def collapse(obj):
        blocks = []
        for members, tag in obj.blocks:
            image = tuple(sorted({owner[v] for v in members}))
            if cls is PointedPartition:
                blocks.append((image, owner[tag]))
            else:
                blocks.append((image, tag - sum(weight[m] for m in image)))
        return cls(tuple(sorted(blocks)))

    mapping = {}
    for x in filt.elements():
        mapping[x] = target.index(collapse(filt.object(x)).render())
    if len(set(mapping.values())) != len(target):
        raise NotGradedError("block collapse is not a bijection onto the target")
    if len(filt.covers) != len(target.covers):
        raise NotGradedError("cover counts differ; collapse is not an isomorphism")
    target_covers = set(target.covers)
    labels = set()
    for a, b in filt.covers:
        fa, fb = mapping[a], mapping[b]
        if (fa, fb) not in target_covers:
            raise NotGradedError("block collapse does not preserve covers")
        src = merge_label(filt.object(a), filt.object(b))
        dst = merge_label(target.object(fa), target.object(fb))
        if src != dst:
            raise NotGradedError(
                f"label {src} maps to {dst}; collapse does not preserve labels"
            )
        labels.add(src)
    rename = {m: i for i, m in enumerate(sorted(weight), 1)}
    for x, y in combinations(sorted(labels, key=str), 2):
        rx = PairLabel(rename[x.a], rename[x.b], x.u)
        ry = PairLabel(rename[y.a], rename[y.b], y.u)
        for less in (label_less_w, label_less_bullet):
            if less(x, y) != less(rx, ry) or less(y, x) != less(ry, rx):
                raise NotGradedError(f"renaming the minima changes {x} vs {y}")
    return filt, target, mapping


def test_phi_worked_example():
    # the full 9-element poset is out of reach; the closure above alpha is
    # exactly its upper filter, which is all the map needs
    alpha_obj = PointedPartition((((1, 4, 5, 6), 5), ((2, 7, 9), 7), ((3, 8), 8)))
    p = closure(alpha_obj, PointedPartition.merges, PointedPartition, PointedPartition.render)
    alpha = p.index("14~56/2~79/3~8")
    filt, target, mapping = phi_filter_isomorphism(p, alpha)
    # the element merging the first two blocks, keeping 7 pointed
    image = target.payload(mapping[filt.index("12456~79/3~8")])
    assert image == "1~2/~3"
    assert target.payload(mapping[filt.index(p.payload(alpha))]) == "~1/~2/~3"


def test_phi_all_alphas_n4(pointed):
    p4 = pointed[4]
    for alpha in p4.elements():
        filt, target, mapping = phi_filter_isomorphism(p4, alpha)
        assert len(filt) == len(target)
        assert are_isomorphic(filt, target) is not None


def test_weighted_collapse_worked_example():
    # weights become relative to alpha: 145^1 / 23^1 merged with u = 1 is
    # 12345^3, and collapses to 12^1 on the minima 1 and 2
    alpha_obj = WeightedPartition((((1, 4, 5), 1), ((2, 3), 1)))
    p = closure(alpha_obj, WeightedPartition.merges, WeightedPartition, WeightedPartition.render)
    filt, target, mapping = phi_filter_isomorphism(p, p.index("145^1/23^1"))
    assert target.payload(mapping[filt.index("12345^3")]) == "12^1"
    assert target.payload(mapping[filt.index("12345^2")]) == "12^0"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("build", [build_pointed, build_weighted])
def test_filter_collapse_on_every_alpha(build, n):
    p = build(n)
    for alpha in p.elements():
        filt, target, mapping = phi_filter_isomorphism(p, alpha)
        assert len(filt) == len(target) == len(set(mapping.values()))
        # every element of one rank collapses onto the family on as many minima
        assert len(p.object(alpha).blocks) == n - p.rank(alpha)


def test_label_words_agree_between_families(lw, lb2):
    # the saturated-chain word sets from the bottom coincide for the two families
    def all_words(labeling):
        names = labeling.label_poset.names
        return {
            tuple(names[i] for i in labeling.word(c))
            for c in chains_from(labeling.poset, labeling.poset.zero())
        }

    for n in (2, 3, 4):
        assert all_words(lw[n]) == all_words(lb2[n])
    assert all_words(label_lambda_w(build_weighted(5))) == all_words(
        label_lambda_bullet2(build_pointed(5))
    )
