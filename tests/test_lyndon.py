"""Bicolored forests: predicates, bijections, merges, and the forest posets."""

from __future__ import annotations

from itertools import combinations
from math import comb

import pytest

import whitneydual.lyndon as lyndon_module
from whitneydual import (
    BicoloredForest,
    InvalidForestError,
    InvalidMergeError,
    Leaf,
    Node,
    PairLabel,
    PointedPartition,
    WeightedPartition,
    are_isomorphic,
    build_flyn,
    construct_R,
    is_valid,
    label_lambda_w,
    u_merge,
)
from whitneydual.labeling import is_ascent_free
from whitneydual.lyndon import (
    _NORMALIZED,
    POINTED,
    WEIGHTED,
    all_valid_trees,
    phi_reader,
)
from whitneydual.operads import tlyn_trees
from whitneydual.partitions import _merge_tag

from chain_oracle import interval, restrict_to
from test_poset import _count_builds
from lyndon_oracle import (
    LABEL_LESS,
    all_valid_forests,
    chain_to_forest,
    internal_vertices,
    is_lyndon_vertex,
    left_comb,
    leaf_labels,
    normalized_trees,
    oracle_chain,
    oracle_extension,
    oracle_is_normalized,
    oracle_point,
    oracle_text,
    oracle_tree_valid,
    oracle_u_merge,
    oracle_weight,
    reverse_minimal_extension,
)


def is_normalized(t) -> bool:
    """The cached rule bit: the smallest leaf label sits to the left at every
    internal vertex."""
    return bool(t.rules & _NORMALIZED)


def nine_leaf_tree() -> Node:
    """The running 9-leaf example: vertices numbered 1..8 bottom-up."""
    v1 = Node(Leaf(6), Leaf(7), 1)
    v2 = Node(Leaf(5), Leaf(8), 1)
    v3 = Node(Leaf(4), v1, 1)
    v4 = Node(Leaf(3), v3, 0)
    v5 = Node(Leaf(2), v2, 0)
    v6 = Node(Leaf(1), Leaf(9), 1)
    v7 = Node(v6, v5, 1)
    v8 = Node(v7, v4, 0)
    return v8


def test_valency():
    t = nine_leaf_tree()
    assert Leaf(7).valency == 7
    assert t.valency == 1
    v5 = t.left.right  # subtree on {2,5,8}
    assert sorted(l for l in [2, 5, 8]) == sorted(
        [v5.left.label, v5.right.left.label, v5.right.right.label]
    )
    assert v5.valency == 2


def test_lyndon_vertices():
    t = nine_leaf_tree()
    v7, v8 = t.left, t
    assert is_lyndon_vertex(v7)  # R(L(v7)) is the leaf 9, valency 9 > 2
    assert not is_lyndon_vertex(v8)  # 2 is not greater than 3
    assert is_lyndon_vertex(Node(Leaf(1), Leaf(2), 0))


def test_reverse_minimal_extension_order():
    t = nine_leaf_tree()
    ext = reverse_minimal_extension(BicoloredForest.of(t))
    vals = [v.valency for v in ext]
    assert vals == sorted(vals, reverse=True)
    assert vals == [6, 5, 4, 3, 2, 1, 1, 1]
    for i, v in enumerate(ext):
        for child in (v.left, v.right):
            if isinstance(child, Node):
                assert ext.index(child) < i


def test_example_tree_predicates():
    t = nine_leaf_tree()
    assert is_normalized(t)
    assert is_valid(BicoloredForest.of(t), POINTED)
    assert is_valid(BicoloredForest.of(t), WEIGHTED)


def test_distinguishing_trees():
    t1 = Node(Node(Leaf(1), Leaf(3), 0), Leaf(2), 1)  # bicolored, not pointed
    t2 = Node(Node(Leaf(1), Leaf(2), 0), Leaf(3), 0)  # pointed, not bicolored
    assert is_valid(BicoloredForest.of(t1), WEIGHTED)
    assert not is_valid(BicoloredForest.of(t1), POINTED)
    assert is_valid(BicoloredForest.of(t2), POINTED)
    assert not is_valid(BicoloredForest.of(t2), WEIGHTED)
    assert is_valid(BicoloredForest.of(Leaf(5)), POINTED)


def test_forest_requires_disjoint_and_sorted():
    with pytest.raises(InvalidForestError):
        BicoloredForest((Leaf(1), Leaf(1)))
    with pytest.raises(InvalidForestError):
        BicoloredForest((Leaf(2), Leaf(1)))
    with pytest.raises(InvalidForestError):
        Leaf(-1)  # a leaf set is a bitmask of labels


def test_node_refuses_children_that_share_a_leaf():
    with pytest.raises(InvalidForestError, match="share a leaf"):
        Node(Node(Leaf(1), Leaf(2), 0), Leaf(2), 0)


def test_leaf_refuses_a_bool_label():
    # True == 1, but it would render as "True"
    with pytest.raises(InvalidForestError, match="not a non-negative int"):
        Leaf(True)


def test_leaf_refuses_a_non_int_label():
    with pytest.raises(InvalidForestError, match="not a non-negative int"):
        Leaf(1.5)


def test_node_refuses_a_color_other_than_the_int_0_or_1():
    for color in (1.0, True, 2):
        with pytest.raises(InvalidForestError, match="is not the int 0 or 1"):
            Node(Leaf(1), Leaf(2), color)


def mask(*members: int) -> int:
    """A block's members as a leaf bitmask, as phi's top holds it."""
    return sum(1 << i for i in members)


def tags(labels) -> tuple[int, ...]:
    """A word of labels as merge tags, as phi's word holds it."""
    return tuple(_merge_tag(l.a, l.b, l.u) for l in labels)


def worked_forest() -> BicoloredForest:
    """Forest with word (6,7)^1(5,8)^1(4,6)^1(3,4)^0(2,5)^0(1,9)^1(1,2)^1."""
    a = Node(Leaf(4), Node(Leaf(6), Leaf(7), 1), 1)
    b = Node(Leaf(3), a, 0)
    c = Node(Leaf(2), Node(Leaf(5), Leaf(8), 1), 0)
    d = Node(Node(Leaf(1), Leaf(9), 1), c, 1)
    return BicoloredForest.of(d, b)


def test_phi_worked_example():
    forest = worked_forest()
    labels = [PairLabel(6, 7, 1), PairLabel(5, 8, 1), PairLabel(4, 6, 1),
              PairLabel(3, 4, 0), PairLabel(2, 5, 0), PairLabel(1, 9, 1),
              PairLabel(1, 2, 1)]
    top, word = phi_reader(POINTED)(forest)
    assert word == tags(labels)
    # "~12589/3~467": {1,2,5,8,9} pointed at 1, {3,4,6,7} pointed at 4
    assert top == ((mask(1, 2, 5, 8, 9), 1), (mask(3, 4, 6, 7), 4))
    chain = oracle_chain(forest, PointedPartition)
    assert chain[0].render() == "~1/~2/~3/~4/~5/~6/~7/~8/~9"
    assert chain[1].render() == "~1/~2/~3/~4/~5/~67/~8/~9"
    assert chain[-1].render() == "~12589/3~467"
    rebuilt = chain_to_forest(labels, 9, POINTED)
    assert rebuilt.render() == forest.render()


def test_empty_chain_round_trip():
    forest = chain_to_forest([], 4, POINTED)
    assert forest.render() == "1|2|3|4"
    # "1^0/2^0/3^0/4^0" and the empty word
    assert phi_reader(WEIGHTED)(forest) == (tuple((mask(i), 0) for i in range(1, 5)), ())


def test_two_leaf_weighted_chain():
    forest = BicoloredForest.of(Node(Leaf(1), Leaf(2), 0), Leaf(3))
    # "12^0/3^0" and the word (1,2)^0
    assert phi_reader(WEIGHTED)(forest) == (((mask(1, 2), 0), (mask(3), 0)),
                                            tags([PairLabel(1, 2, 0)]))


def test_tlyn_trees_rejects_an_unknown_flavor():
    for n in (1, 3):
        with pytest.raises(InvalidForestError, match="unknown flavor 'plain'"):
            tlyn_trees(n, "plain")


def test_a_deep_comb_renders_and_is_refused_without_recursion():
    # all-1 left comb: normalized but not pointed-valid, 1199 vertices deep
    n = 1200
    comb = left_comb(n, [1] * (n - 1))
    forest = BicoloredForest.of(comb)
    text = forest.render()
    assert text == "(" * (n - 1) + "1 2)^1" + "".join(f" {k})^1" for k in range(3, n + 1))
    assert comb.text == oracle_text(comb) == text
    assert repr(comb) == f"Node({oracle_text(comb)!r})"
    with pytest.raises(InvalidForestError, match="is not pointed-valid"):
        phi_reader(POINTED)(forest)
    assert hash(forest) == hash(BicoloredForest.of(left_comb(n, [1] * (n - 1))))


def test_deep_combs_compare_and_repr_without_recursion():
    n = 1200
    colors = [1] * (n - 1)
    comb = left_comb(n, colors)
    twin = left_comb(n, colors)
    assert comb is not twin and comb == twin and not comb != twin
    assert BicoloredForest.of(comb) == BicoloredForest.of(twin)
    colors[n // 2] = 0
    flipped = left_comb(n, colors)
    assert comb != flipped and not comb == flipped
    assert repr(comb) == f"Node({comb.text!r})"
    for tree in (comb, flipped):
        assert tree.text == oracle_text(tree)
        assert repr(tree) == f"Node({oracle_text(tree)!r})"
    assert repr(Node(Leaf(1), Leaf(2), 0)) == "Node('(1 2)^0')"


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_text_matches_the_walking_renderer(flavor):
    for n in range(1, 6):
        trees = all_valid_trees(n, flavor)
        assert len(trees) == n ** (n - 1)
        for t in trees:
            assert t.text == oracle_text(t)
    forest = BicoloredForest.of(Leaf(5), Node(Leaf(1), Leaf(3), 1), Leaf(2))
    assert forest.render() == "(1 3)^1|2|5"


def _pairs(p):
    """Every pair of trees (by text) that some element of p holds."""
    return {(a.text, b.text) for f in p.objects for a, b in combinations(f.trees, 2)}


def _one_object_per_text(p):
    seen = {}
    return all(seen.setdefault(t.text, t) is t for f in p.objects for t in f.trees)


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_flyn_slides_once_per_cover(flavor, monkeypatch):
    # no pair table: a pair of trees is slid once per u wherever a forest holds it
    slides, compared = [], [0]
    u_merge_ = lyndon_module.u_merge

    def counted_u_merge(t1, t2, u, flavor, node):
        slides.append((t1.text, t2.text, u))
        return u_merge_(t1, t2, u, flavor, node)

    def counted_eq(self, other):
        compared[0] += 1
        return self.text == other.text

    monkeypatch.setattr(lyndon_module, "u_merge", counted_u_merge)
    monkeypatch.setattr(Node, "__eq__", counted_eq)
    p = build_flyn(5, flavor)
    monkeypatch.undo()
    assert len(slides) == len(p.covers) > len(set(slides)) == 2 * len(_pairs(p))
    assert compared[0] == 0
    assert _one_object_per_text(p)


_FAMILY_CLASS = {POINTED: PointedPartition, WEIGHTED: WeightedPartition}


def same_order(f: BicoloredForest) -> bool:
    """The package's extension of f is the oracle's, vertex for vertex."""
    return list(map(id, reverse_minimal_extension(f))) == list(map(id, oracle_extension(f)))


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_tree_fields_and_vertex_order_match_replay(flavor):
    for n in range(1, 6):
        for forest in build_flyn(n, flavor).objects:
            # each tree's point and weight, whichever family reads it, and the order
            assert same_order(forest)
            for t in forest.trees:
                assert (t.point, t.weight) == (oracle_point(t), oracle_weight(t))


def oracle_word(f: BicoloredForest) -> list[PairLabel]:
    """phi's word of f as labels, in the oracle's vertex order."""
    return [PairLabel(v.left.valency, v.right.valency, v.color) for v in oracle_extension(f)]


def first_word_off_the_oracle(flavor: str) -> str | None:
    """The first FLyn_n forest, n <= 6, whose word ``phi_reader`` reads
    otherwise than the oracle's order does, or None."""
    for n in range(1, 7):
        read = phi_reader(flavor)
        for forest in build_flyn(n, flavor).objects:
            if read(forest)[1] != tags(oracle_word(forest)):
                return forest.render()
    return None


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_phi_reader_word_matches_oracle_extension(flavor):
    assert first_word_off_the_oracle(flavor) is None


def test_phi_reader_word_needs_the_leaf_count(monkeypatch):
    # without the leaf count, same-valency vertices fall back on their tags
    monkeypatch.setattr(lyndon_module, "_phi_entry", lambda v: (-v.valency, _merge_tag(
        v.left.valency, v.right.valency, v.color)))
    for flavor in (POINTED, WEIGHTED):
        assert first_word_off_the_oracle(flavor) is not None


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_phi_reader_top_matches_replay(flavor):
    for n in range(1, 6):
        read = phi_reader(flavor)
        for forest in build_flyn(n, flavor).objects:
            top = read(forest)[0]
            replayed = oracle_chain(forest, _FAMILY_CLASS[flavor])[-1]
            assert top == tuple((mask(*members), tag) for members, tag in replayed.blocks)


def test_phi_reader_reads_a_deep_right_comb():
    # 1199 vertices deep, past the default recursion limit, valid in both flavors
    n = 1200
    comb = Leaf(n)
    for k in range(n - 1, 0, -1):
        comb = Node(Leaf(k), comb, 1)
    forest = BicoloredForest.of(comb)
    leaves = sum(1 << i for i in range(1, n + 1))
    word = tuple(_merge_tag(k, k + 1, 1) for k in range(n - 1, 0, -1))
    assert phi_reader(WEIGHTED)(forest) == (((leaves, n - 1),), word)
    assert phi_reader(POINTED)(forest) == (((leaves, 1),), word)


def test_phi_reader_refuses_invalid_forests_and_unknown_flavors():
    read = phi_reader(POINTED)
    bad = BicoloredForest.of(Node(Node(Leaf(1), Leaf(3), 0), Leaf(2), 1))
    with pytest.raises(InvalidForestError, match=r"^forest \(\(1 3\)\^0 2\)\^1 is not pointed-valid$"):
        read(bad)
    assert phi_reader(WEIGHTED)(bad)[1] == (_merge_tag(1, 3, 0), _merge_tag(1, 2, 1))
    with pytest.raises(InvalidForestError, match="^unknown flavor 'plain'$"):
        phi_reader("plain")


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_chain_to_forest_inverts_phi(flavor):
    for n in range(1, 6):
        for forest in build_flyn(n, flavor).objects:
            assert chain_to_forest(oracle_word(forest), n, flavor) == forest


def test_chain_to_forest_rejects_ascents():
    with pytest.raises(InvalidForestError):
        chain_to_forest([PairLabel(1, 2, 0), PairLabel(1, 3, 1)], 3, POINTED)
    with pytest.raises(InvalidForestError):
        chain_to_forest([PairLabel(1, 3, 1)], 2, POINTED)


def test_pointed_merge_figure():
    t1 = Node(Node(Leaf(1), Leaf(4), 1), Node(Leaf(2), Leaf(3), 1), 0)
    t2 = Node(Node(Leaf(5), Leaf(7), 1), Leaf(6), 0)
    merged = u_merge(t1, t2, 1, POINTED)
    assert merged.text == "(((1 ((5 7)^1 6)^0)^1 4)^1 (2 3)^1)^0"


def test_bicolored_merge_figure():
    t1 = Node(Node(Leaf(1), Leaf(4), 0), Node(Leaf(2), Leaf(3), 0), 1)
    t2 = Node(Node(Leaf(5), Leaf(7), 1), Leaf(6), 0)
    merged = u_merge(t1, t2, 1, WEIGHTED)
    assert merged.text == "(((1 ((5 7)^1 6)^0)^1 4)^0 (2 3)^0)^1"


def test_merge_two_leaves_no_slide():
    one, two = Leaf(1), Leaf(2)
    merged = u_merge(one, two, 0, POINTED)
    assert merged.text == "(1 2)^0"
    assert merged.left is one and merged.right is two


def test_merge_errors():
    one, two = Leaf(1), Leaf(2)
    with pytest.raises(InvalidMergeError):
        u_merge(one, one, 0, POINTED)
    with pytest.raises(InvalidMergeError):
        u_merge(two, one, 0, POINTED)
    with pytest.raises(InvalidMergeError, match="share a leaf"):
        u_merge(Node(one, Leaf(3), 0), Node(two, Leaf(3), 0), 0, POINTED)
    # a 0-colored left child under a 1-colored vertex breaks the pointed
    # rule, and leaf 3 left of leaf 2 breaks normalization, in either argument
    unpointed = Node(Node(one, Leaf(3), 0), two, 1)
    assert is_valid(unpointed, WEIGHTED) and not is_valid(unpointed, POINTED)
    with pytest.raises(InvalidForestError):
        u_merge(unpointed, Leaf(4), 0, POINTED)
    with pytest.raises(InvalidForestError):
        u_merge(Leaf(0), unpointed, 1, POINTED)
    with pytest.raises(InvalidForestError):
        u_merge(one, Node(Leaf(3), two, 0), 0, WEIGHTED)
    with pytest.raises(InvalidForestError):
        u_merge(one, two, 0, "plain")


@pytest.mark.parametrize("u", [2, 0.5, True, -1])
def test_merge_color_is_the_int_0_or_1(u):
    # refused before the slide reads the rule table: 2 used to raise IndexError
    with pytest.raises(InvalidMergeError, match=f"merge color {u!r} is not the int 0 or 1"):
        u_merge(Node(Leaf(1), Leaf(3), 1), Leaf(2), u, POINTED)


def test_merge_of_an_equal_copy_is_refused():
    # an equal copy of t1 shares its leaves and is refused
    t1 = Node(Leaf(1), Leaf(2), 0)
    copy = Node(Leaf(1), Leaf(2), 0)
    assert copy == t1 and copy is not t1
    with pytest.raises(InvalidMergeError, match="share a leaf"):
        u_merge(t1, copy, 0, POINTED)


def test_flyn3_exact_elements(flyn):
    pointed_tops = {
        "(1 (2 3)^1)^1", "(1 (2 3)^1)^0", "((1 3)^0 2)^0",
        "((1 2)^1 3)^0", "((1 3)^1 2)^1", "((1 3)^1 2)^0",
        "((1 2)^0 3)^0", "(1 (2 3)^0)^1", "(1 (2 3)^0)^0",
    }
    weighted_tops = {
        "(1 (2 3)^1)^1", "(1 (2 3)^1)^0", "((1 2)^1 3)^0",
        "((1 3)^1 2)^1", "((1 3)^1 2)^0", "((1 3)^0 2)^0",
        "((1 3)^0 2)^1", "(1 (2 3)^0)^1", "(1 (2 3)^0)^0",
    }
    fp, fw = flyn[(3, "pointed")], flyn[(3, "weighted")]
    assert {fp.payload(t) for t in fp.maximal_elements()} == pointed_tops
    assert {fw.payload(t) for t in fw.maximal_elements()} == weighted_tops
    assert fp.whitney_second() == fw.whitney_second() == (1, 6, 9)
    assert len(build_flyn(1, POINTED)) == 1


def test_flyn_rank_counts(flyn):
    for n in (2, 3, 4):
        for flavor in (POINTED, WEIGHTED):
            expected = tuple(comb(n - 1, k) * n**k for k in range(n))
            assert flyn[(n, flavor)].whitney_second() == expected


def test_flyn_rank_counts_n5():
    expected = tuple(comb(4, k) * 5**k for k in range(5))
    for flavor in (POINTED, WEIGHTED):
        assert build_flyn(5, flavor).whitney_second() == expected


def test_closure_matches_generate_and_filter(flyn):
    for n in (2, 3, 4):
        for flavor in (POINTED, WEIGHTED):
            generated = {f.render() for f in all_valid_forests(n, flavor)}
            assert generated == set(flyn[(n, flavor)].payloads_)


def test_valid_forest_chain_is_ascent_free(flyn, lb, lw):
    for flavor, labeling in ((POINTED, lb[4]), (WEIGHTED, lw[4])):
        lp = labeling.label_poset
        for x in flyn[(4, flavor)].elements():
            word = oracle_word(flyn[(4, flavor)].object(x))
            assert is_ascent_free(lp, tuple(lp.index(l) for l in word))


def test_all_blue_subposet_counts_and_isomorphism(flyn, weighted):
    # all-0-colored forests form the Whitney dual of the partition lattice
    from whitneydual import GradedPoset

    for n in (3, 4):
        fw = flyn[(n, WEIGHTED)]
        members = [x for x in fw.elements() if "^1" not in fw.payload(x)]
        pos = {m: i for i, m in enumerate(members)}
        sub = GradedPoset(
            [fw.payload(m) for m in members],
            [(pos[a], pos[b]) for a, b in fw.covers if a in pos and b in pos],
        )
        # rank counts are the signless Stirling numbers of the first kind
        stirling = [[1]]
        for m in range(1, n + 1):
            prev = stirling[-1] + [0]
            stirling.append(
                [prev[k - 1] + (m - 1) * prev[k] if k else (m - 1) * prev[0] for k in range(m + 1)]
            )
        expected = tuple(stirling[n][n - k] for k in range(n))
        assert sub.whitney_second() == expected
        w = weighted[n]
        inter = interval(w, w.zero(), w.index("".join(str(i) for i in range(1, n + 1)) + "^0"))
        labeling = restrict_to(label_lambda_w(w), inter)
        assert are_isomorphic(sub, construct_R(inter, labeling)) is not None


# -- the cached vertex fields against the whole-tree oracle -------------------------


def mirror(t):
    if isinstance(t, Leaf):
        return t
    return Node(mirror(t.right), mirror(t.left), t.color)


def test_cached_validity_matches_oracle():
    for n in range(1, 6):
        for normal in normalized_trees(range(1, n + 1)):
            for t in (normal, mirror(normal)):
                assert t.leaves == sum(1 << l for l in leaf_labels(t))
                assert is_normalized(t) == oracle_is_normalized(t) == (t is normal)
                for flavor in (POINTED, WEIGHTED):
                    assert is_valid(t, flavor) == oracle_tree_valid(t, flavor)


def test_cached_point_weight_and_extension_match_oracle():
    # every normalized tree, valid or not, and its mirror, not normalized past one leaf
    for n in range(1, 6):
        for normal in normalized_trees(range(1, n + 1)):
            assert normal.point == oracle_point(normal)
            for t in (normal, mirror(normal)):
                assert t.weight == oracle_weight(t)
                assert same_order(BicoloredForest.of(t))


def test_validity_is_an_ascent_free_word():
    # a tree is flavor-valid exactly when it is normalized and phi's word is
    # ascent-free in the flavor's label order
    for n in range(1, 6):
        for normal in normalized_trees(range(1, n + 1)):
            for t in (normal, mirror(normal)):
                normalized = oracle_is_normalized(t)
                word = [
                    PairLabel(v.left.valency, v.right.valency, v.color)
                    for v in reverse_minimal_extension(BicoloredForest.of(t))
                ] if normalized else []
                for flavor, less in LABEL_LESS.items():
                    ascent_free = not any(map(less, word, word[1:]))
                    assert is_valid(t, flavor) == (normalized and ascent_free)


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_u_merge_matches_oracle_slide(flavor):
    for n in range(1, 6):
        poset = build_flyn(n, flavor)
        for forest in poset.objects:
            for t1, t2 in combinations(forest.trees, 2):
                rest = [t for t in forest.trees if t is not t1 and t is not t2]
                for u in (0, 1):
                    merged = u_merge(t1, t2, u, flavor)
                    assert BicoloredForest.of(*rest, merged) == oracle_u_merge(
                        forest, t1, t2, u, flavor
                    )
                    assert oracle_tree_valid(merged, flavor)


def _vertex_ids(t) -> set[int]:
    """The identities of t's internal vertices."""
    return {id(v) for v in internal_vertices(t)}


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_u_merge_builds_only_new_vertices(flavor, monkeypatch):
    # every vertex a merge builds is in its result, and is not one of t1's
    # or t2's: 2160 covers of FLyn_5 per flavor
    poset = build_flyn(5, flavor)
    built = _count_builds(monkeypatch, Node)
    merges = 0
    for forest in poset.objects:
        for t1, t2 in combinations(forest.trees, 2):
            old = _vertex_ids(t1) | _vertex_ids(t2)
            for u in (0, 1):
                built[0] = 0
                merged = u_merge(t1, t2, u, flavor)
                assert built[0] == len(_vertex_ids(merged) - old) >= 1
                merges += 1
    assert merges == len(poset.covers) == 2160


@pytest.mark.parametrize("flavor", [POINTED, WEIGHTED])
def test_flyn_cover_tags_decode_to_oracle_slides(flavor):
    # each cover's tag names the merge (a,b)^u of the source's trees with
    # minima a and b, and the target is the oracle's slide of that merge
    for n in range(1, 6):
        poset = build_flyn(n, flavor)
        merge_of = {_merge_tag(a, b, u): (a, b, u)
                    for a, b in combinations(range(1, n + 1), 2) for u in (0, 1)}
        assert len(poset.cover_tags) == len(poset.covers)
        for (x, y), tag in zip(poset.covers, poset.cover_tags):
            a, b, u = merge_of[tag]
            source = poset.object(x)
            by_min = {t.valency: t for t in source.trees}
            expected = oracle_u_merge(source, by_min[a], by_min[b], u, flavor)
            assert poset.object(y) == expected
