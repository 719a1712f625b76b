"""The full desk-scale verification suite behind ``reproduce-paper``.

Each criterion is a named function returning (ok, detail).  The table is the
single source of truth: the CLI prints one line per criterion and the
acceptance test module asserts each one at its stated (exact) tolerance.
Everything here is integer arithmetic; there are no tolerances to tune.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional

from .config import DEFAULT_LIMITS, Limits, check_n
from .isomorphism import are_isomorphic
from .labeling import (
    EdgeLabeling,
    LabelPoset,
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    rank_two_words,
    stanley_dual_check,
    stanley_mobius_check,
)
from .lyndon import (
    POINTED,
    WEIGHTED,
    Leaf,
    Node,
    build_flyn,
    flyn_to_sorting_dual,
    phi_reader,
)
from .operads import pbw_perm_basis, theta, tlyn_trees
from .partitions import (
    PointedPartition,
    _merge_tag,
    build_pointed,
    build_spanning_forest_poset,
    build_weighted,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
)
from .poset import GradedPoset, closure, is_whitney_dual, is_whitney_twin
from .whitney_dual import ascent_free_zero_chains, construct_R, sort_word


class Context:
    """Caches the expensive poset constructions across criteria."""

    def __init__(self, max_n: int = 5, limits: Limits = DEFAULT_LIMITS) -> None:
        check_n(max_n)  # before any build; below 1 every criterion would pass vacuously
        self.max_n = max_n
        self.limits = limits
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def weighted(self, n: int) -> GradedPoset:
        return self._get(("w", n), lambda: build_weighted(n, self.limits))

    def pointed(self, n: int) -> GradedPoset:
        return self._get(("p", n), lambda: build_pointed(n, self.limits))

    def sf(self, n: int) -> GradedPoset:
        return self._get(("sf", n), lambda: build_spanning_forest_poset(n, self.limits))

    def flyn(self, n: int, flavor: str) -> GradedPoset:
        return self._get(("flyn", n, flavor), lambda: build_flyn(n, flavor, self.limits))

    def lw(self, n: int) -> EdgeLabeling:
        return self._get(("lw", n), lambda: label_lambda_w(self.weighted(n)))

    def lb(self, n: int) -> EdgeLabeling:
        return self._get(("lb", n), lambda: label_lambda_bullet(self.pointed(n)))

    def lb2(self, n: int) -> EdgeLabeling:
        return self._get(("lb2", n), lambda: label_lambda_bullet2(self.pointed(n)))

    def flyn_labeling(self, n: int, flavor: str) -> EdgeLabeling:
        """The labeling whose sorting dual is the flavor's forest poset."""
        return self.lb(n) if flavor == POINTED else self.lw(n)

    def r_dual(self, n: int, flavor: str) -> GradedPoset:
        labeling = self.flyn_labeling(n, flavor)
        key = ("Rp" if flavor == POINTED else "Rw", n)
        return self._get(key, lambda: construct_R(labeling.poset, labeling))


def figure_example_posets() -> tuple[GradedPoset, EdgeLabeling, GradedPoset]:
    """The small running example: P with its labeling, and its Whitney dual Q."""
    p = GradedPoset(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    )
    lp = LabelPoset.total_order(["a", "b", "c"])
    labeling = EdgeLabeling(p, lp, [lp.index(l) for l in "abcbaa"])
    q = GradedPoset(
        ["(0,)", "(a,a)", "(b,b)", "(c,c)", "(1,ba)", "(1,ca)"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5)],
    )
    return p, labeling, q


def _expected_first(n: int) -> tuple[int, ...]:
    return tuple((-1) ** k * comb(n - 1, k) * n**k for k in range(n))


def _expected_second(n: int) -> tuple[int, ...]:
    return tuple(comb(n, k) * (n - k) ** k for k in range(n))


def crit_whitney_formulas(ctx: Context) -> tuple[bool, str]:
    for n in range(1, ctx.max_n + 1):
        for build in (ctx.weighted, ctx.pointed):
            p = build(n)
            if p.whitney_first() != _expected_first(n):
                return False, f"first-kind mismatch at n={n}: {p.whitney_first()}"
            if p.whitney_second() != _expected_second(n):
                return False, f"second-kind mismatch at n={n}: {p.whitney_second()}"
    return True, f"both families match the closed forms for n<=:{ctx.max_n}"


def crit_figure_mobius(ctx: Context) -> tuple[bool, str]:
    w3 = ctx.weighted(3)
    tops_w = sorted(w3.mobius(t) for t in w3.maximal_elements())
    if tops_w != [2, 2, 5]:
        return False, f"weighted top Mobius values {tops_w}"
    mid = w3.mobius(w3.index("123^1"))
    if mid != 5:
        return False, f"mu(123^1) = {mid}"
    p3 = ctx.pointed(3)
    tops_p = [p3.mobius(t) for t in p3.maximal_elements()]
    if tops_p != [3, 3, 3]:
        return False, f"pointed top Mobius values {tops_p}"
    p, labeling, q = figure_example_posets()
    mus_p = [p.mobius(x) for x in p.elements()]
    mus_q = [q.mobius(x) for x in q.elements()]
    if mus_p != [1, -1, -1, -1, 2]:
        return False, f"example poset P Mobius {mus_p}"
    if sorted(mus_q) != [-1, -1, -1, 0, 1, 1]:
        return False, f"example poset Q Mobius {mus_q}"
    if p.whitney_first() != (1, -3, 2) or q.whitney_second() != (1, 3, 2):
        return False, "example Whitney sequences off"
    if not is_whitney_dual(p, q):
        return False, "example posets not Whitney dual"
    r = construct_R(p, labeling)
    if are_isomorphic(q, r) is None:
        return False, "sorting dual of the example differs from Q"
    return True, "all figure-level Mobius values reproduced"


def crit_labeling_matrix(ctx: Context) -> tuple[bool, str]:
    for n in range(1, ctx.max_n + 1):
        lw = ctx.lw(n)
        if not (check_EL(lw).passed and check_EW(lw).passed):
            return False, f"weighted labeling not EL+EW at n={n}"
        lb = ctx.lb(n)
        if not check_EW(lb).passed:
            return False, f"pointed merge labeling not EW at n={n}"
        el = check_EL(lb)
        if n < 3:
            if not el.passed:
                return False, f"pointed labeling should be vacuously EL at n={n}"
        else:
            if el.passed:
                return False, f"pointed labeling unexpectedly EL at n={n}"
            top = el.witnesses[0]["interval"][1]
            if not top.startswith("12~3"):
                return False, f"EL witness should sit over 12~3..., got {top}"
        lb2 = ctx.lb2(n)
        if not check_EL(lb2).passed:
            return False, f"weighted-order labeling not EL at n={n}"
        ew2 = check_EW(lb2)
        if n < 3:
            if not ew2.passed:
                return False, f"weighted-order labeling should be vacuously EW at n={n}"
        else:
            if ew2.passed or ew2.details["parts"]["rank-two-switching"] != "fail":
                return False, f"rank-two switching should fail at n={n}"
        if not check_EL_dual(lb).passed:
            return False, f"dual labeling not EL at n={n}"

    lt3 = label_lambda_tilde(ctx.pointed(3))
    er = check_ER(lt3)
    if er.passed:
        return False, "two-coordinate labeling unexpectedly ER at n=3"
    wit = er.witnesses[0]
    if wit["interval"] != ["~1/~2/~3", "12~3"]:
        return False, f"unexpected witness interval {wit['interval']}"
    if sorted(wit["words"]) != ["(2,1)(3,2)", "(2,2)(3,2)"]:
        return False, f"unexpected increasing words {wit['words']}"

    failure = _tilde_failure(ctx)
    if failure:
        return False, failure
    return True, "verdict matrix exact (incl. n=6 two-coordinate check)"


# The rank-2 intervals [x, y] of the pointed poset at n = 6 in which the
# two-coordinate labeling has two increasing chains: [0, 12~3/~4/~5/~6] and,
# for each point of the block 123, [123/~4/~5/~6, 123/45~6].
TILDE_INTERVALS = (
    ("~1/~2/~3/~4/~5/~6", "12~3/~4/~5/~6"),
    ("~123/~4/~5/~6", "~123/45~6"),
    ("1~23/~4/~5/~6", "1~23/45~6"),
    ("12~3/~4/~5/~6", "12~3/45~6"),
)


def _pointed(text: str) -> PointedPartition:
    """The pointed partition whose payload is ``text``, one digit per member."""
    return PointedPartition(tuple(
        (tuple(int(v) for v in block.replace("~", "")), int(block[block.index("~") + 1]))
        for block in text.split("/")
    ))


def _closed(x: PointedPartition, stop: int, limits: Limits) -> GradedPoset:
    """The pointed partitions above x with at least ``stop`` blocks."""
    merges = lambda y: y.merges() if len(y.blocks) > stop else ()
    return closure(x, merges, PointedPartition, PointedPartition.render, limits)


def _tilde_failure(ctx: Context) -> Optional[str]:
    """Why the two-coordinate labeling does not fail inside every maximal
    interval of the pointed poset at n = 6, or None: each interval of
    ``TILDE_INTERVALS`` needs two increasing chains, and each maximal
    element one of their tops below it.  That poset is never built.  Each
    interval [x, y] is read in the pointed partitions up to two ranks above
    x, labeled on their own (the labeling reads each element's block
    count, not its rank, so the labels are the whole poset's), and the
    maximal elements above the tops are those of the tops' upper filters."""
    for bottom, top in TILDE_INTERVALS:
        x = _pointed(bottom)
        labeling = label_lambda_tilde(_closed(x, len(x.blocks) - 2, ctx.limits))
        p = labeling.poset
        words = rank_two_words(labeling, p.zero()).get(p.index(top), [])
        if sum(labeling.label_poset.less(*w) for w in words) < 2:
            return f"expected witness interval not found: {(bottom, top)}"
    covered = set()
    for _, top in TILDE_INTERVALS:
        f = _closed(_pointed(top), 1, ctx.limits)
        covered.update(f.payload(t) for t in f.maximal_elements())
    ground = tuple(range(1, 7))
    for t in sorted(PointedPartition(((ground, point),)).render() for point in ground):
        if t not in covered:
            return f"no witness inside the interval below {t}"
    return None


def crit_stanley(ctx: Context) -> tuple[bool, str]:
    checked = 0
    for n in range(1, min(4, ctx.max_n) + 1):
        for labeling in (ctx.lw(n), ctx.lb(n), ctx.lb2(n)):
            if not stanley_mobius_check(labeling).passed:
                return False, f"Stanley identity failed at n={n}"
            checked += 1
        # the dual of each maximal interval [0, t], decided by sweeps up from the bottoms
        if not check_EL_dual(ctx.lb(n)).passed:
            return False, f"dual labeling not EL at n={n}"
        dual = stanley_dual_check(ctx.lb(n))
        if not dual.passed:
            return False, f"Stanley identity failed on a dual interval at n={n}"
        checked += dual.details["maximal_intervals_checked"]
    return True, f"identity exact on {checked} labeled posets"


def crit_construct_r_duality(ctx: Context) -> tuple[bool, str]:
    for n in range(1, ctx.max_n + 1):
        for flavor, base in ((WEIGHTED, ctx.weighted(n)), (POINTED, ctx.pointed(n))):
            r = ctx.r_dual(n, flavor)
            if not is_whitney_dual(base, r):
                return False, f"R construction not a Whitney dual at n={n} ({flavor})"
    return True, f"is_whitney_dual(P, R(P)) for both families, n<=:{ctx.max_n}"


def crit_forest_bijection(ctx: Context) -> tuple[bool, str]:
    """phi: forest -> (top, word) is an isomorphism FLyn (slide) -> R_lambda (sort).

    The merge tags give an isomorphism FLyn -> R_lambda, checked as such by
    the tag walk; phi, read off each forest alone, must send every forest to
    its image there.  R_lambda's elements must be the ascent-free chains of
    one sweep from the minimum, which does not read construct_R.
    """
    done = 0
    for n in range(1, ctx.max_n + 1):
        for flavor in (POINTED, WEIGHTED):
            labeling = ctx.flyn_labeling(n, flavor)
            r = ctx.r_dual(n, flavor)
            chains = set(ascent_free_zero_chains(labeling.poset, labeling))
            if chains != set(r.objects):
                return False, f"chain sets differ at n={n} ({flavor})"
            flyn = ctx.flyn(n, flavor)
            image = flyn_to_sorting_dual(flyn, r, labeling, ctx.limits)
            if image is None:
                return False, f"the merge tags give no map FLyn -> R_lambda at n={n} ({flavor})"
            failure = _phi_mismatch(flyn, r, image, labeling, flavor)
            if failure:
                return False, f"{failure} at n={n} ({flavor})"
            done += len(flyn) + len(flyn.covers)
    return True, f"round trips and slide/sort equivalence on {done} cases"


def _phi_mismatch(
    flyn: GradedPoset, r: GradedPoset, image: list[int], labeling: EdgeLabeling, flavor: str,
) -> Optional[str]:
    """How phi, read by one fresh reader, fails to send some forest to its
    image in R_lambda, or None.  The words compare as merge tags, R_lambda's
    letters through one table; the tops compare block by block, each
    partition's blocks written once as (leaf bitmask, point or weight).  The
    reader's memo is dropped on return, before the next flavor's build."""
    read = phi_reader(flavor)
    as_tag = [_merge_tag(lab.a, lab.b, lab.u) for lab in labeling.label_poset.labels]
    blocks = [
        tuple([(sum(1 << i for i in members), tag) for members, tag in x.blocks])
        for x in labeling.poset.objects
    ]
    for forest, x in zip(flyn.objects, image):
        el = r.objects[x]
        top, word = read(forest)
        if word != tuple([as_tag[i] for i in el.word]):
            return f"phi gives {forest.render()} another word than the tag walk"
        if top != blocks[el.top]:
            return "chain top mismatch"
    return None


def crit_flyn_vs_r(ctx: Context) -> tuple[bool, str]:
    for n in range(1, min(4, ctx.max_n) + 1):
        for flavor in (POINTED, WEIGHTED):
            flyn, r = ctx.flyn(n, flavor), ctx.r_dual(n, flavor)
            labeling = ctx.flyn_labeling(n, flavor)
            if flyn_to_sorting_dual(flyn, r, labeling, ctx.limits) is None:
                return False, f"forest poset differs from sorting dual at n={n} ({flavor})"
    return True, "forest posets isomorphic to sorting duals for n<=4"


def crit_nonisomorphism(ctx: Context) -> tuple[bool, str]:
    if are_isomorphic(ctx.flyn(3, WEIGHTED), ctx.flyn(3, POINTED)) is None:
        return False, "flavors should agree at n=3"
    if are_isomorphic(ctx.flyn(4, WEIGHTED), ctx.flyn(4, POINTED)) is not None:
        return False, "flavors should differ at n=4"
    for n in (3, 4):
        sf = ctx.sf(n)
        for flavor in (POINTED, WEIGHTED):
            if are_isomorphic(sf, ctx.flyn(n, flavor)) is not None:
                return False, f"spanning forests isomorphic to {flavor} forests at n={n}"
    return True, "three pairwise distinct Whitney duals confirmed"


def crit_twins(ctx: Context) -> tuple[bool, str]:
    for n in range(1, ctx.max_n + 1):
        if not is_whitney_twin(ctx.pointed(n), ctx.weighted(n)):
            return False, f"partition posets not twins at n={n}"
        if not is_whitney_twin(ctx.flyn(n, POINTED), ctx.flyn(n, WEIGHTED)):
            return False, f"forest posets not twins at n={n}"
    return True, f"twin pairs confirmed for n<=:{ctx.max_n}"


def crit_counts(ctx: Context) -> tuple[bool, str]:
    for n in range(1, ctx.max_n + 1):
        pointed_counts = [len(t) for t in tlyn_trees(n, POINTED).values()]
        weighted_counts = [len(t) for t in tlyn_trees(n, WEIGHTED).values()]
        if sum(pointed_counts) != n ** (n - 1) or sum(weighted_counts) != n ** (n - 1):
            return False, f"census total off at n={n}"
        if len(set(pointed_counts)) != 1:
            return False, f"pointed census not constant across points at n={n}"
    for n in range(1, 9):
        if len(pbw_perm_basis(n)) != n:
            return False, f"left-comb basis size off at n={n}"
    t2 = Node(Node(Leaf(5), Leaf(7), 1), Leaf(6), 0)
    tree = Node(
        Node(Node(Leaf(1), t2, 1), Leaf(4), 1),
        Node(Leaf(2), Leaf(3), 1),
        0,
    )
    rendered = theta(tree)
    if rendered != "(2∘3)∘((1∘(6∘(5∘7)))∘4)":
        return False, f"monomial rendering off: {rendered}"
    return True, "census totals, comb bases, and the worked monomial all exact"


def crit_sort_example(ctx: Context) -> tuple[bool, str]:
    level = {"a": 0, "b": 0, "c": 1, "d": 2}  # a, b < c < d
    lp = LabelPoset("abcd", lambda x, y: level[x] < level[y])
    word = tuple(lp.index(ch) for ch in "adbca")
    result = "".join(lp.labels[i] for i in sort_word(lp, word))
    if result != "dcaba":
        return False, f"sort(adbca) = {result}"
    return True, "sort(adbca) = dcaba"


CRITERIA: list[tuple[str, Callable[[Context], tuple[bool, str]]]] = [
    ("whitney-number-formulas", crit_whitney_formulas),
    ("figure-mobius-values", crit_figure_mobius),
    ("labeling-verdict-matrix", crit_labeling_matrix),
    ("stanley-mobius-oracle", crit_stanley),
    ("sorting-dual-duality", crit_construct_r_duality),
    ("forest-chain-bijection", crit_forest_bijection),
    ("forest-poset-vs-sorting-dual", crit_flyn_vs_r),
    ("nonisomorphism-triple", crit_nonisomorphism),
    ("whitney-twins", crit_twins),
    ("basis-counts-and-monomials", crit_counts),
    ("sort-word-example", crit_sort_example),
]


def run_all(max_n: int = 5, limits: Limits = DEFAULT_LIMITS) -> list[tuple[str, bool, str]]:
    ctx = Context(max_n, limits)
    return [(name, *fn(ctx)) for name, fn in CRITERIA]
