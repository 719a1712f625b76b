"""The full desk-scale verification suite behind ``reproduce-paper``.

Each criterion is a named function returning (ok, detail).  The table is the
single source of truth: the CLI prints one line per criterion and the
acceptance test module asserts each one at its stated (exact) tolerance.
Everything here is integer arithmetic; there are no tolerances to tune.
"""

from __future__ import annotations

from math import comb
from typing import Callable

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
    chain_to_forest,
    chain_top,
    forest_word,
)
from .operads import pbw_perm_basis, theta, tlyn_trees
from .partitions import (
    build_pointed,
    build_spanning_forest_poset,
    build_weighted,
    label_lambda_bullet,
    label_lambda_bullet2,
    label_lambda_tilde,
    label_lambda_w,
)
from .poset import GradedPoset, is_whitney_dual, is_whitney_twin
from .whitney_dual import DualElement, ascent_free_zero_chains, construct_R, sort_word


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

    def r_dual(self, n: int, flavor: str) -> GradedPoset:
        if flavor == WEIGHTED:
            return self._get(("Rw", n), lambda: construct_R(self.weighted(n), self.lw(n)))
        return self._get(("Rp", n), lambda: construct_R(self.pointed(n), self.lb(n)))


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

    ok, detail = _tilde_fails_all_maximal_intervals(ctx)
    if not ok:
        return False, detail
    return True, "verdict matrix exact (incl. n=6 two-coordinate check)"


def _tilde_fails_all_maximal_intervals(ctx: Context) -> tuple[bool, str]:
    """Every maximal interval of the pointed poset at n = 6 must contain a
    rank-2 interval with two increasing chains under the two-coordinate
    labeling.  Below max_n = 6 no later criterion reads that poset, so it is
    built without entering the cache."""
    n = 6
    p = ctx.pointed(n) if ctx.max_n >= n else build_pointed(n, ctx.limits)
    labeling = label_lambda_tilde(p)
    lp = labeling.label_poset
    violations: set[tuple[str, str]] = set()
    violating_tops: list[int] = []
    for x in p.elements():
        for y, words in rank_two_words(labeling, x).items():
            if sum(1 for w in words if lp.less(w[0], w[1])) >= 2:
                violating_tops.append(y)
                violations.add((p.payload(x), p.payload(y)))
    for t in p.maximal_elements():
        if p.below(t).isdisjoint(violating_tops):
            return False, f"no witness inside the interval below {p.payload(t)}"
    # the concrete witness intervals: [0, 123-pointed-3 / singletons] and,
    # for each j, [123^j / singletons, 123^j / 456-pointed-6 / singletons]
    singles = [f"~{i}" for i in range(4, n + 1)]
    bottom = "/".join(f"~{i}" for i in range(1, n + 1))
    expected = [(bottom, "/".join(["12~3"] + singles))]
    for block in ("~123", "1~23", "12~3"):
        expected.append((
            "/".join([block] + singles),
            "/".join([block, "45~6"] + singles[3:]),
        ))
    missing = [pair for pair in expected if pair not in violations]
    if missing:
        return False, f"expected witness intervals not found: {missing}"
    return True, (
        f"all {len(p.maximal_elements())} maximal intervals witnessed at n={n}, "
        f"including the {len(expected)} canonical rank-2 intervals"
    )


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
    """phi: forest -> (top, word) is an isomorphism FLyn (slide) -> R_lambda (sort)."""
    done = 0
    for n in range(1, ctx.max_n + 1):
        for flavor in (POINTED, WEIGHTED):
            labeling = ctx.lb(n) if flavor == POINTED else ctx.lw(n)
            poset, lp = labeling.poset, labeling.label_poset
            phi: dict[str, DualElement] = {}
            for el in ascent_free_zero_chains(poset, labeling):
                forest = chain_to_forest([lp.labels[i] for i in el.word], n, flavor)
                word = forest_word(forest, flavor)
                if tuple(lp.index(l) for l in word) != el.word:
                    return False, f"word round trip broke at n={n} ({flavor})"
                if chain_top(forest, flavor) != poset.object(el.top):
                    return False, f"chain top mismatch at n={n} ({flavor})"
                if phi.setdefault(forest.render(), el) is not el:
                    return False, f"two chains give {forest.render()} at n={n} ({flavor})"
                done += 1
            flyn = ctx.flyn(n, flavor)
            if set(phi) != set(flyn.payloads_):
                return False, f"forest sets differ at n={n} ({flavor})"
            r = ctx.r_dual(n, flavor)
            r_index = {el: i for i, el in enumerate(r.objects)}
            if r_index.keys() != set(phi.values()):
                return False, f"chain sets differ at n={n} ({flavor})"
            image = [r_index[phi[forest]] for forest in flyn.payloads_]
            r_covers = set(r.covers)
            for a, b in flyn.covers:
                if (image[a], image[b]) not in r_covers:
                    return False, (
                        f"phi sends the cover {flyn.payload(a)} < {flyn.payload(b)} "
                        f"to a non-cover at n={n} ({flavor})"
                    )
            # phi is injective, so distinct covers have distinct images
            if len(flyn.covers) != len(r_covers):
                return False, f"phi misses covers of R_lambda at n={n} ({flavor})"
            done += len(flyn.covers)
    return True, f"round trips and slide/sort equivalence on {done} cases"


def crit_flyn_vs_r(ctx: Context) -> tuple[bool, str]:
    for n in range(1, min(4, ctx.max_n) + 1):
        for flavor in (POINTED, WEIGHTED):
            flyn = ctx.flyn(n, flavor)
            r = ctx.r_dual(n, flavor)
            if are_isomorphic(flyn, r) is None:
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
