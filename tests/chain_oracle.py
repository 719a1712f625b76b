"""Reference implementations of the order relation and of the labeling checks.

The order oracle keeps one reachability bitmask per element, as wide as the
poset, where ``GradedPoset`` walks the Hasse diagram.  ``chains_from``
lists every saturated chain from one element, up to any endpoint; the
labeling oracles walk them from every bottom, where the package's checks
sweep rank by rank.  ``oracle_rank_two`` walks the chains x < z < y two
covers up from every element and looks each word up cover by cover, where
the package reads rank 2 of its sweeps.  All are slow or large and serve
only as the independent oracle that the package must match at small n.
``oracle_EL_dual`` and ``oracle_stanley_dual`` build what the package's
upward sweeps do not: each maximal interval [0, t] as a poset of its own
(``interval``), the labeling restricted to it by payload strings
(``restrict_to``), its order dual (``order_dual``) and the dual labeling
over the reversed label order (``dual_label_poset``, ``dual_labeling``),
and run the upward oracles there.  ``closed_label_poset`` builds a label
order from generating pairs by transitive closure; ``rank_level`` and
``upper_filter`` are the poset queries that only the tests make.
``oracle_mobius_from`` pulls each Möbius value down from its element, where
``GradedPoset.mobius_from`` pushes each value up; ``hall_mobius`` counts
chains instead, by Philip Hall's theorem, and ``hall_whitney_dual`` reads
the Whitney numbers off it.  ``merge_label`` finds a cover's merge label by
comparing its two partitions, and ``oracle_merge_labeling`` builds
lambda_w, lambda_bullet, lambda_bullet2 and lambda_tilde from it, where the
package reads each label off the cover's tag.  ``oracle_ranks`` ranks a
cover list by its cover checks, Kahn's longest paths from the unique
source, then a separate pass that every cover spans one rank, where
``GradedPoset`` ranks in one breadth-first pass.  ``oracle_tilde_failure``
checks the two-coordinate labeling's failure at n = 6 on the whole pointed
poset, each of its four intervals by ``oracle_rank_two``, where
``reproduce`` builds only those intervals and the upper filters of their
tops.
"""

from __future__ import annotations

from whitneydual.errors import ElementNotFoundError, NotGradedError, PreconditionError
from whitneydual.labeling import (
    EdgeLabeling,
    LabelPoset,
    Ordering,
    Report,
    is_ascent_free,
    is_increasing,
    lex_compare,
)
from whitneydual.partitions import (
    PairLabel,
    PointedPartition,
    WeightedPartition,
    _pair_labels,
    build_pointed,
    label_lambda_tilde,
)
from whitneydual.poset import GradedPoset


def oracle_ranks(size: int, covers) -> tuple[int, ...]:
    """The ranks of elements 0..size-1 under ``covers``, or the error the
    constructor raised for them before it ranked by breadth-first depth."""
    given = []
    for a, b in covers:
        if type(a) is not int or type(b) is not int:
            raise NotGradedError(f"cover ({a!r}, {b!r}) is not a pair of integers")
        given.append((a, b))
    cov = sorted(given)
    for c, d in zip(cov, cov[1:]):
        if c == d:
            raise NotGradedError(f"cover ({c[0]},{c[1]}) is given twice")
    up, down = [[] for _ in range(size)], [[] for _ in range(size)]
    for a, b in cov:
        if not (0 <= a < size and 0 <= b < size):
            raise ElementNotFoundError(f"cover ({a},{b}) out of range")
        if a == b:
            raise NotGradedError(f"self-cover at {a}")
        up[a].append(b)
        down[b].append(a)
    # longest paths from the unique source, by Kahn's in-degree count
    indeg = [len(d) for d in down]
    sources = [i for i in range(size) if indeg[i] == 0]
    if len(sources) != 1:
        raise NotGradedError(f"expected a unique minimal element, found {len(sources)}")
    rank = [0] * size
    queue, seen = list(sources), 0
    while queue:
        x = queue.pop()
        seen += 1
        for y in up[x]:
            rank[y] = max(rank[y], rank[x] + 1)
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if seen != size:
        raise NotGradedError("cover digraph is cyclic or disconnected from the minimum")
    # a cover implied by a longer path spans two or more ranks
    for a, b in cov:
        if rank[b] != rank[a] + 1:
            raise NotGradedError(f"cover {a} -> {b} spans ranks {rank[a]} -> {rank[b]}")
    return tuple(rank)


def closed_label_poset(names, less_pairs) -> LabelPoset:
    """The label poset on ``names`` ordered by the transitive closure of the
    strict-less index pairs ``less_pairs``; a cycle fails its validation."""
    above = [set() for _ in names]
    for i, j in less_pairs:
        above[i].add(j)
    for k in range(len(names)):  # Warshall
        for i in range(len(names)):
            if k in above[i]:
                above[i] |= above[k]
    position = {name: i for i, name in enumerate(names)}
    return LabelPoset(names, lambda a, b: position[b] in above[position[a]])


def rank_level(p, k: int) -> list[int]:
    """The elements of rank k, in index order."""
    return [x for x in p.elements() if p.rank(x) == k]


def _filter(p, x: int) -> set[int]:
    members, stack = {x}, [x]
    while stack:
        for y in p.upper_covers(stack.pop()):
            if y not in members:
                members.add(y)
                stack.append(y)
    return members


def induced(p, members: list[int]) -> GradedPoset:
    """The subposet on ``members`` (sorted indices), with the covers among them
    and their tags, if p has tags."""
    pos = {m: i for i, m in enumerate(members)}
    kept = [k for k, (a, b) in enumerate(p.covers) if a in pos and b in pos]
    covers = [(pos[p.covers[k][0]], pos[p.covers[k][1]]) for k in kept]
    objs = None if p.objects is None else [p.objects[m] for m in members]
    tags = None if p.cover_tags is None else [p.cover_tags[k] for k in kept]
    return GradedPoset([p.payload(m) for m in members], covers, objs, tags)


def upper_filter(p, x: int) -> GradedPoset:
    """The principal upper filter {y : y >= x} as a poset with minimum x."""
    return induced(p, sorted(_filter(p, x)))


def interval(p, x: int, y: int) -> GradedPoset:
    """The induced subposet on {z : x <= z <= y}, with x as its minimum."""
    down = p.below(y)
    if x not in down:
        raise ElementNotFoundError(f"{p.payload(x)} is not below {p.payload(y)}")
    return induced(p, sorted(_filter(p, x) & down))


def order_dual(p) -> GradedPoset:
    """Covers reversed; defined only when the poset has a unique maximum."""
    tops = p.maximal_elements()
    if len(tops) != 1:
        raise NotGradedError(
            f"order dual needs a unique maximum, found {len(tops)} maximal elements"
        )
    return GradedPoset(p.payloads_, [(b, a) for a, b in p.covers], p.objects)


def restrict_to(labeling: EdgeLabeling, sub) -> EdgeLabeling:
    """The induced labeling on a subposet (matched by payload strings)."""
    p = labeling.poset
    label = dict(zip(p.covers, labeling.cover_labels))
    return EdgeLabeling(sub, labeling.label_poset, [
        label[(p.index(sub.payload(a)), p.index(sub.payload(b)))] for a, b in sub.covers
    ])


def dual_label_poset(lp: LabelPoset) -> LabelPoset:
    """The same labels with the order reversed."""
    return LabelPoset(lp.labels, lambda a, b: lp.less(lp.index(b), lp.index(a)))


def dual_labeling(labeling: EdgeLabeling) -> EdgeLabeling:
    """The same labels on the order dual, over the dual label order."""
    p = labeling.poset
    flipped = sorted(zip(((b, a) for a, b in p.covers), labeling.cover_labels))
    return EdgeLabeling(
        order_dual(p), dual_label_poset(labeling.label_poset), [lab for _, lab in flipped]
    )


def maximal_interval_duals(labeling: EdgeLabeling):
    """(t, the dual labeling of [0, t]) for each maximal t, in index order."""
    p = labeling.poset
    for t in sorted(p.maximal_elements()):
        yield t, dual_labeling(restrict_to(labeling, interval(p, p.zero(), t)))


def down_bits(p) -> list[int]:
    """Bitmask per element x of all y with y <= x."""
    bits = [0] * len(p)
    for x in p.topo_order():
        m = 1 << x
        for y in p.lower_covers(x):
            m |= bits[y]
        bits[x] = m
    return bits


def oracle_mobius(p) -> tuple[int, ...]:
    """mu(0, x) for every x, summed over the bitmask of each down-set."""
    bits = down_bits(p)
    mu = [0] * len(p)
    for x in p.topo_order():
        if x == p.zero():
            mu[x] = 1
            continue
        total = 0
        m = bits[x] & ~(1 << x)
        while m:
            low = m & -m
            total += mu[low.bit_length() - 1]
            m ^= low
        mu[x] = -total
    return tuple(mu)


def oracle_mobius_from(p, x: int) -> tuple[int, ...]:
    """mu(x, y) for every y, pulled: each y above x, by rank, is minus the sum
    over its whole down-set, where mu[y] itself and every element not above
    x are still 0."""
    mu = [0] * len(p)
    mu[x] = 1
    for y in sorted(_filter(p, x) - {x}, key=lambda y: (p.rank(y), y)):
        mu[y] = -sum(map(mu.__getitem__, p.below(y)))
    return tuple(mu)


def hall_mobius(p) -> list[int]:
    """mu(0, y) for every y by Philip Hall's theorem: the sum over k of
    (-1)^k c_k(y), c_k(y) the number of chains 0 = z_0 < z_1 < ... < z_k = y
    of strict relations, not only covers; c_k(y) is the sum of c_(k-1)(z)
    over the z strictly below y."""
    bits = down_bits(p)
    under = [[z for z in p.elements() if z != y and (bits[y] >> z) & 1] for y in p.elements()]
    count = [int(y == p.zero()) for y in p.elements()]
    mu = list(count)
    for k in range(1, p.max_rank() + 1):
        count = [sum(count[z] for z in under[y]) for y in p.elements()]
        mu = [m + (-1) ** k * c for m, c in zip(mu, count)]
    return mu


def hall_whitney_dual(p, q) -> bool:
    """Whether |w_k(P)| = W_k(Q) and |w_k(Q)| = W_k(P) for all k, the first
    kind summed from ``hall_mobius`` and the second counted by rank."""
    size = max(p.max_rank(), q.max_rank()) + 1

    def numbers(x) -> tuple[list[int], list[int]]:
        first, second = [0] * size, [0] * size
        for y, m in zip(x.elements(), hall_mobius(x)):
            first[x.rank(y)] += m
            second[x.rank(y)] += 1
        return [abs(v) for v in first], second

    (wp, sp), (wq, sq) = numbers(p), numbers(q)
    return wp == sq and wq == sp


def oracle_interval_payloads(p, x: int, y: int) -> list[str]:
    """Payloads of {z : x <= z <= y}, in index order."""
    bits = down_bits(p)
    return [p.payload(z) for z in p.elements() if (bits[z] >> x) & 1 and (bits[y] >> z) & 1]


def oracle_saturated_chains(p, x: int, y: int) -> list[tuple[int, ...]]:
    """All saturated chains from x to y, depth-first, pruned by bitmask."""
    target = down_bits(p)[y]
    if not (target >> x) & 1:
        return []
    chains: list[tuple[int, ...]] = []

    def walk(prefix: list[int]) -> None:
        if prefix[-1] == y:
            chains.append(tuple(prefix))
            return
        for w in p.upper_covers(prefix[-1]):
            if (target >> w) & 1:
                walk(prefix + [w])

    walk([x])
    return chains


def chains_from(p, x: int) -> list[tuple[int, ...]]:
    """All saturated chains starting at x (any endpoint), depth-first."""
    chains: list[tuple[int, ...]] = []

    def walk(prefix: list[int]) -> None:
        chains.append(tuple(prefix))
        for w in p.upper_covers(prefix[-1]):
            walk(prefix + [w])

    walk([x])
    return chains


def chains_by_top(labeling: EdgeLabeling, bottom: int) -> dict[int, list[tuple[int, ...]]]:
    """Words of all saturated chains from ``bottom``, grouped by endpoint."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for elems in chains_from(labeling.poset, bottom):
        buckets.setdefault(elems[-1], []).append(labeling.word(elems))
    return buckets


def _interval_payloads(labeling: EdgeLabeling, x: int, y: int) -> list[str]:
    p = labeling.poset
    return [p.payload(x), p.payload(y)]


def _by_rank(p, elements):
    return sorted(elements, key=lambda e: (p.rank(e), e))


def oracle_ER(labeling: EdgeLabeling) -> Report:
    p = labeling.poset
    lp = labeling.label_poset
    for x in p.topo_order():
        buckets = chains_by_top(labeling, x)
        for y in _by_rank(p, buckets):
            if p.rank(y) - p.rank(x) < 2:
                continue
            inc = [w for w in buckets[y] if is_increasing(lp, w)]
            if len(inc) != 1:
                return Report("ER", False, [{
                    "kind": "increasing-chain-count",
                    "interval": _interval_payloads(labeling, x, y),
                    "count": len(inc),
                    "words": [labeling.word_names(w) for w in inc],
                }])
    return Report("ER", True)


def oracle_EL(labeling: EdgeLabeling) -> Report:
    er = oracle_ER(labeling)
    if not er.passed:
        return Report("EL", False, er.witnesses, {"failed_at": "ER"})
    p = labeling.poset
    lp = labeling.label_poset
    for x in p.topo_order():
        buckets = chains_by_top(labeling, x)
        for y in _by_rank(p, buckets):
            if p.rank(y) - p.rank(x) < 2:
                continue
            words = buckets[y]
            inc = next(w for w in words if is_increasing(lp, w))
            for w in words:
                if w == inc:
                    continue
                relation = lex_compare(lp, inc, w)
                if relation is not Ordering.LESS:
                    return Report("EL", False, [{
                        "kind": "not-lex-first",
                        "interval": _interval_payloads(labeling, x, y),
                        "increasing": labeling.word_names(inc),
                        "competitor": labeling.word_names(w),
                        "relation": relation.value,
                    }])
    return Report("EL", True)


def oracle_injectivity(labeling: EdgeLabeling) -> Report:
    p = labeling.poset
    lp = labeling.label_poset
    for x in p.topo_order():
        buckets = chains_by_top(labeling, x)
        for y in _by_rank(p, buckets):
            seen: set[tuple[int, ...]] = set()
            for w in buckets[y]:
                if not is_ascent_free(lp, w):
                    continue
                if w in seen:
                    return Report("ascent-free-injectivity", False, [{
                        "kind": "duplicate-word",
                        "interval": _interval_payloads(labeling, x, y),
                        "word": labeling.word_names(w),
                    }])
                seen.add(w)
    return Report("ascent-free-injectivity", True)


def oracle_rank_two(labeling: EdgeLabeling) -> Report:
    """Rank-two switching from every bottom, each chain x < z < y walked up
    the upper covers and its word looked up cover by cover."""
    p = labeling.poset
    lp = labeling.label_poset
    for x in p.topo_order():
        buckets: dict[int, list[tuple[int, ...]]] = {}
        for z in p.upper_covers(x):
            for y in p.upper_covers(z):
                buckets.setdefault(y, []).append(labeling.word((x, z, y)))
        for y in sorted(buckets):
            inc = [w for w in buckets[y] if is_increasing(lp, w)]
            if len(inc) != 1:
                return Report("rank-two-switching", False, [{
                    "kind": "increasing-chain-count",
                    "interval": _interval_payloads(labeling, x, y),
                    "count": len(inc),
                }])
            switched = buckets[y].count(inc[0][::-1])
            if switched != 1:
                return Report("rank-two-switching", False, [{
                    "kind": "switched-chain-count",
                    "interval": _interval_payloads(labeling, x, y),
                    "increasing": labeling.word_names(inc[0]),
                    "switched_count": switched,
                }])
    return Report("rank-two-switching", True)


def oracle_EW(labeling: EdgeLabeling) -> Report:
    parts = [oracle_ER(labeling), oracle_rank_two(labeling), oracle_injectivity(labeling)]
    return Report(
        "EW",
        all(r.passed for r in parts),
        [w for r in parts for w in r.witnesses],
        {"parts": {r.check: ("pass" if r.passed else "fail") for r in parts}},
    )


def oracle_stanley(labeling: EdgeLabeling, all_intervals: bool = False) -> Report:
    if not oracle_ER(labeling).passed:
        raise PreconditionError("stanley_mobius_check requires an ER-labeling")
    p = labeling.poset
    lp = labeling.label_poset
    mu = p.mobius_all()
    buckets = chains_by_top(labeling, p.zero())
    for x in _by_rank(p, p.elements()):
        count = sum(1 for w in buckets.get(x, []) if is_ascent_free(lp, w))
        if mu[x] != (-1) ** p.rank(x) * count:
            return Report("stanley-mobius", False, [{
                "kind": "mobius-mismatch",
                "interval": _interval_payloads(labeling, p.zero(), x),
                "mobius": mu[x],
                "ascent_free_chains": count,
            }])
    if all_intervals:
        for x in p.topo_order():
            if x == p.zero():
                continue
            chains = chains_by_top(labeling, x)
            for y in _by_rank(p, chains):
                if y == x:
                    continue
                sub = interval(p, x, y)
                sub_mu = sub.mobius(sub.index(p.payload(y)))
                count = sum(1 for w in chains[y] if is_ascent_free(lp, w))
                if sub_mu != (-1) ** (p.rank(y) - p.rank(x)) * count:
                    return Report("stanley-mobius", False, [{
                        "kind": "mobius-mismatch",
                        "interval": _interval_payloads(labeling, x, y),
                        "mobius": sub_mu,
                        "ascent_free_chains": count,
                    }])
    return Report("stanley-mobius", True)


def oracle_EL_dual(labeling: EdgeLabeling) -> Report:
    p = labeling.poset
    for t, dual in maximal_interval_duals(labeling):
        rep = oracle_EL(dual)
        if not rep.passed:
            rep.details["maximal_interval_top"] = p.payload(t)
            return Report("EL-dual", False, rep.witnesses, rep.details)
    tops = len(p.maximal_elements())
    return Report("EL-dual", True, details={"maximal_intervals_checked": tops})


def oracle_stanley_dual(labeling: EdgeLabeling) -> Report:
    """oracle_stanley on the dual of every maximal interval, once EL-dual holds."""
    if not oracle_EL_dual(labeling).passed:
        raise PreconditionError("stanley_dual_check requires an EL-dual labeling")
    duals = list(maximal_interval_duals(labeling))
    for _, dual in duals:
        rep = oracle_stanley(dual)
        if not rep.passed:
            return rep
    return Report("stanley-mobius", True, details={"maximal_intervals_checked": len(duals)})


def merge_label(lower, upper) -> PairLabel:
    """The label (min A, min B)^u of the u-merge of blocks A, B done by the cover."""
    if not isinstance(lower, (WeightedPartition, PointedPartition)):
        raise PreconditionError("merge labels need weighted or pointed partitions")
    before, after = set(lower.blocks), set(upper.blocks)
    gone, new = sorted(before - after), after - before  # disjoint blocks sort by minimum
    if len(gone) != 2 or len(new) != 1:
        raise NotGradedError("cover does not merge exactly two blocks")
    a, b = gone
    for u, joined in enumerate(lower.joins(a, b)):
        if joined in new:
            return PairLabel(a[0][0], b[0][0], u)
    raise NotGradedError("cover is not a 0- or 1-merge of its two blocks")


def oracle_merge_labeling(p, less=None) -> EdgeLabeling:
    """The merge labeling of p over the label order ``less`` (lambda_w,
    lambda_bullet, lambda_bullet2), or lambda_tilde when ``less`` is None,
    with the label of every cover found by ``merge_label``."""
    objs = p.objects
    ground = [members[0] for members, _ in objs[p.zero()].blocks]
    if less is not None:
        lp = LabelPoset(_pair_labels(ground), less)
        return EdgeLabeling(p, lp, [lp.index(merge_label(objs[a], objs[b])) for a, b in p.covers])
    raw = []
    for a, b in p.covers:
        lab = merge_label(objs[a], objs[b])
        shift = len(ground) - len(objs[a].blocks)
        raw.append((lab.b, (lab.a if lab.u == 0 else lab.b) + shift))
    used = sorted(set(raw))
    lp = LabelPoset.total_order([f"({x},{y})" for x, y in used])
    return EdgeLabeling(p, lp, [used.index(pair) for pair in raw])


# [0, 12~3/~4/~5/~6] and, for each point of the block 123, [123/~4/~5/~6, 123/45~6]
_SINGLES = "/~4/~5/~6"
_TILDE_INTERVALS = [("~1/~2/~3" + _SINGLES, "12~3" + _SINGLES)] + [
    (block + _SINGLES, block + "/45~6") for block in ("~123", "1~23", "12~3")
]


def oracle_tilde_failure(labeler=label_lambda_tilde, intervals=_TILDE_INTERVALS):
    """Why ``labeler`` (the two-coordinate labeling) does not fail inside
    every maximal interval of the pointed poset at n = 6, or None, read off
    the whole poset."""
    p = build_pointed(6)
    labeling = labeler(p)
    for bottom, top in intervals:
        # the rank-two report of [bottom, top] alone counts its increasing chains
        sub = restrict_to(labeling, interval(p, p.index(bottom), p.index(top)))
        report = oracle_rank_two(sub)
        if report.passed or report.witnesses[0].get("count", 1) < 2:
            return f"expected witness interval not found: {(bottom, top)}"
    tops = [p.index(top) for _, top in intervals]
    for t in p.maximal_elements():
        if p.below(t).isdisjoint(tops):
            return f"no witness inside the interval below {p.payload(t)}"
    return None
