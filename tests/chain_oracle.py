"""Reference implementations of the order relation and of the labeling checks.

The order oracle keeps one reachability bitmask per element, as wide as the
poset, exactly as ``GradedPoset`` did before its order queries walked the
Hasse diagram.  ``chains_from`` lists every saturated chain from one
element, up to any endpoint; the labeling oracles walk them from every
bottom, exactly as the package did before its checks became interval dynamic
programs.  Both are slow or large and serve only as the independent oracle
that the package must match at small n.  ``closed_label_poset`` builds a
label order from generating pairs by transitive closure; ``rank_level`` and
``upper_filter`` are the poset queries that only the tests make.
"""

from __future__ import annotations

from whitneydual.errors import PreconditionError
from whitneydual.labeling import (
    EdgeLabeling,
    LabelPoset,
    Ordering,
    Report,
    check_rank_two_switching,
    dual_labeling,
    is_ascent_free,
    is_increasing,
    lex_compare,
)


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


def upper_filter(p, x: int):
    """The principal upper filter {y : y >= x} as a poset with minimum x."""
    members, stack = {x}, [x]
    while stack:
        for y in p.upper_covers(stack.pop()):
            if y not in members:
                members.add(y)
                stack.append(y)
    return p._induced(sorted(members))


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


def oracle_EW(labeling: EdgeLabeling) -> Report:
    parts = [oracle_ER(labeling), check_rank_two_switching(labeling),
             oracle_injectivity(labeling)]
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
                sub = p.interval(x, y)
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
    tops = p.maximal_elements()
    zero = p.zero()
    for t in sorted(tops):
        sub = p.interval(zero, t)
        rep = oracle_EL(dual_labeling(labeling.restrict_to(sub)))
        if not rep.passed:
            rep.details["maximal_interval_top"] = p.payload(t)
            return Report("EL-dual", False, rep.witnesses, rep.details)
    return Report("EL-dual", True, details={"maximal_intervals_checked": len(tops)})
