"""Span tracer for the benchmark, attached to whitneydual from the outside.

``instrument(tracer)`` wraps the package's public functions and methods
wherever callers look them up: module attributes (including the names other
modules imported), the family, labeling and check-runner tables, the reproduce
criteria list and class attributes.  The package's source is not touched, so
the same tracer measures any commit.  ``restore()`` undoes every wrap.

A span records name, start, end, parent span and operation id.  Self time is
a span's duration minus the time its child spans cover; spans nest strictly
in this single-threaded benchmark, so that is the duration minus the sum of
the children's durations.  Functions called once per element or per chain
(``u_merge``, ``sort_word``, ``tree_valid``, chain enumeration) are counted
and, where timed, aggregated without storing one span per call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

MAX_STORED_SPANS = 200_000

# span name -> (module, attribute) pairs it wraps; the metric is "<name>_s"
TIMED = {
    "partitions.build": [
        ("partitions", "build_weighted"),
        ("partitions", "build_pointed"),
        ("partitions", "build_partition_lattice"),
        ("partitions", "build_spanning_forest_poset"),
        ("partitions", "build_weighted_on"),
        ("partitions", "build_pointed_on"),
    ],
    "partitions.label": [
        ("partitions", "label_lambda_w"),
        ("partitions", "label_lambda_bullet"),
        ("partitions", "label_lambda_bullet2"),
        ("partitions", "label_lambda_tilde"),
    ],
    "labeling.er": [("labeling", "check_ER")],
    "labeling.el": [("labeling", "check_EL")],
    "labeling.rank2": [("labeling", "check_rank_two_switching")],
    "labeling.inj": [("labeling", "check_ascent_free_injectivity")],
    "labeling.ew": [("labeling", "check_EW")],
    "labeling.stanley": [("labeling", "stanley_mobius_check")],
    "labeling.el_dual": [("labeling", "check_EL_dual")],
    "lyndon.build_flyn": [("lyndon", "build_flyn")],
    "operads.tlyn_trees": [("operads", "tlyn_trees")],
    "operads.pbw": [("operads", "pbw_perm_basis"), ("operads", "pbw_com2_basis")],
    "io.serialize": [
        ("io", "poset_to_json"),
        ("io", "labeling_to_json"),
        ("io", "poset_to_dot"),
    ],
    "io.parse": [("io", "poset_from_json"), ("io", "labeling_from_json")],
}

# every span name that yields a "<name>_s" metric, besides the reproduce criteria
SPAN_NAMES = sorted(
    list(TIMED)
    + [
        "poset.init",
        "poset.mobius",
        "poset.interval",
        "whitney_dual.construct_R",
        "lyndon.u_merge",
        "isomorphism.are_isomorphic",
        "cli.self",
    ]
)

COUNTERS = [
    "poset.elements_built",
    "poset.covers_built",
    "poset.chains_enumerated",
    "labeling.chains_by_top_calls",
    "whitney_dual.sort_word_calls",
    "whitney_dual.dual_elements",
    "lyndon.u_merge_calls",
    "lyndon.tree_valid_calls",
    "isomorphism.calls",
    "isomorphism.errors",
]


class Tracer:
    """In-memory spans plus per-pass self times and work counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        self.dropped = 0
        self.op = ""
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 1

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def leave(self, keep: bool = True) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if keep:
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append((span_id, name, start, end, parent, self.op))
            else:
                self.dropped += 1

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self times and counters since the last call, then reset them."""
        self_s, counts = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return self_s, counts


def _span(tracer: Tracer, name: str, fn, keep: bool = True, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(keep)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _count(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counting_chains(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for chain in fn(*args, **kwargs):
            tracer.counts["poset.chains_enumerated"] += 1
            yield chain

    return wrapper


def _chains_by_top(tracer: Tracer, fn):
    # a call that enumerates no chain was answered from the labeling's cache
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = tracer.counts["poset.chains_enumerated"]
        tracer.counts["labeling.chains_by_top_calls"] += 1
        result = fn(*args, **kwargs)
        if tracer.counts["poset.chains_enumerated"] == before:
            tracer.counts["labeling.chain_cache_hits"] += 1
        return result

    return wrapper


def _are_isomorphic(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["isomorphism.calls"] += 1
        tracer.enter("isomorphism.are_isomorphic")
        try:
            return fn(*args, **kwargs)
        except BaseException:
            tracer.counts["isomorphism.errors"] += 1
            raise
        finally:
            tracer.leave()

    return wrapper


class Instrumentation:
    """The wraps applied to one import of the package, and their undo list."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, object, object, bool]] = []
        self.modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("whitneydual.") and mod is not None
        }

    def assign(self, container, key, value, is_attr: bool) -> None:
        if is_attr:
            self._undo.append((container, key, getattr(container, key), True))
            setattr(container, key, value)
        else:
            self._undo.append((container, key, container[key], False))
            container[key] = value

    def replace_everywhere(self, original, wrapped) -> None:
        """Swap ``original`` for ``wrapped`` in every module namespace and table."""
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.assign(mod, attr, wrapped, True)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self.assign(value, key, wrapped, False)

    def wrap_function(self, module: str, attr: str, make) -> None:
        mod = self.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is not None:
            self.replace_everywhere(original, make(original))

    def wrap_method(self, module: str, cls: str, attr: str, make) -> None:
        klass = getattr(self.modules.get(module), cls, None)
        if klass is not None and attr in vars(klass):
            self.assign(klass, attr, make(vars(klass)[attr]), True)

    def restore(self) -> None:
        for container, key, original, is_attr in reversed(self._undo):
            if is_attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self._undo.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the currently imported whitneydual modules; returns the undo handle."""
    ins = Instrumentation()
    t = tracer

    for name, targets in TIMED.items():
        for module, attr in targets:
            ins.wrap_function(module, attr, lambda fn, name=name: _span(t, name, fn))

    def count_poset(args, _result):
        poset = args[0]
        t.counts["poset.elements_built"] += len(poset)
        t.counts["poset.covers_built"] += len(poset.covers)

    def count_dual(_args, result):
        t.counts["whitney_dual.dual_elements"] += len(result)

    def u_merge(fn):
        counted = _count(t, "lyndon.u_merge_calls", fn)
        return _span(t, "lyndon.u_merge", counted, keep=False)

    ins.wrap_function(
        "whitney_dual", "construct_R",
        lambda fn: _span(t, "whitney_dual.construct_R", fn, after=count_dual),
    )
    ins.wrap_function("whitney_dual", "sort_word",
                      lambda fn: _count(t, "whitney_dual.sort_word_calls", fn))
    ins.wrap_function("lyndon", "u_merge", u_merge)
    ins.wrap_function("lyndon", "tree_valid",
                      lambda fn: _count(t, "lyndon.tree_valid_calls", fn))
    ins.wrap_function("isomorphism", "are_isomorphic", lambda fn: _are_isomorphic(t, fn))

    ins.wrap_method("poset", "GradedPoset", "__init__",
                    lambda fn: _span(t, "poset.init", fn, after=count_poset))
    ins.wrap_method("poset", "GradedPoset", "mobius_all",
                    lambda fn: _span(t, "poset.mobius", fn))
    ins.wrap_method("poset", "GradedPoset", "interval",
                    lambda fn: _span(t, "poset.interval", fn))
    ins.wrap_method("poset", "GradedPoset", "chains_from", lambda fn: _counting_chains(t, fn))
    ins.wrap_method("poset", "GradedPoset", "saturated_chains",
                    lambda fn: _counting_chains(t, fn))
    ins.wrap_method("labeling", "EdgeLabeling", "chains_by_top",
                    lambda fn: _chains_by_top(t, fn))

    reproduce = ins.modules.get("reproduce")
    for i, (crit, fn) in enumerate(getattr(reproduce, "CRITERIA", [])):
        ins.assign(reproduce.CRITERIA, i, (crit, _span(t, f"reproduce.{crit}", fn)), False)
    return ins
