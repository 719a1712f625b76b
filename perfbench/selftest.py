"""The benchmark's own tests; kept out of the repository's test suite.

    python3 -m pytest perfbench/selftest.py -q

They check the oracle against the paper's verdicts, the relabelling
generator, the tracer's self-time rule and the environment guard, and that
two traced passes of every workload give identical work counters.
"""

from __future__ import annotations

import json
import random

import pytest

import run
from inputs import FIXTURES, load_fixtures, relabel, write_sets
from tracing import Tracer, instrument
from workloads import WORKLOADS, Op, classify, load_expected, pass_ops, sha256

# The paper's verdicts, stated independently of the workload tables.
# labeling -> (family it lives on, checks it fails for n >= 3)
PAPER_FAILS = {
    "lambda_w": ("weighted", set()),
    "lambda_bullet": ("pointed", {"el"}),  # EW but not EL
    "lambda_bullet2": ("pointed", {"rank2", "ew"}),  # EL but not EW
    "lambda_tilde": ("pointed", {"er", "el", "ew"}),  # not even ER
}
# the CLI's documented exit code for a failed check or comparison
FAIL_CODE = {"er": 10, "el": 11, "rank2": 12, "inj": 13, "ew": 14,
             "isomorphism": 21, "comparison": 22}
# isocheck pairs: isomorphic unless they are the two forest flavours at n = 4
NON_ISOMORPHIC = {frozenset({"relabelled_flyn_weighted4", "relabelled_flyn_pointed4"})}


def paper_exit(argv: tuple[str, ...]) -> int:
    cmd = argv[0]
    if cmd in ("build", "whitney", "reproduce-paper"):
        return 0
    if cmd == "verify":
        family, labeling, n = argv[1], argv[2], int(argv[3])
        checks = argv[argv.index("--checks") + 1].split(",")
        home, fails = PAPER_FAILS[labeling]
        assert family == home and n >= 3
        failing = [c for c in checks if c in fails]
        return FAIL_CODE[failing[0]] if failing else 0
    if cmd == "dual":
        _, fails = PAPER_FAILS[argv[2]]
        return 0 if "ew" not in fails else 3
    if cmd == "flyn":
        return 0  # FLyn_n is isomorphic to R_lambda for both flavours
    if cmd == "isocheck":
        pair = frozenset(a.rsplit("/", 1)[-1].removesuffix(".json") for a in argv[1:3])
        return FAIL_CODE["isomorphism"] if pair in NON_ISOMORPHIC else 0
    raise AssertionError(f"no paper verdict for {argv}")


def every_op(tmp_path) -> list[Op]:
    files = write_sets(0, 1, tmp_path)[0]
    return [op for w in WORKLOADS for op in pass_ops(w, [files], 0)]


def test_expected_verdicts_match_the_paper(tmp_path):
    for op in every_op(tmp_path):
        assert op.exit == paper_exit(op.argv), op.name


def test_every_op_has_a_recorded_or_derived_stdout(tmp_path):
    expected = load_expected()
    ops = every_op(tmp_path)
    assert sorted(expected) == sorted(op.name for op in ops)
    for op in ops:
        entry = expected[op.name]
        if entry["source"] == "derived":
            assert op.derived is not None and entry["stdout_sha256"] == sha256(op.derived)


def test_metric_lists_match_the_benchmark_file():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_classify_separates_failures_from_wrong_answers():
    expected = {"x": {"stdout_sha256": sha256("yes\n")}}
    op = Op("x", ("x",), 11)
    assert classify(op, expected, 11, "yes\n") == "ok"
    assert classify(op, expected, "RecursionError: depth", "") == "failed"
    assert classify(op, expected, 3, "") == "failed"
    assert classify(op, expected, 0, "yes\n") == "wrong"
    assert classify(op, expected, 11, "no\n") == "wrong"


def _cover_pairs(doc: dict) -> set[tuple[str, str]]:
    el = doc["elements"]
    return {(el[a], el[b]) for a, b in doc["covers"]}


def test_relabelling_is_seeded_and_keeps_the_poset(tmp_path):
    for name, doc in load_fixtures().items():
        copy = relabel(doc, random.Random(5))
        assert copy == relabel(doc, random.Random(5))
        assert copy["elements"] != doc["elements"], name
        assert _cover_pairs(copy) == _cover_pairs(doc)
    first = write_sets(7, 2, tmp_path / "a")
    again = write_sets(7, 2, tmp_path / "b")
    other = write_sets(8, 1, tmp_path / "c")
    read = lambda paths, key: json.loads(open(paths[key]).read())
    for key in (f"relabelled_{name}" for name in FIXTURES):
        assert read(first[0], key) == read(again[0], key)
        assert read(first[0], key) != read(first[1], key)
        assert read(first[0], key) != read(other[0], key)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.leave()
    tracer.leave()
    (inner_id, _, s_in, e_in, parent_in, _), (outer_id, _, s_out, e_out, parent_out, _) = tracer.spans
    assert parent_in == outer_id and parent_out == 0
    assert tracer.self_s["inner"] == pytest.approx(e_in - s_in)
    assert tracer.self_s["outer"] == pytest.approx((e_out - s_out) - (e_in - s_in))


def test_environment_overrides_are_refused(monkeypatch, capsys):
    monkeypatch.setenv("WHITNEYDUAL_CHAIN_CACHE", "10")
    assert run.main(["--workload", "reproduce", "--seconds", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "WHITNEYDUAL_CHAIN_CACHE" in err


REPEATED_COUNTERS = (
    "poset.elements_built", "poset.covers_built", "poset.chains_enumerated",
    "labeling.chains_by_top_calls", "whitney_dual.sort_word_calls",
    "whitney_dual.dual_elements", "lyndon.u_merge_calls", "lyndon.tree_valid_calls",
    "isomorphism.calls", "isomorphism.errors",
)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counters_repeat_exactly(workload, tmp_path):
    cli = run.import_package()
    sets = write_sets(0, 1, tmp_path)
    expected = load_expected()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        ins = instrument(tracer)
        try:
            (one_pass,) = run.run_passes(cli.main, workload, sets, expected, 0, tracer)
        finally:
            ins.restore()
        assert not any(r.status == "wrong" for r in one_pass.ops)
        counts.append({name: one_pass.counts.get(name, 0) for name in REPEATED_COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["poset.elements_built"] > 0
    if workload == "axioms":
        assert counts[0]["poset.chains_enumerated"] > 0
    if workload == "closure":
        assert counts[0]["poset.chains_enumerated"] == 0
        assert counts[0]["lyndon.u_merge_calls"] > 0
