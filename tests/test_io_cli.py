"""Serialization formats and the command-line interface."""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from whitneydual import (
    LimitExceededError, NotGradedError, PreconditionError, build_pointed, build_weighted,
)
from whitneydual import cli, isomorphism, reproduce
from whitneydual.cli import main
from whitneydual.io import (
    labeling_to_dict,
    poset_from_json,
    poset_to_dict,
    poset_to_dot,
)
from whitneydual.partitions import FAMILY_BUILDERS

from chain_oracle import closed_label_poset


def test_poset_json_roundtrip(weighted, pointed, sf, flyn):
    for p in (weighted[3], pointed[4], sf[3], flyn[(3, "pointed")]):
        q = poset_from_json(json.dumps(poset_to_dict(p)))
        assert q.payloads_ == p.payloads_
        assert q.covers == p.covers
        assert [q.rank(x) for x in q.elements()] == [p.rank(x) for x in p.elements()]


def test_poset_json_rejects_bad_input():
    with pytest.raises(NotGradedError):
        poset_from_json(json.dumps({"elements": ["a", "b", "c"],
                                    "covers": [[0, 1], [1, 2], [0, 2]]}))
    with pytest.raises(NotGradedError):
        poset_from_json(json.dumps({"elements": ["a"]}))


def test_labeling_json_roundtrip(lw):
    labeling = lw[3]
    text = json.dumps(labeling_to_dict(labeling))
    doc = json.loads(text)
    assert set(doc) == {"label_poset", "labels_of_covers"}
    lp = doc["label_poset"]
    back = closed_label_poset(lp["labels"], lp["less"])
    assert back.names == labeling.label_poset.names
    assert back.less_masks == labeling.label_poset.less_masks
    assert doc["labels_of_covers"] == [[k, lab] for k, lab in enumerate(labeling.cover_labels)]


def test_dot_output(weighted, lw):
    dot = poset_to_dot(weighted[3], lw[3])
    assert dot.startswith("digraph poset {")
    assert "rankdir=BT" in dot
    assert '"1^0/2^0/3^0"' in dot
    assert 'label="(1,2)^0"' in dot
    assert dot.count("->") == len(weighted[3].covers)
    with pytest.raises(PreconditionError):
        poset_to_dot(weighted[4], lw[3])


# -- CLI ------------------------------------------------------------------------


def test_cli_build_json(capsys):
    assert main(["build", "weighted", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == 10


def test_cli_build_dot(capsys):
    assert main(["build", "sf", "3", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_cli_build_deterministic(capsys):
    main(["build", "pointed", "3", "--labeling", "lambda_bullet"])
    first = capsys.readouterr().out
    main(["build", "pointed", "3", "--labeling", "lambda_bullet"])
    assert capsys.readouterr().out == first


def test_cli_whitney(capsys):
    assert main(["whitney", "pointed", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["whitney_first"] == [1, -6, 9]
    assert doc["whitney_second"] == [1, 6, 3]


def test_cli_whitney_partition(capsys):
    assert main(["whitney", "partition", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["whitney_first"] == [1, -1]
    assert doc["whitney_second"] == [1, 1]


def test_cli_verify_pass(capsys):
    assert main(["verify", "pointed", "lambda_bullet", "3", "--checks", "ew"]) == 0
    assert "[pass] EW" in capsys.readouterr().out


def test_cli_verify_el_failure_code(capsys):
    code = main(["verify", "pointed", "lambda_bullet", "3", "--checks", "el"])
    assert code == 11
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_tilde(capsys):
    code = main(["verify", "pointed", "lambda_tilde", "3", "--checks", "er", "--json"])
    assert code == 10
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["verdict"] == "fail"
    assert doc[0]["witnesses"][0]["interval"] == ["~1/~2/~3", "12~3"]


def test_cli_verify_bullet_star(capsys):
    assert main(["verify", "pointed", "lambda_bullet_star", "3"]) == 0
    assert "EL-dual" in capsys.readouterr().out
    # one maximal element: still the EL-dual check, not EL's report
    assert main(["verify", "pointed", "lambda_bullet_star", "1", "--checks", "el"]) == 0
    assert capsys.readouterr().out == "[pass] EL-dual\n    maximal_intervals_checked: 1\n"


@pytest.mark.parametrize("labeling, stdout", [
    ("lambda_bullet2", (
        "[FAIL] EL-dual\n"
        "    witness: {'kind': 'not-lex-first', 'interval': ['12~3', '~1/~2/~3'], "
        "'increasing': '(1,3)^0(1,2)^0', 'competitor': '(1,2)^1(1,3)^0', "
        "'relation': 'incomparable'}\n"
        "    maximal_interval_top: 12~3\n"
    )),
    ("lambda_tilde", (
        "[FAIL] EL-dual\n"
        "    witness: {'kind': 'increasing-chain-count', 'interval': ['12~3', '~1/~2/~3'], "
        "'count': 2, 'words': ['(3,2)(2,1)', '(3,2)(2,2)']}\n"
        "    failed_at: ER\n"
        "    maximal_interval_top: 12~3\n"
    )),
], ids=["lambda_bullet2", "lambda_tilde"])
def test_cli_verify_el_dual_failure(labeling, stdout, capsys):
    # the downward sweep's witness: [t, y] read from the maximal element down
    assert main(["verify", "pointed", labeling, "3", "--checks", "el-dual"]) == 11
    assert capsys.readouterr().out == stdout


def test_cli_verify_el_dual_failure_json(capsys):
    assert main(["verify", "pointed", "lambda_tilde", "3", "--checks", "el-dual", "--json"]) == 11
    assert capsys.readouterr().out == (
        '[{"check": "EL-dual", "failed_at": "ER", "maximal_interval_top": "12~3", '
        '"verdict": "fail", "witnesses": [{"count": 2, "interval": ["12~3", "~1/~2/~3"], '
        '"kind": "increasing-chain-count", "words": ["(3,2)(2,1)", "(3,2)(2,2)"]}]}]\n'
    )


@pytest.mark.parametrize("checks", [["--checks="], ["--checks", ""], ["--checks", ","]])
def test_cli_verify_refuses_an_empty_check(checks, capsys):
    # an empty list names the check '', it does not fall back to the defaults
    assert main(["verify", "pointed", "lambda_bullet", "3", *checks]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown check ''" in captured.err


@pytest.mark.parametrize("check", ["er", "rank2", "inj", "ew", "el,er"])
def test_cli_verify_bullet_star_refuses_other_checks(check, capsys):
    assert main(["verify", "pointed", "lambda_bullet_star", "3", "--checks", check]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not defined on lambda_bullet_star" in captured.err


@pytest.mark.parametrize("command", [
    "build pointed 3 --labeling lambda_bullet_star",
    "dual pointed lambda_bullet_star 3",
])
def test_cli_bullet_star_is_verify_only(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "invalid choice: 'lambda_bullet_star'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "flyn pointed 2 --json --dot",
    "flyn weighted 2 --dot --json",
    "dual pointed lambda_bullet 2 --json --dot",
    "dual weighted lambda_w 2 --dot --json",
])
def test_cli_json_and_dot_exclude_each_other(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_cli_verify_family_mismatch(capsys):
    assert main(["verify", "weighted", "lambda_bullet", "3"]) == 3


def test_cli_build_family_mismatch(capsys):
    assert main(["build", "partition", "3", "--labeling", "lambda_w"]) == 3
    assert "not defined on family" in capsys.readouterr().err


def test_cli_dual(capsys):
    assert main(["dual", "weighted", "lambda_w", "3"]) == 0
    out = capsys.readouterr().out
    assert "whitney dual of source: True" in out


def test_cli_dual_out_writes_what_stdout_would(tmp_path, capsys):
    target = tmp_path / "dual.txt"
    assert main(["dual", "weighted", "lambda_w", "3", "--out", str(target)]) == 0
    assert target.read_text() == "|R| = 16, W = (1, 6, 9)\nwhitney dual of source: True\n"
    assert main(["dual", "weighted", "lambda_w", "3", "--json", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["whitney_dual_verdict"] is True
    assert capsys.readouterr().out == ""


def test_cli_dual_json_wire_format(capsys):
    assert main(["dual", "weighted", "lambda_w", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["whitney_dual_verdict"] is True
    els = doc["dual_elements"]
    assert {"top": "1^0/2^0/3^0", "word": []} in els
    assert {"top": "123^0", "word": ["(1,3)^0", "(1,2)^0"]} in els
    assert len(els) == len(doc["elements"])


def test_cli_dual_bypass(capsys):
    code = main(["dual", "pointed", "lambda_tilde", "3", "--bypass-ew-check", "--json"])
    assert code in (0, 20)
    doc = json.loads(capsys.readouterr().out)
    assert any(s.endswith("[unvalidated]") for s in doc["elements"])


def test_cli_dual_refusal_names_the_bypass_flag(capsys):
    # lambda_tilde fails EW at n = 4; the refusal names the CLI's flag
    assert main(["dual", "pointed", "lambda_tilde", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: labeling is not an EW-labeling")
    assert "--bypass-ew-check" in captured.err


def test_cli_flyn_compare(capsys):
    assert main(["flyn", "pointed", "3", "--compare"]) == 0
    out = capsys.readouterr().out
    assert "isomorphic to sorting dual: True" in out


@pytest.mark.parametrize("flavor", ["pointed", "weighted"])
def test_cli_flyn_compare_n5(flavor, capsys, monkeypatch):
    # 1296 elements each: the merge tags give the map, with no search
    def no_search(*args, **kwargs):
        raise AssertionError("flyn --compare searched for an isomorphism")

    monkeypatch.setattr(isomorphism, "are_isomorphic", no_search)
    monkeypatch.setattr(cli, "are_isomorphic", no_search)
    assert main(["flyn", flavor, "5", "--compare"]) == 0
    assert capsys.readouterr().out == (
        "|FLyn| = 1296, W = (1, 20, 150, 500, 625)\n"
        "isomorphic to sorting dual: True\n"
    )


def test_cli_flyn_compare_labels_by_the_flavors_partition_labeling(capsys, monkeypatch):
    # lambda_bullet on the pointed family, lambda_w on the weighted one;
    # each refuses the other family
    for flavor, name, other in (("pointed", "label_lambda_bullet", "weighted"),
                                ("weighted", "label_lambda_w", "pointed")):
        labeler, bases = getattr(cli, name), []

        def recorded(p, labeler=labeler):
            bases.append(p.payloads_)
            return labeler(p)

        monkeypatch.setattr(cli, name, recorded)
        assert main(["flyn", flavor, "4", "--compare"]) == 0
        monkeypatch.undo()
        assert capsys.readouterr().out.endswith("isomorphic to sorting dual: True\n")
        assert bases == [FAMILY_BUILDERS[flavor](4).payloads_]
        with pytest.raises(PreconditionError, match="needs a poset of"):
            labeler(FAMILY_BUILDERS[other](4))


def test_cli_isocheck(tmp_path, capsys):
    from whitneydual import build_flyn

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(poset_to_dict(build_flyn(3, "weighted"))))
    b.write_text(json.dumps(poset_to_dict(build_flyn(3, "pointed"))))
    assert main(["isocheck", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "isomorphic"
    c = tmp_path / "c.json"
    c.write_text(json.dumps(poset_to_dict(build_weighted(3))))
    assert main(["isocheck", str(a), str(c)]) == 21
    assert capsys.readouterr().out.strip() == "not isomorphic"


def _relabelled_json(poset, seed: int) -> str:
    """The poset with element indices and cover order shuffled by the seed."""
    rng = random.Random(seed)
    new_index = list(poset.elements())
    rng.shuffle(new_index)
    elements = [""] * len(poset)
    for old, new in enumerate(new_index):
        elements[new] = poset.payload(old)
    covers = [[new_index[a], new_index[b]] for a, b in poset.covers]
    rng.shuffle(covers)
    return json.dumps({"elements": elements, "covers": covers})


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", ["pointed", "weighted"])
def test_cli_isocheck_relabelled_partition_posets(family, seed, tmp_path, capsys):
    # 41 elements with S_4 symmetry: a handful of search nodes, far below 100
    poset = FAMILY_BUILDERS[family](4)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(poset_to_dict(poset)))
    b.write_text(_relabelled_json(poset, seed))
    assert main(["isocheck", str(a), str(b), "--limit-nodes", "100", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["isomorphic"] is True
    q = poset_from_json(b.read_text())
    image = {poset.index(x): q.index(y) for x, y in doc["bijection"].items()}
    assert sorted(image) == list(poset.elements())
    assert sorted(image.values()) == list(q.elements())
    assert {(image[x], image[y]) for x, y in poset.covers} == set(q.covers)


def test_cli_isocheck_time_budget(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(poset_to_dict(build_weighted(4))))
    assert main(["isocheck", str(a), str(a), "--limit-seconds", "1e-9"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "time budget exceeded"


@pytest.mark.parametrize("command", [
    "build pointed 5",
    "whitney pointed 5",
    "dual pointed lambda_bullet 5",
    "flyn pointed 5",
])
def test_cli_limit_seconds_stops_the_build(command, capsys):
    # the closure checks the deadline once per element, so every command
    # that builds a poset stops inside its first build
    assert main(command.split() + ["--limit-seconds", "1e-9"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "time budget exceeded"


def test_cli_limit_seconds_nan_is_a_usage_error(tmp_path, capsys):
    # a NaN deadline never passes, so it would silently remove the budget
    a = tmp_path / "a.json"
    a.write_text(json.dumps(poset_to_dict(build_weighted(3))))
    with pytest.raises(SystemExit) as exc:
        main(["isocheck", str(a), str(a), "--limit-seconds", "nan"])
    assert exc.value.code == 2
    assert "--limit-seconds" in capsys.readouterr().err
    assert main(["isocheck", str(a), str(a), "--limit-seconds", "inf"]) == 0


@pytest.mark.parametrize("flag, code", [("--limit-nodes", 3), ("--limit-seconds", 4)])
def test_cli_zero_budgets_are_honoured(flag, code, tmp_path, capsys):
    # the pointed poset at n = 4 has automorphisms, so its search needs a node
    a = tmp_path / "a.json"
    a.write_text(json.dumps(poset_to_dict(build_pointed(4))))
    assert main(["isocheck", str(a), str(a), flag, "0"]) == code
    assert capsys.readouterr().out == ""


def test_cli_isocheck_refuses_a_repeated_cover(tmp_path, capsys):
    # kept once, the repeat would read as the one-cover poset, "isomorphic"
    once = tmp_path / "once.json"
    once.write_text('{"elements": ["a", "b"], "covers": [[0, 1]]}')
    twice = tmp_path / "twice.json"
    twice.write_text('{"elements": ["a", "b"], "covers": [[0, 1], [0, 1]]}')
    assert main(["isocheck", str(twice), str(once)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cover (0,1) is given twice" in captured.err
    with pytest.raises(NotGradedError, match="given twice"):
        poset_from_json(twice.read_text())


@pytest.mark.parametrize("content", [
    None,  # no such file
    "{not json",
    '{"elements": ["a", "b"], "covers": [[0, 1, 2]]}',
    '{"elements": ["a", "b"], "covers": [["x", 1]]}',
    '{"elements": ["a", "b"], "covers": 5}',
    b"\xff\xfe\xfd",
    # coerced, each of these would read as a poset isomorphic to the good one
    '{"elements": ["a", "b", "c"], "covers": [[0.5, 1], [0, 2]]}',
    '{"elements": {"a": 0, "b": 1, "c": 2}, "covers": [[0, 1], [0, 2]]}',
    '{"elements": ["a", "b", "c"], "covers": [[true, 0], [true, 2]]}',
    '{"elements": ["a", "b", "c"], "covers": [[false, 1], [0, 2]]}',
    '{"elements": [1, null, "c"], "covers": [[0, 1], [0, 2]]}',
])
def test_cli_isocheck_bad_input_is_a_validation_error(content, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(poset_to_dict(build_weighted(2))))
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    assert main(["isocheck", str(bad), str(good)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_cli_unwritable_out_is_a_validation_error(tmp_path, capsys):
    assert main(["build", "weighted", "3", "--out", str(tmp_path / "no" / "x.json")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_out_of_memory_is_a_validation_error(monkeypatch, capsys):
    def exhausted(n, limits):
        raise MemoryError

    monkeypatch.setitem(FAMILY_BUILDERS, "weighted", exhausted)
    assert main(["whitney", "weighted", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: out of memory"


@pytest.mark.parametrize("command", [
    "pbw perm 3 --json",
    "pbw perm 3 --limit-nodes 5",
    "whitney pointed 3 --limit-nodes 5",
    "build weighted 3 --json",
    "build weighted 3 --limit-nodes 5",
    "verify pointed lambda_bullet 3 --limit-nodes 5",
    "dual pointed lambda_bullet 3 --limit-nodes 5",
    "flyn pointed 3 --limit-nodes 5",
    "counts 3 --json",
    "counts 3 --limit-seconds 1",
    "reproduce-paper --limit-seconds 1",
])
def test_cli_rejects_flags_the_command_does_not_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_pbw(capsys):
    assert main(["pbw", "perm", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert main(["pbw", "com2", "2", "--machine"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["1o02", "1o12"]


def test_cli_pbw_deep_combs(capsys):
    # a left comb on n leaves is n - 1 vertices deep; the bases write it as
    # text, with no tree (theta of such a comb: test_operads.py)
    assert main(["pbw", "com2", "1200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(set(lines)) == 1200


@pytest.mark.parametrize("operad", ["perm", "com2"])
def test_cli_pbw_honours_limit_seconds(operad, capsys, monkeypatch):
    # a clock that ticks one second per reading: the run reads it once for
    # its deadline, then once per monomial, and stops on the sixth monomial
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: float(next(ticks)))
    assert main(["pbw", operad, "1200", "--limit-seconds", "5"]) == 4
    assert next(ticks) == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "time budget exceeded"


def test_cli_counts(capsys):
    assert main(["counts", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"n": 3, "flavor": "pointed", "per_p": {"1": 3, "2": 3, "3": 3},
                   "total": 9}


def test_cli_limit_error(capsys):
    assert main(["build", "weighted", "9"]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_out_file(tmp_path):
    target = tmp_path / "poset.json"
    assert main(["build", "weighted", "2", "--out", str(target)]) == 0
    doc = json.loads(target.read_text())
    assert len(doc["elements"]) == 3


@pytest.mark.parametrize("max_n", ["0", "-2", "8"])
def test_cli_reproduce_rejects_empty_scope(max_n, monkeypatch, capsys):
    # the scope is refused before any poset is built
    built = []

    def builder(n, *args):
        built.append(n)
        raise LimitExceededError("built")

    for name in ("build_weighted", "build_pointed", "build_spanning_forest_poset",
                 "build_flyn"):
        monkeypatch.setattr(reproduce, name, builder)
    assert main(["reproduce-paper", "--max-n", max_n]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == f"error: n={max_n} outside allowed range 1..7\n"


def test_cli_reproduce_smoke(capsys):
    # max-n 2 keeps this a fast smoke test; the full run is test_acceptance
    assert main(["reproduce-paper", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "criteria passed" in out
