"""Nothing the package allocates forms a reference cycle, and the collector
pause of ``cli.main`` gives the caller back the collector as it was.

``cli.main`` and ``poset.closure`` run with Python's cyclic garbage
collector paused (``poset._collector_paused``).  That is safe only while
reference counting alone frees everything the package makes.  Under
``gc.DEBUG_SAVEALL`` a collection keeps every object it finds unreachable in
``gc.garbage``, so a cycle of the package's own, and whatever hangs off it,
shows there as objects of its classes or as its functions.
"""

from __future__ import annotations

import gc
import types

import pytest

from whitneydual import (
    are_isomorphic,
    build_flyn,
    build_pointed,
    build_weighted,
    check_EL,
    cli,
    construct_R,
    flyn_to_sorting_dual,
    label_lambda_bullet,
    label_lambda_w,
    phi_reader,
    stanley_mobius_check,
    tlyn_trees,
)
from whitneydual.errors import LimitExceededError, TimeBudgetExceededError
from whitneydual.labeling import stanley_dual_check
from whitneydual.reproduce import run_all


def _owner(obj) -> tuple[str, str]:
    """The module and qualified name of ``obj`` if it is a function or a
    frame, else of its class."""
    if isinstance(obj, types.FunctionType):
        return obj.__module__ or "", obj.__qualname__
    if isinstance(obj, types.FrameType):
        return obj.f_globals.get("__name__", ""), obj.f_code.co_name
    return type(obj).__module__, type(obj).__qualname__


def _package_garbage(run) -> list[str]:
    """The package's objects and functions that ``run`` leaves for the cyclic
    collector to free, by qualified name."""
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        owners = map(_owner, gc.garbage)
        return sorted({f"{m}.{q}" for m, q in owners if m.partition(".")[0] == "whitneydual"})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_no_command_leaves_a_reference_cycle(tmp_path, capsys):
    a, b, c = (str(tmp_path / f"{name}.json") for name in "abc")
    commands = [
        (["build", "pointed", "3", "--out", a], 0),
        (["build", "pointed", "3", "--out", b], 0),
        (["flyn", "weighted", "3", "--json", "--out", c], 0),
        (["build", "weighted", "3"], 0),
        (["build", "pointed", "3", "--labeling", "lambda_bullet"], 0),
        (["build", "sf", "3", "--dot"], 0),
        (["whitney", "pointed", "3", "--json"], 0),
        (["verify", "weighted", "lambda_w", "3"], 0),
        (["verify", "pointed", "lambda_bullet", "3"], 11),
        (["verify", "pointed", "lambda_tilde", "3", "--checks", "er,inj", "--json"], 10),
        (["verify", "pointed", "lambda_bullet_star", "3"], 0),
        (["dual", "pointed", "lambda_bullet", "3", "--json"], 0),
        (["dual", "weighted", "lambda_w", "3", "--dot"], 0),
        (["flyn", "pointed", "4", "--compare"], 0),
        (["isocheck", a, b, "--json"], 0),
        (["isocheck", a, c], 21),
        (["pbw", "perm", "3"], 0),
        (["pbw", "com2", "3", "--machine"], 0),
        (["counts", "4"], 0),
        (["counts", "4", "--flavor", "weighted"], 0),
        (["reproduce-paper", "--max-n", "3"], 0),
        (["build", "pointed", "8"], 3),
        (["isocheck", a, str(tmp_path / "missing.json")], 3),
        (["isocheck", a, b, "--limit-nodes", "1"], 3),
        (["flyn", "pointed", "5", "--limit-seconds", "0"], 4),
        (["verify", "pointed", "lambda_bullet", "4", "--limit-seconds", "0"], 4),
    ]
    codes = []
    assert _package_garbage(lambda: codes.extend(cli.main(argv) for argv, _ in commands)) == []
    capsys.readouterr()
    assert codes == [code for _, code in commands]


def test_no_library_call_leaves_a_reference_cycle():
    def run():
        for flavor in ("pointed", "weighted"):
            assert sum(map(len, tlyn_trees(5, flavor).values())) == 5 ** 4
        lw, lb = label_lambda_w(build_weighted(4)), label_lambda_bullet(build_pointed(4))
        assert check_EL(lw).passed and not check_EL(lb).passed
        assert stanley_mobius_check(lw).passed and stanley_mobius_check(lb).passed
        assert stanley_dual_check(lb).passed
        dual = construct_R(lb.poset, lb)
        flyn = build_flyn(4, "pointed")
        assert are_isomorphic(flyn, dual) is not None
        assert are_isomorphic(flyn, build_flyn(4, "weighted")) is None
        assert flyn_to_sorting_dual(flyn, dual, lb) is not None
        read = phi_reader("pointed")
        for forest in flyn.objects:
            read(forest)
        assert all(ok for _, ok, _ in run_all(4))

    assert _package_garbage(run) == []


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raised, code", [
    (None, 0),
    (LimitExceededError("n too large"), 3),
    (TimeBudgetExceededError("time budget exceeded"), 4),
    (RuntimeError("escapes"), RuntimeError),
])
def test_main_pauses_the_collector_and_gives_it_back(monkeypatch, capsys, enabled, raised, code):
    paused = []

    def tlyn_trees(n, flavor):
        paused.append(not gc.isenabled())
        if raised is not None:
            raise raised
        return {}

    monkeypatch.setattr(cli, "tlyn_trees", tlyn_trees)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(code, int):
            assert cli.main(["counts", "4"]) == code
        else:
            with pytest.raises(code):
                cli.main(["counts", "4"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True]
    capsys.readouterr()


def test_main_leaves_no_cyclic_garbage(capsys):
    # the first call builds the parser; the calls after it reuse it, and
    # leave nothing that only the cyclic collector would free
    commands = [["counts", "3"], ["pbw", "perm", "3"], ["whitney", "pointed", "3", "--json"]]
    assert cli.main(commands[0]) == 0
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert [cli.main(argv) for argv in commands] == [0, 0, 0]
        assert gc.collect() == 0
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
