"""Benchmark of the whitneydual CLI: four workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One process, one thread, a closed loop with one client: each operation is one
CLI command run in-process through ``whitneydual.cli.main(argv)``, and the
next starts when it returns.  A pass runs the workload's operations once, in
order; passes repeat until ``--seconds`` have gone by (at least one pass).
Every operation is checked for its expected exit code and stdout.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the first
third of the time on untraced passes and the rest on traced passes, prints
the per-layer metrics and the tracing overhead, and writes every span to
``perfbench/_out/``.  The last line of stdout is one JSON object.
``--workload all`` runs each workload in its own process and prints them
all.  The benchmark refuses to run when a ``WHITNEYDUAL_*`` variable is set,
because those change the program's caches and budgets.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

from inputs import write_sets  # noqa: E402
from tracing import COUNTERS, SPAN_NAMES, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, Op, classify, load_expected, pass_ops  # noqa: E402

SETUP_REPEATS = 5
RELABEL_SETS = 8
# Shared hosts run this interpreter at anywhere from about 0.6 to 1 times its
# quiet speed; the speed switches every 50-100 ms and its average drifts over
# tens of seconds, which moved run medians by 20 % or more.  So a fixed piece
# of interpreter work is timed between consecutive operations, and each
# operation's time is reported at the reference speed: wall time x
# REFERENCE_S / (mean of the reference times just before and just after it).
REFERENCE_S = 0.02
END_TO_END = {
    "good_ops_per_s": "1/s",
    "slowest_op_s": "s",
    "ops_ok_share": "share",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
CRITERIA = (
    "whitney-number-formulas", "figure-mobius-values", "labeling-verdict-matrix",
    "stanley-mobius-oracle", "sorting-dual-duality", "forest-chain-bijection",
    "forest-poset-vs-sorting-dual", "nonisomorphism-triple", "whitney-twins",
    "basis-counts-and-monomials", "sort-word-example",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_NAMES}
    units.update({f"reproduce.{c}_s": "s" for c in CRITERIA})
    units.update({name: "count" for name in COUNTERS})
    units["labeling.chain_cache_hit_ratio"] = "share"
    units["trace.overhead"] = "share"
    return units


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class OpResult:
    op: Op
    wall: float
    factor: float  # reference speed over the speed measured around the op
    status: str  # ok, failed or wrong
    code: object

    @property
    def seconds(self) -> float:
        return self.wall * self.factor


@dataclass
class PassResult:
    ops: list[OpResult]
    self_s: dict[str, float]
    counts: dict[str, int]

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def ok(self) -> int:
        return sum(r.status == "ok" for r in self.ops)

    def end_to_end(self) -> dict[str, float]:
        return {
            "good_ops_per_s": self.ok / self.seconds,
            "slowest_op_s": max(r.seconds for r in self.ops),
            "ops_ok_share": self.ok / len(self.ops),
        }


def check_environment() -> None:
    overrides = sorted(k for k in os.environ if k.startswith("WHITNEYDUAL_"))
    if overrides:
        raise BenchError(
            f"unset {', '.join(overrides)}: they change the program's caches and "
            "budgets, so two commits would not be measured alike"
        )
    if not (ROOT / "src" / "whitneydual" / "cli.py").is_file():
        raise BenchError(f"no whitneydual sources under {ROOT / 'src'}")


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment_record() -> dict:
    return {"revision": git_revision(), "python": platform.python_version(),
            "nproc": os.cpu_count()}


def import_package():
    """A fresh import of whitneydual.cli: every package module is executed again."""
    for name in [m for m in sys.modules if m == "whitneydual" or m.startswith("whitneydual.")]:
        del sys.modules[name]
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("whitneydual.cli")


def reference_work() -> int:
    """Fixed interpreter work: arithmetic, tuple and dict building, a sort."""
    total = 0
    for _ in range(10):
        table = {}
        for i in range(3_000):
            total += i * i % 7
            table[(i, i % 13)] = [i, str(i)]
        total += len(sorted(table, key=lambda k: (k[1], -k[0])))
    return total


def reference_seconds() -> float:
    """Mean wall time of two runs of the reference work, after a collection."""
    gc.collect()
    start = time.perf_counter()
    reference_work()
    reference_work()
    return (time.perf_counter() - start) / 2


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program and make the inputs, SETUP_REPEATS times.

    Returns the last import's cli module, the relabelling sets and the
    set-up times at the reference speed; the first is measured from
    interpreter start-up and scaled by the reference time after it only.
    """
    walls, refs = [], []
    start = STARTED
    for _ in range(SETUP_REPEATS):
        cli = import_package()
        sets = write_sets(seed, RELABEL_SETS, workdir) if WORKLOADS[workload] is None else []
        walls.append(time.perf_counter() - start)
        refs.append(reference_seconds())
        start = time.perf_counter()
    brackets = [refs[0]] + [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return cli, sets, [w * REFERENCE_S / r for w, r in zip(walls, brackets)]


def capture(main, argv, tracer: Tracer | None = None) -> tuple[object, str]:
    """Run one CLI command in-process: its exit code, or what it raised, and stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.enter("cli.self")
            try:
                code = main(list(argv))
            finally:
                if tracer is not None:
                    tracer.leave()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # a crash is a measured outcome, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_op(main, op: Op, expected: dict, ref_before: float,
           tracer: Tracer | None = None) -> tuple[OpResult, float]:
    """Run and check one operation; also returns the reference time after it."""
    if tracer is not None:
        tracer.op = op.name
    start = time.perf_counter()
    code, stdout = capture(main, op.argv, tracer)
    wall = time.perf_counter() - start
    status = classify(op, expected, code, stdout)
    ref_after = reference_seconds()
    factor = REFERENCE_S / ((ref_before + ref_after) / 2)
    return OpResult(op, wall, factor, status, code), ref_after


def run_passes(main, workload, sets, expected, seconds, tracer=None) -> list[PassResult]:
    """Passes until ``seconds`` of wall time have gone by, at least one."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    ref = reference_seconds()
    while not passes or time.perf_counter() - start < seconds:
        result = PassResult([], defaultdict(float), Counter())
        for op in pass_ops(workload, sets, len(passes)):
            r, ref = run_op(main, op, expected, ref, tracer)
            result.ops.append(r)
            if tracer is not None:
                self_s, counts = tracer.take()
                for name, value in self_s.items():
                    result.self_s[name] += value * r.factor
                result.counts.update(counts)
        passes.append(result)
    return passes


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def layer_metrics(passes: list[PassResult]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        values = {f"{name}_s": p.self_s.get(name, 0.0) for name in SPAN_NAMES}
        values.update({f"reproduce.{c}_s": p.self_s.get(f"reproduce.{c}", 0.0) for c in CRITERIA})
        values.update({name: p.counts.get(name, 0) for name in COUNTERS})
        calls = p.counts.get("labeling.chains_by_top_calls", 0)
        hits = p.counts.get("labeling.chain_cache_hits", 0)
        values["labeling.chain_cache_hit_ratio"] = hits / calls if calls else 0.0
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    return samples


def describe_ops(passes: list[PassResult]) -> list[str]:
    by_name: dict[str, list[OpResult]] = {}
    for p in passes:
        for r in p.ops:
            by_name.setdefault(r.op.name, []).append(r)
    lines = []
    for name, results in by_name.items():
        med, q1, q3 = summary([r.seconds for r in results])
        wall = summary([r.wall for r in results])[0]
        ok = sum(r.status == "ok" for r in results)
        bad = [r for r in results if r.status != "ok"]
        note = f"  {bad[0].status}: {bad[0].code}" if bad else ""
        lines.append(
            f"op  {name:<60} median {med:.4f} s [q1 {q1:.4f}, q3 {q3:.4f}] (wall {wall:.4f} s)"
            f"  n={len(results)}  ok {ok}/{len(results)}  expect exit {results[0].op.exit}{note}"
        )
    return lines


def run_workload(args) -> tuple[dict, list[str]]:
    check_environment()
    expected = load_expected()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT))
    try:
        cli, sets, setup_times = set_up(args.workload, args.seed, workdir)
        measure_start = time.perf_counter()
        if args.trace:
            untraced = run_passes(cli.main, args.workload, sets, expected, args.seconds / 3)
            tracer = Tracer()
            ins = instrument(tracer)
            try:
                remaining = args.seconds - (time.perf_counter() - measure_start)
                traced = run_passes(cli.main, args.workload, sets, expected, remaining, tracer)
            finally:
                ins.restore()
            measured = untraced + traced
        else:
            measured = run_passes(cli.main, args.workload, sets, expected, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = environment_record()
    lines = [f"env  {json.dumps(env)}",
             f"run  workload={args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} passes={len(measured)}"]
    lines += describe_ops(measured)
    all_ops = [r for p in measured for r in p.ops]
    failed = sum(r.status != "ok" for r in all_ops)
    correct = not any(r.status == "wrong" for r in all_ops)

    metrics: dict[str, dict] = {}
    if args.trace:
        samples = layer_metrics(traced)
        gops_plain = summary([p.end_to_end()["good_ops_per_s"] for p in untraced])[0]
        gops_traced = summary([p.end_to_end()["good_ops_per_s"] for p in traced])[0]
        overhead = 1 - gops_traced / gops_plain if gops_plain else 0.0
        samples["trace.overhead"] = [overhead]
        lines.append(f"trace good_ops_per_s untraced {gops_plain:.6g} traced {gops_traced:.6g} "
                     f"overhead {overhead:.2%} ({len(untraced)} untraced, "
                     f"{len(traced)} traced passes)")
        units = per_layer_units()
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "workload": args.workload, "seed": args.seed,
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": tracer.spans, "spans_dropped": tracer.dropped,
        }))
        lines.append(f"trace spans written to {trace_file.relative_to(ROOT)}")
    else:
        samples = {}
        for p in measured:
            for name, value in p.end_to_end().items():
                samples.setdefault(name, []).append(value)
        samples["peak_rss_mb"] = [peak_rss_mb]
        samples["setup_s"] = setup_times
        units = END_TO_END
    for name, unit in units.items():
        med, q1, q3 = summary(samples[name])
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"metric {name:<48} {med:.6g} {unit}  [q1 {q1:.6g}, q3 {q3:.6g}]  "
                     f"n={len(samples[name])}")
    lines.append(f"check attempted {len(all_ops)} failed {failed} "
                 f"({failed / len(all_ops):.2%} ops_failed) correct {correct}")
    result = {"correct": correct, "attempted": len(all_ops), "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args) -> tuple[dict, list[str]]:
    """Each workload in its own process, so peak memory is per workload."""
    check_environment()
    lines, metrics = [], {}
    result = {"correct": True, "attempted": 0, "failed": 0}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited {proc.returncode}: {proc.stderr}")
        out = proc.stdout.splitlines()
        lines += [f"[{workload}] {line}" for line in out[:-1]]
        sub = json.loads(out[-1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in sub["metrics"].items()})
    result["metrics"] = metrics
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
