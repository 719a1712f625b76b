"""Command-line front end.

Subcommands: build, whitney, verify, dual, flyn, isocheck, pbw, counts,
reproduce-paper.  Output is deterministic: identical invocations produce
byte-identical output.  Exit codes: 0 all requested verifications pass;
failing checks map to 10=ER, 11=EL, 12=rank-two switching, 13=ascent-free
injectivity, 14=EW, 20=duality, 21=isomorphism, 22=comparison; 3 = limit or
validation error, 4 = time budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

from .config import Limits
from .errors import PreconditionError, TimeBudgetExceededError, WhitneyDualError
from .io import labeling_to_json, poset_from_json, poset_to_dot, poset_to_json
from .isomorphism import are_isomorphic
from .labeling import (
    Report,
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    check_ascent_free_injectivity,
    check_rank_two_switching,
)
from .lyndon import FLAVORS, build_flyn
from .operads import pbw_com2_basis, pbw_perm_basis, tlyn_trees
from .partitions import FAMILY_BUILDERS, LABELING_BUILDERS
from .poset import is_whitney_dual
from .reproduce import run_all
from .whitney_dual import construct_R, dual_element_json

EXIT_CODES = {
    "ER": 10,
    "EL": 11,
    "EL-dual": 11,
    "rank-two-switching": 12,
    "ascent-free-injectivity": 13,
    "EW": 14,
    "duality": 20,
    "isomorphism": 21,
    "comparison": 22,
}

CHECK_RUNNERS = {
    "er": check_ER,
    "el": check_EL,
    "rank2": check_rank_two_switching,
    "inj": check_ascent_free_injectivity,
    "ew": check_EW,
    "el-dual": check_EL_dual,
}

LABELING_FAMILIES = {
    "lambda_w": "weighted",
    "lambda_bullet": "pointed",
    "lambda_bullet2": "pointed",
    "lambda_bullet_star": "pointed",
    "lambda_tilde": "pointed",
}


@dataclass
class RunConfig:
    family: str = ""
    n: int = 0
    labeling: Optional[str] = None
    flavor: Optional[str] = None
    limits: Limits = field(default_factory=Limits.from_env)
    output: str = "text"
    deadline: Optional[float] = None

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceededError("time budget exceeded")


def _limits(args: argparse.Namespace) -> Limits:
    limits = Limits.from_env()
    if getattr(args, "limit_nodes", None):
        limits = replace(limits, iso_node_budget=args.limit_nodes)
    return limits


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        family=getattr(args, "family", ""),
        n=getattr(args, "n", 0),
        labeling=getattr(args, "labeling", None),
        flavor=getattr(args, "flavor", None),
        limits=_limits(args),
        output="json" if getattr(args, "json", False) else "text",
    )
    if getattr(args, "limit_seconds", None):
        cfg.deadline = time.monotonic() + args.limit_seconds
    return cfg


def _build_family(cfg: RunConfig):
    builder = FAMILY_BUILDERS[cfg.family]
    return builder(cfg.n, cfg.limits)


def _build_labeling(cfg: RunConfig, poset):
    if cfg.labeling is None:
        raise PreconditionError("no labeling named")
    name = "lambda_bullet" if cfg.labeling == "lambda_bullet_star" else cfg.labeling
    return LABELING_BUILDERS[name](poset)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    cfg = _config(args)
    poset = _build_family(cfg)
    labeling = None
    if args.labeling:
        if LABELING_FAMILIES[args.labeling] != cfg.family:
            print(f"labeling {args.labeling} is not defined on family {cfg.family}",
                  file=sys.stderr)
            return 3
        cfg.labeling = args.labeling
        labeling = _build_labeling(cfg, poset)
    if args.dot:
        _emit(poset_to_dot(poset, labeling), args.out)
    elif labeling is not None and not args.dot:
        doc = json.loads(poset_to_json(poset))
        doc["labeling"] = json.loads(labeling_to_json(labeling))
        _emit(json.dumps(doc), args.out)
    else:
        _emit(poset_to_json(poset), args.out)
    return 0


def cmd_whitney(args: argparse.Namespace) -> int:
    cfg = _config(args)
    poset = _build_family(cfg)
    first, second = poset.whitney_first(), poset.whitney_second()
    if cfg.output == "json":
        _emit(json.dumps({"family": cfg.family, "n": cfg.n,
                          "whitney_first": list(first),
                          "whitney_second": list(second)}), args.out)
    else:
        _emit(f"w ({cfg.family}, n={cfg.n}): {first}\nW ({cfg.family}, n={cfg.n}): {second}",
              args.out)
    return 0


def _default_checks(labeling_name: str) -> list[str]:
    if labeling_name == "lambda_bullet_star":
        return ["el-dual"]
    return ["er", "el", "rank2", "inj", "ew"]


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if LABELING_FAMILIES[args.labeling] != cfg.family:
        print(f"labeling {args.labeling} is not defined on family {cfg.family}",
              file=sys.stderr)
        return 3
    poset = _build_family(cfg)
    cfg.check_deadline()
    labeling = _build_labeling(cfg, poset)
    wanted = args.checks.split(",") if args.checks else _default_checks(args.labeling)
    if args.labeling == "lambda_bullet_star":
        wanted = ["el-dual" if w in ("el", "el-dual") else w for w in wanted]
    reports: list[Report] = []
    for name in wanted:
        if name not in CHECK_RUNNERS:
            print(f"unknown check {name!r}; choose from {sorted(CHECK_RUNNERS)}",
                  file=sys.stderr)
            return 3
        reports.append(CHECK_RUNNERS[name](labeling))
        cfg.check_deadline()
    if cfg.output == "json":
        _emit(json.dumps([json.loads(r.to_json()) for r in reports]), args.out)
    else:
        _emit("\n".join(str(r) for r in reports), args.out)
    for r in reports:
        if not r.passed:
            return EXIT_CODES.get(r.check, 1)
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if LABELING_FAMILIES[args.labeling] != cfg.family:
        print(f"labeling {args.labeling} is not defined on family {cfg.family}",
              file=sys.stderr)
        return 3
    poset = _build_family(cfg)
    labeling = _build_labeling(cfg, poset)
    dual = construct_R(poset, labeling, bypass_ew_check=args.bypass_ew_check)
    verdict = is_whitney_dual(poset, dual)
    if args.dot:
        _emit(poset_to_dot(dual), args.out)
    elif args.out or cfg.output == "json":
        doc = json.loads(poset_to_json(dual))
        doc["dual_elements"] = [
            dual_element_json(poset, labeling, el) for el in dual.objects
        ]
        doc["whitney_dual_verdict"] = verdict
        _emit(json.dumps(doc), args.out)
    else:
        _emit(
            f"|R| = {len(dual)}, W = {dual.whitney_second()}\n"
            f"whitney dual of source: {verdict}",
            args.out,
        )
    return 0 if verdict else EXIT_CODES["duality"]


def cmd_flyn(args: argparse.Namespace) -> int:
    cfg = _config(args)
    forest_poset = build_flyn(cfg.n, args.flavor, cfg.limits)
    lines = [f"|FLyn| = {len(forest_poset)}, W = {forest_poset.whitney_second()}"]
    code = 0
    if args.compare:
        cfg.family = "pointed" if args.flavor == "pointed" else "weighted"
        cfg.labeling = "lambda_bullet" if args.flavor == "pointed" else "lambda_w"
        base = _build_family(cfg)
        cfg.check_deadline()
        labeling = _build_labeling(cfg, base)
        dual = construct_R(base, labeling)
        iso = are_isomorphic(forest_poset, dual, cfg.limits.iso_node_budget, cfg.deadline)
        lines.append(f"isomorphic to sorting dual: {iso is not None}")
        if iso is None:
            code = EXIT_CODES["comparison"]
    if cfg.output == "json":
        doc = json.loads(poset_to_json(forest_poset))
        if args.compare:
            doc["isomorphic_to_sorting_dual"] = code == 0
        _emit(json.dumps(doc), args.out)
    elif args.dot:
        _emit(poset_to_dot(forest_poset), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return code


def cmd_isocheck(args: argparse.Namespace) -> int:
    cfg = _config(args)
    with open(args.file_a) as fh:
        p = poset_from_json(fh.read())
    with open(args.file_b) as fh:
        q = poset_from_json(fh.read())
    mapping = are_isomorphic(p, q, cfg.limits.iso_node_budget, cfg.deadline)
    if getattr(args, "json", False):
        doc = {"isomorphic": mapping is not None}
        if mapping is not None:
            doc["bijection"] = {p.payload(a): q.payload(b) for a, b in mapping.items()}
        _emit(json.dumps(doc), args.out)
    else:
        _emit("isomorphic" if mapping is not None else "not isomorphic", args.out)
    return 0 if mapping is not None else EXIT_CODES["isomorphism"]


def cmd_pbw(args: argparse.Namespace) -> int:
    basis = (
        pbw_perm_basis(args.n, machine=args.machine)
        if args.operad == "perm"
        else pbw_com2_basis(args.n, machine=args.machine)
    )
    _emit("\n".join(str(m) for m in basis), args.out)
    return 0


def cmd_counts(args: argparse.Namespace) -> int:
    cfg = _config(args)
    per_p = {
        str(p): len(trees) for p, trees in tlyn_trees(args.n, args.flavor, cfg.limits).items()
    }
    doc = {
        "n": args.n,
        "flavor": args.flavor,
        "per_p": per_p,
        "total": sum(per_p.values()),
    }
    _emit(json.dumps(doc), args.out)
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    results = run_all(max_n=args.max_n)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = [name for name, ok, _ in results if not ok]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; failing: {', '.join(failed)}" if failed else "")
    )
    _emit("\n".join(lines), getattr(args, "out", None))
    return 0 if not failed else 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--limit-nodes", type=int, help="isomorphism search node budget")
    sub.add_argument("--limit-seconds", type=float, help="soft wall-clock budget")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitneydual",
        description="Partition posets, edge-labeling axioms, and Whitney duals.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    families = sorted(FAMILY_BUILDERS)
    labelings = sorted(LABELING_FAMILIES)

    b = subs.add_parser("build", help="construct a poset family member")
    b.add_argument("family", choices=families)
    b.add_argument("n", type=int)
    b.add_argument("--dot", action="store_true", help="emit Graphviz instead of JSON")
    b.add_argument("--labeling", choices=labelings, help="attach edge labels")
    _add_common(b)
    b.set_defaults(fn=cmd_build)

    w = subs.add_parser("whitney", help="Whitney numbers of both kinds")
    w.add_argument("family", choices=families)
    w.add_argument("n", type=int)
    _add_common(w)
    w.set_defaults(fn=cmd_whitney)

    v = subs.add_parser("verify", help="run labeling-axiom checks")
    v.add_argument("family", choices=families)
    v.add_argument("labeling", choices=labelings)
    v.add_argument("n", type=int)
    v.add_argument("--checks", help="comma list from er,el,rank2,inj,ew,el-dual")
    _add_common(v)
    v.set_defaults(fn=cmd_verify)

    d = subs.add_parser("dual", help="build the sorting Whitney dual")
    d.add_argument("family", choices=families)
    d.add_argument("labeling", choices=labelings)
    d.add_argument("n", type=int)
    d.add_argument("--dot", action="store_true")
    d.add_argument("--bypass-ew-check", action="store_true",
                   help="build even from a non-EW labeling (unvalidated output)")
    _add_common(d)
    d.set_defaults(fn=cmd_dual)

    f = subs.add_parser("flyn", help="build a Lyndon forest poset")
    f.add_argument("flavor", choices=sorted(FLAVORS))
    f.add_argument("n", type=int)
    f.add_argument("--compare", action="store_true",
                   help="check isomorphism against the sorting dual")
    f.add_argument("--dot", action="store_true")
    _add_common(f)
    f.set_defaults(fn=cmd_flyn)

    i = subs.add_parser("isocheck", help="exact isomorphism test on two poset files")
    i.add_argument("file_a")
    i.add_argument("file_b")
    _add_common(i)
    i.set_defaults(fn=cmd_isocheck)

    p = subs.add_parser("pbw", help="emit a left-comb basis, one monomial per line")
    p.add_argument("operad", choices=["perm", "com2"])
    p.add_argument("n", type=int)
    p.add_argument("--machine", action="store_true", help="ascii product symbols")
    _add_common(p)
    p.set_defaults(fn=cmd_pbw)

    c = subs.add_parser("counts", help="Lyndon tree census by chain top")
    c.add_argument("n", type=int)
    c.add_argument("--flavor", choices=sorted(FLAVORS), default="pointed")
    _add_common(c)
    c.set_defaults(fn=cmd_counts)

    r = subs.add_parser("reproduce-paper", help="run the full verification table")
    r.add_argument("--max-n", type=int, default=5)
    _add_common(r)
    r.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TimeBudgetExceededError:
        print("time budget exceeded", file=sys.stderr)
        return 4
    except WhitneyDualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
