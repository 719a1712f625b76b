"""Command-line front end.

Subcommands: build, whitney, verify, dual, flyn, isocheck, pbw, counts,
reproduce-paper.  Output is deterministic: identical invocations produce
byte-identical output.  Exit codes: 0 all requested verifications pass;
failing checks map to 10=ER, 11=EL, 12=rank-two switching, 13=ascent-free
injectivity, 14=EW, 20=duality, 21=isomorphism, 22=comparison; 1 = a
failing reproduce-paper criterion; 3 = limit, validation, file or memory
error, 4 = time budget exceeded.  Each subcommand
takes ``--out`` and only those of ``--json``, ``--dot``, ``--limit-nodes``
and ``--limit-seconds`` that it reads; ``--json`` and ``--dot`` exclude each
other.  ``main`` turns the limits into one ``Limits``.  It builds the parser
once, on its first call, not at import.
Only ``isocheck`` searches for an isomorphism and reads ``--limit-nodes``:
``flyn --compare`` walks the merge tags of the covers instead.
``main`` runs the chosen command with Python's cyclic garbage collector
paused (``poset._collector_paused``) and gives the caller back the
collector as it was, on return or raise: nothing the package allocates
forms a reference cycle, so a collection during a command finds nothing
to free.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Optional

from .config import Limits
from .errors import PreconditionError, TimeBudgetExceededError, WhitneyDualError
from .io import labeling_to_dict, poset_from_json, poset_to_dict, poset_to_dot
from .isomorphism import are_isomorphic
from .labeling import (
    check_EL,
    check_EL_dual,
    check_ER,
    check_EW,
    check_ascent_free_injectivity,
    check_rank_two_switching,
)
from .lyndon import FLAVORS, POINTED, build_flyn, flyn_to_sorting_dual
from .operads import pbw_com2_basis, pbw_perm_basis, tlyn_trees
from .partitions import FAMILY_BUILDERS, LABELING_BUILDERS, label_lambda_bullet, label_lambda_w
from .poset import _collector_paused, is_whitney_dual
from .reproduce import run_all
from .whitney_dual import construct_R

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


def _labeled(family: str, n: int, name: Optional[str], limits: Limits):
    """The poset of ``family`` at n and, if one is named, its labeling.

    A labeling of another family is refused before anything is built.
    """
    if name is not None and LABELING_FAMILIES[name] != family:
        raise PreconditionError(f"labeling {name} is not defined on family {family}")
    poset = FAMILY_BUILDERS[family](n, limits)
    if name is None:
        return poset, None
    builder = LABELING_BUILDERS["lambda_bullet" if name == "lambda_bullet_star" else name]
    return poset, builder(poset)


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text``, newline-terminated, to the file ``out`` or to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args: argparse.Namespace, limits: Limits) -> int:
    poset, labeling = _labeled(args.family, args.n, args.labeling, limits)
    if args.dot:
        _emit(poset_to_dot(poset, labeling), args.out)
    else:
        doc = poset_to_dict(poset)
        if labeling is not None:
            doc["labeling"] = labeling_to_dict(labeling)
        _emit(json.dumps(doc), args.out)
    return 0


def cmd_whitney(args: argparse.Namespace, limits: Limits) -> int:
    poset = FAMILY_BUILDERS[args.family](args.n, limits)
    first, second = poset.whitney_first(), poset.whitney_second()
    if args.json:
        _emit(json.dumps({"family": args.family, "n": args.n,
                          "whitney_first": list(first),
                          "whitney_second": list(second)}), args.out)
    else:
        head = f"({args.family}, n={args.n})"
        _emit(f"w {head}: {first}\nW {head}: {second}", args.out)
    return 0


def _default_checks(labeling_name: str) -> list[str]:
    if labeling_name == "lambda_bullet_star":
        return ["el-dual"]
    return ["er", "el", "rank2", "inj", "ew"]


def cmd_verify(args: argparse.Namespace, limits: Limits) -> int:
    wanted = _default_checks(args.labeling) if args.checks is None else args.checks.split(",")
    for name in wanted:
        if name not in CHECK_RUNNERS:
            raise PreconditionError(
                f"unknown check {name!r}; choose from {sorted(CHECK_RUNNERS)}"
            )
    if args.labeling == "lambda_bullet_star":
        # lambda_bullet_star is lambda_bullet read through its dual labeling:
        # its EL check is the EL-dual check, and no other check is defined
        for name in wanted:
            if name not in ("el", "el-dual"):
                raise PreconditionError(
                    f"check {name!r} is not defined on lambda_bullet_star; use el-dual"
                )
        wanted = ["el-dual" for _ in wanted]
    _, labeling = _labeled(args.family, args.n, args.labeling, limits)
    reports = [CHECK_RUNNERS[name](labeling, limits=limits) for name in wanted]
    if args.json:
        _emit(json.dumps([r.to_dict() for r in reports], sort_keys=True), args.out)
    else:
        _emit("\n".join(str(r) for r in reports), args.out)
    for r in reports:
        if not r.passed:
            return EXIT_CODES.get(r.check, 1)
    return 0


def cmd_dual(args: argparse.Namespace, limits: Limits) -> int:
    poset, labeling = _labeled(args.family, args.n, args.labeling, limits)
    dual = construct_R(poset, labeling, args.bypass_ew_check, limits)
    verdict = is_whitney_dual(poset, dual)
    if args.dot:
        _emit(poset_to_dot(dual), args.out)
    elif args.json:
        doc = poset_to_dict(dual)
        names = labeling.label_poset.names
        doc["dual_elements"] = [
            {"top": poset.payload(top), "word": [names[i] for i in word]}
            for top, word in dual.objects
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


def cmd_flyn(args: argparse.Namespace, limits: Limits) -> int:
    forest_poset = build_flyn(args.n, args.flavor, limits)
    lines = [f"|FLyn| = {len(forest_poset)}, W = {forest_poset.whitney_second()}"]
    code = 0
    if args.compare:
        # each flavor's sorting dual comes from the partition family of that name
        base = FAMILY_BUILDERS[args.flavor](args.n, limits)
        labeling = (label_lambda_bullet if args.flavor == POINTED else label_lambda_w)(base)
        dual = construct_R(base, labeling, limits=limits)
        iso = flyn_to_sorting_dual(forest_poset, dual, labeling, limits)
        lines.append(f"isomorphic to sorting dual: {iso is not None}")
        if iso is None:
            code = EXIT_CODES["comparison"]
    if args.json:
        doc = poset_to_dict(forest_poset)
        if args.compare:
            doc["isomorphic_to_sorting_dual"] = code == 0
        _emit(json.dumps(doc), args.out)
    elif args.dot:
        _emit(poset_to_dot(forest_poset), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return code


def cmd_isocheck(args: argparse.Namespace, limits: Limits) -> int:
    with open(args.file_a, "rb") as fh:
        p = poset_from_json(fh.read())
    with open(args.file_b, "rb") as fh:
        q = poset_from_json(fh.read())
    mapping = are_isomorphic(p, q, limits)
    if args.json:
        doc = {"isomorphic": mapping is not None}
        if mapping is not None:
            doc["bijection"] = {p.payload(a): q.payload(b) for a, b in mapping.items()}
        _emit(json.dumps(doc), args.out)
    else:
        _emit("isomorphic" if mapping is not None else "not isomorphic", args.out)
    return 0 if mapping is not None else EXIT_CODES["isomorphism"]


def cmd_pbw(args: argparse.Namespace, limits: Limits) -> int:
    basis_of = pbw_perm_basis if args.operad == "perm" else pbw_com2_basis
    basis = basis_of(args.n, machine=args.machine, limits=limits)
    _emit("\n".join(basis), args.out)
    return 0


def cmd_counts(args: argparse.Namespace, limits: Limits) -> int:
    per_p = {
        str(p): len(trees) for p, trees in tlyn_trees(args.n, args.flavor).items()
    }
    doc = {
        "n": args.n,
        "flavor": args.flavor,
        "per_p": per_p,
        "total": sum(per_p.values()),
    }
    _emit(json.dumps(doc), args.out)
    return 0


def cmd_reproduce(args: argparse.Namespace, limits: Limits) -> int:
    results = run_all(args.max_n, limits)
    width = max(len(name) for name, _, _ in results)
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = [name for name, ok, _ in results if not ok]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; failing: {', '.join(failed)}" if failed else "")
    )
    _emit("\n".join(lines), args.out)
    return 0 if not failed else 1


def seconds(text: str) -> float:
    """``float`` less NaN, which no deadline check passes; ``inf`` is no budget."""
    if math.isnan(value := float(text)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number of seconds")
    return value


OPTIONS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--dot": dict(action="store_true", help="emit the Hasse diagram as Graphviz"),
    "--limit-nodes": dict(type=int, default=Limits.iso_node_budget,
                          help="isomorphism search node budget"),
    "--limit-seconds": dict(type=seconds, help="wall-clock budget; exit 4 once it is spent"),
}


def _add_options(sub: argparse.ArgumentParser, *names: str) -> None:
    """``--out`` and the named OPTIONS, each read by the subcommand; ``--json``
    and ``--dot`` exclude each other."""
    sub.add_argument("--out", help="write output to a file instead of stdout")
    output = sub.add_mutually_exclusive_group()
    for name in names:
        (output if name in ("--json", "--dot") else sub).add_argument(name, **OPTIONS[name])


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of every command, built on the first call."""
    parser = argparse.ArgumentParser(
        prog="whitneydual",
        description="Partition posets, edge-labeling axioms, and Whitney duals.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    families = sorted(FAMILY_BUILDERS)
    labelings = sorted(LABELING_BUILDERS)  # lambda_bullet_star is verify-only

    b = subs.add_parser("build", help="construct a poset family member")
    b.add_argument("family", choices=families)
    b.add_argument("n", type=int)
    b.add_argument("--labeling", choices=labelings, help="attach edge labels")
    _add_options(b, "--dot", "--limit-seconds")
    b.set_defaults(fn=cmd_build)

    w = subs.add_parser("whitney", help="Whitney numbers of both kinds")
    w.add_argument("family", choices=families)
    w.add_argument("n", type=int)
    _add_options(w, "--json", "--limit-seconds")
    w.set_defaults(fn=cmd_whitney)

    v = subs.add_parser("verify", help="run labeling-axiom checks")
    v.add_argument("family", choices=families)
    v.add_argument("labeling", choices=sorted(LABELING_FAMILIES))
    v.add_argument("n", type=int)
    v.add_argument("--checks", help="comma list from er,el,rank2,inj,ew,el-dual")
    _add_options(v, "--json", "--limit-seconds")
    v.set_defaults(fn=cmd_verify)

    d = subs.add_parser("dual", help="build the sorting Whitney dual")
    d.add_argument("family", choices=families)
    d.add_argument("labeling", choices=labelings)
    d.add_argument("n", type=int)
    d.add_argument("--bypass-ew-check", action="store_true",
                   help="build even from a non-EW labeling (unvalidated output)")
    _add_options(d, "--json", "--dot", "--limit-seconds")
    d.set_defaults(fn=cmd_dual)

    f = subs.add_parser("flyn", help="build a Lyndon forest poset")
    f.add_argument("flavor", choices=sorted(FLAVORS))
    f.add_argument("n", type=int)
    f.add_argument("--compare", action="store_true",
                   help="check isomorphism against the sorting dual")
    _add_options(f, "--json", "--dot", "--limit-seconds")
    f.set_defaults(fn=cmd_flyn)

    i = subs.add_parser("isocheck", help="exact isomorphism test on two poset files")
    i.add_argument("file_a")
    i.add_argument("file_b")
    _add_options(i, "--json", "--limit-nodes", "--limit-seconds")
    i.set_defaults(fn=cmd_isocheck)

    p = subs.add_parser("pbw", help="emit a left-comb basis, one monomial per line")
    p.add_argument("operad", choices=["perm", "com2"])
    p.add_argument("n", type=int)
    p.add_argument("--machine", action="store_true", help="ascii product symbols")
    _add_options(p, "--limit-seconds")
    p.set_defaults(fn=cmd_pbw)

    c = subs.add_parser("counts", help="Lyndon tree census by chain top")
    c.add_argument("n", type=int)
    c.add_argument("--flavor", choices=sorted(FLAVORS), default="pointed")
    _add_options(c)
    c.set_defaults(fn=cmd_counts)

    r = subs.add_parser("reproduce-paper", help="run the full verification table")
    r.add_argument("--max-n", type=int, default=5)
    _add_options(r)
    r.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    seconds = getattr(args, "limit_seconds", None)
    limits = Limits(getattr(args, "limit_nodes", Limits.iso_node_budget),
                    None if seconds is None else time.monotonic() + seconds)
    try:
        with _collector_paused():
            return args.fn(args, limits)
    except TimeBudgetExceededError:
        print("time budget exceeded", file=sys.stderr)
        return 4
    except (WhitneyDualError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
