"""The four workloads: CLI commands with their expected verdicts and output.

Each operation is one ``whitneydual`` command.  Its expected exit code is the
paper's verdict; ``expected.json`` holds the sha256 of its stdout as recorded
at the first benchmarked commit (``record_expected.py``).  Commands that the
paper says succeed but that commit could not complete carry a ``derived``
stdout instead: the CLI's output format filled in with the paper's counts.
They keep their expected verdict and count as failed until the program can
answer them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# exit codes with which the CLI gives no verdict: usage, limit or validation
# error, time budget exceeded
NO_ANSWER_CODES = (2, 3, 4)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    exit: int  # the paper's verdict, as the CLI's exit code
    derived: Optional[str] = None  # stdout the first benchmarked commit could not produce


def _op(cmd: str, exit: int, derived: Optional[str] = None) -> Op:
    return Op(cmd, tuple(cmd.split()), exit, derived)


FLYN5 = "|FLyn| = 1296, W = (1, 20, 150, 500, 625)\nisomorphic to sorting dual: True\n"

AXIOMS = (
    _op("dual pointed lambda_bullet 6", 0),  # lambda_bullet is EW; R_lambda is a Whitney dual
    _op("verify weighted lambda_w 6 --checks el", 0),  # lambda_w is EL
    _op("verify pointed lambda_bullet 6 --checks el", 11),  # lambda_bullet is not EL, n >= 3
    _op("verify pointed lambda_tilde 6 --checks er", 10),  # lambda_tilde is not ER
)

CLOSURE = (
    _op("build weighted 6", 0),
    _op("build pointed 6 --labeling lambda_bullet", 0),
    _op("build sf 6", 0),
    _op("whitney pointed 6", 0),
    _op("flyn pointed 6", 0),
    _op("flyn weighted 6", 0),
    _op("verify pointed lambda_bullet2 6 --checks rank2", 12),  # no rank-two switching, n >= 3
)

REPRODUCE = (_op("reproduce-paper", 0),)  # all 11 criteria hold

# FLyn_n is isomorphic to R_lambda for both flavours
COMPARE_FIXED = (
    _op("flyn pointed 4 --compare", 0),
    _op("flyn weighted 4 --compare", 0),
    _op("flyn pointed 5 --compare", 0, FLYN5),
    _op("flyn weighted 5 --compare", 0, FLYN5),
)

# (op name, first file, second file, expected exit, derived stdout): a poset is
# isomorphic to a relabelled copy of itself and R_lambda(4) to FLyn_4, while
# the two forest flavours differ at n = 4
ISOCHECKS = (
    ("isocheck pointed4 relabelled_pointed4", "pointed4", "relabelled_pointed4", 0,
     "isomorphic\n"),
    ("isocheck weighted4 relabelled_weighted4", "weighted4", "relabelled_weighted4", 0,
     "isomorphic\n"),
    ("isocheck relabelled_dual_pointed4 relabelled_flyn_pointed4",
     "relabelled_dual_pointed4", "relabelled_flyn_pointed4", 0, None),
    ("isocheck relabelled_flyn_weighted4 relabelled_flyn_pointed4",
     "relabelled_flyn_weighted4", "relabelled_flyn_pointed4", 21, None),
)


def compare_ops(files: dict[str, str]) -> list[Op]:
    ops = list(COMPARE_FIXED)
    for name, a, b, exit, derived in ISOCHECKS:
        ops.append(Op(name, ("isocheck", files[a], files[b]), exit, derived))
    return ops


# compare is the only seeded workload: its isocheck files come from the seed
WORKLOADS = {"axioms": AXIOMS, "closure": CLOSURE, "reproduce": REPRODUCE, "compare": None}


def pass_ops(workload: str, sets: list[dict[str, str]], i: int) -> list[Op]:
    """The operations of pass i; compare cycles through its relabelling sets."""
    ops = WORKLOADS[workload]
    return list(ops) if ops is not None else compare_ops(sets[i % len(sets)])


def load_expected() -> dict[str, dict]:
    return json.loads(EXPECTED_FILE.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def classify(op: Op, expected: dict[str, dict], code, stdout: str) -> str:
    """'ok', 'failed' (raised or gave no verdict) or 'wrong' (a different answer).

    ``code`` is the exit code, or the exception the command raised.
    """
    if not isinstance(code, int) or (code in NO_ANSWER_CODES and code != op.exit):
        return "failed"
    if code != op.exit or sha256(stdout) != expected[op.name]["stdout_sha256"]:
        return "wrong"
    return "ok"
