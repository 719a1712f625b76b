#!/usr/bin/env python3
"""Run the suite's hand-made mutants, one after another, and report each.

Each entry of ``MUTANTS`` names a mutant, a file under ``src/``, an exact
old text that must occur in that file once, its replacement, and the tests
that must fail once the replacement is made.  For each mutant the runner
copies ``src/`` and ``tests/`` into a temporary directory, patches the copy
and runs ``python -m pytest -x -q`` on the entry's tests there.  A mutant is

- killed when those tests fail,
- survived when they pass,
- stale when its old text does not occur exactly once (the code moved),
- an error when pytest could not run the tests (a test id that is gone).

An entry with an ``equivalent`` reason is a mutant that changes no
behaviour, so its tests must pass; the reason says why.  The run fails
(exit 1) when a mutant is stale or an error, when a mutant without a reason
survives, or when a mutant with one is killed.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/whitneydual/
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None


MUTANTS = [
    Mutant(
        "rank-two-admits-two-increasing-words", "labeling.py",
        "if len(increasing[y]) != 1:", "if not increasing[y]:",
        ("tests/test_labeling.py::test_rank_two_switching_counts_both_words",),
    ),
    Mutant(
        "rank-two-admits-two-switched-words", "labeling.py",
        "if switched != 1:", "if not switched:",
        ("tests/test_labeling.py::test_rank_two_switching_counts_both_words",),
    ),
    Mutant(
        "tilde-check-takes-one-increasing-chain", "reproduce.py",
        "if len(increasing.get(p.index(top), [])) < 2:",
        "if len(increasing.get(p.index(top), [])) < 1:",
        ("tests/test_acceptance.py::"
         "test_labeling_matrix_fails_with_an_er_labeling_in_place_of_the_tilde_one",),
    ),
    Mutant(
        "sorting-dual-copies-its-keys", "whitney_dual.py",
        "lambda key: key,", "lambda key: (key[0], key[1]),",
        ("tests/test_poset.py::test_sorting_dual_elements_are_the_closures_keys",),
    ),
    Mutant(
        "forest-merge-copies-bool-parents", "partitions.py",
        "parents = list(itemgetter(*self)(_LABEL_INT))", "parents = list(self)",
        ("tests/test_partitions.py::"
         "test_forest_merges_write_a_bool_entry_as_the_label_it_equals",),
    ),
    Mutant(
        "forest-merge-keeps-bool-roots", "partitions.py",
        "trees = [(_LABEL_INT[root], roots.index(root))", "trees = [(root, roots.index(root))",
        ("tests/test_partitions.py::"
         "test_forest_merges_write_a_bool_entry_as_the_label_it_equals",),
    ),
    Mutant(
        "slide-skips-the-spine-check", "lyndon.py",
        "    if merged.rules & need != need:\n"
        "        raise InternalGuardError(\"slide ended with the flavor's conditions unmet\")\n",
        "",
        ("tests/test_lyndon.py",),
        equivalent="only the new vertex's own rules can fail during a slide: each step "
        "mends those of the vertex above it, and the vertices above that keep their "
        "children's valencies, colors and right children, so the check never fires",
    ),
    Mutant(
        "saturated-chains-bound-by-rank", "poset.py",
        "for z in reversed(self._up[chain[-1]]) if z in target]",
        "for z in reversed(self._up[chain[-1]]) if self._rank[z] <= self._rank[y]]",
        ("tests/test_poset.py", "tests/test_labeling.py"),
        equivalent="a chain that leaves the down-set of y never reaches y, and one "
        "bounded by y's rank stops there, so the same chains come out in the same "
        "order; the down-set pruning only saves work",
    ),
]


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' or 'error'."""
    source = (ROOT / "src" / "whitneydual" / mutant.path).read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / "src" / "whitneydual" / mutant.path).write_text(
            source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # pytest's exit codes: 0 all passed, 1 a test failed, 2 a test file failed to import
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode, "error")


def main() -> int:
    bad = 0
    for m in MUTANTS:
        outcome = run(m)
        expected = "survived" if m.equivalent else "killed"
        bad += outcome != expected
        note = f"  equivalent: {m.equivalent}" if m.equivalent else ""
        print(f"{outcome:8s} {'ok ' if outcome == expected else 'BAD'} {m.name}{note}", flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
