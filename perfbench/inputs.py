"""Seeded relabelled poset files for the ``compare`` workload.

The fixtures in ``data/`` are the CLI's own output at n = 4, reduced to the
``elements`` and ``covers`` keys:

    pointed4        whitneydual build pointed 4
    weighted4       whitneydual build weighted 4
    dual_pointed4   whitneydual dual pointed lambda_bullet 4 --json
    flyn_pointed4   whitneydual flyn pointed 4 --json
    flyn_weighted4  whitneydual flyn weighted 4 --json

Keeping them frozen means that two commits receive identical files for the
same seed even if one of them changes its build order.  A relabelled copy
shuffles the element order, remaps every cover to the new indices and
shuffles the cover list; payload strings are kept.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = ("pointed4", "weighted4", "dual_pointed4", "flyn_pointed4", "flyn_weighted4")


def load_fixtures() -> dict[str, dict]:
    return {name: json.loads((DATA / f"{name}.json").read_text()) for name in FIXTURES}


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same poset with shuffled element indices and cover order."""
    n = len(doc["elements"])
    new_index = list(range(n))
    rng.shuffle(new_index)
    elements = [""] * n
    for old, new in enumerate(new_index):
        elements[new] = doc["elements"][old]
    covers = [[new_index[a], new_index[b]] for a, b in doc["covers"]]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def write_sets(seed: int, count: int, out: Path) -> list[dict[str, str]]:
    """Write ``count`` independent relabelling sets; return each set's paths.

    Set k is drawn from its own generator seeded with "<seed>:<k>", so a pass
    that uses set k sees the same files for a given seed on every commit.
    Each set holds the original pointed and weighted posets and one
    relabelled copy of every fixture.
    """
    fixtures = load_fixtures()
    sets = []
    for k in range(count):
        rng = random.Random(f"{seed}:{k}")
        folder = out / f"set{k}"
        folder.mkdir(parents=True, exist_ok=True)
        docs = {name: fixtures[name] for name in ("pointed4", "weighted4")}
        docs.update({f"relabelled_{name}": relabel(fixtures[name], rng) for name in FIXTURES})
        paths = {}
        for name, doc in docs.items():
            path = folder / f"{name}.json"
            path.write_text(json.dumps(doc, ensure_ascii=False))
            paths[name] = str(path)
        sets.append(paths)
    return sets
