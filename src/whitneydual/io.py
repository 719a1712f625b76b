"""JSON and DOT serialization for posets and edge labelings.

Poset JSON:    {"elements": [str, ...], "covers": [[i, j], ...]}
Labeling JSON: {"label_poset": {"labels": [...], "less": [[i, j], ...]},
                "labels_of_covers": [[coverIndex, labelIndex], ...]}
Cover indices refer to positions in the poset's sorted cover list.  Posets
are read and written; labelings are only written.  Ranks are recomputed on
load; non-graded or non-reduced input, a cover listed twice, JSON that
does not parse and documents of the wrong shape raise ``NotGradedError``,
and nothing is coerced.  The ``*_to_dict`` functions build each document once, so that a
caller can add keys before it is dumped.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Optional, Union

from .errors import NotGradedError, PreconditionError
from .labeling import EdgeLabeling
from .poset import GradedPoset


def poset_to_dict(p: GradedPoset) -> dict:
    """The poset JSON document; ``covers`` is the poset's own tuple of cover
    pairs, which ``json`` writes as arrays."""
    return {"elements": list(p.payloads_), "covers": p.covers}


def poset_from_json(text: Union[str, bytes]) -> GradedPoset:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise NotGradedError(f"poset JSON does not parse: {exc!r}") from None
    if not isinstance(data, dict):
        raise NotGradedError("poset JSON must be an object")
    elements, covers = data.get("elements"), data.get("covers")
    if not (isinstance(elements, list) and all(isinstance(e, str) for e in elements)):
        raise NotGradedError("poset JSON needs 'elements' as a list of strings")
    # GradedPoset refuses entries that are not ints, JSON true and false included
    if not (isinstance(covers, list) and all(type(c) is list and len(c) == 2 for c in covers)):
        raise NotGradedError("poset JSON needs 'covers' as a list of pairs")
    return GradedPoset(elements, [tuple(c) for c in covers])


def labeling_to_dict(labeling: EdgeLabeling) -> dict:
    lp = labeling.label_poset
    less = [[i, j] for i in range(len(lp)) for j in range(len(lp)) if lp.less(i, j)]
    return {
        "label_poset": {"labels": list(lp.names), "less": less},
        "labels_of_covers": [[k, lab] for k, lab in enumerate(labeling.cover_labels)],
    }


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_to_dot(p: GradedPoset, labeling: Optional[EdgeLabeling] = None) -> str:
    """Graphviz digraph, one node per element, covers drawn upward."""
    if labeling is not None and labeling.poset is not p:
        raise PreconditionError("labeling must belong to the given poset")
    lines = ["digraph poset {", "  rankdir=BT;"]
    for x in p.elements():
        lines.append(f"  n{x} [label={_quote(p.payload(x))}];")
    attrs = repeat("") if labeling is None else (
        f" [label={_quote(labeling.label_poset.names[lab])}]" for lab in labeling.cover_labels
    )
    for (a, b), attr in zip(p.covers, attrs):
        lines.append(f"  n{a} -> n{b}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
