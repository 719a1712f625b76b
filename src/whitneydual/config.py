"""The size cap ``MAX_N`` and the one budget object, ``Limits``.

Every builder calls ``check_n``, so n runs from 1 to ``MAX_N``, fixed.
``cli.main`` starts each run from ``Limits()`` and its ``--limit-*`` flags,
and passes it as ``limits`` to the builders, ``poset.closure``, the labeling
checks, ``construct_R``, ``are_isomorphic`` and ``tag_walk``.  Library
callers that pass nothing get ``DEFAULT_LIMITS``, the plain defaults.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import LimitExceededError, TimeBudgetExceededError

MAX_N = 7


def check_n(n: int) -> None:
    """Raise LimitExceededError unless 1 <= n <= MAX_N."""
    if not 1 <= n <= MAX_N:
        raise LimitExceededError(f"n={n} outside allowed range 1..{MAX_N}")


@dataclass(frozen=True)
class Limits:
    """Isomorphism node budget and wall-clock deadline of a run.

    ``deadline`` is a ``time.monotonic()`` instant, or None for no deadline.
    """

    iso_node_budget: int = 2_000_000
    deadline: Optional[float] = None

    def check_deadline(self) -> None:
        """Raise TimeBudgetExceededError once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceededError("time budget exceeded")


DEFAULT_LIMITS = Limits()
