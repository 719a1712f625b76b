"""The one budget object, ``Limits``, passed down from the command line.

``cli.main`` builds it once per run with ``Limits.from_env()`` and the
``--limit-nodes``/``--limit-seconds`` flags, and hands it as the ``limits``
argument to the builders, ``poset.closure``, the labeling checks,
``construct_R``, ``build_flyn`` and ``are_isomorphic``.  Library callers that pass nothing get
``DEFAULT_LIMITS``, the plain defaults; nothing is read at import.

Environment variable (optional, integer-valued, read by ``from_env`` only):
    WHITNEYDUAL_MAX_N_BUILD   cap on n for poset construction (default 6)
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .errors import PreconditionError, TimeBudgetExceededError


@dataclass(frozen=True)
class Limits:
    """Size cap, isomorphism node budget and wall-clock deadline of a run.

    ``deadline`` is a ``time.monotonic()`` instant, or None for no deadline.
    """

    max_n_build: int = 6
    iso_node_budget: int = 2_000_000
    deadline: Optional[float] = None

    @classmethod
    def from_env(cls) -> "Limits":
        raw = os.environ.get("WHITNEYDUAL_MAX_N_BUILD")
        if raw is None:
            return cls()
        try:
            return cls(max_n_build=int(raw))
        except ValueError:
            raise PreconditionError(
                f"WHITNEYDUAL_MAX_N_BUILD={raw!r} is not an integer"
            ) from None

    def check_deadline(self) -> None:
        """Raise TimeBudgetExceededError once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeBudgetExceededError("time budget exceeded")


DEFAULT_LIMITS = Limits()
