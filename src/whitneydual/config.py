"""Resource limits with environment-variable overrides.

Environment variables (all optional, integer-valued):
    WHITNEYDUAL_MAX_N_BUILD   cap on n for poset construction (default 6)
    WHITNEYDUAL_ISO_BUDGET    node budget for exact isomorphism search
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return int(raw)


@dataclass(frozen=True)
class Limits:
    """Runtime budgets; construct once and pass down, or use DEFAULT_LIMITS."""

    max_n_build: int = 6
    iso_node_budget: int = 2_000_000

    @classmethod
    def from_env(cls) -> "Limits":
        return cls(
            max_n_build=_env_int("WHITNEYDUAL_MAX_N_BUILD", cls.max_n_build),
            iso_node_budget=_env_int("WHITNEYDUAL_ISO_BUDGET", cls.iso_node_budget),
        )


DEFAULT_LIMITS = Limits.from_env()
