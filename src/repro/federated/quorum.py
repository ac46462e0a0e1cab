"""Minimum-participation policy for a round's aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["QuorumPolicy", "QuorumError"]


class QuorumError(RuntimeError):
    """A round missed quorum under an ``abort`` policy."""


@dataclass(frozen=True)
class QuorumPolicy:
    """Minimum-participation gate on each round's aggregation.

    The implicit FedClassAvg rule — aggregate whatever uploads arrive —
    becomes an explicit policy: a round needs at least
    ``max(min_count, ceil(min_fraction * sampled))`` admitted updates.
    On a miss, ``on_miss`` decides:

    * ``"skip_round"`` — keep the previous global classifier, mark the
      round skipped (``net.rounds_skipped`` + a ``quorum_miss`` alert),
      and move on;
    * ``"extend_deadline"`` — re-collect the missing clients for up to
      ``max_extensions`` extra windows of ``extension_s`` seconds
      (default: the cohort's own round timeout) before falling back to
      skipping;
    * ``"abort"`` — raise :class:`QuorumError` (a critical alert fires
      first), for deployments where a quorum miss means the fleet is
      broken and continuing would silently train on a sliver of data.

    The default policy (``min_count=1``) matches the pre-quorum
    behavior: any non-empty survivor set aggregates.
    """

    min_fraction: float = 0.0
    min_count: int = 1
    on_miss: str = "skip_round"
    max_extensions: int = 1
    extension_s: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError("min_fraction must be in [0, 1]")
        if self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if self.on_miss not in ("skip_round", "extend_deadline", "abort"):
            raise ValueError(f"unknown on_miss policy {self.on_miss!r}")
        if self.max_extensions < 0:
            raise ValueError("max_extensions must be >= 0")

    def required(self, sampled: int) -> int:
        """Admitted updates needed for a round that sampled ``sampled``."""
        return max(self.min_count, math.ceil(self.min_fraction * sampled))
