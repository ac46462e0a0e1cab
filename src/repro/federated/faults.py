"""Client-failure injection for robustness experiments.

Real federations lose clients mid-round (network drops, battery, device
churn).  ``FaultInjector`` decides — deterministically from a seed — which
sampled clients fail each round; algorithms call :meth:`survivors` after
local training and aggregate only the returned subset, exactly as a real
server aggregates whatever uploads arrive before the deadline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drop each sampled client independently with probability ``p``.

    Guarantees at least one survivor per round (a round where *everyone*
    fails would stall aggregation; real servers re-sample instead, which
    amounts to the same thing).
    """

    def __init__(self, failure_prob: float = 0.0, seed: int = 0):
        if not 0.0 <= failure_prob < 1.0:
            raise ValueError("failure probability must be in [0, 1)")
        self.failure_prob = failure_prob
        self.rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xFA11,)))
        self.dropped_log: list[list[int]] = []
        #: call indices (``len(dropped_log)`` at the time) where every
        #: sampled client failed and one survivor was forcibly kept —
        #: chaos runs need to tell "one genuinely survived" apart from
        #: "we rescued one so aggregation would not stall"
        self.forced_keep_log: list[int] = []

    def survivors(self, sampled: list[int]) -> list[int]:
        """Return the subset of ``sampled`` whose uploads arrive."""
        if self.failure_prob == 0.0 or not sampled:
            self.dropped_log.append([])
            return list(sampled)
        alive = [k for k in sampled if self.rng.random() >= self.failure_prob]
        if not alive:
            # keep one deterministic survivor
            alive = [sampled[int(self.rng.integers(len(sampled)))]]
            self.forced_keep_log.append(len(self.dropped_log))
        alive_set = set(alive)
        self.dropped_log.append([k for k in sampled if k not in alive_set])
        return alive

    @property
    def total_dropped(self) -> int:
        return sum(len(d) for d in self.dropped_log)
