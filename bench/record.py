"""What a run produced, and the end-to-end metrics derived from it.

Round 0 is warm-up: it belongs to ``setup_s``.  Steady-state metrics use
the remaining round walls (tick-to-tick intervals on the training
workloads, the timed server section on ``server_fanin``), each divided by
the machine slowdown measured next to it (see ``bench.calibrate``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from statistics import mean, median

import numpy as np

from bench.calibrate import REFERENCE_S
from repro.utils.serialization import state_dict_to_bytes


@dataclass
class Run:
    """One execution of a workload, before any metric is derived."""

    setup_s: float  # workload start -> first round boundary (includes round 0)
    intervals: list[float]  # steady-state round walls, round 0 excluded
    #: per interval, the calibration kernel times taken inside it and at its end
    kernels: list[list[float]]
    attempted: int  # client updates the round loop asked for
    failed: int  # ... that were not admitted, or got the wrong verdict
    bytes_per_client_round: float
    global_state: dict[str, np.ndarray]
    final_mean_acc: float | None = None  # training workloads only
    first_loss: float = math.nan
    last_loss: float = math.nan
    #: anything that makes the run incorrect regardless of its numbers
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def slowdowns(self) -> list[float]:
        """Machine slowdown during each interval (1.0 = reference speed)."""
        return [mean(k) / REFERENCE_S for k in self.kernels]

    def calibrated(self) -> list[float]:
        """Each round's wall time at reference machine speed."""
        return [wall / slow for wall, slow in zip(self.intervals, self.slowdowns())]


def from_ticks(start: float, ticks: list[float], kernel_log: list, **fields) -> Run:
    """A training run: ``setup_s`` ends at the first ``end_round`` tick.

    ``kernel_log`` holds ``(started, seconds)`` of every calibration kernel
    the harness ran: one right after each tick, and in-process one before
    each client update.  A kernel run that started inside an interval was
    paid for by that interval, so its time is taken back out; the one right
    after the closing tick still tells the machine's state at the end.
    """
    def inside(a: float, b: float) -> list[float]:
        return [sec for at, sec in kernel_log if a <= at < b]

    def closing(b: float) -> list[float]:
        return [next(sec for at, sec in kernel_log if at >= b)]

    return Run(
        setup_s=ticks[0] - start - sum(inside(start, ticks[0])),
        intervals=[b - a - sum(inside(a, b)) for a, b in zip(ticks, ticks[1:])],
        kernels=[inside(a, b) + closing(b) for a, b in zip(ticks, ticks[1:])],
        **fields,
    )


def final_accuracy(history) -> float:
    """Mean personalized test accuracy over the final third of the rounds.

    One evaluation of 8 x 40 test images moves by a few points from round to
    round; averaging the last third keeps "final" from being one noisy draw.
    """
    accs = [r.mean_acc for r in history.rounds]
    return mean(accs[-max(1, len(accs) // 3):])


def digest(state: dict[str, np.ndarray]) -> str:
    return hashlib.sha256(state_dict_to_bytes(state)).hexdigest()


def end_to_end(run: Run, setup_samples: list[float], peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric of BENCHMARK.json, by name."""
    steady = run.calibrated()
    return {
        "setup_s": median(setup_samples),
        "rounds_per_s": len(steady) / sum(steady),
        "round_wall_p50_s": median(steady),
        "round_wall_p95_s": float(np.percentile(steady, 95)),
        "bytes_per_client_round": run.bytes_per_client_round,
        "peak_rss_mb": peak_rss_mb,
    }
