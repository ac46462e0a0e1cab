"""Byzantine-robust aggregators + the shared admission/aggregation entry point.

FedClassAvg shares exactly one piece of state — the global classifier —
so one malicious upload poisons the personalization of every client.
This module provides data-weighted robust alternatives to the plain
weighted mean of Eq. (3), all operating on the same aligned state dicts
:func:`repro.federated.aggregation.weighted_average_state` accepts:

* ``mean`` — Eq. (3) itself (no robustness, the default);
* ``coordinate_median`` — per-coordinate weighted median; tolerates
  arbitrary corruption of a minority-weight of updates;
* ``trimmed_mean(beta)`` — per coordinate, drop the ``floor(beta·n)``
  lowest and highest values, weighted-average the rest;
* ``norm_clipped_mean(max_norm)`` — rescale each update so its L2
  distance from the broadcast reference is at most ``max_norm``, then
  average; bounds how far any single client can drag the global;
* ``krum(f)`` / ``multi_krum(f, m)`` — Blanchard et al. (2017): score
  each update by its summed squared distance to its ``n − f − 2``
  nearest neighbors and keep the lowest-scoring one (Krum) or
  weighted-average the ``m`` lowest (Multi-Krum).

:func:`admit_and_aggregate` is the whole judgement in one call: it
screens every collected update through the admission firewall (in
client-id order, so firewall state evolves identically on either
transport), then applies the selected aggregator to the admitted
survivors.  The FedClassAvg round has a quorum gate between the two
steps, so it calls :func:`screen_updates` and the aggregator itself.

Determinism bar: every aggregator is a pure function of (states,
weights, reference) with all reductions in float64 — equal-seed TCP and
SimComm runs produce bit-identical globals under attack, exactly as
they do clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.federated.aggregation import (
    AggregationError,
    ensure_finite_states,
    weighted_average_state,
)

__all__ = [
    "Aggregator",
    "MeanAggregator",
    "CoordinateMedianAggregator",
    "TrimmedMeanAggregator",
    "NormClippedMeanAggregator",
    "KrumAggregator",
    "MultiKrumAggregator",
    "make_aggregator",
    "AGGREGATOR_NAMES",
    "AggregationOutcome",
    "screen_updates",
    "admit_and_aggregate",
]

#: canonical spec names accepted by :func:`make_aggregator`
AGGREGATOR_NAMES = (
    "mean",
    "coordinate_median",
    "trimmed_mean",
    "norm_clipped_mean",
    "krum",
    "multi_krum",
)


class Aggregator:
    """Protocol: callable ``(states, weights=None, reference=None) -> state``.

    ``reference`` is the round's broadcast classifier — aggregators that
    reason about update *deltas* (norm clipping) use it; the rest ignore
    it.  Implementations must be pure functions of their arguments (the
    determinism bar covers adversarial runs).
    """

    name = "aggregator"

    def __call__(
        self,
        states: list[dict[str, np.ndarray]],
        weights: list[float] | None = None,
        reference: dict[str, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        raise NotImplementedError


def _aligned_keys(states: list[dict[str, np.ndarray]]) -> list[str]:
    keys = list(states[0].keys())
    for s in states[1:]:
        if list(s.keys()) != keys:
            raise AggregationError("state dicts are not aligned (different keys/order)")
    return keys


def _normalized_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != n:
        raise ValueError("weights length mismatch")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return w / total


def _cast_like(acc: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Follow ``weighted_average_state``'s dtype convention: float keys
    stay float64, integer buffers are cast back."""
    return acc.astype(template.dtype) if template.dtype.kind in "iu" else acc


def flatten_state(state: dict[str, np.ndarray]) -> np.ndarray:
    """Concatenate a state's float entries into one float64 vector."""
    parts = [
        np.asarray(v, dtype=np.float64).ravel()
        for v in state.values()
        if np.asarray(v).dtype.kind not in "iu"
    ]
    return np.concatenate(parts) if parts else np.zeros(0)


def _sorted_stack(states, keys_key, w):
    """Per-coordinate value-sorted stack + matching weights for one key."""
    vals = np.stack([np.asarray(s[keys_key], dtype=np.float64) for s in states])
    wb = np.broadcast_to(w.reshape((len(states),) + (1,) * (vals.ndim - 1)), vals.shape)
    order = np.argsort(vals, axis=0, kind="stable")
    return np.take_along_axis(vals, order, axis=0), np.take_along_axis(wb, order, axis=0)


class MeanAggregator(Aggregator):
    """Eq. (3): the data-size-weighted mean (no robustness)."""

    name = "mean"

    def __call__(self, states, weights=None, reference=None):
        return weighted_average_state(states, weights)


class CoordinateMedianAggregator(Aggregator):
    """Per-coordinate weighted median.

    For each coordinate, sort the n client values and take the first one
    whose cumulative normalized weight reaches 1/2.  A coalition holding
    under half the total data weight cannot move any coordinate past the
    honest values, no matter how extreme its updates.
    """

    name = "coordinate_median"

    def __call__(self, states, weights=None, reference=None):
        ensure_finite_states(states)
        keys = _aligned_keys(states)
        w = _normalized_weights(weights, len(states))
        out: dict[str, np.ndarray] = {}
        with telemetry.span("aggregate", aggregator=self.name, states=len(states)):
            for key in keys:
                sv, sw = _sorted_stack(states, key, w)
                cum = np.cumsum(sw, axis=0)
                idx = np.argmax(cum >= 0.5, axis=0)
                med = np.take_along_axis(sv, idx[None, ...], axis=0)[0]
                out[key] = _cast_like(med, states[0][key])
        return out


class TrimmedMeanAggregator(Aggregator):
    """Per-coordinate ``beta``-trimmed weighted mean.

    Discards the ``floor(beta·n)`` smallest and largest values of each
    coordinate, then weighted-averages the survivors (weights
    renormalized per coordinate).  Robust to up to a ``beta`` fraction
    of arbitrarily corrupted updates per coordinate.
    """

    name = "trimmed_mean"

    def __init__(self, beta: float = 0.2):
        if not 0.0 <= beta < 0.5:
            raise ValueError("trim fraction beta must be in [0, 0.5)")
        self.beta = beta

    def __call__(self, states, weights=None, reference=None):
        ensure_finite_states(states)
        keys = _aligned_keys(states)
        n = len(states)
        w = _normalized_weights(weights, n)
        m = min(int(np.floor(self.beta * n)), (n - 1) // 2)
        out: dict[str, np.ndarray] = {}
        with telemetry.span("aggregate", aggregator=self.name, states=n, trimmed=2 * m):
            for key in keys:
                sv, sw = _sorted_stack(states, key, w)
                kv, kw = sv[m : n - m], sw[m : n - m]
                denom = kw.sum(axis=0)
                out[key] = _cast_like((kv * kw).sum(axis=0) / denom, states[0][key])
        return out


class NormClippedMeanAggregator(Aggregator):
    """Weighted mean of updates clipped to an L2 ball around the reference.

    Each update's delta from the broadcast classifier is rescaled so its
    L2 norm is at most ``max_norm`` before averaging — an adversary can
    still bias the direction but no longer the magnitude.  Without a
    reference (e.g. standalone use), the raw state norm is clipped.
    """

    name = "norm_clipped_mean"

    def __init__(self, max_norm: float = 10.0):
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def _clip(self, state, reference):
        deltas = {}
        total = 0.0
        for key, arr in state.items():
            a = np.asarray(arr)
            if a.dtype.kind in "iu":
                continue
            d = np.asarray(arr, dtype=np.float64)
            if reference is not None and key in reference:
                d = d - np.asarray(reference[key], dtype=np.float64)
            deltas[key] = d
            total += float((d * d).sum())
        norm = float(np.sqrt(total))
        if norm <= self.max_norm or norm == 0.0:
            return state
        scale = self.max_norm / norm
        out = {}
        for key, arr in state.items():
            a = np.asarray(arr)
            if a.dtype.kind in "iu":
                out[key] = a
            elif reference is not None and key in reference:
                out[key] = np.asarray(reference[key], dtype=np.float64) + scale * deltas[key]
            else:
                out[key] = scale * deltas[key]
        return out

    def __call__(self, states, weights=None, reference=None):
        ensure_finite_states(states)
        _aligned_keys(states)
        with telemetry.span("aggregate", aggregator=self.name, states=len(states)):
            clipped = [self._clip(s, reference) for s in states]
            return weighted_average_state(clipped, weights)


def krum_scores(states: list[dict[str, np.ndarray]], f: int) -> np.ndarray:
    """Blanchard et al. scores: summed squared distance to the
    ``max(1, n − f − 2)`` nearest neighbors of each update."""
    ensure_finite_states(states)
    _aligned_keys(states)
    vecs = [flatten_state(s) for s in states]
    n = len(vecs)
    dists = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(((vecs[i] - vecs[j]) ** 2).sum())
            dists[i, j] = dists[j, i] = d
    neighbors = max(1, n - f - 2)
    scores = np.empty(n)
    for i in range(n):
        others = np.sort(np.delete(dists[i], i))
        scores[i] = others[: min(neighbors, len(others))].sum() if len(others) else 0.0
    return scores


class KrumAggregator(Aggregator):
    """Krum: keep the single update closest to its nearest neighbors.

    Tolerates up to ``f`` Byzantine updates among ``n`` as long as
    ``n > 2f + 2`` holds in theory; in small cohorts the neighbor count
    is clamped to at least 1, which still discards the most isolated
    update.  Ties resolve to the lowest client index (argmin), so
    selection is deterministic.  Data weights do not influence the
    selection — Krum is a selection rule, not an average.
    """

    name = "krum"

    def __init__(self, f: int = 1):
        if f < 0:
            raise ValueError("f must be >= 0")
        self.f = f

    def __call__(self, states, weights=None, reference=None):
        with telemetry.span("aggregate", aggregator=self.name, states=len(states), f=self.f):
            chosen = states[int(np.argmin(krum_scores(states, self.f)))]
            # follow the mean's dtype convention so a krum-aggregated
            # global is interchangeable with a mean-aggregated one
            return {
                key: _cast_like(np.asarray(v, dtype=np.float64), np.asarray(v))
                if np.asarray(v).dtype.kind not in "iu"
                else np.asarray(v).copy()
                for key, v in chosen.items()
            }


class MultiKrumAggregator(Aggregator):
    """Multi-Krum: weighted mean of the ``m`` lowest-scoring updates."""

    name = "multi_krum"

    def __init__(self, f: int = 1, m: int = 2):
        if f < 0:
            raise ValueError("f must be >= 0")
        if m < 1:
            raise ValueError("m must be >= 1")
        self.f = f
        self.m = m

    def __call__(self, states, weights=None, reference=None):
        with telemetry.span(
            "aggregate", aggregator=self.name, states=len(states), f=self.f, m=self.m
        ):
            scores = krum_scores(states, self.f)
            keep = sorted(np.argsort(scores, kind="stable")[: min(self.m, len(states))])
            w = None if weights is None else [weights[i] for i in keep]
            return weighted_average_state([states[i] for i in keep], w)


def make_aggregator(spec) -> Aggregator:
    """Build an aggregator from a CLI-style spec string.

    ``None`` and ``"mean"`` give the plain weighted mean; parameterized
    rules take colon-separated arguments: ``trimmed_mean:0.3``,
    ``norm_clipped_mean:5.0``, ``krum:2``, ``multi_krum:1:3``.  An
    :class:`Aggregator` instance passes through unchanged.
    """
    if spec is None:
        return MeanAggregator()
    if isinstance(spec, Aggregator):
        return spec
    name, _, rest = str(spec).partition(":")
    args = [a for a in rest.split(":") if a] if rest else []
    try:
        if name == "mean":
            return MeanAggregator()
        if name in ("median", "coordinate_median"):
            return CoordinateMedianAggregator()
        if name == "trimmed_mean":
            return TrimmedMeanAggregator(float(args[0]) if args else 0.2)
        if name in ("norm_clip", "norm_clipped_mean"):
            return NormClippedMeanAggregator(float(args[0]) if args else 10.0)
        if name == "krum":
            return KrumAggregator(int(args[0]) if args else 1)
        if name == "multi_krum":
            return MultiKrumAggregator(
                int(args[0]) if args else 1, int(args[1]) if len(args) > 1 else 2
            )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad aggregator spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown aggregator {name!r} (choices: {', '.join(AGGREGATOR_NAMES)})"
    )


# ---------------------------------------------------------------------------
# the shared admission + aggregation entry point
# ---------------------------------------------------------------------------
@dataclass
class AggregationOutcome:
    """What one round's admission + aggregation produced.

    ``global_state`` is ``None`` when nothing was admitted (the caller
    keeps the previous global, exactly like a round with no surviving
    uploads).  ``rejected`` holds the firewall's rejection records:
    ``{"round", "client", "validator", "reason"}``.
    """

    global_state: dict[str, np.ndarray] | None
    admitted: list[int] = field(default_factory=list)
    rejected: list[dict] = field(default_factory=list)


def screen_updates(
    round_idx: int,
    updates: dict[int, dict[str, np.ndarray]],
    firewall,
    reference: dict[str, np.ndarray] | None = None,
) -> tuple[dict[int, dict[str, np.ndarray]], list[dict]]:
    """Run each update through the admission firewall in client-id order.

    The fixed order matters: the firewall's rolling-norm history evolves
    with every admitted update, so both transports must feed it the same
    sequence for equal-seed runs to reject identically.  Returns
    ``(admitted, rejections)``; with no firewall everything is admitted.
    """
    admitted: dict[int, dict[str, np.ndarray]] = {}
    rejected: list[dict] = []
    monitor = telemetry.get_telemetry().health
    for k in sorted(updates):
        verdict = (
            firewall.screen(round_idx, k, updates[k], reference)
            if firewall is not None
            else None
        )
        if verdict is None:
            admitted[k] = updates[k]
            if firewall is not None and monitor is not None:
                monitor.observe_client(k, rejected=0.0)
        else:
            rejected.append(verdict)
    return admitted, rejected


def admit_and_aggregate(
    round_idx: int,
    updates: dict[int, dict[str, np.ndarray]],
    weights: dict[int, float],
    aggregator: Aggregator | None = None,
    firewall=None,
    reference: dict[str, np.ndarray] | None = None,
) -> AggregationOutcome:
    """Screen ``updates`` through the firewall, then aggregate the rest.

    ``updates``/``weights`` are keyed by client id,
    ``reference`` is the round's broadcast classifier (the firewall's
    comparison baseline and the norm-clipping center).
    """
    aggregator = aggregator if aggregator is not None else MeanAggregator()
    admitted, rejected = screen_updates(round_idx, updates, firewall, reference)
    ids = sorted(admitted)
    if not ids:
        return AggregationOutcome(None, [], rejected)
    states = [admitted[k] for k in ids]
    w = [weights[k] for k in ids]
    return AggregationOutcome(aggregator(states, w, reference=reference), ids, rejected)
