"""Prototype loss for the FedProto baseline (Tan et al., AAAI 2022).

Each client computes per-class mean features ("prototypes"); the server
averages them per class, and the client regularizes its features toward
the global prototypes of their labels.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, as_tensor

__all__ = ["prototype_loss", "compute_prototypes", "aggregate_prototypes"]


def compute_prototypes(features: np.ndarray, labels: np.ndarray, num_classes: int) -> dict[int, np.ndarray]:
    """Per-class mean features; classes absent from the batch are omitted."""
    out: dict[int, np.ndarray] = {}
    labels = np.asarray(labels)
    for c in range(num_classes):
        mask = labels == c
        if mask.any():
            out[c] = features[mask].mean(axis=0)
    return out


def aggregate_prototypes(client_protos: list[dict[int, np.ndarray]], weights: list[float] | None = None) -> dict[int, np.ndarray]:
    """Weighted per-class average of client prototypes (FedProto server op)."""
    if weights is None:
        weights = [1.0] * len(client_protos)
    sums: dict[int, np.ndarray] = {}
    totals: dict[int, float] = {}
    for protos, w in zip(client_protos, weights):
        for c, vec in protos.items():
            if c in sums:
                sums[c] = sums[c] + w * vec
                totals[c] += w
            else:
                sums[c] = w * vec.copy()
                totals[c] = w
    return {c: sums[c] / totals[c] for c in sums}


def prototype_loss(features: Tensor, labels: np.ndarray, global_protos: dict[int, np.ndarray]) -> Tensor:
    """Mean squared distance between features and their class's global prototype.

    Samples whose class has no global prototype yet contribute zero.
    """
    features = as_tensor(features)
    labels = np.asarray(labels).reshape(-1)
    n, d = features.shape
    targets = np.zeros((n, d), dtype=features.dtype)
    mask = np.zeros((n, 1), dtype=features.dtype)
    for i, c in enumerate(labels):
        proto = global_protos.get(int(c))
        if proto is not None:
            targets[i] = proto
            mask[i] = 1.0
    count = max(1.0, float(mask.sum()))
    diff = (features - Tensor(targets)) * Tensor(mask)
    return (diff * diff).sum() * (1.0 / (count * d))
