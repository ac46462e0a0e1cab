"""Supervised contrastive loss (Khosla et al., NeurIPS 2020).

This is the L^CL term of FedClassAvg Eq. (4): features of two augmented
views of each image are pulled together with all same-label features and
pushed from different-label features.  The implementation follows the
reference SupCon formulation: L2-normalized features, temperature-scaled
cosine similarities, per-anchor mean over positives.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, as_tensor, concat, exp, log
from repro.telemetry.opprof import profiled_op

__all__ = ["supcon_loss", "normalize_features"]


def normalize_features(z: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization onto the unit hypersphere."""
    z = as_tensor(z)
    norms = (z * z).sum(axis=1, keepdims=True) + eps
    return z * norms**-0.5


@profiled_op("supcon", backward=False)
def supcon_loss(
    features_a: Tensor,
    features_b: Tensor,
    labels: np.ndarray,
    temperature: float = 0.07,
) -> Tensor:
    """Supervised contrastive loss over two views.

    Parameters
    ----------
    features_a, features_b:
        (N, d) feature batches extracted from two augmentations of the
        same N inputs.
    labels:
        (N,) integer class labels.
    temperature:
        Softmax temperature τ; the SupCon default is 0.07.

    Anchors whose positive set is empty (their label appears once in the
    doubled batch — impossible here since each sample has its second view,
    but kept robust for single-view use) contribute zero.
    """
    labels = np.asarray(labels).reshape(-1)
    n = labels.shape[0]
    if features_a.shape[0] != n or features_b.shape[0] != n:
        raise ValueError("feature batch sizes must match labels")

    z = concat([normalize_features(features_a), normalize_features(features_b)], axis=0)
    y = np.concatenate([labels, labels])
    m = 2 * n

    sim = (z @ z.T) * (1.0 / temperature)

    # Numerical stability: subtract the (detached) row max.
    row_max = sim.data.max(axis=1, keepdims=True)
    logits = sim - Tensor(row_max)

    # masks and per-anchor constants are built in the features' dtype
    dtype = z.dtype
    eye = np.eye(m, dtype=bool)
    logits_mask = (~eye).astype(dtype)  # exclude self-contrast
    pos_mask = (y[:, None] == y[None, :]) & ~eye
    pos_mask_f = pos_mask.astype(dtype)
    pos_counts = pos_mask_f.sum(axis=1)

    exp_logits = exp(logits) * Tensor(logits_mask)
    log_denom = log(exp_logits.sum(axis=1, keepdims=True) + 1e-12)
    log_prob = logits - log_denom

    # Per-anchor mean log-probability over positives.
    safe_counts = np.maximum(pos_counts, 1.0)
    mean_log_prob_pos = (Tensor(pos_mask_f) * log_prob).sum(axis=1) * Tensor(1.0 / safe_counts)

    # Average over anchors that actually have positives.
    has_pos = (pos_counts > 0).astype(dtype)
    denom = max(1.0, float(has_pos.sum()))
    loss = -(mean_log_prob_pos * Tensor(has_pos)).sum() * (1.0 / denom)
    return loss
