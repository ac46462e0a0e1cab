"""NT-Xent (SimCLR) self-supervised contrastive loss.

The paper's conclusion suggests combining FedClassAvg with other
un/semi-supervised contrastive losses as future work; this implements the
standard normalized-temperature cross-entropy loss of Chen et al. (2020)
so the local-update objective can swap SupCon for a label-free term
(``FedClassAvg(contrastive="ntxent")`` via LocalUpdateConfig).

For each anchor the positive is *only* its own second view; all other
2N−2 samples are negatives (labels are ignored).
"""

from __future__ import annotations

import numpy as np

from repro.losses.supcon import normalize_features
from repro.tensor import Tensor, as_tensor, concat, exp, log
from repro.telemetry.opprof import profiled_op

__all__ = ["ntxent_loss"]


@profiled_op("ntxent", backward=False)
def ntxent_loss(features_a: Tensor, features_b: Tensor, temperature: float = 0.5) -> Tensor:
    """NT-Xent loss over two views of the same N samples."""
    features_a, features_b = as_tensor(features_a), as_tensor(features_b)
    n = features_a.shape[0]
    if features_b.shape[0] != n:
        raise ValueError("view batch sizes must match")
    if n < 2:
        raise ValueError("NT-Xent needs at least 2 samples for negatives")

    z = concat([normalize_features(features_a), normalize_features(features_b)], axis=0)
    m = 2 * n
    sim = (z @ z.T) * (1.0 / temperature)

    row_max = sim.data.max(axis=1, keepdims=True)
    logits = sim - Tensor(row_max)

    eye = np.eye(m, dtype=bool)
    neg_mask = (~eye).astype(z.dtype)

    # positive index of anchor i is i+n (mod 2n)
    pos_idx = (np.arange(m) + n) % m
    pos_mask = np.zeros((m, m), dtype=z.dtype)
    pos_mask[np.arange(m), pos_idx] = 1.0

    exp_logits = exp(logits) * Tensor(neg_mask)
    log_denom = log(exp_logits.sum(axis=1, keepdims=True) + 1e-12)
    log_prob = logits - log_denom
    pos_log_prob = (Tensor(pos_mask) * log_prob).sum(axis=1)
    return -pos_log_prob.mean()
