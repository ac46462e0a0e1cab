"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.utils.rng import get_rng

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout: active only in training mode.

    Kept activations are scaled by ``1/(1-p)`` so eval mode is identity.
    An explicit ``rng`` may be supplied for reproducible masks per client.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        rng = self.rng or get_rng()
        keep = 1.0 - self.p
        mask = (rng.random(x.shape) < keep).astype(x.dtype)
        mask /= keep
        return x * Tensor(mask)
