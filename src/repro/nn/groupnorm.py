"""Group and layer normalization.

Batch statistics are problematic in federated learning — client batches
are non-iid, so averaged BatchNorm running stats mismatch every client
(the observation behind FedBN).  GroupNorm/LayerNorm normalize per
sample, carry no running state, and therefore aggregate cleanly; models
can be built with ``norm="group"`` to study this axis.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, standardize

__all__ = ["GroupNorm", "LayerNorm"]


class GroupNorm(Module):
    """Normalize over channel groups × spatial dims of NCHW input."""

    def __init__(self, num_groups: int, num_channels: int, eps: float = 1e-5, affine: bool = True):
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(f"channels {num_channels} not divisible by groups {num_groups}")
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        if affine:
            self.weight = Parameter(np.ones(num_channels))
            self.bias = Parameter(np.zeros(num_channels))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        g = self.num_groups
        normed, _, _ = standardize(x.reshape(n, g, (c // g) * h * w), (2,), self.eps)
        out = normed.reshape(n, c, h, w)
        if self.weight is not None:
            out = out * self.weight.reshape(1, c, 1, 1) + self.bias.reshape(1, c, 1, 1)
        return out


class LayerNorm(Module):
    """Normalize over the last dimension of (N, D) activations."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5, affine: bool = True):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        if affine:
            self.weight = Parameter(np.ones(normalized_shape))
            self.bias = Parameter(np.zeros(normalized_shape))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"expected last dim {self.normalized_shape}, got {x.shape[-1]}"
            )
        out, _, _ = standardize(x, (-1,), self.eps)
        if self.weight is not None:
            out = out * self.weight + self.bias
        return out
