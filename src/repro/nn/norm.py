"""Batch normalization layers with running statistics."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, standardize

__all__ = ["BatchNorm2d", "BatchNorm1d"]


class _BatchNorm(Module):
    """Shared machinery for 1-D/2-D batch norm.

    In training mode, batch statistics normalize the activations and
    update exponential running estimates; in eval mode, the running
    estimates are used (so single-sample inference is well-defined).
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1, affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.register_buffer("num_batches_tracked", np.array(0, dtype=np.int64))

    def _stats_axes(self, x: Tensor) -> tuple:
        raise NotImplementedError

    def _reshape_param(self, p: np.ndarray, ndim: int) -> tuple:
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        shape = self._reshape_param(None, x.ndim)
        if self.training:
            # one tape node; the batch statistics come back as plain arrays
            out, mu, var = standardize(x, self._stats_axes(x), self.eps, self.weight, self.bias)
            n = x.data.size / self.num_features
            unbiased = var.reshape(self.num_features) * (n / max(1.0, n - 1))
            m = self.momentum
            self._set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mu.reshape(self.num_features),
            )
            self._set_buffer("running_var", (1 - m) * self.running_var + m * unbiased)
            self._set_buffer("num_batches_tracked", self.num_batches_tracked + 1)
            return out
        # eval: the running estimates fold into one per-feature scale and
        # shift (feature-sized tape ops), applied in a single pass over x
        scale = Tensor(1.0 / np.sqrt(self.running_var + self.eps))
        shift = Tensor(-self.running_mean) * scale
        if self.weight is not None:
            scale = scale * self.weight
            shift = shift * self.weight + self.bias
        return x * scale.reshape(shape) + shift.reshape(shape)


class BatchNorm2d(_BatchNorm):
    """Batch norm over NCHW activations (per-channel statistics)."""

    def _stats_axes(self, x: Tensor) -> tuple:
        return (0, 2, 3)

    def _reshape_param(self, p, ndim: int) -> tuple:
        return (1, self.num_features, 1, 1)


class BatchNorm1d(_BatchNorm):
    """Batch norm over (N, C) activations (per-feature statistics)."""

    def _stats_axes(self, x: Tensor) -> tuple:
        return (0,)

    def _reshape_param(self, p, ndim: int) -> tuple:
        return (1, self.num_features)
