"""Reduction and normalization ops: sum, mean, max, var, softmax family.

``logsumexp``/``log_softmax`` use the max-shift trick so cross-entropy is
stable for large logits.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor
from repro.telemetry.opprof import profiled_op

__all__ = [
    "sum_",
    "mean",
    "max_",
    "min_",
    "var",
    "standardize",
    "logsumexp",
    "softmax",
    "log_softmax",
    "norm",
]


def _restore_dims(grad: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Re-expand a reduced gradient so it broadcasts against ``shape``."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, shape)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)
    in_shape = x.data.shape

    def backward(grad):
        return (_restore_dims(grad, in_shape, axis, keepdims).copy(),)

    return Tensor._make(out_data, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis``."""
    x = as_tensor(x)
    out_data = x.data.mean(axis=axis, keepdims=keepdims)
    in_shape = x.data.shape
    count = x.data.size / out_data.size

    def backward(grad):
        return (_restore_dims(grad, in_shape, axis, keepdims) / count,)

    return Tensor._make(out_data, (x,), backward)


def max_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows only to the (first) argmax elements.

    When several entries tie for the max, the gradient is split evenly among
    them, matching NumPy's convention for subgradients.
    """
    x = as_tensor(x)
    out_data = x.data.max(axis=axis, keepdims=keepdims)
    in_shape = x.data.shape
    expanded = _restore_dims(out_data, in_shape, axis, keepdims)
    mask = x.data == expanded
    counts = mask.sum(axis=axis, keepdims=True, dtype=x.data.dtype)

    def backward(grad):
        g = _restore_dims(grad, in_shape, axis, keepdims)
        return (g * mask / counts,)

    return Tensor._make(out_data, (x,), backward)


def min_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Min reduction (gradient to the argmin, ties split)."""
    return -max_(-as_tensor(x), axis=axis, keepdims=keepdims)


def var(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (ddof=0), composed from differentiable primitives."""
    x = as_tensor(x)
    mu = mean(x, axis=axis, keepdims=True)
    sq = (x - mu) * (x - mu)
    return mean(sq, axis=axis, keepdims=keepdims)


def standardize(
    x: Tensor, axes, eps: float, weight: Tensor | None = None, bias: Tensor | None = None
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps)`` over ``axes`` as a single tape node.

    ``weight`` and ``bias`` (one value per statistic — BatchNorm's
    per-channel affine) are folded into the same node.  Returns
    ``(out, mean, var)``; ``mean`` and the biased ``var`` are the batch
    statistics as ``keepdims`` arrays, for running-estimate updates.

    The backward pass is the closed form
    ``gx = scale · (g − mean(g) − x̂ · mean(g · x̂))`` with ``scale`` the
    per-statistic ``weight / sqrt(var + eps)``; the two means are the bias
    and weight gradients divided by the group size, so they are computed
    once.
    """
    x = as_tensor(x)
    mu = x.data.mean(axis=axes, keepdims=True)
    xhat = x.data - mu
    var_ = (xhat * xhat).mean(axis=axes, keepdims=True)
    scale = (var_ + eps) ** -0.5
    xhat *= scale
    out = xhat
    parents = (x,)
    param_shape = None
    if weight is not None:
        param_shape = weight.data.shape
        w = weight.data.reshape(mu.shape)
        out = xhat * w
        out += bias.data.reshape(mu.shape)
        scale = scale * w
        parents = (x, weight, bias)
    count = x.data.size / mu.size

    def backward(grad):
        gsum = grad.sum(axis=axes, keepdims=True)
        gdot = (grad * xhat).sum(axis=axes, keepdims=True)
        gx = xhat * (gdot / -count)
        gx += grad
        gx -= gsum / count
        gx *= scale
        if param_shape is None:
            return (gx,)
        return gx, gdot.reshape(param_shape), gsum.reshape(param_shape)

    return Tensor._make(out, parents, backward), mu, var_


@profiled_op("logsumexp")
def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """log Σ e^x with the max-shift trick (overflow-safe)."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = np.exp(x.data - m)
    s = shifted.sum(axis=axis, keepdims=True)
    out_data = np.log(s) + m
    softmax_data = shifted / s
    in_shape = x.data.shape
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(grad):
        g = _restore_dims(grad, in_shape, axis, keepdims)
        return (g * softmax_data,)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("softmax")
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (max-shifted for stability)."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("log_softmax")
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably in one pass."""
    x = as_tensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    softmax_data = np.exp(out_data)

    def backward(grad):
        s = grad.sum(axis=axis, keepdims=True)
        return (grad - softmax_data * s,)

    return Tensor._make(out_data, (x,), backward)


def norm(x: Tensor, axis=None, keepdims: bool = False, eps: float = 1e-12) -> Tensor:
    """L2 norm, smoothed by ``eps`` so the gradient is finite at 0."""
    from repro.tensor.math_ops import sqrt

    x = as_tensor(x)
    return sqrt(sum_(x * x, axis=axis, keepdims=keepdims) + eps)


Tensor.sum = sum_
Tensor.mean = mean
Tensor.max = max_
Tensor.min = min_
Tensor.var = var
Tensor.norm = norm
