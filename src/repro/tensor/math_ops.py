"""Elementwise differentiable math for :class:`repro.tensor.Tensor`.

Each function builds a single tape node; backward closures capture only the
arrays they need (never the whole input tensor) so intermediate memory can
be freed as the tape unwinds.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.opprof import profiled_op
from repro.tensor.tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "abs_",
    "clip",
    "maximum",
    "minimum",
    "where",
]


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a scalar beside a tensor takes its dtype (see ``as_tensor``)."""
    if isinstance(a, Tensor):
        return a, as_tensor(b, like=a)
    if isinstance(b, Tensor):
        return as_tensor(a, like=b), b
    return as_tensor(a), as_tensor(b)


def exp(x: Tensor) -> Tensor:
    """Elementwise e^x."""
    x = as_tensor(x)
    out_data = np.exp(x.data)

    def backward(grad):
        return (grad * out_data,)

    return Tensor._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    x = as_tensor(x)
    x_data = x.data

    def backward(grad):
        return (grad / x_data,)

    return Tensor._make(np.log(x_data), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    x = as_tensor(x)
    out_data = np.sqrt(x.data)

    def backward(grad):
        return (grad * 0.5 / out_data,)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("tanh")
def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward(grad):
        return (grad * (1.0 - out_data * out_data),)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("sigmoid")
def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid (numerically stable)."""
    x = as_tensor(x)
    # Numerically stable sigmoid: exponentiate only the negative magnitude
    # (σ(x) = e^{-|x|·[x<0]} / (1 + e^{-|x|}) in both branches).
    d = x.data
    z = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def backward(grad):
        return (grad * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("relu")
def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    x = as_tensor(x)
    out_data = np.maximum(x.data, 0.0)

    def backward(grad):
        return (grad * (out_data > 0),)

    return Tensor._make(out_data, (x,), backward)


@profiled_op("leaky_relu")
def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Elementwise leaky ReLU: x if x>0 else slope·x."""
    x = as_tensor(x)
    mask = x.data > 0
    out_data = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad):
        return (np.where(mask, grad, negative_slope * grad),)

    return Tensor._make(out_data, (x,), backward)


def abs_(x: Tensor) -> Tensor:
    """|x| with the subgradient sign(x) at 0."""
    x = as_tensor(x)
    sign = np.sign(x.data)

    def backward(grad):
        return (grad * sign,)

    return Tensor._make(np.abs(x.data), (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient is passed through inside the interval."""
    x = as_tensor(x)
    mask = (x.data >= lo) & (x.data <= hi)

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(np.clip(x.data, lo, hi), (x,), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties send the full gradient to ``a``."""
    a, b = _pair(a, b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a_shape),
            unbroadcast(grad * ~take_a, b_shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties send the full gradient to ``a``."""
    a, b = _pair(a, b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a_shape),
            unbroadcast(grad * ~take_a, b_shape),
        )

    return Tensor._make(out_data, (a, b), backward)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select on a boolean (non-differentiable) condition."""
    a, b = _pair(a, b)
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad):
        return (
            unbroadcast(grad * cond, a_shape),
            unbroadcast(grad * ~cond, b_shape),
        )

    return Tensor._make(out_data, (a, b), backward)


# Attach as methods for fluent use.
Tensor.exp = exp
Tensor.log = log
Tensor.sqrt = sqrt
Tensor.tanh = tanh
Tensor.sigmoid = sigmoid
Tensor.relu = relu
Tensor.abs = abs_
Tensor.clip = clip
