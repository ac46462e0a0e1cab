"""From-scratch reverse-mode autograd over NumPy arrays.

This subpackage replaces the PyTorch substrate the paper used (see
DESIGN.md §2): a ``Tensor`` type with a define-by-run tape, vectorized
elementwise/reduction ops, and im2col + GEMM convolution kernels.

Importing this package wires the op modules' methods onto ``Tensor``.
"""

from repro.tensor.autograd import enable_grad, is_grad_enabled, no_grad
from repro.tensor.tensor import Tensor, as_tensor, unbroadcast

# Import for the side effect of attaching methods to Tensor.
from repro.tensor import math_ops as _math_ops  # noqa: F401
from repro.tensor import shape_ops as _shape_ops  # noqa: F401
from repro.tensor import reductions as _reductions  # noqa: F401

from repro.tensor.math_ops import (
    abs_,
    clip,
    exp,
    leaky_relu,
    log,
    maximum,
    minimum,
    relu,
    sigmoid,
    sqrt,
    tanh,
    where,
)
from repro.tensor.shape_ops import concat, flatten, getitem, pad2d, repeat, reshape, stack, transpose
from repro.tensor.reductions import (
    log_softmax,
    logsumexp,
    max_,
    mean,
    min_,
    norm,
    softmax,
    standardize,
    sum_,
    var,
)
from repro.tensor.conv_ops import (
    adaptive_avg_pool2d,
    avg_pool2d,
    col2im,
    conv2d,
    depthwise_conv2d,
    im2col,
    max_pool2d,
)
from repro.tensor.gradcheck import gradcheck, numerical_grad

__all__ = [
    "Tensor",
    "as_tensor",
    "unbroadcast",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
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
    "reshape",
    "transpose",
    "flatten",
    "concat",
    "stack",
    "pad2d",
    "getitem",
    "repeat",
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
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "im2col",
    "col2im",
    "gradcheck",
    "numerical_grad",
]
