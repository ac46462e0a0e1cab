"""Test-only oracle for the convolution, pooling and BatchNorm kernels.

This is the lowering the repo shipped before the strided rewrite, kept as
the reference the fast kernels are checked against: a fancy-index
``im2col`` gather into ``(N, C*kh*kw, L)`` columns, an ``np.add.at``
``col2im`` / pooling scatter, ``einsum`` contractions, and a BatchNorm
composed from differentiable primitives.  Nothing under ``src/`` imports
it.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor


def col_indices(channels: int, height: int, width: int, kh: int, kw: int, stride: int):
    """(k, i, j) gather indices, each ``(C*kh*kw, out_h*out_w)``."""
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    return k, i, j, out_h, out_w


def im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """Gather NCHW ``x`` into ``(N, C*kh*kw, L)`` columns."""
    k, i, j, out_h, out_w = col_indices(*x.shape[1:], kh, kw, stride)
    return x[:, k, i, j], out_h, out_w


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Scatter-add ``(N, C*kh*kw, L)`` columns back into an image."""
    k, i, j, _, _ = col_indices(*x_shape[1:], kh, kw, stride)
    out = np.zeros(x_shape, dtype=cols.dtype)
    np.add.at(out, (slice(None), k, i, j), cols)
    return out


def to_batched(cols: np.ndarray, n: int) -> np.ndarray:
    """The fast kernels' ``(C*kh*kw, N*L)`` matrix in this module's ``(N, C*kh*kw, L)`` layout."""
    return cols.reshape(cols.shape[0], n, -1).transpose(1, 0, 2)


def to_matrix(cols: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_batched`."""
    return cols.transpose(1, 0, 2).reshape(cols.shape[1], -1)


def _pad(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    pads = [(0, 0), (0, 0), (padding, padding), (padding, padding)]
    return np.pad(x, pads, constant_values=value)


def _unpad(g: np.ndarray, padding: int) -> np.ndarray:
    return g[:, :, padding : g.shape[2] - padding, padding : g.shape[3] - padding]


def conv2d(x, w, b, stride, padding, grad=None):
    """Forward output and, given ``grad``, ``(gx, gw, gb)`` of a dense convolution."""
    xp = _pad(x, padding)
    n = x.shape[0]
    f, _, kh, kw = w.shape
    cols, out_h, out_w = im2col(xp, kh, kw, stride)
    w_mat = w.reshape(f, -1)
    out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True).reshape(n, f, out_h, out_w)
    if b is not None:
        out = out + b.reshape(1, f, 1, 1)
    if grad is None:
        return out
    grad_mat = grad.reshape(n, f, out_h * out_w)
    gw = np.einsum("nfl,nkl->fk", grad_mat, cols, optimize=True).reshape(w.shape)
    gcols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
    gx = _unpad(col2im(gcols, xp.shape, kh, kw, stride), padding)
    return out, gx, gw, grad.sum(axis=(0, 2, 3))


def depthwise_conv2d(x, w, b, stride, padding, grad=None):
    """Forward output and, given ``grad``, ``(gx, gw, gb)`` of a depthwise convolution."""
    xp = _pad(x, padding)
    n, c = x.shape[:2]
    kh, kw = w.shape[2:]
    cols, out_h, out_w = im2col(xp, kh, kw, stride)
    cols_g = cols.reshape(n, c, kh * kw, out_h * out_w)
    w_mat = w.reshape(c, kh * kw)
    out = np.einsum("ck,nckl->ncl", w_mat, cols_g, optimize=True).reshape(n, c, out_h, out_w)
    if b is not None:
        out = out + b.reshape(1, c, 1, 1)
    if grad is None:
        return out
    grad_mat = grad.reshape(n, c, out_h * out_w)
    gw = np.einsum("ncl,nckl->ck", grad_mat, cols_g, optimize=True).reshape(w.shape)
    gcols = np.einsum("ck,ncl->nckl", w_mat, grad_mat, optimize=True)
    gx = col2im(gcols.reshape(n, c * kh * kw, out_h * out_w), xp.shape, kh, kw, stride)
    return out, _unpad(gx, padding), gw, grad.sum(axis=(0, 2, 3))


def max_pool2d(x, kernel_size, stride, padding, grad=None):
    """Window-copy + ``argmax`` forward; ``np.add.at`` routing to the argmax on backward."""
    xp = _pad(x, padding, -np.inf)
    n, c, h, w = xp.shape
    kh = kw = kernel_size
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    flat = windows[:, :, ::stride, ::stride].reshape(n, c, out_h, out_w, kh * kw)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    if grad is None:
        return out
    a, b = np.unravel_index(idx, (kh, kw))
    hh = (np.arange(out_h) * stride).reshape(1, 1, out_h, 1) + a
    ww = (np.arange(out_w) * stride).reshape(1, 1, 1, out_w) + b
    gx = np.zeros(xp.shape, dtype=grad.dtype)
    np.add.at(gx, (np.arange(n).reshape(n, 1, 1, 1), np.arange(c).reshape(1, c, 1, 1), hh, ww), grad)
    return out, _unpad(gx, padding)


def avg_pool2d(x, kernel_size, stride, padding, grad=None):
    """Window-mean forward; ``np.add.at`` spread of ``grad / k²`` on backward."""
    xp = _pad(x, padding)
    n, c, h, w = xp.shape
    kh = kw = kernel_size
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    out = windows[:, :, ::stride, ::stride].mean(axis=(-1, -2))
    if grad is None:
        return out
    hh = (np.arange(out_h) * stride)[:, None] + np.arange(kh)[None, :]
    ww = (np.arange(out_w) * stride)[:, None] + np.arange(kw)[None, :]
    gx = np.zeros(xp.shape, dtype=grad.dtype)
    np.add.at(
        gx,
        (
            np.arange(n).reshape(n, 1, 1, 1, 1, 1),
            np.arange(c).reshape(1, c, 1, 1, 1, 1),
            hh.reshape(1, 1, out_h, 1, kh, 1),
            ww.reshape(1, 1, 1, out_w, 1, kw),
        ),
        (grad * (1.0 / (kh * kw)))[..., None, None],
    )
    return out, _unpad(gx, padding)


def batch_norm(
    x: Tensor,
    weight: Tensor | None,
    bias: Tensor | None,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    axes: tuple,
    eps: float = 1e-5,
    momentum: float = 0.1,
):
    """BatchNorm composed from tape primitives (eleven nodes in training mode).

    Returns ``(out, new_running_mean, new_running_var)``.
    """
    shape = [1] * x.ndim
    shape[1] = num_features = x.shape[1]
    if training:
        mu = x.mean(axis=axes, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=axes, keepdims=True)
        n = x.data.size / num_features
        unbiased = var.data.reshape(num_features) * (n / max(1.0, n - 1))
        running_mean = (1 - momentum) * running_mean + momentum * mu.data.reshape(num_features)
        running_var = (1 - momentum) * running_var + momentum * unbiased
        out = centered * (var + eps) ** -0.5
    else:
        std = np.sqrt(running_var.reshape(shape) + eps)
        out = (x - Tensor(running_mean.reshape(shape))) * Tensor(1.0 / std)
    if weight is not None:
        out = out * weight.reshape(shape) + bias.reshape(shape)
    return out, running_mean, running_var
