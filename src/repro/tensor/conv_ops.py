"""Convolution and pooling kernels (im2col lowering, fully vectorized).

The convolution lowers the whole minibatch into one column matrix
(``im2col``: ``kh·kw`` strided window copies, no index arrays) and runs
the forward pass, the weight gradient and the column gradient as one GEMM
each; ``col2im`` and the average-pool backward are ``kh·kw`` strided
slice-adds, and max-pool routes every window's gradient with one
``np.bincount``.  Nothing here gathers through index arrays or scatters
through ``ufunc.at`` — every pass is a strided copy, a BLAS call, an
elementwise ufunc over a view or a sequential histogram.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.opprof import profiled_op
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "conv2d",
    "depthwise_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
    "im2col",
    "col2im",
]


def _pad(x: np.ndarray, padding: int, fill: float = 0.0) -> np.ndarray:
    """``x`` with ``padding`` cells of ``fill`` around the two spatial axes."""
    if not padding:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * padding, w + 2 * padding), fill, dtype=x.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def _unpad(x: np.ndarray, padding: int) -> np.ndarray:
    return x[:, :, padding:-padding, padding:-padding] if padding else x


def _cell(x: np.ndarray, a: int, b: int, out_h: int, out_w: int, stride: int) -> np.ndarray:
    """View of window cell ``(a, b)`` of every output position: ``(N, C, out_h, out_w)``."""
    return x[:, :, a : a + stride * out_h : stride, b : b + stride * out_w : stride]


def _out_size(size: int, k: int, stride: int) -> int:
    return (size - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Lower NCHW ``x`` into a ``(C*kh*kw, N*L)`` column matrix, ``L = out_h*out_w``.

    Row ``c*kh*kw + a*kw + b`` holds cell ``(a, b)`` of channel ``c`` for
    every window of every sample, so a convolution is one
    ``(F, C*kh*kw) @ (C*kh*kw, N*L)`` GEMM.  A 1×1/stride-1 kernel is a
    single channel-major transpose of ``x``.
    """
    n, c, h, w = x.shape
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)
    channel_major = x.transpose(1, 0, 2, 3)
    if kh == kw == stride == 1:
        return channel_major.reshape(c, n * h * w), out_h, out_w
    cols = np.empty((c, kh, kw, n, out_h, out_w), dtype=x.dtype)
    for a in range(kh):
        for b in range(kw):
            cols[:, a, b] = _cell(channel_major, a, b, out_h, out_w, stride)
    return cols.reshape(c * kh * kw, n * out_h * out_w), out_h, out_w


def col2im(cols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: add each column row back onto its window cell.

    Cells are added in ascending ``(a, b)`` order, so every pixel sums its
    contributions in the same order a scatter-add over the column index
    would — the result is independent of how the columns were produced.
    """
    n, c, h, w = x_shape
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)
    if kh == kw == stride == 1:
        return np.ascontiguousarray(cols.reshape(c, n, h, w).transpose(1, 0, 2, 3))
    cols = cols.reshape(c, kh, kw, n, out_h, out_w)
    out = np.zeros(x_shape, dtype=cols.dtype)
    for a in range(kh):
        for b in range(kw):
            cell = _cell(out, a, b, out_h, out_w, stride)
            np.add(cell, cols[:, a, b].transpose(1, 0, 2, 3), out=cell)
    return out


def _lower(x: np.ndarray, weight: np.ndarray, stride: int, padding: int):
    """Pad ``x`` and lower it for ``weight``: ``(cols, out_h, out_w, padded_shape)``.

    Mixed precision (float32 images, float64 weights) is resolved here,
    before the ``kh·kw``-fold blow-up, not by the GEMMs after it.
    """
    dtype = np.result_type(x, weight)
    padded = _pad(x.astype(dtype, copy=False), padding)
    cols, out_h, out_w = im2col(padded, weight.shape[2], weight.shape[3], stride)
    return cols, out_h, out_w, padded.shape


def _to_nchw(mat: np.ndarray, n: int, out_h: int, out_w: int, bias: Tensor | None) -> np.ndarray:
    """``(F, N*L)`` GEMM output → contiguous ``(N, F, out_h, out_w)``, bias added in the same pass."""
    f = mat.shape[0]
    view = mat.reshape(f, n, out_h, out_w).transpose(1, 0, 2, 3)
    out = np.empty(view.shape, dtype=mat.dtype)
    if bias is None:
        np.copyto(out, view)
    else:
        np.add(view, bias.data.reshape(1, f, 1, 1), out=out)
    return out


def _to_mat(grad: np.ndarray) -> np.ndarray:
    """``(N, F, out_h, out_w)`` → ``(F, N*L)``, the layout of the column matrix."""
    return grad.transpose(1, 0, 2, 3).reshape(grad.shape[1], -1)


@profiled_op("conv2d")
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``; ``bias``
    (if given) has shape ``(out_channels,)``.  Gradients are computed only
    for the inputs that require them (the stem convolution never builds
    an image gradient).
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c = x.data.shape[:2]
    f, c_w, kh, kw = weight.data.shape
    if c_w != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, weight expects {c_w}")

    cols, out_h, out_w, padded_shape = _lower(x.data, weight.data, stride, padding)  # (CKK, N*L)
    w_mat = weight.data.reshape(f, -1)  # (F, CKK)
    out = _to_nchw(np.matmul(w_mat, cols), n, out_h, out_w, bias)

    w_shape = weight.data.shape
    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = bias is not None and bias.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_mat = _to_mat(grad)  # (F, N*L)
        gx = gw = gb = None
        if need_w:
            gw = np.matmul(grad_mat, cols.T).reshape(w_shape)
        if need_b:
            gb = grad.sum(axis=(0, 2, 3))
        if need_x:
            gcols = np.matmul(w_mat.T, grad_mat)
            gx = _unpad(col2im(gcols, padded_shape, kh, kw, stride), padding)
        return (gx, gw) if bias is None else (gx, gw, gb)

    return Tensor._make(out, parents, backward)


@profiled_op("depthwise_conv2d")
def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution: one kernel per channel.

    ``weight`` has shape ``(channels, 1, kh, kw)``.  Lowered through the
    same column matrix as :func:`conv2d` but contracted per channel (a
    batched matrix-vector product), so the cost is O(C·k²·L) instead of
    the O(C²·k²·L) a dense conv with a block-diagonal kernel would pay.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c = x.data.shape[:2]
    cw, one, kh, kw = weight.data.shape
    if cw != c or one != 1:
        raise ValueError(f"depthwise weight shape {weight.data.shape} mismatches {c} channels")

    cols, out_h, out_w, padded_shape = _lower(x.data, weight.data, stride, padding)
    cols = cols.reshape(c, kh * kw, -1)  # (C, kk, N*L)
    w_row = weight.data.reshape(c, 1, kh * kw)
    out = _to_nchw(np.matmul(w_row, cols).reshape(c, -1), n, out_h, out_w, bias)

    w_shape = weight.data.shape
    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = bias is not None and bias.requires_grad
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_row = _to_mat(grad).reshape(c, 1, -1)  # (C, 1, N*L)
        gx = gw = gb = None
        if need_w:
            gw = np.matmul(cols, grad_row.transpose(0, 2, 1)).reshape(w_shape)
        if need_b:
            gb = grad.sum(axis=(0, 2, 3))
        if need_x:
            gcols = w_row.transpose(0, 2, 1) * grad_row  # (C, kk, N*L)
            gx = _unpad(col2im(gcols, padded_shape, kh, kw, stride), padding)
        return (gx, gw) if bias is None else (gx, gw, gb)

    return Tensor._make(out, parents, backward)


@profiled_op("max_pool2d")
def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over NCHW; gradient routes to the argmax of each window.

    The forward pass is a running maximum over the ``k·k`` window cells;
    which cell won (the first maximal one in raster order, as ``argmax``)
    is only worked out if a backward pass runs.
    """
    x = as_tensor(x)
    if stride is None:
        stride = kernel_size
    # Pad with -inf so padded cells never win the max.
    padded = _pad(x.data, padding, -np.inf)
    n, c, h, w = padded.shape
    out_h, out_w = _out_size(h, kernel_size, stride), _out_size(w, kernel_size, stride)
    cells = [(a, b) for a in range(kernel_size) for b in range(kernel_size)]

    out = _cell(padded, 0, 0, out_h, out_w, stride).copy()
    for a, b in cells[1:]:
        np.maximum(out, _cell(padded, a, b, out_h, out_w, stride), out=out)

    def backward(grad):
        # Flat offset a*w + b of each window's first maximal cell.  Offsets
        # grow in raster order, so "first" is the smallest offset among the
        # maximal cells: a running max of ``is_max * (big - offset)``.
        big = np.int32(kernel_size * w)
        lead = np.zeros(out.shape, dtype=np.int32)
        is_max = np.empty(out.shape, dtype=bool)
        score = np.empty(out.shape, dtype=np.int32)
        for a, b in cells:
            np.equal(_cell(padded, a, b, out_h, out_w, stride), out, out=is_max)
            np.multiply(is_max, big - np.int32(a * w + b), out=score)
            np.maximum(lead, score, out=lead)
        # a window holding a NaN has no maximal cell (scores are >= 1):
        # route it to its first cell so the NaN still propagates in bounds
        np.putmask(lead, lead == 0, big)
        # flat index into ``padded`` of every window's top-left cell, + big
        corner = (
            np.arange(0, n * c * h * w, h * w).reshape(n, c, 1, 1)
            + np.arange(0, stride * out_h * w, stride * w).reshape(out_h, 1)
            + (np.arange(0, stride * out_w, stride) + big)
        )
        # one sequential histogram pass: each window adds its gradient onto
        # its winning cell, windows in raster order (so overlapping windows
        # accumulate per pixel in the order a scatter-add would)
        target = (corner - lead).ravel()
        gx = np.bincount(target, weights=grad.ravel(), minlength=padded.size)
        return (_unpad(gx.astype(grad.dtype, copy=False).reshape(padded.shape), padding),)

    return Tensor._make(out, (x,), backward)


@profiled_op("avg_pool2d")
def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW (count includes padding cells, as PyTorch)."""
    x = as_tensor(x)
    if stride is None:
        stride = kernel_size
    padded = _pad(x.data, padding)
    kh = kw = kernel_size
    h, w = padded.shape[2:]
    out_h, out_w = _out_size(h, kh, stride), _out_size(w, kw, stride)

    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    out = windows[:, :, ::stride, ::stride].mean(axis=(-1, -2))

    padded_shape = padded.shape
    scale = 1.0 / (kh * kw)

    def backward(grad):
        g = grad * scale
        gx = np.zeros(padded_shape, dtype=grad.dtype)
        # descending cells: same per-pixel order as max_pool2d's backward
        for a in range(kh - 1, -1, -1):
            for b in range(kw - 1, -1, -1):
                cell = _cell(gx, a, b, out_h, out_w, stride)
                np.add(cell, g, out=cell)
        return (_unpad(gx, padding),)

    return Tensor._make(out, (x,), backward)


@profiled_op("adaptive_avg_pool2d", backward=False)
def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling to an ``output_size × output_size`` grid.

    Bins follow the PyTorch convention: bin i spans
    ``[⌊i·H/s⌋, ⌈(i+1)·H/s⌉)``; bins may overlap when H is not a multiple
    of s.  ``output_size=1`` is global average pooling.
    """
    x = as_tensor(x)
    n, c, h, w = x.data.shape
    s = output_size
    if s == 1:
        out = x.data.mean(axis=(2, 3), keepdims=True)
        scale = 1.0 / (h * w)

        def backward(grad):
            return (np.broadcast_to(grad, (n, c, h, w)) * scale,)

        return Tensor._make(out, (x,), backward)

    # s may exceed the spatial dims — bins then overlap/repeat pixels,
    # matching PyTorch's adaptive pooling semantics.
    h_starts = (np.arange(s) * h) // s
    h_ends = -(-(np.arange(1, s + 1) * h) // s)  # ceil division
    w_starts = (np.arange(s) * w) // s
    w_ends = -(-(np.arange(1, s + 1) * w) // s)

    out = np.empty((n, c, s, s), dtype=x.data.dtype)
    for i in range(s):
        for j in range(s):
            out[:, :, i, j] = x.data[
                :, :, h_starts[i] : h_ends[i], w_starts[j] : w_ends[j]
            ].mean(axis=(2, 3))
    in_shape = x.data.shape

    def backward(grad):
        gx = np.zeros(in_shape, dtype=grad.dtype)
        for i in range(s):
            for j in range(s):
                count = int((h_ends[i] - h_starts[i]) * (w_ends[j] - w_starts[j]))
                gx[:, :, h_starts[i] : h_ends[i], w_starts[j] : w_ends[j]] += (
                    grad[:, :, i : i + 1, j : j + 1] / count
                )
        return (gx,)

    return Tensor._make(out, (x,), backward)
