"""Shape-manipulation ops: reshape, transpose, slicing, concat, pad.

These are the zero-FLOP ops; backward passes are pure index bookkeeping.
Views are used where NumPy allows (reshape/transpose return views of the
forward data), per the "views, not copies" guidance.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["reshape", "transpose", "flatten", "concat", "stack", "pad2d", "getitem", "repeat"]


def reshape(x: Tensor, *shape) -> Tensor:
    """Reshape to ``shape`` (a view on forward; index-exact backward)."""
    x = as_tensor(x)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old_shape = x.data.shape

    def backward(grad):
        return (grad.reshape(old_shape),)

    return Tensor._make(x.data.reshape(shape), (x,), backward)


def transpose(x: Tensor, axes=None) -> Tensor:
    """Permute axes (default: reverse all axes)."""
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(grad):
        return (grad.transpose(inverse),)

    return Tensor._make(x.data.transpose(axes), (x,), backward)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    """Collapse all dims from ``start_dim`` onward into one."""
    x = as_tensor(x)
    shape = x.data.shape
    new_shape = shape[:start_dim] + (-1,)
    return reshape(x, new_shape)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, splits, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return Tensor._make(out_data, tuple(tensors), backward)


def pad2d(x: Tensor, padding: int | tuple) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    x = as_tensor(x)
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    pads = [(0, 0)] * (x.data.ndim - 2) + [(ph, ph), (pw, pw)]
    out_data = np.pad(x.data, pads)
    h, w = x.data.shape[-2], x.data.shape[-1]

    def backward(grad):
        sl = (Ellipsis, slice(ph, ph + h), slice(pw, pw + w))
        return (grad[sl],)

    return Tensor._make(out_data, (x,), backward)


def _is_basic_index(idx) -> bool:
    """True for slices, ints, ``...`` and ``None`` — indices that never repeat an element."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        p is None or p is Ellipsis or isinstance(p, (slice, int, np.integer)) for p in parts
    )


def getitem(x: Tensor, idx) -> Tensor:
    """Differentiable indexing/slicing.

    Basic indices select each element at most once, so the backward pass
    is a plain assignment into zeros; only advanced (array) indices, which
    may repeat elements, need the scatter-add.
    """
    x = as_tensor(x)
    out_data = x.data[idx]
    in_shape = x.data.shape
    basic = _is_basic_index(idx)

    def backward(grad):
        g = np.zeros(in_shape, dtype=grad.dtype)
        if basic:
            g[idx] = grad
        else:
            np.add.at(g, idx, grad)
        return (g,)

    return Tensor._make(out_data, (x,), backward)


def repeat(x: Tensor, repeats: int, axis: int) -> Tensor:
    """np.repeat along one axis; backward sums the repeated copies."""
    x = as_tensor(x)
    out_data = np.repeat(x.data, repeats, axis=axis)
    n = x.data.shape[axis]

    def backward(grad):
        new_shape = list(grad.shape)
        new_shape[axis] = n
        new_shape.insert(axis + 1, repeats)
        return (grad.reshape(new_shape).sum(axis=axis + 1),)

    return Tensor._make(out_data, (x,), backward)


Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.flatten = flatten
Tensor.__getitem__ = getitem

# .T property for 2-D convenience
Tensor.T = property(lambda self: transpose(self))
