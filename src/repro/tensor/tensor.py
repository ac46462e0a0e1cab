"""Core reverse-mode autograd tensor.

``Tensor`` wraps a NumPy array and records a define-by-run tape: every
differentiable operation produces a new ``Tensor`` whose ``_backward``
closure knows how to push gradients to its parents.  ``Tensor.backward``
runs a topological sort over the tape and accumulates gradients into
``.grad`` (a plain ``numpy.ndarray``).

All arithmetic supports NumPy broadcasting; gradients are un-broadcast
(summed over broadcast axes) before accumulation so shapes always match
the parent data.

The engine is deliberately small and fully vectorized — per the
scientific-Python optimization guidance, inner loops live in NumPy
kernels (e.g. the strided-copy im2col + GEMM convolution in
:mod:`repro.tensor.conv_ops`), never in Python element loops.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import memprof as _memprof
from repro.telemetry.opprof import profiled_op
from repro.tensor.autograd import is_grad_enabled

__all__ = ["Tensor", "unbroadcast", "as_tensor"]


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape``.

    NumPy broadcasting can add leading axes and stretch size-1 axes; the
    adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out added leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an autograd tape.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Integer inputs are upcast to the
        default float dtype because gradients are only defined on floats.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    # __weakref__ lets the memory profiler observe frees without keeping
    # tensors alive (weakref.finalize needs a referenceable instance)
    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_prev", "name", "_owns_grad", "__weakref__"
    )

    default_dtype = np.float64

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype.kind in "iub":
            arr = arr.astype(self.default_dtype)
        self.data = arr
        self.grad = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._prev: tuple = ()
        self.name = name
        mem = _memprof._ACTIVE
        if mem is not None:
            mem.on_alloc(self, arr.nbytes)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # tape construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _make(cls, data: np.ndarray, parents, backward) -> "Tensor":
        """Create an op output tensor.

        ``parents`` is an iterable of input Tensors; ``backward`` is a
        closure ``f(grad) -> tuple_of_parent_grads`` aligned with
        ``parents``.  Gradient tracking is skipped entirely when no parent
        requires grad or when grad mode is disabled.
        """
        parents = tuple(p for p in parents if isinstance(p, cls))
        out = cls(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add one consumer's gradient; nothing is copied or cast here.

        The first contribution is kept by reference — a closure may hand
        the same array to several parents, so it is never written to.  A
        second one allocates the sum, which this tensor then owns and
        adds later contributions into.
        """
        if self.grad is None:
            self.grad = grad
            self._owns_grad = False
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._owns_grad = True

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (so ``loss.backward()`` on a scalar works
        as expected).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS — deep networks would blow Python's recursion limit.
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        mem = _memprof._ACTIVE
        if mem is not None:
            # the tape retains every tensor in the topological order until
            # this pass releases it — the backward-graph high-water mark
            mem.on_backward_graph(sum(node.data.nbytes for node in topo))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            if not isinstance(grads, tuple):
                grads = (grads,)
            for parent, g in zip(node._prev, grads):
                if parent.requires_grad and g is not None:
                    parent._accumulate(g)
            # Free the closure + intermediate grad to keep memory flat
            # across training iterations.
            if node is not self:
                node.grad = None
            node._backward = None
            node._prev = ()

    # ------------------------------------------------------------------
    # arithmetic ops (each builds a tape node)
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data + other.data

        def backward(grad):
            return (
                unbroadcast(grad, self.data.shape),
                unbroadcast(grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data - other.data

        def backward(grad):
            return (
                unbroadcast(grad, self.data.shape),
                unbroadcast(-grad, other.data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other, like=self) - self

    def __mul__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data * other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (
                unbroadcast(grad * b_data, a_data.shape),
                unbroadcast(grad * a_data, b_data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data / other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            return (
                unbroadcast(grad / b_data, a_data.shape),
                unbroadcast(-grad * a_data / (b_data * b_data), b_data.shape),
            )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other, like=self) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        base = self.data

        def backward(grad):
            return (grad * exponent * base ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    @profiled_op("matmul")
    def __matmul__(self, other):
        other = as_tensor(other, like=self)
        out_data = self.data @ other.data
        a_data, b_data = self.data, other.data

        def backward(grad):
            if a_data.ndim == 1 and b_data.ndim == 1:
                return grad * b_data, grad * a_data
            if b_data.ndim == 1:
                # (..., n) @ (n,) -> (...,)
                ga = np.multiply.outer(grad, b_data)
                gb = np.tensordot(grad, a_data, axes=(range(grad.ndim), range(grad.ndim)))
                return unbroadcast(ga, a_data.shape), unbroadcast(gb, b_data.shape)
            if a_data.ndim == 1:
                # (n,) @ (n, m) -> (m,)
                ga = grad @ b_data.T
                gb = np.outer(a_data, grad)
                return unbroadcast(ga, a_data.shape), unbroadcast(gb, b_data.shape)
            ga = grad @ np.swapaxes(b_data, -1, -2)
            gb = np.swapaxes(a_data, -1, -2) @ grad
            return unbroadcast(ga, a_data.shape), unbroadcast(gb, b_data.shape)

        return Tensor._make(out_data, (self, other), backward)

    # comparisons return plain boolean arrays (non-differentiable)
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)


def _raw(x):
    return x.data if isinstance(x, Tensor) else x


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (no copy when already one).

    ``like`` is the tensor ``x`` is about to be combined with.  A Python
    scalar or an integer/boolean array carries no precision of its own, so
    it takes ``like``'s dtype: ``x * 0.5`` and ``x + 1`` return ``x.dtype``
    (left to NumPy, the 0-d float64 array a scalar becomes would promote a
    float32 ``x``).  A float array keeps the dtype it was given.
    """
    if isinstance(x, Tensor):
        return x
    if like is not None and (isinstance(x, (int, float)) or np.asarray(x).dtype.kind in "iub"):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)
