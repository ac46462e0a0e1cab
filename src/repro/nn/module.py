"""Module system: parameter registration, state dicts, train/eval mode.

``Module`` mirrors the PyTorch contract the paper's implementation relies
on: attribute assignment auto-registers parameters, buffers, and
submodules; ``state_dict``/``load_state_dict`` move weights in and out as
plain NumPy arrays (which is also what crosses the simulated network in
federated training).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a :class:`Module`."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)
        # Parameters must stay trainable even if constructed under no_grad
        # (e.g. when a model is built inside an evaluation context).
        self.requires_grad = True


class Module:
    """Base class for all neural-network layers and containers."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            # Re-assigning a registered name with a non-matching type
            # unregisters it so stale entries never linger.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer's contents (keeps registration)."""
        arr = np.asarray(value)
        self._buffers[name] = arr
        object.__setattr__(self, name, arr)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mod_name + ".")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for mod_name, mod in self._modules.items():
            yield from mod.named_buffers(prefix + mod_name + ".")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, mod in self._modules.items():
            yield from mod.named_modules(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot all parameters and buffers as copied NumPy arrays."""
        out: dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for name, b in self.named_buffers():
            out[name] = b.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters/buffers in place from ``state``."""
        params = dict(self.named_parameters())
        seen = set()
        for name, p in params.items():
            if name in state:
                arr = np.asarray(state[name], dtype=p.data.dtype)
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: expected {p.data.shape}, got {arr.shape}"
                    )
                p.data[...] = arr
                seen.add(name)
            elif strict:
                raise KeyError(f"missing parameter in state dict: {name}")
        # buffers live on the owning module; walk modules to set them
        for mod_name, mod in self.named_modules():
            for buf_name in list(mod._buffers):
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                if full in state:
                    # like a parameter, a buffer keeps the dtype the module holds it in
                    mod._set_buffer(
                        buf_name, np.array(state[full], dtype=mod._buffers[buf_name].dtype)
                    )
                    seen.add(full)
                elif strict:
                    raise KeyError(f"missing buffer in state dict: {full}")
        if strict:
            extra = set(state) - seen
            if extra:
                raise KeyError(f"unexpected keys in state dict: {sorted(extra)}")

    # ------------------------------------------------------------------
    # modes / grads
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def astype(self, dtype) -> "Module":
        """Cast every parameter and float buffer to ``dtype`` in place.

        Only ``.data`` is swapped: each :class:`Parameter` object keeps its
        identity, so an optimizer built before the cast still steps the
        right arrays (its moments are allocated like ``p.data`` on the
        first step).  Integer buffers keep their dtype; stale gradients
        are dropped.  The ops return the dtype they are given, so this is
        what decides the precision a model trains in.
        """
        dtype = np.dtype(dtype)
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None
        for mod in self.modules():
            for name, buf in list(mod._buffers.items()):
                if buf.dtype.kind == "f":
                    mod._set_buffer(name, buf.astype(dtype, copy=False))
        return self

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
