"""Proximal regularizers pulling local weights toward global weights.

``proximal_l2`` implements FedClassAvg Eq. (5): the L2 distance between
the client classifier and the broadcast global classifier.  The same
function (with ``squared=True``) gives the FedProx term over full model
weights.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, concat, sqrt

__all__ = ["proximal_l2", "l2_distance_state"]


def proximal_l2(params, reference: dict[str, np.ndarray] | list[np.ndarray], squared: bool = False) -> Tensor:
    """Proximal term between live parameters and constant reference weights.

    Parameters
    ----------
    params:
        Iterable of Parameters, or (name, Parameter) pairs.
    reference:
        Either a state-dict keyed like ``named_parameters`` or a list of
        arrays aligned with ``params``.
    squared:
        If True return ‖w − w_ref‖²; otherwise the paper's ‖w − w_ref‖₂.
    """
    pairs = []
    params = list(params)
    if params and isinstance(params[0], tuple):
        names = [n for n, _ in params]
        tensors = [p for _, p in params]
        if isinstance(reference, dict):
            refs = [reference[n] for n in names]
        else:
            refs = list(reference)
    else:
        tensors = params
        if isinstance(reference, dict):
            raise TypeError("dict reference requires (name, param) pairs")
        refs = list(reference)
    if len(refs) != len(tensors):
        raise ValueError("reference count does not match parameter count")
    for p, r in zip(tensors, refs):
        diff = p - Tensor(np.asarray(r, dtype=p.dtype))
        pairs.append((diff * diff).sum().reshape(1))
    total = concat(pairs, axis=0).sum()
    if squared:
        return total
    return sqrt(total + 1e-12)


def l2_distance_state(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> float:
    """Plain (non-differentiable) L2 distance between two state dicts."""
    total = 0.0
    for name, arr in a.items():
        total += float(((arr - b[name]) ** 2).sum())
    return float(np.sqrt(total))
