"""Classification losses: cross-entropy and distillation KL."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, as_tensor, log_softmax, softmax
from repro.telemetry.opprof import profiled_op

__all__ = ["cross_entropy", "nll_loss", "kl_divergence", "soft_cross_entropy"]


def _pick_labels(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """``log_probs[i, targets[i]]`` for every row ``i``.

    One entry per row, so no entry is picked twice and the backward pass
    assigns into zeros — the general advanced index of ``getitem`` would
    pay a ``np.add.at`` scatter for repeats that cannot occur here.
    """
    shape = log_probs.data.shape
    rows = np.arange(shape[0])

    def backward(grad):
        g = np.zeros(shape, dtype=grad.dtype)
        g[rows, targets] = grad
        return (g,)

    return Tensor._make(log_probs.data[rows, targets], (log_probs,), backward)


@profiled_op("cross_entropy", backward=False)
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,)."""
    logits = as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match batch {n}")
    return -_pick_labels(log_softmax(logits, axis=-1), targets).mean()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood on already-log-softmaxed inputs."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != log_probs.shape[:1]:
        raise ValueError(f"targets shape {targets.shape} does not match batch {log_probs.shape[0]}")
    return -_pick_labels(log_probs, targets).mean()


def kl_divergence(student_logits: Tensor, teacher_probs: np.ndarray, temperature: float = 1.0) -> Tensor:
    """KL(teacher ‖ student) for knowledge distillation.

    ``teacher_probs`` is a constant probability matrix (already softened);
    the student is softened by ``temperature``.  The classic ``T^2``
    gradient-scale factor is applied so distillation and CE gradients are
    comparable across temperatures.
    """
    student_logits = as_tensor(student_logits)
    t = np.asarray(teacher_probs, dtype=student_logits.dtype)
    t = np.clip(t, 1e-12, 1.0)
    log_s = log_softmax(student_logits * (1.0 / temperature), axis=-1)
    # Σ t log t is constant; keep it so the loss is a true KL (≥ 0).
    const = float((t * np.log(t)).sum(axis=-1).mean())
    cross = (Tensor(t) * log_s).sum(axis=-1).mean()
    return (const - cross) * (temperature**2)


def soft_cross_entropy(student_logits: Tensor, teacher_probs: np.ndarray, temperature: float = 1.0) -> Tensor:
    """Cross-entropy against soft targets (KL without the constant entropy term)."""
    student_logits = as_tensor(student_logits)
    t = np.asarray(teacher_probs, dtype=student_logits.dtype)
    log_s = log_softmax(student_logits * (1.0 / temperature), axis=-1)
    return -(Tensor(t) * log_s).sum(axis=-1).mean() * (temperature**2)


def softmax_probs(logits: Tensor, temperature: float = 1.0) -> np.ndarray:
    """Convenience: detached softened probabilities of ``logits``."""
    return softmax(as_tensor(logits) * (1.0 / temperature), axis=-1).data
