"""In-process MPI-style communicator with exact byte accounting.

The paper ran 20 clients over MPICH across 15 GPU nodes; here the same
message pattern (server rank 0 ⇄ client ranks) runs in-process through
``SimComm``, whose API mirrors the mpi4py idioms the hpc-parallel guides
teach: lowercase ``send/recv`` for pickled Python objects plus
collectives (``bcast``, ``gather``, ``scatter``).

Every transfer is measured through :func:`repro.utils.state_dict_to_bytes`
(for state dicts) or pickle size (for generic objects), feeding the
:class:`CostModel` so Table 5's communication-cost comparison is an exact
measurement, not an estimate.
"""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np

from repro import telemetry
from repro.comm.cost import CostModel
from repro.utils.serialization import state_dict_to_bytes

__all__ = ["SimComm", "payload_nbytes", "to_wire"]


def to_wire(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A state dict as the paper's Table 5 counts it: float32 on the wire.

    That is the dtype PyTorch state_dicts use.  A federated client's
    weights — and the global classifier FedClassAvg broadcasts — already
    are float32, so for them this returns what it was given; it still
    casts what is reduced in float64 (FedProto's prototype sums, a
    hand-built float64 model) so every algorithm is counted alike.
    """
    return {k: v.astype(np.float32) if v.dtype == np.float64 else v for k, v in state.items()}


def payload_nbytes(obj) -> int:
    """Wire size of a message payload.

    State dicts (str → ndarray mappings) are cast to fp32 and use the
    compact binary format; anything else is measured as its pickle.  An
    empty dict is a (degenerate) state dict and measures as the wire
    format's fixed header, not as a pickle.
    """
    if isinstance(obj, dict) and all(
        isinstance(k, str) and isinstance(v, np.ndarray) for k, v in obj.items()
    ):
        return len(state_dict_to_bytes(to_wire(obj)))
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class SimComm:
    """Simulated communicator over ``size`` ranks (rank 0 = server).

    Messages are deep-copied through pickle so no accidental shared-memory
    aliasing can leak state between "nodes" — the same isolation a real
    MPI deployment enforces.
    """

    def __init__(self, size: int, cost_model: CostModel | None = None, copy_payloads: bool = True):
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self.size = size
        self.cost = cost_model or CostModel()
        self.copy_payloads = copy_payloads
        # mailbox[dst] = deque of (src, tag, payload)
        self._mailboxes: list[deque] = [deque() for _ in range(size)]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")

    def send(self, obj, src: int, dst: int, tag: int = 0) -> None:
        """Enqueue ``obj`` from ``src`` to ``dst`` and account its bytes."""
        self._check_rank(src)
        self._check_rank(dst)
        nbytes = payload_nbytes(obj)
        self.cost.record(src, dst, nbytes)
        if self.copy_payloads:
            obj = pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        self._mailboxes[dst].append((src, tag, obj))

    def recv(self, dst: int, src: int | None = None, tag: int | None = None):
        """Dequeue the first matching message for ``dst``.

        Raises ``LookupError`` when no matching message is queued (the
        in-process simulation never blocks).
        """
        self._check_rank(dst)
        box = self._mailboxes[dst]
        for i, (s, t, obj) in enumerate(box):
            if (src is None or s == src) and (tag is None or t == tag):
                del box[i]
                return obj
        raise LookupError(f"no message for rank {dst} from {src} tag {tag}")

    def pending(self, dst: int) -> int:
        """Number of queued messages for ``dst``."""
        self._check_rank(dst)
        return len(self._mailboxes[dst])

    # ------------------------------------------------------------------
    # collectives (root-based, matching mpi4py semantics)
    # ------------------------------------------------------------------
    def bcast(self, obj, root: int = 0, ranks: list[int] | None = None):
        """Broadcast from ``root`` to ``ranks`` (default: everyone else)."""
        targets = ranks if ranks is not None else [r for r in range(self.size) if r != root]
        bytes0 = self.cost.total_bytes
        with telemetry.span("broadcast", root=root, targets=len(targets)) as sp:
            for dst in targets:
                if dst != root:
                    self.send(obj, root, dst, tag=-1)
            out = [self.recv(dst, src=root, tag=-1) for dst in targets if dst != root]
            sp.set(nbytes=self.cost.total_bytes - bytes0)
        return out

    def gather(self, objs: dict[int, object], root: int = 0) -> list:
        """Gather ``{rank: obj}`` messages at ``root`` (ordered by rank)."""
        bytes0 = self.cost.total_bytes
        with telemetry.span("gather", root=root, sources=len(objs)) as sp:
            for src in sorted(objs):
                self.send(objs[src], src, root, tag=-2)
            out = [self.recv(root, src=src, tag=-2) for src in sorted(objs)]
            sp.set(nbytes=self.cost.total_bytes - bytes0)
        return out

    def scatter(self, objs: list, root: int = 0, ranks: list[int] | None = None) -> list:
        """Scatter ``objs[i]`` to ``ranks[i]`` from ``root``."""
        targets = ranks if ranks is not None else [r for r in range(self.size) if r != root]
        if len(objs) != len(targets):
            raise ValueError("scatter payload count must match target ranks")
        for obj, dst in zip(objs, targets):
            self.send(obj, root, dst, tag=-3)
        return [self.recv(dst, src=root, tag=-3) for dst in targets]
