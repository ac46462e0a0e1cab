"""Where a round's clients run.

The server half of Algorithm 1 (:class:`repro.core.FedClassAvg`) is
written against :class:`Cohort` and never learns whether its clients are
objects in this process or models owned by worker processes across a
socket.  There are two implementations: :class:`InProcessCohort` here,
which moves bytes through a :class:`repro.comm.SimComm`, and the TCP
runtime's ``TcpTransport``.  Both run the same client half
(:func:`repro.federated.trainer.client_round`), so equal seeds end at the
same global classifier on either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro import telemetry
from repro.analysis.drift import measure_drift
from repro.comm import CostModel, SimComm, payload_nbytes
from repro.federated.client import FederatedClient
from repro.federated.trainer import LocalUpdateConfig, client_round

__all__ = ["Cohort", "InProcessCohort", "Arrivals"]

#: ``{client: (meta, state)}`` — uploads that reached the server.  ``meta``
#: carries at least ``data_size``; a round's also ``loss`` and ``duration_s``.
Arrivals = dict[int, tuple[dict, dict[str, np.ndarray]]]


class Cohort(Protocol):
    """What the one round loop may ask of the clients it trains with."""

    num_clients: int
    #: the ledger every byte the cohort moves is recorded on
    cost: CostModel

    def initial_states(self) -> Arrivals:
        """The states (and ``|D_k|``) the t=0 average runs over."""

    def run_round(
        self, t: int, sampled: list[int], state: dict[str, np.ndarray], evaluating: bool
    ) -> tuple[Arrivals, dict[str, float]]:
        """Hand ``state`` to the sampled clients; return what came back.

        ``evaluating`` says the round ends with :meth:`evaluate`.  The
        second value is the cohort's share of the round's critical path
        (``broadcast_s``, ``compute_s``, …).
        """

    def collect_more(self, t: int, missing: list[int], timeout_s: float | None) -> Arrivals:
        """Wait one more window (``None``: the cohort's usual one) for ``missing``."""

    def evaluate(self, t: int) -> dict[int, float]:
        """Personalized test accuracy of every client that can report one."""

    def client_is_live(self, client_id: int) -> bool:
        """False once the client is gone for good (an absent upload is then no timeout)."""


@dataclass
class InProcessCohort:
    """The federation's clients as objects in this process.

    One ``executor.map`` over the sampled clients per round; what each
    uploads then passes the DP mechanism (``privacy``, repro.comm.privacy)
    and the ``compressor`` (repro.comm.compression), and ``fault_injector``
    decides which uploads never arrive — the in-process form of a missed
    deadline.  ``adversaries`` is an optional ``AdversarySchedule``
    poisoning uploads at the client.  ``share`` names the keys a client
    exchanges (``FederatedClient.shared_keys``) and ``local_step``
    what it runs in place of :func:`local_update`, if anything.  Every
    transfer is charged on ``comm`` as the bytes its wire format would take.
    """

    clients: list[FederatedClient]
    comm: SimComm
    config: LocalUpdateConfig
    local_epochs: int = 1
    share: str = "classifier"
    local_step: Callable | None = None
    executor: object = None
    fault_injector: object = None
    compressor: object = None
    privacy: object = None
    adversaries: object = None

    @property
    def num_clients(self) -> int:
        return len(self.clients)

    @property
    def cost(self) -> CostModel:
        return self.comm.cost

    def initial_states(self) -> Arrivals:
        """Every client's initial classifier — or one common start for any wider share.

        Beyond the classifier every client starts from client 0's shared
        values and only those are reported: averaging independently
        initialized deep networks would destroy the function (neuron
        permutation mismatch), exactly as in FedAvg.
        """
        if self.share != "classifier":
            common = self.clients[0].shared_state(self.share)
            for c in self.clients:
                c.load_shared_state(common, self.share)
            return {0: ({"data_size": self.clients[0].data_size}, common)}
        return {
            c.client_id: ({"data_size": c.data_size}, c.shared_state()) for c in self.clients
        }

    def run_round(self, t, sampled, state, evaluating):
        tel = telemetry.get_telemetry()
        t0 = time.perf_counter()
        self.comm.bcast(state, root=0, ranks=[k + 1 for k in sampled])
        # flight recorder: register the broadcast once so per-client
        # captures reference it instead of copying it N times
        if tel.recorder is not None:
            tel.recorder.note_broadcast(t, state)
        t1 = time.perf_counter()

        def update(k: int):
            return client_round(
                self.clients[k], t, state, self.local_epochs, self.config,
                self.share, self.adversaries, self.local_step,
            )

        if self.executor is not None:
            results = self.executor.map(update, sampled)
        else:
            results = [update(k) for k in sampled]
        compute_s = time.perf_counter() - t1
        produced = dict(zip(sampled, results))

        uploading = (
            self.fault_injector.survivors(sampled) if self.fault_injector is not None else sampled
        )
        payloads = {}
        for k in uploading:
            upload = produced[k][1]
            if self.privacy is not None:
                upload = self.privacy.privatize(upload)
            if self.compressor is not None:
                upload = self.compressor.compress(upload)
            payloads[k + 1] = upload

        # health monitoring: per-client classifier drift ‖C_k − C‖₂ vs the
        # broadcast, update norm over the full payload, and the wire size
        # each client actually uploads (post-DP/compression)
        if tel.health is not None:
            for k in uploading:
                client = self.clients[k]
                tel.health.observe_client(
                    k,
                    drift=measure_drift(client.model.classifier_state(), state),
                    update_norm=measure_drift(client.shared_state(self.share), state),
                    bytes_up=payload_nbytes(payloads[k + 1]),
                )

        received = self.comm.gather(payloads, root=0)
        if self.compressor is not None:
            received = [self.compressor.decompress(s) for s in received]
        arrivals = {k: (produced[k][0], s) for k, s in zip(uploading, received)}
        return arrivals, {"broadcast_s": t1 - t0, "compute_s": compute_s}

    def collect_more(self, t, missing, timeout_s):
        """Nothing: an upload the fault injector dropped never arrives."""
        return {}

    def evaluate(self, t):
        return {c.client_id: c.evaluate() for c in self.clients}

    def client_is_live(self, client_id):
        return True
