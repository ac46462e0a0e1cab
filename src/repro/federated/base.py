"""Federated algorithm base: the one round loop every method and transport runs.

Subclasses implement ``round(t, sampled)`` — the per-round protocol
(broadcast / local update / aggregate).  The loop handles client
sampling, the health-monitor round lifecycle, evaluation of every
client's personalized accuracy, communication-round bookkeeping on the
shared cost model, the per-round telemetry record and round-log row, and
the checkpoint cadence.  There is no second copy for TCP:
the TCP server (``FedTcpServer``) runs this loop on a
:class:`~repro.core.FedClassAvg` whose clients live behind a socket.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro import telemetry
from repro.comm import CostModel, SimComm
from repro.federated.client import FederatedClient
from repro.federated.history import RoundMetrics, RunHistory
from repro.federated.sampler import ClientSampler

__all__ = ["FederatedAlgorithm"]


class FederatedAlgorithm:
    """Server-driven federated training loop.

    Parameters
    ----------
    clients:
        All clients in the federation (rank k+1 on the communicator).
    sample_rate:
        Fraction of clients participating each round.
    local_epochs:
        E in Algorithm 1 — local epochs per communication round.
    comm:
        The byte-mover whose ``cost`` ledger the loop closes each round;
        a fresh in-process :class:`SimComm` (size = clients+1, rank 0 is
        the server) is created otherwise.
    num_clients:
        Federation size when the clients live elsewhere (``clients`` is
        then empty); defaults to ``len(clients)``.
    """

    name = "base"
    #: local epochs a client runs per communication round (KT-pFL: 20)
    default_local_epochs = 1

    def __init__(
        self,
        clients: list[FederatedClient],
        sample_rate: float = 1.0,
        local_epochs: int | None = None,
        comm=None,
        seed: int = 0,
        num_clients: int | None = None,
    ):
        n = len(clients) if num_clients is None else num_clients
        if n < 1:
            raise ValueError("need at least one client")
        self.clients = clients
        self.num_clients = n
        self.local_epochs = local_epochs if local_epochs is not None else self.default_local_epochs
        self.comm = comm if comm is not None else SimComm(n + 1, CostModel())
        self.sampler = ClientSampler(n, sample_rate, seed=seed)
        self.seed = seed
        #: set by fault-tolerant subclasses to the clients whose uploads
        #: actually arrived in the last round (None ⇒ everyone survived)
        self.last_survivors: list[int] | None = None
        #: what ``round()`` adds to its records: ``phase`` and ``compute_s``
        #: go to the telemetry record, everything else (``skipped``,
        #: ``timed_out``, ``rejected``, ``losses``) is a round-log column
        self.round_notes: dict = {}
        #: set by ``load_checkpoint`` — a resumed run must not re-run
        #: ``setup()`` (it would clobber the restored global state)
        self.resumed = False
        #: round cursor: ``run`` starts here (a restored server continues
        #: where its checkpoint stopped) and keeps ``current_round`` on it
        self.start_round = 0
        self.current_round = -1
        #: whether the round in flight ends with an evaluation — a remote
        #: cohort has to tell its workers before they train
        self.evaluating = False
        self.history = RunHistory(self.name)
        #: one dict per round: round / sampled / survivors / bytes / skipped
        #: plus the columns ``round_notes`` carried
        self.round_log: list[dict] = []
        #: accuracies of the last evaluation, carried over rounds without one
        self.last_accs: list[float] = []
        #: ``save_checkpoint(next_round)`` runs after every
        #: ``checkpoint_every``-th round when both are set
        self.checkpoint_every = 0
        self.save_checkpoint: Callable[[int], None] | None = None

    # ------------------------------------------------------------------
    def server_rank(self) -> int:
        return 0

    def rank_of(self, client_id: int) -> int:
        return client_id + 1

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Hook run once before the first round (e.g. global init)."""

    def round(self, t: int, sampled: list[int]) -> float | None:
        """One communication round; optionally returns mean train loss."""
        raise NotImplementedError

    def evaluate_all(self) -> list[float]:
        """Personalized test accuracy of every client (paper's metric)."""
        return [c.evaluate() for c in self.clients]

    def alive(self) -> bool:
        """Whether anyone is left to train with (the loop stops otherwise)."""
        return True

    def run(self, rounds: int, eval_every: int = 1, verbose: bool = False) -> RunHistory:
        """Execute rounds ``start_round .. rounds-1`` and record history.

        When telemetry is enabled, each round runs inside a ``round`` span
        and emits a per-round summary record breaking wall-clock into
        local compute vs. communication time, bytes up/down,
        participant/survivor counts, and the round's mean accuracy.  A
        configured health monitor additionally receives the round
        lifecycle (participants, survivors, per-client accuracies) so its
        detectors see the full per-client picture.

        Evaluation comes before ``cost.end_round``: over TCP it moves real
        frames, and they belong to the round that caused them.  Rounds
        between evaluations carry the last *evaluated* accuracies
        forward and are marked ``evaluated=False`` in the history, so
        ``mean_curve``/``best_acc`` never see phantom zero-accuracy
        rounds when ``eval_every > 1``.
        """
        tel = telemetry.get_telemetry()
        monitor = tel.health
        cost = self.comm.cost
        if self.start_round == 0:
            self.history, self.round_log = RunHistory(self.name), []
        history = self.history
        if not self.resumed:
            self.setup()
        for t in range(self.start_round, rounds):
            if not self.alive():
                print(f"[{self.name}] every client lost — stopping after round {t - 1}")
                break
            self.current_round = t
            sampled = self.sampler.sample(t)
            self.evaluating = evaluated = (t + 1) % eval_every == 0 or t == rounds - 1
            self.last_survivors = None
            self.round_notes = {}
            if monitor is not None:
                monitor.begin_round(t, sampled)
            if tel.enabled:
                tel.current_round = t
                if tel.recorder is not None:
                    tel.recorder.begin_round(t)
                up0, down0 = cost.uplink_bytes(), cost.downlink_bytes()
                comm0 = cost.total_time_s
                compute0 = tel.tracer.total("local_update")[1]
                wall0 = time.perf_counter()
            # the context propagates round/algorithm onto every span the
            # round opens — including spans on executor worker threads
            with tel.context(round=t, algorithm=self.name):
                with tel.span("round", round=t, algorithm=self.name, participants=len(sampled)):
                    train_loss = self.round(t, sampled)
            notes = dict(self.round_notes)
            phase, compute_s = notes.pop("phase", None), notes.pop("compute_s", None)
            skipped = notes.setdefault("skipped", False)
            survivors = self.last_survivors if self.last_survivors is not None else sampled
            if evaluated:
                self.last_accs = self.evaluate_all()
            accs = list(self.last_accs)
            round_bytes = cost.end_round(participants=len(sampled))
            if tel.enabled:
                if compute_s is None:
                    compute_s = tel.tracer.total("local_update")[1] - compute0
                for name, v in (phase or {}).items():
                    tel.latency(f"net.phase.{name}").observe(v)
                tel.record_round(
                    **({"phase": phase} if phase else {}),
                    round=t,
                    algorithm=self.name,
                    wall_s=time.perf_counter() - wall0,
                    compute_s=compute_s,
                    comm_s=cost.total_time_s - comm0,
                    bytes=round_bytes,
                    bytes_up=cost.uplink_bytes() - up0,
                    bytes_down=cost.downlink_bytes() - down0,
                    participants=len(sampled),
                    survivors=len(survivors),
                    train_loss=train_loss,
                    evaluated=evaluated,
                    skipped=skipped,
                    mean_acc=float(np.mean(accs)) if accs else None,
                )
            if monitor is not None:
                monitor.end_round(
                    t,
                    survivors=self.last_survivors,
                    accs=accs if evaluated else None,
                )
            history.append(
                RoundMetrics(
                    round_idx=t,
                    client_accs=accs,
                    comm_bytes=round_bytes,
                    local_epochs=self.local_epochs,
                    train_loss=train_loss,
                    evaluated=evaluated,
                )
            )
            self.round_log.append(
                {"round": t, "sampled": sampled, "survivors": list(survivors),
                 "bytes": round_bytes, **notes}
            )
            if verbose:
                m = history.rounds[-1]
                print(
                    f"[{self.name}] round {t + 1}/{rounds} "
                    f"acc={m.mean_acc:.4f}±{m.std_acc:.4f} "
                    f"survivors={len(survivors)}/{len(sampled)} bytes={round_bytes}"
                    + (" SKIPPED" if skipped else "")
                )
            if (
                self.save_checkpoint is not None
                and self.checkpoint_every > 0
                and (t + 1) % self.checkpoint_every == 0
            ):
                self.save_checkpoint(t + 1)
        return history
