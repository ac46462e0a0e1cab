"""The FedClassAvg server over real TCP.

There is one round loop (:meth:`repro.federated.base.FederatedAlgorithm.run`)
and one server half of Algorithm 1 (:class:`repro.core.FedClassAvg`);
:class:`FedTcpServer` runs them with a :class:`TcpTransport` as the
cohort, so a TCP run samples, screens, enforces quorum, aggregates,
evaluates and records exactly as an in-process run does — with equal
seeds the final global classifier is bit-identical — while every
transfer's actual socket bytes land on the shared
:class:`repro.comm.CostModel`, so Table 5 numbers come from the wire.

What is left here is what only a socket-backed run has: building the
transport, reacting to worker deaths and rejoins (``client_lost`` /
``client_recovered`` alerts, so the flight recorder can trip), the
server checkpoint's contents, and assembling a :class:`ServerResult`.
A worker that dies mid-round, or an upload that misses the round
deadline, is simply absent from the round's arrivals — the same thing a
:class:`repro.federated.faults.FaultInjector` dropout is in process.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.comm.cost import CostModel
from repro.core.fedclassavg import FedClassAvg
from repro.federated.checkpoint import load_server_checkpoint, save_server_checkpoint
from repro.federated.history import RunHistory
from repro.federated.quorum import QuorumError, QuorumPolicy
from repro.net.encoding import parse_wire_mode
from repro.net.transport import SimulatedCrash, TcpTransport, WorkerLink
from repro.utils.rng import rng_state, set_rng_state

__all__ = [
    "ServerResult",
    "FedTcpServer",
    "make_run_config",
    "QuorumPolicy",
    "QuorumError",
    "SimulatedCrash",
]


def make_run_config(
    spec_dict: dict,
    trainer: dict | None = None,
    local_epochs: int = 1,
    share_all_weights: bool = False,
    heartbeat_s: float = 0.5,
    algorithm: str = "fedclassavg",
    wire: str = "delta",
    adversaries: dict | None = None,
) -> dict:
    """The CONFIG payload a worker needs to reconstruct its clients.

    ``spec_dict`` is ``dataclasses.asdict(FederationSpec)``; ``trainer``
    holds :class:`repro.federated.trainer.LocalUpdateConfig` kwargs.
    Everything must be JSON-serializable — it crosses the wire.

    ``wire`` is the run's state-blob encoding (see
    :data:`repro.net.encoding.WIRE_MODES`); both sides adopt it — the
    server via :class:`TcpTransport`, workers when this config arrives.
    The default lossless ``delta`` preserves the bit-identity bar.

    ``adversaries`` is an :class:`repro.net.chaos.AdversarySchedule`
    config dict (``to_config()`` format); each worker instantiates the
    schedule for its own clients so poisoned uploads are produced at the
    source, exactly where the sim path applies them.
    """
    parse_wire_mode(wire)  # reject junk before it crosses the wire
    config = {
        "algorithm": algorithm,
        "spec": dict(spec_dict),
        "trainer": dict(trainer or {}),
        "local_epochs": int(local_epochs),
        "share_all_weights": bool(share_all_weights),
        "heartbeat_s": float(heartbeat_s),
        "wire": str(wire),
    }
    if adversaries:
        from repro.net.chaos import AdversarySchedule

        # validate eagerly: a bad persona should fail at launch, not on
        # a worker three processes away
        config["adversaries"] = AdversarySchedule.from_config(adversaries).to_config()
    return config


class ServerResult:
    """Outcome of a TCP run: history + ledger + final global classifier."""

    def __init__(
        self,
        history: RunHistory,
        cost: CostModel,
        global_state: dict[str, np.ndarray],
        round_log: list[dict],
        lost_clients: list[dict] | None = None,
        recovered_clients: list[dict] | None = None,
        permanently_lost: list[int] | None = None,
        worker_reports: list[dict] | None = None,
        codec_stats: dict | None = None,
        rejected_updates: list[dict] | None = None,
    ):
        self.history = history
        self.cost = cost
        self.global_state = global_state
        #: per-round dicts: sampled / survivors / losses / lost / timed_out
        self.round_log = round_log
        #: every lost→ transition: {round, client, reason} (deduped — one
        #: record per loss incident, not per round the worker stayed dead)
        self.lost_clients = list(lost_clients or [])
        #: every recovered transition: {round, client}
        self.recovered_clients = list(recovered_clients or [])
        #: clients still lost when the run ended
        self.permanently_lost = list(permanently_lost or [])
        #: final BYE self-reports from workers (rejoins, chaos tallies)
        self.worker_reports = list(worker_reports or [])
        #: server-side wire-codec tallies (frames, snapshot/delta split,
        #: raw vs wire bytes, encode/decode seconds)
        self.codec_stats = dict(codec_stats or {})
        #: firewall rejections: {round, client, validator, reason}
        self.rejected_updates = list(rejected_updates or [])


class FedTcpServer:
    """Runs :class:`FedClassAvg` with worker processes as its cohort.

    A TCP run's telemetry file is therefore directly comparable —
    ``repro diff simrun.jsonl tcprun.jsonl`` — with an in-process run's:
    both are written by the same loop.
    """

    def __init__(
        self,
        num_clients: int,
        rounds: int,
        run_config: dict,
        host: str = "127.0.0.1",
        port: int = 0,
        sample_rate: float = 1.0,
        seed: int = 0,
        eval_every: int = 1,
        local_epochs: int = 1,
        join_timeout_s: float = 60.0,
        round_timeout_s: float = 60.0,
        liveness_timeout_s: float = 15.0,
        cost_model: CostModel | None = None,
        quorum: QuorumPolicy | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        resume: str | None = None,
        rejoin_grace_s: float = 0.0,
        crash_after_round: int | None = None,
        crash_in_round: int | None = None,
        aggregator=None,
        firewall=None,
        verbose: bool = False,
    ):
        if crash_after_round is not None and (
            checkpoint_path is None
            or checkpoint_every < 1
            or (crash_after_round + 1) % checkpoint_every
        ):
            raise ValueError("crash_after_round must name a round that is checkpointed")
        self.num_clients = num_clients
        self.rounds = rounds
        self.eval_every = eval_every
        self.checkpoint_path = checkpoint_path
        #: crash hook (tests): right after this round's checkpoint is
        #: written, abort all sockets + raise SimulatedCrash
        self.crash_after_round = crash_after_round
        self.verbose = verbose
        self.lost_clients: list[dict] = []
        self.recovered_clients: list[dict] = []
        self._lost_now: set[int] = set()

        meta, gstate = load_server_checkpoint(resume) if resume is not None else (None, None)
        if meta is not None and int(meta["num_clients"]) != num_clients:
            raise ValueError(
                f"checkpoint is for {meta['num_clients']} clients, server has {num_clients}"
            )
        self.transport = TcpTransport(
            num_clients,
            config=run_config,
            host=host,
            port=port,
            cost_model=CostModel.from_dict(meta["cost"]) if meta is not None else cost_model,
            liveness_timeout_s=liveness_timeout_s,
            on_worker_lost=self._on_worker_lost,
            on_worker_rejoined=self._on_worker_rejoined,
            rejoin_state=lambda: self.algo.global_state,
            rejoin_grace_s=rejoin_grace_s,
            wire=run_config.get("wire", "full"),
            join_timeout_s=join_timeout_s,
            round_timeout_s=round_timeout_s,
            # derived from run parameters, not a random source, so equal-seed
            # runs stay byte-comparable frame for frame
            trace_id=f"fca-{seed}-{num_clients}c{rounds}r",
        )
        self.transport.crash_in_round = crash_in_round
        self.algo = FedClassAvg(
            [],
            sample_rate=sample_rate,
            local_epochs=local_epochs,
            seed=seed,
            aggregator=aggregator,
            firewall=firewall,
            quorum=quorum,
            cohort=self.transport,
        )
        if checkpoint_path is not None:
            self.algo.checkpoint_every = checkpoint_every
            self.algo.save_checkpoint = self._save_checkpoint
        if meta is not None:
            self._restore(meta, gstate)

    def _restore(self, meta: dict, gstate: dict) -> None:
        """Put a server checkpoint back under the round loop.

        Everything the loop's future depends on comes back: the round
        cursor, the sampler's RNG stream (so partial-participation draws
        continue the uninterrupted sequence), the global classifier,
        history/round-log rows, and the loss/recovery bookkeeping (the
        cost ledger went to the transport).  Workers reconnect with REJOIN
        and keep their own local state — the continuation is then
        bit-identical to a run that never crashed.
        """
        algo = self.algo
        algo.resumed = True
        algo.start_round = int(meta["next_round"])
        algo.current_round = algo.start_round - 1
        algo.global_state = gstate if gstate else None
        set_rng_state(algo.sampler.rng, meta["sampler_rng"])
        algo.history = RunHistory.from_dict(meta["history"])
        algo.round_log = [
            {**r, "losses": {int(k): v for k, v in r.get("losses", {}).items()}}
            for r in meta["round_log"]
        ]
        if meta["ever_evaluated"]:
            algo.last_accs = [float(a) for a in meta["last_accs"]]
        self.lost_clients = list(meta.get("lost_clients", []))
        self.recovered_clients = list(meta.get("recovered_clients", []))
        self._lost_now = set(meta.get("lost_now", []))
        # rejoining workers idle until the next ROUND_START
        self.transport.round_info = {"round": -2}

    def _save_checkpoint(self, next_round: int) -> None:
        algo = self.algo
        meta = {
            "next_round": next_round,
            "num_clients": self.num_clients,
            "rounds": self.rounds,
            "sampler_rng": rng_state(algo.sampler.rng),
            "history": algo.history.to_dict(),
            "round_log": algo.round_log,
            "last_accs": algo.last_accs or [0.0] * self.num_clients,
            "ever_evaluated": bool(algo.last_accs),
            "cost": self.transport.cost.to_dict(),
            "lost_clients": self.lost_clients,
            "recovered_clients": self.recovered_clients,
            "lost_now": sorted(self._lost_now),
        }
        save_server_checkpoint(self.checkpoint_path, meta, algo.global_state)
        if next_round - 1 == self.crash_after_round:
            self.transport.abort()
            raise SimulatedCrash(f"simulated server crash after round {next_round - 1}")

    # -- lifecycle ------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind the transport; returns (host, port) workers should dial."""
        return self.transport.listen()

    def run(self) -> ServerResult:
        """Join workers, run every round, say BYE."""
        tp = self.transport
        if tp.port == 0 or tp._listener is None:
            self.listen()
        try:
            tp.wait_for_workers(tp.join_timeout_s)
            history = self.algo.run(self.rounds, self.eval_every, self.verbose)
            permanently_lost = sorted(self._lost_now)
        finally:
            tp.close()
        assert self.algo.global_state is not None
        return ServerResult(
            history,
            tp.cost,
            self.algo.global_state,
            self.algo.round_log,
            self.lost_clients,
            recovered_clients=self.recovered_clients,
            permanently_lost=permanently_lost,
            # workers hand in their BYE self-reports during close()
            worker_reports=tp.worker_reports,
            codec_stats=tp.codec_stats.to_dict(),
            rejected_updates=self.algo.rejections,
        )

    # -- failure reaction ----------------------------------------------
    def _on_worker_lost(self, link: WorkerLink, reason: str) -> None:
        """Reader-thread callback: a worker connection died.

        One loss record per lost→ transition: a client already counted
        lost (its worker died and has not rejoined) is skipped when a
        replacement worker dies too, so repeated deaths of the same
        client's worker no longer inflate ``net.clients_lost``.
        """
        monitor = telemetry.get_telemetry().health
        for k in link.client_ids:
            if k in self._lost_now:
                continue
            self._lost_now.add(k)
            self.lost_clients.append(
                {"round": self.algo.current_round, "client": k, "reason": reason}
            )
            telemetry.counter("net.clients_lost").inc()
            if monitor is not None:
                monitor.emit_alert(
                    "client_lost",
                    f"client {k}'s worker ({link.addr}) died mid-run: {reason}",
                    client=k,
                    severity="critical",
                    round_idx=self.algo.current_round,
                    reason=reason,
                )

    def _on_worker_rejoined(self, link: WorkerLink, meta: dict) -> None:
        """Reader-thread callback: a worker re-admitted itself via REJOIN."""
        monitor = telemetry.get_telemetry().health
        for k in link.client_ids:
            if k not in self._lost_now:
                continue
            self._lost_now.discard(k)
            self.recovered_clients.append({"round": self.algo.current_round, "client": k})
            telemetry.counter("net.clients_recovered").inc()
            if monitor is not None:
                monitor.emit_alert(
                    "client_recovered",
                    f"client {k}'s worker rejoined from {link.addr} "
                    f"(worker last saw round {meta.get('round')})",
                    client=k,
                    severity="info",
                    round_idx=self.algo.current_round,
                )
