"""The FedClassAvg round server over real TCP.

Runs Algorithm 1's server side against live worker processes: broadcast
the global classifier to the round's sampled clients, collect their
trained classifiers **ordered by client id** (determinism is the bar —
with equal seeds the final global classifier must be bit-identical to an
in-process :class:`repro.comm.SimComm` run), aggregate with the
production :func:`repro.federated.aggregation.weighted_average_state`,
and account every transfer's actual socket bytes on the shared
:class:`repro.comm.CostModel` so Table 5 numbers come from the wire.

Failure semantics match what :class:`repro.federated.faults.FaultInjector`
established for the simulation: a worker that dies mid-round (or a
client whose upload misses the round deadline) is simply absent from the
aggregation — the round completes with the survivors, the reported mean
train loss covers survivors only, and the health monitor receives a
``client_lost`` (death) or ``client_timeout`` (deadline miss) alert so
the flight recorder can trip.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.comm.cost import CostModel
from repro.federated.aggregation import drop_nonfinite_states, weighted_average_state
from repro.federated.checkpoint import load_server_checkpoint, save_server_checkpoint
from repro.federated.robust import admit_and_aggregate, make_aggregator, screen_updates
from repro.federated.history import RoundMetrics, RunHistory
from repro.federated.sampler import ClientSampler
from repro.net.encoding import parse_wire_mode
from repro.net.protocol import MsgType
from repro.net.retry import Deadline
from repro.net.transport import TcpTransport, WorkerLink
from repro.utils.rng import rng_state, set_rng_state

__all__ = [
    "ServerResult",
    "FedTcpServer",
    "make_run_config",
    "QuorumPolicy",
    "QuorumError",
    "SimulatedCrash",
]


class QuorumError(RuntimeError):
    """A round missed quorum under an ``abort`` policy."""


class SimulatedCrash(RuntimeError):
    """Raised by the server's crash hooks (crash-resume tests)."""


@dataclass(frozen=True)
class QuorumPolicy:
    """Minimum-participation gate on each round's aggregation.

    The implicit FedClassAvg rule — aggregate whatever uploads arrive —
    becomes an explicit policy: a round needs at least
    ``max(min_count, ceil(min_fraction * sampled))`` survivor updates.
    On a miss, ``on_miss`` decides:

    * ``"skip_round"`` — keep the previous global classifier, mark the
      round skipped (``net.rounds_skipped`` + a ``quorum_miss`` alert),
      and move on;
    * ``"extend_deadline"`` — re-collect the missing clients for up to
      ``max_extensions`` extra windows of ``extension_s`` seconds
      (default: the round timeout) before falling back to skipping;
    * ``"abort"`` — raise :class:`QuorumError` (a critical alert fires
      first), for deployments where a quorum miss means the fleet is
      broken and continuing would silently train on a sliver of data.

    The default policy (``min_count=1``) matches the pre-quorum
    behavior: any non-empty survivor set aggregates.
    """

    min_fraction: float = 0.0
    min_count: int = 1
    on_miss: str = "skip_round"
    max_extensions: int = 1
    extension_s: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ValueError("min_fraction must be in [0, 1]")
        if self.min_count < 0:
            raise ValueError("min_count must be >= 0")
        if self.on_miss not in ("skip_round", "extend_deadline", "abort"):
            raise ValueError(f"unknown on_miss policy {self.on_miss!r}")
        if self.max_extensions < 0:
            raise ValueError("max_extensions must be >= 0")

    def required(self, sampled: int) -> int:
        """Survivor updates needed for a round that sampled ``sampled``."""
        return max(self.min_count, math.ceil(self.min_fraction * sampled))


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
    """Server-side FedClassAvg round loop over a :class:`TcpTransport`.

    Mirrors :meth:`repro.federated.base.FederatedAlgorithm.run`'s
    bookkeeping (health-monitor round lifecycle, per-round telemetry
    records, :class:`RunHistory` rows) so a TCP run's telemetry file is
    directly comparable — ``repro diff simrun.jsonl tcprun.jsonl`` —
    with an in-process run's.
    """

    name = "fedclassavg"

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
        self.num_clients = num_clients
        self.rounds = rounds
        self.sampler = ClientSampler(num_clients, sample_rate, seed=seed)
        self.eval_every = eval_every
        self.local_epochs = local_epochs
        self.join_timeout_s = join_timeout_s
        self.round_timeout_s = round_timeout_s
        self.quorum = quorum
        #: robust aggregation rule (spec string or Aggregator instance);
        #: the same entry point the SimComm path uses
        self.aggregator = make_aggregator(aggregator)
        #: optional UpdateFirewall screening collected updates
        self.firewall = firewall
        self.rejected_log: list[dict] = []
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: crash hooks (tests): abort all sockets + raise SimulatedCrash
        self.crash_after_round = crash_after_round
        self.crash_in_round = crash_in_round
        self.verbose = verbose
        #: correlation id piggybacked (with the current round span's id)
        #: as ``_trace`` meta on outbound frames when telemetry is live.
        #: Derived from run parameters, not a random source, so equal-seed
        #: runs stay byte-comparable frame for frame.
        self._trace_id = f"fca-{seed}-{num_clients}c{rounds}r"
        self.global_state: dict[str, np.ndarray] | None = None
        self.data_sizes: dict[int, int] = {}
        self.lost_clients: list[dict] = []
        self.recovered_clients: list[dict] = []
        self._lost_now: set[int] = set()
        self._current_round = -1
        self._round_info: dict = {"round": -1}
        self._start_round = 0
        self._history = RunHistory(self.name)
        self._round_log: list[dict] = []
        self._last_accs: list[float] = [0.0] * num_clients
        self._ever_evaluated = False

        if resume is not None:
            cost_model = self._restore(resume)
        self.transport = TcpTransport(
            num_clients,
            config=run_config,
            host=host,
            port=port,
            cost_model=cost_model,
            liveness_timeout_s=liveness_timeout_s,
            on_worker_lost=self._on_worker_lost,
            on_worker_rejoined=self._on_worker_rejoined,
            rejoin_state=self._rejoin_state,
            rejoin_grace_s=rejoin_grace_s,
            wire=run_config.get("wire", "full"),
        )

    def _restore(self, path: str) -> CostModel:
        """Load a server checkpoint; returns the restored cost ledger.

        Everything the round loop's future depends on comes back: the
        round cursor, the sampler's RNG stream (so partial-participation
        draws continue the uninterrupted sequence), the global
        classifier, per-client data sizes, history/round-log rows, and
        the loss/recovery bookkeeping.  Workers reconnect with REJOIN
        and keep their own local state — the continuation is then
        bit-identical to a run that never crashed.
        """
        meta, gstate = load_server_checkpoint(path)
        if int(meta["num_clients"]) != self.num_clients:
            raise ValueError(
                f"checkpoint is for {meta['num_clients']} clients, server has {self.num_clients}"
            )
        self._start_round = int(meta["next_round"])
        self.global_state = gstate if gstate else None
        set_rng_state(self.sampler.rng, meta["sampler_rng"])
        self.data_sizes = {int(k): int(v) for k, v in meta["data_sizes"].items()}
        self._history = RunHistory.from_dict(meta["history"])
        self._round_log = [
            {**r, "losses": {int(k): v for k, v in r.get("losses", {}).items()}}
            for r in meta["round_log"]
        ]
        self._last_accs = [float(a) for a in meta["last_accs"]]
        self._ever_evaluated = bool(meta["ever_evaluated"])
        self.lost_clients = list(meta.get("lost_clients", []))
        self.recovered_clients = list(meta.get("recovered_clients", []))
        self._lost_now = set(meta.get("lost_now", []))
        self._current_round = self._start_round - 1
        # rejoining workers idle until the next ROUND_START (-2: neither
        # the init phase nor a live round)
        self._round_info = {"round": -2}
        return CostModel.from_dict(meta["cost"])

    def _checkpoint_meta(self, next_round: int) -> dict:
        return {
            "next_round": next_round,
            "num_clients": self.num_clients,
            "rounds": self.rounds,
            "sampler_rng": rng_state(self.sampler.rng),
            "data_sizes": self.data_sizes,
            "history": self._history.to_dict(),
            "round_log": self._round_log,
            "last_accs": self._last_accs,
            "ever_evaluated": self._ever_evaluated,
            "cost": self.transport.cost.to_dict(),
            "lost_clients": self.lost_clients,
            "recovered_clients": self.recovered_clients,
            "lost_now": sorted(self._lost_now),
        }

    def _rejoin_state(self) -> tuple[dict, dict | None]:
        """What a REJOINing worker needs: current round info + global."""
        return dict(self._round_info), self.global_state

    # -- lifecycle ------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind the transport; returns (host, port) workers should dial."""
        return self.transport.listen()

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
                {"round": self._current_round, "client": k, "reason": reason}
            )
            telemetry.counter("net.clients_lost").inc()
            if monitor is not None:
                monitor.emit_alert(
                    "client_lost",
                    f"client {k}'s worker ({link.addr}) died mid-run: {reason}",
                    client=k,
                    severity="critical",
                    round_idx=self._current_round,
                    reason=reason,
                )

    def _on_worker_rejoined(self, link: WorkerLink, meta: dict) -> None:
        """Reader-thread callback: a worker re-admitted itself via REJOIN."""
        monitor = telemetry.get_telemetry().health
        for k in link.client_ids:
            if k not in self._lost_now:
                continue
            self._lost_now.discard(k)
            self.recovered_clients.append({"round": self._current_round, "client": k})
            telemetry.counter("net.clients_recovered").inc()
            if monitor is not None:
                monitor.emit_alert(
                    "client_recovered",
                    f"client {k}'s worker rejoined from {link.addr} "
                    f"(worker last saw round {meta.get('round')})",
                    client=k,
                    severity="info",
                    round_idx=self._current_round,
                )

    # -- the run ---------------------------------------------------------
    def run(self) -> ServerResult:
        """Join workers, init the global classifier, run every round."""
        if self.transport.port == 0 or self.transport._listener is None:
            self.listen()
        try:
            result = self._run_rounds()
        finally:
            self.transport.close()
        # workers hand in their BYE self-reports during close()
        result.worker_reports = list(self.transport.worker_reports)
        result.codec_stats = self.transport.codec_stats.to_dict()
        return result

    def _run_rounds(self) -> ServerResult:
        tp = self.transport
        tp.wait_for_workers(self.join_timeout_s)
        if self._start_round == 0:
            self._init_global_state()
        tel = telemetry.get_telemetry()
        monitor = tel.health
        cost = tp.cost
        history = self._history
        round_log = self._round_log
        last_accs = self._last_accs
        ever_evaluated = self._ever_evaluated

        for t in range(self._start_round, self.rounds):
            if not tp.live_links():
                print(f"[net] all workers lost — stopping after round {t - 1}")
                break
            self._current_round = t
            sampled = self.sampler.sample(t)
            evaluated = (t + 1) % self.eval_every == 0 or t == self.rounds - 1
            if monitor is not None:
                monitor.begin_round(t, sampled)
            if tel.enabled:
                tel.current_round = t
                up0, down0 = cost.uplink_bytes(), cost.downlink_bytes()
                comm0 = cost.total_time_s
                wall0 = time.perf_counter()

            with tel.context(round=t, algorithm=self.name):
                with tel.span("round", round=t, algorithm=self.name, participants=len(sampled)):
                    updates, compute_s, phases = self._one_round(t, sampled, evaluated)
            # admission firewall: screen arrivals against the broadcast
            # classifier before they can count toward quorum or enter the
            # aggregate — a rejected update is excluded exactly like a
            # dropout, but the client is tracked as arrived (not timed out)
            arrived = set(updates)
            admitted_states, rejected = screen_updates(
                t,
                {k: s for k, (_m, s) in updates.items()},
                self.firewall,
                self.global_state,
            )
            admitted = {k: updates[k] for k in admitted_states}
            admitted, skipped = self._apply_quorum(
                t, sampled, admitted, arrived, rejected
            )
            self.rejected_log.extend(rejected)
            survivors = sorted(admitted)

            # deadline misses by still-live workers: the FaultInjector's
            # "upload never arrived" case without a death
            timed_out = [
                k for k in sampled if k not in arrived and tp.client_is_live(k)
            ]
            for k in timed_out:
                if monitor is not None:
                    monitor.emit_alert(
                        "client_timeout",
                        f"client {k} missed the round-{t} deadline "
                        f"({self.round_timeout_s:.1f}s); aggregating without it",
                        client=k,
                        severity="warning",
                        round_idx=t,
                    )

            if survivors and not skipped:
                agg0 = time.perf_counter()
                # shared entry point with the SimComm path; the firewall
                # already screened, so only the aggregator runs here
                outcome = admit_and_aggregate(
                    t,
                    {k: admitted[k][1] for k in survivors},
                    {k: self.data_sizes[k] for k in survivors},
                    aggregator=self.aggregator,
                    reference=self.global_state,
                )
                if outcome.global_state is not None:
                    self.global_state = outcome.global_state
                phases["aggregate_s"] = time.perf_counter() - agg0
            else:
                phases["aggregate_s"] = 0.0
            losses = {k: admitted[k][0].get("loss") for k in survivors}
            survivor_losses = [v for v in losses.values() if v is not None]
            train_loss = float(np.mean(survivor_losses)) if survivor_losses else 0.0

            if evaluated:
                accs_map = tp.collect_evals(t, Deadline(self.round_timeout_s))
                for k, acc in accs_map.items():
                    last_accs[k] = acc
                ever_evaluated = True
            accs = list(last_accs) if ever_evaluated else []

            round_bytes = cost.end_round(participants=len(sampled))
            if tel.enabled:
                for name, v in phases.items():
                    tel.latency(f"net.phase.{name}").observe(v)
                tel.record_round(
                    phase=dict(phases),
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
                monitor.end_round(t, survivors=survivors, accs=accs if evaluated else None)
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
            round_log.append(
                {
                    "round": t,
                    "sampled": sampled,
                    "survivors": survivors,
                    "timed_out": timed_out,
                    "rejected": rejected,
                    "losses": losses,
                    "bytes": round_bytes,
                    "skipped": skipped,
                }
            )
            self._ever_evaluated = ever_evaluated
            if self.verbose:
                m = history.rounds[-1]
                print(
                    f"[net] round {t + 1}/{self.rounds} "
                    f"acc={m.mean_acc:.4f} survivors={len(survivors)}/{len(sampled)} "
                    f"bytes={round_bytes}" + (" SKIPPED" if skipped else "")
                )

            if (
                self.checkpoint_path is not None
                and self.checkpoint_every > 0
                and (t + 1) % self.checkpoint_every == 0
            ):
                save_server_checkpoint(
                    self.checkpoint_path, self._checkpoint_meta(t + 1), self.global_state
                )
            if self.crash_after_round is not None and t == self.crash_after_round:
                tp.abort()
                raise SimulatedCrash(f"simulated server crash after round {t}")

        assert self.global_state is not None
        return ServerResult(
            history,
            cost,
            self.global_state,
            round_log,
            self.lost_clients,
            recovered_clients=self.recovered_clients,
            permanently_lost=sorted(self._lost_now),
            worker_reports=tp.worker_reports,
            rejected_updates=self.rejected_log,
        )

    # -- round internals -------------------------------------------------
    def _init_global_state(self) -> None:
        """t=0 init: weighted average of every client's initial classifier.

        Workers report each owned client's initial classifier (and
        ``|D_k|``) as a round ``-1`` CLIENT_UPDATE right after CONFIG;
        aggregating them in client-id order reproduces
        ``FedClassAvg.setup()`` bit-for-bit.
        """
        everyone = list(range(self.num_clients))
        got = self.transport.collect_updates(-1, everyone, Deadline(self.join_timeout_s))
        missing = sorted(set(everyone) - set(got))
        if missing:
            raise TimeoutError(
                f"clients {missing} never reported their initial classifier"
            )
        for k, (meta, _state) in got.items():
            self.data_sizes[k] = int(meta["data_size"])
        states = [got[k][1] for k in everyone]
        weights = [self.data_sizes[k] for k in everyone]
        # mirror FedClassAvg.setup(): a NaN-initialized classifier is
        # excluded from the init average instead of failing the start
        states, weights = drop_nonfinite_states(states, weights)
        self.global_state = weighted_average_state(states, weights)

    def _apply_quorum(
        self,
        t: int,
        sampled: list[int],
        admitted: dict[int, tuple[dict, dict]],
        arrived: set[int] | None = None,
        rejected: list[dict] | None = None,
    ) -> tuple[dict[int, tuple[dict, dict]], bool]:
        """Enforce the quorum policy on a round's *admitted* updates.

        Only firewall-admitted updates count toward quorum — a round
        where five uploads arrive but three are quarantined has two
        participants, not five, and must trigger ``on_miss`` rather than
        silently aggregating a sliver of the cohort.  ``arrived`` tracks
        every client whose upload was collected (admitted or not) so the
        ``extend_deadline`` path only re-waits for clients that never
        sent anything; late arrivals during an extension pass through
        the same firewall and extend ``rejected`` in place.

        Returns ``(admitted, skipped)``; raises :class:`QuorumError`
        under ``abort``.  A missed quorum always fires a ``quorum_miss``
        health alert and bumps ``net.quorum_misses``.
        """
        policy = self.quorum
        if policy is None:
            return admitted, False
        arrived = set(arrived) if arrived is not None else set(admitted)
        need = policy.required(len(sampled))
        monitor = telemetry.get_telemetry().health
        extensions = 0
        while (
            len(admitted) < need
            and policy.on_miss == "extend_deadline"
            and extensions < policy.max_extensions
        ):
            missing = [k for k in sampled if k not in arrived]
            if not missing:
                # everyone already arrived — the shortfall is rejections,
                # and waiting longer cannot un-reject anything
                break
            extensions += 1
            telemetry.counter("net.deadline_extensions").inc()
            if monitor is not None:
                monitor.emit_alert(
                    "quorum_miss",
                    f"round {t} has {len(admitted)}/{need} admitted updates — "
                    f"extending deadline for {missing} "
                    f"(extension {extensions}/{policy.max_extensions})",
                    severity="warning",
                    round_idx=t,
                )
            more = self.transport.collect_updates(
                t, missing, Deadline(policy.extension_s or self.round_timeout_s)
            )
            arrived.update(more)
            more_admitted, more_rejected = screen_updates(
                t,
                {k: s for k, (_m, s) in more.items()},
                self.firewall,
                self.global_state,
            )
            if rejected is not None:
                rejected.extend(more_rejected)
            admitted.update({k: more[k] for k in more_admitted})
        if len(admitted) >= need:
            return admitted, False
        telemetry.counter("net.quorum_misses").inc()
        if policy.on_miss == "abort":
            if monitor is not None:
                monitor.emit_alert(
                    "quorum_miss",
                    f"round {t} got {len(admitted)}/{need} admitted updates — aborting the run",
                    severity="critical",
                    round_idx=t,
                )
            raise QuorumError(
                f"round {t}: {len(admitted)} admitted update(s), quorum requires {need}"
            )
        telemetry.counter("net.rounds_skipped").inc()
        if monitor is not None:
            monitor.emit_alert(
                "quorum_miss",
                f"round {t} got {len(admitted)}/{need} admitted updates — "
                "skipping aggregation (global classifier unchanged)",
                severity="warning",
                round_idx=t,
            )
        return admitted, True

    def _trace_meta(self) -> dict | None:
        """``_trace`` section for outbound frames (None when not tracing).

        Carries the run's trace id plus the *current* span's id — inside
        the round loop that is the open ``round`` span, which is exactly
        what a worker's ``local_update`` spans should parent to.
        """
        tel = telemetry.get_telemetry()
        if not tel.enabled or tel.tracer is None:
            return None
        sid = tel.tracer.current_span_id()
        if sid is None:
            return None
        return {"id": self._trace_id, "span": sid}

    def _one_round(
        self, t: int, sampled: list[int], evaluated: bool
    ) -> tuple[dict[int, tuple[dict, dict]], float, dict[str, float]]:
        """Broadcast, then gather this round's updates.

        Returns ``(updates, compute_s, phases)`` where ``compute_s`` sums
        every survivor's self-reported training time (total work) and
        ``phases`` is the round's critical-path breakdown: ``broadcast_s``
        (send-loop wall), ``compute_s`` (slowest single client),
        ``queue_s`` (what the busiest worker — it trains the clients it
        owns one after another — spent on its other clients), ``wait_s``
        (collection wall beyond that worker: wire latency + slack).
        """
        assert self.global_state is not None
        tp = self.transport
        trace = self._trace_meta()
        phases: dict[str, float] = {}
        # publish before broadcasting: a worker that rejoins mid-round
        # must see this round in its CONFIG reply, not the previous one
        self._round_info = {"round": t, "sampled": sampled, "evaluated": evaluated}
        bcast0 = time.perf_counter()
        start_meta = {"round": t, "sampled": sampled, "evaluated": evaluated}
        if trace is not None:
            start_meta["_trace"] = trace
        tp.broadcast_control(MsgType.ROUND_START, start_meta)
        for k in sampled:
            cls_meta: dict = {"round": t}
            if trace is not None:
                cls_meta["_trace"] = trace
            try:
                tp.send_to_client(k, MsgType.CLASSIFIER, cls_meta, self.global_state)
            except ConnectionError:
                continue  # worker died; loss already recorded via on_worker_lost
        phases["broadcast_s"] = time.perf_counter() - bcast0
        if self.crash_in_round is not None and t == self.crash_in_round:
            tp.abort()
            raise SimulatedCrash(f"simulated server crash mid-round {t}")
        collect0 = time.perf_counter()
        updates = tp.collect_updates(t, sampled, Deadline(self.round_timeout_s))
        collect_s = time.perf_counter() - collect0
        monitor = telemetry.get_telemetry().health
        compute_s = 0.0
        slowest = 0.0
        busy: dict[int, float] = {}  # owning link -> summed durations
        for k, (meta, _state) in sorted(updates.items()):
            dur = float(meta.get("duration_s") or 0.0)
            compute_s += dur
            slowest = max(slowest, dur)
            owner = id(tp.owner_of(k))
            busy[owner] = busy.get(owner, 0.0) + dur
            if monitor is not None:
                monitor.observe_client(
                    k,
                    loss=meta.get("loss"),
                    duration_s=meta.get("duration_s"),
                    batches=meta.get("batches"),
                )
        busiest = max(busy.values(), default=0.0)
        phases["compute_s"] = slowest
        phases["queue_s"] = busiest - slowest
        phases["wait_s"] = max(0.0, collect_s - busiest)
        return updates, compute_s, phases
