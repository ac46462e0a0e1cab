"""FedClassAvg (the paper's contribution) — Algorithm 1.

Per communication round:

1. The server hands the global classifier ``w_C`` to the sampled clients.
2. Each client replaces its local classifier with ``w_C`` and runs E
   local epochs of the composite objective (Eq. 4):
   ``L^CL(F(x'), F(x'')) + L^CE(y, ŷ) + ρ·L^R(C_k, C)``.
3. Clients return their classifiers; the server updates
   ``w_C ← Σ_k (|D_k|/|D|)·w_{C_k}`` (Eq. 3).

This module is the server half (steps 1 and 3, plus the t=0 average),
written once against a :class:`~repro.federated.cohort.Cohort`; step 2 is
:func:`repro.federated.trainer.client_round`, wherever the cohort runs it.

The ``use_contrastive`` / ``use_proximal`` switches reproduce the Table 4
ablation (CA / +PR / +CL / +PR,CL), and ``share_all_weights`` reproduces
the homogeneous "+weight" rows of Table 3 where the whole model is
averaged but proximal regularization still applies only to the
classifier.

What this round cannot know — which keys a client exchanges (``share``),
its local objective (``local_objective``, ``local_step``) and what is scored
(``scored_on``) — FedAvg, FedProx, FedBN, FedPer and FedRep state on
subclasses (:mod:`repro.algorithms.averaging`) and run it unchanged.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.federated.aggregation import drop_nonfinite_states, weighted_average_state
from repro.federated.base import FederatedAlgorithm
from repro.federated.cohort import Cohort, InProcessCohort
from repro.federated.quorum import QuorumError, QuorumPolicy
from repro.federated.robust import make_aggregator, screen_updates
from repro.federated.trainer import LocalUpdateConfig

__all__ = ["FedClassAvg", "initial_average"]


def _rounded_like(
    state: dict[str, np.ndarray], template: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """``state`` with each entry rounded once to the dtype ``template`` holds it in.

    Aggregators reduce in float64; the global classifier is what clients
    hold, so it is kept — and broadcast — in their dtype.
    """
    return {k: v.astype(template[k].dtype, copy=False) for k, v in state.items()}


def initial_average(
    states: list[dict[str, np.ndarray]], weights: list[float]
) -> dict[str, np.ndarray]:
    """The t=0 global classifier: data-weighted average of the initial ones.

    A NaN-initialized client contributes nothing to the symmetric
    starting point — it is excluded rather than refusing to start.
    """
    return _rounded_like(weighted_average_state(*drop_nonfinite_states(states, weights)), states[0])


class FedClassAvg(FederatedAlgorithm):
    """Federated classifier averaging — Algorithm 1 of the paper (see module docstring).

    ``cohort`` is where the clients run.  By default it is an
    :class:`InProcessCohort` over ``clients`` built from the training
    arguments (``rho`` … ``contrastive``, ``share_all_weights``,
    ``local_epochs``, ``comm``, ``executor``, ``fault_injector``,
    ``compressor``, ``privacy``, ``adversaries``); a server whose clients
    live in worker processes passes its transport and an empty ``clients``,
    and those arguments reach the workers in their run config instead.
    """

    name = "fedclassavg"
    #: which state-dict keys a client exchanges (``FederatedClient.shared_keys``);
    #: ``share_all_weights=True`` is the constructor's spelling of ``"all"``
    share = "classifier"
    #: what is scored: the clients' ``"personal"`` models, or every client —
    #: sampled or not — after the ``"aggregate"`` is pushed into its shared keys
    scored_on = "personal"
    #: what a client runs in place of ``local_update`` (FedRep: head, then body)
    local_step = None

    def __init__(
        self,
        clients,
        rho: float = 0.1,
        temperature: float = 0.07,
        use_contrastive: bool = True,
        use_proximal: bool = True,
        contrastive: str = "supcon",
        share_all_weights: bool = False,
        sample_rate: float = 1.0,
        local_epochs: int = 1,
        comm=None,
        seed: int = 0,
        executor=None,
        fault_injector=None,
        compressor=None,
        privacy=None,
        aggregator=None,
        firewall=None,
        adversaries=None,
        quorum: QuorumPolicy | None = None,
        cohort: Cohort | None = None,
    ):
        super().__init__(
            clients,
            sample_rate,
            local_epochs,
            comm if cohort is None else cohort,
            seed,
            num_clients=None if cohort is None else cohort.num_clients,
        )
        self.fault_injector = fault_injector
        #: robust aggregation rule (spec string or Aggregator instance)
        self.aggregator = make_aggregator(aggregator)
        #: optional UpdateFirewall screening uploads before aggregation
        self.firewall = firewall
        #: optional minimum-participation gate on each round's aggregation
        self.quorum = quorum
        self.rejections: list[dict] = []
        if share_all_weights:
            self.share = "all"
        if self.scored_on == "aggregate" and cohort is not None:
            raise ValueError(
                f"{self.name} scores every client with the aggregate pushed in — an "
                "in-process push, not available over a remote cohort"
            )
        self.config = self.local_objective(
            use_contrastive=use_contrastive,
            use_proximal=use_proximal,
            rho=rho,
            temperature=temperature,
            contrastive=contrastive,
        )
        self.global_state: dict[str, np.ndarray] | None = None
        if self.share != "classifier" and cohort is None:
            shapes = {
                tuple(sorted((k, v.shape) for k, v in c.shared_state(self.share).items()))
                for c in clients
            }
            if len(shapes) > 1:
                raise ValueError(f"averaging {self.share!r} weights requires homogeneous clients")
        self.cohort: Cohort = cohort or InProcessCohort(
            clients,
            self.comm,
            self.config,
            local_epochs=local_epochs,
            share=self.share,
            local_step=self.local_step,
            executor=executor,
            fault_injector=fault_injector,
            compressor=compressor,
            privacy=privacy,
            adversaries=adversaries,
        )

    def local_objective(self, **terms) -> LocalUpdateConfig:
        """The clients' local objective, from the constructor's loss ``terms`` (Eq. 4)."""
        return LocalUpdateConfig(proximal_on="classifier", **terms)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Initialize the global state (t=0) from the cohort's initial states."""
        initial = self.cohort.initial_states()
        ids = sorted(initial)
        self.global_state = initial_average(
            [initial[k][1] for k in ids], [int(initial[k][0]["data_size"]) for k in ids]
        )

    def alive(self) -> bool:
        return any(self.cohort.client_is_live(k) for k in range(self.num_clients))

    def evaluate_all(self) -> list[float]:
        """Every client's accuracy; one that cannot report keeps its last."""
        accs = list(self.last_accs) or [0.0] * self.num_clients
        for k, acc in self.cohort.evaluate(self.current_round).items():
            accs[k] = acc
        return accs

    # ------------------------------------------------------------------
    def round(self, t: int, sampled: list[int]) -> float:
        assert self.global_state is not None
        reference = self.global_state
        arrivals, phase = self.cohort.run_round(t, sampled, reference, self.evaluating)
        # an upload that did not come, from a client that is still there: the
        # FaultInjector's dropout, or a deadline miss without a death
        timed_out = [
            k for k in sampled if k not in arrivals and self.cohort.client_is_live(k)
        ]
        admitted, rejected, skipped = self._admit(t, sampled, arrivals)
        self.rejections.extend(rejected)
        survivors = sorted(admitted)
        monitor = telemetry.get_telemetry().health
        if monitor is not None:
            for k in timed_out:
                monitor.emit_alert(
                    "client_timeout",
                    f"client {k} missed the round-{t} upload deadline",
                    client=k,
                    severity="warning",
                    round_idx=t,
                )

        agg0 = time.perf_counter()
        if survivors and not skipped:
            # Eq. 3 over the admitted subset, in client-id order
            self.global_state = _rounded_like(
                self.aggregator(
                    [admitted[k][1] for k in survivors],
                    [int(admitted[k][0]["data_size"]) for k in survivors],
                    reference=reference,
                ),
                reference,
            )
        phase["aggregate_s"] = time.perf_counter() - agg0

        # The reported train loss mirrors what the server can observe:
        # the mean over *admitted* clients — a faulted or quarantined
        # client's loss never enters the server-side metric.
        losses = {k: admitted[k][0].get("loss") for k in survivors}
        reported = [v for v in losses.values() if v is not None]
        self.last_survivors = survivors
        self.round_notes = {
            "skipped": skipped,
            "phase": phase,
            "compute_s": sum(float(m.get("duration_s") or 0.0) for m, _ in arrivals.values()),
            "timed_out": timed_out,
            "rejected": rejected,
            "losses": losses,
        }
        if self.scored_on == "aggregate":
            for c in self.clients:
                c.load_shared_state(self.global_state, self.share)
        return float(np.mean(reported)) if reported else 0.0

    def _admit(self, t: int, sampled: list[int], arrivals: dict):
        """Firewall, then quorum: ``(admitted, rejections, skipped)``.

        Only firewall-admitted updates count toward quorum — a round
        where five uploads arrive but three are quarantined has two
        participants, not five, and must trigger ``on_miss`` rather than
        silently aggregating a sliver of the cohort.  ``arrivals`` grows
        in place with whatever an ``extend_deadline`` window brings: only
        clients that never sent anything are re-requested (waiting longer
        cannot un-reject an update), and late arrivals pass the same
        firewall.  Raises :class:`QuorumError` under ``abort``; a missed
        quorum always fires a ``quorum_miss`` health alert and bumps
        ``net.quorum_misses``.
        """
        policy = self.quorum
        need = policy.required(len(sampled)) if policy is not None else 0
        monitor = telemetry.get_telemetry().health
        admitted: dict = {}
        rejected: list[dict] = []

        def miss(what: str, severity: str = "warning") -> None:
            if monitor is not None:
                monitor.emit_alert(
                    "quorum_miss",
                    f"round {t} has {len(admitted)}/{need} admitted updates — {what}",
                    severity=severity,
                    round_idx=t,
                )

        batch, extensions = arrivals, 0
        while True:
            # a rejected update is excluded exactly like a dropout, but
            # the client is tracked as arrived (not timed out)
            ok, bad = screen_updates(
                t, {k: s for k, (_m, s) in batch.items()}, self.firewall, self.global_state
            )
            admitted.update({k: batch[k] for k in ok})
            rejected.extend(bad)
            missing = [k for k in sampled if k not in arrivals]
            if (
                len(admitted) >= need
                or policy.on_miss != "extend_deadline"
                or extensions >= policy.max_extensions
                or not missing
            ):
                break
            extensions += 1
            telemetry.counter("net.deadline_extensions").inc()
            miss(f"extending deadline for {missing} ({extensions}/{policy.max_extensions})")
            batch = self.cohort.collect_more(t, missing, policy.extension_s)
            arrivals.update(batch)
        if len(admitted) >= need:
            return admitted, rejected, False
        telemetry.counter("net.quorum_misses").inc()
        if policy.on_miss == "abort":
            miss("aborting the run", severity="critical")
            raise QuorumError(
                f"round {t}: {len(admitted)} admitted update(s), quorum requires {need}"
            )
        telemetry.counter("net.rounds_skipped").inc()
        miss("skipping aggregation (global classifier unchanged)")
        return admitted, rejected, True
