"""Asynchronous FedClassAvg (FedAsync-style server, Xie et al. 2019).

Synchronous rounds gate on the slowest client; an asynchronous server
instead merges each classifier upload the moment it arrives:

    w_C ← (1 − α(τ)) · w_C + α(τ) · w_{C_k},   α(τ) = α₀ / (1 + τ)^a

where staleness τ counts how many server updates happened since client k
downloaded its base classifier.  Polynomial staleness discounting keeps
very stale uploads from dragging the global classifier backwards.

The event order is simulated deterministically: client latencies are
drawn per (client, dispatch) from a seeded stream and uploads are merged
in completion-time order — so the run is reproducible while still
exercising genuine out-of-order aggregation.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.fedclassavg import initial_average
from repro.federated.base import FederatedAlgorithm
from repro.federated.trainer import LocalUpdateConfig, local_update

__all__ = ["AsyncFedClassAvg"]


class AsyncFedClassAvg(FederatedAlgorithm):
    """FedAsync-style server: staleness-discounted classifier merging."""

    name = "async_fedclassavg"

    def __init__(
        self,
        clients,
        rho: float = 0.1,
        alpha0: float = 0.6,
        staleness_exp: float = 0.5,
        mean_latency: float = 1.0,
        updates_per_round: int | None = None,
        use_contrastive: bool = True,
        use_proximal: bool = True,
        comm=None,
        seed: int = 0,
        firewall=None,
        adversaries=None,
    ):
        super().__init__(clients, 1.0, 1, comm, seed)
        if not 0 < alpha0 <= 1:
            raise ValueError("alpha0 must be in (0, 1]")
        self.alpha0 = alpha0
        self.staleness_exp = staleness_exp
        self.mean_latency = mean_latency
        # one "round" = as many merges as there are clients, so histories
        # line up with synchronous runs on the x-axis
        self.updates_per_round = updates_per_round or len(clients)
        self.config = LocalUpdateConfig(
            use_contrastive=use_contrastive,
            use_proximal=use_proximal,
            rho=rho,
            proximal_on="classifier",
        )
        self.global_state: dict[str, np.ndarray] | None = None
        #: optional UpdateFirewall — the staleness merge goes through the
        #: same admission screening as synchronous aggregation
        self.firewall = firewall
        #: optional AdversarySchedule poisoning uploads before the merge
        self.adversaries = adversaries
        self.rejections: list[dict] = []
        self.server_version = 0
        self._latency_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0xA57C,))
        )
        # event queue of (completion_time, client_id, base_version)
        self._events: list[tuple[float, int, int]] = []
        self._clock = 0.0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        states = [c.model.classifier_state() for c in self.clients]
        weights = [c.data_size for c in self.clients]
        self.global_state = initial_average(states, weights)
        # dispatch every client once
        for c in self.clients:
            self._dispatch(c.client_id)

    def _dispatch(self, k: int) -> None:
        """Send the current classifier to client k; schedule its upload."""
        self.comm.send(self.global_state, self.server_rank(), self.rank_of(k))
        self.clients[k].model.load_classifier_state(self.global_state)
        latency = float(self._latency_rng.exponential(self.mean_latency))
        heapq.heappush(self._events, (self._clock + latency, k, self.server_version))

    def staleness_weight(self, staleness: int) -> float:
        """α(τ) = α₀ / (1 + τ)^a — FedAsync's polynomial discounting."""
        return self.alpha0 / (1.0 + staleness) ** self.staleness_exp

    # ------------------------------------------------------------------
    def round(self, t: int, sampled: list[int]) -> float:
        assert self.global_state is not None
        losses = []
        for _ in range(self.updates_per_round):
            if not self._events:
                break
            self._clock, k, base_version = heapq.heappop(self._events)
            client = self.clients[k]

            # the client trains against the classifier version it downloaded
            reference = {key: v.copy() for key, v in self.global_state.items()}
            losses.append(local_update(client, 1, self.config, reference))

            upload = client.model.classifier_state()
            if self.adversaries is not None:
                upload = self.adversaries.corrupt(k, t, upload)
            self.comm.send(upload, self.rank_of(k), self.server_rank())

            if self.firewall is not None:
                rejection = self.firewall.screen(
                    self.server_version, k, upload, self.global_state
                )
                if rejection is not None:
                    # quarantined: no merge, no version bump — but the
                    # client still gets its next dispatch
                    self.rejections.append(rejection)
                    self._dispatch(k)
                    continue

            staleness = self.server_version - base_version
            alpha = self.staleness_weight(staleness)
            self.global_state = {
                key: (1 - alpha) * self.global_state[key] + alpha * upload[key]
                for key in self.global_state
            }
            self.server_version += 1

            self._dispatch(k)  # client immediately starts its next task
        return float(np.mean(losses)) if losses else 0.0
