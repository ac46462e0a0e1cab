"""FedAvg, FedProx, FedBN, FedPer, FedRep — specs over the FedClassAvg round.

An averaging algorithm is three facts the engine cannot know, stated here
as class constants: which keys a client exchanges (``share``), its local
objective (``local_objective``; FedRep also its ``local_step``), and what
is scored (``scored_on``).  Everything else — broadcast, cohort, firewall,
aggregation, quorum, ledger, telemetry — is :class:`repro.core.FedClassAvg`,
so ``**engine`` takes its ``executor`` / ``fault_injector`` / ``aggregator`` /
``firewall`` / ``adversaries`` / ``quorum`` / ``compressor`` / ``privacy``.

All five start every client from client 0's shared weights and are scored
with the aggregate pushed into every client's shared keys; whatever is not
shared (FedBN's BatchNorm, FedPer's and FedRep's head) stays personal.
"""

from __future__ import annotations

import numpy as np

from repro.core import FedClassAvg
from repro.federated.trainer import LocalUpdateConfig
from repro.losses import cross_entropy
from repro.optim import Adam
from repro.tensor import Tensor

__all__ = ["FedAvg", "FedProx", "FedBN", "FedPer", "FedRep"]


class FedAvg(FedClassAvg):
    """FedAvg (McMahan et al., 2017): data-weighted full-model averaging of
    homogeneous clients training on cross-entropy alone (Table 3)."""

    name = "fedavg"
    share = "all"
    scored_on = "aggregate"

    def __init__(
        self, clients, sample_rate: float = 1.0, local_epochs: int = 1, comm=None, seed: int = 0,
        **engine,
    ):
        super().__init__(
            clients, sample_rate=sample_rate, local_epochs=local_epochs, comm=comm, seed=seed,
            **engine,
        )

    def local_objective(self, **terms) -> LocalUpdateConfig:
        return LocalUpdateConfig(use_contrastive=False, use_proximal=False)


class FedProx(FedAvg):
    """FedProx (Li et al., 2020): FedAvg minimizing ``CE + (mu/2)·‖w − w_global‖²``
    over *all* weights, where the paper's Eq. (5) restricts it to the classifier."""

    name = "fedprox"

    def __init__(self, clients, mu: float = 0.01, *args, **kwargs):
        self.mu = mu
        super().__init__(clients, *args, **kwargs)

    def local_objective(self, **terms) -> LocalUpdateConfig:
        return LocalUpdateConfig(
            use_contrastive=False, rho=self.mu / 2.0, proximal_on="all", proximal_squared=True
        )


class FedBN(FedAvg):
    """FedBN (Li et al., 2021): FedAvg whose BatchNorm parameters and running
    statistics never leave the client — non-iid clients see different feature
    distributions, so shared statistics mismatch everyone."""

    name = "fedbn"
    share = "all_but_norm"


class FedPer(FedAvg):
    """FedPer (Arivazhagan et al., 2019): the mirror image of FedClassAvg —
    the feature extractor is averaged, the classifier head stays personal."""

    name = "fedper"
    share = "body"


class FedRep(FedPer):
    """FedRep (Collins et al., 2021): FedPer whose local round first fits the
    head with the body frozen, then the body with the head frozen."""

    name = "fedrep"

    def __init__(
        self, clients, head_epochs: int = 1, body_epochs: int = 1, sample_rate: float = 1.0,
        comm=None, seed: int = 0, **engine,
    ):
        super().__init__(clients, sample_rate, head_epochs + body_epochs, comm, seed, **engine)
        self.head_epochs = head_epochs
        self.body_epochs = body_epochs
        # one Adam per phase: moments do not leak between the phases, and a phase
        # steps only its own parameters — the other half's gradients are never applied
        self._head_opts = {
            c.client_id: Adam(c.model.classifier.parameters(), lr=c.optimizer.lr) for c in clients
        }
        self._body_opts = {
            c.client_id: Adam(c.model.feature_extractor.parameters(), lr=c.optimizer.lr)
            for c in clients
        }

    def _epoch(self, client, optimizer) -> float:
        losses = []
        for xb, yb in client.train_loader():
            optimizer.zero_grad()
            loss = cross_entropy(client.model(Tensor(xb)), yb)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def local_step(self, client, epochs, config, reference) -> float:
        k = client.client_id
        losses = [self._epoch(client, self._head_opts[k]) for _ in range(self.head_epochs)]
        losses += [self._epoch(client, self._body_opts[k]) for _ in range(self.body_epochs)]
        return float(np.mean(losses)) if losses else 0.0
