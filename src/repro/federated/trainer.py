"""Local-update training loops shared by the algorithms.

``local_update`` runs E epochs of the FedClassAvg composite objective
(Eq. 4) with any subset of the three loss terms enabled — which is also
exactly what the Table 4 ablation needs:

* CE only                          → plain local supervised training
* CE + proximal (full weights)     → FedProx local step
* CE + CL + classifier proximal    → FedClassAvg local step
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro import telemetry
from repro.data.transforms import Compose, default_augmentation
from repro.federated.client import FederatedClient
from repro.losses import cross_entropy, ntxent_loss, proximal_l2, supcon_loss
from repro.tensor import Tensor

__all__ = ["local_update", "client_round", "LocalUpdateConfig"]


class LocalUpdateConfig:
    """Switches for the composite local objective.

    ``contrastive`` selects the representation-learning term: ``"supcon"``
    (the paper's supervised contrastive loss) or ``"ntxent"`` (the
    label-free SimCLR loss, exploring the paper's future-work suggestion).
    """

    def __init__(
        self,
        use_contrastive: bool = True,
        use_proximal: bool = True,
        rho: float = 0.1,
        temperature: float = 0.07,
        contrastive: str = "supcon",
        proximal_on: str = "classifier",
        proximal_squared: bool = False,
        augmentation: Compose | None = None,
    ):
        if proximal_on not in ("classifier", "all"):
            raise ValueError("proximal_on must be 'classifier' or 'all'")
        if contrastive not in ("supcon", "ntxent"):
            raise ValueError("contrastive must be 'supcon' or 'ntxent'")
        self.use_contrastive = use_contrastive
        self.use_proximal = use_proximal
        self.rho = rho
        self.temperature = temperature
        self.contrastive = contrastive
        self.proximal_on = proximal_on
        self.proximal_squared = proximal_squared
        self.augmentation = augmentation


def local_update(
    client: FederatedClient,
    epochs: int,
    config: LocalUpdateConfig,
    reference_state: dict[str, np.ndarray] | None = None,
) -> float:
    """Run E local epochs on one client; returns the mean total loss.

    ``reference_state`` holds the broadcast global weights the proximal
    term pulls toward (classifier-only keys for FedClassAvg, full state
    for FedProx).  When the contrastive term is on, each batch is pushed
    through the extractor twice (views x', x'') and the classifier sees
    the first view's features — matching Figure 1(B)'s data flow where
    ŷ is predicted from x'.
    """
    model = client.model
    model.train()
    aug = config.augmentation
    if aug is None and (config.use_contrastive):
        size = client.train_images.shape[-1]
        aug = default_augmentation(size)

    tel = telemetry.get_telemetry()
    # health monitoring and the flight recorder both want the per-batch
    # grad-norm series; the extra pass only runs when one is installed
    monitor = tel.health
    recorder = tel.recorder
    if recorder is not None:
        # snapshot the pre-round (model, optimizer, RNG) triple *before*
        # the first batch advances any of them — this is the replay input
        recorder.capture_client(client, epochs, config, reference=reference_state)
    grad_norms: list[float] = []

    memprof = tel.memory
    mem_scope = (
        memprof.client_round(client.client_id, tel.current_round)
        if memprof is not None
        else contextlib.nullcontext(None)
    )

    # the proximal reference is fixed for the whole update: resolve the
    # (parameter, broadcast value) pairing once, not per batch
    prox_pairs = prox_ref = None
    if config.use_proximal and reference_state is not None:
        if config.proximal_on == "classifier":
            prox_pairs = model.classifier_parameters()
            names = {k for k, _ in prox_pairs}
            prox_ref = {k: v for k, v in reference_state.items() if k in names}
        else:
            prox_pairs = list(model.named_parameters())
            prox_ref = {k: reference_state[k] for k, _ in prox_pairs}

    losses: list[float] = []
    with (
        telemetry.context(client=client.client_id),
        telemetry.span("local_update", client=client.client_id, epochs=epochs) as sp,
        mem_scope as mem_region,
    ):
        for _ in range(epochs):
            for xb, yb in client.train_loader():
                client.optimizer.zero_grad()

                if config.use_contrastive:
                    xa = aug(xb, client.aug_rng)
                    xb2 = aug(xb, client.aug_rng)
                    feat_a = model.features(Tensor(xa))
                    feat_b = model.features(Tensor(xb2))
                    logits = model.classifier(feat_a)
                    loss = cross_entropy(logits, yb)
                    if config.contrastive == "supcon":
                        loss = loss + supcon_loss(
                            feat_a, feat_b, yb, temperature=config.temperature
                        )
                    else:
                        loss = loss + ntxent_loss(feat_a, feat_b, temperature=config.temperature)
                else:
                    logits = model(Tensor(xb))
                    loss = cross_entropy(logits, yb)

                if prox_pairs is not None:
                    prox = proximal_l2(prox_pairs, prox_ref, squared=config.proximal_squared)
                    loss = loss + config.rho * prox

                loss.backward()
                if monitor is not None or recorder is not None:
                    sq = 0.0
                    for p in client.optimizer.params:
                        if p.grad is not None:
                            g = p.grad.ravel()
                            sq += float(np.vdot(g, g))
                    grad_norms.append(float(np.sqrt(sq)))
                client.optimizer.step()
                losses.append(loss.item())
        sp.set(batches=len(losses))
    telemetry.counter("train.batches").inc(len(losses))
    mean_loss = float(np.mean(losses)) if losses else 0.0
    if recorder is not None:
        # trajectory attaches before the monitor sees the loss, so an
        # alert fired inside observe_client persists a complete bundle
        recorder.record_trajectory(client.client_id, losses, grad_norms)
    if monitor is not None:
        fields = dict(
            loss=mean_loss,
            grad_norm=float(np.mean(grad_norms)) if grad_norms else None,
            duration_s=sp.duration_s,
            batches=len(losses),
        )
        if mem_region is not None:
            fields["mem_peak"] = mem_region.peak_live_bytes
        monitor.observe_client(client.client_id, **fields)
    return mean_loss


def client_round(
    client: FederatedClient,
    round_idx: int,
    state: dict[str, np.ndarray],
    epochs: int,
    config: LocalUpdateConfig,
    share: str = "classifier",
    adversaries=None,
    local_step=None,
) -> tuple[dict, dict[str, np.ndarray]]:
    """The client half of Algorithm 1; returns ``(meta, upload)``.

    Adopt the broadcast ``state`` (the client's ``share`` keys), run
    ``epochs`` of :func:`local_update` — or of ``local_step``, FedRep's own —
    with it as the proximal reference, and hand back what the client
    uploads — after ``adversaries`` (an ``AdversarySchedule``) corrupted
    it, exactly once per (client, round), if this client is one.  ``meta``
    carries what the server may know about the update: ``data_size``,
    ``loss``, ``duration_s``.  An in-process cohort and a TCP worker both
    run this function, which is why they end at the same bytes.
    """
    client.load_shared_state(state, share)
    reference = {name: v.copy() for name, v in state.items()}
    t0 = time.perf_counter()
    loss = (local_step or local_update)(client, epochs, config, reference)
    duration = time.perf_counter() - t0
    upload = client.shared_state(share)
    if adversaries is not None:
        upload = adversaries.corrupt(client.client_id, round_idx, upload)
    return {"data_size": client.data_size, "loss": loss, "duration_s": duration}, upload
