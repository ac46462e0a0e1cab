"""Experiment builder: dataset → partition → clients.

``build_federation`` assembles the full experimental setup of the paper's
§4.1 in one call: load a benchmark dataset, partition it non-iid, mirror
each client's label distribution onto the test set, assign architectures
(round-robin heterogeneous, or one architecture for the homogeneous
experiments), and construct :class:`FederatedClient` objects with
independent RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import load_dataset
from repro.federated.client import FederatedClient
from repro.models import build_model, heterogeneous_assignment
from repro.partition import matching_test_indices, partition_dataset
from repro.telemetry.memprof import MemoryProfiler, active_memprof
from repro.tensor import Tensor, no_grad

__all__ = ["FederationSpec", "build_federation", "client_costs"]


@dataclass
class FederationSpec:
    """Declarative description of a federated experiment."""

    dataset: str = "cifar10-tiny"
    num_clients: int = 8
    partition: str = "dirichlet"  # 'dirichlet' | 'skewed' | 'iid'
    alpha: float = 0.5
    classes_per_client: int = 2
    architectures: list[str] | None = None  # None → paper round-robin
    homogeneous_arch: str | None = None  # set → every client uses this arch
    scale: str = "tiny"
    n_train: int = 1600
    n_test: int = 400
    test_per_client: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    model_overrides: dict = field(default_factory=dict)

    def partition_kwargs(self) -> dict:
        if self.partition == "dirichlet":
            return {"alpha": self.alpha}
        if self.partition == "skewed":
            return {"classes_per_client": self.classes_per_client}
        return {}


def _resolve(spec: FederationSpec) -> tuple:
    """``(train, test, parts, archs)``: datasets, partition, per-client architecture."""
    train, test = load_dataset(spec.dataset, n_train=spec.n_train, n_test=spec.n_test, seed=spec.seed)
    parts = partition_dataset(
        train, spec.partition, spec.num_clients, seed=spec.seed, **spec.partition_kwargs()
    )
    if spec.homogeneous_arch is not None:
        archs = [spec.homogeneous_arch] * spec.num_clients
    elif spec.architectures is not None:
        archs = heterogeneous_assignment(spec.num_clients, tuple(spec.architectures))
    else:
        archs = heterogeneous_assignment(spec.num_clients)
    return train, test, parts, archs


def _client_model(train, spec: FederationSpec, arch: str, rng: np.random.Generator, **overrides):
    """A client's model, in the precision of the data it trains on.

    Initialisers draw from the float64 stream of ``rng`` and are rounded
    once here; every op returns the dtype it is given, so this cast is what
    makes a federated client a float32 model over float32 images.
    """
    model = build_model(
        arch, in_channels=train.in_channels, num_classes=train.num_classes,
        scale=spec.scale, rng=rng, **overrides,
    )
    return model.astype(train.images.dtype)


def client_costs(spec: FederationSpec) -> list[int]:
    """Relative cost of one local epoch per client — a pure function of ``spec``.

    Activation bytes of one single-sample no-grad forward per *distinct*
    architecture (counted by the ``Tensor`` allocation hook) times the
    client's batches per epoch.  Activation volume tracks ``local_update``
    wall here; parameter count ranks alexnet, the fastest client, heaviest.
    """
    train, _test, parts, archs = _resolve(spec)
    volume: dict[str, int] = {}
    outer, prof = active_memprof(), MemoryProfiler()
    prof.activate()
    try:
        for arch in dict.fromkeys(archs):
            model = _client_model(
                train, spec, arch, np.random.default_rng(0),
                **(spec.model_overrides or {}).get(arch, {}),
            )
            model.eval()
            with prof.client_round(-1, -1) as region, no_grad():
                model(Tensor(train.images[:1]))
            volume[arch] = region.alloc_bytes
    finally:
        prof.deactivate()
        if outer is not None:
            outer.activate()
    return [volume[archs[k]] * -(-len(parts[k]) // spec.batch_size) for k in range(spec.num_clients)]


def build_federation(
    spec: FederationSpec, client_ids: list[int] | None = None
) -> tuple[list[FederatedClient], dict]:
    """Construct clients per ``spec``.

    Returns ``(clients, info)`` where ``info`` carries the raw datasets,
    partition indices, and architecture list for analysis code.

    ``client_ids`` restricts construction to those clients (returned in
    the given order).  Every per-client random stream is keyed by
    ``(spec.seed, k)`` — never by build order — so a client built alone
    in a worker process is bit-identical to the same client built as
    part of the full federation, which is what lets the TCP runtime
    shard clients across processes without breaking determinism.
    """
    train, test, parts, archs = _resolve(spec)

    if client_ids is None:
        build_ids = list(range(spec.num_clients))
    else:
        build_ids = [int(k) for k in client_ids]
        for k in build_ids:
            if not 0 <= k < spec.num_clients:
                raise ValueError(f"client id {k} out of range [0, {spec.num_clients})")

    clients: list[FederatedClient] = []
    for k in build_ids:
        model_rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0xD0D, k)))
        overrides = spec.model_overrides.get(archs[k], {}) if spec.model_overrides else {}
        per_client_overrides = spec.model_overrides.get(k, {}) if spec.model_overrides else {}
        merged = {**overrides, **per_client_overrides}
        model = _client_model(train, spec, archs[k], model_rng, **merged)
        test_idx = matching_test_indices(
            train.labels, parts[k], test.labels, spec.test_per_client, seed=spec.seed + k
        )
        clients.append(
            FederatedClient(
                client_id=k,
                model=model,
                train_images=train.images[parts[k]],
                train_labels=train.labels[parts[k]],
                test_images=test.images[test_idx],
                test_labels=test.labels[test_idx],
                batch_size=spec.batch_size,
                lr=spec.lr,
                seed=spec.seed,
            )
        )

    info = {
        "train": train,
        "test": test,
        "parts": parts,
        "architectures": archs,
        "num_classes": train.num_classes,
    }
    return clients, info
