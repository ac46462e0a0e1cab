"""Federated client state: model + local shards + private RNG streams."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayView
from repro.data.loader import DataLoader
from repro.models.split import CLASSIFIER_PREFIX, SplitModel
from repro.nn.norm import _BatchNorm
from repro.optim import Adam, Optimizer
from repro.tensor import Tensor, no_grad

__all__ = ["FederatedClient", "norm_keys"]


def norm_keys(model: SplitModel) -> set[str]:
    """State-dict keys owned by ``model``'s BatchNorm layers: affine parameters and statistics."""
    return {
        f"{mod_name}.{leaf}"
        for mod_name, mod in model.named_modules()
        if isinstance(mod, _BatchNorm)
        for leaf in (*mod._parameters, *mod._buffers)
    }


class FederatedClient:
    """One client in the federation.

    Bundles the personalized model, the client's train shard, the
    label-mirrored test set (paper §4.2 evaluates on test data "consistent
    with local data distributions"), a persistent optimizer (Adam state
    survives across communication rounds), and independent RNG streams for
    shuffling and augmentation.
    """

    def __init__(
        self,
        client_id: int,
        model: SplitModel,
        train_images: np.ndarray,
        train_labels: np.ndarray,
        test_images: np.ndarray,
        test_labels: np.ndarray,
        batch_size: int = 64,
        lr: float = 1e-3,
        optimizer_factory=None,
        seed: int = 0,
    ):
        self.client_id = client_id
        self.model = model
        self.train_images = train_images
        self.train_labels = np.asarray(train_labels, dtype=np.int64)
        self.test_images = test_images
        self.test_labels = np.asarray(test_labels, dtype=np.int64)
        self.batch_size = batch_size
        base = np.random.SeedSequence(entropy=seed, spawn_key=(client_id,))
        loader_seq, aug_seq = base.spawn(2)
        self.loader_rng = np.random.default_rng(loader_seq)
        self.aug_rng = np.random.default_rng(aug_seq)
        factory = optimizer_factory or (lambda params: Adam(params, lr=lr))
        self.optimizer: Optimizer = factory(model.parameters())
        self._shared_keys: dict[str, frozenset[str]] = {}

    @property
    def data_size(self) -> int:
        """|D_k| — the aggregation weight numerator in Eqs. (1)–(3)."""
        return len(self.train_labels)

    def shared_keys(self, share: str = "classifier") -> frozenset[str]:
        """The model's own state-dict keys this client exchanges (resolved once).

        ``share`` is FedClassAvg's ``classifier``, the ``body`` beneath it
        (FedPer, FedRep), ``all`` (FedAvg, the paper's "+weight" rows) or
        FedBN's ``all_but_norm``.
        """
        if not self._shared_keys:
            model = self.model
            names = frozenset(n for n, _ in (*model.named_parameters(), *model.named_buffers()))
            head = frozenset(n for n in names if n.startswith(CLASSIFIER_PREFIX))
            self._shared_keys = {
                "classifier": head,
                "body": names - head,
                "all": names,
                "all_but_norm": names - norm_keys(model),
            }
        return self._shared_keys[share]

    def shared_state(self, share: str = "classifier") -> dict[str, np.ndarray]:
        """What this client uploads: ``C_k``, or the ``share`` subset of its state dict."""
        if share == "classifier":
            return self.model.classifier_state()
        keys = self.shared_keys(share)
        return {k: v for k, v in self.model.state_dict().items() if k in keys}

    def load_shared_state(self, state: dict[str, np.ndarray], share: str = "classifier") -> None:
        """Adopt a broadcast: ``state`` replaces the ``share`` subset of the model.

        ``KeyError`` unless it holds exactly those keys — a partial load would
        train on stale weights without a sign.
        """
        keys = self.shared_keys(share)
        if state.keys() != keys:
            raise KeyError(
                f"client {self.client_id}: broadcast does not match its {share!r} keys — "
                f"missing {sorted(keys - state.keys())}, unexpected {sorted(state.keys() - keys)}"
            )
        if share == "classifier":
            self.model.load_classifier_state(state)
        else:
            self.model.load_state_dict(state, strict=False)

    def train_loader(self) -> DataLoader:
        return DataLoader(
            ArrayView(self.train_images, self.train_labels),
            batch_size=self.batch_size,
            shuffle=True,
            rng=self.loader_rng,
        )

    def evaluate(self, batch_size: int = 256) -> float:
        """Top-1 accuracy on the client's personalized test set."""
        self.model.eval()
        correct = 0
        n = len(self.test_labels)
        if n == 0:
            return 0.0
        with no_grad():
            for start in range(0, n, batch_size):
                xb = self.test_images[start : start + batch_size]
                yb = self.test_labels[start : start + batch_size]
                logits = self.model(Tensor(xb)).data
                correct += int((logits.argmax(axis=1) == yb).sum())
        self.model.train()
        return correct / n
