"""Federated client state: model + local shards + private RNG streams."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ArrayView
from repro.data.loader import DataLoader
from repro.models.split import SplitModel
from repro.optim import Adam, Optimizer
from repro.tensor import Tensor, no_grad

__all__ = ["FederatedClient"]


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

    @property
    def data_size(self) -> int:
        """|D_k| — the aggregation weight numerator in Eqs. (1)–(3)."""
        return len(self.train_labels)

    def shared_state(self, whole_model: bool = False) -> dict[str, np.ndarray]:
        """What this client exchanges with the server: ``C_k``, or the whole model."""
        return self.model.state_dict() if whole_model else self.model.classifier_state()

    def load_shared_state(self, state: dict[str, np.ndarray], whole_model: bool = False) -> None:
        """Adopt a broadcast: replace ``C_k`` (or the whole model) with ``state``."""
        if whole_model:
            self.model.load_state_dict(state)
        else:
            self.model.load_classifier_state(state)

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
