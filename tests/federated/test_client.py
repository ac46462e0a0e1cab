"""FederatedClient behaviour."""

import numpy as np
import pytest

from repro.federated import FederatedClient
from repro.federated.client import norm_keys

SHARES = ("classifier", "body", "all", "all_but_norm")
from repro.models import build_model


def _client(cid=0, n=40, seed=0):
    rng = np.random.default_rng(seed)
    model = build_model("cnn2layer", in_channels=1, num_classes=4, scale="tiny", rng=rng)
    images = rng.random((n, 1, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 4, n)
    return FederatedClient(
        client_id=cid,
        model=model,
        train_images=images,
        train_labels=labels,
        test_images=images[: n // 2],
        test_labels=labels[: n // 2],
        batch_size=8,
        lr=1e-3,
        seed=seed,
    )


class TestClient:
    def test_data_size(self):
        assert _client(n=40).data_size == 40

    def test_evaluate_in_unit_interval(self):
        acc = _client().evaluate()
        assert 0.0 <= acc <= 1.0

    def test_evaluate_perfect_when_memorized(self):
        c = _client(n=8)
        # force the model's predictions by evaluating against its own argmax
        from repro.tensor import Tensor, no_grad

        with no_grad():
            preds = c.model(Tensor(c.test_images)).data.argmax(1)
        c.test_labels = preds
        assert c.evaluate() == 1.0

    def test_evaluate_restores_train_mode(self):
        c = _client()
        c.model.train()
        c.evaluate()
        assert c.model.training

    def test_evaluate_empty_test_set(self):
        c = _client()
        c.test_labels = np.array([], dtype=np.int64)
        c.test_images = np.zeros((0, 1, 8, 8), dtype=np.float32)
        assert c.evaluate() == 0.0

    def test_train_loader_covers_shard(self):
        c = _client(n=20)
        total = sum(len(y) for _, y in c.train_loader())
        assert total == 20

    def test_independent_rng_streams_across_clients(self):
        c1, c2 = _client(cid=0), _client(cid=1)
        assert c1.aug_rng.random() != c2.aug_rng.random()

    def test_same_client_id_same_stream(self):
        a = _client(cid=3).aug_rng.random(5)
        b = _client(cid=3).aug_rng.random(5)
        assert np.array_equal(a, b)

    def test_optimizer_bound_to_model_params(self):
        c = _client()
        model_param_ids = {id(p) for p in c.model.parameters()}
        assert all(id(p) in model_param_ids for p in c.optimizer.params)

    def test_custom_optimizer_factory(self):
        from repro.optim import SGD

        rng = np.random.default_rng(0)
        model = build_model("cnn2layer", in_channels=1, num_classes=2, scale="tiny", rng=rng)
        c = FederatedClient(
            0,
            model,
            np.zeros((4, 1, 8, 8), dtype=np.float32),
            np.zeros(4, dtype=np.int64),
            np.zeros((2, 1, 8, 8), dtype=np.float32),
            np.zeros(2, dtype=np.int64),
            optimizer_factory=lambda params: SGD(params, lr=0.5),
        )
        assert isinstance(c.optimizer, SGD)


def _bn_client():
    rng = np.random.default_rng(0)
    model = build_model("resnet18", in_channels=1, num_classes=4, scale="tiny", rng=rng)
    images = rng.random((8, 1, 8, 8)).astype(np.float32)
    labels = rng.integers(0, 4, 8)
    return FederatedClient(0, model, images, labels, images, labels, batch_size=8)


class TestSharedKeys:
    """Which keys cross the wire is decided here, over the model's own state-dict keys."""

    def test_key_sets_partition_the_state_dict(self):
        c = _bn_client()
        everything = set(c.model.state_dict())
        assert c.shared_keys("all") == everything
        assert c.shared_keys("classifier") == {"classifier.weight", "classifier.bias"}
        assert c.shared_keys("body") == everything - c.shared_keys("classifier")
        assert all(k.startswith("feature_extractor.") for k in c.shared_keys("body"))
        assert c.shared_keys("all_but_norm") == everything - norm_keys(c.model)
        assert any(k.endswith("num_batches_tracked") for k in norm_keys(c.model))

    def test_unknown_share_is_refused(self):
        with pytest.raises(KeyError, match="head"):
            _client().shared_keys("head")

    @pytest.mark.parametrize("share", sorted(SHARES))
    def test_round_trip_replaces_exactly_the_shared_keys(self, share):
        c = _bn_client()
        before = c.model.state_dict()
        sent = {k: v + 1 for k, v in c.shared_state(share).items()}
        assert set(sent) == c.shared_keys(share)
        c.load_shared_state(sent, share)
        for k, v in c.model.state_dict().items():
            assert np.array_equal(v, before[k] + 1 if k in sent else before[k])

    @pytest.mark.parametrize("share", sorted(SHARES))
    def test_broadcast_with_a_missing_or_an_extra_key_raises(self, share):
        c = _bn_client()
        before = c.model.state_dict()
        good = c.shared_state(share)
        missing = dict(list(good.items())[1:])
        with pytest.raises(KeyError, match="missing"):
            c.load_shared_state(missing, share)
        with pytest.raises(KeyError, match="unexpected .*junk"):
            c.load_shared_state({**good, "junk": np.zeros(1)}, share)
        # nothing was loaded partially on the way to the error
        for k, v in c.model.state_dict().items():
            assert np.array_equal(v, before[k])
