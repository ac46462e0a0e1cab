"""Module system: registration, traversal, state dicts, modes."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


def _mlp():
    return nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))


class TestRegistration:
    def test_parameter_autoregistered(self):
        lin = nn.Linear(3, 2)
        names = dict(lin.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_no_bias_not_registered(self):
        lin = nn.Linear(3, 2, bias=False)
        assert set(dict(lin.named_parameters())) == {"weight"}

    def test_submodule_prefixes(self):
        m = _mlp()
        names = [n for n, _ in m.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_reassignment_unregisters(self):
        lin = nn.Linear(3, 2)
        lin.weight = None
        assert "weight" not in dict(lin.named_parameters())

    def test_named_modules(self):
        m = _mlp()
        names = [n for n, _ in m.named_modules()]
        assert "" in names and "0" in names and "1" in names

    def test_num_parameters(self):
        lin = nn.Linear(3, 2)
        assert lin.num_parameters() == 3 * 2 + 2

    def test_parameter_requires_grad_even_under_no_grad(self):
        from repro.tensor import no_grad

        with no_grad():
            lin = nn.Linear(2, 2)
        assert all(p.requires_grad for p in lin.parameters())


class TestStateDict:
    def test_roundtrip(self):
        m1, m2 = _mlp(), _mlp()
        m2.load_state_dict(m1.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert np.allclose(m1(x).data, m2(x).data)

    def test_load_keeps_the_modules_dtype(self):
        """A float64 average loaded into a float32 model leaves it float32, buffers included."""
        source = nn.Sequential(nn.Conv2d(1, 2, 3), nn.BatchNorm2d(2))
        target = nn.Sequential(nn.Conv2d(1, 2, 3), nn.BatchNorm2d(2)).astype(np.float32)
        state = source.state_dict()
        assert {v.dtype for k, v in state.items() if "tracked" not in k} == {np.dtype(np.float64)}
        target.load_state_dict(state)
        loaded = target.state_dict()
        assert {v.dtype for k, v in loaded.items() if "tracked" not in k} == {np.dtype(np.float32)}
        assert loaded["1.num_batches_tracked"].dtype == np.int64
        assert all(np.array_equal(loaded[k], state[k].astype(loaded[k].dtype)) for k in state)
        state["1.running_mean"][...] = 7.0  # the module holds its own copy
        assert not np.any(target.state_dict()["1.running_mean"] == 7.0)

    def test_state_dict_copies(self):
        m = nn.Linear(2, 2)
        sd = m.state_dict()
        sd["weight"][...] = 99
        assert not np.allclose(m.weight.data, 99)

    def test_missing_key_strict_raises(self):
        m = nn.Linear(2, 2)
        sd = m.state_dict()
        del sd["bias"]
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_missing_key_nonstrict_ok(self):
        m = nn.Linear(2, 2)
        sd = m.state_dict()
        del sd["bias"]
        m.load_state_dict(sd, strict=False)

    def test_extra_key_strict_raises(self):
        m = nn.Linear(2, 2)
        sd = m.state_dict()
        sd["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_shape_mismatch_raises(self):
        m = nn.Linear(2, 2)
        sd = m.state_dict()
        sd["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            m.load_state_dict(sd)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(4)
        sd = bn.state_dict()
        assert "running_mean" in sd and "running_var" in sd and "num_batches_tracked" in sd

    def test_buffer_roundtrip(self):
        bn1, bn2 = nn.BatchNorm2d(3), nn.BatchNorm2d(3)
        bn1.train()
        bn1(Tensor(np.random.default_rng(0).normal(size=(4, 3, 2, 2))))
        bn2.load_state_dict(bn1.state_dict())
        assert np.allclose(bn1.running_mean, bn2.running_mean)
        assert bn2.num_batches_tracked == 1

    def test_load_preserves_parameter_identity(self):
        m = nn.Linear(2, 2)
        p_before = m.weight
        m.load_state_dict(m.state_dict())
        assert m.weight is p_before  # in-place load (optimizer refs stay valid)


class TestModes:
    def test_train_eval_propagates(self):
        m = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        m.eval()
        assert not m.training
        assert not m[0].training
        m.train()
        assert m[0].training

    def test_zero_grad(self):
        m = nn.Linear(2, 2)
        (m(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert m.weight.grad is not None
        m.zero_grad()
        assert m.weight.grad is None


class TestContainers:
    def test_sequential_iteration_and_index(self):
        m = _mlp()
        assert len(m) == 3
        assert isinstance(m[0], nn.Linear)
        assert len(list(iter(m))) == 3

    def test_module_list(self):
        ml = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(ml) == 2
        assert isinstance(ml[1], nn.Linear)
        # parameters of list items are registered
        assert len(list(ml.named_parameters())) == 4

    def test_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert nn.Identity()(x) is x

    def test_flatten_module(self):
        out = nn.Flatten()(Tensor(np.ones((2, 3, 4))))
        assert out.shape == (2, 12)
