"""Core Tensor behaviour: construction, dtype handling, tape basics."""

import numpy as np
import pytest

from repro.tensor import Tensor, as_tensor, no_grad, unbroadcast


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_int_input_upcast_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_bool_input_upcast_to_float(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype == np.float64

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_scalar(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5

    def test_properties(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.ndim == 3
        assert t.size == 24
        assert len(t) == 2

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_numpy_returns_backing_array(self):
        arr = np.ones(3)
        t = Tensor(arr)
        assert t.numpy() is t.data


class TestDetachAndGrads:
    def test_detach_cuts_tape(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._prev == ()

    def test_detach_shares_data(self):
        a = Tensor([1.0], requires_grad=True)
        assert a.detach().data is a.data

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_requires_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [3.0, 30.0])

    def test_grad_accumulates_over_backwards(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 1).sum().backward()
        (a * 1).sum().backward()
        assert np.allclose(a.grad, [2.0])


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_no_grad_blocks_new_tensor_requires_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad

    def test_no_grad_restores(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (a * 2).requires_grad

    def test_nested_enable_grad(self):
        from repro.tensor import enable_grad

        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with enable_grad():
                b = a * 2
        assert b.requires_grad


class TestUnbroadcast:
    def test_identity_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_leading_axes(self):
        g = np.ones((4, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(g, (2, 3)) == 4)

    def test_sum_stretched_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 3)

    def test_combined(self):
        g = np.ones((5, 2, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.all(out == 10)

    def test_scalar_target(self):
        g = np.ones((2, 2))
        assert unbroadcast(g, ()).item() == 4


class TestAsTensor:
    def test_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_wraps_array(self):
        assert isinstance(as_tensor(np.ones(2)), Tensor)

    def test_wraps_scalar(self):
        assert as_tensor(3.0).item() == 3.0


class TestComparisons:
    def test_comparisons_return_bool_arrays(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([2.0, 2.0, 2.0])
        assert np.array_equal(a > b, [False, False, True])
        assert np.array_equal(a < b, [True, False, False])
        assert np.array_equal(a >= b, [False, True, True])
        assert np.array_equal(a <= b, [True, True, False])

    def test_comparison_with_scalar(self):
        a = Tensor([1.0, 3.0])
        assert np.array_equal(a > 2.0, [False, True])


def _copying_accumulate(self, grad):
    """``Tensor._accumulate`` as it was: copy the first gradient, add the rest in place."""
    if self.grad is None:
        self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
    else:
        self.grad += grad


class TestAccumulateKeepsReferences:
    """The first gradient is kept by reference, so it must never be written to.

    Closures hand the *same* array to several parents (``__add__`` returns
    ``grad`` itself to both), which is where an in-place add on a borrowed
    array would corrupt a sibling.  Each graph is run under the copying
    implementation too, and must match it bit for bit in float64.
    """

    GRAPHS = {
        "x + x": lambda x, w: (x + x).sum(),
        "one node, three consumers": lambda x, w: ((h := x * 2.0) + h * h - h / 3.0).sum(),
        "same array to both parents, one of them twice": lambda x, w: ((x + w) + x).sum(),
        "residual over a reshape view": lambda x, w: (x.reshape(-1) + x.transpose().reshape(-1)).sum(),
        "four consumers of a leaf": lambda x, w: (x * w + x - w * x + x @ w).sum(),
    }

    @staticmethod
    def _grads(fn, seed, accumulate=None, monkeypatch=None):
        if accumulate is not None:
            monkeypatch.setattr(Tensor, "_accumulate", accumulate)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        fn(x, w).backward()
        return x.grad, w.grad

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_matches_the_copying_implementation_bit_for_bit(self, name, monkeypatch):
        fn = self.GRAPHS[name]
        got = self._grads(fn, 3)
        want = self._grads(fn, 3, _copying_accumulate, monkeypatch)
        for ours, theirs in zip(got, want):
            if theirs is None:
                assert ours is None
            else:
                assert ours.dtype == np.float64 and ours.tobytes() == theirs.tobytes()

    def test_x_plus_x_is_two(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        (x + x).sum().backward()
        assert x.grad.tolist() == [2.0, 2.0, 2.0]

    def test_a_parameter_reused_by_two_layers(self, monkeypatch):
        from repro import nn
        from repro.nn.module import Parameter

        def grads(accumulate=None):
            if accumulate is not None:
                monkeypatch.setattr(Tensor, "_accumulate", accumulate)
            rng = np.random.default_rng(5)
            first, second = nn.Linear(4, 4, rng=rng), nn.Linear(4, 4, rng=rng)
            second.weight = first.weight  # tied weights
            x = Tensor(rng.normal(size=(3, 4)))
            (second(first(x).relu()) ** 2).sum().backward()
            assert isinstance(first.weight, Parameter) and second.weight is first.weight
            return first.weight.grad, first.bias.grad, second.bias.grad

        got, want = grads(), grads(_copying_accumulate)
        assert [g.tobytes() for g in got] == [np.ascontiguousarray(g).tobytes() for g in want]

    def test_the_seed_gradient_is_not_written_to(self):
        seed = np.ones((2, 2))
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x + 0.0
        (y + y * 2.0).backward(seed)
        assert seed.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert x.grad.tolist() == [[3.0, 3.0], [3.0, 3.0]]
