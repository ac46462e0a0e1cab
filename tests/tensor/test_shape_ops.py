"""Shape-manipulation ops: values and gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor, concat, flatten, getitem, gradcheck, pad2d, repeat, reshape, stack, transpose


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestValues:
    def test_reshape(self):
        x = _rand((2, 6))
        assert reshape(Tensor(x), 3, 4).shape == (3, 4)

    def test_reshape_tuple_arg(self):
        assert reshape(Tensor(_rand((2, 6))), (4, 3)).shape == (4, 3)

    def test_reshape_minus_one(self):
        assert reshape(Tensor(_rand((2, 6))), (-1,)).shape == (12,)

    def test_transpose_default_reverses(self):
        assert transpose(Tensor(_rand((2, 3, 4)))).shape == (4, 3, 2)

    def test_transpose_axes(self):
        x = _rand((2, 3, 4))
        assert np.allclose(transpose(Tensor(x), (1, 0, 2)).data, x.transpose(1, 0, 2))

    def test_t_property(self):
        x = _rand((2, 3))
        assert np.allclose(Tensor(x).T.data, x.T)

    def test_flatten(self):
        assert flatten(Tensor(_rand((2, 3, 4)))).shape == (2, 12)

    def test_flatten_start_dim(self):
        assert flatten(Tensor(_rand((2, 3, 4, 5))), start_dim=2).shape == (2, 3, 20)

    def test_concat(self):
        a, b = _rand((2, 3)), _rand((2, 2), 1)
        out = concat([Tensor(a), Tensor(b)], axis=1)
        assert np.allclose(out.data, np.concatenate([a, b], axis=1))

    def test_stack(self):
        a, b = _rand((2, 3)), _rand((2, 3), 1)
        out = stack([Tensor(a), Tensor(b)], axis=0)
        assert out.shape == (2, 2, 3)

    def test_pad2d_int(self):
        out = pad2d(Tensor(_rand((1, 1, 3, 3))), 2)
        assert out.shape == (1, 1, 7, 7)
        assert np.allclose(out.data[0, 0, 0], 0)

    def test_pad2d_zero_is_identity(self):
        x = Tensor(_rand((1, 1, 3, 3)))
        assert pad2d(x, 0) is x

    def test_pad2d_asymmetric_tuple(self):
        out = pad2d(Tensor(_rand((1, 1, 3, 3))), (1, 2))
        assert out.shape == (1, 1, 5, 7)

    def test_getitem_slice(self):
        x = _rand((4, 5))
        assert np.allclose(Tensor(x)[1:3].data, x[1:3])

    def test_getitem_fancy(self):
        x = _rand((4, 5))
        idx = (np.array([0, 2]), np.array([1, 3]))
        assert np.allclose(getitem(Tensor(x), idx).data, x[idx])

    def test_repeat(self):
        x = _rand((2, 2))
        assert repeat(Tensor(x), 3, axis=0).shape == (6, 2)


class TestGradients:
    def test_reshape_grad(self):
        assert gradcheck(lambda a: (reshape(a, 6) ** 2).sum(), [_rand((2, 3))])

    def test_transpose_grad(self):
        assert gradcheck(lambda a: (transpose(a, (2, 0, 1)) ** 2).sum(), [_rand((2, 3, 4))])

    def test_concat_grad(self):
        assert gradcheck(
            lambda a, b: (concat([a, b], axis=0) ** 2).sum(), [_rand((2, 3)), _rand((1, 3), 1)]
        )

    def test_stack_grad(self):
        assert gradcheck(
            lambda a, b: (stack([a, b], axis=1) ** 2).sum(), [_rand((2, 3)), _rand((2, 3), 1)]
        )

    def test_pad_grad(self):
        assert gradcheck(lambda a: (pad2d(a, 1) ** 2).sum(), [_rand((1, 2, 3, 3))])

    def test_getitem_slice_grad(self):
        assert gradcheck(lambda a: (a[1:3, ::2] ** 2).sum(), [_rand((4, 5))])

    @pytest.mark.parametrize(
        "idx",
        [
            (slice(None), slice(0, 2)),  # shufflenet's channel split
            (1, Ellipsis, slice(None, None, -2)),
            (Ellipsis, None, 2),
            (slice(None), np.array([2, 0, 2]), slice(1, 3)),  # advanced: column 2 taken twice
            np.array([[True, False, True]] * 2),
        ],
    )
    def test_getitem_grad_matches_scatter_add(self, idx):
        # basic indices are written with one assignment, advanced ones
        # scatter-added; both must equal the scatter-add of the gradient
        x = Tensor(_rand((2, 3, 4)), requires_grad=True)
        out = x[idx]
        grad = _rand(out.shape, 1)
        out.backward(grad)
        want = np.zeros(x.shape)
        np.add.at(want, idx, grad)
        assert np.array_equal(x.grad, want)

    def test_getitem_fancy_grad_with_duplicates(self):
        # duplicated indices must accumulate via scatter-add
        idx = np.array([0, 0, 1])
        x = Tensor(_rand((3,)), requires_grad=True)
        x[idx].sum().backward()
        assert np.allclose(x.grad, [2.0, 1.0, 0.0])

    def test_repeat_grad(self):
        assert gradcheck(lambda a: (repeat(a, 2, axis=1) ** 2).sum(), [_rand((2, 3))])

    def test_flatten_grad(self):
        assert gradcheck(lambda a: (flatten(a) ** 2).sum(), [_rand((2, 2, 2))])
