"""Convolution and pooling kernels: reference values and gradients."""

import numpy as np
import pytest
from scipy import signal

from repro.tensor import (
    Tensor,
    adaptive_avg_pool2d,
    avg_pool2d,
    col2im,
    conv2d,
    depthwise_conv2d,
    gradcheck,
    im2col,
    max_pool2d,
)


def _rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def _ref_conv2d(x, w, b, stride, padding):
    """Direct cross-correlation reference via scipy.signal.correlate2d."""
    n, c, h, ww_ = x.shape
    f = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - w.shape[2]) // stride + 1
    ow = (xp.shape[3] - w.shape[3]) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            acc = np.zeros((xp.shape[2] - w.shape[2] + 1, xp.shape[3] - w.shape[3] + 1))
            for ci in range(c):
                acc += signal.correlate2d(xp[ni, ci], w[fi, ci], mode="valid")
            out[ni, fi] = acc[::stride, ::stride]
            if b is not None:
                out[ni, fi] += b[fi]
    return out


class TestConv2dForward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_scipy_reference(self, stride, padding):
        x = _rand((2, 3, 8, 8))
        w = _rand((4, 3, 3, 3), 1)
        b = _rand((4,), 2)
        ours = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
        ref = _ref_conv2d(x, w, b, stride, padding)
        assert np.allclose(ours, ref, atol=1e-10)

    def test_1x1_conv(self):
        x = _rand((1, 4, 5, 5))
        w = _rand((2, 4, 1, 1), 1)
        out = conv2d(Tensor(x), Tensor(w)).data
        ref = np.einsum("fc,nchw->nfhw", w[:, :, 0, 0], x)
        assert np.allclose(out, ref)

    def test_no_bias(self):
        x, w = _rand((1, 2, 4, 4)), _rand((3, 2, 3, 3), 1)
        assert conv2d(Tensor(x), Tensor(w)).shape == (1, 3, 2, 2)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(_rand((1, 2, 4, 4))), Tensor(_rand((3, 5, 3, 3))))


class TestConv2dGrad:
    def test_gradcheck_with_bias(self):
        x, w, b = _rand((2, 2, 5, 5)), _rand((3, 2, 3, 3), 1) * 0.4, _rand((3,), 2)
        assert gradcheck(
            lambda x, w, b: conv2d(x, w, b, stride=1, padding=1).sum(), [x, w, b], atol=1e-4
        )

    def test_gradcheck_strided(self):
        x, w = _rand((1, 2, 6, 6)), _rand((2, 2, 3, 3), 1) * 0.4
        assert gradcheck(lambda x, w: (conv2d(x, w, stride=2) ** 2).sum(), [x, w], atol=1e-4)


class TestDepthwise:
    def test_matches_per_channel_conv(self):
        x = _rand((2, 3, 6, 6))
        w = _rand((3, 1, 3, 3), 1)
        out = depthwise_conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        for c in range(3):
            ref = _ref_conv2d(x[:, c : c + 1], w[c : c + 1], None, 1, 1)
            assert np.allclose(out[:, c : c + 1], ref, atol=1e-10)

    def test_gradcheck(self):
        x, w = _rand((1, 2, 5, 5)), _rand((2, 1, 3, 3), 1) * 0.4
        assert gradcheck(
            lambda x, w: depthwise_conv2d(x, w, stride=2, padding=1).sum(), [x, w], atol=1e-4
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            depthwise_conv2d(Tensor(_rand((1, 2, 4, 4))), Tensor(_rand((3, 1, 3, 3))))


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2, 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_padding_uses_neg_inf(self):
        x = -np.ones((1, 1, 2, 2))
        out = max_pool2d(Tensor(x), 2, 2, padding=1).data
        # corners see one real value (-1); padding must not win with 0
        assert np.allclose(out, -1.0)

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = avg_pool2d(Tensor(x), 2, 2).data
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_grad(self):
        x = _rand((2, 2, 6, 6))
        assert gradcheck(lambda a: max_pool2d(a, 2, 2).sum(), [x])

    def test_max_pool_overlapping_grad(self):
        assert gradcheck(lambda a: max_pool2d(a, 3, 1).sum(), [_rand((1, 1, 5, 5))])

    def test_avg_pool_grad(self):
        assert gradcheck(lambda a: avg_pool2d(a, 2, 2).sum(), [_rand((2, 2, 4, 4))])

    def test_avg_pool_overlap_grad(self):
        assert gradcheck(lambda a: (avg_pool2d(a, 3, 1, padding=1) ** 2).sum(), [_rand((1, 2, 4, 4))])

    def test_adaptive_avg_pool(self):
        x = _rand((2, 3, 5, 7))
        out = adaptive_avg_pool2d(Tensor(x)).data
        assert out.shape == (2, 3, 1, 1)
        assert np.allclose(out[..., 0, 0], x.mean((2, 3)))

    def test_adaptive_avg_pool_grad(self):
        assert gradcheck(lambda a: (adaptive_avg_pool2d(a) ** 2).sum(), [_rand((1, 2, 3, 3))])

    def test_adaptive_pool_2x2_even_split(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = adaptive_avg_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adaptive_pool_uneven_bins(self):
        # 5 -> 2 bins: [0,3) and [2,5) per the ceil/floor convention
        x = np.arange(5.0).reshape(1, 1, 1, 5)
        out = adaptive_avg_pool2d(Tensor(np.repeat(x, 5, axis=2)), 2).data
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out[0, 0, 0], [1.0, 3.0])

    def test_adaptive_pool_general_grad(self):
        assert gradcheck(lambda a: (adaptive_avg_pool2d(a, 2) ** 2).sum(), [_rand((1, 2, 5, 5))])
        assert gradcheck(lambda a: (adaptive_avg_pool2d(a, 3) ** 2).sum(), [_rand((1, 1, 7, 7))])

    def test_adaptive_pool_upsampling_repeats(self):
        # output larger than input: bins repeat pixels (PyTorch semantics)
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = adaptive_avg_pool2d(Tensor(x), 3).data
        assert out.shape == (1, 1, 3, 3)
        assert out[0, 0, 0, 0] == 1.0 and out[0, 0, 2, 2] == 4.0

    def test_adaptive_pool_upsampling_grad(self):
        assert gradcheck(lambda a: (adaptive_avg_pool2d(a, 3) ** 2).sum(), [_rand((1, 1, 2, 2))])


class TestIm2Col:
    def test_roundtrip_counts(self):
        # col2im(im2col(x)) multiplies each pixel by its window membership count
        x = np.ones((1, 1, 4, 4))
        cols, oh, ow = im2col(x, 2, 2, 1)
        back = col2im(cols, x.shape, 2, 2, 1)
        # center pixels belong to 4 windows, corners to 1
        assert back[0, 0, 0, 0] == 1
        assert back[0, 0, 1, 1] == 4

    def test_shapes(self):
        x = _rand((2, 3, 5, 5))
        cols, oh, ow = im2col(x, 3, 3, 2)
        assert cols.shape == (3 * 9, 2 * oh * ow)
        assert (oh, ow) == (2, 2)
