"""The strided kernels against the gather/scatter oracle, over generated geometry.

``reference_kernels`` holds the lowering the repo shipped before the
rewrite.  Tolerances, fixed before measuring, from the dtype: the GEMM
reorders each reduction, so values agree to a few hundred ulps of the
largest operand — ``1e-10`` relative in float64, ``2e-4`` in float32;
copies (``im2col``) and order-preserving sums (``col2im``, pool backward)
must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
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
    no_grad,
    numerical_grad,
    relu,
    standardize,
)
from tests.tensor import reference_kernels as ref

RTOL = {np.float64: 1e-10, np.float32: 2e-4}
BN_GRAD_TOL = {np.float64: 1e-9, np.float32: 5e-3}
DTYPES = st.sampled_from([np.float64, np.float32])


@st.composite
def geometries(draw):
    """(n, c, h, w, f, k, stride, padding, dtype, seed) with H != W and a valid output size."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    lo = max(1, k - 2 * padding)
    h = draw(st.integers(lo, lo + 5))
    w = draw(st.integers(lo, lo + 5))
    assume(h != w)
    return (
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, draw(st.integers(1, 3)),
        k, stride, padding, draw(DTYPES), draw(st.integers(0, 2**16)),
    )  # fmt: skip


def _close(a, b, dtype, tol=RTOL):
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return np.allclose(a, b, rtol=0.0, atol=tol[dtype] * scale)


def _rand(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


class TestLowering:
    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_im2col_equals_gather(self, g):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        x = _rand(np.random.default_rng(seed), (n, c, h + 2 * padding, w + 2 * padding), dtype)
        cols, out_h, out_w = im2col(x, k, k, stride)
        want, ref_h, ref_w = ref.im2col(x, k, k, stride)
        assert (out_h, out_w) == (ref_h, ref_w)
        assert cols.dtype == dtype and cols.shape == (c * k * k, n * out_h * out_w)
        assert np.array_equal(ref.to_batched(cols, n), want)

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_col2im_is_bit_identical_to_scatter_add(self, g):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        shape = (n, c, h + 2 * padding, w + 2 * padding)
        out_h, out_w = (shape[2] - k) // stride + 1, (shape[3] - k) // stride + 1
        cols = _rand(np.random.default_rng(seed), (n, c * k * k, out_h * out_w), dtype)
        got = col2im(ref.to_matrix(cols), shape, k, k, stride)
        want = ref.col2im(cols, shape, k, k, stride)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_col2im_is_the_adjoint_of_im2col(self, g):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        rng = np.random.default_rng(seed)
        x = _rand(rng, (n, c, h + 2 * padding, w + 2 * padding), dtype)
        cols, _, _ = im2col(x, k, k, stride)
        y = _rand(rng, cols.shape, dtype)
        lhs = np.vdot(col2im(y, x.shape, k, k, stride).astype(np.float64), x.astype(np.float64))
        rhs = np.vdot(y.astype(np.float64), cols.astype(np.float64))
        assert abs(lhs - rhs) <= RTOL[dtype] * max(1.0, abs(rhs)) * 10


def _run(op, x, w, b, stride, padding, grad, x_requires_grad=True):
    xt = Tensor(x, requires_grad=x_requires_grad)
    wt = Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True)
    out = op(xt, wt, bt, stride=stride, padding=padding)
    out.backward(grad)
    return out.data, xt.grad, wt.grad, bt.grad


class TestConvolution:
    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_conv2d_matches_oracle(self, g):
        n, c, h, w, f, k, stride, padding, dtype, seed = g
        rng = np.random.default_rng(seed)
        x, wt, b = _rand(rng, (n, c, h, w), dtype), _rand(rng, (f, c, k, k), dtype), _rand(rng, (f,), dtype)
        want = ref.conv2d(x, wt, b, stride, padding, grad=None)
        grad = _rand(rng, want.shape, dtype)
        got = _run(conv2d, x, wt, b, stride, padding, grad)
        want = ref.conv2d(x, wt, b, stride, padding, grad)
        for ours, theirs in zip(got, want):
            assert ours.dtype == dtype and ours.shape == theirs.shape
            assert _close(ours, theirs, dtype)
        assert got[0].flags.c_contiguous

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_depthwise_matches_oracle(self, g):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        rng = np.random.default_rng(seed)
        x, wt, b = _rand(rng, (n, c, h, w), dtype), _rand(rng, (c, 1, k, k), dtype), _rand(rng, (c,), dtype)
        want = ref.depthwise_conv2d(x, wt, b, stride, padding, grad=None)
        grad = _rand(rng, want.shape, dtype)
        got = _run(depthwise_conv2d, x, wt, b, stride, padding, grad)
        want = ref.depthwise_conv2d(x, wt, b, stride, padding, grad)
        for ours, theirs in zip(got, want):
            assert ours.dtype == dtype and ours.shape == theirs.shape
            assert _close(ours, theirs, dtype)

    @pytest.mark.parametrize("op", [conv2d, depthwise_conv2d])
    def test_input_without_grad_gets_none_and_weights_are_unchanged(self, op):
        rng = np.random.default_rng(0)
        x, b = rng.normal(size=(2, 3, 6, 5)), rng.normal(size=3)
        w = rng.normal(size=(3, 3 if op is conv2d else 1, 3, 3))
        grad = rng.normal(size=(2, 3, 6, 5))
        _, gx, gw, gb = _run(op, x, w, b, 1, 1, grad)
        _, no_gx, gw2, gb2 = _run(op, x, w, b, 1, 1, grad, x_requires_grad=False)
        assert gx is not None and no_gx is None
        assert gw.tobytes() == gw2.tobytes() and gb.tobytes() == gb2.tobytes()

    def test_frozen_weight_and_bias_get_no_gradient(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(3, 2, 3, 3))), Tensor(rng.normal(size=3))
        conv2d(x, w, b, padding=1).sum().backward()
        assert x.grad is not None and w.grad is None and b.grad is None

    def test_mixed_precision_input_is_promoted_once(self):
        # float32 images through float64 weights (every model's stem conv)
        rng = np.random.default_rng(2)
        x32 = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3))
        out = conv2d(Tensor(x32), Tensor(w), padding=1).data
        assert out.dtype == np.float64
        assert _close(out, ref.conv2d(x32.astype(np.float64), w, None, 1, 1), np.float64)


class TestPooling:
    @settings(max_examples=60, deadline=None)
    @given(geometries(), st.booleans())
    def test_max_pool_routes_like_argmax(self, g, ties):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        assume(k > 1)
        rng = np.random.default_rng(seed)
        x = _rand(rng, (n, c, h, w), dtype)
        if ties:  # a handful of distinct values: most windows hold several maximal cells
            x = np.round(x).clip(0, 1).astype(dtype)
        want = ref.max_pool2d(x, k, stride, padding)
        # integer-valued gradients add exactly in either dtype and any order
        grad = rng.integers(-4, 5, size=want.shape).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt, k, stride, padding)
        out.backward(grad)
        want, want_gx = ref.max_pool2d(x, k, stride, padding, grad)
        assert out.data.dtype == dtype and np.array_equal(out.data, want)
        assert xt.grad.dtype == dtype and np.array_equal(xt.grad, want_gx)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_max_pool_constant_windows_pick_the_first_cell(self, dtype):
        # overlapping 3x3 / stride 1 / -inf padding on a constant image:
        # every window is one big tie, and padded cells must never win
        x = np.full((1, 2, 4, 5), 0.5, dtype=dtype)
        grad = np.arange(40, dtype=dtype).reshape(1, 2, 4, 5)
        xt = Tensor(x, requires_grad=True)
        max_pool2d(xt, 3, 1, 1).backward(grad)
        _, want = ref.max_pool2d(x, 3, 1, 1, grad)
        assert np.array_equal(xt.grad, want)
        assert xt.grad.sum() == grad.sum()

    @settings(max_examples=40, deadline=None)
    @given(geometries())
    def test_max_pool_float_gradients_keep_scatter_order(self, g):
        n, c, h, w, _, k, stride, padding, _, seed = g
        assume(k > 1)
        rng = np.random.default_rng(seed)
        x = np.maximum(rng.normal(size=(n, c, h, w)), 0.0)  # post-ReLU: zero plateaus
        grad = rng.normal(size=ref.max_pool2d(x, k, stride, padding).shape)
        xt = Tensor(x, requires_grad=True)
        max_pool2d(xt, k, stride, padding).backward(grad)
        _, want = ref.max_pool2d(x, k, stride, padding, grad)
        assert xt.grad.tobytes() == np.ascontiguousarray(want).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_avg_pool_is_bit_identical_to_scatter_add(self, g):
        n, c, h, w, _, k, stride, padding, dtype, seed = g
        rng = np.random.default_rng(seed)
        x = _rand(rng, (n, c, h, w), dtype)
        grad = _rand(rng, ref.avg_pool2d(x, k, stride, padding).shape, dtype)
        xt = Tensor(x, requires_grad=True)
        out = avg_pool2d(xt, k, stride, padding)
        out.backward(grad)
        want, want_gx = ref.avg_pool2d(x, k, stride, padding, grad)
        assert out.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == np.ascontiguousarray(want_gx).tobytes()

    def test_max_pool_nan_window_routes_in_bounds(self):
        # a diverged client must reach the health monitor as NaN, not crash
        x = np.arange(32.0).reshape(1, 2, 4, 4)
        x[0, 1, 3, 3] = np.nan  # bottom-right window of channel 1
        xt = Tensor(x, requires_grad=True)
        out = max_pool2d(xt, 2)
        assert np.isnan(out.data[0, 1, 1, 1]) and np.isfinite(out.data).sum() == 7
        out.backward(np.ones((1, 2, 2, 2)))
        assert xt.grad.shape == x.shape and xt.grad.sum() == 8.0
        assert xt.grad[0, 1, 2, 2] == 1.0  # the NaN window's first cell

    def test_max_pool_forward_alone_builds_no_routing(self):
        with no_grad():
            out = max_pool2d(Tensor(np.arange(16.0).reshape(1, 1, 4, 4)), 2)
        assert out._backward is None and out.data.tolist() == [[[[5.0, 7.0], [13.0, 15.0]]]]


def _bn_pair(c, rng, training, ndim):
    """(layer, oracle weight, oracle bias) sharing values and running statistics."""
    layer = (nn.BatchNorm2d if ndim == 4 else nn.BatchNorm1d)(c)
    layer.weight.data[...] = rng.normal(size=c)
    layer.bias.data[...] = rng.normal(size=c)
    layer._set_buffer("running_mean", rng.normal(size=c))
    layer._set_buffer("running_var", rng.uniform(0.5, 2.0, size=c))
    layer.train(training)
    w = Tensor(layer.weight.data.copy(), requires_grad=True)
    b = Tensor(layer.bias.data.copy(), requires_grad=True)
    return layer, w, b


class TestBatchNorm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
        st.booleans(), st.booleans(), DTYPES, st.integers(0, 2**16),
    )  # fmt: skip
    def test_matches_composed_reference(self, n, c, h, w, training, two_d, dtype, seed):
        rng = np.random.default_rng(seed)
        shape = (n, c, h, w) if two_d else (n, c)
        axes = (0, 2, 3) if two_d else (0,)
        x = _rand(rng, shape, dtype)
        grad = _rand(rng, shape, dtype)
        layer, w_ref, b_ref = _bn_pair(c, rng, training, len(shape))
        rm, rv = layer.running_mean.copy(), layer.running_var.copy()

        xt = Tensor(x, requires_grad=True)
        out = layer(xt)
        out.backward(grad)

        xr = Tensor(x, requires_grad=True)
        want, want_rm, want_rv = ref.batch_norm(xr, w_ref, b_ref, rm, rv, training, axes)
        want.backward(grad)

        if training and dtype == np.float64:
            # same statistics, same elementwise order: exact.  (The composed
            # float32 path promoted to float64 at ``var + eps``; the fused
            # node stays in the input dtype, so float32 is only close.)
            assert out.data.tobytes() == want.data.tobytes()
            assert layer.running_mean.tobytes() == want_rm.tobytes()
            assert layer.running_var.tobytes() == want_rv.tobytes()
        assert _close(out.data, want.data, dtype)
        if training:
            assert _close(layer.running_mean, want_rm, dtype)
            assert _close(layer.running_var, want_rv, dtype)
            assert int(layer.num_batches_tracked) == 1
        else:
            assert np.array_equal(layer.running_mean, rm) and np.array_equal(layer.running_var, rv)
        # the closed-form backward cancels differently from the composed one,
        # and 1/sqrt(var + eps) amplifies either by up to 1/sqrt(eps) ~ 316
        for ours, theirs in (
            (xt.grad, xr.grad), (layer.weight.grad, w_ref.grad), (layer.bias.grad, b_ref.grad)
        ):
            assert ours.shape == theirs.shape
            assert _close(ours, theirs, dtype, BN_GRAD_TOL)

    def test_training_mode_is_one_tape_node(self):
        layer = nn.BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 2, 2)), requires_grad=True)
        out = layer(x)
        assert set(map(id, out._prev)) == {id(x), id(layer.weight), id(layer.bias)}

    def test_standardize_without_affine_returns_batch_statistics(self):
        x = np.random.default_rng(1).normal(size=(5, 4))
        out, mu, var = standardize(Tensor(x), (0,), 1e-5)
        assert np.array_equal(mu, x.mean(axis=0, keepdims=True))
        assert np.allclose(var, x.var(axis=0, keepdims=True))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-12)


def _gradcheck32(fn, arrays, rtol=2e-2, atol=2e-3):
    """Float32 analytic gradients against float64 central differences."""
    tensors = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    for i, t in enumerate(tensors):
        num = numerical_grad(
            lambda *raw: fn(*[Tensor(r) for r in raw]).data,
            [a.astype(np.float32).astype(np.float64) for a in arrays], i, eps=1e-6,
        )  # fmt: skip
        assert t.grad.dtype == np.float32
        assert np.allclose(t.grad, num, rtol=rtol, atol=atol), f"input {i}"
    return True


def _bn_fn(training):
    def fn(x, w, b):
        layer = nn.BatchNorm2d(2)
        layer.train(training)
        layer._set_buffer("running_mean", np.array([0.3, -0.2]))
        layer._set_buffer("running_var", np.array([0.8, 1.7]))
        layer.weight, layer.bias = w, b
        # the hand-set buffers follow the precision under test (a no-op for
        # ``w``/``b``, which already have it); mixed inputs would promote
        layer.astype(x.dtype)
        return (layer(x) ** 2).sum()

    return fn


_R = np.random.default_rng(7)
_X = _R.normal(size=(2, 2, 5, 4))
GRAD_CASES = {
    "conv2d_3x3_s1_p1": (lambda x, w, b: (conv2d(x, w, b, stride=1, padding=1) ** 2).sum(),
                         [_X, _R.normal(size=(3, 2, 3, 3)) * 0.4, _R.normal(size=3)]),
    "conv2d_5x5_s2_p2": (lambda x, w, b: (conv2d(x, w, b, stride=2, padding=2) ** 2).sum(),
                         [_X, _R.normal(size=(2, 2, 5, 5)) * 0.3, _R.normal(size=2)]),
    "conv2d_1x1": (lambda x, w: (conv2d(x, w) ** 2).sum(), [_X, _R.normal(size=(3, 2, 1, 1))]),
    "depthwise_3x3_s2_p1": (lambda x, w, b: (depthwise_conv2d(x, w, b, stride=2, padding=1) ** 2).sum(),
                            [_X, _R.normal(size=(2, 1, 3, 3)) * 0.4, _R.normal(size=2)]),
    "max_pool_2x2": (lambda x: (max_pool2d(x, 2) ** 2).sum(), [_X]),
    "max_pool_3x3_s1_p1": (lambda x: (max_pool2d(x, 3, 1, 1) ** 2).sum(), [_X]),
    "avg_pool_3x3_s1_p1": (lambda x: (avg_pool2d(x, 3, 1, 1) ** 2).sum(), [_X]),
    "avg_pool_2x2": (lambda x: (avg_pool2d(x, 2) ** 2).sum(), [_X]),
    "global_avg_pool": (lambda x: (adaptive_avg_pool2d(x) ** 2).sum(), [_X]),
    "relu": (lambda x: (relu(x) ** 2).sum(), [_X]),
    "channel_split": (lambda x: (x[:, 1:] * x[:, :1]).sum(), [_X]),
    "batchnorm_train": (_bn_fn(True), [_X, _R.normal(size=2), _R.normal(size=2)]),
    "batchnorm_eval": (_bn_fn(False), [_X, _R.normal(size=2), _R.normal(size=2)]),
    "standardize_rows": (lambda x: (standardize(x, (-1,), 1e-5)[0] ** 3).sum(), [_R.normal(size=(3, 6))]),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
class TestFiniteDifferences:
    def test_float64(self, name):
        fn, arrays = GRAD_CASES[name]
        assert gradcheck(fn, arrays, atol=1e-4)

    def test_float32(self, name):
        fn, arrays = GRAD_CASES[name]
        assert _gradcheck32(fn, arrays)


@pytest.mark.parametrize("arch", ["resnet18", "shufflenetv2", "googlenet", "alexnet"])
class TestModuleAstype:
    """``Module.astype``: the float32 model is its float64 original, rounded once."""

    @staticmethod
    def _model(arch):
        from repro.models import build_model

        return build_model(arch, in_channels=3, num_classes=5, scale="tiny", rng=np.random.default_rng(4))

    def test_float32_model_tracks_its_float64_original(self, arch):
        images = np.random.default_rng(0).random((6, 3, 16, 16)).astype(np.float32)
        original, cast = self._model(arch).eval(), self._model(arch).astype(np.float32).eval()
        runs = []
        for dtype, model in ((np.float64, original), (np.float32, cast)):
            out = model(Tensor(images))
            assert out.dtype == dtype
            (out**2).sum().backward()
            runs.append((out.data, dict(model.classifier.named_parameters())))
        (want, want_p), (got, got_p) = runs
        assert _close(got, want, np.float32, BN_GRAD_TOL)
        for key, p in got_p.items():
            assert p.grad.dtype == np.float32
            assert _close(p.grad, want_p[key].grad, np.float32, BN_GRAD_TOL)

    def test_round_trip_keeps_every_parameter_object(self, arch):
        from repro.optim import Adam

        model = self._model(arch)
        params = model.parameters()
        opt = Adam(params, lr=1e-2)  # built before the cast
        rounded = {n: p.data.astype(np.float32) for n, p in model.named_parameters()}

        assert model.astype(np.float32) is model
        assert all(a is b for a, b in zip(params, model.parameters()))
        assert {p.dtype for p in params} == {np.dtype(np.float32)}
        assert all(np.array_equal(p.data, rounded[n]) for n, p in model.named_parameters())
        for name, buf in model.named_buffers():
            assert buf.dtype == (np.int64 if name.endswith("num_batches_tracked") else np.float32)

        # the optimizer steps the arrays the model now computes with
        x = Tensor(np.random.default_rng(1).random((4, 3, 16, 16)).astype(np.float32))
        (model(x) ** 2).sum().backward()
        opt.step()
        assert any(not np.array_equal(p.data, rounded[n]) for n, p in model.named_parameters())
        assert {m.dtype for m in opt._m + opt._v if m is not None} == {np.dtype(np.float32)}

        stepped = {n: p.data.copy() for n, p in model.named_parameters()}
        model.astype(np.float64)
        assert all(a is b for a, b in zip(params, model.parameters()))
        assert {p.dtype for p in params} == {np.dtype(np.float64)}
        # float32 -> float64 is exact, and a cast drops stale gradients
        assert all(np.array_equal(p.data, stepped[n]) for n, p in model.named_parameters())
        assert all(p.grad is None for p in params)
