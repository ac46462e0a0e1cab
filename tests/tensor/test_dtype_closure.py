"""Every op returns the dtype it was given, forward and backward.

Precision is a property of the arrays the engine is handed — there is no
switch — so closure is what keeps a float32 client float32 end to end (and
a hand-built float64 model float64).  Each case below runs in both dtypes
over generated shapes and values; a Python scalar, an integer or boolean
array, or a 0-d operand beside a tensor must not promote it (left to
NumPy, the 0-d float64 array a scalar turns into promotes a float32
tensor like any other array would).

The case tables are checked against ``repro.tensor.__all__``, the layers
of ``repro.nn`` and the functions of ``repro.losses``, so a new public op
without a closure case fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor as T
from repro import losses, nn
from repro.tensor import Tensor

DTYPES = [np.float32, np.float64]

#: names in ``repro.tensor.__all__`` that are not array ops
NOT_OPS = {
    "Tensor", "as_tensor", "unbroadcast", "no_grad", "enable_grad", "is_grad_enabled",
    "gradcheck", "numerical_grad",
}  # fmt: skip

shapes = st.tuples(st.integers(2, 3), st.integers(2, 4), st.integers(4, 6), st.integers(4, 6))
seeds = st.integers(0, 2**16)


def _closed(out: Tensor, inputs: list[Tensor], dtype) -> None:
    """``out`` and, after a backward pass, every input's gradient have ``dtype``."""
    assert out.dtype == dtype, f"forward returned {out.dtype}"
    out.backward(np.ones_like(out.data))
    for i, t in enumerate(inputs):
        assert t.grad is not None, f"input {i} got no gradient"
        assert t.grad.dtype == dtype, f"gradient of input {i} is {t.grad.dtype}"
        assert t.grad.shape == t.shape


def _all_closed(cases: dict, dtype) -> None:
    """Run every ``thunk -> (out, inputs)`` case; a failure names its case."""
    for name, case in cases.items():
        try:
            _closed(*case(), dtype)
        except AssertionError as err:
            raise AssertionError(f"{name}: {err}") from None


class Draw:
    """Tensors and raw arrays of one dtype from one seeded stream."""

    def __init__(self, dtype, seed: int):
        self.dtype = dtype
        self.rng = np.random.default_rng(seed)

    def array(self, *shape) -> np.ndarray:
        return self.rng.normal(size=shape).astype(self.dtype)

    def tensor(self, *shape) -> Tensor:
        return Tensor(self.array(*shape), requires_grad=True)


def tensor_op_cases(d: Draw, shape: tuple) -> dict:
    """``{public op name: thunk -> (out, inputs)}`` on an ``(N, C, H, W)`` input."""
    n, c, h, w = shape
    x, y = d.tensor(*shape), d.tensor(*shape)
    m = d.tensor(n, c * h * w)
    positive = x * x + 1.0
    return {
        "exp": lambda: (T.exp(x), [x]),
        "log": lambda: (T.log(positive), [x]),
        "sqrt": lambda: (T.sqrt(positive), [x]),
        "tanh": lambda: (T.tanh(x), [x]),
        "sigmoid": lambda: (T.sigmoid(x), [x]),
        "relu": lambda: (T.relu(x), [x]),
        "leaky_relu": lambda: (T.leaky_relu(x, 0.1), [x]),
        "abs_": lambda: (T.abs_(x), [x]),
        "clip": lambda: (T.clip(x, -0.5, 0.5), [x]),
        "maximum": lambda: (T.maximum(x, 0.25) + T.maximum(0, y) + T.maximum(x, y), [x, y]),
        "minimum": lambda: (T.minimum(x, 0.25) + T.minimum(0, y) + T.minimum(x, y), [x, y]),
        "where": lambda: (T.where(x.data > 0, x, 0.0) + T.where(y.data > 0, 1, y), [x, y]),
        "reshape": lambda: (T.reshape(x, n, -1), [x]),
        "transpose": lambda: (T.transpose(x, (0, 2, 3, 1)), [x]),
        "flatten": lambda: (T.flatten(x), [x]),
        "concat": lambda: (T.concat([x, y], axis=1), [x, y]),
        "stack": lambda: (T.stack([x, y], axis=0), [x, y]),
        "pad2d": lambda: (T.pad2d(x, 1), [x]),
        "getitem": lambda: (x[:, 0] + x[np.arange(n), 1], [x]),
        "repeat": lambda: (T.repeat(x, 2, axis=1), [x]),
        "sum_": lambda: (T.sum_(x, axis=(2, 3)), [x]),
        "mean": lambda: (T.mean(x, axis=1, keepdims=True), [x]),
        "max_": lambda: (T.max_(x, axis=1), [x]),
        "min_": lambda: (T.min_(x, axis=(2, 3)), [x]),
        "var": lambda: (T.var(x, axis=0), [x]),
        "standardize": lambda: (T.standardize(x, (0, 2, 3), 1e-5)[0], [x]),
        "logsumexp": lambda: (T.logsumexp(m, axis=1), [m]),
        "softmax": lambda: (T.softmax(m, axis=1), [m]),
        "log_softmax": lambda: (T.log_softmax(m, axis=1), [m]),
        "norm": lambda: (T.norm(m, axis=1), [m]),
        "conv2d": lambda: _conv(d, T.conv2d, x, (3, c, 3, 3), 3),
        "depthwise_conv2d": lambda: _conv(d, T.depthwise_conv2d, x, (c, 1, 3, 3), c),
        "max_pool2d": lambda: (T.max_pool2d(x, 2, 1, 1), [x]),
        "avg_pool2d": lambda: (T.avg_pool2d(x, 2), [x]),
        "adaptive_avg_pool2d": lambda: (
            T.adaptive_avg_pool2d(x, 1) + T.adaptive_avg_pool2d(x, 3).sum(axis=(2, 3), keepdims=True),
            [x],
        ),
    }  # fmt: skip


def _conv(d: Draw, op, x: Tensor, w_shape: tuple, f: int):
    weight, bias = d.tensor(*w_shape), d.tensor(f)
    return op(x, weight, bias, stride=2, padding=1), [x, weight, bias]


def operand_cases(d: Draw, shape: tuple) -> dict:
    """Arithmetic beside operands that carry no precision of their own."""
    n, c, h, w = shape
    x = d.tensor(*shape)
    k = d.tensor(c * h * w, 3)
    zero_d = np.asarray(0.5, dtype=d.dtype)
    counts = np.arange(1, w + 1)  # an integer array
    keep = x.data > 0  # a boolean array
    return {
        "python float": lambda: ((2.0 - x * 0.5 + 1.5) / 3.0 + 1.0 / (x * x + 1.0), [x]),
        "python int": lambda: ((2 - x * 3 + 1) / 2 + 1 / (x * x + 1), [x]),
        "python bool": lambda: (x * True + False, [x]),
        "numpy float64 scalar": lambda: (x * np.float64(0.5) + np.float64(1.0), [x]),
        "0-d array": lambda: (x * zero_d - zero_d, [x]),
        "0-d tensor": lambda: (x * Tensor(zero_d) / Tensor(zero_d + 1), [x]),
        "integer array": lambda: (x * counts + counts - x / counts, [x]),
        "boolean array": lambda: (x * keep, [x]),
        "power and negation": lambda: (-(x**2) + (x * x + 1.0) ** -0.5, [x]),
        "matmul": lambda: (x.flatten() @ k, [x, k]),
        "matmul integer matrix": lambda: (x.flatten() @ np.ones((c * h * w, 2), dtype=np.int64), [x]),
        "comparisons stay boolean": lambda: (x * (x > 0) * (x <= 1.0), [x]),
    }  # fmt: skip


def layer_cases(d: Draw, shape: tuple) -> dict:
    """``{layer class name: thunk -> (out, inputs)}``; layers are cast, as clients are."""
    n, c, h, w = shape
    rng = np.random.default_rng(0)

    def run(layer, x, train):
        layer.astype(d.dtype).train(train)
        out = layer(x)
        for name, buf in layer.named_buffers():  # after the forward: BatchNorm has updated them
            assert buf.dtype == (d.dtype if buf.dtype.kind == "f" else np.int64), f"buffer {name}"
        return out, [x, *layer.parameters()]

    def on_images(layer, train=True):
        return run(layer, d.tensor(*shape), train)

    def on_rows(layer, train=True):
        return run(layer, d.tensor(n, c), train)

    return {
        "Linear": lambda: on_rows(nn.Linear(c, 3, rng=rng)),
        "Conv2d": lambda: on_images(nn.Conv2d(c, 3, 3, stride=1, padding=1, rng=rng)),
        "BatchNorm1d": lambda: on_rows(nn.BatchNorm1d(c)),
        "BatchNorm2d": lambda: on_images(nn.BatchNorm2d(c)),
        "BatchNorm2d (eval)": lambda: on_images(nn.BatchNorm2d(c), train=False),
        "GroupNorm": lambda: on_images(nn.GroupNorm(1, c)),
        "LayerNorm": lambda: on_rows(nn.LayerNorm(c)),
        "ReLU": lambda: on_images(nn.ReLU()),
        "LeakyReLU": lambda: on_images(nn.LeakyReLU(0.2)),
        "Tanh": lambda: on_images(nn.Tanh()),
        "Sigmoid": lambda: on_images(nn.Sigmoid()),
        "MaxPool2d": lambda: on_images(nn.MaxPool2d(2)),
        "AvgPool2d": lambda: on_images(nn.AvgPool2d(2)),
        "AdaptiveAvgPool2d": lambda: on_images(nn.AdaptiveAvgPool2d(1)),
        "Dropout": lambda: on_images(nn.Dropout(0.3, rng=rng)),
        "Flatten": lambda: on_images(nn.Flatten()),
        "Identity": lambda: on_images(nn.Identity()),
        "Sequential": lambda: on_images(
            nn.Sequential(nn.Conv2d(c, 4, 3, rng=rng), nn.BatchNorm2d(4), nn.ReLU(), nn.Flatten())
        ),
        "ModuleList": lambda: on_rows(
            nn.Sequential(*nn.ModuleList([nn.Linear(c, c, rng=rng), nn.Linear(c, 2, rng=rng)]))
        ),
    }  # fmt: skip


def loss_cases(d: Draw, shape: tuple) -> dict:
    """``{function name: thunk -> (out, inputs)}`` for every loss that returns a tensor."""
    n, c, _, _ = shape
    n = 2 * n  # contrastive losses want a few anchors
    logits, feats_a, feats_b = d.tensor(n, c), d.tensor(n, 8), d.tensor(n, 8)
    labels = d.rng.integers(0, c, n)
    teacher = np.full((n, c), 1.0 / c)  # float64 soft targets, whatever the student's dtype
    weight, bias = d.tensor(c, 8), d.tensor(c)
    reference = {"weight": d.rng.normal(size=(c, 8)), "bias": d.rng.normal(size=c)}  # float64
    protos = {int(k): d.rng.normal(size=8) for k in set(labels.tolist())}
    return {
        "cross_entropy": lambda: (losses.cross_entropy(logits, labels), [logits]),
        "nll_loss": lambda: (losses.nll_loss(T.log_softmax(logits), labels), [logits]),
        "kl_divergence": lambda: (losses.kl_divergence(logits, teacher, 2.0), [logits]),
        "soft_cross_entropy": lambda: (losses.soft_cross_entropy(logits, teacher, 2.0), [logits]),
        "supcon_loss": lambda: (losses.supcon_loss(feats_a, feats_b, labels), [feats_a, feats_b]),
        "ntxent_loss": lambda: (losses.ntxent_loss(feats_a, feats_b), [feats_a, feats_b]),
        "normalize_features": lambda: (losses.normalize_features(feats_a), [feats_a]),
        "proximal_l2": lambda: (
            losses.proximal_l2([("weight", weight), ("bias", bias)], reference)
            + losses.proximal_l2([weight, bias], list(reference.values()), squared=True),
            [weight, bias],
        ),
        "prototype_loss": lambda: (losses.prototype_loss(feats_a, labels, protos), [feats_a]),
    }  # fmt: skip


#: ``repro.losses`` functions that take and return plain arrays
ARRAY_LOSS_HELPERS = {"softmax_probs", "l2_distance_state", "compute_prototypes", "aggregate_prototypes"}


class TestTables:
    """The case tables cover the public surface they claim to."""

    def test_every_public_tensor_op_has_a_case(self):
        cases = set(tensor_op_cases(Draw(np.float64, 0), (2, 2, 4, 4))) | {"im2col", "col2im"}
        assert cases == set(T.__all__) - NOT_OPS

    def test_every_layer_has_a_case(self):
        layers = {name for name in nn.__all__ if name not in ("Module", "Parameter", "init")}
        cases = {name.split(" ")[0] for name in layer_cases(Draw(np.float64, 0), (2, 2, 4, 4))}
        assert cases == layers

    def test_every_loss_has_a_case(self):
        cases = set(loss_cases(Draw(np.float64, 0), (2, 2, 4, 4)))
        assert cases == set(losses.__all__) - ARRAY_LOSS_HELPERS


@pytest.mark.parametrize("dtype", DTYPES)
class TestClosure:
    @settings(max_examples=8, deadline=None)
    @given(shapes, seeds)
    def test_tensor_ops(self, dtype, shape, seed):
        _all_closed(tensor_op_cases(Draw(dtype, seed), shape), dtype)

    @settings(max_examples=8, deadline=None)
    @given(shapes, seeds)
    def test_operands_without_a_precision_take_the_tensors(self, dtype, shape, seed):
        _all_closed(operand_cases(Draw(dtype, seed), shape), dtype)

    @settings(max_examples=8, deadline=None)
    @given(shapes, seeds)
    def test_lowering_kernels(self, dtype, shape, seed):
        x = Draw(dtype, seed).array(*shape)
        cols, out_h, out_w = T.im2col(x, 3, 3, 1)
        assert cols.dtype == dtype
        assert T.col2im(cols, x.shape, 3, 3, 1).dtype == dtype

    @settings(max_examples=6, deadline=None)
    @given(shapes, seeds)
    def test_layers(self, dtype, shape, seed):
        _all_closed(layer_cases(Draw(dtype, seed), shape), dtype)

    @settings(max_examples=8, deadline=None)
    @given(shapes, seeds)
    def test_losses(self, dtype, shape, seed):
        _all_closed(loss_cases(Draw(dtype, seed), shape), dtype)

    def test_softmax_probs_returns_the_logits_dtype(self, dtype):
        logits = Draw(dtype, 0).tensor(4, 3)
        assert losses.softmax_probs(logits, temperature=2.0).dtype == dtype


class TestWhatStaysAsGiven:
    """The rule covers operands with no precision; an array that has one keeps it."""

    def test_a_float64_array_operand_still_promotes(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x * np.full(3, 0.5)).dtype == np.float64

    def test_a_tensor_built_from_integers_alone_is_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        assert T.as_tensor(2).dtype == np.float64

    def test_float32_scalar_beside_float64_tensor_takes_float64(self):
        x = Tensor(np.ones(3))
        assert (x * np.float32(0.5)).dtype == np.float64
