"""Substrate microbenchmarks: throughput of the hot kernels.

Unlike the experiment benches (one-shot), these use pytest-benchmark's
repeated timing to characterize the NumPy substrate itself — the numbers
that determine how far from the paper's GPU wall-clock this reproduction
sits, and the first place to look when optimizing.
"""

import numpy as np
import pytest

from repro.losses import cross_entropy, supcon_loss
from repro.federated import weighted_average_state
from repro.models import build_model
from repro.tensor import Tensor, conv2d, no_grad

rng = np.random.default_rng(0)


@pytest.fixture(scope="module")
def conv_inputs():
    x = rng.normal(size=(16, 16, 16, 16))
    w = rng.normal(size=(32, 16, 3, 3)) * 0.1
    b = rng.normal(size=(32,))
    return x, w, b


def test_conv2d_forward(benchmark, conv_inputs):
    x, w, b = conv_inputs

    def fwd():
        with no_grad():
            return conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)

    out = benchmark(fwd)
    assert out.shape == (16, 32, 16, 16)


def test_conv2d_forward_backward(benchmark, conv_inputs):
    x, w, b = conv_inputs

    def fwd_bwd():
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), padding=1)
        out.sum().backward()
        return xt.grad

    g = benchmark(fwd_bwd)
    assert g.shape == x.shape


def test_model_training_step(benchmark):
    model = build_model(
        "resnet18", in_channels=3, num_classes=10, scale="tiny", rng=np.random.default_rng(0)
    )
    from repro.optim import Adam

    opt = Adam(model.parameters(), lr=1e-3)
    xb = rng.normal(size=(16, 3, 16, 16))
    yb = rng.integers(0, 10, 16)

    def step():
        opt.zero_grad()
        loss = cross_entropy(model(Tensor(xb)), yb)
        loss.backward()
        opt.step()
        return loss.item()

    loss = benchmark(step)
    assert np.isfinite(loss)


def test_supcon_loss_kernel(benchmark):
    a = rng.normal(size=(64, 32))
    b = rng.normal(size=(64, 32))
    labels = rng.integers(0, 10, 64)

    def loss():
        return supcon_loss(Tensor(a), Tensor(b), labels).item()

    v = benchmark(loss)
    assert v > 0


def test_classifier_aggregation_kernel(benchmark):
    states = [
        {"classifier.weight": rng.normal(size=(512, 10)), "classifier.bias": rng.normal(size=10)}
        for _ in range(20)
    ]
    weights = list(rng.random(20) + 0.5)

    def agg():
        return weighted_average_state(states, weights)

    out = benchmark(agg)
    assert out["classifier.weight"].shape == (512, 10)


def test_client_evaluation(benchmark):
    model = build_model(
        "alexnet", in_channels=1, num_classes=10, scale="tiny", rng=np.random.default_rng(0)
    )
    images = rng.normal(size=(128, 1, 14, 14)).astype(np.float32)

    def evaluate():
        model.eval()
        with no_grad():
            return model(Tensor(images)).data.argmax(axis=1)

    preds = benchmark(evaluate)
    assert preds.shape == (128,)


@pytest.mark.parametrize("arch", ["resnet18", "shufflenetv2", "googlenet", "alexnet"])
def test_training_step_never_scatters(arch):
    """The scatter must not creep back: no ``np.add.at`` in a model's training step.

    ufunc attributes cannot be monkey-patched, so the calls are counted
    under cProfile, where a C method shows up by its qualified name.
    Cross-entropy's label pick — the last caller — assigns: one label per
    row cannot repeat an entry.
    """
    import cProfile
    import pstats

    from repro.optim import Adam

    model = build_model(arch, in_channels=3, num_classes=10, scale="tiny", rng=np.random.default_rng(0))
    opt = Adam(model.parameters(), lr=1e-3)
    xb = rng.normal(size=(8, 3, 16, 16))
    yb = rng.integers(0, 10, 8)

    profile = cProfile.Profile()
    profile.enable()
    opt.zero_grad()
    feat_a, feat_b = model.features(Tensor(xb)), model.features(Tensor(xb[::-1].copy()))
    loss = cross_entropy(model.classifier(feat_a), yb) + supcon_loss(feat_a, feat_b, yb)
    loss.backward()
    opt.step()
    profile.disable()

    stats = pstats.Stats(profile).stats
    assert any(fn[2] == "conv2d" for fn in stats), "the profile did not see the step"
    callers = {}
    for fn, (*_, called_from) in stats.items():
        if "'at' of 'numpy.ufunc'" in fn[2]:
            callers = {f"{c[0].rsplit('/', 1)[-1]}:{c[2]}": n[0] for c, n in called_from.items()}
    assert not callers, f"{arch}: ufunc.at called from {callers}"
