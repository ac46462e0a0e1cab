"""A federated client computes in the dtype of its data, end to end.

``build_federation`` casts each model to ``train.images.dtype``; from
there on nothing may promote: every tape node of a training step and of an
evaluation, every gradient, every buffer and both Adam moments carry the
images' dtype.  One float64 leak (a mask, a scalar turned 0-d array, a
dropout draw) silently drags everything downstream of it back to double
the bytes.  The same is checked with the client moved to float64 — the
rule is "the data's dtype", not "float32".
"""

import numpy as np
import pytest

from repro.federated import LocalUpdateConfig, build_federation, local_update
from repro.models import PAPER_ARCHITECTURES
from repro.tensor import Tensor


def fresh_client(spec, arch: str):
    """Client ``k`` of the four-client ``micro_spec`` trains the ``k``-th paper architecture."""
    (client,), _info = build_federation(spec, client_ids=[PAPER_ARCHITECTURES.index(arch)])
    assert client.model.arch == arch
    return client


@pytest.mark.parametrize("dtype", [None, np.float64], ids=["as built", "moved to float64"])
@pytest.mark.parametrize("arch", PAPER_ARCHITECTURES)
def test_step_and_evaluate_stay_in_the_datas_dtype(micro_spec, arch, dtype, monkeypatch):
    client = fresh_client(micro_spec, arch)
    if dtype is not None:
        # before the first step: Adam allocates its moments like ``p.data`` then
        client.model.astype(dtype)
        client.train_images = client.train_images.astype(dtype)
        client.test_images = client.test_images.astype(dtype)
    want = client.train_images.dtype
    assert want == (dtype or np.float32)
    assert {p.dtype for p in client.model.parameters()} == {want}

    nodes = []
    make = Tensor._make.__func__

    def recording_make(cls, data, parents, backward):
        nodes.append((backward.__qualname__, data.dtype))
        return make(cls, data, parents, backward)

    monkeypatch.setattr(Tensor, "_make", classmethod(recording_make))
    client.train_images, client.train_labels = client.train_images[:16], client.train_labels[:16]
    reference = {k: v + v.dtype.type(0.01) for k, v in client.model.classifier_state().items()}
    loss = local_update(client, 1, LocalUpdateConfig(), reference)  # CE + SupCon + proximal
    assert np.isfinite(loss)
    trained = len(nodes)
    client.evaluate()
    assert trained > 50 and len(nodes) > trained

    assert {name: dt for name, dt in nodes if dt != want} == {}
    grads = {n: p.grad.dtype for n, p in client.model.named_parameters() if p.grad is not None}
    assert len(grads) == len(client.model.parameters())
    assert set(grads.values()) == {want}
    buffers = dict(client.model.named_buffers())
    assert {n: b.dtype for n, b in buffers.items() if b.dtype.kind == "f" and b.dtype != want} == {}
    assert all(b.dtype == np.int64 for b in buffers.values() if b.dtype.kind != "f")
    moments = client.optimizer._m + client.optimizer._v
    assert all(m is not None and m.dtype == want for m in moments)
    assert {v.dtype for v in client.shared_state().values()} == {want}
