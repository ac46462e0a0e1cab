"""The float64 path is a reference: a hand-built model keeps the old numbers.

``build_federation`` casts its clients to the dtype of their data; a model
built by hand is float64 and every op returns the dtype it is given, so
one epoch of the full local objective (CE + SupCon + proximal) over
float32 images must end at the state dict recorded at the commit before
clients became float32 — bit for bit, since no float64 summation order
changed.
"""

import hashlib

import numpy as np
import pytest

from repro.federated import LocalUpdateConfig, local_update
from repro.federated.client import FederatedClient
from repro.models import PAPER_ARCHITECTURES, build_model
from repro.utils.serialization import state_dict_to_bytes

#: sha256 of the trained state dict at the parent of the float32 change,
#: recorded where ``blas_fingerprint()`` reads ``RECORDED_ON``
PARENT_SHA256 = {
    "resnet18": "1110c63d2d036abc4ef7765781791dffc3a2d12d13ae822f983944454c96d695",
    "shufflenetv2": "9661106c250ddfbd41ede45086863511efba4f1cb2ad317786cf4515b19a54a6",
    "googlenet": "6b33a4f3fcfe5c98264c19c2f732ba9bb554a1c68010a00a87589fa19e21fb70",
    "alexnet": "ede459522873a31f2ec971e7c2a38e5720ce91cb0bc41c28d6eb2a912624b2f8",
}


RECORDED_ON = "6ca7ae09464e510b"  # OpenBLAS 0.3.31 SkylakeX kernels, one thread


def blas_fingerprint() -> str:
    """Digest of three conv-shaped GEMMs: how *this* BLAS rounds.

    A GEMM's last bits depend on the kernel the CPU selects and on the
    thread count (the ``K = 432`` product splits differently over two
    threads), so a recorded digest only binds where this one matches.
    """
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for m, k, n in [(8, 27, 4096), (32, 432, 256), (64, 1152, 128)]:
        h.update((rng.normal(size=(m, k)) @ rng.normal(size=(k, n))).tobytes())
    return h.hexdigest()[:16]


def trained_state(arch: str) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(16)
    model = build_model(arch, in_channels=3, num_classes=4, scale="tiny", rng=rng)
    images = rng.random((40, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 4, 40)
    client = FederatedClient(0, model, images, labels, images[:8], labels[:8], batch_size=16, lr=3e-3, seed=16)
    reference = {k: v + 0.01 for k, v in model.classifier_state().items()}
    loss = local_update(client, 1, LocalUpdateConfig(), reference)
    assert np.isfinite(loss)
    return model.state_dict()


@pytest.mark.parametrize("arch", PAPER_ARCHITECTURES)
def test_hand_built_model_trains_to_the_parents_bytes(arch):
    if blas_fingerprint() != RECORDED_ON:
        pytest.skip("this BLAS rounds GEMMs differently from the one the digests were recorded on")
    state = trained_state(arch)
    assert {v.dtype for k, v in state.items() if v.dtype.kind == "f"} == {np.dtype(np.float64)}
    assert hashlib.sha256(state_dict_to_bytes(state)).hexdigest() == PARENT_SHA256[arch]


if __name__ == "__main__":  # prints the tables above; run it at the parent commit
    print("RECORDED_ON", blas_fingerprint())
    for name in PAPER_ARCHITECTURES:
        print(name, hashlib.sha256(state_dict_to_bytes(trained_state(name))).hexdigest())
