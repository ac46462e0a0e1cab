"""FedAvg / FedProx / FedBN / FedPer / FedRep run on the FedClassAvg engine — same bytes as before.

Two legs, because each binds where the other cannot:

* **recorded** — ``RECORDED`` is what the five hand-written round loops
  produced at the commit before they were deleted (run this file as
  ``__main__`` there to print it).  It binds *across commits*, but a GEMM's
  last bits depend on the BLAS kernel, so it is only compared where
  ``blas_fingerprint()`` reads ``RECORDED_ON``.
* **oracle** — ``oracle_run`` below is that deleted loop (load subset →
  local step → ``weighted_average_state`` → push), kept as this test's
  reference.  It binds *across machines*: engine == oracle bit for bit on
  whatever BLAS the box has, so this file never only skips.

FedPer and FedRep used to move ``feature_extractor.state_dict()`` (keys
without the prefix); a client now exchanges its model's own keys, so their
globals are compared under the ``feature_extractor.`` key map and their
ledgers carry the longer key names — 18 bytes a key a message, +0.45 %
here — which ``test_matches_the_recorded_parent`` allows to the byte.
FedRep's reported train loss was the pooled mean of every epoch mean and is
now the mean of per-client means: equal to 1e-12, not to the bit.

Run at the parent itself, the oracle leg and the recorded digests pass and
exactly two things fail, both by design: FedPer/FedRep's byte count (no key
prefix there) and ``test_global_is_kept_in_the_clients_dtype`` (float64).
"""

import functools
import hashlib
import sys

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedBN, FedPer, FedProx, FedRep
from repro.federated import (
    ClientSampler,
    FederationSpec,
    LocalUpdateConfig,
    build_federation,
    local_update,
    weighted_average_state,
)
from repro.losses import cross_entropy
from repro.nn.norm import _BatchNorm
from repro.optim import Adam
from repro.tensor import Tensor
from tests.federated.test_float64_path import blas_fingerprint

ROUNDS = 3
RATES = (1.0, 0.5)
BODY = "feature_extractor."
#: resnet18 puts BatchNorm buffers and ``num_batches_tracked`` in play
ARCH = {"fedavg": "resnet18", "fedprox": "resnet18", "fedbn": "resnet18",
        "fedper": "cnn2layer", "fedrep": "cnn2layer"}
CLASSES = {"fedavg": FedAvg, "fedprox": FedProx, "fedbn": FedBN, "fedper": FedPer, "fedrep": FedRep}
CASES = [(name, rate) for name in CLASSES for rate in RATES]

RECORDED_ON = "6ca7ae09464e510b"  # OpenBLAS 0.3.31 SkylakeX kernels, one thread
#: (algorithm, sample rate) -> digests of the parent's run; see ``run_digests``
RECORDED: dict = {
    ('fedavg', 1.0): {
        'global': '33600a84308e2578',
        'clients': ['33600a84308e2578', '33600a84308e2578', '33600a84308e2578', '33600a84308e2578'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.289213399092356, 2.211090624332428, 2.1418734192848206],
        'bytes': 644496,
    },
    ('fedavg', 0.5): {
        'global': '1c4095826887bf6e',
        'clients': ['1c4095826887bf6e', '1c4095826887bf6e', '1c4095826887bf6e', '1c4095826887bf6e'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.328127861022949, 2.216615080833435, 2.1069677869478864],
        'bytes': 322248,
    },
    ('fedprox', 1.0): {
        'global': '70d7439cadc9f86b',
        'clients': ['70d7439cadc9f86b', '70d7439cadc9f86b', '70d7439cadc9f86b', '70d7439cadc9f86b'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.2895209193229675, 2.2113620042800903, 2.1422251860300703],
        'bytes': 644496,
    },
    ('fedprox', 0.5): {
        'global': '4e66e85e102bb28d',
        'clients': ['4e66e85e102bb28d', '4e66e85e102bb28d', '4e66e85e102bb28d', '4e66e85e102bb28d'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.328447461128235, 2.217056393623352, 2.1074884732564287],
        'bytes': 322248,
    },
    ('fedbn', 1.0): {
        'global': '2dc1228ff5f90385',
        'clients': ['d0822bf0a42a6d93', 'dc9d9cf79919ce9f', '757b73b216693510', 'b048f95b5abfec6d'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.289213399092356, 2.2077869375546775, 2.135926554600398],
        'bytes': 564600,
    },
    ('fedbn', 0.5): {
        'global': '27eb8346d5d3c897',
        'clients': ['57db17bd5bd30db4', '769c72bc11d2855f', '643ed26cb05aeb37', 'ac55fc32213d4310'],
        'accs': 'daed0e6fda9a5233',
        'losses': [2.328127861022949, 2.2148778835932417, 2.103522777557373],
        'bytes': 282300,
    },
    ('fedper', 1.0): {
        'global': '48f3fb12b5cd580b',
        'clients': ['a1394accdaa09892', '7b95e3b0914c1324', 'a5d371bdbd2b5940', '93b032dd489117e0'],
        'accs': '75987437b080eef8',
        'losses': [2.308909555276235, 2.273753265539805, 2.2375661333401995],
        'bytes': 572976,
    },
    ('fedper', 0.5): {
        'global': 'ea37170d4fc48db9',
        'clients': ['8608b9428e54387d', 'accf1552b23cc80f', '5b227a5a899cfdc7', 'ffe2a7565cc24d69'],
        'accs': '18a78c11accb1f3b',
        'losses': [2.3122987747192383, 2.298441131909688, 2.2562716007232666],
        'bytes': 286488,
    },
    ('fedrep', 1.0): {
        'global': '6bfb7de9d58031a7',
        'clients': ['cee1106e3824b8b1', 'a96284a9d530dfad', '19652d1f9dd5096c', '2e2f1ab73a800ec8'],
        'accs': 'aca78af5c8e24156',
        'losses': [2.3069024185339613, 2.275219162305196, 2.2383535901705423],
        'bytes': 572976,
    },
    ('fedrep', 0.5): {
        'global': 'db2cb6da2ba52a81',
        'clients': ['e56f28d2af8435f5', 'f2a0eba436af0525', '2e139635bd8e741a', 'e90fa63cbec02183'],
        'accs': '26a7bca39cde6aa8',
        'losses': [2.3106654087702436, 2.308620115121206, 2.2622844775517783],
        'bytes': 286488,
    },
}


def build_clients(name: str):
    """The micro spec of ``tests/conftest.py``, one architecture."""
    spec = FederationSpec(
        dataset="fashion_mnist-tiny", num_clients=4, partition="dirichlet", n_train=160,
        n_test=120, test_per_client=20, batch_size=16, lr=3e-3, seed=0,
        homogeneous_arch=ARCH[name],
    )
    return build_federation(spec)[0]


def digest(state: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(state):
        arr = np.ascontiguousarray(state[key])
        h.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def run_digests(global_state, clients, accs, losses, total_bytes=None) -> dict:
    """What a run is compared by; the global is cast to the clients' dtype first."""
    template = clients[0].model.state_dict()
    return {
        "global": digest({k: v.astype(template[k].dtype) for k, v in global_state.items()}),
        "clients": [digest(c.model.state_dict()) for c in clients],
        "accs": hashlib.sha256(np.asarray(accs, dtype=np.float64).tobytes()).hexdigest()[:16],
        "losses": [float(v) for v in losses],
        "bytes": total_bytes,
    }


@functools.cache
def engine_run(name: str, rate: float) -> dict:
    """Three rounds of the class under test (once per case: both legs read it)."""
    clients = build_clients(name)
    algo = CLASSES[name](clients, sample_rate=rate, seed=0)
    history = algo.run(ROUNDS)
    # the parent's FedPer/FedRep keep ``global_body``, keyed without the prefix
    body = getattr(algo, "global_body", None)
    state = algo.global_state if body is None else {BODY + k: v for k, v in body.items()}
    return run_digests(
        state, clients, [m.client_accs for m in history.rounds],
        [m.train_loss for m in history.rounds], algo.comm.cost.total_bytes,
    ) | {"dtypes": {str(v.dtype) for v in state.values()}}


# ----------------------------------------------------------------------
# the oracle: what each algorithm is, stated without the engine
# ----------------------------------------------------------------------
def norm_keys(model) -> set[str]:
    return {
        f"{mod_name}.{leaf}"
        for mod_name, mod in model.named_modules()
        if isinstance(mod, _BatchNorm)
        for leaf in (*mod._parameters, *mod._buffers)
    }


def epochs_of(config: LocalUpdateConfig):
    return lambda client, reference: local_update(client, 1, config, reference)


def head_then_body():
    """FedRep: one epoch on the head alone, then one on the body, each with its own Adam."""
    opts: dict = {}

    def epoch(client, optimizer) -> float:
        losses = []
        for xb, yb in client.train_loader():
            optimizer.zero_grad()
            loss = cross_entropy(client.model(Tensor(xb)), yb)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses))

    def step(client, reference) -> list[float]:
        if client.client_id not in opts:
            lr = client.optimizer.lr
            opts[client.client_id] = (
                Adam(client.model.classifier.parameters(), lr=lr),
                Adam(client.model.feature_extractor.parameters(), lr=lr),
            )
        return [epoch(client, opt) for opt in opts[client.client_id]]

    return step


def oracle_spec(name: str, model):
    """``(is_shared(key), local step)`` of the algorithm called ``name``."""
    plain = LocalUpdateConfig(use_contrastive=False, use_proximal=False)
    prox = LocalUpdateConfig(
        use_contrastive=False, rho=0.01 / 2, proximal_on="all", proximal_squared=True
    )
    bn = norm_keys(model)
    return {
        "fedavg": (lambda key: True, epochs_of(plain)),
        "fedprox": (lambda key: True, epochs_of(prox)),
        "fedbn": (lambda key: key not in bn, epochs_of(plain)),
        "fedper": (lambda key: key.startswith(BODY), epochs_of(plain)),
        "fedrep": (lambda key: key.startswith(BODY), head_then_body()),
    }[name]


def oracle_run(name: str, rate: float) -> dict:
    """The round loop the five modules each carried, written once by hand."""
    clients = build_clients(name)
    is_shared, step = oracle_spec(name, clients[0].model)

    def shared(client):
        return {k: v for k, v in client.model.state_dict().items() if is_shared(k)}

    global_state = shared(clients[0])  # one common start: client 0 plays the server's w0
    for c in clients:
        c.model.load_state_dict(global_state, strict=False)
    sampler = ClientSampler(len(clients), rate, seed=0)
    accs, losses = [], []
    for t in range(ROUNDS):
        sampled = sampler.sample(t)
        round_losses = []
        for k in sampled:
            clients[k].model.load_state_dict(global_state, strict=False)
            reference = {key: v.copy() for key, v in global_state.items()}
            round_losses.append(np.mean(step(clients[k], reference)))
        global_state = weighted_average_state(
            [shared(clients[k]) for k in sampled], [clients[k].data_size for k in sampled]
        )
        for c in clients:  # everyone is scored with the aggregate pushed in
            c.model.load_state_dict(global_state, strict=False)
        accs.append([c.evaluate() for c in clients])
        losses.append(float(np.mean(round_losses)))
    return run_digests(global_state, clients, accs, losses)


# ----------------------------------------------------------------------
def assert_same_run(got: dict, want: dict, name: str) -> None:
    assert got["global"] == want["global"]
    assert got["clients"] == want["clients"]
    assert got["accs"] == want["accs"]
    if name == "fedrep":  # pooled mean of epoch means vs mean of per-client means
        assert got["losses"] == pytest.approx(want["losses"], rel=0, abs=1e-12)
    else:
        assert got["losses"] == want["losses"]


@pytest.mark.parametrize("name,rate", CASES)
def test_engine_is_the_hand_written_round(name, rate):
    """Never skips: both sides run here, on this box's BLAS."""
    assert_same_run(engine_run(name, rate), oracle_run(name, rate), name)


@pytest.mark.parametrize("name,rate", CASES)
def test_matches_the_recorded_parent(name, rate):
    if blas_fingerprint() != RECORDED_ON:
        pytest.skip("this BLAS rounds GEMMs differently from the one the digests were recorded on")
    got, want = engine_run(name, rate), RECORDED[name, rate]
    assert_same_run(got, want, name)
    extra = 0
    if name in ("fedper", "fedrep"):
        # the same arrays under their model keys: len("feature_extractor.") bytes a key a message
        body_keys = len(build_clients(name)[0].model.feature_extractor.state_dict())
        extra = len(BODY) * body_keys * 2 * ROUNDS * round(4 * rate)
    assert got["bytes"] == want["bytes"] + extra


@pytest.mark.parametrize("name", CLASSES)
def test_global_is_kept_in_the_clients_dtype(name):
    """float64 next to float32 clients at the parent (``_rounded_like`` reached FedClassAvg only)."""
    assert engine_run(name, 0.5)["dtypes"] <= {"float32", "int64"}


if __name__ == "__main__":
    if "--fast" in sys.argv:  # scripts/ci.sh, ahead of tier-1: one rate, both legs
        sys.exit(pytest.main([__file__, "-x", "-q", "-k", "0.5 or dtype"]))
    print("RECORDED_ON", blas_fingerprint())
    for case in CASES:
        row = engine_run(*case)
        print(f"    {case!r}: {{")
        for field in ("global", "clients", "accs", "losses", "bytes"):
            print(f"        {field!r}: {row[field]!r},")
        print("    },")
