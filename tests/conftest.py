"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# A GEMM's rounding depends on how many threads BLAS splits it over, and the
# TCP launcher gives each worker ``cores // workers`` threads.  Every
# "tcp == sim, bit for bit" test compares workers with this process, so this
# process is pinned the same way — before NumPy loads its BLAS; an exported
# value wins here as it does in the launcher.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.federated import FederationSpec, build_federation  # noqa: E402
from repro.utils.rng import seed_all  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _reseed_global_rng():
    """Isolate the process-global RNG (used by default init/dropout)."""
    seed_all(0)
    yield
    seed_all(0)


@pytest.fixture
def micro_spec() -> FederationSpec:
    """Smallest useful federation: 4 clients, 4 architectures."""
    return FederationSpec(
        dataset="fashion_mnist-tiny",
        num_clients=4,
        partition="dirichlet",
        n_train=160,
        n_test=120,
        test_per_client=20,
        batch_size=16,
        lr=3e-3,
        seed=0,
    )


@pytest.fixture
def micro_federation(micro_spec):
    return build_federation(micro_spec)
