"""Client placement: LPT over estimated costs, pure in ``(spec, workers)``.

Properties of ``assign_clients`` over generated inputs, the cost
estimate's ranking of the paper's four architectures, and the balance it
buys on the ``k mod 4`` settings where round-robin collides with the
worker modulus.  No process is spawned here; the end-to-end "any
ownership map gives the same classifier" property lives in
``test_placement_invariance.py``.
"""

import os
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_preset
from repro.federated import FederationSpec, client_costs
from repro.net.launcher import _worker_env, assign_clients, place_clients
from repro.telemetry.memprof import MemoryProfiler, active_memprof

costs_lists = st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40)
worker_counts = st.integers(min_value=1, max_value=8)


def round_robin(n: int, w: int) -> list[list[int]]:
    """The rule this PR replaced, kept as the equal-cost oracle."""
    return [g for g in ([k for k in range(n) if k % w == i] for i in range(w)) if g]


def loads(groups: list[list[int]], costs: list[int]) -> list[int]:
    return [sum(costs[k] for k in g) for g in groups]


def optimum_makespan(costs: list[int], w: int) -> int:
    """Exhaustive search (branch and bound) for the minimal busiest-worker load."""
    order = sorted(costs, reverse=True)
    best = sum(order)
    load = [0] * w

    def place(i: int) -> None:
        nonlocal best
        if i == len(order):
            best = min(best, max(load))
            return
        tried = set()
        for j in range(w):
            if load[j] in tried or load[j] + order[i] >= best:
                continue  # an equally loaded worker is the same subproblem
            tried.add(load[j])
            load[j] += order[i]
            place(i + 1)
            load[j] -= order[i]

    place(0)
    return best


class TestAssignClients:
    @given(costs_lists, worker_counts)
    def test_partitions_the_clients_and_drops_empty_workers(self, costs, w):
        groups = assign_clients(len(costs), w, costs)
        assert sorted(k for g in groups for k in g) == list(range(len(costs)))
        assert all(g == sorted(g) and g for g in groups)
        assert len(groups) <= w

    def test_equal_or_absent_costs_are_round_robin(self):
        for n in range(0, 41):
            for w in range(1, 9):
                expected = round_robin(n, w)
                assert assign_clients(n, w) == expected
                assert assign_clients(n, w, [7] * n) == expected
                assert assign_clients(n, w, [0.109] * n) == expected

    @given(costs_lists, worker_counts, st.randoms(use_true_random=False))
    def test_pure_and_blind_to_client_labels(self, costs, w, rnd):
        before = list(costs)
        groups = assign_clients(len(costs), w, costs)
        assert costs == before, "input mutated"
        assert assign_clients(len(costs), w, tuple(costs)) == groups
        # relabel the clients: the same costs arrive under other ids, and
        # every worker ends up with the same load as before
        perm = list(range(len(costs)))
        rnd.shuffle(perm)
        shuffled = [costs[perm[k]] for k in range(len(costs))]
        assert loads(assign_clients(len(costs), w, shuffled), shuffled) == loads(groups, costs)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=9),
        st.integers(min_value=1, max_value=4),
    )
    def test_makespan_within_graham_bound_of_optimum(self, costs, w):
        makespan = max(loads(assign_clients(len(costs), w, costs), costs))
        # LPT <= (4/3 - 1/(3w)) x OPT  (Graham 1969), in exact arithmetic
        assert makespan <= Fraction(4 * w - 1, 3 * w) * optimum_makespan(costs, w)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assign_clients(4, 0)
        with pytest.raises(ValueError):
            assign_clients(4, 2, [1.0, 2.0])


def hetero_spec(n: int, seed: int = 0, **kw) -> FederationSpec:
    p = tiny_preset("cifar10-tiny", num_clients=n)
    return FederationSpec(
        dataset=p.dataset, num_clients=n, partition="dirichlet", alpha=0.5, scale=p.scale,
        n_train=p.n_train, n_test=p.n_test, test_per_client=p.test_per_client,
        batch_size=p.batch_size, lr=p.lr, seed=seed, **kw,
    )


class TestClientCosts:
    def test_ranks_by_activation_volume_not_parameter_count(self):
        # k mod 4 = resnet18, shufflenetv2, googlenet, alexnet; alexnet has
        # 4.6x googlenet's parameters and trains 4x faster
        r, s, g, a = client_costs(hetero_spec(4))
        assert g > r > a and g > s > a
        assert 2.0 < g / r < 3.5

    def test_pure_function_of_the_spec(self):
        assert client_costs(hetero_spec(8)) == client_costs(hetero_spec(8))

    def test_homogeneous_spec_has_equal_costs(self):
        costs = client_costs(hetero_spec(8, homogeneous_arch="alexnet"))
        assert len(set(costs)) == 1 and costs[0] > 0

    def test_leaves_an_active_memory_profiler_in_place(self):
        assert active_memprof() is None
        client_costs(hetero_spec(4))
        assert active_memprof() is None
        outer = MemoryProfiler()
        outer.activate()
        try:
            client_costs(hetero_spec(4))
            assert active_memprof() is outer
            assert outer.records == []
        finally:
            outer.deactivate()


class TestPlaceClients:
    @pytest.mark.parametrize("n,w", [(4, 2), (8, 2), (8, 4), (20, 4)])
    def test_paper_architectures_balance_within_15_percent(self, n, w):
        spec = hetero_spec(n)
        costs = client_costs(spec)
        placed = loads(place_clients(asdict(spec), w), costs)
        assert max(placed) / (sum(placed) / len(placed)) <= 1.15
        naive = loads(round_robin(n, w), costs)
        assert max(naive) / (sum(naive) / len(naive)) > 1.4  # what it replaces

    def test_homogeneous_federation_keeps_round_robin_groups(self):
        spec = hetero_spec(8, homogeneous_arch="alexnet")
        assert place_clients(asdict(spec), 2) == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_same_groups_on_every_call_one_of_each_architecture(self):
        spec = asdict(hetero_spec(8, seed=7))
        assert place_clients(spec, 2) == place_clients(dict(spec), 2)
        # each worker holds one client of every architecture
        assert [sorted(k % 4 for k in g) for g in place_clients(spec, 2)] == [[0, 1, 2, 3]] * 2


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestWorkerEnv:
    """Workers share the cores out instead of each starting a machine-wide BLAS pool."""

    @pytest.mark.parametrize("cores,workers,threads", [(2, 4, "1"), (2, 2, "1"), (8, 2, "4"), (8, 3, "2")])
    def test_threads_are_cores_over_workers_at_least_one(self, monkeypatch, cores, workers, threads):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        env = _worker_env(workers)
        assert [env[var] for var in BLAS_VARS] == [threads] * 3

    def test_an_exported_value_wins(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
        env = _worker_env(4)
        assert env["OPENBLAS_NUM_THREADS"] == "7"
        assert env["OMP_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"

    def test_children_import_this_repro(self):
        import repro

        first = _worker_env(1)["PYTHONPATH"].split(os.pathsep)[0]
        assert os.path.samefile(os.path.join(first, "repro"), os.path.dirname(repro.__file__))
