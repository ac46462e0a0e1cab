"""Placement invariance: who owns a client never changes what it computes.

Client streams are keyed by ``(seed, client_id)`` and the server folds
updates in client-id order, so the final classifier cannot depend on the
ownership map.  One heterogeneous, attacked federation is run through
``launch_workers`` under three maps — the old round-robin groups, the
cost-aware groups, one worker owning everyone — and in process; all four
must agree to the byte.
"""

from dataclasses import asdict

import pytest

from repro.core import FedClassAvg
from repro.federated import FederationSpec, build_federation, default_firewall
from repro.net.chaos import AdversarySchedule
from repro.net.launcher import assign_clients, launch_workers, place_clients, reap_workers
from repro.net.server import FedTcpServer, make_run_config

ROUNDS = 2
NUM_CLIENTS = 4  # one client of each architecture
ADV = {"seed": 7, "clients": {"1": "sign_flip"}}


def spec() -> FederationSpec:
    return FederationSpec(
        dataset="fashion_mnist-tiny",
        num_clients=NUM_CLIENTS,
        partition="dirichlet",
        n_train=160,
        n_test=120,
        test_per_client=15,
        batch_size=16,
        lr=3e-3,
        seed=0,
    )


def fingerprint(global_state, history, rejections) -> dict:
    # comm_bytes is the one history field ownership may move: control
    # frames and heartbeats are per worker, not per client
    rounds = [{k: v for k, v in r.to_dict().items() if k != "comm_bytes"} for r in history.rounds]
    return {
        "global": {k: (v.dtype.str, v.shape, v.tobytes()) for k, v in global_state.items()},
        "history": rounds,
        "rejected": [(r["round"], r["client"], r["validator"]) for r in rejections],
    }


def run_with_groups(groups: list[list[int]]) -> dict:
    config = make_run_config(asdict(spec()), trainer={"rho": 0.1}, adversaries=ADV)
    server = FedTcpServer(
        NUM_CLIENTS, ROUNDS, config, seed=0, round_timeout_s=60.0, firewall=default_firewall()
    )
    host, port = server.listen()
    procs = launch_workers(host, port, groups, common_flags=["--rng-seed", "0"])
    try:
        result = server.run()
    finally:
        codes = reap_workers(procs)
    assert codes == [0] * len(groups)
    assert result.lost_clients == []
    return fingerprint(result.global_state, result.history, result.rejected_updates)


@pytest.fixture(scope="module")
def sim() -> dict:
    clients, _ = build_federation(spec())
    algo = FedClassAvg(
        clients, rho=0.1, sample_rate=1.0, local_epochs=1, seed=0,
        firewall=default_firewall(), adversaries=AdversarySchedule.from_config(ADV),
    )
    history = algo.run(ROUNDS)
    return fingerprint(algo.global_state, history, algo.rejections)


def ownership_maps() -> dict[str, list[list[int]]]:
    return {
        "round_robin": assign_clients(NUM_CLIENTS, 2),
        "cost_aware": place_clients(asdict(spec()), 2),
        "one_worker": assign_clients(NUM_CLIENTS, 1),
    }


def test_the_maps_differ():
    maps = ownership_maps()
    assert maps["round_robin"] == [[0, 2], [1, 3]]
    assert maps["cost_aware"] not in (maps["round_robin"], maps["one_worker"])
    assert sorted(k for g in maps["cost_aware"] for k in g) == list(range(NUM_CLIENTS))


@pytest.mark.parametrize("name", ["round_robin", "cost_aware", "one_worker"])
def test_any_ownership_map_equals_the_in_process_run(name, sim):
    got = run_with_groups(ownership_maps()[name])
    assert got["rejected"] == sim["rejected"] and got["rejected"], "attack never screened"
    assert got["global"] == sim["global"]
    assert got["history"] == sim["history"]
