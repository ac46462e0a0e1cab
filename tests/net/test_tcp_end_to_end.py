"""TCP runtime end-to-end: bit-identity vs SimComm, fault paths, accounting.

These spawn real worker OS processes (several seconds each).  The scale
is the smallest federation that still exercises multi-client workers:
3 clients on 2 workers.  Which clients a worker owns is the launcher's
cost-aware placement; the fault tests read it back (``victims``) instead
of assuming it.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import telemetry
from repro.core import FedClassAvg
from repro.federated import FederationSpec, build_federation
from repro.net.launcher import assign_clients, place_clients, run_tcp_federation

ROUNDS = 2
NUM_CLIENTS = 3


def spec() -> FederationSpec:
    return FederationSpec(
        dataset="fashion_mnist-tiny",
        num_clients=NUM_CLIENTS,
        partition="dirichlet",
        n_train=120,
        n_test=90,
        test_per_client=15,
        batch_size=16,
        lr=3e-3,
        seed=0,
    )


@pytest.fixture(scope="module")
def sim_run():
    """Reference in-process run: (history, global_state)."""
    clients, _ = build_federation(spec())
    algo = FedClassAvg(clients, rho=0.1, sample_rate=1.0, local_epochs=1, seed=0)
    history = algo.run(ROUNDS)
    return history, algo.global_state


@pytest.fixture(scope="module")
def tcp_run():
    result, codes = run_tcp_federation(
        asdict(spec()),
        rounds=ROUNDS,
        workers=2,
        trainer={"rho": 0.1},
        seed=0,
        round_timeout_s=60.0,
    )
    return result, codes


@pytest.fixture(scope="module")
def victims():
    """Clients owned by worker 1 — the one the fault hooks target."""
    return place_clients(asdict(spec()), 2)[1]


@pytest.fixture(scope="module")
def bystanders(victims):
    return [k for k in range(NUM_CLIENTS) if k not in victims]


class TestAssignment:
    """The ``costs=None`` contract: plain round-robin."""

    def test_round_robin(self):
        assert assign_clients(5, 2) == [[0, 2, 4], [1, 3]]

    def test_more_workers_than_clients(self):
        assert assign_clients(2, 4) == [[0], [1]]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            assign_clients(4, 0)


class TestBitIdentity:
    def test_workers_exit_cleanly(self, tcp_run):
        _, codes = tcp_run
        assert codes == [0, 0]

    def test_global_classifier_bit_identical(self, sim_run, tcp_run):
        _, sim_state = sim_run
        result, _ = tcp_run
        assert set(result.global_state) == set(sim_state)
        for key in sim_state:
            a, b = sim_state[key], result.global_state[key]
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), f"{key} diverged"

    def test_per_round_metrics_match(self, sim_run, tcp_run):
        sim_hist, _ = sim_run
        result, _ = tcp_run
        assert len(result.history.rounds) == ROUNDS
        for sim_m, tcp_m in zip(sim_hist.rounds, result.history.rounds):
            assert tcp_m.mean_acc == pytest.approx(sim_m.mean_acc)
            assert tcp_m.train_loss == pytest.approx(sim_m.train_loss)

    def test_all_clients_survived_every_round(self, tcp_run):
        result, _ = tcp_run
        assert result.lost_clients == []
        for entry in result.round_log:
            assert entry["survivors"] == list(range(NUM_CLIENTS))

    def test_per_client_byte_accounting(self, tcp_run):
        result, _ = tcp_run
        cost = result.cost
        for k in range(NUM_CLIENTS):
            assert cost.per_link[(0, k + 1)] > 0, f"no downlink to client {k}"
            assert cost.per_link[(k + 1, 0)] > 0, f"no uplink from client {k}"
        assert cost.total_bytes == sum(cost.per_link.values())
        assert len(cost.per_round) == ROUNDS  # end_round() closed each round


class TestWorkerDeath:
    @pytest.fixture(scope="class")
    def fault_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tel") / "fault.jsonl"
        tel = telemetry.configure(jsonl=str(path))
        try:
            result, codes = run_tcp_federation(
                asdict(spec()),
                rounds=3,
                workers=2,
                trainer={"rho": 0.1},
                seed=0,
                round_timeout_s=30.0,
                liveness_timeout_s=3.0,
                heartbeat_s=0.3,
                chaos={1: ["--die-at-round", "1"]},
            )
            alerts = list(tel.health.alerts)
        finally:
            tel.close()
            telemetry.disable()
        return result, codes, alerts

    def test_killed_worker_exit_code(self, fault_run):
        _, codes, _ = fault_run
        assert codes[0] == 0
        assert codes[1] == -9  # SIGKILL

    def test_round_completes_with_survivors(self, fault_run, bystanders):
        result, _, _ = fault_run
        log = {e["round"]: e for e in result.round_log}
        assert log[0]["survivors"] == [0, 1, 2]
        assert log[1]["survivors"] == bystanders
        assert log[2]["survivors"] == bystanders

    def test_client_lost_alert_emitted(self, fault_run, victims):
        _, _, alerts = fault_run
        lost = [a for a in alerts if a["detector"] == "client_lost"]
        assert [a["client"] for a in lost] == victims
        assert all(a["severity"] == "critical" for a in lost)

    def test_lost_clients_recorded(self, fault_run, victims):
        result, _, _ = fault_run
        assert [e["client"] for e in result.lost_clients] == victims
        assert result.lost_clients[0]["round"] == 1

    def test_survivor_only_mean_loss(self, fault_run):
        result, _, _ = fault_run
        for t, metrics in enumerate(result.history.rounds):
            losses = result.round_log[t]["losses"]
            assert sorted(losses) == result.round_log[t]["survivors"]
            assert metrics.train_loss == pytest.approx(
                float(np.mean(list(losses.values())))
            )

    def test_no_downlink_to_dead_client_after_death(self, fault_run, victims, bystanders):
        result, _, _ = fault_run
        # round 2's broadcast must not have been sent to a dead client: its
        # downlink carries rounds 0-1 only, strictly less than a survivor's.
        # Compare the highest id on each side — a worker's control frames
        # are booked to its lowest-id client, classifier frames to each
        down = result.cost.per_link
        assert down[(0, max(victims) + 1)] < down[(0, max(bystanders) + 1)]


class TestWorkerStall:
    @pytest.fixture(scope="class")
    def stall_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tel") / "stall.jsonl"
        tel = telemetry.configure(jsonl=str(path))
        try:
            result, codes = run_tcp_federation(
                asdict(spec()),
                rounds=2,
                workers=2,
                trainer={"rho": 0.1},
                seed=0,
                round_timeout_s=2.5,
                liveness_timeout_s=30.0,  # heartbeats keep flowing: slow ≠ dead
                heartbeat_s=0.3,
                chaos={1: ["--stall-at-round", "1", "--stall-s", "8"]},
            )
            alerts = list(tel.health.alerts)
        finally:
            tel.close()
            telemetry.disable()
        return result, codes, alerts

    def test_timeout_without_death(self, stall_run, victims, bystanders):
        result, codes, _ = stall_run
        log = {e["round"]: e for e in result.round_log}
        assert log[1]["survivors"] == bystanders
        assert log[1]["timed_out"] == victims
        # worker 1 was never declared dead — no client_lost, clean reap
        assert result.lost_clients == []

    def test_client_timeout_alert_is_warning(self, stall_run, victims):
        _, _, alerts = stall_run
        timeouts = [a for a in alerts if a["detector"] == "client_timeout"]
        assert [a["client"] for a in timeouts] == victims
        assert all(a["severity"] == "warning" for a in timeouts)
        assert not [a for a in alerts if a["detector"] == "client_lost"]

    def test_survivor_only_loss_on_timeout_round(self, stall_run, bystanders):
        result, _, _ = stall_run
        losses = result.round_log[1]["losses"]
        assert sorted(losses) == bystanders
        assert result.history.rounds[1].train_loss == pytest.approx(
            float(np.mean(list(losses.values())))
        )
