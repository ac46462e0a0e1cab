"""Worker supervision: bounded respawn, and end-to-end rejoin recovery.

The unit tests drive the supervisor with throwaway ``python -c``
processes; the e2e test is the tentpole acceptance check — kill a worker
mid-round, watch the supervisor respawn it with ``--rejoin``, and
require that the round completes with *zero permanently lost clients*.
"""

import subprocess
import sys
import time
from dataclasses import asdict

import pytest

from repro import telemetry
from repro.federated import FederationSpec
from repro.net.launcher import place_clients, run_tcp_federation
from repro.net.retry import RetryPolicy
from repro.net.supervisor import WorkerSupervisor

FAST = RetryPolicy(attempts=4, base_delay_s=0.01, max_delay_s=0.05)


def _proc(code: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestSupervisorUnit:
    def test_clean_exit_is_not_respawned(self):
        sup = WorkerSupervisor(max_restarts=3, policy=FAST, seed=0, poll_interval_s=0.02)
        sup.watch(_proc("pass"), [sys.executable, "-c", "pass"])
        sup.start()
        assert _wait_for(lambda: sup._slots[0].done)
        assert sup.restarts == [0]
        assert sup.stop() == [0]

    def test_crash_respawns_up_to_budget(self):
        sup = WorkerSupervisor(max_restarts=2, policy=FAST, seed=0, poll_interval_s=0.02)
        sup.watch(_proc("raise SystemExit(3)"), [sys.executable, "-c", "raise SystemExit(3)"])
        sup.start()
        # every respawn exits 3 again, so the budget must drain completely
        assert _wait_for(lambda: sup._slots[0].done)
        assert sup.restarts == [2]
        assert sup.stop() == [3]

    def test_respawn_callback_and_counter(self, tmp_path):
        tel = telemetry.configure(jsonl=str(tmp_path / "t.jsonl"))
        try:
            seen = []
            sup = WorkerSupervisor(
                max_restarts=1,
                policy=FAST,
                seed=0,
                poll_interval_s=0.02,
                on_respawn=lambda i, n, p: seen.append((i, n)),
            )
            sup.watch(_proc("raise SystemExit(1)"), [sys.executable, "-c", "pass"])
            sup.start()
            assert _wait_for(lambda: sup._slots[0].done)
            sup.stop()
            assert seen == [(0, 1)]
            assert telemetry.counter("net.worker_restarts").value == 1
        finally:
            tel.close()
            telemetry.disable()

    def test_stop_reaps_long_runner(self):
        sup = WorkerSupervisor(max_restarts=0, policy=FAST, poll_interval_s=0.02)
        sup.watch(_proc("import time; time.sleep(600)"), [sys.executable, "-c", "pass"])
        sup.start()
        codes = sup.stop(timeout_s=0.2)
        assert len(codes) == 1 and codes[0] != 0  # terminated, not still running

    def test_seeded_backoff_is_reproducible(self):
        def delays(seed):
            sup = WorkerSupervisor(max_restarts=3, policy=FAST, seed=seed)
            return list(sup._slot_delays(0))

        assert delays(7) == delays(7)
        assert delays(7) != delays(8)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(max_restarts=-1)


SPEC = FederationSpec(
    dataset="fashion_mnist-tiny",
    num_clients=3,
    partition="dirichlet",
    n_train=120,
    n_test=90,
    test_per_client=15,
    batch_size=16,
    lr=3e-3,
    seed=0,
)


class TestSupervisedRejoin:
    """Kill worker 1 at round 1; the supervisor must bring its clients back."""

    @pytest.fixture(scope="class")
    def victims(self):
        """The clients worker 1 owns under the launcher's own placement."""
        return place_clients(asdict(SPEC), 2)[1]

    @pytest.fixture(scope="class")
    def rejoin_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tel") / "rejoin.jsonl"
        tel = telemetry.configure(jsonl=str(path))
        try:
            result, codes = run_tcp_federation(
                asdict(SPEC),
                rounds=3,
                workers=2,
                trainer={"rho": 0.1},
                seed=0,
                round_timeout_s=60.0,
                liveness_timeout_s=3.0,
                heartbeat_s=0.3,
                chaos={1: ["--die-at-round", "1"]},
                supervise=True,
            )
            alerts = list(tel.health.alerts)
        finally:
            tel.close()
            telemetry.disable()
        return result, codes, alerts

    def test_no_permanently_lost_clients(self, rejoin_run):
        result, _, _ = rejoin_run
        assert result.permanently_lost == []

    def test_client_recovered(self, rejoin_run, victims):
        result, _, _ = rejoin_run
        assert [e["client"] for e in result.lost_clients] == victims
        assert [e["client"] for e in result.recovered_clients] == victims

    def test_recovered_alert_emitted(self, rejoin_run, victims):
        _, _, alerts = rejoin_run
        recovered = [a for a in alerts if a["detector"] == "client_recovered"]
        assert [a["client"] for a in recovered] == victims
        assert all(a["severity"] == "info" for a in recovered)

    def test_rejoined_client_participates_again(self, rejoin_run, victims):
        result, _, _ = rejoin_run
        # the worker was SIGKILLed mid-round-1, yet the grace window +
        # respawn mean every round after the recovery round (often round
        # 1 itself) aggregates its clients again
        recovered_at = result.recovered_clients[0]["round"]
        for entry in result.round_log:
            if entry["round"] > recovered_at:
                assert set(victims) <= set(entry["survivors"]), f"round {entry['round']}"

    def test_final_round_aggregates_everyone(self, rejoin_run):
        result, _, _ = rejoin_run
        assert result.round_log[-1]["survivors"] == [0, 1, 2]
