"""End-to-end telemetry over a real FedClassAvg run (and the CLI flag)."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import FedClassAvg
from repro.federated import FaultInjector, ThreadExecutor


@pytest.fixture
def tiny_algo(micro_federation):
    clients, _ = micro_federation
    return FedClassAvg(clients, rho=0.1, seed=0)


class TestRunTelemetry:
    def test_jsonl_covers_required_spans_and_rounds(self, tiny_algo, tmp_path):
        path = str(tmp_path / "run.jsonl")
        tel = telemetry.configure(jsonl=path, profile_ops=True)
        try:
            tiny_algo.run(2)
        finally:
            tel.close()
            telemetry.disable()

        records = telemetry.read_jsonl(path)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"round", "broadcast", "local_update", "aggregate"} <= span_names

        rounds = [r for r in records if r["type"] == "round"]
        assert [r["round"] for r in rounds] == [0, 1]
        for r in rounds:
            assert r["bytes_up"] > 0 and r["bytes_down"] > 0
            assert r["bytes"] == r["bytes_up"] + r["bytes_down"]
            assert r["comm_s"] > 0 and r["compute_s"] > 0
            assert r["wall_s"] >= r["compute_s"]
            assert r["participants"] == r["survivors"] == len(tiny_algo.clients)

        ops = [r for r in records if r["type"] == "op_profile"]
        assert len(ops) == 1
        assert ops[0]["ops"]["conv2d"]["forward_calls"] > 0
        assert ops[0]["ops"]["conv2d"]["backward_s"] >= 0.0

        metrics = [r for r in records if r["type"] == "metrics"]
        assert len(metrics) == 1
        assert metrics[0]["counters"]["train.batches"] > 0

    def test_round_span_parents_local_update(self, tiny_algo):
        tel = telemetry.configure()
        try:
            tiny_algo.run(1)
        finally:
            tel.close()
            telemetry.disable()
        spans = {r["name"]: r for r in tel.tracer.finished}
        assert spans["local_update"]["parent_id"] == spans["round"]["span_id"]
        assert spans["broadcast"]["parent_id"] == spans["round"]["span_id"]

    def test_thread_executor_spans_and_task_histogram(self, micro_federation):
        clients, _ = micro_federation
        ex = ThreadExecutor(max_workers=2)
        tel = telemetry.configure()
        try:
            FedClassAvg(clients, rho=0.1, seed=0, executor=ex).run(1)
        finally:
            ex.shutdown()
            tel.close()
            telemetry.disable()
        # one local_update span per client, recorded from worker threads
        assert tel.tracer.total("local_update")[0] == len(clients)
        assert tel.metrics.histogram("executor.task_s").count == len(clients)

    def test_fault_injection_survivor_accounting(self, micro_federation):
        clients, _ = micro_federation
        algo = FedClassAvg(clients, rho=0.1, seed=0, fault_injector=FaultInjector(0.5, seed=1))
        tel = telemetry.configure()
        try:
            algo.run(2)
        finally:
            tel.close()
            telemetry.disable()
        dropped = algo.fault_injector.dropped_log
        for r in tel.rounds:
            assert r["survivors"] == r["participants"] - len(dropped[r["round"]])

    def test_disabled_backend_records_nothing(self, tiny_algo):
        telemetry.disable()
        tiny_algo.run(1)
        tel = telemetry.get_telemetry()
        assert not tel.enabled
        assert tel.rounds == []


class TestCliTelemetry:
    def test_cli_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.jsonl")
        rc = main(
            [
                "--algorithm",
                "fedclassavg",
                "--clients",
                "3",
                "--rounds",
                "1",
                "--dataset",
                "fashion_mnist-tiny",
                "--telemetry",
                path,
                "--profile-ops",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-round breakdown" in out and "op profile" in out
        records = telemetry.read_jsonl(path)
        types = {r["type"] for r in records}
        assert {"span", "round", "metrics", "op_profile", "client_round", "health_summary"} <= types
        # the CLI restores the null backend afterwards
        assert not telemetry.get_telemetry().enabled

    def test_op_profiler_is_opt_in(self, tmp_path, capsys):
        """--telemetry alone must not enable the per-op profiler (it is
        documented as opt-in and adds per-op overhead) nor crash the
        summary printing."""
        from repro.cli import main

        path = str(tmp_path / "cli.jsonl")
        rc = main(
            [
                "--clients",
                "3",
                "--rounds",
                "1",
                "--telemetry",
                path,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-round breakdown" in out
        assert "op profile" not in out
        types = {r["type"] for r in telemetry.read_jsonl(path)}
        assert "op_profile" not in types
        assert "round" in types and "client_round" in types


class TestSurvivorLoss:
    def test_round_loss_is_mean_over_survivors_only(self, micro_federation, monkeypatch):
        """Faulted clients' losses must not leak into the reported round loss."""
        from repro.federated import trainer as trainer_mod

        clients, _ = micro_federation
        algo = FedClassAvg(clients, rho=0.1, seed=0, fault_injector=FaultInjector(0.5, seed=3))

        # give every client a distinctive, known "loss"
        fake_losses = {c.client_id: float(10 + c.client_id) for c in clients}
        monkeypatch.setattr(
            trainer_mod, "local_update", lambda client, *a, **k: fake_losses[client.client_id]
        )

        algo.setup()
        sampled = list(range(len(clients)))
        loss = algo.round(0, sampled)
        survivors = algo.last_survivors
        assert survivors is not None and 0 < len(survivors) < len(clients)
        expected = float(np.mean([fake_losses[k] for k in survivors]))
        assert loss == pytest.approx(expected)


class TestHealthIntegration:
    def test_live_run_emits_client_round_records_with_all_signals(
        self, tiny_algo, tmp_path
    ):
        """A plain instrumented run produces per-client records carrying
        loss, grad norm, classifier drift, update norm, uplink bytes,
        duration, and (on eval rounds) accuracy."""
        path = str(tmp_path / "run.jsonl")
        tel = telemetry.configure(jsonl=path)
        try:
            tiny_algo.run(2)
        finally:
            tel.close()
            telemetry.disable()

        records = telemetry.read_jsonl(path)
        client_rounds = [r for r in records if r["type"] == "client_round"]
        n = len(tiny_algo.clients)
        assert len(client_rounds) == 2 * n
        for r in client_rounds:
            assert r["sampled"] is True and r["survived"] is True
            assert np.isfinite(r["loss"]) and r["loss"] > 0
            assert np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
            assert r["drift"] > 0  # local training moved C_k off the broadcast C
            assert r["update_norm"] >= r["drift"] * 0.999
            assert r["bytes_up"] > 0
            assert r["duration_s"] > 0
            assert 0.0 <= r["acc"] <= 1.0  # eval_every=1: every round evaluated
        summary = [r for r in records if r["type"] == "health_summary"]
        assert len(summary) == 1
        assert summary[0]["clients"] == n

    def test_round_record_carries_mean_acc_and_evaluated(self, tiny_algo):
        tel = telemetry.configure()
        try:
            history = tiny_algo.run(2)
        finally:
            tel.close()
            telemetry.disable()
        for t, r in enumerate(tel.rounds):
            assert r["evaluated"] is True
            assert r["mean_acc"] == pytest.approx(history.rounds[t].mean_acc)

    def test_injected_nan_loss_produces_alert_record(self, micro_federation, tmp_path):
        """Poisoning a client's weights with NaN must surface as a
        critical nan_loss alert in the JSONL — through the real
        local_update path, not a synthetic observation.  The admission
        firewall quarantines the resulting NaN upload so the run itself
        survives (aggregation refuses non-finite input outright)."""
        from repro.federated import default_firewall

        clients, _ = micro_federation
        bad = clients[1]
        for p in bad.model.parameters():
            p.data[...] = np.nan
        path = str(tmp_path / "nan.jsonl")
        tel = telemetry.configure(jsonl=path)
        try:
            FedClassAvg(clients, rho=0.1, seed=0, firewall=default_firewall()).run(1)
        finally:
            tel.close()
            telemetry.disable()
        alerts = [r for r in telemetry.read_jsonl(path) if r["type"] == "alert"]
        nan_alerts = [a for a in alerts if a["detector"] == "nan_loss"]
        assert nan_alerts, f"expected a nan_loss alert, got {alerts}"
        assert any(a["client"] == bad.client_id for a in nan_alerts)
        assert all(a["severity"] == "critical" for a in nan_alerts)

    def test_injected_straggler_produces_alert_record(self, micro_federation, tmp_path):
        """Slowing one client's optimizer down must trip the straggler
        detector through the real local_update span timing."""
        import time as _time

        from repro.telemetry import HealthMonitor, StragglerDetector

        clients, _ = micro_federation
        slow = clients[2]
        orig_step = slow.optimizer.step

        def slow_step():
            _time.sleep(0.05)
            orig_step()

        slow.optimizer.step = slow_step
        path = str(tmp_path / "straggler.jsonl")
        monitor = HealthMonitor(detectors=[StragglerDetector(ratio=2.0, min_clients=3)])
        tel = telemetry.configure(jsonl=path, health=monitor)
        try:
            FedClassAvg(clients, rho=0.1, seed=0).run(1)
        finally:
            tel.close()
            telemetry.disable()
        alerts = [r for r in telemetry.read_jsonl(path) if r["type"] == "alert"]
        straggler = [a for a in alerts if a["detector"] == "straggler"]
        assert [a["client"] for a in straggler] == [slow.client_id]

    def test_on_alert_callback_fires_during_run(self, micro_federation):
        from repro.federated import default_firewall

        clients, _ = micro_federation
        for p in clients[0].model.parameters():
            p.data[...] = np.nan
        seen = []
        tel = telemetry.configure(on_alert=seen.append)
        try:
            FedClassAvg(clients, rho=0.1, seed=0, firewall=default_firewall()).run(1)
        finally:
            tel.close()
            telemetry.disable()
        assert any(a["detector"] == "nan_loss" and a["client"] == 0 for a in seen)

    def test_health_disabled_emits_no_health_records(self, tiny_algo, tmp_path):
        path = str(tmp_path / "nohealth.jsonl")
        tel = telemetry.configure(jsonl=path, health=False)
        try:
            tiny_algo.run(1)
        finally:
            tel.close()
            telemetry.disable()
        types = {r["type"] for r in telemetry.read_jsonl(path)}
        assert "client_round" not in types
        assert "alert" not in types
        assert "health_summary" not in types
