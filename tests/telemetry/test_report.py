"""Report rendering and run-diff/gate tests (pure record-dict level)."""

import pytest

from repro.telemetry.report import (
    binary_sparkline,
    diff_runs,
    format_diff,
    gate_violations,
    render_report,
    sparkline,
    summarize_run,
)


def round_rec(t, mean_acc=None, train_loss=1.0, up=100, down=100, **kw):
    return {
        "type": "round",
        "round": t,
        "algorithm": "fedclassavg",
        "wall_s": 1.0,
        "compute_s": 0.8,
        "comm_s": 0.1,
        "bytes": up + down,
        "bytes_up": up,
        "bytes_down": down,
        "participants": 2,
        "survivors": 2,
        "train_loss": train_loss,
        "mean_acc": mean_acc,
        "evaluated": mean_acc is not None,
        **kw,
    }


def client_rec(t, k, **fields):
    return {
        "type": "client_round",
        "round": t,
        "client": k,
        "sampled": True,
        "survived": True,
        **fields,
    }


def make_run(accs=(0.3, 0.5, 0.6), up=100, alerts=0):
    records = []
    for t, acc in enumerate(accs):
        records.append(round_rec(t, mean_acc=acc, up=up, down=up))
        records.append(client_rec(t, 0, loss=1.0 - 0.1 * t, acc=acc, duration_s=0.1, bytes_up=up))
        records.append(client_rec(t, 1, loss=2.0 - 0.1 * t, acc=acc, duration_s=0.3, bytes_up=up))
    for i in range(alerts):
        records.append(
            {
                "type": "alert",
                "round": i,
                "client": 0,
                "detector": "loss_spike",
                "severity": "warning",
                "message": f"synthetic alert {i}",
            }
        )
    return records


class TestSparkline:
    def test_maps_range_to_blocks(self):
        s = sparkline([0.0, 0.5, 1.0])
        assert s[0] == "▁" and s[-1] == "█" and len(s) == 3

    def test_resamples_long_series(self):
        assert len(sparkline(list(range(100)), width=12)) == 12

    def test_none_and_nan_render_dots(self):
        assert sparkline([None, 1.0, float("nan")]) == "·▅·"

    def test_flat_series_is_mid_level(self):
        assert set(sparkline([2.0, 2.0, 2.0])) == {"▅"}

    def test_empty(self):
        assert sparkline([]) == ""


class TestBinarySparkline:
    def test_fixed_scale(self):
        # always-0 and always-1 series must render differently (the
        # normalized sparkline would show ▅▅ for both)
        assert binary_sparkline([0.0, 0.0]) == "▁▁"
        assert binary_sparkline([1.0, 1.0]) == "██"
        assert binary_sparkline([0.0, 1.0, None]) == "▁█·"

    def test_resamples_long_series(self):
        assert len(binary_sparkline([1.0] * 100, width=12)) == 12


class TestSummarizeRun:
    def test_acc_aggregates_skip_unevaluated_rounds(self):
        records = [round_rec(0, mean_acc=None), round_rec(1, mean_acc=0.7), round_rec(2, mean_acc=0.6)]
        s = summarize_run(records)
        assert s.final_acc() == 0.6
        assert s.best_acc() == 0.7

    def test_empty_run(self):
        s = summarize_run([])
        assert s.final_acc() is None and s.best_acc() is None and s.total_bytes() == 0

    def test_client_rows(self):
        s = summarize_run(make_run(alerts=2))
        rows = {r["client"]: r for r in s.client_rows()}
        assert rows[0]["sampled"] == 3 and rows[0]["survived"] == 3
        assert rows[0]["alerts"] == 2 and rows[1]["alerts"] == 0
        assert rows[0]["bytes_up"] == 300
        assert rows[1]["mean_duration_s"] == pytest.approx(0.3)


class TestRenderReport:
    def test_dashboard_sections(self):
        out = render_report(make_run(alerts=1))
        assert "run: fedclassavg" in out
        assert "per-round breakdown:" in out
        assert "per-client health:" in out
        assert "alerts (1):" in out
        assert "synthetic alert 0" in out
        assert "loss trend" in out and "acc trend" in out

    def test_no_alerts_renders_placeholder(self):
        assert "(no alerts)" in render_report(make_run())

    def test_alerting_client_is_flagged_in_table(self):
        out = render_report(make_run(alerts=1))
        table = out.split("per-client health:")[1].split("alerts (")[0]
        rows = [line for line in table.splitlines() if line.rstrip().endswith("!")]
        assert len(rows) == 1 and rows[0].strip().startswith("0")

    def test_rejection_column_only_when_someone_was_quarantined(self):
        plain = render_report(make_run())
        assert "rej trend" not in plain
        records = make_run()
        # client 1 is rejected in rounds 0 and 2, client 0 never
        for rec in records:
            if rec.get("type") == "client_round":
                rec["rejected"] = (
                    1.0 if rec["client"] == 1 and rec["round"] != 1 else 0.0
                )
        records.append(
            {
                "type": "alert",
                "round": 0,
                "client": 1,
                "detector": "update_rejected",
                "severity": "warning",
                "validator": "finite",
                "message": "client 1's round-0 update rejected by finite: nan",
            }
        )
        out = render_report(records)
        table = out.split("per-client health:")[1].split("alerts (")[0]
        assert "rej trend" in table
        row0, row1 = [
            line for line in table.splitlines() if line.strip().startswith(("0", "1"))
        ]
        assert "▁▁▁" in row0 and "█▁█" in row1

    def test_alert_rollup_line(self):
        records = make_run(alerts=2)
        records.append(
            {
                "type": "alert",
                "round": 1,
                "client": 1,
                "detector": "update_rejected",
                "severity": "warning",
                "message": "quarantined",
            }
        )
        records.append(
            {
                "type": "alert",
                "round": 1,
                "client": 1,
                "detector": "client_lost",
                "severity": "critical",
                "message": "gone",
            }
        )
        out = render_report(records)
        assert "alerts by severity: critical=1 warning=3 · update_rejected=1" in out

    def test_no_rollup_without_alerts(self):
        assert "alerts by severity" not in render_report(make_run())

    def test_mem_peak_column_only_with_mem_records(self):
        plain = render_report(make_run())
        assert "mem_peak" not in plain
        records = make_run() + [
            {"type": "mem", "round": 0, "client": 0, "mem_peak": 4096, "alloc_count": 7}
        ]
        out = render_report(records)
        table = out.split("per-client health:")[1].split("alerts (")[0]
        assert "mem_peak" in table and "4 KB" in table


class TestDiff:
    def test_deltas_are_candidate_minus_baseline(self):
        diff = diff_runs(make_run(accs=(0.3, 0.6)), make_run(accs=(0.3, 0.5)))
        assert diff["final_acc"] == (0.6, 0.5, pytest.approx(-0.1))
        assert diff["alerts"] == (0, 0, 0)

    def test_format_diff_mentions_names(self):
        out = format_diff(diff_runs(make_run(), make_run()), "base.jsonl", "new.jsonl")
        assert "base.jsonl" in out and "new.jsonl" in out
        assert "final_acc" in out and "total_bytes" in out

    def test_missing_acc_renders_dash(self):
        diff = diff_runs([round_rec(0, mean_acc=None)], make_run())
        assert diff["final_acc"][0] is None
        assert "-" in format_diff(diff)


class TestGate:
    def test_passes_identical_runs(self):
        assert gate_violations(diff_runs(make_run(), make_run())) == []

    def test_fails_on_accuracy_regression(self):
        diff = diff_runs(make_run(accs=(0.3, 0.6)), make_run(accs=(0.3, 0.5)))
        violations = gate_violations(diff, acc_drop_tol=0.01)
        assert len(violations) == 1 and "regressed" in violations[0]

    def test_tolerates_small_regression(self):
        diff = diff_runs(make_run(accs=(0.3, 0.6)), make_run(accs=(0.3, 0.595)))
        assert gate_violations(diff, acc_drop_tol=0.01) == []

    def test_fails_on_byte_inflation(self):
        diff = diff_runs(make_run(up=100), make_run(up=150))
        violations = gate_violations(diff, bytes_inflate_tol=0.10)
        assert len(violations) == 1 and "inflated" in violations[0]

    def test_new_alerts_gate_is_opt_in(self):
        diff = diff_runs(make_run(), make_run(alerts=3))
        assert gate_violations(diff) == []
        violations = gate_violations(diff, allow_new_alerts=False)
        assert len(violations) == 1 and "alert count" in violations[0]

    def test_improvement_never_fails(self):
        diff = diff_runs(make_run(accs=(0.3, 0.5)), make_run(accs=(0.3, 0.9), up=50))
        assert gate_violations(diff, allow_new_alerts=False) == []


class TestNetworkSection:
    def lat(self, count=4, p50=1e-4, p95=2e-4, p99=3e-4, mx=4e-4):
        return {
            "count": count, "total": count * p50, "min": p50, "max": mx,
            "mean": p50, "p50": p50, "p95": p95, "p99": p99,
        }

    def net_run(self):
        records = make_run()
        for i, r in enumerate(rec for rec in records if rec["type"] == "round"):
            r["phase"] = {
                "broadcast_s": 0.01,
                "compute_s": 0.7,
                "wait_s": 0.2,
                "aggregate_s": 0.001,
            }
        records.append(
            {
                "type": "metrics",
                "counters": {},
                "gauges": {},
                "histograms": {},
                "latencies": {
                    "net.send_s.CLASSIFIER": self.lat(),
                    "net.straggler_wait_s": self.lat(count=2, p50=0.5, p95=0.9, p99=0.9, mx=0.95),
                    "trainer.step_s": self.lat(),  # non-net: excluded
                },
            }
        )
        return records

    def test_absent_without_network_telemetry(self):
        # sim-only / pre-tracing files keep rendering exactly as before
        assert "network:" not in render_report(make_run())

    def test_critical_path_totals(self):
        out = render_report(self.net_run())
        assert "network:" in out
        assert "round critical path (totals over 3 rounds):" in out
        # 3 rounds x 0.7s compute against 3 x 1.0s wall = 70%
        assert "compute" in out and "70.0% of round wall" in out

    def test_queue_phase_renders_only_when_recorded(self):
        # files written before the server split queueing out of wait_s
        assert "  queue " not in render_report(self.net_run())
        records = self.net_run()
        for r in records:
            if "phase" in r:
                r["phase"].update(queue_s=0.15, wait_s=0.05)
        out = render_report(records)
        # 3 rounds x 0.15s queued behind the busiest worker's other clients
        assert "  queue " in out and "15.0% of round wall" in out

    def test_wire_latency_table_filters_to_net_metrics(self):
        out = render_report(self.net_run())
        assert "net.send_s.CLASSIFIER" in out
        assert "net.straggler_wait_s" in out
        assert "trainer.step_s" not in out

    def test_latency_units_scale(self):
        out = render_report(self.net_run())
        assert "µs" in out  # 100µs-scale send latencies
        assert "ms" in out or "s" in out  # 0.5s straggler wait

    def test_phases_alone_render_without_latencies(self):
        records = self.net_run()
        records = [r for r in records if r.get("type") != "metrics"]
        out = render_report(records)
        assert "round critical path" in out
        assert "wire latency" not in out
