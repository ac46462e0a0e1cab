"""Distributed tracing end-to-end: a telemetered loopback TCP federation.

The acceptance path for cross-process tracing: run server + 2 real
worker processes with telemetry on every rank, merge the three JSONL
streams, and assert the merged Chrome trace hangs each worker
``local_update`` span under the server round span that triggered it,
with clock-aligned timestamps.  Also pins that tracing changes no
math: the final global classifier stays bit-identical to the
in-process simulation.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import telemetry
from repro.core import FedClassAvg
from repro.federated import FederationSpec, build_federation
from repro.net.launcher import rank_telemetry_path, run_tcp_federation
from repro.telemetry import count_remote_parented, merge_traces, read_jsonl

ROUNDS = 2
NUM_CLIENTS = 3
WORKERS = 2
# loopback clock alignment lands within ~10ms; the bug class this guards
# against (offset from training-inflated RTT samples) is 100ms-1s
ALIGN_SLOP_US = 100e3


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
def traced_run(tmp_path_factory):
    """(result, exit_codes, server_records, worker_record_streams)."""
    tmp = tmp_path_factory.mktemp("traced")
    base = str(tmp / "run.jsonl")
    tel = telemetry.configure(jsonl=base, process={"role": "server"})
    try:
        result, codes = run_tcp_federation(
            asdict(spec()),
            rounds=ROUNDS,
            workers=WORKERS,
            trainer={"rho": 0.1},
            seed=0,
            round_timeout_s=60.0,
            worker_telemetry=base,
        )
    finally:
        tel.close()
        telemetry.disable()
    server_records = read_jsonl(base)
    worker_records = [
        read_jsonl(rank_telemetry_path(base, rank)) for rank in range(1, WORKERS + 1)
    ]
    return result, codes, server_records, worker_records


@pytest.fixture(scope="module")
def merged(traced_run):
    _, _, server_records, worker_records = traced_run
    return merge_traces(server_records, worker_records)


def x_events(trace):
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


class TestTracedFederation:
    def test_workers_exit_cleanly(self, traced_run):
        _, codes, _, _ = traced_run
        assert codes == [0] * WORKERS

    def test_every_rank_exports_a_proc_anchor(self, traced_run):
        _, _, server_records, worker_records = traced_run
        server_proc = next(r for r in server_records if r.get("type") == "proc")
        assert server_proc["role"] == "server"
        assert "wall" in server_proc and "mono" in server_proc
        for stream in worker_records:
            proc = next(r for r in stream if r.get("type") == "proc")
            assert proc["role"] == "worker" and proc["clients"]

    def test_workers_sample_their_clock_offset(self, traced_run):
        _, _, _, worker_records = traced_run
        for stream in worker_records:
            clocks = [r for r in stream if r.get("type") == "clock"]
            assert clocks, "no clock-offset samples in a worker stream"
            # the pre-EVAL probe guarantees ≥1 promptly-stamped sample
            assert min(float(c["rtt_s"]) for c in clocks) < 0.25

    def test_round_records_carry_phase_breakdown(self, traced_run):
        _, _, server_records, worker_records = traced_run
        rounds = [r for r in server_records if r.get("type") == "round"]
        assert len(rounds) == ROUNDS
        for r in rounds:
            phase = r["phase"]
            assert set(phase) == {
                "broadcast_s", "compute_s", "queue_s", "wait_s", "aggregate_s"
            }
            assert phase["compute_s"] > 0
            # a worker trains its clients one after another: the workers'
            # own spans must agree that compute + queue is the busiest
            # worker's total and compute the slowest single client
            spans = [
                [
                    s["dur_s"]
                    for s in stream
                    if s.get("type") == "span"
                    and s["name"] == "local_update"
                    and s["attrs"]["round"] == r["round"]
                ]
                for stream in worker_records
            ]
            assert sorted(len(s) for s in spans) == [1, 2]  # 3 clients on 2 workers
            assert phase["compute_s"] == pytest.approx(max(max(s) for s in spans), rel=0.2)
            assert phase["compute_s"] + phase["queue_s"] == pytest.approx(
                max(sum(s) for s in spans), rel=0.2
            )

    def test_wire_latencies_exported(self, traced_run):
        _, _, server_records, _ = traced_run
        metrics = next(r for r in server_records if r.get("type") == "metrics")
        lat = metrics["latencies"]
        assert lat["net.encode_s.CLASSIFIER"]["count"] >= ROUNDS * NUM_CLIENTS
        assert "net.phase.compute_s" in lat
        assert lat["net.straggler_wait_s"]["count"] >= 1

    def test_local_updates_parent_under_server_rounds(self, merged):
        assert count_remote_parented(merged) >= 1
        by_uid = {
            e["args"]["span_uid"]: e
            for e in x_events(merged)
            if "span_uid" in e.get("args", {})
        }
        remote = [
            e for e in x_events(merged) if (e.get("args") or {}).get("remote_parent")
        ]
        updates = [e for e in remote if e["name"] == "local_update"]
        assert len(updates) == ROUNDS * NUM_CLIENTS
        for e in updates:
            parent = by_uid[e["args"]["parent_uid"]]
            assert parent["name"] == "round"
            assert parent["pid"] == 0 and e["pid"] != 0
            assert parent["args"].get("round") == e["args"].get("round")

    def test_clock_aligned_children_sit_inside_their_round(self, merged):
        by_uid = {
            e["args"]["span_uid"]: e
            for e in x_events(merged)
            if "span_uid" in e.get("args", {})
        }
        for e in x_events(merged):
            args = e.get("args") or {}
            if not args.get("remote_parent"):
                continue
            parent = by_uid[args["parent_uid"]]
            assert e["ts"] >= parent["ts"] - ALIGN_SLOP_US
            assert e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + ALIGN_SLOP_US

    def test_tracing_changes_no_math(self, traced_run):
        """Finals bit-identical to the in-process simulation, tracing ON."""
        result, _, _, _ = traced_run
        clients, _ = build_federation(spec())
        algo = FedClassAvg(clients, rho=0.1, sample_rate=1.0, local_epochs=1, seed=0)
        algo.run(ROUNDS)
        assert set(result.global_state) == set(algo.global_state)
        for name, ref in algo.global_state.items():
            assert np.array_equal(np.asarray(result.global_state[name]), np.asarray(ref))
