"""The tick CostModel, the run record and the correctness checks, on hand-built inputs."""

import numpy as np
import pytest

from bench import fanin, measure
from bench.calibrate import REFERENCE_S
from bench.record import digest, end_to_end, from_ticks
from bench.workloads import CalibratingExecutor, TickCostModel
from repro.comm import SimComm
from repro.federated import FiniteValidator, UpdateFirewall


def test_tick_cost_model_stamps_every_end_round_and_keeps_the_ledger():
    seen = []
    cost = TickCostModel()
    cost.on_tick = lambda: seen.append(len(cost.ticks))
    comm = SimComm(3, cost)
    comm.send({"w": np.zeros(4)}, src=0, dst=1)
    first = cost.end_round(participants=2)
    comm.send({"w": np.zeros(8)}, src=1, dst=0)
    second = cost.end_round(participants=2)
    assert first > 0 and second > first and cost.per_round == [first, second]
    assert len(cost.ticks) == 2 and cost.ticks[0] <= cost.ticks[1] and seen == [1, 2]
    assert cost.per_client_round_bytes(2) == (first + second) / 4
    # the calibration kernel runs right after each tick, and before each update
    assert [at >= tick for (at, _), tick in zip(cost.kernel_log, cost.ticks)] == [True, True]
    assert CalibratingExecutor(cost).map(lambda k: 2 * k, [1, 2, 3]) == [2, 4, 6]
    assert len(cost.kernel_log) == 5 and all(sec > 0 for _, sec in cost.kernel_log)


def make_run(**fields):
    base = dict(
        attempted=16, failed=0, bytes_per_client_round=100.0,
        global_state={"classifier.weight": np.ones((2, 2))}, final_mean_acc=0.5,
        first_loss=2.0, last_loss=1.0,
    )
    # kernel runs (started, seconds): one in round 0, one after each tick, and
    # one in the middle of the second steady round, which ran twice as slow
    ref = REFERENCE_S
    log = [(11.0, ref), (13.0, ref), (14.0, 2 * ref), (15.0, 2 * ref), (16.0, 2 * ref), (17.0, ref)]
    return from_ticks(10.0, [13.0, 14.0, 16.0, 17.0], log, **{**base, **fields})


def test_round_zero_belongs_to_setup_and_kernel_time_is_taken_back_out():
    run = make_run()
    ref = REFERENCE_S
    assert run.setup_s == pytest.approx(3.0 - ref)
    assert run.intervals == pytest.approx([1.0 - ref, 2.0 - 4 * ref, 1.0 - 2 * ref])
    assert run.kernels == [[ref, 2 * ref], [2 * ref, 2 * ref, 2 * ref], [2 * ref, ref]]
    assert run.slowdowns() == pytest.approx([1.5, 2.0, 1.5])


def test_steady_metrics_are_at_reference_machine_speed():
    run = make_run()
    calibrated = run.calibrated()
    assert calibrated == pytest.approx([w / s for w, s in zip(run.intervals, [1.5, 2.0, 1.5])])
    m = end_to_end(run, [3.0, 5.0], peak_rss_mb=50.0)
    assert m["setup_s"] == 4.0  # raw wall seconds, median of the samples
    assert m["round_wall_p50_s"] == pytest.approx(sorted(calibrated)[1])
    assert m["rounds_per_s"] == pytest.approx(3 / sum(calibrated))
    assert m["round_wall_p50_s"] <= m["round_wall_p95_s"] <= max(calibrated)


def test_a_flipped_byte_in_the_digest_fails_tcp_hetero():
    run = make_run()
    good = digest(run.global_state)
    flipped = ("0" if good[0] != "0" else "1") + good[1:]
    assert measure.check("tcp_hetero", run, 6, good)["digest_equals_other_engine"]
    assert not measure.check("tcp_hetero", run, 6, flipped)["digest_equals_other_engine"]
    assert "digest_equals_other_engine" not in measure.check("tcp_hetero", run, 6, None)


def test_checks_catch_bad_runs():
    assert all(measure.check("tcp_hetero", make_run(), 6, None).values())
    assert not measure.check("sim_hetero", make_run(final_mean_acc=0.2), 6, None)["accuracy_above_floor"]
    assert not measure.check("tcp_fullweight", make_run(last_loss=3.0), 30, None)["train_loss_decreased"]
    assert not measure.check("tcp_hetero", make_run(problems=["worker exit codes [1, 0]"]), 6, None)["no_problems"]
    nan_state = {"classifier.weight": np.array([np.nan])}
    assert not measure.check("sim_hetero", make_run(global_state=nan_state), 6, None)["global_finite"]


def test_an_unrejected_poisoned_update_counts_as_failed(monkeypatch):
    honest = fanin.run_fanin(seed=0, rounds=3, n=8)
    assert honest.failed == 0 and honest.final_mean_acc is None
    assert all(measure.check("server_fanin", honest, 3, None).values())
    # a laxer firewall: the NaN screen stays, the norm bound that stops the
    # scaled update is gone, so client 7's poison is admitted every round
    monkeypatch.setattr(fanin, "default_firewall", lambda: UpdateFirewall([FiniteValidator()]))
    lax = fanin.run_fanin(seed=0, rounds=3, n=8)
    assert lax.failed == 3 and lax.failed / lax.attempted > 0
    assert not measure.check("server_fanin", lax, 3, None)["verdicts_match_ground_truth"]


def test_poisoned_ids_are_a_fixed_tenth_outside_the_warm_up():
    scaled, nan_bias = fanin.poisoned_ids(100)
    assert len(scaled) == len(nan_bias) == 5 and not scaled & nan_bias
    assert min(scaled | nan_bias) >= 3
