"""Quorum policies: participation math, the merged round's invariants
against a scripted cohort, and e2e skip/abort behavior.

The e2e runs kill worker 1 (whatever clients it was placed) at round 1 with no
supervision and no rejoin grace, so rounds 1+ can never reach a
``min_fraction=1.0`` quorum.  ``skip_round`` must freeze the global
classifier at its round-0 value; ``abort`` must raise
:class:`QuorumError` and still reap every worker process.
"""

import os
import subprocess
from dataclasses import asdict

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.comm import CostModel
from repro.core import FedClassAvg
from repro.federated import FaultInjector, FederationSpec, FiniteValidator, UpdateFirewall
from repro.net.launcher import place_clients, run_tcp_federation
from repro.net.server import QuorumError, QuorumPolicy

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


class TestQuorumPolicy:
    def test_default_matches_pre_quorum_behavior(self):
        p = QuorumPolicy()
        assert p.required(10) == 1
        assert p.required(1) == 1

    def test_fraction_rounds_up(self):
        p = QuorumPolicy(min_fraction=0.5)
        assert p.required(3) == 2  # ceil(1.5)
        assert p.required(4) == 2
        assert p.required(5) == 3

    def test_count_floor_wins_over_small_fractions(self):
        p = QuorumPolicy(min_fraction=0.1, min_count=3)
        assert p.required(10) == 3
        assert p.required(100) == 10  # ceil(0.1 * 100) beats the floor

    def test_full_quorum(self):
        assert QuorumPolicy(min_fraction=1.0).required(7) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_fraction": -0.1},
            {"min_fraction": 1.5},
            {"min_count": -1},
            {"on_miss": "retry_forever"},
            {"max_extensions": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuorumPolicy(**kwargs)


def _ref_state(value=1.0):
    return {"w": np.full((2, 2), value, dtype=np.float64)}


FATES = ("on_time", "late", "never", "poisoned", "late_poisoned")


class ScriptedCohort:
    """A cohort that plays back per-round arrival fates: no sockets, no training.

    ``script[t][k]`` says what becomes of client ``k``'s round-``t`` upload:
    it arrives ``on_time``, only in an extension window (``late``),
    ``never``, or it arrives as a NaN bomb (``poisoned`` /
    ``late_poisoned``).  Every call the round loop makes is logged.
    """

    def __init__(self, script: list[list[str]]):
        self.script = script
        self.num_clients = len(script[0])
        self.cost = CostModel()
        self.delivered: dict[int, set[int]] = {}  # round -> clients handed over
        self.requests: list[tuple[int, list[int], set[int]]] = []
        self.on_evaluate = lambda t: None

    def _upload(self, t: int, k: int):
        bad = self.script[t][k].endswith("poisoned")
        meta = {"data_size": 10 + k, "loss": 100.0 * t + k, "duration_s": 0.0}
        return meta, _ref_state(np.nan if bad else 1.0 + 0.01 * k + 0.1 * t)

    def initial_states(self):
        return {k: ({"data_size": 10 + k}, _ref_state()) for k in range(self.num_clients)}

    def run_round(self, t, sampled, state, evaluating):
        on_time = ("on_time", "poisoned")
        got = {k: self._upload(t, k) for k in sampled if self.script[t][k] in on_time}
        self.delivered[t] = set(got)
        return got, {}

    def collect_more(self, t, missing, timeout_s):
        self.requests.append((t, sorted(missing), set(self.delivered[t])))
        got = {k: self._upload(t, k) for k in missing if self.script[t][k].startswith("late")}
        self.delivered[t] |= set(got)
        return got

    def evaluate(self, t):
        self.on_evaluate(t)
        return {k: 0.5 for k in range(self.num_clients)}

    def client_is_live(self, k):
        return True


def _scripted(script, policy):
    cohort = ScriptedCohort(script)
    algo = FedClassAvg(
        [], seed=0, quorum=policy, firewall=UpdateFirewall([FiniteValidator()]), cohort=cohort
    )
    return algo, cohort


class TestQuorumCountsAdmittedOnly:
    """Five uploads arrive, three are quarantined: participation is 2,
    not 5 — every ``on_miss`` mode must treat that as a quorum miss."""

    SCRIPT = [["on_time", "on_time", "poisoned", "poisoned", "poisoned"]]

    def test_rejections_do_not_count_toward_quorum_skip(self):
        algo, _ = _scripted(self.SCRIPT, QuorumPolicy(min_count=4, on_miss="skip_round"))
        algo.run(1)
        (row,) = algo.round_log
        assert row["skipped"] is True  # 2 admitted < 4 required despite 5 arrivals
        assert row["survivors"] == [0, 1]
        assert [r["client"] for r in row["rejected"]] == [2, 3, 4]
        assert np.array_equal(algo.global_state["w"], _ref_state()["w"])

    def test_quorum_met_by_admitted_updates_alone(self):
        algo, _ = _scripted(self.SCRIPT, QuorumPolicy(min_count=2, on_miss="skip_round"))
        algo.run(1)
        (row,) = algo.round_log
        assert row["skipped"] is False
        assert row["survivors"] == [0, 1]
        assert not np.array_equal(algo.global_state["w"], _ref_state()["w"])

    def test_abort_mode_raises_on_rejection_shortfall(self):
        algo, _ = _scripted(self.SCRIPT, QuorumPolicy(min_count=4, on_miss="abort"))
        with pytest.raises(QuorumError, match="quorum requires 4"):
            algo.run(1)

    def test_extend_mode_does_not_wait_when_everyone_arrived(self):
        # all five arrived; the shortfall is rejections, so extending the
        # deadline cannot help — the cohort must not be asked again
        algo, cohort = _scripted(
            self.SCRIPT, QuorumPolicy(min_count=4, on_miss="extend_deadline", max_extensions=3)
        )
        algo.run(1)
        assert cohort.requests == []
        assert algo.round_log[0]["skipped"] is True

    def test_extension_arrivals_are_rescreened(self):
        # client 2 never arrived; during the extension it sends a NaN bomb
        # which must be screened out, leaving the quorum still missed
        algo, cohort = _scripted(
            [["on_time", "on_time", "late_poisoned"]],
            QuorumPolicy(min_count=3, on_miss="extend_deadline", max_extensions=1),
        )
        algo.run(1)
        assert [(t, missing) for t, missing, _ in cohort.requests] == [(0, [2])]
        (row,) = algo.round_log
        assert row["skipped"] is True  # late NaN was rejected, quorum still short
        assert row["survivors"] == [0, 1]
        assert [r["client"] for r in row["rejected"]] == [2]
        assert row["timed_out"] == [2]  # it did miss the round's own deadline


class TestMergedRoundProperties:
    """Invariants of the one round, over generated arrival schedules."""

    @settings(max_examples=120, deadline=None)
    @given(
        script=st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(FATES), min_size=n, max_size=n), min_size=1, max_size=4
            )
        ),
        on_miss=st.sampled_from(["skip_round", "extend_deadline", "abort"]),
        min_count=st.integers(0, 5),
        max_extensions=st.integers(0, 2),
    )
    def test_round_invariants(self, script, on_miss, min_count, max_extensions):
        policy = QuorumPolicy(min_count=min_count, on_miss=on_miss, max_extensions=max_extensions)
        algo, cohort = _scripted(script, policy)
        states = []
        cohort.on_evaluate = lambda t: states.append(algo.global_state["w"].copy())
        try:
            history = algo.run(len(script))
        except QuorumError:
            assert on_miss == "abort"
            history = algo.history
        before = _ref_state()["w"]
        n = cohort.num_clients
        for row, metrics, after in zip(algo.round_log, history.rounds, states):
            t = row["round"]
            survivors, arrived = set(row["survivors"]), cohort.delivered[t]
            assert survivors <= arrived <= set(row["sampled"]) == set(range(n))
            assert survivors == {k for k in arrived if not script[t][k].endswith("poisoned")}
            assert row["skipped"] == (len(survivors) < policy.required(n))
            assert not (row["skipped"] and on_miss == "abort")
            if row["skipped"] or not survivors:
                assert np.array_equal(after, before)  # bit-unchanged
            else:
                lo = min(1.0 + 0.01 * k + 0.1 * t for k in survivors)
                hi = max(1.0 + 0.01 * k + 0.1 * t for k in survivors)
                assert (after >= lo - 1e-12).all() and (after <= hi + 1e-12).all()
            expected = np.mean([100.0 * t + k for k in survivors]) if survivors else 0.0
            assert metrics.train_loss == pytest.approx(expected)
            before = after
        # an extension window only ever asks for clients that have not arrived
        for t, missing, already in cohort.requests:
            assert on_miss == "extend_deadline" and missing and not set(missing) & already
        assert len(cohort.requests) <= max_extensions * len(script)


class TestSimPathQuorum:
    def test_fault_injector_dropouts_count_against_quorum(self, micro_federation):
        """In process, an upload the fault injector drops is a missed
        deadline: short rounds are skipped and alerted exactly as on TCP."""
        clients, _ = micro_federation
        injector = FaultInjector(0.5, seed=18)  # drops [0,1], none, [2], [0]
        algo = FedClassAvg(
            clients, rho=0.1, seed=0, fault_injector=injector,
            quorum=QuorumPolicy(min_fraction=0.8),
        )
        tel = telemetry.configure()
        try:
            algo.run(4)
            misses = [a for a in tel.health.alerts if a["detector"] == "quorum_miss"]
            skipped_counter = telemetry.counter("net.rounds_skipped").value
        finally:
            tel.close()
            telemetry.disable()
        short = [t for t, dropped in enumerate(injector.dropped_log) if dropped]
        assert short and len(short) < 4, "seed must give both short and full rounds"
        assert [r["round"] for r in algo.round_log if r["skipped"]] == short
        assert [a["round"] for a in misses] == short
        assert skipped_counter == len(short)
        for row, dropped in zip(algo.round_log, injector.dropped_log):
            assert row["timed_out"] == dropped


def _run(policy, tmp_path, tag):
    tel = telemetry.configure(jsonl=str(tmp_path / f"{tag}.jsonl"))
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
            quorum=policy,
            rejoin_grace_s=0.0,
        )
        counters = {
            name: telemetry.counter(name).value
            for name in ("net.quorum_misses", "net.rounds_skipped")
        }
        alerts = list(tel.health.alerts)
    finally:
        tel.close()
        telemetry.disable()
    return result, codes, counters, alerts


class TestQuorumSkipRound:
    @pytest.fixture(scope="class")
    def skip_run(self, tmp_path_factory):
        policy = QuorumPolicy(min_fraction=1.0, on_miss="skip_round")
        reference, ref_codes = run_tcp_federation(
            asdict(spec()), rounds=1, workers=2, trainer={"rho": 0.1}, seed=0
        )
        assert ref_codes == [0, 0]
        tmp = tmp_path_factory.mktemp("quorum")
        return reference, _run(policy, tmp, "skip")

    def test_rounds_after_the_death_are_skipped(self, skip_run):
        _, (result, _, _, _) = skip_run
        assert [e["skipped"] for e in result.round_log] == [False, True, True]

    def test_skipped_rounds_freeze_the_global_classifier(self, skip_run):
        reference, (result, _, _, _) = skip_run
        # rounds 1 and 2 were skipped: the final global must be
        # bit-identical to a clean run that stopped after round 0
        assert set(result.global_state) == set(reference.global_state)
        for key in reference.global_state:
            assert np.array_equal(
                result.global_state[key], reference.global_state[key]
            ), f"{key} changed despite every later round being skipped"

    def test_misses_counted_and_alerted(self, skip_run):
        _, (_, _, counters, alerts) = skip_run
        assert counters["net.quorum_misses"] == 2
        assert counters["net.rounds_skipped"] == 2
        misses = [a for a in alerts if a["detector"] == "quorum_miss"]
        assert [a["round"] for a in misses] == [1, 2]
        assert all(a["severity"] == "warning" for a in misses)

    def test_lost_client_recorded(self, skip_run):
        _, (result, _, _, _) = skip_run
        # whatever the launcher's own placement gave the killed worker 1
        assert result.permanently_lost == place_clients(asdict(spec()), 2)[1]


class TestQuorumAbort:
    def test_abort_raises_and_reaps(self, tmp_path):
        policy = QuorumPolicy(min_fraction=1.0, on_miss="abort")
        with pytest.raises(QuorumError, match="quorum requires 3"):
            _run(policy, tmp_path, "abort")
        out = subprocess.run(
            ["pgrep", "-f", "repro.cli worker"], capture_output=True, text=True
        )
        live = [p for p in out.stdout.split() if p and int(p) != os.getpid()]
        assert live == [], f"orphaned worker processes: {live}"
