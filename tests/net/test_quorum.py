"""Quorum policies: participation math, and e2e skip/abort behavior.

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

from repro import telemetry
from repro.federated import FederationSpec, default_firewall
from repro.net.launcher import place_clients, run_tcp_federation
from repro.net.server import FedTcpServer, QuorumError, QuorumPolicy

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


def _quorum_server(policy):
    """A FedTcpServer for unit-testing ``_apply_quorum`` — the transport
    is constructed but never bound, so no socket is involved."""
    server = FedTcpServer(5, 1, {}, quorum=policy, firewall=default_firewall())
    server.global_state = _ref_state()
    return server


def _screened(server, t, updates):
    """Mimic ``_run_rounds``: screen arrivals, hand survivors to quorum."""
    from repro.federated import screen_updates

    arrived = set(updates)
    admitted_states, rejected = screen_updates(
        t, {k: s for k, (_m, s) in updates.items()}, server.firewall, server.global_state
    )
    admitted = {k: updates[k] for k in admitted_states}
    return admitted, arrived, rejected


class TestQuorumCountsAdmittedOnly:
    """Five uploads arrive, three are quarantined: participation is 2,
    not 5 — every ``on_miss`` mode must treat that as a quorum miss."""

    def _updates(self):
        meta = {"loss": 0.5}
        good = {k: (meta, _ref_state(1.0 + 0.01 * k)) for k in (0, 1)}
        bad = {k: (meta, _ref_state(np.nan)) for k in (2, 3, 4)}
        return {**good, **bad}

    def test_rejections_do_not_count_toward_quorum_skip(self):
        server = _quorum_server(QuorumPolicy(min_count=4, on_miss="skip_round"))
        admitted, arrived, rejected = _screened(server, 0, self._updates())
        assert sorted(admitted) == [0, 1]
        assert [r["client"] for r in rejected] == [2, 3, 4]
        result, skipped = server._apply_quorum(0, list(range(5)), admitted, arrived, rejected)
        assert skipped is True  # 2 admitted < 4 required despite 5 arrivals

    def test_quorum_met_by_admitted_updates_alone(self):
        server = _quorum_server(QuorumPolicy(min_count=2, on_miss="skip_round"))
        admitted, arrived, rejected = _screened(server, 0, self._updates())
        result, skipped = server._apply_quorum(0, list(range(5)), admitted, arrived, rejected)
        assert skipped is False
        assert sorted(result) == [0, 1]

    def test_abort_mode_raises_on_rejection_shortfall(self):
        server = _quorum_server(QuorumPolicy(min_count=4, on_miss="abort"))
        admitted, arrived, rejected = _screened(server, 0, self._updates())
        with pytest.raises(QuorumError, match="quorum requires 4"):
            server._apply_quorum(0, list(range(5)), admitted, arrived, rejected)

    def test_extend_mode_does_not_wait_when_everyone_arrived(self):
        # all five arrived; the shortfall is rejections, so extending the
        # deadline cannot help — _apply_quorum must not call the transport
        server = _quorum_server(
            QuorumPolicy(min_count=4, on_miss="extend_deadline", max_extensions=3)
        )

        def boom(*a, **k):  # pragma: no cover - failure path
            raise AssertionError("extension must not re-collect when nothing is missing")

        server.transport.collect_updates = boom
        admitted, arrived, rejected = _screened(server, 0, self._updates())
        result, skipped = server._apply_quorum(0, list(range(5)), admitted, arrived, rejected)
        assert skipped is True

    def test_extension_arrivals_are_rescreened(self):
        # client 3 never arrived; during the extension it sends a NaN bomb
        # which must be screened out, leaving the quorum still missed
        server = _quorum_server(
            QuorumPolicy(min_count=3, on_miss="extend_deadline", max_extensions=1)
        )
        updates = {k: ({"loss": 0.5}, _ref_state(1.0 + 0.01 * k)) for k in (0, 1)}
        calls = []

        def late_nan(t, missing, deadline):
            calls.append(sorted(missing))
            return {3: ({"loss": 9.0}, _ref_state(np.nan))}

        server.transport.collect_updates = late_nan
        admitted, arrived, rejected = _screened(server, 0, updates)
        result, skipped = server._apply_quorum(0, [0, 1, 3], admitted, arrived, rejected)
        assert calls == [[3]]  # only the truly-missing client was re-waited
        assert skipped is True  # late NaN was rejected, quorum still short
        assert sorted(result) == [0, 1]
        assert [r["client"] for r in rejected] == [3]


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
