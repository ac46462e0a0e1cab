"""Chaos soak: seeded fault injection must be deterministic AND lossless.

One clean reference run, then three chaos runs with the same
:class:`ChaosConfig` seed.  The acceptance bar from the issue:

* every chaos run's final global classifier is **bit-identical** to the
  clean run's (recovered faults change nothing — rejoined workers
  resend their cached updates instead of retraining);
* the three chaos runs agree **exactly** on lost/recovered/rejoin/CRC
  telemetry and on the workers' self-reported fault tallies (fault
  decisions are keyed on logical frame identity, never wall-clock).
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import telemetry
from repro.federated import FederationSpec
from repro.net.chaos import ChaosConfig
from repro.net.launcher import run_tcp_federation

ROUNDS = 3
NUM_CLIENTS = 3
CHAOS = ChaosConfig(
    seed=11,
    disconnect_p=0.15,
    bitflip_p=0.10,
    partition_p=0.05,
    partition_attempts=2,
    delay_p=0.10,
    delay_s=0.01,
)


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


def _run(tmp_path, tag, chaos_config=None):
    tel = telemetry.configure(jsonl=str(tmp_path / f"{tag}.jsonl"))
    try:
        result, codes = run_tcp_federation(
            asdict(spec()),
            rounds=ROUNDS,
            workers=2,
            trainer={"rho": 0.1},
            seed=0,
            round_timeout_s=60.0,
            liveness_timeout_s=15.0,
            heartbeat_s=0.3,
            chaos_config=chaos_config,
            verbose=True,
        )
        counters = {
            name: telemetry.counter(name).value
            for name in (
                "net.rejoins",
                "net.clients_lost",
                "net.clients_recovered",
                "net.crc_errors",
            )
        }
    finally:
        tel.close()
        telemetry.disable()
    return result, codes, counters


def _fingerprint(result, counters):
    """Everything that must agree exactly across same-seed chaos runs."""
    reports = sorted(
        (
            tuple(r.get("client_ids", [])),
            r.get("rejoins", 0),
            r.get("connect_retries", 0),
            tuple(sorted(r.get("chaos", {}).items())),
        )
        for r in result.worker_reports
    )
    # sorted: two workers fault independently, so how their incidents
    # interleave within a round is scheduling, not schedule (a client's own
    # events keep their order — its rounds only go up)
    return {
        "lost": sorted((e["round"], e["client"]) for e in result.lost_clients),
        "recovered": sorted((e["round"], e["client"]) for e in result.recovered_clients),
        "permanently_lost": result.permanently_lost,
        "counters": counters,
        "worker_reports": reports,
    }


@pytest.fixture(scope="module")
def soak(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("soak")
    clean = _run(tmp, "clean")
    chaotic = [_run(tmp, f"chaos{i}", chaos_config=CHAOS) for i in range(3)]
    return clean, chaotic


class TestChaosSoak:
    def test_clean_run_is_actually_clean(self, soak):
        (result, codes, counters), _ = soak
        assert codes == [0, 0]
        assert result.lost_clients == []
        assert counters["net.rejoins"] == 0

    def test_chaos_schedule_fires(self, soak):
        _, chaotic = soak
        _, _, counters = chaotic[0]
        assert counters["net.rejoins"] > 0, "chaos config too tame — nothing was injected"

    def test_all_faults_recovered(self, soak):
        _, chaotic = soak
        for result, codes, _ in chaotic:
            assert result.permanently_lost == []
            assert codes == [0, 0]  # in-process rejoin: the worker never dies

    def test_global_state_bit_identical_to_clean(self, soak):
        (clean_result, _, _), chaotic = soak
        for i, (result, _, _) in enumerate(chaotic):
            assert set(result.global_state) == set(clean_result.global_state)
            for key in clean_result.global_state:
                a, b = clean_result.global_state[key], result.global_state[key]
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b), f"chaos run {i}: {key} diverged from clean"

    def test_three_invocations_identical_telemetry(self, soak):
        _, chaotic = soak
        prints = [_fingerprint(result, counters) for result, _, counters in chaotic]
        assert prints[0] == prints[1] == prints[2]

    def test_worker_reports_carry_chaos_tallies(self, soak):
        _, chaotic = soak
        result, _, _ = chaotic[0]
        assert len(result.worker_reports) == 2
        total = sum(
            sum(r.get("chaos", {}).values()) for r in result.worker_reports
        )
        assert total > 0, "workers reported no injected faults"

    def test_history_matches_clean(self, soak):
        (clean_result, _, _), chaotic = soak
        for result, _, _ in chaotic:
            for clean_m, m in zip(clean_result.history.rounds, result.history.rounds):
                assert m.mean_acc == pytest.approx(clean_m.mean_acc)
                assert m.train_loss == pytest.approx(clean_m.train_loss)
