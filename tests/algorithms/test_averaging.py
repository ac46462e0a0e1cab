"""What FedAvg / FedProx / FedBN / FedPer / FedRep gain by running on the one engine.

At the parent each of the five carried its own round loop with no cohort,
fault injector, firewall, robust aggregator or per-client telemetry; every
test here fails there with a ``TypeError`` on the keyword argument.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.algorithms import FedAvg, FedBN, FedPer, FedProx, FedRep
from repro.comm import CostModel
from repro.federated import (
    AggregationError,
    Aggregator,
    FaultInjector,
    FederationSpec,
    build_federation,
    default_firewall,
    make_aggregator,
)
from repro.net.chaos import AdversaryPersona, AdversarySchedule

#: FedBN on a model that has BatchNorm, the rest on the cheapest one
FIVE = [(FedAvg, "cnn2layer"), (FedProx, "cnn2layer"), (FedBN, "resnet18"),
        (FedPer, "cnn2layer"), (FedRep, "cnn2layer")]
five = pytest.mark.parametrize("cls,arch", FIVE, ids=[c.name for c, _ in FIVE])


@pytest.fixture
def build(micro_spec):
    def _build(cls, arch, **engine):
        spec = FederationSpec(**{**micro_spec.__dict__, "homogeneous_arch": arch})
        return cls(build_federation(spec)[0], seed=0, **engine)

    return _build


class Recording(Aggregator):
    """Delegates to a named rule and keeps the uploads it was handed."""

    def __init__(self, spec):
        self.inner = make_aggregator(spec)
        self.seen: list = []

    def __call__(self, states, weights=None, reference=None):
        self.seen = states
        return self.inner(states, weights, reference=reference)


@five
def test_dropouts_are_survivors_mean_and_logged(build, cls, arch):
    faults = FaultInjector(0.5, seed=3)
    algo = build(cls, arch, fault_injector=faults)
    history = algo.run(3)
    assert faults.total_dropped > 0
    for t, row in enumerate(algo.round_log):
        assert row["timed_out"] == faults.dropped_log[t]
        assert row["survivors"] == [k for k in row["sampled"] if k not in row["timed_out"]]
        assert sorted(row["losses"]) == row["survivors"]
        assert history.rounds[t].train_loss == pytest.approx(np.mean(list(row["losses"].values())))


@five
def test_nan_bomb_is_rejected_by_the_firewall_and_fatal_without_one(build, cls, arch):
    def bomber():
        return AdversarySchedule({1: AdversaryPersona("nan_bomb")}, seed=0)

    algo = build(cls, arch, adversaries=bomber(), firewall=default_firewall())
    algo.run(1)
    assert [(r["client"], r["validator"]) for r in algo.rejections] == [(1, "finite")]
    assert algo.round_log[0]["survivors"] == [0, 2, 3]
    assert all(np.isfinite(v).all() for v in algo.global_state.values())
    with pytest.raises(AggregationError):
        build(cls, arch, adversaries=bomber()).run(1)


class JunkKey:
    """Smuggles one extra entry into client 1's upload."""

    def corrupt(self, client, round_idx, upload):
        return {**upload, "junk": np.zeros(1, dtype=np.float32)} if client == 1 else upload


@five
def test_schema_rejected_upload_never_reaches_a_client(build, cls, arch):
    algo = build(cls, arch, adversaries=JunkKey(), firewall=default_firewall())
    algo.run(2)  # a junk key in the aggregate would raise in every client's load_shared_state
    assert {(r["client"], r["validator"]) for r in algo.rejections} == {(1, "schema")}
    assert set(algo.global_state) == algo.clients[0].shared_keys(algo.share)


@five
def test_trimmed_mean_keeps_the_global_inside_the_honest_envelope(build, cls, arch):
    outside = {}
    for rule in ("trimmed_mean:0.25", "mean"):
        scaler = AdversarySchedule({0: AdversaryPersona("scale", factor=50.0)}, seed=0)
        algo = build(cls, arch, adversaries=scaler, aggregator=Recording(rule))
        algo.run(1)
        honest = algo.aggregator.seen[1:]  # uploads arrive in client-id order
        outside[rule] = sum(
            int(((g < np.min([s[k] for s in honest], axis=0))
                 | (g > np.max([s[k] for s in honest], axis=0))).sum())
            for k, g in algo.global_state.items()
        )
    assert outside["trimmed_mean:0.25"] == 0
    assert outside["mean"] > 0


@five
def test_round_record_has_phases_and_per_client_health(build, cls, arch):
    algo = build(cls, arch)
    tel = telemetry.configure()
    try:
        algo.run(1)
    finally:
        tel.close()
        telemetry.disable()
    assert {"broadcast_s", "compute_s", "aggregate_s"} <= set(tel.rounds[0]["phase"])
    for k in range(algo.num_clients):
        assert tel.health.clients[k].last("bytes_up") > 0
        assert tel.health.clients[k].last("update_norm") > 0


@five
def test_aggregate_scoring_needs_the_clients_in_process(cls, arch):
    remote = SimpleNamespace(num_clients=4, cost=CostModel())
    with pytest.raises(ValueError, match="remote cohort"):
        cls([], cohort=remote)
