"""Extension baselines: FedBN, FedPer, FedRep."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedBN, FedPer, FedRep
from repro.federated import FederationSpec, build_federation
from repro.federated.client import norm_keys


def _homo(micro_spec, arch="resnet18"):
    spec = FederationSpec(**{**micro_spec.__dict__, "homogeneous_arch": arch})
    clients, _ = build_federation(spec)
    return clients


class TestFedBN:
    def test_bn_keys_identified(self, micro_spec):
        clients = _homo(micro_spec)
        bn_keys = norm_keys(clients[0].model)
        assert any("running_mean" in k for k in bn_keys)
        assert any(k.endswith(".weight") for k in bn_keys)
        # conv weights are NOT BN keys
        assert not any("conv" in k and k in bn_keys for k, _ in clients[0].model.named_parameters())
        # and they are exactly what FedBN's clients keep to themselves
        assert clients[0].shared_keys(FedBN.share) == set(clients[0].model.state_dict()) - bn_keys

    def test_bn_stays_local(self, micro_spec):
        clients = _homo(micro_spec)
        algo = FedBN(clients, seed=0)
        algo.run(2)
        # running means diverge across clients (local), conv weights agree
        sd0 = clients[0].model.state_dict()
        sd1 = clients[1].model.state_dict()
        bn_key = next(k for k in sd0 if k.endswith("running_mean"))
        conv_key = next(k for k in sd0 if "conv1.weight" in k)
        assert not np.allclose(sd0[bn_key], sd1[bn_key])
        assert np.allclose(sd0[conv_key], sd1[conv_key])

    def test_comm_smaller_than_fedavg(self, micro_spec):
        clients = _homo(micro_spec)
        a = FedBN(clients, seed=0)
        a.run(1)
        clients = _homo(micro_spec)
        b = FedAvg(clients, seed=0)
        b.run(1)
        assert a.comm.cost.total_bytes < b.comm.cost.total_bytes

    def test_global_state_has_no_bn(self, micro_spec):
        clients = _homo(micro_spec)
        algo = FedBN(clients, seed=0)
        algo.setup()
        assert not any("running" in k for k in algo.global_state)


class TestFedPer:
    def test_requires_homogeneous_extractors(self, micro_federation):
        clients, _ = micro_federation  # heterogeneous
        with pytest.raises(ValueError):
            FedPer(clients)

    def test_classifiers_stay_personal(self, micro_spec):
        clients = _homo(micro_spec, "cnn2layer")
        FedPer(clients, seed=0).run(2)
        w0 = clients[0].model.classifier.weight.data
        w1 = clients[1].model.classifier.weight.data
        assert not np.allclose(w0, w1)

    def test_bodies_synced(self, micro_spec):
        clients = _homo(micro_spec, "cnn2layer")
        FedPer(clients, seed=0).run(2)
        s0 = clients[0].model.feature_extractor.state_dict()
        s1 = clients[1].model.feature_extractor.state_dict()
        for k in s0:
            assert np.allclose(s0[k], s1[k])

    def test_classifier_never_on_wire(self, micro_spec):
        from repro.comm import payload_nbytes

        clients = _homo(micro_spec, "cnn2layer")
        algo = FedPer(clients, seed=0)
        algo.run(1)
        body = payload_nbytes(clients[0].shared_state("body"))
        assert not any(k.startswith("classifier.") for k in clients[0].shared_state("body"))
        assert algo.comm.cost.total_bytes == 8 * body


class TestFedRep:
    def test_two_phase_epochs(self, micro_spec):
        clients = _homo(micro_spec, "cnn2layer")
        algo = FedRep(clients, head_epochs=2, body_epochs=1, seed=0)
        assert algo.local_epochs == 3

    def test_head_phase_freezes_body(self, micro_spec):
        clients = _homo(micro_spec, "cnn2layer")
        algo = FedRep(clients, head_epochs=1, body_epochs=0, seed=0)
        algo.setup()
        body_before = {
            n: p.data.copy()
            for n, p in clients[0].model.feature_extractor.named_parameters()
        }
        head_before = clients[0].model.classifier.weight.data.copy()
        algo._epoch(clients[0], algo._head_opts[0])
        for n, p in clients[0].model.feature_extractor.named_parameters():
            assert np.array_equal(p.data, body_before[n])
        assert not np.array_equal(clients[0].model.classifier.weight.data, head_before)

    def test_runs_and_learns_structure(self, micro_spec):
        clients = _homo(micro_spec, "cnn2layer")
        h = FedRep(clients, seed=0).run(2)
        assert len(h.rounds) == 2
        assert np.isfinite(h.rounds[-1].train_loss)
