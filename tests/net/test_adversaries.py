"""Adversary personas: seeded corruption keyed on logical identity."""

import numpy as np
import pytest

from repro.net.chaos import AdversaryPersona, AdversarySchedule


def _state(value=1.0):
    return {
        "w": np.full((2, 3), value, dtype=np.float32),
        "b": np.full(3, value, dtype=np.float32),
        "n": np.array([5], dtype=np.int64),
    }


class TestPersona:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AdversaryPersona("ddos")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AdversaryPersona("stale_replay", lag=0)
        with pytest.raises(ValueError):
            AdversaryPersona("gaussian_noise", sigma=0.0)

    def test_from_spec_string_and_dict(self):
        assert AdversaryPersona.from_spec("sign_flip").kind == "sign_flip"
        p = AdversaryPersona.from_spec({"persona": "scale", "factor": 50.0})
        assert (p.kind, p.factor) == ("scale", 50.0)

    def test_dict_round_trip(self):
        for p in (
            AdversaryPersona("nan_bomb"),
            AdversaryPersona("scale", factor=7.0),
            AdversaryPersona("gaussian_noise", sigma=0.3),
            AdversaryPersona("stale_replay", lag=2),
        ):
            assert AdversaryPersona.from_spec(p.to_dict()) == p


class TestScheduleCorruption:
    def test_honest_clients_untouched(self):
        sched = AdversarySchedule({1: AdversaryPersona("sign_flip")}, seed=0)
        s = _state()
        assert sched.corrupt(0, 3, s) is s

    def test_init_round_never_corrupted(self):
        sched = AdversarySchedule({1: AdversaryPersona("nan_bomb")}, seed=0)
        s = _state()
        assert sched.corrupt(1, -1, s) is s

    def test_nan_bomb(self):
        sched = AdversarySchedule({0: AdversaryPersona("nan_bomb")}, seed=0)
        out = sched.corrupt(0, 0, _state())
        assert np.isnan(out["w"]).all()

    def test_sign_flip(self):
        sched = AdversarySchedule({0: AdversaryPersona("sign_flip")}, seed=0)
        out = sched.corrupt(0, 0, _state(2.0))
        assert np.allclose(out["w"], -2.0)

    def test_scale_preserves_dtype(self):
        sched = AdversarySchedule({0: AdversaryPersona("scale", factor=10.0)}, seed=0)
        out = sched.corrupt(0, 0, _state(2.0))
        assert np.allclose(out["w"], 20.0)
        assert out["w"].dtype == np.float32

    def test_integer_buffers_never_corrupted(self):
        for kind in ("nan_bomb", "sign_flip", "scale", "gaussian_noise"):
            sched = AdversarySchedule({0: AdversaryPersona(kind)}, seed=0)
            out = sched.corrupt(0, 0, _state())
            assert out["n"].dtype == np.int64 and out["n"][0] == 5

    def test_gaussian_noise_deterministic_per_identity(self):
        a = AdversarySchedule({0: AdversaryPersona("gaussian_noise")}, seed=3)
        b = AdversarySchedule({0: AdversaryPersona("gaussian_noise")}, seed=3)
        out_a = a.corrupt(0, 2, _state())
        out_b = b.corrupt(0, 2, _state())
        assert np.array_equal(out_a["w"], out_b["w"])
        # different round -> different noise
        out_c = b.corrupt(0, 3, _state())
        assert not np.array_equal(out_a["w"], out_c["w"])

    def test_gaussian_noise_seed_sensitivity(self):
        a = AdversarySchedule({0: AdversaryPersona("gaussian_noise")}, seed=1)
        b = AdversarySchedule({0: AdversaryPersona("gaussian_noise")}, seed=2)
        assert not np.array_equal(
            a.corrupt(0, 0, _state())["w"], b.corrupt(0, 0, _state())["w"]
        )

    def test_stale_replay_is_honest_until_history_fills(self):
        sched = AdversarySchedule({0: AdversaryPersona("stale_replay", lag=1)}, seed=0)
        r0 = sched.corrupt(0, 0, _state(0.0))
        assert np.allclose(r0["w"], 0.0)  # nothing older to replay yet
        r1 = sched.corrupt(0, 1, _state(1.0))
        assert np.allclose(r1["w"], 0.0)  # replays round 0
        r2 = sched.corrupt(0, 2, _state(2.0))
        assert np.allclose(r2["w"], 1.0)  # replays round 1

    def test_corruption_tallied(self):
        sched = AdversarySchedule({0: AdversaryPersona("sign_flip")}, seed=0)
        sched.corrupt(0, 0, _state())
        sched.corrupt(0, 1, _state())
        sched.corrupt(1, 0, _state())  # honest — not tallied
        report = sched.report()
        assert report["counts"] == {"sign_flip": 2}
        assert report["by_client"] == {"0": 2}


class TestScheduleConfig:
    def test_json_round_trip(self):
        sched = AdversarySchedule(
            {
                0: AdversaryPersona("sign_flip"),
                2: AdversaryPersona("scale", factor=100.0),
                3: AdversaryPersona("stale_replay", lag=2),
            },
            seed=7,
        )
        back = AdversarySchedule.from_json(sched.to_json())
        assert back.seed == 7
        assert back.personas == sched.personas

    def test_from_config_accepts_string_specs(self):
        sched = AdversarySchedule.from_config(
            {"seed": 1, "clients": {"1": "nan_bomb", "2": {"persona": "sign_flip"}}}
        )
        assert sched.personas[1].kind == "nan_bomb"
        assert sched.personas[2].kind == "sign_flip"

    def test_enabled(self):
        assert not AdversarySchedule({}, seed=0).enabled
        assert AdversarySchedule({0: AdversaryPersona("sign_flip")}, seed=0).enabled
