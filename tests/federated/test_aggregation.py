"""Server-side aggregation operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated import (
    AggregationError,
    drop_nonfinite_states,
    ensure_finite_states,
    interpolate_state,
    weighted_average_state,
)


def _state(value, shape=(2, 2)):
    return {"w": np.full(shape, float(value)), "b": np.full(3, float(value))}


class TestWeightedAverage:
    def test_uniform_default(self):
        out = weighted_average_state([_state(0), _state(2)])
        assert np.allclose(out["w"], 1.0)

    def test_weights_normalized(self):
        out = weighted_average_state([_state(0), _state(4)], weights=[1, 3])
        assert np.allclose(out["w"], 3.0)

    def test_weights_scale_invariant(self):
        a = weighted_average_state([_state(1), _state(5)], weights=[2, 6])
        b = weighted_average_state([_state(1), _state(5)], weights=[1, 3])
        assert np.allclose(a["w"], b["w"])

    def test_single_state_identity(self):
        s = _state(3.3)
        out = weighted_average_state([s])
        assert np.allclose(out["w"], s["w"])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_average_state([])

    def test_misaligned_keys_raise(self):
        with pytest.raises(ValueError):
            weighted_average_state([{"a": np.zeros(1)}, {"b": np.zeros(1)}])

    def test_weight_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_average_state([_state(0), _state(1)], weights=[1.0])

    def test_zero_weights_raise(self):
        with pytest.raises(ValueError):
            weighted_average_state([_state(0), _state(1)], weights=[0, 0])

    def test_integer_buffers_stay_integer(self):
        states = [
            {"n": np.array(2, dtype=np.int64)},
            {"n": np.array(4, dtype=np.int64)},
        ]
        out = weighted_average_state(states)
        assert out["n"].dtype == np.int64
        assert out["n"] == 3

    def test_output_independent_of_inputs(self):
        s1, s2 = _state(1), _state(2)
        out = weighted_average_state([s1, s2])
        out["w"][...] = 99
        assert np.allclose(s1["w"], 1)


class TestNonFiniteRejection:
    """A NaN/Inf upload must raise a typed error naming the offending key
    even with the admission firewall disabled — silently averaging a
    corrupted update would poison every client's personalization."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_raises_typed_error(self, bad):
        poisoned = _state(1.0)
        poisoned["b"][1] = bad
        with pytest.raises(AggregationError, match="'b'"):
            weighted_average_state([_state(0.0), poisoned])

    def test_error_is_a_value_error(self):
        # callers that catch ValueError keep working
        assert issubclass(AggregationError, ValueError)

    def test_ensure_finite_accepts_clean_states(self):
        ensure_finite_states([_state(1.0), _state(2.0)])

    def test_ensure_finite_names_the_state_index(self):
        with pytest.raises(AggregationError, match="state 1"):
            ensure_finite_states([_state(0.0), _state(np.nan)])

    def test_integer_buffers_are_not_scanned(self):
        states = [
            {"n": np.array([2**62], dtype=np.int64)},
            {"n": np.array([4], dtype=np.int64)},
        ]
        weighted_average_state(states)  # must not raise


class TestDropNonfinite:
    """The t=0 init path excludes corrupted initial classifiers instead
    of raising (an init state carries no training signal)."""

    def test_drops_state_and_paired_weight(self):
        states = [_state(0.0), _state(np.nan), _state(2.0)]
        kept, weights = drop_nonfinite_states(states, [10, 20, 30])
        assert kept == [states[0], states[2]]
        assert weights == [10, 30]

    def test_all_clean_is_identity(self):
        states = [_state(0.0), _state(1.0)]
        kept, weights = drop_nonfinite_states(states, [1, 2])
        assert kept == states and weights == [1, 2]

    def test_all_poisoned_returns_empty(self):
        assert drop_nonfinite_states([_state(np.nan)], [1]) == ([], [])

    def test_sync_and_async_setup_share_the_init_average(self, micro_federation):
        """A NaN-initialised client is left out of the t=0 average by both
        algorithms — AsyncFedClassAvg used to raise AggregationError here."""
        from repro.algorithms import AsyncFedClassAvg
        from repro.core import FedClassAvg

        clients, _ = micro_federation
        for _name, p in clients[1].model.classifier_parameters():
            p.data[...] = np.nan
        sync, asyn = FedClassAvg(clients, seed=0), AsyncFedClassAvg(clients, seed=0)
        sync.setup()
        asyn.setup()
        assert all(np.isfinite(v).all() for v in sync.global_state.values())
        for key, value in sync.global_state.items():
            assert np.array_equal(asyn.global_state[key], value)


class TestInterpolate:
    def test_endpoints(self):
        a, b = _state(0), _state(10)
        assert np.allclose(interpolate_state(a, b, 0.0)["w"], 0)
        assert np.allclose(interpolate_state(a, b, 1.0)["w"], 10)

    def test_midpoint(self):
        out = interpolate_state(_state(0), _state(4), 0.5)
        assert np.allclose(out["w"], 2)

    def test_key_mismatch_raises(self):
        with pytest.raises(ValueError):
            interpolate_state({"a": np.zeros(1)}, {"b": np.zeros(1)}, 0.5)


@settings(max_examples=20, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=-5, max_value=5, width=64), min_size=2, max_size=5),
)
def test_property_average_within_convex_hull(vals):
    states = [_state(v) for v in vals]
    out = weighted_average_state(states)
    assert out["w"].min() >= min(vals) - 1e-9
    assert out["w"].max() <= max(vals) + 1e-9


@settings(max_examples=20, deadline=None)
@given(v=st.floats(min_value=-5, max_value=5, width=64), n=st.integers(2, 6))
def test_property_average_of_identical_is_identity(v, n):
    out = weighted_average_state([_state(v) for _ in range(n)])
    assert np.allclose(out["w"], v)
