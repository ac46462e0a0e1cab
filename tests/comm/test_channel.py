"""Simulated communicator: point-to-point, collectives, isolation."""

import numpy as np
import pytest

from repro.comm import CostModel, SimComm, payload_nbytes, to_wire


class TestPointToPoint:
    def test_send_recv(self):
        comm = SimComm(3)
        comm.send({"x": np.ones(2)}, src=1, dst=0)
        msg = comm.recv(0, src=1)
        assert np.array_equal(msg["x"], np.ones(2))

    def test_recv_filters_by_src(self):
        comm = SimComm(3)
        comm.send("from1", 1, 0)
        comm.send("from2", 2, 0)
        assert comm.recv(0, src=2) == "from2"
        assert comm.recv(0, src=1) == "from1"

    def test_recv_filters_by_tag(self):
        comm = SimComm(2)
        comm.send("a", 1, 0, tag=7)
        comm.send("b", 1, 0, tag=8)
        assert comm.recv(0, tag=8) == "b"

    def test_recv_empty_raises(self):
        with pytest.raises(LookupError):
            SimComm(2).recv(0)

    def test_rank_bounds(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.send("x", 0, 5)
        with pytest.raises(ValueError):
            comm.recv(9)

    def test_pending(self):
        comm = SimComm(2)
        assert comm.pending(0) == 0
        comm.send("x", 1, 0)
        assert comm.pending(0) == 1

    def test_payload_isolation(self):
        """Mutating the sent object after send must not affect the receiver."""
        comm = SimComm(2)
        payload = {"w": np.zeros(3)}
        comm.send(payload, 1, 0)
        payload["w"][...] = 99
        received = comm.recv(0)
        assert np.allclose(received["w"], 0)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestCollectives:
    def test_bcast_default_all(self):
        comm = SimComm(4)
        out = comm.bcast("hello", root=0)
        assert out == ["hello"] * 3

    def test_bcast_subset(self):
        comm = SimComm(5)
        out = comm.bcast("m", root=0, ranks=[2, 4])
        assert out == ["m", "m"]
        assert comm.pending(1) == 0

    def test_gather_ordered_by_rank(self):
        comm = SimComm(4)
        out = comm.gather({3: "c", 1: "a", 2: "b"}, root=0)
        assert out == ["a", "b", "c"]

    def test_scatter(self):
        comm = SimComm(3)
        out = comm.scatter(["x", "y"], root=0, ranks=[1, 2])
        assert out == ["x", "y"]

    def test_scatter_count_mismatch(self):
        with pytest.raises(ValueError):
            SimComm(3).scatter(["x"], root=0, ranks=[1, 2])


class TestAccounting:
    def test_bytes_recorded(self):
        cost = CostModel()
        comm = SimComm(2, cost)
        payload = {"w": np.zeros(10, dtype=np.float32)}
        comm.send(payload, 1, 0)
        assert cost.total_bytes == payload_nbytes(payload)
        assert cost.total_messages == 1

    def test_per_link(self):
        cost = CostModel()
        comm = SimComm(3, cost)
        comm.send("x", 1, 0)
        comm.send("y", 2, 0)
        comm.send("z", 0, 1)
        assert cost.uplink_bytes() == cost.per_link[(1, 0)] + cost.per_link[(2, 0)]
        assert cost.downlink_bytes() == cost.per_link[(0, 1)]


class TestWireFormat:
    def test_to_wire_casts_float64(self):
        out = to_wire({"a": np.zeros(3, dtype=np.float64), "b": np.zeros(3, dtype=np.int64)})
        assert out["a"].dtype == np.float32
        assert out["b"].dtype == np.int64  # non-float untouched

    def test_payload_nbytes_uses_fp32(self):
        small = payload_nbytes({"a": np.zeros(1000, dtype=np.float32)})
        big = payload_nbytes({"a": np.zeros(1000, dtype=np.float64)})
        assert small == big  # f64 measured at f32 wire size

    def test_payload_nbytes_pickle_fallback(self):
        assert payload_nbytes([1, 2, 3]) > 0
        assert payload_nbytes("text") > 0

    def test_empty_dict_measured_as_wire_format(self):
        """{} is a degenerate state dict: wire header, not a pickle."""
        from repro.utils import state_dict_to_bytes

        assert payload_nbytes({}) == len(state_dict_to_bytes({}))

    def test_non_state_dict_mapping_still_pickled(self):
        import pickle

        # int keys / non-array values are not state dicts
        obj = {1: [2, 3]}
        assert payload_nbytes(obj) == len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
