"""TcpTransport against scripted in-process workers."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.comm import CostModel
from repro.net.protocol import Message, MsgType, recv_message, send_message
from repro.net.retry import Deadline
from repro.net.transport import Connection, TcpTransport


class FakeWorker:
    """A scripted worker: dials the transport and speaks raw protocol."""

    def __init__(self, host: str, port: int, client_ids: list[int]):
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.settimeout(5.0)
        self.sock = sock
        self.client_ids = client_ids

    def hello(self) -> dict:
        send_message(self.sock, Message(MsgType.HELLO, {"client_ids": self.client_ids}))
        msg, _ = recv_message(self.sock)
        assert msg.type is MsgType.CONFIG
        return msg.meta

    def send(self, msg: Message) -> int:
        return send_message(self.sock, msg)

    def recv(self) -> Message:
        return recv_message(self.sock)[0]

    def close(self):
        self.sock.close()


@pytest.fixture
def transport():
    tp = TcpTransport(2, config={"hello": "world"}, liveness_timeout_s=30.0)
    tp.listen()
    yield tp
    tp.close()


def joined_worker(tp: TcpTransport, ids: list[int]) -> FakeWorker:
    w = FakeWorker(tp.host, tp.port, ids)
    w.hello()
    return w


class TestTransportProtocol:
    def test_rank_convention_matches_simcomm(self):
        tp = TcpTransport(4)
        assert tp.server_rank == 0 and tp.rank_of(0) == 1 and tp.rank_of(3) == 4

    def test_rejects_zero_clients(self):
        with pytest.raises(ValueError):
            TcpTransport(0)


class TestRegistration:
    def test_hello_registers_and_returns_config(self, transport):
        w = FakeWorker(transport.host, transport.port, [0, 1])
        assert w.hello() == {"hello": "world"}
        transport.wait_for_workers(5.0)
        assert transport.client_is_live(0) and transport.client_is_live(1)
        w.close()

    def test_wait_times_out_when_nobody_joins(self, transport):
        with pytest.raises(TimeoutError, match="never joined"):
            transport.wait_for_workers(0.2)

    def test_duplicate_ownership_drops_second_worker(self, transport):
        w1 = joined_worker(transport, [0])
        w2 = FakeWorker(transport.host, transport.port, [0])
        w2.send(Message(MsgType.HELLO, {"client_ids": [0]}))
        msg = w2.recv()  # server rejects with ERROR, then drops the link
        assert msg.type is MsgType.ERROR
        assert transport.client_is_live(0)
        w1.close()
        w2.close()

    def test_out_of_range_client_id_rejected(self, transport):
        w = FakeWorker(transport.host, transport.port, [7])
        w.send(Message(MsgType.HELLO, {"client_ids": [7]}))
        assert w.recv().type is MsgType.ERROR
        w.close()


class TestRoundTraffic:
    def test_collect_updates_ordered_and_accounted(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        state = {"w": np.ones(4)}
        for k in (1, 0):  # arrive out of order
            w.send(
                Message(MsgType.CLIENT_UPDATE, {"client": k, "round": 0, "loss": 1.0}, state)
            )
        got = transport.collect_updates(0, [0, 1], Deadline(5.0))
        assert sorted(got) == [0, 1]
        # uplink bytes attributed per client rank
        assert transport.cost.per_link[(1, 0)] > 0
        assert transport.cost.per_link[(2, 0)] > 0
        w.close()

    def test_stale_round_updates_dropped(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": 99}, {}))
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": 3}, {}))
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 1, "round": 3}, {}))
        got = transport.collect_updates(3, [0, 1], Deadline(5.0))
        assert sorted(got) == [0, 1]
        assert all(meta["round"] == 3 for meta, _ in got.values())
        w.close()

    def test_deadline_expiry_returns_partial(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": 0}, {}))
        t0 = time.monotonic()
        got = transport.collect_updates(0, [0, 1], Deadline(0.3))
        assert sorted(got) == [0]
        assert time.monotonic() - t0 < 5.0
        w.close()

    def test_send_to_client_downlink_accounting(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        n = transport.send_to_client(1, MsgType.CLASSIFIER, {"round": 0}, {"w": np.ones(3)})
        msg = w.recv()
        assert msg.type is MsgType.CLASSIFIER and msg.meta["client"] == 1
        assert transport.cost.per_link[(0, 2)] == n
        w.close()

    def test_worker_death_ends_collection_early(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": 0}, {}))
        time.sleep(0.1)
        w.close()  # dies before client 1 reports
        got = transport.collect_updates(0, [0, 1], Deadline(10.0))
        assert sorted(got) == [0]  # returned early, not after 10 s

    def test_bye_is_clean_not_lost(self, transport):
        lost = []
        transport.on_worker_lost = lambda link, reason: lost.append(link)
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.send(Message(MsgType.BYE))
        for _ in range(100):
            if not transport.live_links():
                break
            time.sleep(0.05)
        assert not transport.live_links()
        assert lost == []
        w.close()

    def test_abrupt_death_fires_on_worker_lost(self, transport):
        lost = []
        transport.on_worker_lost = lambda link, reason: lost.append(sorted(link.client_ids))
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.close()
        for _ in range(100):
            if lost:
                break
            time.sleep(0.05)
        assert lost == [[0, 1]]


class TestCohortOps:
    """The calls the one round loop makes, against a scripted worker."""

    def test_run_round_broadcasts_then_returns_arrivals_and_phases(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        state = {"w": np.arange(3.0)}

        def echo():
            start = w.recv()
            assert start.type is MsgType.ROUND_START
            assert start.meta == {"round": 4, "sampled": [0, 1], "evaluated": True}
            for _ in range(2):
                msg = w.recv()
                assert msg.type is MsgType.CLASSIFIER and msg.meta["round"] == 4
                meta = {"client": msg.meta["client"], "round": 4, "duration_s": 0.25}
                w.send(Message(MsgType.CLIENT_UPDATE, meta, msg.state))
            w.send(Message(MsgType.EVAL, {"round": 4, "accs": {"0": 0.5, "1": 0.75}}))

        t = threading.Thread(target=echo, daemon=True)
        t.start()
        arrivals, phases = transport.run_round(4, [0, 1], state, evaluating=True)
        assert transport.round_info["round"] == 4  # what a rejoining worker is told
        assert sorted(arrivals) == [0, 1]
        assert all(np.array_equal(s["w"], state["w"]) for _m, s in arrivals.values())
        # one worker owns both clients: the second queued behind the first
        assert phases["compute_s"] == 0.25 and phases["queue_s"] == 0.25
        assert set(phases) == {"broadcast_s", "compute_s", "queue_s", "wait_s"}
        assert transport.evaluate(4) == {0: 0.5, 1: 0.75}
        t.join(5.0)
        w.close()

    def test_initial_states_needs_every_client(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        transport.join_timeout_s = 0.3
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": -1, "data_size": 7}, {}))
        with pytest.raises(TimeoutError, match=r"clients \[1\] never reported"):
            transport.initial_states()
        w.close()

    def test_collect_more_only_waits_for_the_named_clients(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        w.send(Message(MsgType.CLIENT_UPDATE, {"client": 1, "round": 2}, {}))
        t0 = time.monotonic()
        assert sorted(transport.collect_more(2, [1], timeout_s=5.0)) == [1]
        assert time.monotonic() - t0 < 4.0
        w.close()


class TestConnection:
    def test_byte_counters_match_frames(self, transport):
        w = joined_worker(transport, [0, 1])
        transport.wait_for_workers(5.0)
        link = transport.owner_of(0)
        rx0 = link.conn.bytes_rx
        n = w.send(Message(MsgType.CLIENT_UPDATE, {"client": 0, "round": 0}, {"w": np.ones(2)}))
        transport.collect_updates(0, [0], Deadline(5.0))
        assert link.conn.bytes_rx - rx0 == n
        assert isinstance(link.conn, Connection)
        w.close()

    def test_liveness_timeout_reaps_silent_worker(self):
        tp = TcpTransport(1, liveness_timeout_s=0.3)
        tp.listen()
        try:
            w = joined_worker(tp, [0])
            tp.wait_for_workers(5.0)
            # silent worker: no heartbeat, no updates — liveness must trip
            got = tp.collect_updates(0, [0], Deadline(10.0))
            assert got == {}
            assert not tp.client_is_live(0)
            w.close()
        finally:
            tp.close()

    def test_cost_model_injection(self):
        cost = CostModel()
        tp = TcpTransport(1, cost_model=cost)
        assert tp.cost is cost


class TestTeardown:
    def test_close_is_prompt_and_leaves_no_thread(self):
        """close() must wake the accept thread, not run out its join timeout."""
        tp = TcpTransport(2, liveness_timeout_s=30.0)
        tp.listen()
        w = joined_worker(tp, [0, 1])
        tp.wait_for_workers(5.0)

        def answer_bye():
            # the worker side of the BYE handshake: ack with a self-report
            if w.recv().type is MsgType.BYE:
                w.send(Message(MsgType.BYE, {"rejoins": 0}))

        acker = threading.Thread(target=answer_bye, daemon=True)
        acker.start()
        t0 = time.perf_counter()
        tp.close()
        elapsed = time.perf_counter() - t0
        acker.join(timeout=2.0)
        w.close()
        assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
        assert tp.worker_reports == [{"rejoins": 0}]  # the self-report still lands
        assert [t.name for t in tp._threads if t.is_alive()] == []

    def test_abort_is_prompt_too(self):
        tp = TcpTransport(1)
        tp.listen()
        t0 = time.perf_counter()
        tp.abort()
        assert time.perf_counter() - t0 < 1.0
        assert not any(t.is_alive() for t in tp._threads)
