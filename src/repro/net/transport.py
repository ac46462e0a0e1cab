"""Framed connections + the server-side TCP transport.

Two layers live here:

* :class:`Connection` — one framed, thread-safe, byte-counted socket
  (used by both the server's per-worker links and the worker's single
  link back to the server).  Every frame is measured as it crosses the
  wire and fed to telemetry (``net.bytes_tx`` / ``net.bytes_rx``).
* :class:`TcpTransport` — the server side: accept loop, per-connection
  reader threads, worker registry keyed by owned client ids,
  heartbeat-based liveness, and deadline-bounded collection of client
  updates **ordered by client id** so aggregation stays deterministic.
  It is the socket-backed :class:`repro.federated.cohort.Cohort`: the
  one round loop hands it the global classifier and gets arrivals back.
  Rank 0 is the server and client ``k`` is rank ``k + 1`` on the cost
  ledger, the convention :class:`repro.comm.SimComm` established.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

from repro import telemetry
from repro.comm.cost import CostModel
from repro.net.encoding import CodecStats, WireCodec, stream_key
from repro.net.protocol import (
    FLAG_TRACED,
    MAX_FRAME_BYTES,
    ChecksumMismatch,
    ConnectionClosed,
    Message,
    MsgType,
    ProtocolError,
    Truncated,
    encode_frame_parts,
    recv_message,
    sendall_parts,
)
from repro.net.retry import Deadline

__all__ = ["Connection", "WorkerLink", "TcpTransport", "SimulatedCrash"]


class SimulatedCrash(RuntimeError):
    """Raised by the server's crash hooks (crash-resume tests)."""


class Connection:
    """One framed protocol connection over a TCP socket.

    Sends are serialized by a lock (the worker's heartbeat thread and
    main loop share the socket); receives are owned by a single reader.
    Frame byte counts accumulate locally and on the global telemetry
    counters, and every operation runs inside a ``net.send`` /
    ``net.recv`` span so cross-process timelines line up in
    ``repro trace``.

    Each connection owns one :class:`~repro.net.encoding.WireCodec`
    whose per-stream delta bases mirror the peer's — created fresh per
    connection, so a reconnect resets both ends to snapshot mode in
    lockstep.  State frames go out zero-copy (``sendmsg`` over the
    tensors' own buffers or a single codec container); inbound frames
    decode by their flag bits regardless of the local send mode.
    ``last_tx`` (monotonic) lets the heartbeat thread skip beats when
    round traffic is already proving liveness.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame: int = MAX_FRAME_BYTES,
        codec: WireCodec | None = None,
    ):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.max_frame = max_frame
        self.codec = codec if codec is not None else WireCodec("full")
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.last_tx = time.monotonic()
        self._send_lock = threading.Lock()
        self._closed = False

    def set_wire_mode(self, mode: str) -> None:
        """Switch what this side *sends* (decode is always flag-driven)."""
        self.codec.set_mode(mode)

    def _encode_frame(self, msg: Message) -> list:
        """Encode ``msg`` into scatter/gather parts via the wire codec.

        Must run under ``_send_lock``: delta encoding advances the
        per-stream base, so frames must hit the wire in encode order.
        """
        if msg.state is not None:
            state_parts, flags = self.codec.encode_state(
                stream_key(msg.type, msg.meta), msg.state
            )
        else:
            state_parts, flags = [], 0
        if "_trace" in msg.meta:
            # loud negotiation: a pre-tracing peer rejects this bit
            flags |= FLAG_TRACED
        return encode_frame_parts(msg.type, msg.meta, state_parts, flags, self.max_frame)

    def send(self, msg: Message) -> int:
        """Send one frame; returns its byte count."""
        with self._send_lock:
            with telemetry.span("net.send", type=msg.type.name):
                t0 = time.perf_counter()
                parts = self._encode_frame(msg)
                t1 = time.perf_counter()
                n = sendall_parts(self.sock, parts)
                t2 = time.perf_counter()
            self.last_tx = time.monotonic()
        self.bytes_tx += n
        telemetry.counter("net.bytes_tx").inc(n)
        telemetry.latency(f"net.encode_s.{msg.type.name}").observe(t1 - t0)
        telemetry.latency(f"net.send_s.{msg.type.name}").observe(t2 - t1)
        return n

    def recv(self, timeout: float | None = None) -> tuple[Message, int]:
        """Receive one frame (blocking up to ``timeout``); returns (msg, bytes).

        ``socket.timeout`` propagates — the caller owns retry policy.
        """
        self.sock.settimeout(timeout)
        with telemetry.span("net.recv"):
            msg, n = recv_message(self.sock, self.max_frame, self.codec.decode_state)
        self.bytes_rx += n
        telemetry.counter("net.bytes_rx").inc(n)
        return msg, n

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class WorkerLink:
    """Server-side registry entry for one connected worker process."""

    def __init__(self, conn: Connection, addr):
        self.conn = conn
        self.addr = addr
        self.client_ids: list[int] = []
        self.alive = True
        self.said_bye = False
        self.last_seen = time.monotonic()
        #: when the link died (monotonic) — drives the rejoin grace window
        self.died_at: float | None = None
        self.reader_done = threading.Event()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"WorkerLink({self.addr}, clients={self.client_ids}, {state})"


class TcpTransport:
    """Server side of the TCP runtime: registry, liveness, ordered gather.

    Implements :class:`repro.federated.cohort.Cohort` over sockets
    (:meth:`initial_states`, :meth:`run_round`, :meth:`collect_more`,
    :meth:`evaluate`, :meth:`client_is_live`) on top of the
    deadline/liveness-aware :meth:`collect_updates`; it moves bytes and
    reports arrivals, and knows nothing of sampling, screening, quorum or
    aggregation.

    ``config`` is the run configuration sent to each worker in the
    CONFIG reply to its HELLO — the worker builds its data partition and
    models from it, so multi-host deployment needs nothing but the
    server address.  ``on_worker_lost(link)`` fires (from the reader
    thread that noticed) exactly once per worker death.

    **Rejoin.**  A worker that lost its connection re-admits itself with
    a REJOIN frame; the transport re-registers its client ids (dead
    owners are superseded — and a still-"alive" owner is first marked
    dead so the lost → recovered event pairing stays consistent no
    matter which thread notices the old socket's death first), replies
    with CONFIG carrying a ``rejoin`` meta section (:attr:`round_info`,
    the round in flight) plus the global classifier ``rejoin_state()``
    returns, and fires ``on_worker_rejoined(link, meta)``.  With
    ``rejoin_grace_s > 0``, :meth:`collect_updates` /
    :meth:`evaluate` keep waiting for a client whose worker died
    less than that many seconds ago instead of writing the round off —
    the window a supervisor respawn or a chaos-layer reconnect needs.
    """

    server_rank = 0

    def __init__(
        self,
        num_clients: int,
        config: dict | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cost_model: CostModel | None = None,
        max_frame: int = MAX_FRAME_BYTES,
        liveness_timeout_s: float = 15.0,
        on_worker_lost=None,
        on_worker_rejoined=None,
        rejoin_state=None,
        rejoin_grace_s: float = 0.0,
        wire: str = "full",
        join_timeout_s: float = 60.0,
        round_timeout_s: float = 60.0,
        trace_id: str | None = None,
    ):
        if num_clients < 1:
            raise ValueError("transport needs at least one client")
        self.num_clients = num_clients
        self.cost = cost_model or CostModel()
        self.wire = wire
        #: encode/decode tallies aggregated across every worker connection
        self.codec_stats = CodecStats()
        self.config = dict(config or {})
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.liveness_timeout_s = liveness_timeout_s
        self.on_worker_lost = on_worker_lost
        self.on_worker_rejoined = on_worker_rejoined
        #: () -> global_state | None, sent with REJOIN replies
        self.rejoin_state = rejoin_state
        self.rejoin_grace_s = rejoin_grace_s
        self.join_timeout_s = join_timeout_s
        self.round_timeout_s = round_timeout_s
        #: correlation id piggybacked (with the current round span's id)
        #: as ``_trace`` meta on outbound frames when telemetry is live
        self.trace_id = trace_id
        #: what a REJOINing worker is told: -1 is the init phase, -2 a
        #: restored server between rounds, else the round in flight
        self.round_info: dict = {"round": -1}
        #: crash hook (tests): abort every socket + raise SimulatedCrash
        #: between this round's broadcast and its collection
        self.crash_in_round: int | None = None
        self._listener: socket.socket | None = None
        self._lock = threading.Lock()
        self._death_lock = threading.Lock()
        self._registered = threading.Condition(self._lock)
        self._links: list[WorkerLink] = []
        self._owner: dict[int, WorkerLink] = {}  # client id → live link
        self._updates: queue.Queue = queue.Queue()  # (client_id, meta, state)
        self._evals: queue.Queue = queue.Queue()  # (link, meta)
        #: BYE metas — each departing worker's self-report (rejoins, chaos)
        self.worker_reports: list[dict] = []
        self._threads: list[threading.Thread] = []
        self._closing = False

    # -- rank helpers ---------------------------------------------------
    def rank_of(self, client_id: int) -> int:
        return client_id + 1

    # -- lifecycle ------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind + listen; returns the bound (host, port). Accepts in a thread."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.num_clients + 8)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        t = threading.Thread(target=self._accept_loop, name="net-accept", daemon=True)
        t.start()
        self._threads.append(t)
        return self.host, self.port

    def wait_for_workers(self, timeout_s: float = 60.0) -> None:
        """Block until every client id has a registered live owner."""
        deadline = Deadline(timeout_s)
        with self._registered:
            while len(self._owner) < self.num_clients:
                if not self._registered.wait(timeout=min(0.25, deadline.remaining() + 1e-3)):
                    if deadline.expired:
                        missing = sorted(set(range(self.num_clients)) - set(self._owner))
                        raise TimeoutError(
                            f"workers for clients {missing} never joined "
                            f"within {timeout_s:.1f}s"
                        )

    def close(self) -> None:
        """Send BYE to live workers, close every socket, stop all threads.

        Workers acknowledge with their own BYE carrying a self-report
        (rejoin/chaos tallies), so we leave the readers running for a
        short beat to let those final frames land before tearing down.
        """
        # only registered links get a BYE: a connection accepted during
        # teardown (the accept thread can return one last socket even
        # after the listener fd is closed) has no reader serving it, and
        # a BYE there would read as a handshake reply to its un-answered
        # HELLO/REJOIN
        had_live = False
        for link in list(self._links):
            if link.alive and link.client_ids:
                had_live = True
                try:
                    link.conn.send(Message(MsgType.BYE))
                except OSError:
                    pass
        if had_live:
            deadline = Deadline(2.0)
            while not deadline.expired and any(
                l.alive and l.client_ids and not l.said_bye for l in self.live_links()
            ):
                time.sleep(0.01)
        self._stop_listening()
        for link in list(self._links):
            link.conn.close()
        for t in self._threads:
            t.join(timeout=5.0)

    def _stop_listening(self) -> None:
        """Set the closing flag and wake the accept thread.

        ``close()`` alone does not interrupt a thread already blocked in
        ``accept()``; shutting the listening socket down does (the accept
        fails with ``OSError``), so the thread exits now instead of
        running out the join timeout.
        """
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # never listened, or already shut down
            self._listener.close()

    def abort(self) -> None:
        """Simulate a server crash: drop every socket with no goodbye.

        Unlike :meth:`close` no BYE is sent — workers see the same
        abrupt EOF a SIGKILLed server would produce, which is exactly
        what the crash-resume tests need to exercise the worker's
        reconnect-and-REJOIN path against a resumed server.
        """
        self._stop_listening()
        for link in list(self._links):
            link.alive = False  # no events, no BYE-ack wait on a later close()
            link.conn.close()
        for t in self._threads:
            t.join(timeout=2.0)

    # -- registry -------------------------------------------------------
    def live_links(self) -> list[WorkerLink]:
        with self._lock:
            return [l for l in self._links if l.alive]

    def owner_of(self, client_id: int) -> WorkerLink | None:
        with self._lock:
            return self._owner.get(client_id)

    def client_is_live(self, client_id: int) -> bool:
        link = self.owner_of(client_id)
        return link is not None and link.alive

    def _client_collectible(self, client_id: int) -> bool:
        """Live, or dead so recently a rejoin may still deliver its data."""
        link = self.owner_of(client_id)
        if link is None:
            return False
        if link.alive:
            return True
        if self.rejoin_grace_s <= 0.0 or link.died_at is None:
            return False
        return time.monotonic() - link.died_at < self.rejoin_grace_s

    def _rejoin_pending(self) -> bool:
        """True while any client's dead owner is inside the grace window."""
        if self.rejoin_grace_s <= 0.0:
            return False
        now = time.monotonic()
        with self._lock:
            links = set(map(id, self._owner.values()))
            return any(
                not l.alive
                and l.died_at is not None
                and now - l.died_at < self.rejoin_grace_s
                for l in self._links
                if id(l) in links
            )

    # -- sending --------------------------------------------------------
    def send_to_client(
        self, client_id: int, msg_type: MsgType, meta: dict | None = None, state=None
    ) -> int:
        """Send one message addressed to ``client_id``'s owning worker.

        The transfer is recorded on the cost ledger as
        (server rank → client rank) with the frame's actual socket size.
        """
        link = self.owner_of(client_id)
        if link is None or not link.alive:
            raise ConnectionError(f"client {client_id} has no live worker")
        meta = dict(meta or {})
        meta.setdefault("client", client_id)
        try:
            n = link.conn.send(Message(msg_type, meta, state))
        except OSError as exc:
            self._mark_dead(link, f"send failed: {exc}")
            raise ConnectionError(f"worker for client {client_id} is gone") from exc
        self.cost.record(self.server_rank, self.rank_of(client_id), n)
        return n

    def broadcast_control(self, msg_type: MsgType, meta: dict | None = None) -> None:
        """Send a control message to every live worker (one frame each).

        Control frames are accounted against the worker's lowest-id
        client rank — they are per-worker, not per-client, traffic.
        """
        for link in self.live_links():
            try:
                n = link.conn.send(Message(msg_type, dict(meta or {})))
            except OSError as exc:
                self._mark_dead(link, f"send failed: {exc}")
                continue
            if link.client_ids:
                self.cost.record(self.server_rank, self.rank_of(min(link.client_ids)), n)

    # -- the cohort interface (what the one round loop calls) -----------
    def initial_states(self) -> dict[int, tuple[dict, dict]]:
        """t=0: every client's initial classifier and ``|D_k|``.

        Workers report each owned client's initial classifier as a round
        ``-1`` CLIENT_UPDATE right after CONFIG; aggregating them in
        client-id order reproduces the in-process init bit-for-bit.
        """
        everyone = list(range(self.num_clients))
        got = self.collect_updates(-1, everyone, Deadline(self.join_timeout_s))
        missing = sorted(set(everyone) - set(got))
        if missing:
            raise TimeoutError(f"clients {missing} never reported their initial classifier")
        return got

    def _trace_meta(self) -> dict | None:
        """``_trace`` section for outbound frames (None when not tracing).

        Carries the run's trace id plus the *current* span's id — inside
        the round loop that is the open ``round`` span, which is exactly
        what a worker's ``local_update`` spans should parent to.
        """
        tel = telemetry.get_telemetry()
        if not tel.enabled or tel.tracer is None:
            return None
        sid = tel.tracer.current_span_id()
        if sid is None:
            return None
        return {"id": self.trace_id, "span": sid}

    def run_round(
        self, t: int, sampled: list[int], state: dict, evaluating: bool
    ) -> tuple[dict[int, tuple[dict, dict]], dict[str, float]]:
        """Broadcast ``state`` to ``sampled``, then gather this round's updates.

        Returns ``(updates, phases)`` where ``phases`` is this side of the
        round's critical path: ``broadcast_s`` (send-loop wall),
        ``compute_s`` (slowest single client), ``queue_s`` (what the
        busiest worker — it trains the clients it owns one after another
        — spent on its other clients), ``wait_s`` (collection wall beyond
        that worker: wire latency + slack).
        """
        trace = self._trace_meta()
        # publish before broadcasting: a worker that rejoins mid-round
        # must see this round in its CONFIG reply, not the previous one
        self.round_info = {"round": t, "sampled": sampled, "evaluated": evaluating}
        bcast0 = time.perf_counter()
        start_meta = dict(self.round_info)
        if trace is not None:
            start_meta["_trace"] = trace
        self.broadcast_control(MsgType.ROUND_START, start_meta)
        for k in sampled:
            cls_meta: dict = {"round": t}
            if trace is not None:
                cls_meta["_trace"] = trace
            try:
                self.send_to_client(k, MsgType.CLASSIFIER, cls_meta, state)
            except ConnectionError:
                continue  # worker died; loss already recorded via on_worker_lost
        phases = {"broadcast_s": time.perf_counter() - bcast0}
        if self.crash_in_round is not None and t == self.crash_in_round:
            self.abort()
            raise SimulatedCrash(f"simulated server crash mid-round {t}")
        collect0 = time.perf_counter()
        updates = self.collect_updates(t, sampled, Deadline(self.round_timeout_s))
        collect_s = time.perf_counter() - collect0
        monitor = telemetry.get_telemetry().health
        slowest = 0.0
        busy: dict[int, float] = {}  # owning link -> summed durations
        for k, (meta, _state) in sorted(updates.items()):
            dur = float(meta.get("duration_s") or 0.0)
            slowest = max(slowest, dur)
            owner = id(self.owner_of(k))
            busy[owner] = busy.get(owner, 0.0) + dur
            # the server's only view of the client's training: the worker's
            # own monitor (if any) lives in another process
            if monitor is not None:
                monitor.observe_client(
                    k,
                    loss=meta.get("loss"),
                    duration_s=meta.get("duration_s"),
                )
        busiest = max(busy.values(), default=0.0)
        phases["compute_s"] = slowest
        phases["queue_s"] = busiest - slowest
        phases["wait_s"] = max(0.0, collect_s - busiest)
        return updates, phases

    def collect_more(
        self, t: int, missing: list[int], timeout_s: float | None
    ) -> dict[int, tuple[dict, dict]]:
        """One more window (default: the round timeout) for ``missing``'s updates."""
        return self.collect_updates(t, missing, Deadline(timeout_s or self.round_timeout_s))

    # -- collection (the real round loop's receive path) ----------------
    def collect_updates(
        self, round_idx: int | None, expected: list[int], deadline: Deadline
    ) -> dict[int, tuple[dict, dict]]:
        """Collect CLIENT_UPDATEs for ``expected`` clients until done/dead/late.

        Returns ``{client_id: (meta, state)}`` containing every update
        that arrived from ``expected`` for ``round_idx`` (``None``
        matches any round) before (a) all live expected clients
        reported, or (b) the deadline expired, or (c) every missing
        client's worker died.  Updates for other rounds are discarded as
        stale (``net.stale_drops``); a deadline expiry bumps
        ``net.timeouts``.  Iteration never blocks past the deadline, so
        a dead-and-silent worker costs at most ``deadline.seconds``.
        """
        got: dict[int, tuple[dict, dict]] = {}
        expected_set = set(expected)
        arrivals: list[float] = []  # reader-thread receipt times (monotonic)

        def take(client_id: int, meta: dict, state: dict, arrived: float) -> None:
            if (
                (round_idx is not None and meta.get("round") != round_idx)
                or client_id not in expected_set
                or client_id in got
            ):
                telemetry.counter("net.stale_drops").inc()
            else:
                got[client_id] = (meta, state)
                arrivals.append(arrived)

        with telemetry.span(
            "net.round_barrier", round=round_idx, expected=len(expected_set)
        ) as barrier_sp:
            while True:
                # drain everything already queued before judging liveness —
                # an update uploaded moments before its worker died counts
                while True:
                    try:
                        take(*self._updates.get_nowait())
                    except queue.Empty:
                        break
                self._reap_stale_links()
                missing_live = [
                    k
                    for k in expected_set
                    if k not in got and self._client_collectible(k)
                ]
                if not missing_live:
                    break
                if deadline.expired:
                    telemetry.counter("net.timeouts").inc()
                    break
                try:
                    take(
                        *self._updates.get(
                            timeout=min(0.05, max(deadline.remaining(), 1e-3))
                        )
                    )
                except queue.Empty:
                    continue
            if len(arrivals) >= 2:
                # first-to-last accepted arrival: how long the fastest
                # client sat waiting on the round's straggler
                straggle = max(arrivals) - min(arrivals)
                barrier_sp.set(straggler_wait_s=straggle)
                telemetry.latency("net.straggler_wait_s").observe(straggle)
        return got

    def evaluate(self, round_idx: int) -> dict[int, float]:
        """Collect per-client accuracies from every live worker's EVAL.

        Workers evaluate on their own once an evaluated round's training
        is done; this waits up to the round timeout for their reports.  An
        expiry while workers still owe reports counts on ``net.timeouts``
        — the eval path's misses are as real as the update path's.
        """
        deadline = Deadline(self.round_timeout_s)
        accs: dict[int, float] = {}
        reported: set[int] = set()
        while True:
            self._reap_stale_links()
            waiting = [
                l for l in self.live_links() if l.client_ids and id(l) not in reported
            ]
            if not waiting and not self._rejoin_pending():
                break
            if deadline.expired:
                telemetry.counter("net.timeouts").inc()
                break
            try:
                link, meta = self._evals.get(
                    timeout=min(0.05, max(deadline.remaining(), 1e-3))
                )
            except queue.Empty:
                continue
            if meta.get("round") != round_idx:
                telemetry.counter("net.stale_drops").inc()
                continue
            reported.add(id(link))
            for k, acc in meta.get("accs", {}).items():
                accs[int(k)] = float(acc)
        return accs

    # -- internals ------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = Connection(
                sock, self.max_frame, WireCodec(self.wire, self.codec_stats)
            )
            link = WorkerLink(conn, addr)
            t = threading.Thread(
                target=self._reader_loop, args=(link,), name=f"net-reader-{addr}", daemon=True
            )
            with self._lock:
                self._links.append(link)
                self._threads.append(t)
            t.start()

    def _register(self, link: WorkerLink, client_ids: list[int], rejoin: bool = False) -> None:
        ids = sorted(int(k) for k in client_ids)
        if not ids:
            raise ProtocolError("HELLO carried no client ids")
        for k in ids:
            if not 0 <= k < self.num_clients:
                raise ProtocolError(f"client id {k} out of range [0, {self.num_clients})")
        superseded: list[WorkerLink] = []
        with self._registered:
            for k in ids:
                current = self._owner.get(k)
                if current is not None and current is not link:
                    if current.alive and not rejoin:
                        raise ProtocolError(f"client {k} already owned by a live worker")
                    superseded.append(current)
            link.client_ids = ids
            for k in ids:
                self._owner[k] = link
            self._registered.notify_all()
        # A REJOIN can race the old socket's EOF.  The worker closed that
        # socket before redialling, so let its reader drain what is queued
        # (count the corrupt frame, record the loss); _mark_dead then forces
        # a silent link and waits out a loss still in flight on the other
        # thread, so lost always precedes the caller's recovered event.
        for old in {id(l): l for l in superseded}.values():
            old.reader_done.wait(timeout=2.0)
            self._mark_dead(old, "superseded by a rejoined worker")

    def _mark_dead(self, link: WorkerLink, reason: str) -> None:
        # one step under its own lock: whoever finds the link dead also
        # finds its loss recorded (on_worker_lost never calls back in here)
        with self._death_lock:
            with self._lock:
                if not link.alive:
                    return
                link.alive = False
                link.died_at = time.monotonic()
            link.conn.close()
            if not link.said_bye and not self._closing:
                # BYE and shutdown are orderly departures, not losses — only
                # genuine deaths count, or the counter drifts with every run
                telemetry.counter("net.workers_lost").inc()
                if self.on_worker_lost is not None:
                    self.on_worker_lost(link, reason)

    def _reap_stale_links(self) -> None:
        """Declare workers dead when their heartbeat has gone silent."""
        now = time.monotonic()
        for link in self.live_links():
            if link.client_ids and now - link.last_seen > self.liveness_timeout_s:
                self._mark_dead(
                    link, f"no frames for {now - link.last_seen:.1f}s (liveness timeout)"
                )

    def _reader_loop(self, link: WorkerLink) -> None:
        try:
            while link.alive and not self._closing:
                try:
                    msg, n = link.conn.recv(timeout=1.0)
                except TimeoutError:
                    continue  # socket.timeout — just re-check liveness/closing
                link.last_seen = time.monotonic()
                if msg.type == MsgType.HELLO:
                    self._register(link, msg.meta.get("client_ids", []))
                    link.conn.send(Message(MsgType.CONFIG, self.config))
                elif msg.type == MsgType.REJOIN:
                    self._register(link, msg.meta.get("client_ids", []), rejoin=True)
                    telemetry.counter("net.rejoins").inc()
                    # fire recovered BEFORE replying: the worker resumes
                    # sending (and possibly faulting again) the moment the
                    # reply lands, and the next death must strictly follow
                    # this recovery or lost/recovered pairing goes
                    # timing-dependent
                    if self.on_worker_rejoined is not None:
                        self.on_worker_rejoined(link, msg.meta)
                    reply = {**self.config, "rejoin": dict(self.round_info)}
                    state = self.rejoin_state() if self.rejoin_state is not None else None
                    link.conn.send(Message(MsgType.CONFIG, reply, state))
                elif msg.type == MsgType.CLIENT_UPDATE:
                    # per-client traffic: attribute to the reporting client's rank
                    client_id = int(msg.meta["client"])
                    self.cost.record(self.rank_of(client_id), self.server_rank, n)
                    self._updates.put(
                        (client_id, msg.meta, msg.state or {}, time.perf_counter())
                    )
                elif msg.type == MsgType.EVAL:
                    # per-worker traffic: attribute to the lowest owned rank
                    if link.client_ids:
                        self.cost.record(self.rank_of(min(link.client_ids)), self.server_rank, n)
                    self._evals.put((link, msg.meta))
                elif msg.type == MsgType.HEARTBEAT:
                    if link.client_ids:
                        self.cost.record(self.rank_of(min(link.client_ids)), self.server_rank, n)
                    if "t0" in msg.meta:
                        # NTP-style echo: reflect the worker's t0 with our
                        # receive (t1) / reply (t2) wall stamps so the worker
                        # can estimate clock offset + RTT (see net/worker.py)
                        t1 = time.time()
                        try:
                            en = link.conn.send(
                                Message(
                                    MsgType.HEARTBEAT,
                                    {"t0": msg.meta["t0"], "t1": t1, "t2": time.time()},
                                )
                            )
                        except OSError:
                            continue  # peer gone: drain what it queued, recv reports EOF
                        if link.client_ids:
                            self.cost.record(
                                self.server_rank, self.rank_of(min(link.client_ids)), en
                            )
                elif msg.type == MsgType.BYE:
                    link.said_bye = True
                    if msg.meta:  # final worker self-report (rejoins, chaos tallies)
                        with self._lock:
                            self.worker_reports.append(dict(msg.meta))
                    self._mark_dead(link, "worker said BYE")
                    return
                else:
                    raise ProtocolError(f"unexpected {msg.type.name} from worker")
        except (ConnectionClosed, Truncated, ProtocolError, OSError) as exc:
            if isinstance(exc, ChecksumMismatch):
                telemetry.counter("net.crc_errors").inc()
            if not self._closing:
                try:
                    link.conn.send(
                        Message(MsgType.ERROR, {"message": f"dropping connection: {exc}"})
                    )
                except OSError:
                    pass
            self._mark_dead(link, str(exc))
        finally:
            link.reader_done.set()
