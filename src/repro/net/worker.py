"""Worker process: owns its clients' models + data, runs real local updates.

A worker dials the server (with jittered-backoff retries — it may start
before the server's ``listen``), introduces itself with HELLO, and
receives the full run configuration in CONFIG.  From that it rebuilds
*only its own* clients via :func:`repro.federated.setup.build_federation`
— every per-client random stream is keyed by ``(seed, client_id)``, so
the clients it constructs are bit-identical to the ones an in-process
run would hold — then reports each client's initial classifier and
``|D_k|`` and enters the round loop:

ROUND_START tells it which clients were sampled this round; each
CLASSIFIER frame carries the global classifier for one owned client, and
the worker loads it, runs the production
:func:`repro.federated.trainer.local_update`, and replies with a
CLIENT_UPDATE.  On evaluation rounds it evaluates **all** owned clients
(after training, matching ``evaluate_all``'s timing in the simulated
loop) and reports accuracies in one EVAL frame.  A daemon heartbeat
thread keeps frames flowing while the main thread grinds through local
epochs, so the server can tell slow from dead.

**Fault tolerance.**  All run state that must survive a broken socket —
built clients, the current round's metadata, every update/eval already
produced for it — lives in a :class:`_Session` object outside the
connection.  On a connection error the worker reconnects and re-admits
itself with REJOIN instead of HELLO; the server's CONFIG reply carries a
``rejoin`` section (current round, sampled set, eval flag) plus the
current global classifier, which doubles as re-delivery of any
ROUND_START/CLASSIFIER frames lost with the old socket.  Cached results
are *resent*, never recomputed (recomputing would advance RNG streams a
no-fault run never advanced — the resend cache is what makes a fully
recovered chaos run bit-identical to a clean one); the server
deduplicates.  A worker respawned from scratch (``rejoin=True`` on a
fresh process, the supervisor's path) takes the same handshake and
bootstraps its clients from the global classifier — best-effort resume:
its feature extractors restart from init, which FedClassAvg's
heterogeneous aggregation absorbs by design.

``die_at_round`` / ``stall_at_round`` are deliberate failure hooks used
by the fault-path tests and chaos runs: SIGKILL yourself mid-round, or
go silent past the server's round deadline while staying alive.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import numpy as np

from repro import telemetry
from repro.federated.setup import FederationSpec, build_federation
from repro.federated.trainer import LocalUpdateConfig, client_round
from repro.net.chaos import AdversarySchedule, ChaosConfig, ChaosConnection, ChaosEngine
from repro.net.protocol import ConnectionClosed, Message, MsgType
from repro.net.retry import Heartbeat, RetryPolicy, call_with_retries
from repro.net.transport import Connection

__all__ = ["WorkerOptions", "connect_to_server", "run_worker"]


class WorkerOptions:
    """Knobs for one worker process (failure hooks included)."""

    def __init__(
        self,
        connect_policy: RetryPolicy | None = None,
        idle_timeout_s: float = 120.0,
        die_at_round: int | None = None,
        stall_at_round: int | None = None,
        stall_s: float = 0.0,
        rejoin: bool = False,
        reconnect: bool = True,
        max_rejoins: int = 25,
        chaos: ChaosConfig | None = None,
        rng_seed: int | None = None,
        verbose: bool = False,
    ):
        #: how long/hard to retry the initial TCP connect
        self.connect_policy = connect_policy or RetryPolicy(
            attempts=20, base_delay_s=0.05, max_delay_s=1.0, timeout_s=5.0
        )
        #: max quiet time on the socket before the worker gives up
        self.idle_timeout_s = idle_timeout_s
        #: SIGKILL yourself upon receiving this round's first CLASSIFIER
        self.die_at_round = die_at_round
        #: sleep ``stall_s`` before replying to this round (stay alive)
        self.stall_at_round = stall_at_round
        self.stall_s = stall_s
        #: first handshake is REJOIN, not HELLO (respawned process)
        self.rejoin = rejoin
        #: reconnect + REJOIN on connection loss instead of exiting
        self.reconnect = reconnect
        #: reconnect budget for one worker lifetime
        self.max_rejoins = max_rejoins
        #: deterministic fault schedule for this worker's link (or None)
        self.chaos = chaos
        #: seeds connect-retry backoff jitter for reproducible runs
        self.rng_seed = rng_seed
        self.verbose = verbose


class _FatalWorkerError(RuntimeError):
    """Unrecoverable condition — do not reconnect, exit non-zero."""


class _Session:
    """Worker run state that outlives any single connection."""

    def __init__(self):
        self.cfg: dict | None = None
        self.by_id: dict = {}
        self.trainer_cfg: LocalUpdateConfig | None = None
        self.local_epochs = 1
        self.share = "classifier"
        self.current_round = -2  # last round entered (ROUND_START or rejoin)
        self.round_meta: dict = {}
        self.pending: set[int] = set()
        #: this round's produced updates: client → (meta, payload); resent
        #: verbatim after a rejoin so RNG streams never advance twice
        self.round_updates: dict[int, tuple[dict, dict]] = {}
        self.round_accs: dict | None = None
        self.eval_sent = False
        self.rejoins = 0
        self.connect_retries = 0
        #: AdversarySchedule from CONFIG (None = every client honest);
        #: survives reconnects so stale_replay history is not lost
        self.adversaries: AdversarySchedule | None = None

    def begin_round(self, meta: dict) -> None:
        self.current_round = int(meta.get("round", -1))
        self.round_meta = dict(meta)
        self.pending = set(meta.get("sampled", [])) & set(self.by_id)
        self.round_updates = {}
        self.round_accs = None
        self.eval_sent = False


def connect_to_server(
    host: str,
    port: int,
    policy: RetryPolicy,
    rng: np.random.Generator | None = None,
    chaos: ChaosEngine | None = None,
    on_retry=None,
) -> Connection:
    """Dial the server under the retry policy; returns a framed connection.

    ``rng`` seeds the backoff jitter (reproducible retries in tests);
    ``chaos`` gates each attempt through the fault schedule and wraps
    the socket in a :class:`ChaosConnection`.
    """

    def _dial() -> Connection:
        if chaos is not None:
            chaos.check_connect()
        sock = socket.create_connection((host, port), timeout=policy.timeout_s)
        if chaos is not None:
            return ChaosConnection(sock, chaos)
        return Connection(sock)

    return call_with_retries(
        _dial,
        policy,
        retry_on=(OSError,),
        rng=rng,
        on_retry=on_retry,
        describe=f"connect to {host}:{port}",
    )


def _spec_from_wire(spec_dict: dict) -> FederationSpec:
    """Rebuild a FederationSpec from its JSON round-trip.

    JSON stringifies dict keys, so per-client ``model_overrides`` keyed
    by int client id come back keyed by ``"3"`` — restore them.
    """
    spec_dict = dict(spec_dict)
    overrides = spec_dict.get("model_overrides") or {}
    spec_dict["model_overrides"] = {
        (int(k) if isinstance(k, str) and k.lstrip("-").isdigit() else k): v
        for k, v in overrides.items()
    }
    return FederationSpec(**spec_dict)


def run_worker(
    host: str,
    port: int,
    client_ids: list[int],
    options: WorkerOptions | None = None,
) -> int:
    """Run one worker to completion; returns a process exit code.

    0 — clean BYE from the server; 1 — protocol/connection failure with
    the reconnect budget spent (or reconnection disabled).
    """
    opts = options or WorkerOptions()
    client_ids = sorted(int(k) for k in client_ids)
    log = (lambda *a: print(f"[worker {client_ids}]", *a)) if opts.verbose else (lambda *a: None)

    rng = (
        np.random.default_rng(
            np.random.SeedSequence(entropy=opts.rng_seed, spawn_key=(0x3E77, min(client_ids)))
        )
        if opts.rng_seed is not None
        else None
    )
    engine = (
        ChaosEngine(opts.chaos, scope=min(client_ids))
        if opts.chaos is not None and opts.chaos.enabled
        else None
    )
    sess = _Session()
    rejoining = opts.rejoin

    while True:
        def _count_retry(attempt, exc, delay):
            sess.connect_retries += 1
            log(f"connect attempt {attempt + 1} failed ({exc}); retrying in {delay:.2f}s")

        try:
            conn = connect_to_server(
                host, port, opts.connect_policy, rng=rng, chaos=engine, on_retry=_count_retry
            )
        except ConnectionError as exc:
            log(f"cannot reach server: {exc}")
            return 1
        try:
            return _run_session(conn, sess, opts, client_ids, rejoining, engine, log)
        except _FatalWorkerError as exc:
            log(f"terminating: {exc}")
            return 1
        except (ConnectionClosed, ConnectionError, OSError) as exc:
            can_rejoin = opts.reconnect and (sess.cfg is not None or rejoining)
            if not can_rejoin:
                log(f"terminating: {exc}")
                return 1
            if sess.rejoins >= opts.max_rejoins:
                log(f"connection lost ({exc}) and rejoin budget spent — giving up")
                return 1
            sess.rejoins += 1
            rejoining = True
            log(f"connection lost ({exc}); rejoining ({sess.rejoins}/{opts.max_rejoins})")
        finally:
            conn.close()


def _run_session(
    conn: Connection,
    sess: _Session,
    opts: WorkerOptions,
    client_ids: list[int],
    rejoining: bool,
    engine: ChaosEngine | None,
    log,
) -> int:
    """One connection's worth of protocol; returns the exit code on BYE.

    Connection errors propagate to the caller, which owns the
    reconnect/REJOIN decision.
    """
    heartbeat: Heartbeat | None = None
    try:
        if rejoining:
            conn.send(
                Message(
                    MsgType.REJOIN,
                    {"client_ids": client_ids, "round": sess.current_round},
                )
            )
        else:
            conn.send(Message(MsgType.HELLO, {"client_ids": client_ids}))
        config, _ = conn.recv(timeout=opts.connect_policy.timeout_s)
        if config.type == MsgType.ERROR:
            raise _FatalWorkerError(f"server rejected us: {config.meta.get('message')}")
        if config.type == MsgType.BYE:
            # a dying/restarting server can answer our HELLO/REJOIN with
            # its shutdown BYE — that is a connection loss, not a verdict
            # on this worker, so retry through the normal rejoin path
            raise ConnectionClosed("server said BYE during handshake")
        if config.type != MsgType.CONFIG:
            raise _FatalWorkerError(f"expected CONFIG, got {config.type.name}")
        cfg = config.meta
        if cfg.get("algorithm") != "fedclassavg":
            raise _FatalWorkerError(f"unsupported algorithm {cfg.get('algorithm')!r}")
        # adopt the run's wire encoding for everything we send from here
        # on (decode is always flag-driven, so order never matters)
        try:
            conn.set_wire_mode(cfg.get("wire", "full"))
        except ValueError as exc:
            raise _FatalWorkerError(f"server requested unusable wire mode: {exc}") from exc

        fresh_build = not sess.by_id
        if fresh_build:
            spec = _spec_from_wire(cfg["spec"])
            sess.trainer_cfg = LocalUpdateConfig(**cfg.get("trainer", {}))
            sess.local_epochs = int(cfg.get("local_epochs", 1))
            sess.share = "all" if cfg.get("share_all_weights") else "classifier"
            clients, _info = build_federation(spec, client_ids=client_ids)
            sess.by_id = {c.client_id: c for c in clients}
            log(f"built {len(sess.by_id)} client(s) from spec seed={spec.seed}")
        sess.cfg = cfg
        if sess.adversaries is None and cfg.get("adversaries"):
            sess.adversaries = AdversarySchedule.from_config(cfg["adversaries"])

        rejoin_info = cfg.get("rejoin") if rejoining else None
        rejoin_round = int(rejoin_info.get("round", -1)) if rejoin_info is not None else None

        if not rejoining or rejoin_round == -1:
            # server is (still) in its init-collection phase: (re)send the
            # initial classifier reports — duplicates are deduped server-side
            for k in client_ids:
                conn.send(
                    Message(
                        MsgType.CLIENT_UPDATE,
                        {"client": k, "round": -1, "data_size": sess.by_id[k].data_size},
                        sess.by_id[k].shared_state(sess.share),
                    )
                )

        heartbeat = Heartbeat(
            # each beat carries t0 so the server's echo (t0,t1,t2) lets us
            # estimate clock offset + RTT NTP-style (see _note_heartbeat_echo)
            lambda: conn.send(Message(MsgType.HEARTBEAT, {"t0": time.time()})),
            interval_s=float(cfg.get("heartbeat_s", 0.5)),
            # piggyback liveness on round traffic: beat only when the
            # connection has been genuinely silent for a full interval
            activity=lambda: conn.last_tx,
        )
        heartbeat.start()

        if rejoin_info is not None and rejoin_round is not None and rejoin_round >= 0:
            if fresh_build and config.state is not None:
                # respawned from scratch mid-run: bootstrap every owned
                # client from the current global classifier (best-effort
                # resume — local feature extractors restart from init)
                for c in sess.by_id.values():
                    c.load_shared_state(config.state, sess.share)
                log(f"bootstrapped {len(sess.by_id)} client(s) from round-{rejoin_round} global")
            _enter_round(conn, sess, opts, rejoin_info, config.state, log)

        while True:
            try:
                msg, _ = conn.recv(timeout=opts.idle_timeout_s)
            except TimeoutError:
                raise ConnectionError(
                    f"server silent for {opts.idle_timeout_s:.0f}s — giving up"
                ) from None
            if msg.type == MsgType.BYE:
                log("server said BYE")
                report: dict = {
                    "client_ids": client_ids,
                    "rejoins": sess.rejoins,
                    "connect_retries": sess.connect_retries,
                }
                if engine is not None:
                    report["chaos"] = dict(engine.counts)
                if sess.adversaries is not None and sess.adversaries.enabled:
                    report["adversary"] = sess.adversaries.report()
                try:
                    conn.send(Message(MsgType.BYE, report))
                except OSError:
                    pass
                return 0
            if msg.type == MsgType.ERROR:
                raise ConnectionError(f"server error: {msg.meta.get('message')}")
            if msg.type == MsgType.HEARTBEAT:
                # server echo of one of our beats: a clock/RTT sample.
                # The main thread may have been grinding through training
                # when this landed, so individual samples can be wildly
                # inflated — trace-merge filters by minimum RTT.
                _note_heartbeat_echo(msg.meta, heartbeat)
                continue
            if msg.type == MsgType.ROUND_START:
                sess.begin_round(msg.meta)
                log(f"round {sess.current_round}: {sorted(sess.pending)} sampled here")
                _maybe_eval(conn, sess)
                continue
            if msg.type == MsgType.CLASSIFIER:
                t = int(msg.meta["round"])
                k = int(msg.meta["client"])
                if opts.die_at_round is not None and t == opts.die_at_round:
                    log(f"chaos hook: SIGKILLing self at round {t}")
                    os.kill(os.getpid(), signal.SIGKILL)
                assert msg.state is not None, "CLASSIFIER frame without a state dict"
                if t != sess.current_round or k not in sess.pending:
                    # re-delivery of work the rejoin path already did —
                    # resend the cached result, never retrain (a second
                    # local_update would advance RNG streams a no-fault
                    # run never advanced)
                    if t == sess.current_round and k in sess.round_updates:
                        meta, payload = sess.round_updates[k]
                        conn.send(Message(MsgType.CLIENT_UPDATE, meta, payload))
                    continue
                _train_and_send(
                    conn, sess, opts, k, t, msg.state, log, trace=msg.meta.get("_trace")
                )
                _maybe_eval(conn, sess)
                continue
            raise ConnectionError(f"unexpected {msg.type.name} from server")
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _note_heartbeat_echo(meta: dict, heartbeat: Heartbeat | None) -> None:
    """Fold one HEARTBEAT echo into the clock-offset/RTT telemetry.

    NTP's four-timestamp estimate: ``t0`` our send, ``t1``/``t2`` the
    server's receive/reply stamps, ``t3`` our receipt.  Offset is
    ``((t1-t0) + (t2-t3)) / 2`` (positive = server clock ahead), RTT is
    the total round trip minus the server's turnaround.  Each sample is
    exported as a ``clock`` record for ``trace-merge``.
    """
    try:
        t0, t1, t2 = float(meta["t0"]), float(meta["t1"]), float(meta["t2"])
    except (KeyError, TypeError, ValueError):
        return
    t3 = time.time()
    rtt = max(0.0, (t3 - t0) - (t2 - t1))
    offset = ((t1 - t0) + (t2 - t3)) / 2.0
    if heartbeat is not None:
        heartbeat.note_echo(rtt, offset)
    telemetry.latency("net.heartbeat_rtt").observe(rtt)
    telemetry.record_event(
        "clock", offset_s=offset, rtt_s=rtt, wall=t3, mono=time.perf_counter()
    )


def _train_and_send(
    conn: Connection,
    sess: _Session,
    opts: WorkerOptions,
    k: int,
    t: int,
    state: dict,
    log,
    trace: dict | None = None,
) -> None:
    """Train client ``k`` on the round-``t`` classifier; cache + send.

    ``trace`` is the CLASSIFIER frame's ``_trace`` meta (trace id +
    server round-span id); installing it as inheritable span context
    makes the trainer's ``local_update`` span carry ``trace_parent``, so
    ``trace-merge`` can hang this worker's spans under the server's
    round span.
    """
    ctx_attrs = (
        {"round": t, "trace_id": trace.get("id"), "trace_parent": trace.get("span")}
        if trace
        else {}
    )
    assert sess.trainer_cfg is not None
    # the client half shared with the in-process cohort; adversary
    # corruption happens inside it — on the raw classifier, exactly once
    # per (client, round) — *before* the resend cache, so a rejoin resends
    # the same poisoned bytes (stale_replay history must not advance twice)
    with telemetry.context(**ctx_attrs):
        report, payload = client_round(
            sess.by_id[k], t, state, sess.local_epochs, sess.trainer_cfg,
            sess.share, sess.adversaries,
        )
    if opts.stall_at_round is not None and t == opts.stall_at_round:
        log(f"chaos hook: stalling {opts.stall_s:.1f}s at round {t}")
        time.sleep(opts.stall_s)
    meta = {"client": k, "round": t, **report}
    # cache before sending: if the send faults, the rejoin path resends
    # this exact result instead of training again
    sess.round_updates[k] = (meta, payload)
    sess.pending.discard(k)
    conn.send(Message(MsgType.CLIENT_UPDATE, meta, payload))


def _enter_round(
    conn: Connection, sess: _Session, opts: WorkerOptions, round_info: dict, state, log
) -> None:
    """(Re)enter a round from a REJOIN reply's ``rejoin`` section.

    The reply stands in for any ROUND_START/CLASSIFIER frames lost with
    the old socket: already-produced results are resent verbatim, and
    still-pending sampled clients train on the global classifier the
    reply carried (the same bytes their lost CLASSIFIER frames held).
    """
    t = int(round_info.get("round", -1))
    if t != sess.current_round:
        sess.begin_round(round_info)
        log(f"rejoined into round {t}: {sorted(sess.pending)} sampled here")
    for k in sorted(sess.round_updates):
        meta, payload = sess.round_updates[k]
        conn.send(Message(MsgType.CLIENT_UPDATE, meta, payload))
    if state is not None:
        for k in [k for k in sess.round_meta.get("sampled", []) if k in sess.pending]:
            _train_and_send(conn, sess, opts, k, t, state, log)
    _maybe_eval(conn, sess)


def _maybe_eval(conn: Connection, sess: _Session) -> None:
    """Send this round's EVAL once all local training is done (idempotent).

    Accuracies are computed once and cached: a resend after a faulted
    EVAL reuses the cache rather than re-running evaluation.
    """
    if not sess.round_meta.get("evaluated") or sess.eval_sent or sess.pending:
        return
    if sess.round_accs is None:
        accs = {k: float(c.evaluate()) for k, c in sorted(sess.by_id.items())}
        assert all(np.isfinite(list(accs.values()))), "non-finite accuracy"
        sess.round_accs = accs
    # clock probe *before* the EVAL frame: the server's round can only
    # advance once this EVAL lands, and its reader echoes in frame order,
    # so the echo is guaranteed to reach us ahead of the next round's
    # traffic — we stamp t3 promptly from the recv-wait we are about to
    # enter.  This gives every evaluated round one minimum-RTT-quality
    # sample even on workers that train wall-to-wall (heartbeat-thread
    # echoes landing mid-training are stamped late, inflating RTT by
    # whole training runs).
    conn.send(Message(MsgType.HEARTBEAT, {"t0": time.time()}))
    conn.send(Message(MsgType.EVAL, {"round": sess.current_round, "accs": sess.round_accs}))
    sess.eval_sent = True
