"""repro.net — the real-TCP federated runtime.

The paper ran FedClassAvg as 20 MPI ranks across 15 GPU nodes; this
package runs the same protocol over actual sockets and OS processes
while keeping the in-process :class:`repro.comm.SimComm` as the default
byte-mover.  ``repro.net`` depends on ``repro.federated``, never the
other way round:

* :mod:`repro.net.protocol` — length-prefixed CRC-checked binary
  framing over the existing state-dict wire format, with zero-copy
  scatter/gather sends and flag-negotiated state encodings;
* :mod:`repro.net.encoding` — the wire codec: lossless XOR-delta +
  zlib state frames (default), opt-in lossy quantization/top-k modes;
* :mod:`repro.net.transport` — the server-side :class:`TcpTransport`
  (accept loop, reader threads, liveness, ordered collection), the
  socket-backed :class:`repro.federated.cohort.Cohort`;
* :mod:`repro.net.server` — :class:`FedTcpServer`, which runs the one
  round loop and the one server half (:class:`repro.core.FedClassAvg`)
  over that transport, plus worker loss/rejoin bookkeeping and the
  server checkpoint;
* :mod:`repro.net.worker` — a client process owning its models/data and
  running the production ``local_update``;
* :mod:`repro.net.launcher` — N workers over localhost for
  single-machine runs (``repro run --transport tcp --workers N``);
* :mod:`repro.net.retry` — deadlines, jittered exponential backoff,
  heartbeats;
* :mod:`repro.net.chaos` — deterministic, seeded protocol-level fault
  injection (refusals, disconnects, bit-flips, partitions, delays);
* :mod:`repro.net.supervisor` — bounded-restart supervision of
  launcher-forked workers (crashed workers respawn with ``--rejoin``).

Determinism is the bar: with equal seeds, a TCP run's final global
classifier is bit-identical to the SimComm run's.
"""

from __future__ import annotations

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    BadMagic,
    ChecksumMismatch,
    ConnectionClosed,
    FrameTooLarge,
    Message,
    MsgType,
    ProtocolError,
    Truncated,
    UnknownWireFlags,
    VersionMismatch,
)
from repro.net.chaos import ChaosConfig, ChaosConnection, ChaosEngine
from repro.net.encoding import (
    WIRE_MODES,
    CodecStats,
    EncodingError,
    WireCodec,
    parse_wire_mode,
)
from repro.net.retry import Deadline, Heartbeat, RetryPolicy, backoff_delays, call_with_retries
from repro.net.supervisor import WorkerSupervisor
from repro.net.transport import Connection, SimulatedCrash, TcpTransport, WorkerLink
from repro.net.server import FedTcpServer, QuorumError, QuorumPolicy, ServerResult, make_run_config
from repro.net.worker import WorkerOptions, run_worker
from repro.net.launcher import assign_clients, run_tcp_federation, worker_command

__all__ = [
    "Connection",
    "TcpTransport",
    "WorkerLink",
    "Message",
    "MsgType",
    "ProtocolError",
    "BadMagic",
    "VersionMismatch",
    "FrameTooLarge",
    "ChecksumMismatch",
    "Truncated",
    "ConnectionClosed",
    "UnknownWireFlags",
    "MAX_FRAME_BYTES",
    "WIRE_MODES",
    "WireCodec",
    "CodecStats",
    "EncodingError",
    "parse_wire_mode",
    "RetryPolicy",
    "Deadline",
    "Heartbeat",
    "backoff_delays",
    "call_with_retries",
    "ChaosConfig",
    "ChaosEngine",
    "ChaosConnection",
    "WorkerSupervisor",
    "FedTcpServer",
    "ServerResult",
    "make_run_config",
    "QuorumPolicy",
    "QuorumError",
    "SimulatedCrash",
    "run_worker",
    "WorkerOptions",
    "run_tcp_federation",
    "assign_clients",
    "worker_command",
]
