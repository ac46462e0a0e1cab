"""``server_fanin``: the server side of a 100-client round, with no training.

Per round an untimed generator plays the cohort: every client's update is
the current global classifier plus seeded N(0, 0.01^2) noise, a fixed tenth
is poisoned (half scaled by 50, half with a NaN bias), and each update is
encoded on that client's own ``WireCodec("delta")`` stream and framed with
``encode_message``.  The timed section is what a server does with those
frames: ``read_frame`` (header, CRC, ``decode_payload``, codec) x N, then
``admit_and_aggregate`` through ``default_firewall()`` and a trimmed mean,
then the broadcast ``encode_state`` + frame.

The generator keeps the ground truth, so a firewall that admits a poisoned
update or turns away an honest one shows up as a failed update, and a codec
that corrupts a state shows up as a failed check.
"""

from __future__ import annotations

import io
import time

import numpy as np

from bench.spans import NullRecorder
from bench.calibrate import kernel_s
from bench.record import Run
from repro.comm import CostModel
from repro.federated import Aggregator, admit_and_aggregate, default_firewall, make_aggregator
from repro.net.encoding import WireCodec
from repro.net.protocol import Message, MsgType, ProtocolError, encode_message, read_frame
from repro.utils.serialization import state_dict_to_bytes

#: paper-scale classifier: 512 features -> 10 classes, float64 on the wire
FEATURE_DIM, NUM_CLASSES = 512, 10
NOISE_SD = 0.01
SCALE_ATTACK = 50.0


def poisoned_ids(n: int) -> tuple[set[int], set[int]]:
    """A fixed tenth of the cohort: ``(scaled, nan_bias)`` client ids.

    Every tenth client, alternating attack; never among the first three
    ids, whose admissions warm up the firewall's rolling norm baseline.
    """
    bad = list(range(9, n, 10)) or [n - 1]
    return set(bad[0::2]), set(bad[1::2])


class _SpanAggregator(Aggregator):
    """The chosen aggregator, with a span around each call (traced runs)."""

    def __init__(self, inner: Aggregator, rec):
        self.inner, self.rec, self.name = inner, rec, inner.name

    def __call__(self, states, weights=None, reference=None):
        with self.rec.span("federated.robust.aggregate", states=len(states)):
            return self.inner(states, weights, reference=reference)


def run_fanin(seed: int, rounds: int, n: int, rec=None) -> Run:
    """Run ``rounds`` fan-in rounds for a cohort of ``n``.

    ``rec`` turns tracing on.  The run's ``detail`` keeps the sequence of
    global states, the last round's admitted updates and the generator's
    wall time, for the wire and aggregator probes.
    """
    traced = rec is not None
    rec = rec if traced else NullRecorder()
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xFA, n)))
    global_state = {
        "classifier.weight": rng.normal(0.0, 0.1, size=(FEATURE_DIM, NUM_CLASSES)),
        "classifier.bias": rng.normal(0.0, 0.1, size=NUM_CLASSES),
    }
    weights = {k: float(w) for k, w in enumerate(rng.integers(50, 150, size=n))}
    scaled, nan_bias = poisoned_ids(n)
    honest = set(range(n)) - scaled - nan_bias
    client_codecs = [WireCodec("delta") for _ in range(n)]
    server_codecs = [WireCodec("delta") for _ in range(n)]
    broadcast_codec, listener_codec = WireCodec("delta"), WireCodec("delta")
    decoders = [
        rec.timed("net.encoding.decode", c.decode_state) for c in server_codecs
    ]
    aggregator = make_aggregator("trimmed_mean")
    if traced:
        aggregator = _SpanAggregator(aggregator, rec)
    firewall = default_firewall()
    cost = CostModel()

    built = time.perf_counter()
    sections: list[float] = []
    kernels: list[list[float]] = []
    failed = 0
    problems: list[str] = []
    generator_s = 0.0
    globals_seen = [global_state]
    admitted_last: dict[int, dict] = {}

    for t in range(rounds):
        # ---- generator (untimed): the cohort's uploads for this round ----
        g0 = time.perf_counter()
        frames = []
        updates_sent = {}
        for k in range(n):
            state = {
                key: value + rng.normal(0.0, NOISE_SD, size=value.shape)
                for key, value in global_state.items()
            }
            if k in scaled:
                state = {key: value * SCALE_ATTACK for key, value in state.items()}
            elif k in nan_bias:
                state["classifier.bias"][0] = np.nan
            updates_sent[k] = state
            parts, flags = client_codecs[k].encode_state(f"update:{k}", state)
            meta = {"round": t, "client": k}
            frames.append(
                encode_message(Message(MsgType.CLIENT_UPDATE, meta), flags=flags, state_parts=parts)
            )
        generator_s += time.perf_counter() - g0

        # ---- timed: what the server does with the frames ----
        kernel_before = kernel_s()
        s0 = time.perf_counter()
        with rec.span("core.round", round=t):
            received: dict[int, dict] = {}
            for k, frame in enumerate(frames):
                with rec.span("net.protocol.decode", client=k):
                    try:
                        msg = read_frame(io.BytesIO(frame), state_decoder=decoders[k])
                    except ProtocolError:
                        continue
                received[msg.meta["client"]] = msg.state
            with rec.span("federated.robust.admit_and_aggregate", updates=len(received)):
                outcome = admit_and_aggregate(
                    t, received, weights, aggregator=aggregator, firewall=firewall,
                    reference=global_state,
                )
            if outcome.global_state is not None:
                global_state = outcome.global_state
            with rec.span("net.encoding.broadcast_encode"):
                parts, flags = broadcast_codec.encode_state("broadcast", global_state)
                broadcast = encode_message(
                    Message(MsgType.CLASSIFIER, {"round": t}), flags=flags, state_parts=parts
                )
        sections.append(time.perf_counter() - s0)
        kernels.append([kernel_before, kernel_s()])

        # ---- ledger and ground truth (untimed) ----
        for k, frame in enumerate(frames):
            cost.record(k + 1, 0, len(frame))
            cost.record(0, k + 1, len(broadcast))
        cost.end_round(participants=n)
        admitted = set(outcome.admitted)
        failed += (n - len(received)) + len(admitted ^ (honest & set(received)))
        heard = read_frame(io.BytesIO(broadcast), state_decoder=listener_codec.decode_state)
        if state_dict_to_bytes(heard.state) != state_dict_to_bytes(global_state):
            problems.append(f"round {t}: broadcast frame does not decode to the global state")
        for key, value in global_state.items():
            stack = np.stack([updates_sent[k][key] for k in sorted(honest)])
            if not ((value >= stack.min(axis=0)).all() and (value <= stack.max(axis=0)).all()):
                problems.append(f"round {t}: {key} left the envelope of the honest updates")
        globals_seen.append(global_state)
        admitted_last = {k: received[k] for k in outcome.admitted}

    return Run(
        setup_s=(built - start) + sections[0],
        intervals=sections[1:],
        kernels=kernels[1:],
        attempted=n * rounds,
        failed=failed,
        bytes_per_client_round=cost.per_client_round_bytes(n),
        global_state=global_state,
        problems=problems,
        detail=dict(
            states=globals_seen, admitted=admitted_last, weights=weights,
            reference=globals_seen[-2], generator_s=generator_s / rounds,
            rejected=len(firewall.rejections),
        ),
    )
