"""Layer probes for the traced run: spans around each layer's public calls.

Every probe drives public functions only and records into the run's
``SpanRecorder``.  Probes run after the workload's own rounds, on the real
states and clients that run produced, so nothing here touches the numbers
of the end-to-end run.
"""

from __future__ import annotations

import io
import socket
import threading
import time

import numpy as np

from bench.calibrate import REFERENCE_S, kernel_s
from bench.spans import SpanRecorder
from repro.data.transforms import default_augmentation
from repro.federated import AGGREGATOR_NAMES, build_federation, make_aggregator
from repro.losses import cross_entropy, proximal_l2, supcon_loss
from repro.net.encoding import WireCodec
from repro.net.protocol import (
    Message,
    MsgType,
    encode_message,
    read_frame,
    recv_message,
    send_message,
)
from repro.tensor import Tensor, conv2d, no_grad
from repro.utils.serialization import state_dict_from_bytes, state_dict_to_bytes

KERNEL_REPS = 30
#: the conv case of benchmarks/test_substrate_micro.py
CONV_X, CONV_W = (16, 16, 16, 16), (32, 16, 3, 3)
#: a batch of paper-scale features through the paper-scale classifier
MATMUL_A, MATMUL_B = (64, 512), (512, 10)


class TimedExecutor:
    """``executor=`` for ``FedClassAvg``: serial, one span per ``update(k)``.

    Each ``map`` call is one round, so the call index is the round index.
    The calibration kernel runs before and after every update, and each
    span carries the machine slowdown measured around it.
    """

    def __init__(self, rec: SpanRecorder, archs: list[str], cost):
        self.rec, self.archs, self.cost, self.round = rec, archs, cost, 0

    def map(self, fn, items: list) -> list:
        out = []
        after = self.cost.calibrate()
        for k in items:
            before = after
            with self.rec.span(
                "federated.trainer.local_update", client=k, arch=self.archs[k], round=self.round
            ) as sid:
                out.append(fn(k))
            after = self.cost.calibrate()
            self.rec.spans[sid]["attrs"]["slowdown"] = (before + after) / 2 / REFERENCE_S
        self.round += 1
        return out

    def shutdown(self) -> None:
        pass


def kernel_probe(rec: SpanRecorder) -> None:
    """conv2d / matmul forward and forward+backward; warm-up, then 30 reps."""
    rng = np.random.default_rng(0)
    x, w, b = rng.normal(size=CONV_X), rng.normal(size=CONV_W) * 0.1, rng.normal(size=CONV_W[0])
    ma, mb = rng.normal(size=MATMUL_A), rng.normal(size=MATMUL_B)

    def conv_fwd():
        with no_grad():
            conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1)

    def conv_fwd_bwd():
        xt = Tensor(x, requires_grad=True)
        out = conv2d(xt, Tensor(w, requires_grad=True), Tensor(b, requires_grad=True), padding=1)
        out.sum().backward()

    def matmul_fwd_bwd():
        a = Tensor(ma, requires_grad=True)
        (a @ Tensor(mb, requires_grad=True)).sum().backward()

    for name, fn in (
        ("tensor.conv2d_fwd", conv_fwd),
        ("tensor.conv2d_fwd_bwd", conv_fwd_bwd),
        ("tensor.matmul_fwd_bwd", matmul_fwd_bwd),
    ):
        fn()
        for _ in range(KERNEL_REPS):
            with rec.span(name):
                fn()


def conv2d_flops() -> float:
    """Multiply-adds x 2 of the probe's convolution (computed, not measured)."""
    n, _, h, w = CONV_X
    c_out, c_in, kh, kw = CONV_W
    return 2.0 * n * c_out * h * w * c_in * kh * kw


def step_probe(
    rec: SpanRecorder, plan, global_state: dict, archs: list[str], epochs: int = 4
) -> None:
    """Epochs of ``local_update``'s exact call sequence, a span per call.

    Runs on a freshly built client per architecture, loaded with the run's
    final global state the way a round loads it.  Each epoch span carries
    the machine slowdown measured around it.
    """
    contrastive = plan.trainer.get("use_contrastive", True)
    rho = plan.trainer["rho"]
    for arch in dict.fromkeys(archs):
        (client,), _ = build_federation(plan.spec, client_ids=[archs.index(arch)])
        model = client.model
        if plan.share_all_weights:
            model.load_state_dict(global_state)
        else:
            model.load_classifier_state(global_state)
        model.train()
        aug = default_augmentation(client.train_images.shape[-1])
        pairs = model.classifier_parameters()
        reference = {k: v for k, v in global_state.items() if k in dict(pairs)}
        for _ in range(epochs):
            before = kernel_s()
            with rec.span("probe.step_epoch", arch=arch) as epoch:
                batches = iter(client.train_loader())
                while True:
                    t0 = time.perf_counter()
                    batch = next(batches, None)
                    if batch is None:
                        break
                    rec.add("data.loader", t0, time.perf_counter(), parent=epoch, arch=arch)
                    xb, yb = batch
                    full = len(yb) == plan.spec.batch_size
                    with rec.span("optim.zero_grad", arch=arch, full=full):
                        client.optimizer.zero_grad()
                    if contrastive:
                        with rec.span("data.augment", arch=arch, full=full):
                            xa, xb2 = aug(xb, client.aug_rng), aug(xb, client.aug_rng)
                        with rec.span("models.features_fwd", arch=arch, full=full):
                            feat_a = model.features(Tensor(xa))
                            feat_b = model.features(Tensor(xb2))
                    else:
                        with rec.span("models.features_fwd", arch=arch, full=full):
                            feat_a = model.features(Tensor(xb))
                    with rec.span("nn.classifier_fwd", arch=arch, full=full):
                        logits = model.classifier(feat_a)
                    with rec.span("losses.cross_entropy", arch=arch, full=full):
                        loss = cross_entropy(logits, yb)
                    if contrastive:
                        with rec.span("losses.supcon", arch=arch, full=full):
                            loss = loss + supcon_loss(feat_a, feat_b, yb, temperature=0.07)
                    with rec.span("losses.proximal", arch=arch, full=full):
                        loss = loss + rho * proximal_l2(pairs, reference)
                    with rec.span("tensor.backward", arch=arch, full=full):
                        loss.backward()
                    with rec.span("optim.step", arch=arch, full=full):
                        client.optimizer.step()
                    loss.item()
            rec.spans[epoch]["attrs"]["slowdown"] = (before + kernel_s()) / 2 / REFERENCE_S


def eval_probe(rec: SpanRecorder, algo, archs: list[str], reps: int = 3) -> None:
    """``client.evaluate()`` per client and ``algo.evaluate_all()``."""
    for _ in range(reps):
        for client in algo.clients:
            with rec.span("federated.client_evaluate", arch=archs[client.client_id]):
                client.evaluate()
        with rec.span("federated.evaluate_all"):
            algo.evaluate_all()


def wire_probe(rec: SpanRecorder, states: list[dict], payload: str) -> None:
    """Replay a recorded sequence of real states through the wire functions.

    ``payload`` names what the states are (``classifier`` or ``fullmodel``).
    The first state goes out as a snapshot, the rest as deltas, exactly as
    a live stream would carry them.  Framing is timed with a decoder that
    leaves the codec container alone, so codec and framing do not overlap.
    The loopback is a true round trip: frame out over a ``socketpair``,
    received, sent back, received.
    """
    tx, rx = WireCodec("delta"), WireCodec("delta")
    near, far = socket.socketpair()
    echo = threading.Thread(target=_echo, args=(far, len(states)))
    echo.start()
    try:
        for i, state in enumerate(states):
            with rec.span("utils.serialization.to_bytes", payload=payload):
                blob = state_dict_to_bytes(state)
            with rec.span("utils.serialization.from_bytes", payload=payload):
                state_dict_from_bytes(blob)
            with rec.span("net.encoding.encode", payload=payload):
                parts, flags = tx.encode_state("broadcast", state)
            with rec.span("net.encoding.decode", payload=payload):
                rx.decode_state(flags, MsgType.CLASSIFIER, {}, b"".join(parts))
            msg = Message(MsgType.CLASSIFIER, {"round": i})
            with rec.span("net.protocol.frame_encode", payload=payload):
                frame = encode_message(msg, flags=flags, state_parts=parts)
            with rec.span("net.protocol.frame_decode", payload=payload):
                read_frame(io.BytesIO(frame), state_decoder=_raw)
            with rec.span("net.protocol.loopback_rtt", payload=payload):
                send_message(near, msg, flags=flags, state_parts=parts)
                recv_message(near, state_decoder=_raw)
    finally:
        near.close()
        echo.join(timeout=10)
        far.close()


def _raw(flags, msg_type, meta, blob):
    """A ``state_decoder`` that hands back the container undecoded."""
    return flags, blob


def _echo(sock, count: int) -> None:
    try:
        for _ in range(count):
            msg, _ = recv_message(sock, state_decoder=_raw)
            flags, blob = msg.state
            send_message(sock, Message(msg.type, msg.meta), flags=flags, state_parts=[blob])
    except (OSError, ValueError):
        pass  # the probe's side closed early; its own error is the one to report


def aggregator_probe(rec: SpanRecorder, admitted: dict, weights: dict, reference: dict) -> None:
    """Every aggregator on one admitted set; the mean also at n = 1000."""
    ids = sorted(admitted)
    states = [admitted[k] for k in ids]
    w = [weights[k] for k in ids]
    for name in AGGREGATOR_NAMES:
        aggregator = make_aggregator(name)
        for _ in range(5):
            with rec.span("federated.robust.probe", aggregator=name, n=len(states)):
                aggregator(states, w, reference=reference)
    many = (states * (1000 // len(states) + 1))[:1000]
    many_w = (w * (1000 // len(w) + 1))[:1000]
    mean = make_aggregator("mean")
    for _ in range(5):
        with rec.span("federated.robust.probe", aggregator="mean", n=1000):
            mean(many, many_w, reference=reference)


def span_cost(reps: int = 20000) -> float:
    """Seconds one recorded span costs the harness (empty body)."""
    rec = SpanRecorder("calibration")
    t0 = time.perf_counter()
    for _ in range(reps):
        with rec.span("x"):
            pass
    return (time.perf_counter() - t0) / reps
