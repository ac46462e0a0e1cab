"""One measured run of one workload: metrics, correctness checks, layer trace.

``measure`` is what a single ``bench.run --workload NAME`` invocation does.
Untraced, it produces the end-to-end metrics with every kind of tracing and
``repro.telemetry`` off.  Traced, it runs the workload with spans around the
calls into each layer, then the layer probes, and produces the per-layer
metrics instead.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import time
from statistics import median

import numpy as np

from bench import ROOT, env, probes
from bench.fanin import run_fanin
from bench.record import Run, digest, end_to_end
from bench.report import declared
from bench.spans import SpanRecorder
from bench.workloads import run_sim, run_tcp, training_plan, worker_busy
from repro.federated import AGGREGATOR_NAMES

OUT = ROOT / "bench" / "out"

#: BENCHMARK.json's run_seconds; ``--seconds`` scales every round count from it
REF_SECONDS = 24
REF_ROUNDS = {"sim_hetero": 6, "tcp_hetero": 6, "tcp_fullweight": 30, "server_fanin": 100}
SMOKE_ROUNDS = {"sim_hetero": 2, "tcp_hetero": 2, "tcp_fullweight": 2, "server_fanin": 3}
#: times set-up (through warm-up round 0) is measured per run; its median is reported
SETUP_SAMPLES = {"sim_hetero": 2, "tcp_hetero": 2, "tcp_fullweight": 2, "server_fanin": 5}
FANIN_COHORT, FANIN_COHORT_SMOKE = 100, 8
#: the two engines that run the paper's headline plan: they report an
#: accuracy and must end on the same global classifier
HETERO = ("sim_hetero", "tcp_hetero")
#: 2.5x chance on a 10-class task.  Over 41 seeds the accuracy after 6 rounds
#: was 0.37..0.60 (median 0.50, sd 0.054); a broken run sits at 0.10
ACC_FLOOR, ACC_FLOOR_FROM_ROUND = 0.25, 5
CLOSURE_LIMIT = 0.15
#: a closure error over the limit is measured again, with four more probe
#: epochs each time, before the traced run fails: on this box single epochs
#: of one architecture read up to 10 % apart even at reference machine speed
CLOSURE_ATTEMPTS = 3
#: with fewer steady rounds a closure error is one sample against one sample
CLOSURE_FROM_STEADY_ROUNDS = 3


def rounds_for(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return SMOKE_ROUNDS[workload]
    return max(3, round(REF_ROUNDS[workload] * seconds / REF_SECONDS))


def closure_gated(rounds: int) -> bool:
    return rounds - 1 >= CLOSURE_FROM_STEADY_ROUNDS


def cohort(smoke: bool) -> int:
    return FANIN_COHORT_SMOKE if smoke else FANIN_COHORT


def execute(workload: str, seed: int, rounds: int, smoke: bool) -> Run:
    """Run the workload once at the given size, untraced."""
    if workload == "server_fanin":
        return run_fanin(seed, rounds, cohort(smoke))
    plan = training_plan(workload, seed, smoke)
    if workload == "sim_hetero":
        return run_sim(plan, rounds)
    return run_tcp(plan, rounds)


# -- correctness ----------------------------------------------------------
def source_hash() -> str:
    """Identity of the program under test, so digests of other code never match."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counterpart_digest(workload: str, seed: int, rounds: int, smoke: bool, own: str) -> str | None:
    """Leave this run's global-classifier digest for the other engine; fetch theirs.

    ``sim_hetero`` and ``tcp_hetero`` run the same plan, so their final
    global classifiers must be byte-identical.  One invocation runs one
    workload, so each leaves its digest in ``bench/out/digests`` keyed by
    program source, seed and size, and checks the other's when it is there.
    """
    folder = OUT / "digests"
    folder.mkdir(parents=True, exist_ok=True)
    key = f"{source_hash()}-seed{seed}-rounds{rounds}-{'smoke' if smoke else 'full'}"
    (folder / f"{key}-{workload}").write_text(own)
    other = folder / f"{key}-{'tcp_hetero' if workload == 'sim_hetero' else 'sim_hetero'}"
    return other.read_text() if other.exists() else None


def check(workload: str, run: Run, rounds: int, other_digest: str | None) -> dict[str, bool]:
    """Every correctness check that applies; a False fails the run."""
    checks = {
        "no_problems": not run.problems,
        "global_finite": all(np.isfinite(v).all() for v in run.global_state.values()),
    }
    if workload in HETERO:
        if rounds >= ACC_FLOOR_FROM_ROUND:
            checks["accuracy_above_floor"] = run.final_mean_acc > ACC_FLOOR
        if other_digest is not None:
            checks["digest_equals_other_engine"] = digest(run.global_state) == other_digest
    if workload in ("tcp_hetero", "tcp_fullweight"):
        checks["train_loss_decreased"] = run.last_loss < run.first_loss
    if workload == "server_fanin":
        checks["verdicts_match_ground_truth"] = run.failed == 0
    return checks


# -- the run ----------------------------------------------------------------
def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float
) -> dict:
    env.assert_pinned()
    rounds = rounds_for(workload, seconds, smoke)
    spec = declared()
    raw = None
    if trace:
        run, layer = _TRACED[workload](workload, seed, rounds, smoke)
        names = spec["per_layer"]
        values = {m["name"]: float(layer.get(m["name"], 0.0)) for m in names}
        unknown = set(layer) - set(values)
        if unknown:
            raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    else:
        setups = []
        for _ in range(SETUP_SAMPLES[workload] - 1):
            setups.append(import_s + execute(workload, seed, 1, smoke).setup_s)
            gc.collect()
        run = execute(workload, seed, rounds, smoke)
        setups.append(import_s + run.setup_s)
        names = spec["end_to_end"]
        values = end_to_end(run, setups, sum(env.peak_rss_mb()))
        raw = {"round_walls_s": run.intervals, "slowdowns": run.slowdowns(), "setups_s": setups}

    own = digest(run.global_state)
    other = counterpart_digest(workload, seed, rounds, smoke, own) if workload in HETERO else None
    checks = check(workload, run, rounds, other)
    if trace and workload == "sim_hetero" and closure_gated(rounds):
        for name in ("closure.step_vs_local_update_err", "closure.sim_round_err"):
            checks[name.replace(".", "_") + "_within_limit"] = values[name] <= CLOSURE_LIMIT
    correct = all(checks.values())
    return {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "smoke": smoke,
        "trace": trace,
        "correct": correct,
        "attempted": run.attempted,
        # a failed check means nothing this run produced can be trusted
        "failed": run.failed if correct else run.attempted,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        "final_mean_acc": run.final_mean_acc if workload in HETERO else None,
        "checks": checks,
        "problems": run.problems,
        "digest": own,
        "steady_rounds": len(run.intervals),
        "fingerprint": env.fingerprint(seed),
        "raw": raw,
    }


# -- traced runs: one per workload kind ---------------------------------------
def _new_recorder(workload: str, seed: int) -> SpanRecorder:
    return SpanRecorder(f"{workload}-seed{seed}-{int(time.time())}")


def _finish_trace(rec: SpanRecorder, workload: str, seed: int) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    rec.dump(OUT / f"spans-{workload}-seed{seed}.json")


def _wire_metrics(rec: SpanRecorder, payload: str) -> dict:
    return {
        "utils.serialization.to_bytes_s": rec.median("utils.serialization.to_bytes"),
        "utils.serialization.from_bytes_s": rec.median("utils.serialization.from_bytes"),
        f"net.encoding.encode_s.{payload}": rec.median("net.encoding.encode", payload=payload),
        f"net.encoding.decode_s.{payload}": rec.median("net.encoding.decode", payload=payload),
        "net.protocol.frame_encode_s": rec.median("net.protocol.frame_encode"),
        "net.protocol.frame_decode_s": rec.median("net.protocol.frame_decode"),
        "net.protocol.loopback_rtt_s": rec.median("net.protocol.loopback_rtt"),
    }


def _step_metrics(rec: SpanRecorder, archs: list[str]) -> dict:
    out = {}
    for arch in dict.fromkeys(archs):
        out[f"models.features_fwd_s.{arch}"] = rec.median("models.features_fwd", arch=arch, full=True)
        out[f"tensor.backward_s.{arch}"] = rec.median("tensor.backward", arch=arch, full=True)
        out[f"optim.step_s.{arch}"] = rec.median("optim.step", arch=arch, full=True)
    out["data.loader_s"] = rec.median("data.loader")
    for name in ("data.augment", "nn.classifier_fwd", "losses.cross_entropy", "losses.supcon",
                 "losses.proximal", "optim.zero_grad"):
        out[f"{name}_s"] = rec.median(name, full=True)
    return out


def _kernel_metrics(rec: SpanRecorder) -> dict:
    out = {f"{name}_s": rec.median(name) for name in
           ("tensor.conv2d_fwd", "tensor.conv2d_fwd_bwd", "tensor.matmul_fwd_bwd")}
    out["tensor.conv2d_gflops"] = probes.conv2d_flops() / out["tensor.conv2d_fwd_s"] / 1e9
    return out


def _at_reference_speed(spans: list[dict]) -> list[float]:
    return [(s["end"] - s["start"]) / s["attrs"]["slowdown"] for s in spans]


def _steady_updates(rec: SpanRecorder, arch: str) -> list[dict]:
    return [
        s for s in rec.select("federated.trainer.local_update", arch=arch)
        if s["attrs"]["round"] > 0
    ]


def _step_closure(rec: SpanRecorder, archs: list[str]) -> float:
    """Largest gap, over architectures, between a probed epoch and ``local_update``.

    The two sides ran minutes apart: compare them at reference machine speed.
    """
    worst = 0.0
    for arch in dict.fromkeys(archs):
        in_run = median(_at_reference_speed(_steady_updates(rec, arch)))
        probed = median(_at_reference_speed(rec.select("probe.step_epoch", arch=arch)))
        worst = max(worst, abs(probed - in_run) / in_run)
    return worst


def _trace_sim(workload: str, seed: int, rounds: int, smoke: bool):
    plan = training_plan(workload, seed, smoke)
    archs = plan.archs
    rec = _new_recorder(workload, seed)
    states: list[dict] = []
    run = run_sim(
        plan, rounds, lambda cost: probes.TimedExecutor(rec, archs, cost), capture_states=states
    )
    algo, ticks = run.detail["algo"], run.detail["ticks"]

    # round spans come from the ticks; the updates of a round nest under it
    round_ids = {
        t: rec.add("core.round", ticks[t - 1], ticks[t], round=t) for t in range(1, rounds)
    }
    updates_s: dict[int, float] = {}
    for span in rec.select("federated.trainer.local_update"):
        t = span["attrs"]["round"]
        span["parent"] = round_ids.get(t)
        updates_s[t] = updates_s.get(t, 0.0) + span["end"] - span["start"]

    probes.kernel_probe(rec)
    for _ in range(CLOSURE_ATTEMPTS if closure_gated(rounds) else 1):
        probes.step_probe(rec, plan, run.global_state, archs)
        closure = _step_closure(rec, archs)
        if closure <= CLOSURE_LIMIT:
            break
    probes.eval_probe(rec, algo, archs)
    probes.wire_probe(rec, states, "classifier")
    _finish_trace(rec, workload, seed)

    steady = range(1, rounds)
    walls = dict(zip(steady, run.intervals))
    p50 = median(walls.values())
    evaluate_all_s = rec.median("federated.evaluate_all")
    overhead_s = median(walls[t] - updates_s[t] for t in steady) - evaluate_all_s
    layer = {**_kernel_metrics(rec), **_step_metrics(rec, archs), **_wire_metrics(rec, "classifier")}
    for arch in dict.fromkeys(archs):
        layer[f"federated.trainer.local_update_s.{arch}"] = median(
            s["end"] - s["start"] for s in _steady_updates(rec, arch)
        )
        layer[f"federated.client_evaluate_s.{arch}"] = rec.median(
            "federated.client_evaluate", arch=arch
        )
    layer.update({
        "federated.trainer.local_update_share": median(updates_s[t] / walls[t] for t in steady),
        "train.batches_per_round": sum(
            math.ceil(c.data_size / c.batch_size) for c in algo.clients
        ),
        "train.samples_per_round": sum(c.data_size for c in algo.clients),
        "federated.evaluate_all_s": evaluate_all_s,
        "core.round_overhead_s": overhead_s,
        "closure.step_vs_local_update_err": closure,
        "closure.sim_round_err": abs(overhead_s) / p50,
        "bench.trace_overhead_share": probes.span_cost() * plan.n / p50,
    })
    return run, layer


def _trace_tcp(workload: str, seed: int, rounds: int, smoke: bool):
    plan = training_plan(workload, seed, smoke)
    archs = plan.archs
    # the same run with the program's telemetry off: what observing costs
    untraced_p50 = median(run_tcp(plan, rounds).calibrated())
    folder = OUT / f"telemetry-{workload}-seed{seed}"
    shutil.rmtree(folder, ignore_errors=True)
    folder.mkdir(parents=True)
    base = str(folder / "run.jsonl")
    run = run_tcp(plan, rounds, worker_telemetry=base)
    busy = worker_busy(base, archs)
    own_mb, children_mb = env.peak_rss_mb()
    stats, cost = run.detail["codec_stats"], run.detail["cost"]
    p50 = median(run.intervals)
    busy_max_s = median(busy["busy_max"])
    layer = {
        "net.launcher.run_wall_s": run.detail["run_wall_s"],
        "net.launcher.teardown_s": run.detail["teardown_s"],
        "net.worker.busy_max_s": busy_max_s,
        "net.worker.busy_imbalance": median(busy["imbalance"]),
        "net.round_unexplained_s": p50 - busy_max_s,
        "net.server.codec_encode_s": stats["encode_s"] / rounds,
        "net.server.codec_decode_s": stats["decode_s"] / rounds,
        "net.encoding.ratio": stats["wire_bytes"] / stats["raw_bytes"],
        "net.encoding.deltas": stats["deltas"],
        "net.encoding.snapshots": stats["snapshots"],
        "net.bytes_up_per_round": cost.uplink_bytes() / rounds,
        "net.bytes_down_per_round": cost.downlink_bytes() / rounds,
        "net.frames_per_round": cost.total_messages / rounds,
        "telemetry.overhead_share": median(run.calibrated()) / untraced_p50 - 1.0,
        "mem.peak_rss_server_mb": own_mb,
        "mem.peak_rss_workers_mb": children_mb,
    }
    for arch, durations in busy["by_arch"].items():
        layer[f"net.worker.local_update_s.{arch}"] = median(durations)
    if workload == "tcp_fullweight":
        # compute used differently (one forward, no augmentation, no SupCon)
        # and payloads 100x larger: probe both on this workload's own plan
        rec = _new_recorder(workload, seed)
        states: list[dict] = []
        run_sim(plan, 3, capture_states=states)
        probes.step_probe(rec, plan, run.global_state, archs)
        probes.wire_probe(rec, states, "fullmodel")
        _finish_trace(rec, workload, seed)
        layer.update({**_step_metrics(rec, archs), **_wire_metrics(rec, "fullmodel")})
    return run, layer


def _trace_fanin(workload: str, seed: int, rounds: int, smoke: bool):
    n = cohort(smoke)
    rec = _new_recorder(workload, seed)
    run = run_fanin(seed, rounds, n, rec=rec)
    got = run.detail
    spans_per_round = len(rec.spans) / rounds
    probes.aggregator_probe(rec, got["admitted"], got["weights"], got["reference"])
    probes.wire_probe(rec, got["states"][:16], "classifier")
    _finish_trace(rec, workload, seed)

    def per_round(name: str) -> float:
        return median(rec.sums_under(name, "core.round")[1:])  # round 0 is warm-up

    self_s = rec.self_times()
    screen_s = median(
        [self_s[s["id"]] for s in rec.select("federated.robust.admit_and_aggregate")][1:]
    )
    layer = {
        "net.protocol.decode_s": per_round("net.protocol.decode"),
        "net.encoding.decode_s": per_round("net.encoding.decode"),
        "federated.robust.admit_and_aggregate_s": per_round("federated.robust.admit_and_aggregate"),
        "federated.robust.aggregate_s": per_round("federated.robust.aggregate"),
        "federated.firewall.screen_s": screen_s,
        "federated.firewall.screen_per_update_s": screen_s / n,
        "federated.firewall.reject_share": got["rejected"] / run.attempted,
        "net.encoding.broadcast_encode_s": per_round("net.encoding.broadcast_encode"),
        "federated.robust.mean_s.n1000": rec.median("federated.robust.probe", aggregator="mean", n=1000),
        "bench.generator_s": got["generator_s"],
        "bench.trace_overhead_share": probes.span_cost() * spans_per_round / median(run.intervals),
        **_wire_metrics(rec, "classifier"),
    }
    for name in AGGREGATOR_NAMES:
        layer[f"federated.robust.{name}_s"] = rec.median(
            "federated.robust.probe", aggregator=name, n=len(got["admitted"])
        )
    return run, layer


_TRACED = {
    "sim_hetero": _trace_sim,
    "tcp_hetero": _trace_tcp,
    "tcp_fullweight": _trace_tcp,
    "server_fanin": _trace_fanin,
}
