"""The three training workloads, driven through the program's public surface.

``sim_hetero`` and ``tcp_hetero`` share one plan (the paper's headline
setting) and differ only in the engine; ``tcp_fullweight`` changes the
payload (whole model) and the local objective (no SupCon, one forward).
``rounds`` is the only size dial.  The program never sees a workload name:
it receives a ``FederationSpec``, a trainer dict and a seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from bench.calibrate import kernel_s
from bench.record import Run, final_accuracy, from_ticks
from repro.comm import CostModel, SimComm
from repro.config import tiny_preset
from repro.core import FedClassAvg
from repro.federated import FederationSpec, build_federation, default_firewall
from repro.models import heterogeneous_assignment
from repro.net.launcher import rank_telemetry_path, run_tcp_federation

#: one worker per core; the harness and the idle server share them
TCP_WORKERS = 2


@dataclass
class TickCostModel(CostModel):
    """A ``CostModel`` that timestamps every ``end_round()``.

    Both engines call ``end_round`` exactly once per round, so injecting
    this through the public ``comm=`` / ``cost_model=`` parameters observes
    round boundaries without touching the program.  Right after each tick
    it runs the calibration kernel, logged as ``(started, seconds)``.
    """

    ticks: list = field(default_factory=list)
    kernel_log: list = field(default_factory=list)
    on_tick: object = None  # callable run after each tick (traced runs only)

    def calibrate(self) -> float:
        started = time.perf_counter()
        self.kernel_log.append((started, kernel_s()))
        return self.kernel_log[-1][1]

    def end_round(self, participants: int | None = None) -> int:
        nbytes = super().end_round(participants)
        self.ticks.append(time.perf_counter())
        self.calibrate()
        if self.on_tick is not None:
            self.on_tick()
        return nbytes


class CalibratingExecutor:
    """``executor=`` for ``FedClassAvg``: serial, the kernel before each update.

    In-process rounds last seconds, longer than the machine keeps one speed,
    so two samples at a round's ends say little about its middle.  This is
    the one place the public surface lets the harness run code inside a
    round; the kernel's own time is taken back out of the round's wall.
    """

    def __init__(self, cost: TickCostModel):
        self.cost = cost

    def map(self, fn, items: list) -> list:
        out = []
        for item in items:
            self.cost.calibrate()
            out.append(fn(item))
        return out

    def shutdown(self) -> None:
        pass


@dataclass
class Plan:
    """Everything the program is handed for one training workload."""

    spec: FederationSpec
    trainer: dict
    share_all_weights: bool

    @property
    def n(self) -> int:
        return self.spec.num_clients

    @property
    def archs(self) -> list[str]:
        """Architecture of each client, as ``build_federation`` assigns them."""
        if self.spec.homogeneous_arch:
            return [self.spec.homogeneous_arch] * self.n
        return heterogeneous_assignment(self.n)


def training_plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    n = 4 if smoke else 8
    p = tiny_preset("cifar10-tiny", num_clients=n)
    spec = FederationSpec(
        dataset=p.dataset, num_clients=n, partition="dirichlet", alpha=0.5, scale=p.scale,
        n_train=p.n_train, n_test=p.n_test, test_per_client=p.test_per_client,
        batch_size=p.batch_size, lr=p.lr, seed=seed,
    )
    if workload == "tcp_fullweight":
        spec.homogeneous_arch = "alexnet"
        return Plan(spec, {"rho": p.rho, "use_contrastive": False}, True)
    return Plan(spec, {"rho": p.rho}, False)


def run_sim(
    plan: Plan, rounds: int, make_executor=CalibratingExecutor, capture_states: list | None = None
) -> Run:
    """In-process engine: ``build_federation`` + ``FedClassAvg(...).run``.

    ``make_executor(cost)`` builds the ``executor=`` object; the traced run
    passes one that also records a span per client update.
    """
    start = time.perf_counter()
    clients, _info = build_federation(plan.spec)
    cost = TickCostModel()
    algo = FedClassAvg(
        clients, **plan.trainer, share_all_weights=plan.share_all_weights, sample_rate=1.0,
        local_epochs=1, comm=SimComm(plan.n + 1, cost), seed=plan.spec.seed,
        executor=make_executor(cost), firewall=default_firewall(),
        aggregator="mean",
    )
    if capture_states is not None:
        cost.on_tick = lambda: capture_states.append(
            {k: v.copy() for k, v in algo.global_state.items()}
        )
    history = algo.run(rounds)
    return from_ticks(
        start, cost.ticks, cost.kernel_log,
        attempted=sum(p or 0 for p in cost.per_round_participants),
        failed=len(algo.rejections),
        bytes_per_client_round=cost.per_client_round_bytes(plan.n),
        global_state=algo.global_state,
        final_mean_acc=final_accuracy(history),
        first_loss=history.rounds[0].train_loss,
        last_loss=history.rounds[-1].train_loss,
        detail={"algo": algo, "ticks": cost.ticks},
    )


def _worker_pids() -> set[int]:
    """Pids of live ``repro.cli worker`` processes (orphan detection)."""
    pids = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if b"repro.cli" in cmdline and b"worker" in cmdline:
            pids.add(int(entry.name))
    return pids


def run_tcp(plan: Plan, rounds: int, worker_telemetry: str | None = None) -> Run:
    """TCP engine: a server in this process and two real worker processes."""
    already_there = _worker_pids()
    cost = TickCostModel()
    start = time.perf_counter()
    result, exit_codes = run_tcp_federation(
        asdict(plan.spec), rounds, TCP_WORKERS, trainer=plan.trainer,
        share_all_weights=plan.share_all_weights, seed=plan.spec.seed, wire="delta",
        firewall=default_firewall(), aggregator="mean", cost_model=cost,
        worker_telemetry=worker_telemetry,
    )
    end = time.perf_counter()
    problems = []
    if any(code != 0 for code in exit_codes):
        problems.append(f"worker exit codes {exit_codes}")
    if result.permanently_lost:
        problems.append(f"clients permanently lost: {result.permanently_lost}")
    if len(result.round_log) != rounds:
        problems.append(f"{len(result.round_log)} of {rounds} rounds completed")
    orphans = _worker_pids() - already_there
    if orphans:
        problems.append(f"orphan worker processes: {sorted(orphans)}")
    log = result.round_log
    return from_ticks(
        start, cost.ticks, cost.kernel_log,
        attempted=sum(len(r["sampled"]) for r in log),
        failed=sum(len(r["sampled"]) - len(r["survivors"]) for r in log),
        bytes_per_client_round=cost.per_client_round_bytes(plan.n),
        global_state=result.global_state,
        final_mean_acc=final_accuracy(result.history),
        first_loss=result.history.rounds[0].train_loss,
        last_loss=result.history.rounds[-1].train_loss,
        problems=problems,
        detail={
            "codec_stats": result.codec_stats, "cost": cost,
            "run_wall_s": end - start, "teardown_s": end - cost.ticks[-1],
        },
    )


def worker_busy(base: str, archs: list[str]) -> dict:
    """Per-round worker busy time from the program's own per-rank telemetry.

    Each worker trains its clients one after another, so a worker's busy
    time in a round is the sum of its ``local_update`` spans.  A client
    trains once per round (sample rate 1), so the n-th span of a client is
    round n.  The server's ``compute_s`` / ``wait_s`` split is not used.
    """
    busy: dict[int, dict[int, float]] = {}  # round -> worker -> seconds
    by_arch: dict[str, list[float]] = {}
    for worker in range(TCP_WORKERS):
        seen: dict[int, int] = {}
        with open(rank_telemetry_path(base, worker + 1)) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("type") != "span" or rec.get("name") != "local_update":
                    continue
                client = rec["attrs"]["client"]
                rnd = seen.get(client, 0)
                seen[client] = rnd + 1
                per_worker = busy.setdefault(rnd, {})
                per_worker[worker] = per_worker.get(worker, 0.0) + rec["dur_s"]
                if rnd > 0:  # round 0 is warm-up
                    by_arch.setdefault(archs[client], []).append(rec["dur_s"])
    steady = [list(busy[r].values()) for r in sorted(busy) if r > 0]
    return {
        "busy_max": [max(b) for b in steady],
        "imbalance": [max(b) / (sum(b) / len(b)) for b in steady],
        "by_arch": by_arch,
    }
