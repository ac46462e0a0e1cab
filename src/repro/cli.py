"""Command-line experiment runner and telemetry tooling.

Run any algorithm on any dataset/partition from a shell::

    python -m repro.cli --algorithm fedclassavg --dataset fashion_mnist-tiny \
        --clients 8 --rounds 6 --partition dirichlet
    python -m repro.cli --algorithm fedavg --homogeneous resnet18 --rounds 5
    python -m repro.cli --rounds 3 --telemetry run.jsonl
    python -m repro.cli --list

``run`` is an explicit alias of the bare form and adds the transport
switch: ``--transport tcp --workers N`` executes the same federation
over real TCP with N worker OS processes on localhost (bit-identical
final classifier, seeds equal).  For multi-host deployments the two
halves run standalone::

    python -m repro.cli run --transport tcp --workers 4 --rounds 2
    python -m repro.cli serve --clients 8 --rounds 2 --port 7733
    python -m repro.cli worker --server HOST:7733 --client-id 0 --client-id 4

Prints per-round progress, the final accuracy table row, the learning
curve, and the communication ledger.  ``--telemetry PATH`` additionally
streams spans / per-round summaries / per-client health records + alerts
to ``PATH`` (JSON Lines); add ``--profile-ops`` for the (opt-in,
per-op-overhead) autograd profile.

Deep-dive flags: ``--memprof`` adds the autograd allocation profiler
(per-client-round memory peaks in the report), ``--record DIR`` arms the
flight recorder — on any health alert a replay bundle lands in ``DIR``.

Subcommands consume telemetry files afterwards::

    python -m repro.cli report run.jsonl          # ASCII health dashboard
    python -m repro.cli diff base.jsonl new.jsonl --gate   # CI regression gate
    python -m repro.cli trace run.jsonl -o trace.json      # Perfetto timeline
    python -m repro.cli trace run.jsonl --ascii            # terminal Gantt
    python -m repro.cli trace-merge run.jsonl run.rank*.jsonl -o trace.json
    python -m repro.cli replay DIR/replay-*.json           # deterministic re-run

``trace-merge`` stitches a telemetered multi-process TCP run (``run
--transport tcp --telemetry run.jsonl`` gives every worker its own
``run.rankN.jsonl``) into one clock-aligned Chrome trace: worker
``local_update`` spans hang under the server round spans that triggered
them.  ``bench-net`` measures the runtime's loopback latency/throughput
trajectory into ``BENCH_latency.json`` the way ``bench-comm`` tracks
bytes.

``diff --gate`` exits non-zero when the candidate run's final accuracy
regresses or its bytes inflate beyond the tolerances — telemetry files
double as CI regression artifacts.  ``replay`` exits non-zero when the
re-executed client round fails to reproduce the recorded loss/grad-norm
trajectory bit-exactly.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import telemetry
from repro.analysis import ascii_curves
from repro.comm import format_bytes
from repro.config import tiny_preset
from repro.experiments.common import run_algorithm
from repro.telemetry import diff_runs, format_diff, gate_violations, read_jsonl, render_report

ALGORITHMS = ("fedclassavg", "baseline", "fedavg", "fedprox", "fedproto", "ktpfl")
DATASETS = (
    "cifar10",
    "fashion_mnist",
    "emnist",
    "cifar10-tiny",
    "fashion_mnist-tiny",
    "emnist-tiny",
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="FedClassAvg reproduction experiment runner"
    )
    p.add_argument("--list", action="store_true", help="list algorithms/datasets and exit")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="fedclassavg")
    p.add_argument("--dataset", choices=DATASETS, default="fashion_mnist-tiny")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--partition", choices=("dirichlet", "skewed", "iid"), default="dirichlet")
    p.add_argument("--sample-rate", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--rho", type=float, default=0.1, help="classifier-proximal weight")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument(
        "--homogeneous",
        metavar="ARCH",
        default=None,
        help="give every client this architecture (required for fedavg/fedprox)",
    )
    p.add_argument(
        "--share-weights",
        action="store_true",
        help="'+weight' variants: exchange full models (fedclassavg/ktpfl)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write span/round/health telemetry to PATH as JSON Lines",
    )
    p.add_argument(
        "--profile-ops",
        action="store_true",
        help="also profile per-op forward/backward time (adds per-op overhead)",
    )
    p.add_argument(
        "--memprof",
        action="store_true",
        help="profile autograd memory (per-client-round peaks; needs --telemetry)",
    )
    p.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="arm the flight recorder: on any health alert write a replay "
        "bundle to DIR (needs --telemetry)",
    )
    p.add_argument(
        "--transport",
        choices=("sim", "tcp"),
        default="sim",
        help="communication backend: in-process SimComm (default) or real "
        "TCP with worker OS processes (fedclassavg only)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker process count for --transport tcp (default 4)",
    )
    _add_wire_arg(p)
    p.add_argument("--port", type=int, default=0, help="TCP server port (0 = ephemeral)")
    p.add_argument(
        "--round-timeout",
        type=float,
        default=60.0,
        help="TCP round deadline in seconds; late uploads are dropped "
        "and the round completes with survivors (default 60)",
    )
    p.add_argument(
        "--save-global",
        metavar="PATH",
        default=None,
        help="write the final global classifier state (wire format) to PATH "
        "— the artifact the sim↔tcp bit-identity check compares",
    )
    _add_robust_args(p)
    _add_fault_tolerance_args(p, with_supervise=True)
    return p


def _wire_mode(value: str) -> str:
    from repro.net.encoding import parse_wire_mode

    try:
        mode, _, _ = parse_wire_mode(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return mode


def _add_wire_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--wire",
        metavar="MODE",
        type=_wire_mode,
        default="delta",
        help="TCP state-frame encoding: full (plain), delta (lossless "
        "XOR+zlib vs the previous frame — the default; finals stay "
        "bit-identical to full/sim), or lossy delta+quant8 / "
        "delta+quant16 / delta+topk<ratio>",
    )


def _add_fault_tolerance_args(p: argparse.ArgumentParser, with_supervise: bool = False) -> None:
    """Fault-tolerance flags shared by `repro run` and `serve`.

    ``--quorum`` / ``--on-quorum-miss`` mean the same thing on both
    transports; the rest need worker processes (``--transport tcp``).
    """
    if with_supervise:
        p.add_argument(
            "--supervise",
            action="store_true",
            help="watch TCP workers and respawn crashed ones (they rejoin "
            "the run) up to --max-restarts times each",
        )
        p.add_argument(
            "--max-restarts",
            type=int,
            default=3,
            help="per-worker respawn budget under --supervise (default 3)",
        )
        p.add_argument(
            "--chaos",
            metavar="JSON",
            default=None,
            help='seeded fault schedule for every worker link, e.g. '
            '\'{"seed": 1, "disconnect_p": 0.1, "bitflip_p": 0.05}\' — '
            "deterministic given the seed (see repro.net.chaos)",
        )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write a server checkpoint (global classifier, round cursor, "
        "sampler RNG, history, cost ledger) to PATH every --checkpoint-every rounds",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="rounds between server checkpoints when --checkpoint is set (default 1)",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume a crashed server from a --checkpoint file; surviving "
        "workers rejoin and the continuation is bit-identical to an "
        "uninterrupted run",
    )
    p.add_argument(
        "--quorum",
        type=float,
        default=None,
        metavar="FRAC",
        help="minimum fraction of the sampled clients whose updates must be "
        "admitted before a round aggregates (e.g. 0.5; dropouts, deadline "
        "misses and firewall rejections all count against it); unset keeps "
        "the aggregate-whatever-arrived rule",
    )
    p.add_argument(
        "--on-quorum-miss",
        choices=("skip_round", "extend_deadline", "abort"),
        default="skip_round",
        help="what a quorum miss does (default skip_round)",
    )


def _aggregator_spec(value: str) -> str:
    from repro.federated.robust import make_aggregator

    try:
        make_aggregator(value)  # validate now; rebuild where it runs
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _add_robust_args(p: argparse.ArgumentParser) -> None:
    """Robust-aggregation flags shared by `repro run` and `serve`."""
    p.add_argument(
        "--aggregator",
        metavar="SPEC",
        type=_aggregator_spec,
        default="mean",
        help="server aggregation rule: mean (Eq. 3 weighted average, the "
        "default), coordinate_median, trimmed_mean[:beta], "
        "norm_clipped_mean[:max_norm], krum[:f], or multi_krum[:f[:m]]",
    )
    p.add_argument(
        "--adversaries",
        metavar="JSON",
        default=None,
        help="seeded per-client adversary personas, e.g. "
        '\'{"seed": 7, "clients": {"1": "sign_flip", "2": "nan_bomb"}}\' — '
        "attacks replay bit-identically given the seed (see repro.net.chaos)",
    )
    p.add_argument(
        "--no-firewall",
        action="store_true",
        help="disable the update admission firewall (by default every "
        "collected update passes schema/NaN/norm/cosine validators and "
        "rejected updates are excluded from aggregation like dropouts)",
    )


def _firewall_from_args(args):
    if getattr(args, "no_firewall", False):
        return None
    from repro.federated.firewall import default_firewall

    return default_firewall()


def _adversaries_from_args(args):
    raw = getattr(args, "adversaries", None)
    if not raw:
        return None
    from repro.net.chaos import AdversarySchedule

    return AdversarySchedule.from_json(raw)


def _quorum_from_args(args):
    if getattr(args, "quorum", None) is None:
        return None
    from repro.federated.quorum import QuorumPolicy

    return QuorumPolicy(min_fraction=args.quorum, on_miss=args.on_quorum_miss)


def _chaos_from_args(args):
    raw = getattr(args, "chaos", None)
    if not raw:
        return None
    from repro.net.chaos import ChaosConfig

    return ChaosConfig.from_json(raw)


def build_serve_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro serve",
        description="run a standalone FedClassAvg TCP server (workers join "
        "with `repro worker --server HOST:PORT --client-id K`)",
    )
    p.add_argument("--host", default="0.0.0.0", help="bind address (default 0.0.0.0)")
    p.add_argument("--port", type=int, default=7733, help="listen port (default 7733)")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--rounds", type=int, default=6)
    p.add_argument("--dataset", choices=DATASETS, default="fashion_mnist-tiny")
    p.add_argument("--partition", choices=("dirichlet", "skewed", "iid"), default="dirichlet")
    p.add_argument("--sample-rate", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--local-epochs", type=int, default=1)
    p.add_argument("--join-timeout", type=float, default=300.0)
    p.add_argument("--round-timeout", type=float, default=300.0)
    p.add_argument("--telemetry", metavar="PATH", default=None)
    p.add_argument("--save-global", metavar="PATH", default=None)
    p.add_argument(
        "--rejoin-grace",
        type=float,
        default=0.0,
        help="seconds a round keeps waiting for a lost worker to rejoin "
        "(default 0 — lost workers are written off immediately)",
    )
    _add_wire_arg(p)
    _add_robust_args(p)
    _add_fault_tolerance_args(p)
    return p


def build_worker_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro worker",
        description="run a federated worker process: dials the server, "
        "receives the run config, and trains its clients over TCP",
    )
    p.add_argument(
        "--server", required=True, metavar="HOST:PORT", help="server address to dial"
    )
    p.add_argument(
        "--client-id",
        type=int,
        action="append",
        required=True,
        dest="client_ids",
        help="client id owned by this worker (repeatable)",
    )
    p.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="write this worker's span/clock telemetry to PATH as JSON "
        "Lines (merge with the server's file via `repro trace-merge`)",
    )
    p.add_argument("--verbose", action="store_true")
    p.add_argument(
        "--rejoin",
        action="store_true",
        help="announce as a rejoining worker (respawned replacements use "
        "this; the server re-admits instead of treating it as a late join)",
    )
    p.add_argument(
        "--no-reconnect",
        action="store_true",
        help="exit on connection loss instead of redialing and rejoining",
    )
    p.add_argument(
        "--max-rejoins",
        type=int,
        default=25,
        help="give up after this many in-process rejoins (default 25)",
    )
    p.add_argument(
        "--rng-seed",
        type=int,
        default=None,
        help="seed for connection-retry jitter (the launcher passes the "
        "run seed so retry timing is reproducible)",
    )
    # chaos hooks for fault-path tests: keep failure modes reproducible
    p.add_argument("--chaos", default=None, help=argparse.SUPPRESS)
    p.add_argument("--die-at-round", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--stall-at-round", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--stall-s", type=float, default=0.0, help=argparse.SUPPRESS)
    return p


def build_report_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro report", description="render an ASCII dashboard from a telemetry JSONL file"
    )
    p.add_argument("path", help="telemetry JSONL file written by --telemetry")
    return p


def build_diff_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro diff", description="compare two telemetry JSONL files (baseline vs candidate)"
    )
    p.add_argument("baseline", help="baseline run's telemetry JSONL")
    p.add_argument("candidate", help="candidate run's telemetry JSONL")
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when the candidate regresses beyond the tolerances",
    )
    p.add_argument(
        "--acc-drop",
        type=float,
        default=0.01,
        help="gate tolerance for final-accuracy regression (default 0.01)",
    )
    p.add_argument(
        "--bytes-inflate",
        type=float,
        default=0.10,
        help="gate tolerance for total-bytes inflation, fractional (default 0.10)",
    )
    p.add_argument(
        "--fail-on-new-alerts",
        action="store_true",
        help="also gate on the candidate producing more alerts than the baseline",
    )
    return p


def build_bench_comm_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench-comm",
        description="measure the wire's communication cost on a loopback TCP "
        "federation (full vs delta encoding) and track/gate the trajectory "
        "in a BENCH_comm.json file",
    )
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--dataset", choices=DATASETS, default="fashion_mnist-tiny")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_comm.json",
        help="trajectory file to append this measurement to (default BENCH_comm.json)",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="committed BENCH_comm.json to compare the fresh measurement against",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero on byte regression vs --baseline or on the delta "
        "wire saving less than --min-savings",
    )
    p.add_argument(
        "--bytes-inflate",
        type=float,
        default=0.15,
        help="allowed fractional growth of steady-state delta-wire bytes vs "
        "the baseline entry (default 0.15 — heartbeat timing adds noise)",
    )
    p.add_argument(
        "--min-savings",
        type=float,
        default=0.30,
        help="required fractional steady-state byte savings of delta vs full "
        "(default 0.30)",
    )
    return p


def _steady_round_bytes(per_round: list) -> float:
    """Steady-state per-round bytes: mean over rounds after the first.

    Round 0 carries init traffic (initial classifier reports) and the
    delta wire's snapshot warm-up; the steady state is what scales with
    round count.
    """
    tail = per_round[1:] if len(per_round) > 1 else per_round
    return float(sum(tail)) / max(1, len(tail))


def bench_comm_main(argv: list[str]) -> int:
    import json
    import os
    from dataclasses import asdict

    from repro.experiments.common import make_spec
    from repro.net.launcher import run_tcp_federation

    args = build_bench_comm_parser().parse_args(argv)
    preset = tiny_preset(
        args.dataset,
        num_clients=args.clients,
        rounds=args.rounds,
        n_train=args.clients * 80,
    )
    spec = make_spec(preset, "dirichlet", None, args.seed)

    entry: dict = {
        "rounds": args.rounds,
        "clients": args.clients,
        "workers": args.workers,
        "dataset": args.dataset,
        "seed": args.seed,
        "wires": {},
    }
    for wire in ("full", "delta"):
        t0 = time.perf_counter()
        result, exit_codes = run_tcp_federation(
            asdict(spec),
            rounds=args.rounds,
            workers=args.workers,
            seed=args.seed,
            wire=wire,
        )
        wall_s = time.perf_counter() - t0
        bad = [c for c in exit_codes if c != 0]
        if bad:
            print(f"error: {len(bad)} worker(s) exited non-zero on the {wire} wire",
                  file=sys.stderr)
            return 1
        cost = result.cost
        entry["wires"][wire] = {
            "total_bytes": cost.total_bytes,
            "uplink_bytes": cost.uplink_bytes(),
            "downlink_bytes": cost.downlink_bytes(),
            "per_round_bytes": list(cost.per_round),
            "steady_round_bytes": _steady_round_bytes(cost.per_round),
            "per_client_round_bytes": cost.per_client_round_bytes(args.clients),
            "frames": cost.total_messages,
            "wall_s": wall_s,
            "codec": result.codec_stats,
        }
        print(
            f"{wire:>5} wire: {format_bytes(cost.total_bytes)} total, "
            f"{format_bytes(entry['wires'][wire]['steady_round_bytes'])}/round steady, "
            f"{cost.total_messages} frames, {wall_s:.1f}s wall"
        )

    full_s = entry["wires"]["full"]["steady_round_bytes"]
    delta_s = entry["wires"]["delta"]["steady_round_bytes"]
    savings = 1.0 - delta_s / full_s if full_s else 0.0
    entry["delta_savings"] = savings
    print(f"steady-state delta savings vs full wire: {savings:.1%}")

    doc = {"schema": 1, "entries": []}
    if os.path.exists(args.output):
        with open(args.output) as fh:
            doc = json.load(fh)
    doc["entries"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trajectory entry written to {args.output}")

    failures: list[str] = []
    if savings < args.min_savings:
        failures.append(
            f"delta wire saves {savings:.1%} steady-state bytes, "
            f"needs >= {args.min_savings:.0%}"
        )
    if args.baseline is not None and os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            base_entries = json.load(fh).get("entries", [])
        if base_entries:
            base = base_entries[-1]["wires"]["delta"]["steady_round_bytes"]
            if delta_s > base * (1.0 + args.bytes_inflate):
                failures.append(
                    f"steady-state delta-wire bytes regressed: {delta_s:.0f} vs "
                    f"baseline {base:.0f} (+{delta_s / base - 1.0:.1%} > "
                    f"+{args.bytes_inflate:.0%} allowed)"
                )
            else:
                print(
                    f"baseline check: {delta_s:.0f} B/round vs committed "
                    f"{base:.0f} B/round — within tolerance"
                )
    for f in failures:
        print(f"bench gate: FAIL — {f}", file=sys.stderr if args.gate else sys.stdout)
    if failures:
        return 1 if args.gate else 0
    print("bench gate: OK")
    return 0


def build_bench_net_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro bench-net",
        description="measure the TCP runtime's latency/throughput on a "
        "loopback federation (rounds/sec, bytes/sec, per-phase critical-path "
        "percentiles, heartbeat RTT) and track/gate the trajectory in a "
        "BENCH_latency.json file",
    )
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--dataset", choices=DATASETS, default="fashion_mnist-tiny")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_latency.json",
        help="trajectory file to append this measurement to (default BENCH_latency.json)",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="committed BENCH_latency.json to compare the fresh measurement against",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="exit non-zero when rounds/sec regresses vs --baseline beyond --slowdown",
    )
    p.add_argument(
        "--slowdown",
        type=float,
        default=0.5,
        help="allowed fractional rounds/sec regression vs the baseline entry "
        "(default 0.5 — loopback wall time on shared CI machines is noisy)",
    )
    return p


def bench_net_main(argv: list[str]) -> int:
    import json
    import os
    import tempfile
    from dataclasses import asdict

    from repro.experiments.common import make_spec
    from repro.net.launcher import rank_telemetry_path, run_tcp_federation

    args = build_bench_net_parser().parse_args(argv)
    preset = tiny_preset(
        args.dataset,
        num_clients=args.clients,
        rounds=args.rounds,
        n_train=args.clients * 80,
    )
    spec = make_spec(preset, "dirichlet", None, args.seed)

    # one fully-telemetered loopback run: the server exports into this
    # process's registry (phase + wire latencies), each worker writes its
    # own rank file (clock-offset / heartbeat-RTT samples)
    rtts: list[float] = []
    with tempfile.TemporaryDirectory(prefix="bench-net-") as tmp:
        base = os.path.join(tmp, "bench.jsonl")
        tel = telemetry.configure(jsonl=base, health=False, process={"role": "server"})
        t0 = time.perf_counter()
        try:
            result, exit_codes = run_tcp_federation(
                asdict(spec),
                rounds=args.rounds,
                workers=args.workers,
                seed=args.seed,
                worker_telemetry=base,
            )
        finally:
            wall_s = time.perf_counter() - t0
            snap = tel.metrics.snapshot()
            tel.close()
            telemetry.disable()
        bad = [c for c in exit_codes if c != 0]
        if bad:
            print(f"error: {len(bad)} worker(s) exited non-zero", file=sys.stderr)
            return 1
        for rank in range(1, len(exit_codes) + 1):
            path = rank_telemetry_path(base, rank)
            if os.path.exists(path):
                for rec in read_jsonl(path):
                    if rec.get("type") == "clock" and "rtt_s" in rec:
                        rtts.append(float(rec["rtt_s"]))

    latencies = snap.get("latencies", {})
    phases = {
        name[len("net.phase."):]: summ
        for name, summ in latencies.items()
        if name.startswith("net.phase.")
    }
    wire = {
        name: summ
        for name, summ in latencies.items()
        if name.startswith("net.") and not name.startswith("net.phase.")
    }
    cost = result.cost
    rtts.sort()
    rounds_per_s = args.rounds / wall_s if wall_s > 0 else 0.0
    bytes_per_s = cost.total_bytes / wall_s if wall_s > 0 else 0.0
    entry: dict = {
        "rounds": args.rounds,
        "clients": args.clients,
        "workers": args.workers,
        "dataset": args.dataset,
        "seed": args.seed,
        "wall_s": wall_s,
        "rounds_per_s": rounds_per_s,
        "total_bytes": cost.total_bytes,
        "bytes_per_s": bytes_per_s,
        "phases": phases,
        "wire": wire,
        "heartbeat": {
            "echoes": len(rtts),
            "min_rtt_s": rtts[0] if rtts else None,
            "p50_rtt_s": rtts[len(rtts) // 2] if rtts else None,
        },
    }

    print(
        f"bench-net: {args.rounds} rounds x {args.clients} clients over "
        f"{args.workers} workers in {wall_s:.1f}s — {rounds_per_s:.3f} rounds/s, "
        f"{format_bytes(bytes_per_s)}/s on the wire"
    )
    for name in ("broadcast_s", "compute_s", "queue_s", "wait_s", "aggregate_s"):
        s = phases.get(name)
        if s:
            print(
                f"  {name[:-2]:>9}: p50 {s['p50'] * 1e3:8.2f} ms   "
                f"p95 {s['p95'] * 1e3:8.2f} ms   p99 {s['p99'] * 1e3:8.2f} ms"
            )
    if rtts:
        print(
            f"  heartbeat RTT: {len(rtts)} sample(s), min "
            f"{rtts[0] * 1e3:.2f} ms, p50 {rtts[len(rtts) // 2] * 1e3:.2f} ms"
        )

    doc = {"schema": 1, "entries": []}
    if os.path.exists(args.output):
        with open(args.output) as fh:
            doc = json.load(fh)
    doc["entries"].append(entry)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"trajectory entry written to {args.output}")

    failures: list[str] = []
    if args.baseline is not None and os.path.exists(args.baseline):
        with open(args.baseline) as fh:
            base_entries = json.load(fh).get("entries", [])
        if base_entries:
            base_rps = float(base_entries[-1]["rounds_per_s"])
            if rounds_per_s < base_rps * (1.0 - args.slowdown):
                failures.append(
                    f"rounds/sec regressed: {rounds_per_s:.3f} vs baseline "
                    f"{base_rps:.3f} ({rounds_per_s / base_rps - 1.0:+.1%} < "
                    f"-{args.slowdown:.0%} allowed)"
                )
            else:
                print(
                    f"baseline check: {rounds_per_s:.3f} rounds/s vs committed "
                    f"{base_rps:.3f} rounds/s — within tolerance"
                )
    for f in failures:
        print(f"bench gate: FAIL — {f}", file=sys.stderr if args.gate else sys.stdout)
    if failures:
        return 1 if args.gate else 0
    print("bench gate: OK")
    return 0


def build_trace_merge_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace-merge",
        description="merge one server + N worker telemetry JSONLs into a "
        "single clock-aligned Chrome/Perfetto trace; worker local_update "
        "spans hang under the server round spans that triggered them",
    )
    p.add_argument("server", help="server telemetry JSONL (rank 0)")
    p.add_argument(
        "workers",
        nargs="*",
        help="worker telemetry JSONLs in rank order (run.rank1.jsonl ...)",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="TRACE.json",
        default=None,
        help="merged trace-event JSON path (default: <server>.merged.trace.json)",
    )
    p.add_argument(
        "--require-parented",
        action="store_true",
        help="exit non-zero unless at least one worker span parents across "
        "the process boundary (the CI smoke for trace propagation)",
    )
    return p


def trace_merge_main(argv: list[str]) -> int:
    import json

    args = build_trace_merge_parser().parse_args(argv)
    trace = telemetry.merge_traces(
        read_jsonl(args.server), [read_jsonl(p) for p in args.workers]
    )
    out = args.output if args.output is not None else args.server + ".merged.trace.json"
    with open(out, "w") as fh:
        json.dump(trace, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    n = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    parented = telemetry.count_remote_parented(trace)
    print(
        f"wrote {n} spans across {1 + len(args.workers)} process(es) to {out} "
        f"({parented} cross-process parent edge(s); load in ui.perfetto.dev)"
    )
    if args.require_parented and parented == 0:
        print(
            "trace-merge: FAIL — no worker span is parented under a server "
            "round span (was the run telemetered on every rank?)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="convert a telemetry JSONL file to a Chrome/Perfetto trace timeline",
    )
    p.add_argument("path", help="telemetry JSONL file written by --telemetry")
    p.add_argument(
        "-o",
        "--output",
        metavar="TRACE.json",
        default=None,
        help="trace-event JSON output path (default: <input>.trace.json)",
    )
    p.add_argument(
        "--ascii",
        action="store_true",
        help="print an ASCII per-round Gantt chart instead of writing JSON",
    )
    p.add_argument(
        "--width", type=int, default=48, help="ASCII chart width in characters (default 48)"
    )
    return p


def build_replay_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro replay",
        description="re-run a flight-recorder bundle and verify it reproduces bit-exactly",
    )
    p.add_argument("bundle", help="replay bundle JSON written by the flight recorder")
    return p


def trace_main(argv: list[str]) -> int:
    args = build_trace_parser().parse_args(argv)
    records = read_jsonl(args.path)
    if args.ascii:
        print(telemetry.ascii_gantt(records, width=args.width))
        if args.output is None:
            return 0
    out = args.output if args.output is not None else args.path + ".trace.json"
    n = telemetry.write_chrome_trace(records, out)
    if n == 0:
        print(f"warning: no spans in {args.path} (was the run telemetered?)", file=sys.stderr)
    print(f"wrote {n} trace events to {out} (load in ui.perfetto.dev or chrome://tracing)")
    return 0


def replay_main(argv: list[str]) -> int:
    # imported lazily: replay pulls in the full federated stack
    from repro.telemetry.replay import format_replay_result, load_bundle, replay_bundle

    args = build_replay_parser().parse_args(argv)
    result = replay_bundle(load_bundle(args.bundle))
    print(format_replay_result(result))
    return 0 if result["match"] else 1


def report_main(argv: list[str]) -> int:
    args = build_report_parser().parse_args(argv)
    print(render_report(read_jsonl(args.path)))
    return 0


def diff_main(argv: list[str]) -> int:
    args = build_diff_parser().parse_args(argv)
    diff = diff_runs(read_jsonl(args.baseline), read_jsonl(args.candidate))
    print(format_diff(diff, name_a=args.baseline, name_b=args.candidate))
    violations = gate_violations(
        diff,
        acc_drop_tol=args.acc_drop,
        bytes_inflate_tol=args.bytes_inflate,
        allow_new_alerts=not args.fail_on_new_alerts,
    )
    if violations:
        for v in violations:
            print(f"gate: FAIL — {v}", file=sys.stderr if args.gate else sys.stdout)
        return 1 if args.gate else 0
    print("gate: OK")
    return 0


def _save_global_state(state, path: str) -> None:
    """Persist a state dict in the wire format (the bit-identity artifact)."""
    from repro.utils.serialization import state_dict_to_bytes

    with open(path, "wb") as fh:
        fh.write(state_dict_to_bytes(state))
    print(f"final global classifier written to {path}")


def serve_main(argv: list[str]) -> int:
    from dataclasses import asdict

    from repro.config import tiny_preset
    from repro.net.server import FedTcpServer, make_run_config

    args = build_serve_parser().parse_args(argv)
    preset = tiny_preset(
        args.dataset,
        num_clients=args.clients,
        rounds=args.rounds,
        n_train=args.clients * 80,
        batch_size=args.batch_size,
        lr=args.lr,
        rho=args.rho,
        sample_rate=args.sample_rate,
    )
    from repro.experiments.common import make_spec

    spec = make_spec(preset, args.partition, None, args.seed)
    tel = (
        telemetry.configure(jsonl=args.telemetry, process={"role": "server"})
        if args.telemetry
        else None
    )
    adversaries = _adversaries_from_args(args)
    server = FedTcpServer(
        args.clients,
        args.rounds,
        make_run_config(
            asdict(spec),
            trainer={"rho": args.rho},
            local_epochs=args.local_epochs,
            wire=args.wire,
            adversaries=adversaries.to_config() if adversaries is not None else None,
        ),
        host=args.host,
        port=args.port,
        sample_rate=args.sample_rate,
        seed=args.seed,
        local_epochs=args.local_epochs,
        join_timeout_s=args.join_timeout,
        round_timeout_s=args.round_timeout,
        quorum=_quorum_from_args(args),
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
        resume=args.resume,
        rejoin_grace_s=args.rejoin_grace,
        aggregator=args.aggregator,
        firewall=_firewall_from_args(args),
        verbose=True,
    )
    host, port = server.listen()
    print(f"serving FedClassAvg on {host}:{port} — waiting for {args.clients} client(s)")
    try:
        result = server.run()
    finally:
        if tel is not None:
            tel.close()
            telemetry.disable()
    mean, std = result.history.final_acc()
    print(f"final accuracy: {mean:.4f} ± {std:.4f}")
    print(f"communication: {format_bytes(result.cost.total_bytes)} total (socket-measured)")
    if args.save_global:
        _save_global_state(result.global_state, args.save_global)
    return 0


def worker_main(argv: list[str]) -> int:
    from repro.net.worker import WorkerOptions, run_worker

    args = build_worker_parser().parse_args(argv)
    host, sep, port = args.server.rpartition(":")
    if not sep or not port.isdigit():
        print(f"error: --server must be HOST:PORT, got {args.server!r}", file=sys.stderr)
        return 2
    options = WorkerOptions(
        die_at_round=args.die_at_round,
        stall_at_round=args.stall_at_round,
        stall_s=args.stall_s,
        verbose=args.verbose,
        rejoin=args.rejoin,
        reconnect=not args.no_reconnect,
        max_rejoins=args.max_rejoins,
        chaos=_chaos_from_args(args),
        rng_seed=args.rng_seed,
    )
    # workers export spans + clock-offset samples only — health detection
    # and round summaries live server-side
    tel = (
        telemetry.configure(
            jsonl=args.telemetry,
            health=False,
            process={"role": "worker", "clients": args.client_ids},
        )
        if args.telemetry
        else None
    )
    try:
        return run_worker(host, int(port), args.client_ids, options)
    finally:
        if tel is not None:
            tel.close()
            telemetry.disable()


def tcp_run_main(args) -> int:
    """The --transport tcp leg of `repro run`: launcher + N worker processes."""
    from dataclasses import asdict

    from repro.experiments.common import make_spec
    from repro.net.launcher import run_tcp_federation

    if args.algorithm != "fedclassavg":
        print("error: --transport tcp currently supports --algorithm fedclassavg", file=sys.stderr)
        return 2
    preset = tiny_preset(
        args.dataset,
        num_clients=args.clients,
        rounds=args.rounds,
        n_train=args.clients * 80,
        batch_size=args.batch_size,
        lr=args.lr,
        rho=args.rho,
        sample_rate=args.sample_rate,
    )
    spec = make_spec(preset, args.partition, args.homogeneous, args.seed)
    tel = (
        telemetry.configure(jsonl=args.telemetry, process={"role": "server"})
        if args.telemetry
        else None
    )
    try:
        result, exit_codes = run_tcp_federation(
            asdict(spec),
            rounds=args.rounds,
            workers=args.workers,
            trainer={"rho": args.rho},
            share_all_weights=args.share_weights,
            sample_rate=args.sample_rate,
            seed=args.seed,
            port=args.port,
            round_timeout_s=args.round_timeout,
            chaos_config=_chaos_from_args(args),
            supervise=args.supervise,
            max_restarts=args.max_restarts,
            quorum=_quorum_from_args(args),
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every if args.checkpoint else 0,
            resume=args.resume,
            wire=args.wire,
            aggregator=args.aggregator,
            firewall=_firewall_from_args(args),
            adversaries=_adversaries_from_args(args),
            worker_telemetry=args.telemetry,
        )
    finally:
        if tel is not None:
            tel.close()
            telemetry.disable()
    history, cost = result.history, result.cost
    bad = [c for c in exit_codes if c != 0]
    mean, std = history.final_acc()
    print(
        f"\nfedclassavg on {args.dataset} ({args.partition}, {args.clients} clients, "
        f"tcp x{args.workers} workers)"
    )
    print(ascii_curves({"fedclassavg": history.mean_curve}, height=10, width=50))
    print(f"final accuracy: {mean:.4f} ± {std:.4f}  (best round: {history.best_acc():.4f})")
    print(
        f"communication: {format_bytes(cost.total_bytes)} total (socket-measured), "
        f"{format_bytes(cost.per_client_round_bytes(args.clients))} per client-round"
    )
    cs = result.codec_stats
    if args.wire != "full" and cs.get("frames_encoded"):
        print(
            f"wire codec ({args.wire}): {cs['deltas']} delta + {cs['snapshots']} snapshot "
            f"frames down, {format_bytes(cs['raw_bytes'])} raw -> "
            f"{format_bytes(cs['wire_bytes'])} framed"
        )
    if bad:
        print(f"warning: {len(bad)} worker(s) exited non-zero: {exit_codes}", file=sys.stderr)
    if args.telemetry:
        from repro.net.launcher import rank_telemetry_path

        worker_files = " ".join(
            rank_telemetry_path(args.telemetry, i + 1) for i in range(len(exit_codes))
        )
        print(f"telemetry written to {args.telemetry} (+ per-worker rank files)")
        print(
            f"merge the timeline: python -m repro.cli trace-merge "
            f"{args.telemetry} {worker_files} -o trace.json"
        )
    if args.save_global:
        _save_global_state(result.global_state, args.save_global)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "diff":
        return diff_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return worker_main(argv[1:])
    if argv and argv[0] == "bench-comm":
        return bench_comm_main(argv[1:])
    if argv and argv[0] == "bench-net":
        return bench_net_main(argv[1:])
    if argv and argv[0] == "trace-merge":
        return trace_merge_main(argv[1:])
    if argv and argv[0] == "run":  # explicit alias of the bare form
        argv = argv[1:]

    args = build_parser().parse_args(argv)
    if args.list:
        print("algorithms:", ", ".join(ALGORITHMS))
        print("datasets:  ", ", ".join(DATASETS))
        return 0

    if args.algorithm in ("fedavg", "fedprox") and args.homogeneous is None:
        print(f"error: --algorithm {args.algorithm} requires --homogeneous ARCH", file=sys.stderr)
        return 2
    if args.transport == "tcp":
        return tcp_run_main(args)
    tcp_only = [f for f in ("checkpoint", "resume", "supervise", "chaos") if getattr(args, f)]
    if tcp_only:
        print(f"error: --{'/--'.join(tcp_only)} require --transport tcp", file=sys.stderr)
        return 2

    preset = tiny_preset(
        args.dataset,
        num_clients=args.clients,
        rounds=args.rounds,
        n_train=args.clients * 80,
        batch_size=args.batch_size,
        lr=args.lr,
        rho=args.rho,
        sample_rate=args.sample_rate,
    )
    if args.algorithm == "fedclassavg":
        fca_kwargs = {
            "share_all_weights": args.share_weights,
            "aggregator": args.aggregator,
            "firewall": _firewall_from_args(args),
            "adversaries": _adversaries_from_args(args),
            "quorum": _quorum_from_args(args),
        }
    else:
        if (
            args.aggregator != "mean"
            or args.adversaries
            or args.no_firewall
            or args.quorum is not None
        ):
            print(
                "error: --aggregator/--adversaries/--no-firewall/--quorum currently "
                "support --algorithm fedclassavg",
                file=sys.stderr,
            )
            return 2
        fca_kwargs = None
    if (args.memprof or args.record) and not args.telemetry:
        print("error: --memprof/--record require --telemetry PATH", file=sys.stderr)
        return 2
    tel = (
        telemetry.configure(
            jsonl=args.telemetry,
            profile_ops=args.profile_ops,
            memory=args.memprof,
            recorder=args.record,
        )
        if args.telemetry
        else None
    )
    if tel is not None and tel.recorder is not None:
        # store the exact federation spec so a persisted bundle is
        # self-contained — `cli replay` rebuilds the identical client
        from dataclasses import asdict

        from repro.experiments.common import fedproto_spec, make_spec

        spec = make_spec(preset, args.partition, args.homogeneous, args.seed)
        if args.algorithm == "fedproto" and args.homogeneous is None:
            spec = fedproto_spec(spec)
        tel.recorder.set_run_config(
            spec=asdict(spec), algorithm=args.algorithm, local_epochs=1
        )
    try:
        history, cost, algo = run_algorithm(
            args.algorithm,
            preset,
            partition=args.partition,
            rounds=args.rounds,
            homogeneous_arch=args.homogeneous,
            share_weights=args.share_weights,
            seed=args.seed,
            fedclassavg_kwargs=fca_kwargs,
            return_algo=True,
        )
    finally:
        if tel is not None:
            tel.close()
            telemetry.disable()

    if tel is not None:
        print("\ntelemetry: per-round breakdown")
        print(telemetry.format_round_summary(tel.rounds))
        if tel.ops is not None:
            print("\ntelemetry: op profile")
            print(telemetry.format_op_profile(tel.ops.totals()))
        if tel.memory is not None and tel.memory.records:
            print("\ntelemetry: memory profile")
            print(telemetry.format_mem_summary(tel.memory.records))
        if tel.health is not None and tel.health.alerts:
            print(f"\ntelemetry: {len(tel.health.alerts)} health alert(s)")
            for alert in tel.health.alerts:
                print(f"  [{alert['severity']}] {alert['detector']}: {alert['message']}")
        if tel.recorder is not None:
            if tel.recorder.bundles_written:
                print(f"\ntelemetry: {len(tel.recorder.bundles_written)} replay bundle(s)")
                for path in tel.recorder.bundles_written:
                    print(f"  {path}  (re-run: python -m repro.cli replay {path})")
            else:
                print("\ntelemetry: flight recorder armed, no alerts — no bundles written")
        print(f"telemetry written to {args.telemetry}")

    mean, std = history.final_acc()
    print(f"\n{args.algorithm} on {args.dataset} ({args.partition}, {args.clients} clients)")
    print(ascii_curves({args.algorithm: history.mean_curve}, height=10, width=50))
    print(f"final accuracy: {mean:.4f} ± {std:.4f}  (best round: {history.best_acc():.4f})")
    print(
        f"communication: {format_bytes(cost.total_bytes)} total, "
        f"{format_bytes(cost.per_client_round_bytes(args.clients))} per client-round"
    )
    if args.save_global:
        state = getattr(algo, "global_state", None)
        if state is None:
            print(f"warning: {args.algorithm} has no global state to save", file=sys.stderr)
        else:
            _save_global_state(state, args.save_global)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
