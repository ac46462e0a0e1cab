"""Single-machine launcher: one TCP server + N worker OS processes.

``run_tcp_federation`` is what ``python -m repro.cli run --transport tcp
--workers N`` executes: it binds the server on localhost, forks ``N``
real worker processes (``python -m repro.cli worker --server host:port
--client-id …`` — the same entry point a multi-host deployment runs by
hand), drives the rounds, and then reaps every child so no orphaned
process or port outlives the run, even when a worker was deliberately
killed mid-round.

Clients are placed by estimated cost, not by count (DESIGN.md
"Placement"): a worker trains its clients one after another and the round
waits for the busiest worker.  Round-robin (``k % N == i``) is what the
rule gives under equal costs; under the paper's ``k mod 4`` architectures
it stacks both googlenets on one of two workers.
"""

from __future__ import annotations

import os
import subprocess
import sys

from repro.comm.cost import CostModel
from repro.federated.setup import FederationSpec, client_costs
from repro.net.chaos import ChaosConfig
from repro.net.server import FedTcpServer, QuorumPolicy, ServerResult, make_run_config
from repro.net.supervisor import WorkerSupervisor

__all__ = [
    "assign_clients",
    "place_clients",
    "rank_telemetry_path",
    "worker_command",
    "launch_workers",
    "reap_workers",
    "run_tcp_federation",
]


def assign_clients(
    num_clients: int, num_workers: int, costs: list[float] | None = None
) -> list[list[int]]:
    """Longest-processing-time client→worker placement; drops empty workers.

    Clients are taken by ``(-cost, id)`` and each goes to the least-loaded
    worker (ties to the lowest worker index), so the result is a pure
    function of the arguments and equal or absent costs give the
    round-robin groups ``k % num_workers == i``.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    costs = [1] * num_clients if costs is None else list(costs)
    if len(costs) != num_clients:
        raise ValueError(f"{len(costs)} costs for {num_clients} clients")
    groups: list[list[int]] = [[] for _ in range(num_workers)]
    load = [0] * num_workers
    for k in sorted(range(num_clients), key=lambda k: (-costs[k], k)):
        i = min(range(num_workers), key=lambda i: (load[i], i))
        groups[i].append(k)
        load[i] += costs[k]
    return [sorted(g) for g in groups if g]


def place_clients(spec_dict: dict, num_workers: int) -> list[list[int]]:
    """The groups ``run_tcp_federation`` hands its workers: pure in
    ``(spec, workers)``, so a resumed run or a test computes the same ones."""
    spec = FederationSpec(**spec_dict)
    return assign_clients(spec.num_clients, num_workers, client_costs(spec))


def rank_telemetry_path(base: str, rank: int) -> str:
    """Per-rank telemetry path: ``run.jsonl`` → ``run.rank2.jsonl``.

    Rank 0 is the server (which keeps ``base`` itself); workers take
    ranks 1..N.  Keeping one file per process sidesteps interleaved
    writes — ``trace-merge`` reassembles the streams afterwards.
    """
    stem, ext = os.path.splitext(base)
    return f"{stem}.rank{rank}{ext or '.jsonl'}"


def _worker_env(workers: int) -> dict:
    """Child env: ``repro``'s parent directory on PYTHONPATH, BLAS threads shared out.

    The launcher may run from any CWD (pytest tmpdirs, CI checkouts);
    the children must import the same ``repro`` we are running.

    ``workers`` processes each starting a BLAS pool as wide as the machine
    oversubscribe it (4 workers x 2 threads on 2 cores ran 3x slower than
    pinned), so each child gets ``cores // workers`` threads, at least
    one.  A value the user exported wins.
    """
    import repro

    env = dict(os.environ)
    pkg_parent = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = pkg_parent + (os.pathsep + existing if existing else "")
    threads = str(max(1, (os.cpu_count() or 1) // max(1, workers)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    return env


def worker_command(
    host: str, port: int, ids: list[int], verbose: bool = False, extra: list[str] | None = None
) -> list[str]:
    """The ``repro.cli worker`` command line for one client group."""
    cmd = [sys.executable, "-m", "repro.cli", "worker", "--server", f"{host}:{port}"]
    for k in ids:
        cmd += ["--client-id", str(k)]
    if verbose:
        cmd.append("--verbose")
    cmd += list(extra or [])
    return cmd


def launch_workers(
    host: str,
    port: int,
    assignment: list[list[int]],
    chaos: dict[int, list[str]] | None = None,
    common_flags: list[str] | None = None,
    telemetry_base: str | None = None,
    verbose: bool = False,
) -> list[subprocess.Popen]:
    """Spawn one ``repro.cli worker`` process per assignment group.

    ``chaos`` maps a worker index to extra CLI flags (the failure hooks
    — e.g. ``{1: ["--die-at-round", "1"]}``) for fault-path tests;
    ``common_flags`` go to every worker (chaos schedule, rng seed);
    ``telemetry_base`` turns on per-worker telemetry — worker ``i``
    writes ``rank_telemetry_path(telemetry_base, i + 1)``.
    """
    procs = []
    env = _worker_env(len(assignment))
    for i, ids in enumerate(assignment):
        extra = list(common_flags or []) + (chaos or {}).get(i, [])
        if telemetry_base is not None:
            extra += ["--telemetry", rank_telemetry_path(telemetry_base, i + 1)]
        cmd = worker_command(host, port, ids, verbose=verbose, extra=extra)
        procs.append(
            subprocess.Popen(
                cmd,
                env=env,
                stdout=None if verbose else subprocess.DEVNULL,
                stderr=None if verbose else subprocess.DEVNULL,
            )
        )
    return procs


def reap_workers(procs: list[subprocess.Popen], timeout_s: float = 10.0) -> list[int | None]:
    """Wait for every worker; escalate to terminate/kill. Returns exit codes."""
    codes: list[int | None] = []
    for p in procs:
        try:
            codes.append(p.wait(timeout=timeout_s))
            continue
        except subprocess.TimeoutExpired:
            p.terminate()
        try:
            codes.append(p.wait(timeout=2.0))
        except subprocess.TimeoutExpired:
            p.kill()
            codes.append(p.wait(timeout=2.0))
    return codes


def run_tcp_federation(
    spec_dict: dict,
    rounds: int,
    workers: int,
    trainer: dict | None = None,
    local_epochs: int = 1,
    share_all_weights: bool = False,
    sample_rate: float = 1.0,
    seed: int = 0,
    eval_every: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    join_timeout_s: float = 60.0,
    round_timeout_s: float = 60.0,
    liveness_timeout_s: float = 15.0,
    heartbeat_s: float = 0.5,
    cost_model: CostModel | None = None,
    chaos: dict[int, list[str]] | None = None,
    chaos_config: ChaosConfig | None = None,
    supervise: bool = False,
    max_restarts: int = 3,
    quorum: QuorumPolicy | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    resume: str | None = None,
    rejoin_grace_s: float | None = None,
    crash_after_round: int | None = None,
    crash_in_round: int | None = None,
    wire: str = "delta",
    aggregator=None,
    firewall=None,
    adversaries=None,
    worker_telemetry: str | None = None,
    verbose: bool = False,
) -> tuple[ServerResult, list[int | None]]:
    """Run a full FedClassAvg federation over localhost TCP.

    Returns ``(server_result, worker_exit_codes)``.  The server runs in
    this process (so history/cost/global-state come back as objects);
    the workers are real OS processes and are always reaped before
    returning — crash, chaos hook, or clean BYE alike.

    ``supervise`` watches the workers and respawns crashed ones (with
    ``--rejoin``, so they re-admit themselves) up to ``max_restarts``
    times each; ``chaos_config`` hands every worker a seeded
    protocol-level fault schedule.  Either implies a rejoin grace
    window (``rejoin_grace_s``, default 10 s when unset) so rounds wait
    for a recovering worker instead of writing it off.  ``workers=0``
    spawns nothing — the caller attached externally-launched workers
    (crash-resume flows reconnecting a surviving fleet).

    ``wire`` selects the state-blob encoding for the whole run (server
    and workers alike, via the CONFIG handshake); the default lossless
    ``delta`` keeps finals bit-identical to a ``full``-wire or SimComm
    run while cutting steady-state bytes.

    ``worker_telemetry`` gives every worker process its own telemetry
    JSONL (rank ``i`` writes ``rank_telemetry_path(base, i)``) so a
    fully-telemetered run can be merged into one cross-process trace
    with ``python -m repro.cli trace-merge``.

    ``aggregator`` selects the server's aggregation rule (spec string or
    :class:`repro.federated.robust.Aggregator`); ``firewall`` is an
    :class:`repro.federated.firewall.UpdateFirewall` screening collected
    updates; ``adversaries`` (an
    :class:`repro.net.chaos.AdversarySchedule` or its config dict) is
    shipped to the workers via CONFIG so poisoned uploads originate at
    the clients, exactly as on the sim path.
    """
    num_clients = int(spec_dict["num_clients"])
    if adversaries is not None and not isinstance(adversaries, dict):
        adversaries = adversaries.to_config()
    config = make_run_config(
        spec_dict,
        trainer=trainer,
        local_epochs=local_epochs,
        share_all_weights=share_all_weights,
        heartbeat_s=heartbeat_s,
        wire=wire,
        adversaries=adversaries,
    )
    faulty = chaos_config is not None and chaos_config.enabled
    if rejoin_grace_s is None:
        rejoin_grace_s = 10.0 if (supervise or faulty) else 0.0
    server = FedTcpServer(
        num_clients,
        rounds,
        config,
        host=host,
        port=port,
        sample_rate=sample_rate,
        seed=seed,
        eval_every=eval_every,
        local_epochs=local_epochs,
        join_timeout_s=join_timeout_s,
        round_timeout_s=round_timeout_s,
        liveness_timeout_s=liveness_timeout_s,
        cost_model=cost_model,
        quorum=quorum,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume=resume,
        rejoin_grace_s=rejoin_grace_s,
        crash_after_round=crash_after_round,
        crash_in_round=crash_in_round,
        aggregator=aggregator,
        firewall=firewall,
        verbose=verbose,
    )
    bound_host, bound_port = server.listen()
    common_flags = ["--rng-seed", str(seed)]
    if faulty:
        common_flags += ["--chaos", chaos_config.to_json()]
    assignment = place_clients(spec_dict, workers) if workers > 0 else []
    procs = launch_workers(
        bound_host,
        bound_port,
        assignment,
        chaos=chaos,
        common_flags=common_flags,
        telemetry_base=worker_telemetry,
        verbose=verbose,
    )
    supervisor = None
    if supervise and procs:
        supervisor = WorkerSupervisor(max_restarts=max_restarts, seed=seed, verbose=verbose)
        env = _worker_env(len(assignment))
        for i, (proc, ids) in enumerate(zip(procs, assignment)):
            # respawn commands re-admit via REJOIN and deliberately drop
            # the per-worker one-shot failure hooks (--die-at-round would
            # just kill the replacement again)
            extra = common_flags + ["--rejoin"]
            if worker_telemetry is not None:
                extra += ["--telemetry", rank_telemetry_path(worker_telemetry, i + 1)]
            respawn = worker_command(
                bound_host, bound_port, ids, verbose=verbose, extra=extra,
            )
            supervisor.watch(proc, respawn, env=env)
        supervisor.start()
    try:
        result = server.run()
    finally:
        if supervisor is not None:
            exit_codes = supervisor.stop()
        else:
            exit_codes = reap_workers(procs)
    return result, exit_codes
