#!/usr/bin/env bash
# CI entry point: tier-1 test suite + TCP loopback smoke + seeded
# chaos/crash-resume smokes + telemetry overhead budget.
#
#   scripts/ci.sh            # full run
#   scripts/ci.sh --fast     # one-engine guard + precision closure +
#                            # placement properties + baseline/engine
#                            # equivalence + tier-1 tests only (skip
#                            # smoke + bench)
#
# The TCP smoke runs the same 2-round federation through both transports
# and requires the saved global classifiers to be byte-identical — the
# distributed runtime's core guarantee — plus a clean shutdown with no
# orphaned worker processes.  TCP runs use the default lossless delta
# wire, so tcp==sim / chaos==clean / resume determinism all hold *with
# the codec on*; a dedicated smoke re-runs over the full-state wire and
# requires the same bytes, and `bench-comm` measures the wire's cost
# (writing BENCH_comm.json) and gates against the committed trajectory.
# A tracing smoke runs the federation with telemetry on every rank and
# requires `trace-merge` to produce cross-process parent edges, and
# `bench-net` tracks the latency/throughput trajectory
# (BENCH_latency.json) gated on rounds/sec.  Workers are placed by
# estimated client cost (DESIGN.md 13); every `cmp` gate below holds under
# any placement because client streams are keyed by (seed, client id).
# The overhead benchmark re-asserts the <5% telemetry budget (null
# backend, health monitor, and memprof+recorder enabled-but-idle) so an
# instrumentation regression fails CI even when no functional test sees
# it.  `bench.run --smoke` runs the repo benchmark's four workloads at toy
# size with every correctness check on, and the substrate micro-benchmarks
# assert that no `ufunc.at` scatter is back on the training path.  Runs
# from any working directory.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# A GEMM's rounding depends on the BLAS thread count, and the launcher gives
# each worker cores // workers threads (an exported value wins): pin both
# sides of every tcp-vs-sim `cmp` below to the same count.
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS:-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS:-1}"

echo "== one engine =="
# seconds: the round exists once.  Each of these is a step of the round
# loop or of the server half of Algorithm 1; a second call site means a
# second copy to keep bit-identical by hand.
one_call_site() {
    # federated/robust.py is left out: admit_and_aggregate (the benchmark's
    # entry point) screens and aggregates in one call, without a quorum
    local n
    n="$(grep -rnF --include='*.py' -- "$1" src/repro \
        | grep -v -e 'def ' -e 'federated/robust.py' | wc -l)"
    [[ "$n" -eq 1 ]] || { echo "FAIL: '$1' has $n call sites in src/repro (want 1)"; exit 1; }
}
for call in 'sampler.sample(' 'cost.end_round(' 'monitor.end_round(' 'tel.record_round(' \
    'monitor.begin_round(' 'RoundMetrics(' 'drop_nonfinite_states(' \
    'screen_updates(' 'self.aggregator(' 'cohort.run_round('; do
    one_call_site "$call"
done
OUTSIDE="$(grep -rln 'ClientSampler(' src/repro | grep -v -e federated/base.py -e federated/sampler.py || true)"
[[ -z "$OUTSIDE" ]] || { echo "FAIL: ClientSampler( constructed outside federated/base.py: $OUTSIDE"; exit 1; }
GONE="$(grep -rnE '_run_rounds|_one_round|_init_global_state|_apply_quorum|class Transport\b|def (bcast|gather)\(' \
    src/repro/net || true)"
[[ -z "$GONE" ]] || { echo "FAIL: a deleted copy of the round is back: $GONE"; exit 1; }
grep -q '__getattr__' src/repro/net/__init__.py \
    && { echo "FAIL: repro.net lazy loader is back"; exit 1; }
UPWARD="$(grep -rn 'repro\.net' src/repro/{federated,core,comm,algorithms} || true)"
[[ -z "$UPWARD" ]] || { echo "FAIL: net -> federated must stay one-way: $UPWARD"; exit 1; }
# FedAvg / FedProx / FedBN / FedPer / FedRep are specs over that round
# (algorithms/averaging.py).  A round loop, a collective, an Eq. 3 call or a
# local_update call under algorithms/ outside the four methods that are not
# an averaging round means one of their five deleted loops is back.
only_in() { # only_in REGEX DIR FILE...: REGEX matches under DIR in no other file
    local regex="$1" dir="$2" keep=() others
    shift 2
    for f in "$@"; do keep+=(-e "$f"); done
    others="$(grep -rlE --include='*.py' -- "$regex" "$dir" | grep -v "${keep[@]}" || true)"
    [[ -z "$others" ]] || { echo "FAIL: '$regex' outside $*: $others"; exit 1; }
}
only_in 'def round\(' src/repro/algorithms fedproto.py ktpfl.py async_fedclassavg.py local_only.py
only_in 'local_update\(' src/repro/algorithms ktpfl.py local_only.py async_fedclassavg.py
only_in 'weighted_average_state\(' src/repro/algorithms ktpfl.py
only_in 'comm\.(bcast|gather)\(' src/repro federated/cohort.py algorithms/fedproto.py algorithms/ktpfl.py
COLLECTIVES="$(grep -rnE 'comm\.(bcast|gather|scatter|send|recv)\(' src/repro/algorithms | wc -l)"
[[ "$COLLECTIVES" -le 9 ]] \
    || { echo "FAIL: $COLLECTIVES SimComm call sites under algorithms/ (want <= 9)"; exit 1; }
echo "one round loop, one server half, one client half; net -> federated is one-way"
echo "source lines: $(find src -name '*.py' | xargs cat | wc -l)"

echo "== precision: closed both ways =="
# seconds, no process spawned: every op returns the dtype it is given, a
# build_federation client stays in its data's dtype through a whole step,
# and a hand-built float64 model still trains to the recorded bytes.  A
# leak costs 2x the bytes moved and shows in no other test; a float64
# drift moves every digest below.
python -m pytest -x -q tests/tensor/test_dtype_closure.py \
    tests/federated/test_client_precision.py tests/federated/test_float64_path.py

echo "== placement properties =="
# seconds, no process spawned: a broken client->worker placement rule fails
# here, before tier-1 and every TCP smoke below launch workers on its groups
python -m pytest -x -q tests/net/test_placement.py

echo "== five baselines, one engine =="
# seconds: each of the five against the hand-written round it replaced (bit
# for bit on this box's BLAS) and against the digests recorded at the parent
python -m tests.algorithms.test_engine_equivalence --fast

echo "== tier-1 tests =="
python -m pytest -x -q tests

if [[ "${1:-}" != "--fast" ]]; then
    echo "== tcp loopback smoke =="
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    python -m repro.cli run --transport tcp --workers 4 --clients 8 --rounds 2 \
        --save-global "$SMOKE_DIR/tcp.bin" > "$SMOKE_DIR/tcp.log"
    python -m repro.cli run --transport sim --clients 8 --rounds 2 \
        --save-global "$SMOKE_DIR/sim.bin" > "$SMOKE_DIR/sim.log"
    cmp "$SMOKE_DIR/tcp.bin" "$SMOKE_DIR/sim.bin" \
        || { echo "FAIL: tcp vs sim global classifier differs"; exit 1; }
    ORPHANS="$(pgrep -f 'repro.cli worker' || true)"
    [[ -z "$ORPHANS" ]] \
        || { echo "FAIL: orphaned worker processes: $ORPHANS"; exit 1; }
    echo "tcp == sim (bit-identical), no orphans"

    echo "== delta-wire smoke =="
    # the default delta wire must be lossless: the same federation over
    # the full-state wire ends at the bit-identical global classifier
    python -m repro.cli run --transport tcp --workers 4 --clients 8 --rounds 2 \
        --wire full --save-global "$SMOKE_DIR/full.bin" > "$SMOKE_DIR/full.log"
    cmp "$SMOKE_DIR/tcp.bin" "$SMOKE_DIR/full.bin" \
        || { echo "FAIL: delta-wire vs full-wire global classifier differs"; exit 1; }
    echo "delta wire == full wire (bit-identical)"

    echo "== comm bench (BENCH_comm.json) =="
    # measures full vs delta steady-state bytes on a loopback federation,
    # requires >=30% delta savings, and gates fresh delta-wire bytes
    # against the committed trajectory's latest entry
    python -m repro.cli bench-comm --rounds 3 --clients 4 --workers 2 \
        --output "$SMOKE_DIR/BENCH_comm.json" --baseline BENCH_comm.json --gate

    echo "== distributed tracing smoke =="
    # telemetry on every rank: the server writes traced.jsonl, each
    # worker its own traced.rankN.jsonl; trace-merge must stitch them
    # into one clock-aligned timeline with at least one worker span
    # parented under a server round span (--require-parented exits 1
    # otherwise)
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 2 \
        --telemetry "$SMOKE_DIR/traced.jsonl" --save-global "$SMOKE_DIR/traced.bin" \
        > "$SMOKE_DIR/traced.log"
    python -m repro.cli trace-merge "$SMOKE_DIR/traced.jsonl" \
        "$SMOKE_DIR/traced.rank1.jsonl" "$SMOKE_DIR/traced.rank2.jsonl" \
        -o "$SMOKE_DIR/traced.trace.json" --require-parented
    echo "cross-process trace merged (worker spans parent under server rounds)"

    echo "== net bench (BENCH_latency.json) =="
    # measures rounds/sec + per-phase latency percentiles on a loopback
    # federation and gates rounds/sec against the committed trajectory's
    # latest entry (generous tolerance — CI wall clocks are noisy)
    python -m repro.cli bench-net --rounds 3 --clients 4 --workers 2 \
        --output "$SMOKE_DIR/BENCH_latency.json" --baseline BENCH_latency.json --gate

    echo "== chaos soak smoke (seeded) =="
    # seeded protocol-level fault injection must change *nothing*: every
    # fault is recovered via rejoin + cached-update resend, so the chaos
    # run's global classifier is bit-identical to the clean run's
    CHAOS='{"seed": 11, "disconnect_p": 0.15, "bitflip_p": 0.1, "delay_p": 0.1, "delay_s": 0.01}'
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 2 \
        --save-global "$SMOKE_DIR/chaos.bin" --chaos "$CHAOS" > "$SMOKE_DIR/chaos.log"
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 2 \
        --save-global "$SMOKE_DIR/clean3.bin" > "$SMOKE_DIR/clean3.log"
    cmp "$SMOKE_DIR/chaos.bin" "$SMOKE_DIR/clean3.bin" \
        || { echo "FAIL: chaos run's global classifier diverged from clean"; exit 1; }
    echo "chaos == clean (bit-identical)"

    echo "== adversarial smoke (seeded) =="
    # a sign-flip + NaN-bomb cohort over TCP with robust aggregation: the
    # run must complete, the firewall must quarantine both attackers
    # (surfaced by `repro report` as update_rejected alerts), and the
    # final global must stay bit-identical to the sim-path run under the
    # same adversary schedule — the determinism bar extends to attacks
    ADV='{"seed": 7, "clients": {"1": "sign_flip", "2": "nan_bomb"}}'
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 2 \
        --aggregator trimmed_mean --adversaries "$ADV" \
        --telemetry "$SMOKE_DIR/adv.jsonl" --save-global "$SMOKE_DIR/adv_tcp.bin" \
        > "$SMOKE_DIR/adv_tcp.log"
    python -m repro.cli run --transport sim --clients 3 --rounds 2 \
        --aggregator trimmed_mean --adversaries "$ADV" \
        --save-global "$SMOKE_DIR/adv_sim.bin" > "$SMOKE_DIR/adv_sim.log"
    cmp "$SMOKE_DIR/adv_tcp.bin" "$SMOKE_DIR/adv_sim.bin" \
        || { echo "FAIL: attacked tcp vs sim global classifier differs"; exit 1; }
    python -m repro.cli report "$SMOKE_DIR/adv.jsonl" > "$SMOKE_DIR/adv_report.txt"
    grep -q "update_rejected" "$SMOKE_DIR/adv_report.txt" \
        || { echo "FAIL: no update_rejected alert in the run report"; exit 1; }
    echo "attacked tcp == sim (bit-identical), firewall quarantined the cohort"

    echo "== crash/resume smoke (seeded) =="
    # round 0 run writes a checkpoint; two --resume continuations must
    # agree exactly (restored sampler RNG + seeded worker rebuild)
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 1 \
        --checkpoint "$SMOKE_DIR/server.ckpt" > "$SMOKE_DIR/half.log"
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 3 \
        --resume "$SMOKE_DIR/server.ckpt" --save-global "$SMOKE_DIR/resumed1.bin" \
        > "$SMOKE_DIR/resumed1.log"
    python -m repro.cli run --transport tcp --workers 2 --clients 3 --rounds 3 \
        --resume "$SMOKE_DIR/server.ckpt" --save-global "$SMOKE_DIR/resumed2.bin" \
        > "$SMOKE_DIR/resumed2.log"
    cmp "$SMOKE_DIR/resumed1.bin" "$SMOKE_DIR/resumed2.bin" \
        || { echo "FAIL: two resumes of the same checkpoint diverged"; exit 1; }
    ORPHANS="$(pgrep -f 'repro.cli worker' || true)"
    [[ -z "$ORPHANS" ]] \
        || { echo "FAIL: orphaned worker processes: $ORPHANS"; exit 1; }
    echo "resume is deterministic, no orphans"

    echo "== telemetry overhead budget =="
    python -m pytest -x -q benchmarks/test_telemetry_overhead.py

    echo "== substrate guard: no scatter on the training path =="
    python -m pytest -x -q --benchmark-disable benchmarks/test_substrate_micro.py

    echo "== repo benchmark smoke =="
    # every workload at toy size (< 60 s); exits non-zero on any failed
    # correctness check, including sim_hetero == tcp_hetero digests
    python -m bench.run --smoke
fi

echo "== CI OK =="
