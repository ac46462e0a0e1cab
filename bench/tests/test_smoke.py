"""Every workload at toy size, through the real command, in fresh processes."""

import json
import subprocess
import sys

import pytest

from bench import ROOT, WORKLOADS
from bench.report import declared

SPEC = declared()


def invoke(tmp_path, workload, trace):
    out = tmp_path / f"{workload}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", "3", "--smoke",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    return last["metrics"], json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    return {(w, t): invoke(tmp, w, t) for w in WORKLOADS for t in (0, 1)}


def test_every_workload_emits_exactly_the_declared_end_to_end_metrics(smoke):
    for w in WORKLOADS:
        metrics, _ = smoke[w, 0]
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] > 0, (w, m["name"])


def test_traced_runs_emit_exactly_the_declared_per_layer_metrics(smoke):
    measured = {}
    for w in WORKLOADS:
        metrics, _ = smoke[w, 1]
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        measured[w] = {name for name, m in metrics.items() if m["value"] != 0}
    # every declared layer metric is measured by some workload
    assert set().union(*measured.values()) == {m["name"] for m in SPEC["per_layer"]}
    # layers separate: no compute on the fan-in path, no networking in the simulation
    assert not {n for n in measured["server_fanin"] if n.startswith(("tensor.", "models.", "optim."))}
    assert not {n for n in measured["sim_hetero"] if n.startswith(("net.worker.", "net.launcher.", "mem."))}
    assert {"net.worker.busy_imbalance", "mem.peak_rss_workers_mb"} <= measured["tcp_hetero"]
    assert "net.encoding.encode_s.fullmodel" in measured["tcp_fullweight"]
    assert "federated.robust.trimmed_mean_s" in measured["server_fanin"]


def test_both_engines_reach_the_same_global_classifier(smoke):
    digests = {smoke[w, t][1]["digest"] for w in ("sim_hetero", "tcp_hetero") for t in (0, 1)}
    assert len(digests) == 1
    assert smoke["sim_hetero", 0][1]["final_mean_acc"] == smoke["tcp_hetero", 0][1]["final_mean_acc"]
    # the paper's metric: only the two engines of the headline plan report one
    assert smoke["sim_hetero", 0][1]["final_mean_acc"] > 0
    assert smoke["tcp_fullweight", 0][1]["final_mean_acc"] is None
    assert smoke["server_fanin", 0][1]["final_mean_acc"] is None


def test_result_files_carry_the_fingerprint(smoke):
    _, detail = smoke["server_fanin", 0]
    fp = detail["fingerprint"]
    assert fp["seed"] == 3 and fp["nproc"] >= 1 and fp["numpy"] and fp["python"]
    assert set(fp["env"].values()) == {"1"}
    assert fp["openblas_threads"] in (1, None)


def test_the_command_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: exits non-zero and prints no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "server_fanin", "--seed", "1",
         "--seconds", "24", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and not done.stdout.strip()
