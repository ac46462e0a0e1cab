"""CLI runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.algorithm == "fedclassavg"
        assert args.partition == "dirichlet"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--algorithm", "fedfoo"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fedclassavg" in out and "emnist" in out

    def test_fedavg_requires_homogeneous(self, capsys):
        assert main(["--algorithm", "fedavg"]) == 2

    def test_micro_run(self, capsys):
        rc = main(
            [
                "--algorithm",
                "fedclassavg",
                "--clients",
                "3",
                "--rounds",
                "1",
                "--dataset",
                "fashion_mnist-tiny",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "communication" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checkpoint", "/tmp/server.ckpt"],
            ["--resume", "/tmp/server.ckpt"],
            ["--supervise"],
            ["--chaos", '{"seed": 1, "disconnect_p": 0.1}'],
        ],
    )
    def test_sim_rejects_flags_that_need_worker_processes(self, flags, capsys):
        assert main(["--clients", "3", "--rounds", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--transport tcp" in err

    def test_quorum_flags_take_effect_in_process(self):
        """Two of three clients upload NaN bombs: with --quorum 1.0 the
        firewall's rejections are a quorum miss on the sim path too."""
        from repro.federated.quorum import QuorumError

        argv = [
            "--clients", "3", "--rounds", "1",
            "--adversaries", '{"seed": 7, "clients": {"1": "nan_bomb", "2": "nan_bomb"}}',
            "--quorum", "1.0", "--on-quorum-miss", "abort",
        ]
        with pytest.raises(QuorumError, match="quorum requires 3"):
            main(argv)

    def test_quorum_needs_fedclassavg(self, capsys):
        argv = ["--algorithm", "fedavg", "--homogeneous", "cnn2layer", "--quorum", "0.5"]
        assert main(argv) == 2
        assert "--quorum" in capsys.readouterr().err

    def test_micro_homogeneous_run(self, capsys):
        rc = main(
            [
                "--algorithm",
                "fedavg",
                "--homogeneous",
                "cnn2layer",
                "--clients",
                "3",
                "--rounds",
                "1",
            ]
        )
        assert rc == 0
        assert "fedavg" in capsys.readouterr().out


class TestReportAndDiffSubcommands:
    """End-to-end smoke: run --telemetry, then report and diff the JSONL."""

    def _run(self, path, seed=0):
        rc = main(
            [
                "--clients",
                "3",
                "--rounds",
                "2",
                "--dataset",
                "fashion_mnist-tiny",
                "--seed",
                str(seed),
                "--telemetry",
                path,
            ]
        )
        assert rc == 0

    def test_run_report_diff_pipeline(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        self._run(path)
        capsys.readouterr()

        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "per-client health:" in out
        assert "per-round breakdown:" in out
        assert "loss trend" in out
        assert "alerts (" in out

        # a run diffed against itself passes the gate
        assert main(["diff", path, path, "--gate"]) == 0
        out = capsys.readouterr().out
        assert "final_acc" in out and "gate: OK" in out

    def test_profile_ops_flag_defaults_off(self):
        args = build_parser().parse_args([])
        assert args.profile_ops is False

    def test_diff_gate_fails_on_seeded_regression(self, tmp_path, capsys):
        import json

        def write(path, mean_acc):
            with open(path, "w") as fh:
                fh.write(
                    json.dumps(
                        {
                            "type": "round",
                            "round": 0,
                            "algorithm": "fedclassavg",
                            "bytes": 100,
                            "bytes_up": 50,
                            "bytes_down": 50,
                            "wall_s": 1.0,
                            "compute_s": 0.8,
                            "comm_s": 0.1,
                            "mean_acc": mean_acc,
                            "evaluated": True,
                        }
                    )
                    + "\n"
                )

        base, cand = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        write(base, 0.80)
        write(cand, 0.70)
        # without --gate: report the regression but exit 0
        assert main(["diff", base, cand]) == 0
        assert "FAIL" in capsys.readouterr().out
        # with --gate: non-zero exit for CI
        assert main(["diff", base, cand, "--gate"]) == 1
        assert "regressed" in capsys.readouterr().err
        # improvement direction passes
        assert main(["diff", cand, base, "--gate"]) == 0


class TestTraceSubcommand:
    def _run(self, path):
        rc = main(
            [
                "--clients",
                "3",
                "--rounds",
                "2",
                "--dataset",
                "fashion_mnist-tiny",
                "--telemetry",
                path,
            ]
        )
        assert rc == 0

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "run.jsonl")
        self._run(path)
        capsys.readouterr()

        out = str(tmp_path / "run.trace.json")
        assert main(["trace", path, "-o", out]) == 0
        assert "perfetto" in capsys.readouterr().out
        with open(out) as fh:
            trace = json.load(fh)
        names = {e.get("name") for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert "round" in names and "local_update" in names

    def test_trace_default_output_and_ascii(self, tmp_path, capsys):
        import os

        path = str(tmp_path / "run.jsonl")
        self._run(path)
        capsys.readouterr()

        assert main(["trace", path, "--ascii"]) == 0
        chart = capsys.readouterr().out
        assert "round 0" in chart and "client 0" in chart

        assert main(["trace", path]) == 0
        assert os.path.exists(path + ".trace.json")


class TestDeepDiveFlags:
    def test_flags_default_off(self):
        args = build_parser().parse_args([])
        assert args.memprof is False and args.record is None

    def test_memprof_and_record_require_telemetry(self, capsys):
        assert main(["--memprof", "--clients", "3", "--rounds", "1"]) == 2
        assert "--telemetry" in capsys.readouterr().err
        assert main(["--record", "/tmp/b", "--clients", "3", "--rounds", "1"]) == 2

    def test_memprof_and_record_run(self, tmp_path, capsys):
        """One telemetered run with both deep-dive flags: the memory
        summary prints, and the (healthy) run arms but never trips the
        flight recorder.

        Two clients, not three: the first client of a cold process pays
        every first-touch cost (a cold run read 1.008 s against 0.088 s and
        0.256 s), which is a ``straggler`` alert once the detector has the
        three timed clients its median needs — a fact about the wall clock,
        not about the run.  Below ``min_clients`` it stays silent, so "no
        alerts" here depends on nothing that is timed."""
        from repro.telemetry.health import StragglerDetector

        assert StragglerDetector().min_clients > 2
        rc = main(
            [
                "--clients",
                "2",
                "--rounds",
                "1",
                "--dataset",
                "fashion_mnist-tiny",
                "--telemetry",
                str(tmp_path / "run.jsonl"),
                "--memprof",
                "--record",
                str(tmp_path / "bundles"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory profile" in out and "mem_peak" in out
        assert "flight recorder armed, no alerts" in out


class TestReplaySubcommand:
    def test_replay_reproduces_recorded_bundle(self, micro_spec, tmp_path, capsys):
        """Persist a bundle through the alert path, then re-run it via the
        CLI: exit 0 and a REPRODUCED verdict."""
        from dataclasses import asdict

        import numpy as np

        from repro import telemetry
        from repro.core import FedClassAvg
        from repro.federated import build_federation, default_firewall

        tel = telemetry.configure(jsonl=None, recorder=str(tmp_path / "bundles"))
        try:
            tel.recorder.set_run_config(spec=asdict(micro_spec), algorithm="fedclassavg")
            clients, _ = build_federation(micro_spec)
            for p in clients[1].model.parameters():
                p.data[...] = np.nan
            # the firewall quarantines client 1's NaN upload so the run
            # survives to persist the bundle its nan_loss alert triggers
            FedClassAvg(clients, seed=0, firewall=default_firewall()).run(1)
            bundles = list(tel.recorder.bundles_written)
        finally:
            tel.close()
            telemetry.disable()

        bundle = next(p for p in bundles if "client1" in p)
        assert main(["replay", bundle]) == 0
        assert "REPRODUCED" in capsys.readouterr().out


class TestTraceMergeSubcommand:
    def write_jsonl(self, path, records):
        import json

        with open(path, "w") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")

    def streams(self, tmp_path, parented=True):
        server = str(tmp_path / "run.jsonl")
        worker = str(tmp_path / "run.rank1.jsonl")
        self.write_jsonl(
            server,
            [
                {"type": "proc", "role": "server", "wall": 100.0, "mono": 5.0},
                {
                    "type": "span", "name": "round", "span_id": 2,
                    "parent_id": None, "thread": "main", "ts": 100.1,
                    "ts_mono": 5.1, "dur_s": 1.0, "attrs": {"round": 0},
                },
            ],
        )
        attrs = {"trace_parent": 2} if parented else {}
        self.write_jsonl(
            worker,
            [
                {"type": "proc", "role": "worker", "wall": 100.0, "mono": 9.0,
                 "clients": [0]},
                {"type": "clock", "offset_s": 0.0, "rtt_s": 0.001},
                {
                    "type": "span", "name": "local_update", "span_id": 2,
                    "parent_id": None, "thread": "main", "ts": 100.2,
                    "ts_mono": 9.2, "dur_s": 0.5, "attrs": attrs,
                },
            ],
        )
        return server, worker

    def test_merges_and_counts_parent_edges(self, tmp_path, capsys):
        import json
        import os

        server, worker = self.streams(tmp_path)
        out = str(tmp_path / "merged.json")
        assert main(["trace-merge", server, worker, "-o", out]) == 0
        assert "1 cross-process parent edge" in capsys.readouterr().out
        with open(out) as fh:
            trace = json.load(fh)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert pids == {0, 1}
        # default output path derives from the server file
        assert main(["trace-merge", server, worker]) == 0
        assert os.path.exists(server + ".merged.trace.json")

    def test_require_parented_gates(self, tmp_path, capsys):
        server, worker = self.streams(tmp_path, parented=False)
        out = str(tmp_path / "merged.json")
        assert main(["trace-merge", server, worker, "-o", out, "--require-parented"]) == 1
        assert "FAIL" in capsys.readouterr().err
        server, worker = self.streams(tmp_path, parented=True)
        assert main(["trace-merge", server, worker, "-o", out, "--require-parented"]) == 0


class TestNetObservabilityParsers:
    def test_worker_parser_accepts_telemetry(self):
        from repro.cli import build_worker_parser

        args = build_worker_parser().parse_args(
            ["--server", "h:1", "--client-id", "0", "--telemetry", "w.jsonl"]
        )
        assert args.telemetry == "w.jsonl"
        assert build_worker_parser().parse_args(
            ["--server", "h:1", "--client-id", "0"]
        ).telemetry is None

    def test_bench_net_parser_defaults(self):
        from repro.cli import build_bench_net_parser

        args = build_bench_net_parser().parse_args([])
        assert args.output == "BENCH_latency.json"
        assert args.slowdown == pytest.approx(0.5)
        assert not args.gate

    def test_rank_telemetry_path_derivation(self):
        from repro.net.launcher import rank_telemetry_path

        assert rank_telemetry_path("run.jsonl", 1) == "run.rank1.jsonl"
        assert rank_telemetry_path("/a/b/run.jsonl", 3) == "/a/b/run.rank3.jsonl"
        assert rank_telemetry_path("noext", 2) == "noext.rank2.jsonl"
