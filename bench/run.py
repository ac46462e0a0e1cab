"""The benchmark's one command.

    python -m bench.run --workload NAME --seed S --seconds T --trace 0|1

runs one workload once, prints every metric by name with its unit, checks
that the outputs are correct, and prints the result as one JSON object on
the last line.  Without ``--workload`` (or with ``all``, or ``--repeats K``)
it runs every workload ``K`` times, each run in a fresh process, interleaved
round-robin so slow machine drift hits all workloads equally, and writes one
schema-versioned result file with medians, quartiles and sample counts.
``--traced`` adds one traced run per workload for the per-layer metrics;
``--compare A.json B.json`` judges a change against its parent.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from bench import ROOT, WORKLOADS


def parse(argv):
    p = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length; scales every round count (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--smoke", action="store_true", help="toy sizes; every workload in < 60 s")
    p.add_argument("--out", default=None, help="also write the result to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"))
    args = p.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    return args


def run_one(args) -> int:
    """One workload, once, in this process."""
    t0 = time.perf_counter()
    try:
        from bench import measure
    except ImportError as exc:
        print(f"bench: the program under test is not importable: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else measure.REF_SECONDS
    result = measure.measure(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke,
        import_s=time.perf_counter() - t0,
    )
    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} "
          f"steady_rounds={result['steady_rounds']} {'traced' if args.trace else 'untraced'}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if result["final_mean_acc"] is not None:
        print(f"  {'final_mean_acc':<44} {result['final_mean_acc']:.6g} fraction")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<44} {share:.6g} fraction ({result['failed']}/{result['attempted']})")
    for name, ok in result["checks"].items():
        print(f"  check {name:<38} {'ok' if ok else 'FAILED'}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def _child(workload: str, args, trace: int, out_path) -> dict:
    cmd = [sys.executable, "-m", "bench.run", "--workload", workload, "--seed", str(args.seed),
           "--trace", str(trace), "--out", str(out_path)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if not out_path.exists():
        raise RuntimeError(f"{workload} produced no result:\n{done.stdout}\n{done.stderr}")
    with open(out_path) as f:
        return json.load(f)


def run_many(args) -> int:
    """Every requested workload, ``--repeats`` times, one fresh process per run."""
    from bench import report

    spec = report.declared()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / "bench" / "out" / "runs"
    scratch.mkdir(parents=True, exist_ok=True)
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.repeats):
        for w in names:  # interleaved, so drift hits every workload equally
            runs[w].append(_child(w, args, 0, scratch / f"{w}-{i}.json"))
            print(f"[{i + 1}/{args.repeats}] {w}: "
                  f"{'ok' if runs[w][-1]['correct'] else 'INCORRECT'}", flush=True)
    traced = {w: _child(w, args, 1, scratch / f"{w}-traced.json") for w in names} if args.trace else {}

    result = {
        "schema": report.SCHEMA,
        "fingerprint": runs[names[0]][0]["fingerprint"],
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "workloads": {},
    }
    ok = True
    for w in names:
        rs = runs[w]
        attempted, failed = sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)
        entry = {
            "rounds": rs[0]["rounds"],
            "steady_rounds": rs[0]["steady_rounds"],
            "correct": all(r["correct"] for r in rs),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "digests": sorted({r["digest"] for r in rs}),
            "checks": {
                k: all(r["checks"].get(k, True) for r in rs)
                for k in dict.fromkeys(k for r in rs for k in r["checks"])
            },
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **report.summarize([r["metrics"][m["name"]]["value"] for r in rs])}
                for m in spec["end_to_end"]
            },
        }
        if rs[0]["final_mean_acc"] is not None:
            entry["final_mean_acc"] = report.summarize([r["final_mean_acc"] for r in rs])
        if w in traced:
            entry["per_layer"] = traced[w]["metrics"]
            entry["correct"] = entry["correct"] and traced[w]["correct"]
            entry["checks"].update({f"traced.{k}": v for k, v in traced[w]["checks"].items()})
        result["workloads"][w] = entry
        ok = ok and entry["correct"]

    # same plan, same seed, two engines: the global classifiers must be equal
    pair = [result["workloads"].get(w) for w in ("sim_hetero", "tcp_hetero")]
    if all(pair):
        same = pair[0]["digests"] == pair[1]["digests"] and len(pair[0]["digests"]) == 1
        for entry in pair:
            entry["checks"]["digest_equals_other_engine"] = same
            entry["correct"] = entry["correct"] and same
        ok = ok and same

    _print_result(result, spec)
    out = args.out or str(ROOT / "bench" / "out" / f"result-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"result written to {out}")
    return 0 if ok else 1


def _print_result(result: dict, spec: dict) -> None:
    for w, entry in result["workloads"].items():
        print(f"\n{w}  rounds={entry['rounds']} (steady n={entry['steady_rounds']})  "
              f"{'correct' if entry['correct'] else 'INCORRECT'}")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<44} {s['median']:.6g} {s['unit']:<8} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
        if "final_mean_acc" in entry:
            s = entry["final_mean_acc"]
            print(f"  {'final_mean_acc':<44} {s['median']:.6g} fraction "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}")
        print(f"  {'failed_share':<44} {entry['failed_share']:.6g} fraction "
              f"({entry['failed']}/{entry['attempted']})")
        for name, m in entry.get("per_layer", {}).items():
            if m["value"]:  # 0 = this layer is not on this workload's path
                print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        for name, passed in entry["checks"].items():
            if not passed:
                print(f"  check {name} FAILED")


def main(argv=None) -> int:
    args = parse(argv)
    if args.compare:
        from bench import report

        parent, change = (report.load(path) for path in args.compare)
        return report.compare(parent, change, report.declared())
    if args.workload != "all" and args.repeats == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
