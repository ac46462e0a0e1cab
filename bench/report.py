"""Summaries over repeated runs, and the parent-versus-change comparison."""

from __future__ import annotations

import json
import statistics

from bench import ROOT

SCHEMA = "fedclassavg-bench/1"
#: ``final_mean_acc`` is judged in absolute points.  It is not among
#: BENCHMARK.json's relative-bound metrics: across seeds it moves by more
#: than any allowed bound, at one seed it is deterministic
ACC_BOUND = 0.03


def declared() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric over the repeats."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def verdict(parent: dict, change: dict, better: str, bound: float, absolute: bool = False) -> str:
    """Judge one metric of one workload.

    ``bound`` is a share of the parent's median or, with ``absolute``, a
    distance in the metric's own unit.  ``worse``: the change's median is worse than the parent's by more than
    the bound.  ``unresolved``: not worse, but the run-to-run spread (either
    side's quartile distance over the parent's median) is wider than the
    bound and the two sets of runs overlap, so "no regression" cannot be
    told from noise.  ``better``: every run of the change beats every run of
    the parent.  ``same`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = 1.0 if absolute else abs(parent["median"])
    worsening = sign * (change["median"] - parent["median"]) / base if base else 0.0
    if worsening > bound:
        return "worse"
    p, c = [sign * v for v in parent["values"]], [sign * v for v in change["values"]]
    if max(c) < min(p):
        return "better"
    spread = max(parent["q3"] - parent["q1"], change["q3"] - change["q1"]) / base if base else 0.0
    if spread > bound:
        return "unresolved"
    return "same"


def compare(parent: dict, change: dict, spec: dict, out=print) -> int:
    """Print one block per workload; return the process exit code."""
    bad = 0
    for name, theirs in change["workloads"].items():
        ours = parent["workloads"].get(name)
        if ours is None:
            out(f"{name}: not in the parent result")
            continue
        out(f"{name}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if key not in ours["end_to_end"] or key not in theirs["end_to_end"]:
                continue
            a, b = ours["end_to_end"][key], theirs["end_to_end"][key]
            v = verdict(a, b, metric["better"], metric["bound"])
            bad += v == "worse"
            out(
                f"  {key:<24} {metric['unit']:<8} "
                f"parent {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']}  "
                f"change {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}  "
                f"bound {metric['bound']:.0%}  {v}"
            )
        if "final_mean_acc" in ours and "final_mean_acc" in theirs:
            a, b = ours["final_mean_acc"], theirs["final_mean_acc"]
            v = verdict(a, b, "higher", ACC_BOUND, absolute=True)
            bad += v == "worse"
            out(f"  {'final_mean_acc':<24} {'fraction':<8} parent {a['median']:.6g}  "
                f"change {b['median']:.6g}  bound {ACC_BOUND} absolute  {v}")
        a, b = ours["failed_share"], theirs["failed_share"]
        rose = b > a
        bad += rose
        out(f"  {'failed_share':<24} {'fraction':<8} parent {a:.6g}  change {b:.6g}  "
            f"{'worse' if rose else 'same'}")
    return 1 if bad else 0


def load(path: str) -> dict:
    with open(path) as f:
        result = json.load(f)
    if result.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema {result.get('schema')!r}, expected {SCHEMA!r}")
    return result
