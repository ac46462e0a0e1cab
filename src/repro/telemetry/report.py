"""Run reports and run diffs over telemetry JSONL files.

The emitter half of :mod:`repro.telemetry` streams self-describing
records (``span`` / ``round`` / ``client_round`` / ``alert`` /
``metrics`` / ``op_profile`` / ``health_summary``); this module is the
consumer half:

* :func:`render_report` turns one run's records into an ASCII dashboard —
  run header, per-round compute/comm/bytes table, per-client health table
  with sparkline loss/accuracy trends, and the alert list;
* :func:`diff_runs` compares two runs (final/best accuracy, bytes,
  wall/compute/comm split, alert counts) and :func:`gate_violations`
  turns the comparison into a CI verdict — ``repro.cli diff A B --gate``
  exits non-zero when accuracy regresses or bytes inflate beyond the
  given tolerances, making telemetry files regression artifacts.

Everything operates on plain record dicts (from
:func:`repro.telemetry.read_jsonl` or an in-memory backend), so reports
can be rendered offline, long after the run that produced them.
"""

from __future__ import annotations

import math

from repro.telemetry.export import format_round_summary

__all__ = [
    "RunSummary",
    "summarize_run",
    "sparkline",
    "render_report",
    "diff_runs",
    "format_diff",
    "gate_violations",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _fmt_bytes(n: float) -> str:
    from repro.comm import format_bytes  # deferred: comm imports telemetry

    return format_bytes(int(n))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def sparkline(values: list[float | None], width: int = 16) -> str:
    """Render a numeric series as a block-character trend line.

    The series is resampled to ``width`` points when longer; ``None`` and
    non-finite entries render as ``·``.  Returns ``""`` for no data.
    """
    if not values:
        return ""
    if len(values) > width:
        # keep the most recent shape: resample by index
        idx = [round(i * (len(values) - 1) / (width - 1)) for i in range(width)]
        values = [values[i] for i in idx]
    finite = [v for v in values if _finite(v)]
    if not finite:
        return "·" * len(values)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for v in values:
        if not _finite(v):
            chars.append("·")
        elif span < 1e-12:
            chars.append(_SPARK_CHARS[len(_SPARK_CHARS) // 2])
        else:
            level = int((v - lo) / span * (len(_SPARK_CHARS) - 1))
            chars.append(_SPARK_CHARS[level])
    return "".join(chars)


def binary_sparkline(values: list[float | None], width: int = 16) -> str:
    """Sparkline on a fixed 0/1 scale for event series (e.g. rejections).

    ``sparkline``'s per-series normalization would render an always-0
    series and an always-1 series identically; events need an absolute
    scale — ``▁`` for quiet rounds, ``█`` for rounds the event fired,
    ``·`` for rounds with no observation.
    """
    if not values:
        return ""
    if len(values) > width:
        idx = [round(i * (len(values) - 1) / (width - 1)) for i in range(width)]
        values = [values[i] for i in idx]
    return "".join(
        "·" if not _finite(v) else ("█" if v else "▁") for v in values
    )


class RunSummary:
    """Parsed view of one run's telemetry records."""

    def __init__(self, records: list[dict]):
        self.rounds = [r for r in records if r.get("type") == "round"]
        self.client_rounds = [r for r in records if r.get("type") == "client_round"]
        self.alerts = [r for r in records if r.get("type") == "alert"]
        self.mem_records = [r for r in records if r.get("type") == "mem"]
        self.metrics = next((r for r in records if r.get("type") == "metrics"), None)
        self.algorithm = self.rounds[0].get("algorithm") if self.rounds else None

    # -- run-level aggregates ------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def _acc_series(self) -> list[float]:
        return [r["mean_acc"] for r in self.rounds if _finite(r.get("mean_acc"))]

    def final_acc(self) -> float | None:
        series = self._acc_series()
        return series[-1] if series else None

    def best_acc(self) -> float | None:
        series = self._acc_series()
        return max(series) if series else None

    def total(self, field: str) -> float:
        return sum(r.get(field) or 0 for r in self.rounds)

    def total_bytes(self) -> int:
        return int(self.total("bytes"))

    # -- per-client view ------------------------------------------------
    def client_ids(self) -> list[int]:
        return sorted({r["client"] for r in self.client_rounds})

    def client_series(self, client_id: int, field: str) -> list[float]:
        return [
            r[field]
            for r in self.client_rounds
            if r["client"] == client_id and r.get(field) is not None
        ]

    def client_rows(self) -> list[dict]:
        """One summary dict per client for the health table."""
        rows = []
        alert_counts: dict[int, int] = {}
        for a in self.alerts:
            k = a.get("client")
            if k is not None:
                alert_counts[k] = alert_counts.get(k, 0) + 1
        # memory peaks come from client_round fields (memprof on) with the
        # standalone "mem" records as fallback for partial captures
        mem_peaks: dict[int, int] = {}
        for r in self.mem_records:
            k = r.get("client")
            if k is not None and _finite(r.get("mem_peak")):
                mem_peaks[k] = max(mem_peaks.get(k, 0), int(r["mem_peak"]))
        for k in self.client_ids():
            mine = [r for r in self.client_rounds if r["client"] == k]
            losses = self.client_series(k, "loss")
            accs = self.client_series(k, "acc")
            durs = [d for d in self.client_series(k, "duration_s") if _finite(d)]
            peaks = [p for p in self.client_series(k, "mem_peak") if _finite(p)]
            peak = max([mem_peaks.get(k, 0), *[int(p) for p in peaks]], default=0)
            rows.append(
                {
                    "client": k,
                    "sampled": sum(1 for r in mine if r.get("sampled")),
                    "survived": sum(1 for r in mine if r.get("survived")),
                    "losses": losses,
                    "accs": accs,
                    "mean_duration_s": sum(durs) / len(durs) if durs else None,
                    "bytes_up": sum(r.get("bytes_up") or 0 for r in mine),
                    "mem_peak": peak or None,
                    "alerts": alert_counts.get(k, 0),
                    # firewall quarantine: count + per-round 0/1 series
                    # (None where the firewall recorded nothing)
                    "rejected": sum(1 for r in mine if r.get("rejected")),
                    "rejected_series": [r.get("rejected") for r in mine],
                }
            )
        return rows

    def alerts_by_severity(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for a in self.alerts:
            sev = a.get("severity") or "?"
            counts[sev] = counts.get(sev, 0) + 1
        return counts


def summarize_run(records: list[dict]) -> RunSummary:
    """Parse raw JSONL records into a :class:`RunSummary`."""
    return RunSummary(records)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def _fmt_opt(value, spec: str, missing: str = "-") -> str:
    return format(value, spec) if _finite(value) else missing


def _render_header(s: RunSummary) -> str:
    final, best = s.final_acc(), s.best_acc()
    parts = [
        f"run: {s.algorithm or '?'}",
        f"{s.num_rounds} rounds",
        f"{len(s.client_ids())} clients observed",
        f"final acc {_fmt_opt(final, '.4f')} (best {_fmt_opt(best, '.4f')})",
    ]
    totals = (
        f"totals: {_fmt_bytes(s.total('bytes_up'))} up · "
        f"{_fmt_bytes(s.total('bytes_down'))} down · "
        f"wall {s.total('wall_s'):.2f}s "
        f"(compute {s.total('compute_s'):.2f}s, comm {s.total('comm_s'):.2f}s) · "
        f"{len(s.alerts)} alert{'s' if len(s.alerts) != 1 else ''}"
    )
    return " · ".join(parts) + "\n" + totals


def _render_client_table(s: RunSummary, spark_width: int = 12) -> str:
    rows = s.client_rows()
    if not rows:
        return "(no per-client telemetry recorded)"
    # the memory column only appears when some run had the profiler on,
    # the rejection columns only when the firewall quarantined someone
    with_mem = any(row["mem_peak"] for row in rows)
    with_rej = any(row["rejected"] for row in rows)
    header = (
        f"{'client':>6}  {'part':>4}  {'surv':>4}  {'loss':>8}  "
        f"{'loss trend':<{spark_width}}  {'acc':>6}  {'acc trend':<{spark_width}}  "
        f"{'dur_s':>7}  {'up':>10}  "
        + (f"{'mem_peak':>10}  " if with_mem else "")
        + (f"{'rej':>4}  {'rej trend':<{spark_width}}  " if with_rej else "")
        + f"{'alerts':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        loss = row["losses"][-1] if row["losses"] else None
        acc = row["accs"][-1] if row["accs"] else None
        flag = " !" if row["alerts"] else ""
        mem = ""
        if with_mem:
            mem = (f"{_fmt_bytes(row['mem_peak']):>10}" if row["mem_peak"] else f"{'-':>10}") + "  "
        rej = ""
        if with_rej:
            rej = (
                f"{row['rejected']:>4}  "
                f"{binary_sparkline(row['rejected_series'], spark_width):<{spark_width}}  "
            )
        lines.append(
            f"{row['client']:>6}  {row['sampled']:>4}  {row['survived']:>4}  "
            f"{_fmt_opt(loss, '8.4f'):>8}  {sparkline(row['losses'], spark_width):<{spark_width}}  "
            f"{_fmt_opt(acc, '6.4f'):>6}  {sparkline(row['accs'], spark_width):<{spark_width}}  "
            f"{_fmt_opt(row['mean_duration_s'], '7.3f'):>7}  "
            f"{_fmt_bytes(row['bytes_up']):>10}  {mem}{rej}{row['alerts']:>6}{flag}"
        )
    return "\n".join(lines)


_SEVERITY_ORDER = ("critical", "warning", "info")


def _render_alert_rollup(s: RunSummary) -> str | None:
    """One-line severity rollup, with quarantines called out explicitly."""
    counts = s.alerts_by_severity()
    if not counts:
        return None
    ordered = [sev for sev in _SEVERITY_ORDER if sev in counts]
    ordered += [sev for sev in sorted(counts) if sev not in _SEVERITY_ORDER]
    line = "alerts by severity: " + " ".join(f"{sev}={counts[sev]}" for sev in ordered)
    rejected = sum(1 for a in s.alerts if a.get("detector") == "update_rejected")
    if rejected:
        line += f" · update_rejected={rejected}"
    return line


def _render_alerts(alerts: list[dict]) -> str:
    if not alerts:
        return "(no alerts)"
    lines = []
    for a in alerts:
        client = f"client {a['client']}" if a.get("client") is not None else "run"
        lines.append(
            f"round {a.get('round', '?'):>3}  {client:<10}  "
            f"[{a.get('severity', '?')}] {a.get('detector', '?')}: {a.get('message', '')}"
        )
    return "\n".join(lines)


_PHASE_KEYS = ("broadcast_s", "compute_s", "queue_s", "wait_s", "aggregate_s")


def _fmt_lat(v) -> str:
    """Human latency: sub-millisecond in µs, sub-second in ms, else s."""
    if not _finite(v):
        return "-"
    if v < 1e-3:
        return f"{v * 1e6:.0f}µs"
    if v < 1.0:
        return f"{v * 1e3:.2f}ms"
    return f"{v:.3f}s"


def _render_network(s: RunSummary) -> str | None:
    """Wire-latency percentiles + per-round critical path, when recorded.

    Returns ``None`` for files that recorded neither (pre-tracing runs)
    so the section vanishes instead of rendering empty tables.  An
    in-process run records the phases it has (broadcast, compute,
    aggregate) and no wire latencies.
    """
    latencies = (s.metrics or {}).get("latencies") or {}
    net_lat = {k: v for k, v in latencies.items() if k.startswith("net.")}
    phases = [r["phase"] for r in s.rounds if isinstance(r.get("phase"), dict)]
    if not net_lat and not phases:
        return None
    lines: list[str] = []
    if phases:
        # a phase no round recorded (queue_s in older files) is not a measured zero
        keys = [k for k in _PHASE_KEYS if any(k in p for p in phases)]
        totals = {k: sum(float(p.get(k) or 0.0) for p in phases) for k in keys}
        wall = s.total("wall_s")
        lines.append(f"round critical path (totals over {len(phases)} rounds):")
        for k in keys:
            share = totals[k] / wall * 100.0 if wall > 0 else 0.0
            lines.append(
                f"  {k[:-2]:<10} {totals[k]:>10.3f}s  {share:>5.1f}% of round wall"
            )
    if net_lat:
        if lines:
            lines.append("")
        header = (
            f"  {'metric':<28} {'count':>7} {'p50':>10} {'p95':>10} "
            f"{'p99':>10} {'max':>10}"
        )
        lines.append("wire latency (log-bucket percentiles):")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for name in sorted(net_lat):
            v = net_lat[name]
            lines.append(
                f"  {name:<28} {int(v.get('count', 0)):>7} "
                f"{_fmt_lat(v.get('p50')):>10} {_fmt_lat(v.get('p95')):>10} "
                f"{_fmt_lat(v.get('p99')):>10} {_fmt_lat(v.get('max')):>10}"
            )
    return "\n".join(lines)


def render_report(records: list[dict]) -> str:
    """ASCII dashboard for one run's telemetry records."""
    s = summarize_run(records)
    sections = [
        _render_header(s),
        "per-round breakdown:",
        format_round_summary(s.rounds),
        "",
    ]
    network = _render_network(s)
    if network is not None:
        sections.extend(["network:", network, ""])
    sections.extend(
        [
            "per-client health:",
            _render_client_table(s),
            "",
            f"alerts ({len(s.alerts)}):",
        ]
    )
    rollup = _render_alert_rollup(s)
    if rollup is not None:
        sections.append(rollup)
    sections.append(_render_alerts(s.alerts))
    return "\n".join(sections)


# ---------------------------------------------------------------------------
# run diffing + CI gate
# ---------------------------------------------------------------------------
def diff_runs(a_records: list[dict], b_records: list[dict]) -> dict:
    """Compare two runs' telemetry; returns ``{metric: (a, b, delta)}``.

    Convention: ``a`` is the baseline, ``b`` the candidate; ``delta`` is
    ``b − a`` (so a negative accuracy delta is a regression in ``b``).
    """
    a, b = summarize_run(a_records), summarize_run(b_records)

    def pair(va, vb):
        delta = (vb - va) if _finite(va) and _finite(vb) else None
        return (va, vb, delta)

    return {
        "rounds": pair(a.num_rounds, b.num_rounds),
        "final_acc": pair(a.final_acc(), b.final_acc()),
        "best_acc": pair(a.best_acc(), b.best_acc()),
        "total_bytes": pair(a.total_bytes(), b.total_bytes()),
        "bytes_up": pair(a.total("bytes_up"), b.total("bytes_up")),
        "bytes_down": pair(a.total("bytes_down"), b.total("bytes_down")),
        "wall_s": pair(a.total("wall_s"), b.total("wall_s")),
        "compute_s": pair(a.total("compute_s"), b.total("compute_s")),
        "comm_s": pair(a.total("comm_s"), b.total("comm_s")),
        "alerts": pair(len(a.alerts), len(b.alerts)),
    }


_DIFF_FORMATS = {
    "rounds": ("d", None),
    "final_acc": (".4f", None),
    "best_acc": (".4f", None),
    "total_bytes": ("d", _fmt_bytes),
    "bytes_up": ("d", _fmt_bytes),
    "bytes_down": ("d", _fmt_bytes),
    "wall_s": (".3f", None),
    "compute_s": (".3f", None),
    "comm_s": (".3f", None),
    "alerts": ("d", None),
}


def format_diff(diff: dict, name_a: str = "A", name_b: str = "B") -> str:
    """Tabulate a :func:`diff_runs` result."""
    header = f"{'metric':<12}  {name_a:>14}  {name_b:>14}  {'Δ (B−A)':>14}"
    lines = [header, "-" * len(header)]
    for metric, (va, vb, delta) in diff.items():
        spec, render = _DIFF_FORMATS.get(metric, (".4f", None))

        def cell(v):
            if not _finite(v):
                return "-"
            if render is not None:
                return render(v)
            return format(int(v) if spec == "d" else v, spec)

        if delta is None:
            d = "-"
        elif render is not None:
            sign = "+" if delta >= 0 else "-"
            d = f"{sign}{render(abs(delta))}"
        else:
            d = format(int(delta) if spec == "d" else delta, "+" + spec)
        lines.append(f"{metric:<12}  {cell(va):>14}  {cell(vb):>14}  {d:>14}")
    return "\n".join(lines)


def gate_violations(
    diff: dict,
    acc_drop_tol: float = 0.01,
    bytes_inflate_tol: float = 0.10,
    allow_new_alerts: bool = True,
) -> list[str]:
    """CI-gate check on a run diff; returns human-readable violations.

    Fails when the candidate's final accuracy drops more than
    ``acc_drop_tol`` below the baseline, or total bytes inflate by more
    than ``bytes_inflate_tol`` (fractional).  With
    ``allow_new_alerts=False``, any increase in alert count also fails.
    An empty list means the gate passes.
    """
    violations = []
    acc_a, acc_b, acc_delta = diff["final_acc"]
    if acc_delta is not None and -acc_delta > acc_drop_tol:
        violations.append(
            f"final accuracy regressed by {-acc_delta:.4f} "
            f"({acc_a:.4f} → {acc_b:.4f}, tolerance {acc_drop_tol:.4f})"
        )
    bytes_a, bytes_b, _ = diff["total_bytes"]
    if _finite(bytes_a) and _finite(bytes_b) and bytes_a > 0:
        inflation = bytes_b / bytes_a - 1.0
        if inflation > bytes_inflate_tol:
            violations.append(
                f"total bytes inflated by {inflation:.1%} "
                f"({_fmt_bytes(bytes_a)} → {_fmt_bytes(bytes_b)}, "
                f"tolerance {bytes_inflate_tol:.0%})"
            )
    alerts_a, alerts_b, alerts_delta = diff["alerts"]
    if not allow_new_alerts and alerts_delta is not None and alerts_delta > 0:
        violations.append(f"alert count increased ({int(alerts_a)} → {int(alerts_b)})")
    return violations
