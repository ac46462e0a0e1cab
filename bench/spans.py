"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around calls into each
layer's public functions: name, start, end, the span that caused it, and
the run they belong to.  They stay in memory until the run ends and are
written out once.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from statistics import median


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int:
        """Record a finished span; returns its id."""
        sid = len(self.spans)
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
             "run": self.run_id, "attrs": attrs}
        )
        return sid

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; nests under whichever span is open."""
        parent = self._open[-1] if self._open else None
        sid = self.add(name, time.perf_counter(), 0.0, parent, **attrs)
        self._open.append(sid)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()
            self._open.pop()

    def timed(self, name: str, fn, **attrs):
        """Wrap ``fn`` so each call is one span."""
        def wrapper(*args, **kwargs):
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper

    # -- reading ----------------------------------------------------------
    def select(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def durations(self, name: str, **attrs) -> list[float]:
        return [s["end"] - s["start"] for s in self.select(name, **attrs)]

    def median(self, name: str, **attrs) -> float:
        values = self.durations(name, **attrs)
        return median(values) if values else 0.0

    def sums_under(self, name: str, ancestor: str) -> list[float]:
        """Total duration of ``name`` spans per enclosing ``ancestor`` span.

        One entry per ancestor span, in the order they were opened; a
        ``name`` span counts toward the nearest ``ancestor`` above it.
        """
        totals = {s["id"]: 0.0 for s in self.spans if s["name"] == ancestor}
        for s in self.select(name):
            up = s["parent"]
            while up is not None and up not in totals:
                up = self.spans[up]["parent"]
            if up is not None:
                totals[up] += s["end"] - s["start"]
        return list(totals.values())

    def self_times(self) -> dict[int, float]:
        """Self time per span id: duration minus the union of its children."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, reach), min(end, s["end"])
                if end > start:
                    covered += end - start
                    reach = end
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "clock": "perf_counter", "spans": self.spans}, f)


class NullRecorder:
    """Untraced runs: same calls, nothing recorded, nothing wrapped."""

    _null = nullcontext()

    def span(self, name: str, **attrs):
        return self._null

    def timed(self, name: str, fn, **attrs):
        return fn
