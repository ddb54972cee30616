"""In-memory spans for the traced run, and the per-layer report built from them.

Spans are opened only by the benchmark, around its calls into each
layer's public functions.  Every timed operation runs under one root
span (``op``); layer spans are its children.  A span's *self time* is
its duration minus the time its direct children cover (children of one
span never overlap: the benchmark calls layers one after another on a
single thread), so the layer self times plus the roots' own self time
sum exactly to the roots' total.  The roots' own self time is the part
of an operation no layer span covered: the *gap*.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

ROOT = "op"


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: no span is recorded,
    so one body of layer calls serves both runs."""

    def span(self, name: str):
        return nullcontext()

    def op(self):
        return nullcontext()


NULL = NullTracer()


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out at the end.

    Durations are reported reference-scaled by ``meter`` (see
    ``speed.py``), each span by the host speed around its own interval.
    """

    def __init__(self, workload: str, meter) -> None:
        self.workload = workload
        self.meter = meter
        self.phase = ""
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "name": name,
            "workload": self.workload,
            "phase": self.phase,
            "children_s": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record)
        start = time.perf_counter()
        try:
            yield record
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            record["start"] = start
            record["duration_s"] = duration
            if parent is not None:
                parent["children_s"] += duration

    def op(self):
        """The root span of one timed operation."""
        return self.span(ROOT)

    def _scaled(self, record: dict, seconds: float) -> float:
        start = record["start"]
        return self.meter.scale(seconds, start, start + record["duration_s"])

    def self_time(self, record: dict) -> float:
        """Scaled self time of one span, in seconds (computed once)."""
        if "self_s" not in record:
            record["self_s"] = self._scaled(record, record["duration_s"] - record["children_s"])
        return record["self_s"]

    def summary(self) -> dict:
        """Self time and call count per (phase, layer), plus the gap."""
        table: dict = {}
        for record in self.spans:
            key = (record["phase"], record["name"])
            calls, self_s = table.get(key, (0, 0.0))
            table[key] = (calls + 1, self_s + self.self_time(record))
        roots = [r for r in self.spans if r["name"] == ROOT]
        total = sum(self._scaled(r, r["duration_s"]) for r in roots)
        gap = sum(self.self_time(r) for r in roots)
        layers = {
            f"{phase}/{name}": {"calls": calls, "self_ms": self_s * 1e3}
            for (phase, name), (calls, self_s) in sorted(table.items())
            if name != ROOT
        }
        return {
            "ops": len(roots),
            "spans": len(self.spans),
            "traced_total_ms": total * 1e3,
            "layer_self_ms": (total - gap) * 1e3,
            "unaccounted_share": gap / total if total else 0.0,
            "layers": layers,
        }

    def layer_mean(self, name: str, scale: float = 1e3) -> float:
        """Mean self time per call of one layer across phases (0 when idle)."""
        own = [self.self_time(r) for r in self.spans if r["name"] == name]
        return scale * sum(own) / len(own) if own else 0.0

    def dump(self, path, extra: dict) -> None:
        document = dict(extra, summary=self.summary(), spans=self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
