"""Dependency-free metrics registry: counters, gauges, log histograms.

Design constraints, in order:

* **O(1) hot-path recording.**  ``Counter.inc`` is one guarded ``+=``;
  ``Histogram.record`` is a ``log2`` plus one dict bump.  Handles can be
  bound once (``metrics().counter(NAME)``) and hit repeatedly, and a
  registry lookup itself is a single dict probe on the warm path.
* **Mergeable.**  Every metric serializes to plain JSON
  (:meth:`MetricsRegistry.snapshot`) and snapshots from different
  processes merge exactly: counters and gauges add, histograms add
  bucket-wise.  Percentiles are computed *after* merging, from the
  buckets, so p95 over a worker pool is the pool-wide p95 — not an
  average of per-worker p95s.
* **Kill switch.**  ``REPRO_OBS=off`` in the environment (or
  :func:`set_enabled` at runtime) turns every record method into an
  early return so the overhead bench can measure a true baseline.
  Counts that are functional state are not registry metrics at all:
  witness-cache and kernel-store events live on ``WitnessSetCache`` /
  ``StoreStats``, stay exact under the switch, and reach snapshots
  through ``Engine.aggregate_stats``.

Histograms are log-bucketed at 4 buckets per doubling (relative bucket
width ``2**0.25 - 1`` ≈ 19%), which bounds percentile error well below
what latency dashboards care about while keeping snapshots tiny
(a 1 µs – 1000 s range spans ~160 possible buckets, sparsely occupied).

Thread-safety: metric creation is locked; recording relies on the GIL
(a lost increment under extreme contention skews telemetry by one, never
corrupts state), which is the standard trade for zero hot-path locking.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any, Iterable, Mapping, TypeVar, Union

OBS_ENV = "REPRO_OBS"

_OFF_VALUES = frozenset({"0", "off", "false", "no", "disabled"})

_BUCKETS_PER_DOUBLING = 4

#: Synthetic bucket index for values <= 0 (clock jitter clamps, empty
#: durations).  Far below any real ``ceil(4*log2(v))`` for v > 2**-250.
_ZERO_BUCKET = -(10**6)

_enabled: bool = os.environ.get(OBS_ENV, "").strip().lower() not in _OFF_VALUES


def enabled() -> bool:
    """Return whether observability recording is currently on."""

    return _enabled


def set_enabled(value: bool) -> None:
    """Turn recording on/off in-process (equivalent to ``REPRO_OBS``)."""

    global _enabled
    _enabled = bool(value)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if _enabled:
            self.value += amount

    def as_value(self) -> float:
        return self.value


class Gauge:
    """Point-in-time level (queue depth, active connections)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        if _enabled:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        if _enabled:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        if _enabled:
            self.value -= amount

    def as_value(self) -> float:
        return self.value


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.ceil(_BUCKETS_PER_DOUBLING * math.log2(value))


def _bucket_bounds(index: int) -> tuple[float, float]:
    if index == _ZERO_BUCKET:
        return (0.0, 0.0)
    return (
        2.0 ** ((index - 1) / _BUCKETS_PER_DOUBLING),
        2.0 ** (index / _BUCKETS_PER_DOUBLING),
    )


class Histogram:
    """Log-bucketed distribution with exact count/sum/max.

    Buckets hold counts keyed by ``ceil(4*log2(value))``; merging two
    histograms is bucket-wise addition, so percentile summaries computed
    from a merged histogram equal those computed from the union of the
    underlying samples (up to the ~19% bucket resolution).
    """

    __slots__ = ("count", "total", "max", "buckets")

    kind = "histogram"

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.max: float = 0.0
        self.buckets: dict[int, int] = {}

    def record(self, value: float) -> None:
        if not _enabled:
            return
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def percentile(self, quantile: float) -> float:
        """Estimate the ``quantile`` (0..1) value from the buckets."""

        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if cumulative + in_bucket >= rank:
                low, high = _bucket_bounds(index)
                fraction = (rank - cumulative) / in_bucket
                estimate = low + (high - low) * min(1.0, max(0.0, fraction))
                return min(estimate, self.max) if self.max > 0 else estimate
            cumulative += in_bucket
        return self.max

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max
        for index, in_bucket in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + in_bucket

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "buckets": {str(index): n for index, n in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        histogram = cls()
        histogram.count = int(data.get("count", 0))
        histogram.total = float(data.get("sum", 0.0))
        histogram.max = float(data.get("max", 0.0))
        buckets = data.get("buckets", {})
        histogram.buckets = {int(index): int(n) for index, n in buckets.items()}
        return histogram


Metric = Union[Counter, Gauge, Histogram]

_M = TypeVar("_M", Counter, Gauge, Histogram)


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: ``\\``, ``"`` and newlines."""

    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def series_key(name: str, labels: Mapping[str, str] | None = None) -> str:
    """Encode ``name`` + sorted labels as one Prometheus-style key.

    Label values are escaped per the Prometheus exposition rules, so a
    value carrying a quote or backslash can neither corrupt the rendered
    text format nor confuse the key-splitting in ``exposition.py``.
    """

    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named metric store; one per process, snapshot-mergeable across."""

    __slots__ = ("_metrics", "_lock")

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def _get_or_create(self, key: str, kind: type[_M]) -> _M:
        # Double-checked creation: the warm path is one lock-free dict
        # probe.  Entries are only ever *added* (never removed or
        # replaced), and a CPython dict read is atomic, so the unlocked
        # probe either sees the final metric or misses into the locked
        # slow path below.
        metric = self._metrics.get(key)  # repro-lint: ignore[guarded-by] -- deliberate lock-free first probe of an insert-only dict; atomic under the GIL, re-checked under _lock below
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = kind()
                    self._metrics[key] = metric
        if not isinstance(metric, kind):
            raise ValueError(
                f"metric {key!r} already registered as {metric.kind}, "
                f"requested {kind.kind}"
            )
        return metric

    def counter(self, name: str, labels: Mapping[str, str] | None = None) -> Counter:
        return self._get_or_create(series_key(name, labels), Counter)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get_or_create(series_key(name, labels), Gauge)

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Histogram:
        return self._get_or_create(series_key(name, labels), Histogram)

    def snapshot(self) -> dict[str, Any]:
        """Serialize every metric to a JSON-safe, mergeable dict.

        Holds ``_lock`` while walking ``_metrics``: a scrape racing a
        first-time metric registration would otherwise iterate a dict
        being resized (``RuntimeError: dictionary changed size during
        iteration``).  Snapshotting is off the hot path, so the lock
        hold is free in practice.
        """

        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, Any]] = {}
        with self._lock:
            for key, metric in sorted(self._metrics.items()):
                if isinstance(metric, Counter):
                    counters[key] = metric.value
                elif isinstance(metric, Gauge):
                    gauges[key] = metric.value
                else:
                    histograms[key] = metric.as_dict()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Merge registry snapshots: counters/gauges add, histograms merge.

    Gauges add because the per-process gauges in this codebase are
    levels that aggregate by sum across a pool (queue depths, active
    streams); a pool-wide level is the sum of per-process levels.
    """

    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0) + value
        for key, data in snapshot.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = Histogram.from_dict(data)
            else:
                merged.merge(Histogram.from_dict(data))
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            key: histogram.as_dict() for key, histogram in sorted(histograms.items())
        },
    }


_registry = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """Return the process-wide registry."""

    return _registry


def reset_metrics() -> MetricsRegistry:
    """Replace the process registry with a fresh one (tests/benches only).

    Handles bound from the old registry keep working but stop being
    visible in new snapshots; production code therefore binds handles at
    object construction time, never at module import time.
    """

    global _registry
    _registry = MetricsRegistry()
    return _registry


__all__ = [
    "OBS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "enabled",
    "merge_snapshots",
    "metrics",
    "reset_metrics",
    "series_key",
    "set_enabled",
]
