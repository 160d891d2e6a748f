"""Zero-dependency metrics registry: counters, gauges, histograms, sinks.

The runtime previously exposed exactly one aggregate view of device
traffic — the flat :class:`repro.bus.IoAccounting` counter block.  This
module generalises that into a small metrics registry in the style of
``prometheus_client`` (names + label sets, counters, gauges and
histograms) without taking any dependency: the telemetry collector
feeds it per-variable, per-register and per-driver rollups, the fleet's
live plane (:mod:`repro.obs.live`) feeds it request latencies and
queue-depth gauges, and pluggable sinks receive snapshots for export.

Everything here is plain data; nothing imports from :mod:`repro.devil`
or :mod:`repro.bus`, so the bus and runtime can import this package
without cycles.

Thread model: every instrument mutation (``inc``/``set``/``observe``)
and every multi-field read (``snapshot``/``quantile``) takes that
instrument's own lock, so instruments shared between fleet workers are
exact — no torn ``+=``, no half-updated histogram ever observed.  The
registry's get-or-create is separately thread-safe (hit = one dict
probe, miss registers under the registry lock).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable

#: Default histogram bucket upper bounds (microseconds-friendly
#: log-ish scale, similar to Prometheus defaults).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1000.0, 2500.0, 5000.0, 10000.0)

#: Bucket bounds for fleet request latencies (microseconds).  Fleet
#: requests span tens of port operations — with the sleeping latency
#: model a request runs milliseconds, so the span-level default scale
#: (capped at 10ms) would dump everything into the overflow bucket.
LATENCY_BUCKETS_US = (50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                      5000.0, 10000.0, 25000.0, 50000.0, 100000.0,
                      250000.0, 500000.0, 1000000.0)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


def bucket_quantile(buckets, counts, maximum, q: float) -> float:
    """Estimate the ``q``-quantile of bucketed observations.

    ``counts`` has one slot per bound in ``buckets`` plus a +Inf
    overflow slot.  Returns the upper bound of the bucket where the
    cumulative count crosses ``q * total`` — a conservative (over-)
    estimate, which is the right bias for a stall detector sizing its
    window from the observed p95; the overflow bucket resolves to the
    observed ``maximum``.  Heartbeat readers share it with
    :meth:`Histogram.quantile`.
    """
    total = sum(counts)
    if not total:
        return 0.0
    target = q * total
    cumulative = 0
    for bound, bucket_count in zip(buckets, counts):
        cumulative += bucket_count
        if cumulative >= target:
            return bound
    return float(maximum)  # overflow bucket


class Counter:
    """A monotonically increasing counter (updates are atomic)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        with self._lock:
            self.value += amount

    def raise_to(self, value: int) -> None:
        """Monotonically lift the counter to an absolute ``value``.

        The idiom for re-publishing an external absolute counter (the
        bus's ``trace_dropped``) without double counting: repeated
        calls with the same or a smaller value are no-ops.
        """
        with self._lock:
            if value > self.value:
                self.value = value

    def snapshot(self) -> dict:
        return {"type": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down: queue depths, occupancy.

    Unlike :class:`Counter` a gauge represents the *current* level of
    something, so it supports ``set``/``inc``/``dec``.  All updates are
    atomic under the instrument's own lock.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A histogram with fixed upper-bound buckets plus sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts",
                 "count", "total", "minimum", "maximum", "_lock")

    def __init__(self, name: str, labels: dict[str, str],
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        #: One count per bound, plus a final +Inf overflow slot.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.buckets, value)] += 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts
        (:func:`bucket_quantile`)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return bucket_quantile(self.buckets, self.bucket_counts,
                                   self.maximum, q)

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        The merge seam for the process fleet: workers observe request
        latencies into private histograms and ship plain snapshot
        dicts at sync points (locks don't pickle; snapshots do).
        Bucket bounds must match exactly.
        """
        keys = [repr(bound) for bound in self.buckets] + ["+Inf"]
        buckets = snapshot["buckets"]
        if sorted(buckets) != sorted(keys):
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ "
                f"({sorted(buckets)} vs {sorted(keys)})")
        with self._lock:
            for index, key in enumerate(keys):
                self.bucket_counts[index] += buckets[key]
            self.count += snapshot["count"]
            self.total += snapshot["sum"]
            for bound_name, better in (("min", min), ("max", max)):
                theirs = snapshot[bound_name]
                if theirs is None:
                    continue
                attr = "minimum" if bound_name == "min" else "maximum"
                ours = getattr(self, attr)
                setattr(self, attr,
                        theirs if ours is None else better(ours, theirs))

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "histogram", "name": self.name,
                    "labels": dict(self.labels),
                    "count": self.count, "sum": self.total,
                    "min": self.minimum, "max": self.maximum,
                    "buckets": {
                        **{repr(bound): count for bound, count
                           in zip(self.buckets, self.bucket_counts)},
                        "+Inf": self.bucket_counts[-1]}}


#: A sink receives the full registry snapshot (a list of metric dicts).
Sink = Callable[[list[dict]], None]


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    ``counter("var.calls", device="ide", variable="head")`` returns the
    same :class:`Counter` for the same name + label set, so call sites
    never hold references across rebinds.  :meth:`flush` pushes a
    snapshot to every registered sink — the pluggable-export point
    (JSONL writers, CI trend collectors, test probes).

    Get-or-create is thread-safe (hit = one dict probe, miss registers
    under a lock), so fleet workers can share one registry.  Mutating a
    metric (``inc``/``set``/``observe``) is also atomic — each
    instrument carries its own lock — so concurrent workers hammering
    one shared counter lose no updates.
    """

    def __init__(self):
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._sinks: list[Sink] = []
        self._lock = threading.Lock()

    # -- construction ---------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = ("counter", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = Counter(name, labels)
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = ("gauge", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = Gauge(name, labels)
        return metric  # type: ignore[return-value]

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        key = ("histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = Histogram(
                        name, labels, buckets)
        return metric  # type: ignore[return-value]

    # -- inspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict]:
        """Every metric as plain data, deterministically ordered."""
        return [self._metrics[key].snapshot()
                for key in sorted(self._metrics)]

    def value(self, name: str, **labels: str) -> int | float:
        """Current value of a counter or gauge (0 if it never fired)."""
        for kind in ("counter", "gauge"):
            metric = self._metrics.get((kind, name, _label_key(labels)))
            if metric is not None:
                return metric.value  # type: ignore[union-attr]
        return 0

    def find(self, name: str) -> list[Counter | Gauge | Histogram]:
        """Every metric registered under ``name``, any label set."""
        return [metric for (_, metric_name, _), metric
                in sorted(self._metrics.items())
                if metric_name == name]

    # -- sinks ----------------------------------------------------------

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def flush(self) -> list[dict]:
        """Snapshot once and hand it to every sink; returns it too."""
        snapshot = self.snapshot()
        for sink in self._sinks:
            sink(snapshot)
        return snapshot
