"""The live fleet telemetry plane: heartbeats, health, flight recorder.

Everything PR 2 built is *post-hoc*: spans, metrics and traces become
visible when a run detaches or a sync point merges worker reports.  A
fleet serving traffic needs the opposite — a view of queue depths,
worker liveness and request latency **while the run is in flight**,
because a server cannot wait for drain to notice a dead worker.  This
module is that view, spanning both fleet backends:

* **Heartbeats** — each worker publishes a :class:`Heartbeat` at every
  request boundary: thread workers into a :class:`HeartbeatBoard`
  (single-writer slots, one atomic reference store per publish),
  process workers into a seqlock
  :class:`~repro.engine.shm.HeartbeatSlot` in shared memory.  Either
  way the parent reads the latest state without locks, queues or sync
  points, and derives p50/p95 from the bucket counts a beat carries.
* **Health** — :class:`FleetHealth` folds heartbeats, liveness and
  queue depths into per-worker ``healthy`` / ``slow`` /
  ``stalled`` / ``dead`` statuses.  The stall detector is the
  heartbeat's *absence of progress*: a worker whose inflight request
  has outlived the detector window (``stall_after`` seconds, or N× the
  observed p95 request latency) is stalled even though it is alive —
  precisely the wedge that a drain would hang on.
* **Flight recorder** — :class:`FlightRecorder` keeps a bounded ring
  of recent structured events (submit, sync, worker error, stall
  transitions).  On a stall or worker failure the ring is dumped
  automatically, so a wedged run leaves a post-mortem instead of a
  hang.
* **Monitor** — :class:`LiveMonitor` is the periodic sampler behind
  ``devil fleet --health-log`` and ``devil top``: every tick it runs
  the health check, appends heartbeat/health JSONL records (the
  schema in ``docs/trace_schema.json``), and flushes metric sinks.

Exactness contract: none of this touches the bus or the device models.
Heartbeats ride side channels (a Python dict; a dedicated shared
memory slot), latency histograms live in a :class:`MetricsRegistry`
off the request path, and a fleet built without ``telemetry=`` pays
one ``is None`` test per submit.  The parity harness runs byte-equal
with the plane on or off.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import IO, Callable

from .metrics import LATENCY_BUCKETS_US, Histogram, MetricsRegistry, \
    bucket_quantile

HEALTHY = "healthy"
SLOW = "slow"
STALLED = "stalled"
DEAD = "dead"

#: Default stall window when no latency has been observed yet, and the
#: floor under the p95-derived window (a fleet of microsecond requests
#: should not flag a scheduling hiccup as a stall).
MIN_STALL_SECONDS = 0.25

#: Stall window = this many times the observed p95 request latency.
STALL_FACTOR = 8.0


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


@dataclass
class Heartbeat:
    """One worker's most recent state, published at request boundaries.

    ``timestamp`` is the worker's last-progress instant
    (``time.monotonic``, comparable across processes on one machine):
    set when a request begins and when it completes.  A worker wedged
    *inside* a request cannot publish — which is the point: its
    heartbeat ages while ``inflight`` stays set, and that age is what
    the stall detector measures.
    """

    worker: str
    backend: str
    completed: int = 0
    inflight: str | None = None
    timestamp: float = 0.0
    errors: int = 0
    trace_dropped: int = 0
    latency_p50_us: float | None = None
    latency_p95_us: float | None = None
    #: ``(bucket counts, maximum)`` of the worker's request latencies
    #: over :data:`LATENCY_BUCKETS_US`, published instead of p50/p95.
    latency: tuple | None = None

    def resolved(self) -> "Heartbeat":
        """This beat with p50/p95 derived from :attr:`latency` (what
        readers see)."""
        if self.latency is None:
            return self
        counts, maximum = self.latency
        return replace(
            self, latency=None,
            latency_p50_us=bucket_quantile(LATENCY_BUCKETS_US, counts,
                                           maximum, 0.5),
            latency_p95_us=bucket_quantile(LATENCY_BUCKETS_US, counts,
                                           maximum, 0.95))

    def to_dict(self) -> dict:
        return {"record": "heartbeat", "worker": self.worker,
                "backend": self.backend, "completed": self.completed,
                "inflight": self.inflight, "timestamp": self.timestamp,
                "errors": self.errors,
                "trace_dropped": self.trace_dropped,
                "latency_p50_us": self.latency_p50_us,
                "latency_p95_us": self.latency_p95_us}


class HeartbeatBoard:
    """Thread-backend heartbeat store: one slot per worker.

    Each slot is written by exactly one pool thread and replaced
    wholesale (a single reference store, atomic under the GIL), so
    publishing takes no lock and readers never see a half-written
    record — the in-process analogue of the shared-memory seqlock slot.
    """

    def __init__(self):
        self._slots: dict[str, Heartbeat] = {}

    def publish(self, beat: Heartbeat) -> None:
        self._slots[beat.worker] = beat

    def latest(self) -> dict[str, Heartbeat]:
        return {worker: beat.resolved()
                for worker, beat in dict(self._slots).items()}


class WorkerPulse:
    """One worker's heartbeat publisher.

    Wraps a sink with a ``publish(record)`` method — the
    :class:`HeartbeatBoard` in-process, a
    :class:`~repro.engine.shm.HeartbeatSlot` across processes — and
    keeps the worker-local running state (completed, error and
    trace-drop counts, a private latency histogram whose bucket counts
    ride along in each beat).  Single-writer: only the owning worker
    calls it.
    """

    def __init__(self, sink, worker: str, backend: str,
                 clock: Callable[[], float] = time.monotonic):
        self._sink = sink
        self._clock = clock
        self.worker = worker
        self.backend = backend
        self.completed = 0
        self.errors = 0
        self.trace_dropped = 0
        self._latency = Histogram("fleet.request_us", {},
                                  LATENCY_BUCKETS_US)
        self._counts: tuple | None = None

    def _publish(self, inflight: str | None) -> None:
        self._sink.publish(Heartbeat(
            self.worker, self.backend, self.completed, inflight,
            self._clock(), self.errors, self.trace_dropped,
            latency=self._counts))

    def begin(self, request: str | None) -> None:
        self._publish(request)

    def done(self, latency_us: float | None = None,
             error: bool = False, trace_dropped: int = 0) -> None:
        """One request finished; ``trace_dropped`` counts the trace
        entries it evicted."""
        self.completed += 1
        if error:
            self.errors += 1
        self.trace_dropped += trace_dropped
        if latency_us is not None:
            latency = self._latency
            latency.observe(latency_us)
            self._counts = (tuple(latency.bucket_counts), latency.maximum)
        self._publish(None)

    def idle(self) -> None:
        """Publish an idle beat (worker startup)."""
        self._publish(None)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlightEvent:
    """One structured event in the recorder ring."""

    ts_us: float
    kind: str
    worker: str | None
    detail: dict

    def to_dict(self) -> dict:
        return {"record": "event", "ts_us": self.ts_us,
                "kind": self.kind, "worker": self.worker,
                "detail": dict(self.detail)}


class FlightRecorder:
    """A bounded ring of recent structured fleet events.

    Same discipline as the bus trace ring: bounded memory, evictions
    counted (``dropped``), never a reason a run slows down or blows up.
    ``dump()`` returns the surviving window oldest-first;
    ``dump_jsonl`` / ``dump_text`` render it for post-mortems.
    """

    def __init__(self, limit: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if limit < 1:
            raise ValueError(f"recorder limit must be positive, "
                             f"got {limit}")
        self.limit = limit
        self._clock = clock
        self._events: deque[FlightEvent] = deque(maxlen=limit)
        self._lock = threading.Lock()
        self.dropped = 0

    def record(self, kind: str, worker: str | None = None,
               **detail) -> None:
        event = FlightEvent(ts_us=self._clock() * 1e6, kind=kind,
                            worker=worker, detail=detail)
        with self._lock:
            if len(self._events) == self.limit:
                self.dropped += 1
            self._events.append(event)

    def events(self) -> list[FlightEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def dump(self) -> list[dict]:
        return [event.to_dict() for event in self.events()]

    def dump_jsonl(self, target: IO[str] | str) -> int:
        """Append the ring as JSONL records; returns the line count."""
        records = self.dump()
        lines = "".join(json.dumps(record, sort_keys=True) + "\n"
                        for record in records)
        if isinstance(target, str):
            with open(target, "a", encoding="utf-8") as handle:
                handle.write(lines)
        else:
            target.write(lines)
        return len(records)

    def dump_text(self) -> str:
        events = self.events()
        lines = [f"flight recorder: {len(events)} event(s)"
                 + (f", {self.dropped} older dropped" if self.dropped
                    else "")]
        for event in events:
            detail = " ".join(f"{key}={value}" for key, value
                              in sorted(event.detail.items()))
            worker = event.worker or "-"
            lines.append(f"  {event.ts_us / 1e6:12.6f}s "
                         f"{event.kind:<12} {worker:<12} {detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The per-fleet telemetry bundle
# ---------------------------------------------------------------------------


class FleetTelemetry:
    """Everything one fleet's live plane hangs off.

    Pass ``telemetry=True`` (or an instance, to share a registry or
    set ``dump_path``) to :class:`~repro.engine.Fleet` /
    :class:`~repro.engine.mp.ProcessFleet`.  Its workers report
    requests through :func:`repro.engine.fleet.run_request`; this
    object owns the metrics registry, the flight recorder, and the
    heartbeat stores for both backends.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 recorder: FlightRecorder | None = None,
                 dump_path: str | None = None,
                 clock: Callable[[], float] = time.monotonic):
        # Explicit None tests: both types define __len__, so an empty
        # (still unused) registry or recorder is falsy.
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.recorder = FlightRecorder() if recorder is None else recorder
        self.dump_path = dump_path
        self.clock = clock
        self.board = HeartbeatBoard()
        #: Process-backend heartbeat readers (worker -> HeartbeatSlot).
        self._readers: dict[str, object] = {}
        self._read_cache: dict[str, Heartbeat] = {}

    # -- request accounting --------------------------------------------

    def instruments(self, spec: str, backend: str):
        """``(fleet.submitted, fleet.request_us)`` of ``spec`` on
        ``backend``; fleets resolve them once, when they start."""
        return (self.metrics.counter("fleet.submitted", spec=spec,
                                     backend=backend),
                self.metrics.histogram("fleet.request_us",
                                       LATENCY_BUCKETS_US, spec=spec,
                                       backend=backend))

    def note_submit(self, session, request: str) -> None:
        """Count and record one request submitted to ``session``."""
        session.submits.inc()
        self.recorder.record("submit", spec=session.spec,
                             device=session.label, request=request)

    # -- process-backend plumbing --------------------------------------

    def attach_reader(self, worker: str, slot) -> None:
        """Register a worker's shared-memory heartbeat slot (parent)."""
        self._readers[worker] = slot

    # -- reads ----------------------------------------------------------

    def heartbeats(self) -> dict[str, Heartbeat]:
        """Latest resolved heartbeat per worker, both stores merged.

        A shared-memory read that catches a worker mid-publish keeps
        the previous sample (latest-value semantics never go backward
        to ``None``).
        """
        beats = self.board.latest()
        for worker, slot in self._readers.items():
            beat = slot.read()
            if beat is not None:
                self._read_cache[worker] = beat.resolved()
            cached = self._read_cache.get(worker)
            if cached is not None:
                beats[worker] = cached
        return beats

    def observed_p95_us(self) -> float:
        """The largest per-(spec, backend) p95 request latency so far."""
        best = 0.0
        for histogram in self.metrics.find("fleet.request_us"):
            if histogram.count:
                best = max(best, histogram.quantile(0.95))
        return best

    def note_trace_dropped(self, dropped: int) -> None:
        """Surface the bus's drop count in metrics *while running*."""
        if dropped:
            self.metrics.counter("bus.trace_dropped").raise_to(dropped)

    def dump(self, reason: str, path: str | None = None) -> str | None:
        """Write a flight-recorder post-mortem; returns the path used."""
        target = path or self.dump_path
        self.recorder.record("dump", reason=reason,
                             path=target or "(memory)")
        if target is None:
            return None
        self.recorder.dump_jsonl(target)
        return target


# ---------------------------------------------------------------------------
# Health
# ---------------------------------------------------------------------------


@dataclass
class WorkerHealth:
    """One worker's status as computed by :class:`FleetHealth`."""

    worker: str
    status: str
    backend: str
    completed: int = 0
    inflight: str | None = None
    inflight_age_s: float | None = None
    queue_depth: int | None = None
    stall_window_s: float = 0.0
    latency_p50_us: float | None = None
    latency_p95_us: float | None = None

    def to_dict(self) -> dict:
        return {"record": "health", "worker": self.worker,
                "status": self.status, "backend": self.backend,
                "completed": self.completed, "inflight": self.inflight,
                "inflight_age_s": self.inflight_age_s,
                "queue_depth": self.queue_depth,
                "stall_window_s": self.stall_window_s,
                "ts_us": time.time() * 1e6}


class FleetHealth:
    """Parent-side per-worker health over a fleet's live telemetry.

    The stall detector: a worker whose heartbeat shows an inflight
    request older than the *stall window* is ``stalled``; older than
    half the window, ``slow``; a worker whose thread/process is gone is
    ``dead``; anything else — idle included, however long — is
    ``healthy``.  The window is ``stall_after`` seconds when given,
    otherwise ``stall_factor`` × the observed p95 request latency,
    floored at ``min_stall_s`` so microsecond fleets don't flag
    scheduler jitter.

    :meth:`check` is the effectful variant: it also updates the live
    gauges, surfaces ``bus.trace_dropped``, records stall/recovery
    transitions in the flight recorder, and triggers the automatic
    post-mortem dump on a new stall.
    """

    def __init__(self, fleet, *, stall_after: float | None = None,
                 stall_factor: float = STALL_FACTOR,
                 slow_fraction: float = 0.5,
                 min_stall_s: float = MIN_STALL_SECONDS,
                 clock: Callable[[], float] = time.monotonic):
        if fleet.telemetry is None:
            raise ValueError(
                "fleet has no telemetry plane — construct it with "
                "telemetry=True (or a FleetTelemetry instance)")
        self.fleet = fleet
        self.telemetry: FleetTelemetry = fleet.telemetry
        self.stall_after = stall_after
        self.stall_factor = stall_factor
        self.slow_fraction = slow_fraction
        self.min_stall_s = min_stall_s
        self.clock = clock
        self._last_status: dict[str, str] = {}

    def stall_window(self) -> float:
        if self.stall_after is not None:
            return self.stall_after
        p95_us = self.telemetry.observed_p95_us()
        return max(self.min_stall_s, self.stall_factor * p95_us * 1e-6)

    def snapshot(self) -> list[WorkerHealth]:
        """Compute every worker's status (no side effects)."""
        now = self.clock()
        window = self.stall_window()
        slow_window = window * self.slow_fraction
        beats = self.telemetry.heartbeats()
        liveness = self.fleet.worker_liveness()
        depths = self.fleet.queue_depths()
        rows: list[WorkerHealth] = []
        for worker in sorted(liveness):
            beat = beats.get(worker)
            age: float | None = None
            if not liveness[worker]:
                status = DEAD
            elif beat is None or beat.inflight is None:
                status = HEALTHY
            else:
                age = now - beat.timestamp
                if age >= window:
                    status = STALLED
                elif age >= slow_window:
                    status = SLOW
                else:
                    status = HEALTHY
            rows.append(WorkerHealth(
                worker=worker, status=status,
                backend=beat.backend if beat else self.fleet.backend,
                completed=beat.completed if beat else 0,
                inflight=beat.inflight if beat else None,
                inflight_age_s=age,
                queue_depth=depths.get(worker),
                stall_window_s=window,
                latency_p50_us=beat.latency_p50_us if beat else None,
                latency_p95_us=beat.latency_p95_us if beat else None))
        return rows

    def check(self) -> list[WorkerHealth]:
        """Snapshot + gauges + transition events + auto-dump."""
        rows = self.snapshot()
        telemetry = self.telemetry
        metrics = telemetry.metrics
        dropped = 0
        for row in rows:
            if row.queue_depth is not None:
                metrics.gauge("fleet.queue_depth",
                              worker=row.worker).set(row.queue_depth)
            metrics.gauge("fleet.inflight", worker=row.worker).set(
                0 if row.inflight is None else 1)
            previous = self._last_status.get(row.worker, HEALTHY)
            if row.status != previous:
                if row.status == STALLED:
                    telemetry.recorder.record(
                        "stall", worker=row.worker,
                        inflight=row.inflight or "",
                        age_s=round(row.inflight_age_s or 0.0, 6),
                        window_s=round(row.stall_window_s, 6))
                    telemetry.dump(f"stall:{row.worker}")
                elif previous == STALLED:
                    telemetry.recorder.record("recovered",
                                              worker=row.worker,
                                              status=row.status)
                self._last_status[row.worker] = row.status
        beats = telemetry.heartbeats()
        if self.fleet.backend == "thread":
            dropped = self.fleet.trace_dropped
        else:
            dropped = sum(beat.trace_dropped for beat in beats.values())
        telemetry.note_trace_dropped(dropped)
        return rows

    def statuses(self) -> dict[str, str]:
        """``{worker: status}`` via :meth:`check` (transitions fire)."""
        return {row.worker: row.status for row in self.check()}


# ---------------------------------------------------------------------------
# Periodic monitor
# ---------------------------------------------------------------------------


class LiveMonitor:
    """A background sampler driving :meth:`FleetHealth.check`.

    Every ``interval`` seconds: run the health check, append one
    heartbeat record and one health record per worker to ``log_path``
    (JSONL, schema-validatable), and ``flush()`` the registry so
    registered sinks (e.g. :class:`repro.obs.export.JsonlSnapshotSink`)
    see fresh snapshots.  Stop with :meth:`stop` or use as a context
    manager; a final sample runs at stop so short runs never log
    nothing.
    """

    def __init__(self, fleet, interval: float = 0.5,
                 log_path: str | None = None,
                 health: FleetHealth | None = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, "
                             f"got {interval}")
        self.fleet = fleet
        self.health = health or FleetHealth(fleet)
        self.interval = interval
        self.log_path = log_path
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> list[WorkerHealth]:
        rows = self.health.check()
        if self.log_path:
            beats = self.health.telemetry.heartbeats()
            with open(self.log_path, "a", encoding="utf-8") as handle:
                for beat in sorted(beats.values(),
                                   key=lambda b: b.worker):
                    handle.write(json.dumps(beat.to_dict(),
                                            sort_keys=True) + "\n")
                for row in rows:
                    handle.write(json.dumps(row.to_dict(),
                                            sort_keys=True) + "\n")
        self.health.telemetry.metrics.flush()
        self.samples += 1
        return rows

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def start(self) -> "LiveMonitor":
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._thread = threading.Thread(target=self._run,
                                        name="fleet-monitor",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.sample()  # final state always lands in the log

    def __enter__(self) -> "LiveMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
