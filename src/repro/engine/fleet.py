"""The device fleet: N simulated devices behind one concurrent engine.

A :class:`Fleet` instantiates any mix of shipped specifications, each
device on its own session bus (a plain :class:`~repro.bus.Bus` that
maps only that device, at its ``0x1000``-aligned global slot), and
binds one set of Devil stubs per device under any of the execution
strategies.  Requests — callables shaped exactly like the shipped
workloads, ``fn(stubs, aux)`` — are routed by a scheduling policy to a
per-device :class:`DeviceSession` and executed by a bounded worker
pool.

Concurrency model (see ``docs/CONCURRENCY.md``):

* **Sessions are exclusive.**  Each device has exactly one session, and
  a worker holds the session lock while it takes the session's oldest
  pending request and runs it (:func:`run_request`), so a device runs
  its requests one at a time, in submission order.  Everything the
  request touches — the runtime's register cache, shadow cache,
  transaction context, the specializer's closures, and the session's
  own bus and device models — therefore needs no internal locking,
  and the single-device hot path stays the lock-free straight-line
  code that the single-threaded benchmarks measure.
* **Reads merge the sessions.**  ``accounting``,
  ``accounting_by_device()``, ``device_states()`` and ``trace`` read
  each session bus under its session lock and merge the reports in
  global device order (:class:`MergedSessions`, which the process
  backend :class:`~repro.engine.mp.ProcessFleet` shares).
* **Scheduling is deterministic at submit time.**  ``submit`` picks the
  session in the producer thread, so under ``round-robin`` the request
  → device assignment is a pure function of submission order — the
  property the exactness stress tests and golden pinning rely on.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..bus import Bus, IoAccounting
from .pool import WorkerPool
from .requests import request_label
from .scheduler import SCHEDULERS

#: Port-space stride between fleet devices.  Every shipped spec's
#: regions fit comfortably below it (largest footprint: permedia2 with
#: its framebuffer aperture at slot+0x800).
SLOT_STRIDE = 0x1000

#: A fleet request: same shape as the shipped workload drivers.
Request = Callable[[object, dict], object]


def fleet_layout(devices) -> list[tuple[str, str, int]]:
    """``(spec, label, slot)`` for each device of a fleet composition.

    The single source of truth for fleet naming and port placement,
    shared by the thread backend (:class:`Fleet`) and the process
    backend (:class:`~repro.engine.mp.ProcessFleet`): both assign
    ``<spec><instance>`` labels and ``(index + 1) * SLOT_STRIDE`` slots
    from the *global* device list, so a device lands on the same ports
    and mapping names no matter which backend (or worker process) owns
    it — the property every cross-backend parity check keys on.
    """
    layout: list[tuple[str, str, int]] = []
    counts: dict[str, int] = {}
    for index, name in enumerate(devices):
        counts[name] = counts.get(name, 0) + 1
        label = f"{name}{counts[name] - 1}"
        layout.append((name, label, (index + 1) * SLOT_STRIDE))
    return layout


def session_weight(weights, label: str, spec: str) -> int:
    """Resolve one session's scheduling weight.

    ``weights`` maps device *labels* (``"ide0"``) or whole *specs*
    (``"ide"``) to positive integers; labels win over specs, absent
    entries default to 1.
    """
    if not weights:
        return 1
    weight = weights.get(label, weights.get(spec, 1))
    if not isinstance(weight, int) or weight < 1:
        raise ValueError(
            f"weight for {label!r} must be a positive integer, "
            f"got {weight!r}")
    return weight


class LatencyBus(Bus):
    """A bus that charges wall-clock time per operation.

    Models the fixed cost of a port transaction (ISA ``inb`` ≈ 1µs;
    PCI posted writes far less) with ``time.sleep``, which releases the
    GIL — so, exactly like real programmed I/O stalling one core,
    latency on one device overlaps with work on others.  Block
    transfers charge one setup latency plus a (much smaller) per-word
    latency rather than a full op per word, mirroring REP INSW against
    a ready FIFO.

    A subclass, so the plain :class:`Bus` hot path carries no latency
    branch; the sleep models the bus transaction itself and happens
    before the device is reached.
    """

    def __init__(self, op_latency_us: float = 0.0,
                 word_latency_us: float = 0.0, **kwargs):
        self._op_latency = op_latency_us * 1e-6
        self._word_latency = word_latency_us * 1e-6
        super().__init__(**kwargs)

    def read(self, port: int, width: int = 8) -> int:
        if self._op_latency:
            time.sleep(self._op_latency)
        return super().read(port, width)

    def write(self, value: int, port: int, width: int = 8) -> None:
        if self._op_latency:
            time.sleep(self._op_latency)
        super().write(value, port, width)

    def block_read(self, port: int, count: int,
                   width: int = 16) -> list[int]:
        self._check_block_read(count, width)  # before a negative sleep
        if self._op_latency:
            time.sleep(self._op_latency + count * self._word_latency)
        return super().block_read(port, count, width)

    def block_write(self, port: int, values, width: int = 16) -> int:
        values = list(values)
        if self._op_latency:
            time.sleep(self._op_latency + len(values) * self._word_latency)
        return super().block_write(port, values, width)


#: Each spec's port bases relative to its fleet slot (the IDE control
#: port sits at slot+0x200, not at the canonical machine's 0x3F6).
FLEET_OFFSETS = {
    "busmouse": {"base": 0},
    "dma8237": {"base": 0},
    "pic8259": {"base": 0},
    "ne2000": {"base": 0, "data": 0x10, "rst": 0x1F},
    "cs4236": {"base": 0},
    "ide": {"cmd": 0, "data": 0, "data32": 0, "ctrl": 0x200},
    "piix4": {"io": 0, "dtp": 4},
    "permedia2": {"regs": 0, "fb": 0x800},
}


def map_fleet_device(bus, name: str, slot: int, label: str):
    """Map one instance of spec ``name`` into ``bus`` at base ``slot``.

    Returns ``(aux, bases)`` with the same shapes as
    :func:`repro.obs.workloads.build_machine` (the same
    :func:`~repro.obs.workloads.map_models` seeds the models), so every
    shipped workload and transactional workload runs unmodified
    against a fleet device.
    """
    from ..obs.workloads import map_models

    if name not in FLEET_OFFSETS:
        raise ValueError(f"no fleet mapping for spec {name!r}")
    bases = {port: slot + offset
             for port, offset in FLEET_OFFSETS[name].items()}
    return map_models(bus, name, bases, label), bases


@dataclass
class DeviceSession:
    """One fleet device: its bus, stubs, models, and the exclusive lock.

    The lock serializes requests against this device.  While it is
    held the session owns the whole Devil runtime stack for the device
    (register cache, shadow cache, transaction context) and its bus,
    which is why none of those layers needs locks of its own.  (A
    process worker, the only thread running its sessions, takes none.)
    """

    label: str
    spec: str
    slot: int
    #: The session's private bus: only this device is mapped on it.
    bus: Bus
    stubs: object
    aux: dict
    bases: dict
    #: Scheduling weight for ``weighted-round-robin`` (1 = plain share).
    weight: int = 1
    lock: threading.Lock = field(default_factory=threading.Lock)
    completed: int = 0
    #: Queued ``(request, label, submitted_at)``, oldest first.
    pending: deque = field(default_factory=deque)
    #: ``fleet.submitted`` and ``fleet.request_us`` for this session,
    #: resolved when the fleet starts (``None`` without telemetry).
    submits: object = None
    latency: object = None

    def execute(self, request: Request):
        """Run ``request``; the caller owns the session."""
        result = request(self.stubs, self.aux)
        self.completed += 1
        return result

    def report(self) -> "SessionReport":
        """This session's bus as it stands; the caller keeps it still
        (holds :attr:`lock`, or is the only thread running it)."""
        bus = self.bus
        return SessionReport(self.label, bus.accounting.snapshot(),
                             bus.state_snapshot(), list(bus.trace),
                             bus.trace_dropped)


def open_session(spec: str, label: str, slot: int, *, strategy: str,
                 shadow_cache: bool = False, tracing: bool = False,
                 trace_limit: int | None = None,
                 op_latency_us: float = 0.0,
                 word_latency_us: float = 0.0, collector=None,
                 weight: int = 1) -> DeviceSession:
    """One device of spec ``spec`` at ``slot`` on a bus of its own.

    The one session builder: the thread :class:`Fleet`, the process
    workers and the selector's calibration machine all call it.  The
    bus is a plain :class:`Bus`, or a :class:`LatencyBus` when either
    latency is set; ``trace_limit`` bounds this device's ring.  A
    ``collector`` is attached to the bus and learns the device's port
    map.
    """
    from ..obs.workloads import bind_stubs

    if op_latency_us or word_latency_us:
        bus = LatencyBus(op_latency_us=op_latency_us,
                         word_latency_us=word_latency_us,
                         tracing=tracing, trace_limit=trace_limit)
    else:
        bus = Bus(tracing=tracing, trace_limit=trace_limit)
    bus.collector = collector
    aux, bases = map_fleet_device(bus, spec, slot, label)
    stubs = bind_stubs(spec, strategy, bus, bases,
                       shadow_cache=shadow_cache)
    if collector is not None:
        collector.register_ports(spec, getattr(stubs, "_obs_ports", {}))
    return DeviceSession(label=label, spec=spec, slot=slot, bus=bus,
                         stubs=stubs, aux=aux, bases=bases,
                         weight=weight)


def run_request(session: DeviceSession, request: Request, label,
                started: float, pulse) -> None:
    """Run one request on ``session`` and report it (both backends).

    The caller owns the session and stamps ``started``: at submit on
    threads, at dequeue in a process worker.  ``pulse`` is the
    worker's :class:`~repro.obs.live.WorkerPulse`, or ``None`` without
    telemetry.  A failing request's exception propagates once counted.
    """
    if pulse is None:
        session.execute(request)
        return
    pulse.begin(label)
    dropped = session.bus.trace_dropped
    failed = True
    try:
        session.execute(request)
        failed = False
    finally:
        latency_us = (time.perf_counter() - started) * 1e6
        session.latency.observe(latency_us)
        pulse.done(latency_us, error=failed,
                   trace_dropped=session.bus.trace_dropped - dropped)


@dataclass(frozen=True)
class SessionReport:
    """One session bus read at one instant; plain data, so a process
    worker can ship it to the parent."""

    label: str
    accounting: IoAccounting
    #: ``mapping name -> pickled device state`` (``Bus.state_snapshot``).
    states: dict
    trace: list
    trace_dropped: int


class MergedSessions:
    """The one merge both fleet backends answer every read from.

    A subclass supplies :meth:`_session_reports`, one
    :class:`SessionReport` per device in global device order.  Traces
    concatenate in that order, so each device's segment keeps its
    program order and contiguous block groups, and cross-device order
    is merge order on either backend.  Exact once the fleet is drained.
    """

    def _session_reports(self) -> list[SessionReport]:
        raise NotImplementedError

    @property
    def accounting(self) -> IoAccounting:
        """Merged I/O accounting across every device."""
        total = IoAccounting()
        for report in self._session_reports():
            total.add(report.accounting)
        return total

    def accounting_by_device(self) -> dict:
        """``label -> IoAccounting``; a device's auxiliary mappings
        (``-ctrl``, ``-data``, ``-fb``, ``-reset``) are folded in."""
        return {report.label: report.accounting.snapshot()
                for report in self._session_reports()}

    def device_states(self) -> dict[str, bytes]:
        """Byte-comparable per-mapping end-state (see bus seam docs)."""
        return {name: blob for report in self._session_reports()
                for name, blob in report.states.items()}

    @property
    def trace(self) -> list:
        """Session traces concatenated in global device order."""
        return [entry for report in self._session_reports()
                for entry in report.trace]

    @property
    def trace_dropped(self) -> int:
        """Entries evicted from every device's trace ring."""
        return sum(report.trace_dropped
                   for report in self._session_reports())


def resolve_strategy(strategy: str, shadow_cache: bool = False) -> str:
    """Resolve ``strategy="auto"`` once per fleet, not once per bind.

    Mirrors the auto rule of ``CompiledSpec.bind`` (native when a C
    compiler is present, else the specializer; the shadow cache is a
    specializer-family feature the native binding rejects).  The
    compiler probe itself is memoized per process, and resolving here
    means every per-device bind takes the already-decided branch — one
    probe total for a whole fleet on either backend.
    """
    if strategy != "auto":
        return strategy
    if shadow_cache:
        return "specialize"
    from ..devil.native import native_available

    return "native" if native_available() else "specialize"


class Fleet(MergedSessions):
    """N shipped devices, one bus per session, a scheduled worker pool.

    ``devices`` is a list of spec names, repeats meaning multiple
    instances (``["ide", "ide", "ne2000"]``).  Requests are submitted
    per spec and the policy picks which instance serves each one.
    ``collector`` (a :class:`repro.obs.Collector`) is attached to every
    session bus; stubs bound while :mod:`repro.obs` is enabled report
    spans to it.

    Use as a context manager, or call :meth:`shutdown` explicitly::

        with Fleet(["ide"] * 4, workers=4) as fleet:
            for _ in range(100):
                fleet.submit("ide", ide_sector_read)
            fleet.drain()
        print(fleet.accounting.total_ops)
    """

    backend = "thread"

    def __init__(self, devices, strategy: str = "specialize",
                 policy: str = "round-robin", workers: int = 4,
                 queue_depth: int = 64, shadow_cache: bool = False,
                 tracing: bool = False, trace_limit: int | None = None,
                 op_latency_us: float = 0.0,
                 word_latency_us: float = 0.0,
                 weights: dict | None = None,
                 collector=None,
                 telemetry=None):
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if policy not in SCHEDULERS:
            raise ValueError(
                f"unknown policy {policy!r} "
                f"(have: {', '.join(sorted(SCHEDULERS))})")
        strategy = resolve_strategy(strategy, shadow_cache)
        self.strategy = strategy
        self.policy = policy
        self.sessions: list[DeviceSession] = [
            open_session(name, label, slot, strategy=strategy,
                         shadow_cache=shadow_cache, tracing=tracing,
                         trace_limit=trace_limit,
                         op_latency_us=op_latency_us,
                         word_latency_us=word_latency_us,
                         collector=collector,
                         weight=session_weight(weights, label, name))
            for name, label, slot in fleet_layout(devices)]
        self.scheduler = SCHEDULERS[policy](self.sessions)
        self.submitted = 0
        #: Live telemetry plane (``None`` = off; ``True`` builds one).
        #: Kept entirely off the request path: an untelemetered submit
        #: pays a single ``is None`` test.
        if telemetry is True:
            from ..obs.live import FleetTelemetry

            telemetry = FleetTelemetry()
        self.telemetry = telemetry or None
        if self.telemetry is not None:
            for session in self.sessions:
                session.submits, session.latency = \
                    self.telemetry.instruments(session.spec, "thread")
        self._health = None
        self.pool = WorkerPool(workers, queue_depth=queue_depth,
                               runner=self._runner)

    # -- request flow ---------------------------------------------------

    def submit(self, spec: str, request: Request) -> None:
        """Route one request to a device of ``spec`` and enqueue it.

        The session is picked *here*, in the caller's thread, so the
        request → device assignment depends only on submission order,
        not on worker timing.  Blocks when the queue is full.
        """
        session = self.scheduler.acquire(spec)
        telemetry = self.telemetry
        if telemetry is None:
            session.pending.append((request, None, 0.0))
        else:
            label = request_label(request)
            telemetry.note_submit(session, label)
            session.pending.append((request, label, time.perf_counter()))
        self.pool.submit(session)
        self.submitted += 1

    def _runner(self, worker: str):
        """Pool thread ``worker``'s runner (and heartbeat pulse), built
        when the thread starts; work items name sessions."""
        telemetry, scheduler = self.telemetry, self.scheduler
        pulse = None
        if telemetry is not None:
            from ..obs.live import WorkerPulse

            pulse = WorkerPulse(telemetry.board, worker, "thread",
                                clock=telemetry.clock)

        def serve(session: DeviceSession) -> None:
            with session.lock:
                request, label, submitted_at = session.pending.popleft()
                try:
                    run_request(session, request, label, submitted_at,
                                pulse)
                except BaseException as exc:
                    if telemetry is not None:
                        telemetry.recorder.record(
                            "worker-error", worker=worker,
                            spec=session.spec, error=repr(exc))
                    raise
                finally:
                    scheduler.release(session)

        return serve

    @staticmethod
    def auto(devices, schedule, *, workers: int = 4,
             cpu_count: int | None = None, **fleet_kwargs):
        """Measure ``schedule`` and build whichever backend wins.

        Delegates to :func:`repro.engine.select.auto_fleet`: a short
        calibration burst profiles the request mix (CPU vs sleeping
        I/O), and the verdict — thread fleet or process fleet — comes
        back as ``fleet.choice``.
        """
        from .select import auto_fleet

        return auto_fleet(devices, schedule, workers=workers,
                          cpu_count=cpu_count, **fleet_kwargs)

    def run(self, requests) -> int:
        """Submit every ``(spec, request)`` pair, then drain the pool."""
        count = 0
        for spec, request in requests:
            self.submit(spec, request)
            count += 1
        self.drain()
        return count

    def drain(self) -> None:
        """Wait until every submitted request finished; re-raise errors."""
        try:
            self.pool.drain()
        except BaseException as exc:
            if self.telemetry is not None:
                self.telemetry.recorder.record("drain",
                                               error=repr(exc))
                self.telemetry.dump("drain-error")
            raise
        if self.telemetry is not None:
            self.telemetry.recorder.record("drain",
                                           submitted=self.submitted)

    def shutdown(self) -> None:
        self.pool.shutdown()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.pool.__exit__(exc_type, exc, tb)

    # -- inspection -----------------------------------------------------

    def _session_reports(self) -> list[SessionReport]:
        """Each session read under its lock: a read during traffic waits
        for the request in flight on each device, so none is torn."""
        reports = []
        for session in self.sessions:
            with session.lock:
                reports.append(session.report())
        return reports

    @property
    def trace_dropped(self) -> int:
        """Summed without the session locks (an int cannot tear): the
        live health check reads it while a request may wedge a session."""
        return sum(session.bus.trace_dropped for session in self.sessions)

    def completed_by_device(self) -> dict[str, int]:
        """``label -> completed request count`` (the placement record)."""
        return {session.label: session.completed
                for session in self.sessions}

    def completed(self) -> int:
        return sum(session.completed for session in self.sessions)

    # -- live telemetry plumbing ----------------------------------------

    def worker_liveness(self) -> dict[str, bool]:
        """``worker name -> is it still running`` (health's "dead")."""
        return {thread.name: thread.is_alive()
                for thread in self.pool._threads}

    def queue_depths(self) -> dict[str, int | None]:
        """Pending-work depth per worker (threads share one queue)."""
        depth = self.pool._queue.qsize()
        return {thread.name: depth for thread in self.pool._threads}

    def health_view(self, **kwargs):
        """The :class:`repro.obs.live.FleetHealth` view of this fleet.

        Built on first call (keyword arguments configure the stall
        detector then); later calls return the same instance so status
        transitions are tracked consistently.
        """
        if self._health is None:
            from ..obs.live import FleetHealth

            self._health = FleetHealth(self, **kwargs)
        return self._health
