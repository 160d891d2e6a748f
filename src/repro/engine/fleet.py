"""The device fleet: N simulated devices behind one concurrent engine.

A :class:`Fleet` instantiates any mix of shipped specifications on one
shared :class:`~repro.bus.ThreadSafeBus`, each device in its own
``0x1000``-aligned port slot, and binds one set of Devil stubs per
device under any of the three execution strategies.  Requests —
callables shaped exactly like the shipped workloads, ``fn(stubs,
aux)`` — are routed by a scheduling policy to a per-device
:class:`DeviceSession` and executed by a bounded worker pool.

Concurrency model (see ``docs/CONCURRENCY.md``):

* **Sessions are exclusive.**  Each device has exactly one session, and
  the session lock is held for the whole request.  Everything above the
  bus — the runtime's register cache, shadow cache, transaction
  context, the specializer's closures — therefore needs no internal
  locking, and the single-device hot path stays the lock-free
  straight-line code that the single-threaded benchmarks measure.
* **The bus is shared.**  Cross-device safety lives in
  :class:`~repro.bus.ThreadSafeBus`: per-device mapping locks, sharded
  accounting merged on read, a locked trace ring.
* **Scheduling is deterministic at submit time.**  ``submit`` picks the
  session in the producer thread, so under ``round-robin`` the request
  → device assignment is a pure function of submission order — the
  property the exactness stress tests and golden pinning rely on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..bus import ThreadSafeBus
from ..devices.busmouse import REGION_SIZE as MOUSE_REGION
from ..devices.busmouse import BusmouseModel
from ..devices.cs4236 import REGION_SIZE as CS_REGION
from ..devices.cs4236 import Cs4236Model
from ..devices.dma8237 import REGION_SIZE as DMA_REGION
from ..devices.dma8237 import Dma8237Model
from ..devices.ide import REGION_SIZE as IDE_REGION
from ..devices.ide import IdeControlPort, IdeDiskModel
from ..devices.ne2000 import REGION_SIZE as NE_REGION
from ..devices.ne2000 import (
    Ne2000DataPort,
    Ne2000Model,
    Ne2000ResetPort,
)
from ..devices.permedia2 import REGION_SIZE as PM2_REGION
from ..devices.permedia2 import Permedia2Aperture, Permedia2Model
from ..devices.pic8259 import REGION_SIZE as PIC_REGION
from ..devices.pic8259 import Pic8259Model
from ..devices.piix4 import REGION_SIZE as BM_REGION
from ..devices.piix4 import Piix4Model
from .pool import WorkerPool
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


class LatencyBus(ThreadSafeBus):
    """A thread-safe bus that charges wall-clock time per operation.

    Models the fixed cost of a port transaction (ISA ``inb`` ≈ 1µs;
    PCI posted writes far less) with ``time.sleep``, which releases the
    GIL — so, exactly like real programmed I/O stalling one core,
    latency on one device overlaps with work on others.  Block
    transfers charge one setup latency plus a (much smaller) per-word
    latency rather than a full op per word, mirroring REP INSW against
    a ready FIFO.

    The sleep happens *before* the per-device lock is taken: it models
    the bus transaction itself, not device-side processing, so two
    requests against different devices overlap their stalls fully.
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


def map_fleet_device(bus, name: str, slot: int, label: str):
    """Map one instance of spec ``name`` into ``bus`` at base ``slot``.

    Returns ``(aux, bases)`` with the same shapes as
    :func:`repro.obs.workloads.build_machine`, so every shipped
    workload and transactional workload runs unmodified against a fleet
    device.  Auxiliary models get the same deterministic seeding as the
    single-device machines (the parity suites compare final state).
    """
    if name == "busmouse":
        mouse = BusmouseModel()
        mouse.move(5, -3)
        mouse.set_buttons(0b101)
        bus.map_device(slot, MOUSE_REGION, mouse, label)
        return {"mouse": mouse}, {"base": slot}
    if name == "dma8237":
        dma = Dma8237Model()
        bus.map_device(slot, DMA_REGION, dma, label)
        return {"dma": dma}, {"base": slot}
    if name == "pic8259":
        pic = Pic8259Model()
        bus.map_device(slot, PIC_REGION, pic, label)
        return {"pic": pic}, {"base": slot}
    if name == "ne2000":
        nic = Ne2000Model()
        bus.map_device(slot, NE_REGION, nic, label)
        bus.map_device(slot + 0x10, 2, Ne2000DataPort(nic),
                       f"{label}-data")
        bus.map_device(slot + 0x1F, 1, Ne2000ResetPort(nic),
                       f"{label}-reset")
        return {"nic": nic}, \
            {"base": slot, "data": slot + 0x10, "rst": slot + 0x1F}
    if name == "cs4236":
        chip = Cs4236Model()
        bus.map_device(slot, CS_REGION, chip, label)
        return {"chip": chip}, {"base": slot}
    if name == "ide":
        disk = IdeDiskModel(total_sectors=16)
        for index in range(0, len(disk.store), 3):
            disk.store[index] = (index * 7) & 0xFF
        bus.map_device(slot, IDE_REGION, disk, label)
        bus.map_device(slot + 0x200, 1, IdeControlPort(disk),
                       f"{label}-ctrl")
        return {"disk": disk}, \
            {"cmd": slot, "data": slot, "data32": slot,
             "ctrl": slot + 0x200}
    if name == "piix4":
        disk = IdeDiskModel(total_sectors=16)
        memory = bytearray(1 << 16)
        busmaster = Piix4Model(disk, memory)
        bus.map_device(slot, BM_REGION, busmaster, label)
        return {"busmaster": busmaster, "memory": memory}, \
            {"io": slot, "dtp": slot + 4}
    if name == "permedia2":
        gpu = Permedia2Model(width=64, height=48)
        bus.map_device(slot, PM2_REGION, gpu, label)
        bus.map_device(slot + 0x800, 1, Permedia2Aperture(gpu),
                       f"{label}-fb")
        return {"gpu": gpu}, {"regs": slot, "fb": slot + 0x800}
    raise ValueError(f"no fleet mapping for spec {name!r}")


@dataclass
class DeviceSession:
    """One fleet device: its stubs, models, and the exclusive lock.

    The lock serializes requests against this device.  While it is
    held the session owns the whole Devil runtime stack for the device
    (register cache, shadow cache, transaction context), which is why
    none of those layers needs locks of its own.
    """

    label: str
    spec: str
    slot: int
    stubs: object
    aux: dict
    bases: dict
    #: Scheduling weight for ``weighted-round-robin`` (1 = plain share).
    weight: int = 1
    lock: threading.Lock = field(default_factory=threading.Lock)
    completed: int = 0

    def execute(self, request: Request):
        with self.lock:
            result = request(self.stubs, self.aux)
            self.completed += 1
            return result


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


class Fleet:
    """N shipped devices, one thread-safe bus, a scheduled worker pool.

    ``devices`` is a list of spec names, repeats meaning multiple
    instances (``["ide", "ide", "ne2000"]``).  Requests are submitted
    per spec and the policy picks which instance serves each one.

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
                 telemetry=None):
        from ..obs.workloads import bind_stubs

        if not devices:
            raise ValueError("a fleet needs at least one device")
        if policy not in SCHEDULERS:
            raise ValueError(
                f"unknown policy {policy!r} "
                f"(have: {', '.join(sorted(SCHEDULERS))})")
        strategy = resolve_strategy(strategy, shadow_cache)
        self.strategy = strategy
        self.policy = policy
        if op_latency_us or word_latency_us:
            self.bus = LatencyBus(op_latency_us=op_latency_us,
                                  word_latency_us=word_latency_us,
                                  tracing=tracing,
                                  trace_limit=trace_limit)
        else:
            self.bus = ThreadSafeBus(tracing=tracing,
                                     trace_limit=trace_limit)
        self.sessions: list[DeviceSession] = []
        for name, label, slot in fleet_layout(devices):
            aux, bases = map_fleet_device(self.bus, name, slot, label)
            stubs = bind_stubs(name, strategy, self.bus, bases,
                               shadow_cache=shadow_cache)
            self.sessions.append(DeviceSession(
                label=label, spec=name, slot=slot,
                stubs=stubs, aux=aux, bases=bases,
                weight=session_weight(weights, label, name)))
        self.scheduler = SCHEDULERS[policy](self.sessions)
        self.pool = WorkerPool(workers, queue_depth=queue_depth)
        self.submitted = 0
        #: Live telemetry plane (``None`` = off; ``True`` builds one).
        #: Kept entirely off the request path: an untelemetered submit
        #: pays a single ``is None`` test.
        if telemetry is True:
            from ..obs.live import FleetTelemetry

            telemetry = FleetTelemetry()
        self.telemetry = telemetry or None
        self._health = None

    # -- request flow ---------------------------------------------------

    def submit(self, spec: str, request: Request) -> None:
        """Route one request to a device of ``spec`` and enqueue it.

        The session is picked *here*, in the caller's thread, so the
        request → device assignment depends only on submission order,
        not on worker timing.  Blocks when the queue is full.
        """
        session = self.scheduler.acquire(spec)
        scheduler = self.scheduler
        telemetry = self.telemetry

        if telemetry is None:
            def work():
                try:
                    session.execute(request)
                finally:
                    scheduler.release(session)
        else:
            from .requests import request_label

            label = request_label(request)
            submitted_at = time.perf_counter()
            telemetry.note_submit("thread", spec, session.label, label)

            def work():
                worker = threading.current_thread().name
                telemetry.request_begin(worker, "thread", label)
                error = None
                try:
                    session.execute(request)
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    scheduler.release(session)
                    telemetry.request_done(worker, "thread", spec,
                                           submitted_at, error)

        self.pool.submit(work)
        self.submitted += 1

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

    @property
    def accounting(self):
        """Merged I/O accounting across every device (see bus docs)."""
        return self.bus.accounting

    def accounting_by_device(self):
        return self.bus.accounting_by_device()

    def device_states(self) -> dict[str, bytes]:
        """Byte-comparable per-mapping end-state (see bus seam docs).

        Only sound after :meth:`drain` — like every exactness check.
        """
        return self.bus.state_snapshot()

    def completed_by_device(self) -> dict[str, int]:
        """``label -> completed request count`` (the placement record)."""
        return {session.label: session.completed
                for session in self.sessions}

    def sessions_of(self, spec: str) -> list[DeviceSession]:
        return [s for s in self.sessions if s.spec == spec]

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
