"""Adaptive backend selection: measure the workload, pick the engine.

The fleet engine has two substrates with opposite failure modes: the
thread backend (:class:`~repro.engine.fleet.Fleet`) serializes on the
GIL exactly when requests compute, and the process backend
(:class:`~repro.engine.mp.ProcessFleet`) pays an IPC toll on every
request.  Which one wins is a property of the *workload* — the CPU
fraction of a request and how many CPUs the host actually has — both
of which are measurable in a few milliseconds.  This module does the
measuring.

:func:`calibrate` runs a short burst of each distinct request kind
against a private single-device machine (same mapping, same strategy,
same latency model as the target fleet — and never the fleet itself,
so calibration cannot perturb exactness) and records wall time
(``perf_counter``) against CPU time (``process_time``).  A sleeping
I/O stall shows up as wall ≫ CPU; a checksum loop shows up as
wall ≈ CPU.

:func:`decide` turns the profiles plus ``os.cpu_count()`` into a
:class:`BackendChoice`:

* one CPU → threads (worker processes would only take turns);
* GIL-bound mix (CPU fraction ≥ ½) under ``strategy="native"`` →
  threads (the compiled core releases the GIL);
* GIL-bound mix on a multi-CPU host → processes;
* I/O-bound mix → threads, which overlap sleeping I/O without the IPC
  toll (measured faster than every process transport on the mixed
  fleet, ``docs/CONCURRENCY.md``).

:func:`auto_fleet` glues it together and is what ``Fleet.auto(...)``
and ``devil fleet --backend auto`` call.  The choice rides along on
the returned fleet as ``fleet.choice`` so callers (and the CLI) can
report what was picked and why.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .requests import encode_request, request_label

#: A request mix whose CPU fraction reaches this is GIL-bound: the
#: thread backend cannot overlap it no matter how many workers.
CPU_BOUND_THRESHOLD = 0.5

#: Default calibration depth per request kind.
CALIBRATION_ROUNDS = 4

#: Wall-clock budget for one kind's calibration burst, seconds; the
#: burst stops early rather than blow this (slow latency models).
CALIBRATION_BUDGET_S = 0.25


@dataclass(frozen=True)
class KindProfile:
    """Measured cost of one distinct ``(spec, request)`` kind."""

    spec: str
    request: str
    #: How many times this kind appears in the calibrated schedule.
    count: int
    #: Mean wall-clock seconds per request.
    wall_s: float
    #: Mean CPU seconds per request.
    cpu_s: float

    @property
    def cpu_fraction(self) -> float:
        """CPU share of wall time, clamped to [0, 1]."""
        if self.wall_s <= 0:
            return 1.0
        return min(1.0, self.cpu_s / self.wall_s)


@dataclass(frozen=True)
class BackendChoice:
    """The selector's verdict, with its inputs kept for reporting."""

    backend: str  # "thread" | "process"
    cpu_count: int
    #: Schedule-weighted mean CPU fraction across kinds.
    cpu_fraction: float
    #: Schedule-weighted mean wall seconds per request.
    wall_s: float
    reason: str
    profiles: tuple = field(default=())


def calibrate(schedule, *, strategy: str = "specialize",
              shadow_cache: bool = False,
              op_latency_us: float = 0.0,
              word_latency_us: float = 0.0,
              rounds: int = CALIBRATION_ROUNDS,
              budget_s: float = CALIBRATION_BUDGET_S) -> list[KindProfile]:
    """Profile each distinct request kind of ``schedule``.

    Each kind runs ``rounds`` times (stopping early at ``budget_s``)
    against a throwaway one-device machine built with the same
    strategy and latency model the target fleet would use.  Requests
    must be shippable (:func:`~repro.engine.requests.encode_request`
    validates them here, so an unshippable request fails before any
    fleet exists) and are assumed idempotent on device state — true of
    every shipped workload and request.
    """
    from .fleet import SLOT_STRIDE, open_session

    kinds: dict = {}
    for spec, request in schedule:
        key = (spec, encode_request(request))
        entry = kinds.get(key)
        if entry is None:
            kinds[key] = [spec, request, 1]
        else:
            entry[2] += 1

    profiles = []
    for spec, request, count in kinds.values():
        session = open_session(spec, f"cal-{spec}", SLOT_STRIDE,
                               strategy=strategy,
                               shadow_cache=shadow_cache,
                               op_latency_us=op_latency_us,
                               word_latency_us=word_latency_us)
        # One warm-up pass: specializer closures, shadow priming.
        request(session.stubs, session.aux)
        executed = 0
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        for _ in range(max(1, rounds)):
            request(session.stubs, session.aux)
            executed += 1
            if time.perf_counter() - wall_start >= budget_s:
                break
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        profiles.append(KindProfile(
            spec=spec, request=request_label(request), count=count,
            wall_s=wall / executed, cpu_s=cpu / executed))
    return profiles


def decide(profiles, cpu_count: int | None = None,
           strategy: str = "specialize") -> BackendChoice:
    """Pick a backend from measured kind profiles.

    ``strategy`` is the *resolved* bind strategy of the fleet being
    chosen for.  It matters for exactly one verdict: a CPU-bound mix
    that would normally force the process backend can instead stay on
    threads when the strategy is ``"native"``, because the compiled
    dispatch core releases the GIL for the whole batched entry frame —
    N thread workers overlap in C without paying the IPC toll at all.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if not profiles:
        return BackendChoice(
            backend="thread", cpu_count=cpu_count,
            cpu_fraction=0.0, wall_s=0.0,
            reason="empty schedule: nothing to measure, threads are "
                   "the zero-overhead default")
    total = sum(p.count for p in profiles)
    wall = sum(p.wall_s * p.count for p in profiles) / total
    cpu = sum(p.cpu_s * p.count for p in profiles) / total
    fraction = min(1.0, cpu / wall) if wall > 0 else 1.0
    if cpu_count <= 1:
        choice = "thread"
        reason = (f"{cpu_count} CPU: worker processes would only "
                  f"take turns; threads avoid the IPC toll entirely")
    elif fraction >= CPU_BOUND_THRESHOLD and strategy == "native":
        choice = "thread"
        reason = (f"CPU fraction {fraction:.2f} ≥ "
                  f"{CPU_BOUND_THRESHOLD} but strategy='native' "
                  f"releases the GIL around batched C dispatch: "
                  f"threads overlap in-process without the IPC toll")
    elif fraction >= CPU_BOUND_THRESHOLD:
        choice = "process"
        reason = (f"CPU fraction {fraction:.2f} ≥ "
                  f"{CPU_BOUND_THRESHOLD}: the mix is GIL-bound and "
                  f"only processes can overlap it")
    else:
        choice = "thread"
        reason = (f"I/O-bound mix ({fraction:.2f} CPU): threads "
                  f"overlap the sleeping I/O without the IPC toll")
    return BackendChoice(
        backend=choice, cpu_count=cpu_count,
        cpu_fraction=fraction, wall_s=wall, reason=reason,
        profiles=tuple(profiles))


def auto_fleet(devices, schedule, *, workers: int = 4,
               cpu_count: int | None = None, **fleet_kwargs):
    """Calibrate against ``schedule``, build the winning backend.

    ``fleet_kwargs`` pass through to the chosen fleet class; the ones
    that shape request cost (``strategy``, ``shadow_cache``,
    ``op_latency_us``, ``word_latency_us``) also shape calibration.
    The returned fleet carries the verdict as ``fleet.choice``.
    """
    from .fleet import Fleet, resolve_strategy
    from .mp import ProcessFleet

    # Resolve "auto" before calibration so the throwaway calibration
    # machine binds the same way the fleet will, and so the verdict
    # can account for the native core's GIL release.
    shadow_cache = fleet_kwargs.get("shadow_cache", False)
    strategy = resolve_strategy(
        fleet_kwargs.get("strategy", "specialize"), shadow_cache)
    fleet_kwargs["strategy"] = strategy
    profiles = calibrate(
        schedule,
        strategy=strategy,
        shadow_cache=shadow_cache,
        op_latency_us=fleet_kwargs.get("op_latency_us", 0.0),
        word_latency_us=fleet_kwargs.get("word_latency_us", 0.0))
    choice = decide(profiles, cpu_count=cpu_count, strategy=strategy)
    fleet_cls = ProcessFleet if choice.backend == "process" else Fleet
    fleet = fleet_cls(devices, workers=workers, **fleet_kwargs)
    fleet.choice = choice
    return fleet
