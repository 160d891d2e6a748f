"""Compute fleets: scheduling pure-CPU workloads on the device engine.

Some workloads want the fleet's machinery — deterministic submit-time
placement, bounded queues with backpressure, worker telemetry, exact
drain semantics — without driving any device at all.  The mutation
campaign (:mod:`repro.mutation.campaign`) is the shipped example: each
request is a pure-compute verdict evaluation that ignores its device
entirely.

:func:`compute_fleet` builds the cheapest fleet that carries such a
workload: one minimal device per worker (the busmouse — a two-port
model with a trivial bind) under the interpreter strategy with zero
modeled latency, on either backend.  Requests are submitted against
``fleet.compute_spec`` and placement is round-robin, so unit *i* runs
on worker ``i % workers`` — a pure function of submission order, the
same determinism contract every fleet workload gets.

Because compute requests hold the GIL for their full duration, the
thread backend executes them effectively serially (it still buys the
scheduling/telemetry surface); the process backend is what makes a
compute campaign scale, exactly like
:func:`~repro.engine.requests.ide_sector_checksum`.  Each unit is one
queue message to its worker; at campaign unit sizes (milliseconds of
CPU) the per-message IPC cost is noise.
"""

from __future__ import annotations

#: The minimal shipped device a compute fleet instantiates per worker.
COMPUTE_SPEC = "busmouse"


def compute_fleet(backend: str, workers: int, *,
                  queue_depth: int = 64, telemetry=None):
    """A fleet sized for a pure-compute workload.

    ``backend`` is ``"thread"`` or ``"process"``; the returned fleet
    has one :data:`COMPUTE_SPEC` device per worker, exposes the spec
    to submit against as ``fleet.compute_spec``, and is otherwise a
    plain :class:`~repro.engine.fleet.Fleet` /
    :class:`~repro.engine.mp.ProcessFleet` (context-manage it, submit,
    drain, read ``completed_by_device()``).
    """
    from .fleet import Fleet
    from .mp import ProcessFleet

    if workers < 1:
        raise ValueError(f"need at least one worker (got {workers})")
    devices = [COMPUTE_SPEC] * workers
    common = dict(strategy="interpret", policy="round-robin",
                  workers=workers, queue_depth=queue_depth,
                  telemetry=telemetry)
    if backend == "thread":
        fleet = Fleet(devices, **common)
    elif backend == "process":
        fleet = ProcessFleet(devices, **common)
    else:
        raise ValueError(
            f"unknown compute backend {backend!r} "
            f"(have: thread, process)")
    fleet.compute_spec = COMPUTE_SPEC
    return fleet
