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
modeled latency, on the process backend.  Requests are submitted
against ``fleet.compute_spec`` and placement is round-robin, so unit
*i* runs on worker ``i % workers`` — a pure function of submission
order, the same determinism contract every fleet workload gets.

Compute requests hold the GIL for their full duration, so only
separate processes make them scale, exactly like
:func:`~repro.engine.requests.ide_sector_checksum`; threads would
serialize on the GIL.  Each unit is one queue message to its worker;
at campaign unit sizes (milliseconds of CPU) the per-message IPC cost
is noise.
"""

from __future__ import annotations

#: The minimal shipped device a compute fleet instantiates per worker.
COMPUTE_SPEC = "busmouse"


def compute_fleet(workers: int, *, queue_depth: int = 64,
                  telemetry=None):
    """A process fleet sized for a pure-compute workload.

    The returned :class:`~repro.engine.mp.ProcessFleet` has one
    :data:`COMPUTE_SPEC` device per worker, exposes the spec to submit
    against as ``fleet.compute_spec``, and is otherwise a plain fleet
    (context-manage it, submit, drain, read ``completed_by_device()``).
    """
    from .mp import ProcessFleet

    if workers < 1:
        raise ValueError(f"need at least one worker (got {workers})")
    fleet = ProcessFleet([COMPUTE_SPEC] * workers, strategy="interpret",
                         policy="round-robin", workers=workers,
                         queue_depth=queue_depth, telemetry=telemetry)
    fleet.compute_spec = COMPUTE_SPEC
    return fleet
