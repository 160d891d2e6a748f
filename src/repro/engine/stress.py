"""Exactness instrument: the parallel-vs-serial stress harness.

The fleet engine's correctness claim is not "no crashes" but *lost
nothing, tore nothing*: a parallel run must produce byte-identical
device state and byte-identical accounting to the same requests run on
one worker.  :func:`run_stress` runs one request list twice — parallel
and single-worker reference — and asserts both invariants, returning
the evidence for the caller (tests, the benchmark's stress leg).  The
parallel run can be the thread fleet or the process fleet; the
reference is always one thread.  End state is
:meth:`~repro.engine.fleet.MergedSessions.device_states`: every
mapping's model pickled (``Bus.state_snapshot``), byte-comparable on
either backend.

Requests must be deterministic and idempotent on device state (the
shipped ones in :mod:`repro.engine.requests` are) and the fleet must
use the ``round-robin`` policy, whose submit-time assignment makes the
request → device mapping independent of worker timing.
"""

from __future__ import annotations

from .fleet import Fleet
from .requests import MIXED_REQUESTS

#: ``backend=`` choices of :func:`run_stress`; resolved lazily so the
#: thread path never imports multiprocessing machinery.
STRESS_BACKENDS = ("thread", "process")


def _stress_evidence(fleet) -> dict:
    """The comparable evidence of one finished stress run."""
    return {"accounting": fleet.accounting,
            "states": fleet.device_states(),
            "trace_dropped": fleet.trace_dropped,
            "trace": fleet.trace}


def run_stress(devices, schedule, workers: int = 8,
               strategy: str = "specialize",
               shadow_cache: bool = False,
               reference=None, backend: str = "thread",
               tracing: bool = False, **fleet_kwargs):
    """Run ``schedule`` (a list of ``(spec, request)``) twice: with
    ``workers`` workers on ``backend`` and with one thread (the serial
    reference), and assert exact equivalence — byte-equal per-mapping
    end-state (``device_states()``) and equal merged accounting.

    With ``tracing=True`` both runs also assert that no trace entries
    were dropped (the unbounded ring must capture every port op) and
    that the merged traces are equal whole: every device runs its
    requests in submission order on either backend.
    Extra ``fleet_kwargs`` (``telemetry``, ``trace_limit``, ...)
    reach the parallel fleet only — the reference stays the canonical
    single-threaded run.

    Returns the reference evidence — pass it back as ``reference`` on
    a later call to amortize the serial run across repeated stress
    iterations.
    """
    if backend not in STRESS_BACKENDS:
        raise ValueError(
            f"unknown stress backend {backend!r} "
            f"(have: {', '.join(STRESS_BACKENDS)})")
    if backend == "process":
        from .mp import ProcessFleet
        fleet_cls = ProcessFleet
    else:
        fleet_cls = Fleet
    with fleet_cls(devices, strategy=strategy, workers=workers,
                   policy="round-robin", shadow_cache=shadow_cache,
                   tracing=tracing, **fleet_kwargs) as fleet:
        fleet.run(schedule)
        parallel = _stress_evidence(fleet)
        completed = fleet.completed()

    if completed != len(schedule):
        raise AssertionError(
            f"fleet completed {completed} of {len(schedule)} requests")

    if reference is None:
        with Fleet(devices, strategy=strategy, workers=1,
                   policy="round-robin", shadow_cache=shadow_cache,
                   tracing=tracing) as fleet:
            fleet.run(schedule)
            reference = _stress_evidence(fleet)

    if parallel["accounting"] != reference["accounting"]:
        raise AssertionError(
            "parallel accounting diverged from the serial reference:\n"
            f"  parallel: {parallel['accounting']}\n"
            f"  serial:   {reference['accounting']}")
    if parallel["states"] != reference["states"]:
        torn = sorted(
            name for name in reference["states"]
            if parallel["states"].get(name) != reference["states"][name])
        raise AssertionError(
            f"device state diverged from the serial reference on: {torn}")
    if tracing:
        for side, evidence in (("parallel", parallel),
                               ("serial", reference)):
            if evidence["trace_dropped"]:
                raise AssertionError(
                    f"{side} run dropped "
                    f"{evidence['trace_dropped']} trace entries")
            if not evidence["trace"]:
                raise AssertionError(
                    f"{side} run produced an empty trace under "
                    f"tracing=True")
        if parallel["trace"] != reference["trace"]:
            raise AssertionError(
                "the merged trace diverged from the serial reference")
    return reference


def mixed_schedule(requests_per_spec: int,
                   specs=("ide", "permedia2", "ne2000")) -> list:
    """The benchmark's interleaved schedule over the mixed fleet."""
    schedule = []
    for _ in range(requests_per_spec):
        for spec in specs:
            schedule.append((spec, MIXED_REQUESTS[spec]))
    return schedule
