"""Exactness instruments: state fingerprints and the parallel-vs-serial
stress harness.

The fleet engine's correctness claim is not "no crashes" but *lost
nothing, tore nothing*: a parallel run must produce byte-identical
device state and byte-identical accounting to the same requests run on
one worker.  The helpers here make that comparison mechanical:

* :func:`fingerprint` normalizes any device model (nested objects,
  bytearrays, dataclasses) into hashable plain data so two models can
  be compared field-for-field.
* :func:`run_stress` runs one request list twice — parallel and
  single-worker reference — and asserts both invariants, returning the
  evidence for the caller (tests, the CLI, the benchmark's stress leg).
  The parallel run can be the thread fleet or the process fleet; the
  reference is always one thread.

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


def fingerprint(value, _seen: set | None = None):
    """Normalize a device model graph into comparable plain data."""
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if _seen is None:
        _seen = set()
    marker = id(value)
    if marker in _seen:
        return "<cycle>"
    _seen.add(marker)
    try:
        if isinstance(value, dict):
            return tuple(sorted(
                (str(key), fingerprint(item, _seen))
                for key, item in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(fingerprint(item, _seen) for item in value)
        if isinstance(value, (set, frozenset)):
            return tuple(sorted(repr(fingerprint(item, _seen))
                                for item in value))
        if hasattr(value, "__dict__"):
            return (type(value).__name__,) + tuple(sorted(
                (attr, fingerprint(item, _seen))
                for attr, item in vars(value).items()
                if not callable(item)))
        return repr(value)
    finally:
        _seen.discard(marker)


def fleet_fingerprint(fleet: Fleet):
    """Fingerprint of every device model in the fleet, by label."""
    return tuple(
        (session.label, fingerprint(session.aux))
        for session in fleet.sessions)


def _stress_evidence(fleet, backend: str) -> dict:
    """The comparable evidence of one finished stress run.

    ``states`` (byte-comparable per-mapping snapshots), ``accounting``
    and the trace come from the fleet merge on both backends; the deep
    model ``fingerprint`` needs in-process access to the device
    models, so only the thread backend provides it (the process
    backend's models live in the workers — their pickled states stand
    in for them).
    """
    return {"accounting": fleet.accounting,
            "states": fleet.device_states(),
            "fingerprint": None if backend == "process"
            else fleet_fingerprint(fleet),
            "trace_dropped": fleet.trace_dropped,
            "trace_len": len(fleet.trace)}


def run_stress(devices, schedule, workers: int = 8,
               strategy: str = "specialize",
               shadow_cache: bool = False,
               reference=None, backend: str = "thread",
               tracing: bool = False, **fleet_kwargs):
    """Run ``schedule`` (a list of ``(spec, request)``) twice: with
    ``workers`` workers on ``backend`` and with one thread (the serial
    reference), and assert exact equivalence — byte-equal per-mapping
    end-state, equal merged accounting, and (thread backend) equal
    deep model fingerprints.

    With ``tracing=True`` both runs also assert that no trace entries
    were dropped (the unbounded ring must capture every port op).
    Extra ``fleet_kwargs`` (``telemetry``, ``trace_limit``, ...)
    reach the parallel fleet only — the reference stays the canonical
    single-threaded run.  ``telemetry=True`` is how the live-plane
    parity tests prove heartbeats, latency histograms and the flight
    recorder never perturb device state.

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
        parallel = _stress_evidence(fleet, backend)
        completed = fleet.completed()

    if completed != len(schedule):
        raise AssertionError(
            f"fleet completed {completed} of {len(schedule)} requests")

    if reference is None:
        with Fleet(devices, strategy=strategy, workers=1,
                   policy="round-robin", shadow_cache=shadow_cache,
                   tracing=tracing) as fleet:
            fleet.run(schedule)
            reference = _stress_evidence(fleet, "thread")

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
    if parallel["fingerprint"] is not None \
            and reference["fingerprint"] is not None \
            and parallel["fingerprint"] != reference["fingerprint"]:
        torn = [label for (label, fp), (_, ref_fp)
                in zip(parallel["fingerprint"], reference["fingerprint"])
                if fp != ref_fp]
        raise AssertionError(
            f"device models diverged from the serial reference on: {torn}")
    if tracing:
        for side, evidence in (("parallel", parallel),
                               ("serial", reference)):
            if evidence["trace_dropped"]:
                raise AssertionError(
                    f"{side} run dropped "
                    f"{evidence['trace_dropped']} trace entries")
            if not evidence["trace_len"]:
                raise AssertionError(
                    f"{side} run produced an empty trace under "
                    f"tracing=True")
    return reference


def mixed_schedule(requests_per_spec: int,
                   specs=("ide", "permedia2", "ne2000")) -> list:
    """The benchmark's interleaved schedule over the mixed fleet."""
    schedule = []
    for _ in range(requests_per_spec):
        for spec in specs:
            schedule.append((spec, MIXED_REQUESTS[spec]))
    return schedule
