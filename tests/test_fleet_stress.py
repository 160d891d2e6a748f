"""Coverage for :mod:`repro.engine.stress` — the exactness harness
itself.

The stress helpers are what the benchmarks and the property suite
lean on for "lost nothing, tore nothing" claims, so they get direct
tests: a seeded stress run under both backends (exactness plus no
dropped trace entries), and the negative cases — a harness that
cannot detect divergence would pass everything, so we prove it fails
on a corrupted reference and on a device that serves its requests out
of order.
"""

from __future__ import annotations

import functools
import time
from collections import deque

import pytest

import repro.engine.fleet as fleet_module
from repro.engine import ide_sector_read_lba, mixed_schedule, run_stress

pytestmark = pytest.mark.concurrency

DEVICES = ["ide", "permedia2", "ne2000"]


def sector_reads(count: int) -> list:
    """``count`` IDE reads of sectors 0, 1, ...: requests that differ
    by position, so a device that ran them out of order would leave
    another trace and end state."""
    return [("ide", functools.partial(ide_sector_read_lba, lba=lba))
            for lba in range(count)]


def traced_schedule() -> list:
    """The mixed fleet's requests plus positional IDE reads."""
    return mixed_schedule(6) + sector_reads(12)


# ---------------------------------------------------------------------------
# run_stress: both backends, tracing, reference reuse
# ---------------------------------------------------------------------------


def test_run_stress_thread_backend_with_tracing():
    schedule = traced_schedule()
    reference = run_stress(DEVICES, schedule, workers=4,
                           tracing=True)
    assert reference["trace_dropped"] == 0
    assert reference["trace"]
    # The returned reference amortizes the serial run across calls.
    again = run_stress(DEVICES, schedule, workers=2, tracing=True,
                       reference=reference)
    assert again is reference


def test_run_stress_process_backend_matches_serial_reference():
    schedule = traced_schedule()
    reference = run_stress(DEVICES, schedule, workers=2,
                           backend="process", tracing=True)
    # A different sharding against the same reference.
    run_stress(DEVICES, schedule, workers=3, backend="process",
               tracing=True, reference=reference)


def test_run_stress_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        run_stress(DEVICES, mixed_schedule(1), backend="quantum")


def test_run_stress_detects_divergence():
    """A corrupted reference must fail loudly — the harness's whole
    job is telling exact from almost-exact."""
    schedule = mixed_schedule(3)
    reference = run_stress(DEVICES, schedule, workers=2)

    poisoned = dict(reference)
    poisoned["states"] = dict(reference["states"])
    name = next(iter(poisoned["states"]))
    poisoned["states"][name] = b"corrupted"
    with pytest.raises(AssertionError, match="device state diverged"):
        run_stress(DEVICES, schedule, workers=2, reference=poisoned)

    from repro.bus import IoAccounting
    poisoned = dict(reference)
    poisoned["accounting"] = IoAccounting(reads=1)
    with pytest.raises(AssertionError, match="accounting diverged"):
        run_stress(DEVICES, schedule, workers=2, reference=poisoned)

    traced = run_stress(DEVICES, schedule, workers=2, tracing=True)
    poisoned = dict(traced, trace=traced["trace"][::-1])
    with pytest.raises(AssertionError, match="trace diverged"):
        run_stress(DEVICES, schedule, workers=2, tracing=True,
                   reference=poisoned)


class NewestFirst(deque):
    """A pending queue that serves its newest request first.  Its first
    pop waits for the whole schedule to queue up, so the order it
    serves is the reverse of submission order whatever the timing."""

    backlog = 16
    started = False

    def popleft(self):
        deadline = time.monotonic() + 10
        while not self.started and len(self) < self.backlog \
                and time.monotonic() < deadline:
            time.sleep(0.001)
        self.started = True
        return self.pop()


def test_run_stress_detects_a_device_serving_out_of_order(monkeypatch):
    """The traced stress run is the check that a device runs its
    requests in submission order: a session that serves its newest
    pending request first must fail it.  The first and the last
    request read sector 0, so the reversed run ends in the reference's
    state and only the trace can tell."""
    schedule = sector_reads(NewestFirst.backlog - 1) + sector_reads(1)
    reference = run_stress(["ide"], schedule, workers=8, tracing=True)
    open_session = fleet_module.open_session

    def newest_first_session(*args, **kwargs):
        session = open_session(*args, **kwargs)
        session.pending = NewestFirst()
        return session

    monkeypatch.setattr(fleet_module, "open_session",
                        newest_first_session)
    with pytest.raises(AssertionError, match="trace diverged"):
        run_stress(["ide"], schedule, workers=8, tracing=True,
                   reference=reference)


def test_run_stress_flags_dropped_trace_entries():
    """tracing=True is a completeness claim: a parallel fleet whose
    bounded trace ring evicted entries must fail the stress run even
    though accounting and end-state still match exactly."""
    schedule = mixed_schedule(4)
    with pytest.raises(AssertionError, match="dropped"):
        run_stress(DEVICES, schedule, workers=2, tracing=True,
                   trace_limit=5)


# ---------------------------------------------------------------------------
# Live-plane fault injection: a wedged process worker
# ---------------------------------------------------------------------------


def test_process_wedged_worker_reported_stalled(tmp_path):
    """Deterministic stall detection: a process worker wedged inside a
    request is reported ``stalled`` within the detector window, the
    flight recorder auto-dumps a post-mortem, and the fleet still
    drains cleanly (and recovers) once the wedge releases."""
    import functools
    import json
    import time

    from repro.engine import MIXED_REQUESTS, ProcessFleet, \
        wedged_request
    from repro.obs.validate import load_schema, validate

    dump = tmp_path / "flight.jsonl"
    fleet = ProcessFleet(["ide", "permedia2"], workers=2,
                         telemetry=True)
    fleet.telemetry.dump_path = str(dump)
    with fleet:
        # Devices shard index % workers: "ide" lands on pfleet-w0.
        health = fleet.health_view(stall_after=0.3)
        fleet.submit("ide", functools.partial(wedged_request,
                                              seconds=2.0))
        for _ in range(4):
            fleet.submit("permedia2", MIXED_REQUESTS["permedia2"])

        deadline = time.monotonic() + 15.0
        statuses = {}
        while time.monotonic() < deadline:
            statuses = health.statuses()
            if statuses.get("pfleet-w0") == "stalled":
                break
            time.sleep(0.05)
        assert statuses.get("pfleet-w0") == "stalled", statuses
        assert statuses.get("pfleet-w1") == "healthy", statuses

        kinds = [event.kind for event
                 in fleet.telemetry.recorder.events()]
        assert "stall" in kinds
        assert "dump" in kinds
        assert dump.exists()

        fleet.drain()  # the wedge releases; nothing was lost
        assert health.statuses()["pfleet-w0"] == "healthy"
        kinds = [event.kind for event
                 in fleet.telemetry.recorder.events()]
        assert "recovered" in kinds
        assert fleet.completed() == 5

    schema = load_schema()
    records = [json.loads(line)
               for line in dump.read_text().splitlines()]
    assert any(record["kind"] == "stall" for record in records)
    for record in records:
        validate(record, schema)
