"""Coverage for :mod:`repro.engine.stress` — the exactness harness
itself.

The stress helpers are what the benchmarks and the property suite
lean on for "lost nothing, tore nothing" claims, so they get direct
tests: the fingerprint normalizer's contract, a seeded stress run
under both backends (exactness plus no dropped trace entries), and
the negative case — a harness that cannot detect divergence would
pass everything, so we prove it fails on a corrupted reference.
"""

from __future__ import annotations

import pytest

from repro.engine import (
    Fleet,
    fingerprint,
    fleet_fingerprint,
    ide_sector_read,
    mixed_schedule,
    run_stress,
)

pytestmark = pytest.mark.concurrency

DEVICES = ["ide", "permedia2", "ne2000"]


# ---------------------------------------------------------------------------
# fingerprint / fleet_fingerprint
# ---------------------------------------------------------------------------


def test_fingerprint_normalizes_mutable_containers():
    assert fingerprint(bytearray(b"ab")) == b"ab"
    assert fingerprint({"b": 2, "a": 1}) == (("a", 1), ("b", 2))
    assert fingerprint([1, (2, 3)]) == (1, (2, 3))
    assert fingerprint({3, 1, 2}) == tuple(sorted(["1", "2", "3"]))


def test_fingerprint_handles_cycles_and_objects():
    class Model:
        def __init__(self):
            self.ram = bytearray(b"\x01\x02")
            self.other = None

    first, second = Model(), Model()
    first.other, second.other = second, first  # a cycle
    printed = fingerprint(first)
    assert printed[0] == "Model"
    assert "<cycle>" in repr(printed)
    # Equal graphs fingerprint equal; a one-byte flip does not.
    third, fourth = Model(), Model()
    third.other, fourth.other = fourth, third
    assert fingerprint(third) == printed
    third.ram[0] ^= 0x01
    assert fingerprint(third) != printed


def test_fleet_fingerprint_distinguishes_device_state():
    with Fleet(["ide", "ide"], workers=1) as fleet:
        before = fleet_fingerprint(fleet)
        fleet.run([("ide", ide_sector_read)])
        after = fleet_fingerprint(fleet)
    labels = [label for label, _ in after]
    assert labels == ["ide0", "ide1"]
    # The read mutated ide0's model (status/shadow registers) only.
    assert after[0] != before[0]
    assert after[1] == before[1]


# ---------------------------------------------------------------------------
# run_stress: both backends, tracing, reference reuse
# ---------------------------------------------------------------------------


def test_run_stress_thread_backend_with_tracing():
    schedule = mixed_schedule(6)
    reference = run_stress(DEVICES, schedule, workers=4,
                           tracing=True)
    assert reference["trace_dropped"] == 0
    assert reference["trace"]
    # The returned reference amortizes the serial run across calls.
    again = run_stress(DEVICES, schedule, workers=2, tracing=True,
                       reference=reference)
    assert again is reference


def test_run_stress_process_backend_matches_serial_reference():
    schedule = mixed_schedule(6)
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
