"""Concurrency stress suite for the fleet engine.

Three layers of invariants, bottom-up:

* the **thread-safe bus** loses no counter updates and never tears a
  trace (per-device program order, contiguous block groups);
* the **memoized derivation caches** (model, specializer, spec
  compiler) survive N simultaneous first calls;
* the **fleet** produces *exactly* the accounting and device state of
  a single-worker run — not approximately: the schedules are
  deterministic, so every counter must match to the unit — and the
  final state is identical under all three execution strategies.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro import obs
from repro.bus import Bus, ThreadSafeBus
from repro.engine import (
    Fleet,
    WorkerError,
    WorkerPool,
    fleet_fingerprint,
    ide_sector_read,
    mixed_schedule,
    run_stress,
)
from repro.obs.workloads import STRATEGIES, WORKLOADS, build_machine
from repro.specs import SPEC_NAMES

pytestmark = pytest.mark.concurrency


class _Scratch:
    """A trivial mapped device: a byte per port, no side effects."""

    def __init__(self, size=16):
        self.cells = bytearray(size)

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value & 0xFF


def _hammer(threads, fn):
    """Run ``fn(index)`` on N threads at once; re-raise any failure."""
    errors = []

    def runner(index):
        try:
            fn(index)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    workers = [threading.Thread(target=runner, args=(i,))
               for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Layer 1: the bus
# ---------------------------------------------------------------------------


def test_threadsafe_bus_exact_counters_under_contention():
    """8 threads × 2000 ops on a shared device: no lost updates."""
    bus = ThreadSafeBus()
    bus.map_device(0x100, 16, _Scratch(), "scratch")
    threads, ops = 8, 2000

    def worker(index):
        for i in range(ops):
            bus.write(i & 0xFF, 0x100 + (i % 16))
            bus.read(0x100 + (i % 16))
        bus.block_write(0x104, [1, 2, 3, 4])
        bus.block_read(0x104, 4)

    _hammer(threads, worker)
    merged = bus.accounting
    assert merged.reads == threads * ops
    assert merged.writes == threads * ops
    assert merged.block_ops == threads * 2
    assert merged.block_words == threads * 8
    assert merged.total_ops == threads * (2 * ops + 2)
    per_device = bus.accounting_by_device()
    assert per_device["scratch"].total_ops == merged.total_ops


def test_threadsafe_bus_per_device_shards_are_independent():
    """Contention on one device never bleeds into another's counters."""
    bus = ThreadSafeBus()
    bus.map_device(0x100, 16, _Scratch(), "left")
    bus.map_device(0x200, 16, _Scratch(), "right")

    def worker(index):
        base = 0x100 if index % 2 == 0 else 0x200
        for _ in range(500):
            bus.write(0xAB, base)

    _hammer(4, worker)
    per_device = bus.accounting_by_device()
    assert per_device["left"].writes == 1000
    assert per_device["right"].writes == 1000
    assert bus.accounting.writes == 2000


def test_threadsafe_bus_trace_keeps_block_groups_contiguous():
    """Concurrent block writes: each N-word group stays adjacent."""
    bus = ThreadSafeBus(tracing=True)
    bus.map_device(0x100, 16, _Scratch(), "left")
    bus.map_device(0x200, 16, _Scratch(), "right")
    words = 8

    def worker(index):
        base = 0x100 if index % 2 == 0 else 0x200
        for _ in range(50):
            bus.block_write(base, list(range(words)))

    _hammer(4, worker)
    trace = list(bus.trace)
    assert len(trace) == 4 * 50 * words
    # Walk the trace in block-sized strides: every group must be one
    # device's one block, in word order — interleaving would split it.
    for start in range(0, len(trace), words):
        group = trace[start:start + words]
        ports = {entry.port for entry in group}
        assert len(ports) == 1, f"torn block group at {start}: {group}"
        assert [entry.value for entry in group] == list(range(words))


def test_threadsafe_bus_trace_ring_drops_are_counted_exactly():
    """Bounded ring under concurrent writers: len + dropped == written."""
    bus = ThreadSafeBus(tracing=True, trace_limit=64)
    bus.map_device(0x100, 16, _Scratch(), "scratch")

    def worker(index):
        for i in range(1000):
            bus.write(i & 0xFF, 0x100)

    _hammer(4, worker)
    assert len(bus.trace) == 64
    assert bus.trace_dropped == 4 * 1000 - 64


def test_single_threaded_accounting_matches_base_bus():
    """ThreadSafeBus is observationally identical to Bus when serial."""
    results = []
    for cls in (Bus, ThreadSafeBus):
        bus = cls(tracing=True)
        bus.map_device(0x100, 16, _Scratch(), "scratch")
        bus.write(1, 0x100)
        bus.read(0x101)
        bus.block_write(0x102, [5, 6])
        bus.block_read(0x102, 2)
        results.append((bus.accounting.snapshot(), list(bus.trace)))
    base, safe = results
    assert base[0] == safe[0]
    assert base[1] == safe[1]


# ---------------------------------------------------------------------------
# Layer 2: memoized derivation caches
# ---------------------------------------------------------------------------


def test_concurrent_first_binds_all_specs_all_strategies():
    """16 threads bind every spec under every strategy at once.

    Exercises the double-checked caches in ``repro.specs`` (compile),
    ``repro.devil.model`` (chunk/width/owner derivations),
    ``repro.devil.specialize`` (closure factories) and
    ``repro.obs.workloads`` (generated-module exec) on cold and warm
    paths together, then proves each bind still drives its workload.
    """
    jobs = [(name, strategy)
            for name in SPEC_NAMES for strategy in STRATEGIES]

    def worker(index):
        name, strategy = jobs[index % len(jobs)]
        bus, aux, bases = build_machine(name, tracing=False)
        from repro.obs.workloads import bind_stubs
        stubs = bind_stubs(name, strategy, bus, bases)
        WORKLOADS[name](stubs, aux)
        assert bus.accounting.total_ops > 0

    _hammer(16, worker)


# ---------------------------------------------------------------------------
# Layer 3: the fleet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_fleet_exactness_per_spec(spec):
    """4 threads × 12 shipped-workload requests on a 2-device fleet:
    accounting and final state equal the single-worker reference."""
    schedule = [(spec, WORKLOADS[spec])] * 12
    run_stress([spec, spec], schedule, workers=4)


def test_fleet_three_strategy_state_parity():
    """The mixed fleet ends in the same device state under interpret,
    specialize and generated execution."""
    schedule = mixed_schedule(6)
    fingerprints = {}
    for strategy in STRATEGIES:
        with Fleet(["ide", "permedia2", "ne2000"], strategy=strategy,
                   workers=4) as fleet:
            fleet.run(schedule)
            fingerprints[strategy] = fleet_fingerprint(fleet)
    assert fingerprints["interpret"] == fingerprints["specialize"]
    assert fingerprints["interpret"] == fingerprints["generated"]


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_device_eight_thread_stress(strategy):
    """ISSUE acceptance: 8 threads against ONE device, 100 consecutive
    iterations, each with exact accounting and state parity.

    The serial reference is computed once and reused — the parallel leg
    re-runs every iteration, so a single torn update in any iteration
    fails the run.
    """
    schedule = [("ide", ide_sector_read)] * 16
    reference = None
    for _ in range(100):
        reference = run_stress(["ide"], schedule, workers=8,
                               strategy=strategy, reference=reference)


def test_reads_during_traffic_never_tear():
    """A reader polling the merged accounting while 4 workers run the
    mixed schedule on sleeping port latency: no read raises, no read
    catches a request half-done (each session is read under its lock,
    so every device's total is a whole number of its requests, though
    each request sleeps between its port operations), ``total_ops``
    never goes down, and after ``drain`` the totals equal a 1-worker
    run's."""
    devices = ["ide", "ide", "permedia2", "ne2000"]
    schedule = mixed_schedule(24)
    with Fleet(devices, workers=1) as fleet:
        fleet.run(schedule)
        reference = (fleet.accounting, fleet.accounting_by_device())
        per_request = {label: reference[1][label].total_ops // count
                       for label, count
                       in fleet.completed_by_device().items()}

    totals, per_device, errors = [], [], []
    stop = threading.Event()

    def poll(fleet):
        try:
            while not stop.is_set():
                totals.append(fleet.accounting.total_ops)
                reading = {label: shard.total_ops for label, shard
                           in fleet.accounting_by_device().items()}
                for label, ops in reading.items():
                    assert ops % per_request[label] == 0, (label, ops)
                per_device.append(reading)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    with Fleet(devices, workers=4, op_latency_us=20.0, tracing=True,
               trace_limit=64) as fleet:
        reader = threading.Thread(target=poll, args=(fleet,))
        reader.start()
        try:
            fleet.run(schedule)
        finally:
            stop.set()
            reader.join()
        after = (fleet.accounting, fleet.accounting_by_device())
    assert not errors, errors
    assert len(totals) > 1 and totals == sorted(totals)
    for label in per_request:
        series = [reading[label] for reading in per_device]
        assert series == sorted(series), label
    assert after == reference


def _record_index(seen, index, stubs, aux):
    time.sleep(0.0002)  # releases the GIL: other workers run meanwhile
    seen.append(index)


def test_one_device_runs_its_requests_in_submission_order():
    """4 workers serve one device whose requests each release the GIL:
    the device still sees them in submission order, because a worker
    holds the session lock while it takes the oldest pending request
    and runs it."""
    seen = []
    with Fleet(["busmouse"], workers=4) as fleet:
        fleet.run(("busmouse", functools.partial(_record_index, seen, i))
                  for i in range(400))
    assert seen == list(range(400))


def test_fleet_least_loaded_completes_everything():
    with Fleet(["ide", "ide", "permedia2", "ne2000"],
               policy="least-loaded", workers=4) as fleet:
        fleet.run(mixed_schedule(8))
        assert fleet.completed() == 24
        assert fleet.accounting.total_ops > 0


def test_fleet_unknown_spec_and_policy_fail_loudly():
    with pytest.raises(ValueError):
        Fleet(["ide"], policy="psychic")
    with Fleet(["ide"], workers=1) as fleet:
        with pytest.raises(KeyError):
            fleet.submit("permedia2", lambda stubs, aux: None)


def test_worker_pool_surfaces_request_errors():
    def boom():
        raise RuntimeError("request exploded")

    pool = WorkerPool(workers=2)
    for _ in range(3):
        pool.submit(boom)
    with pytest.raises(WorkerError) as info:
        pool.drain()
    assert len(info.value.failures) == 3
    pool.shutdown()


def test_fleet_propagates_request_errors():
    def bad_request(stubs, aux):
        raise RuntimeError("driver bug")

    with pytest.raises(WorkerError):
        with Fleet(["ide"], workers=2) as fleet:
            fleet.submit("ide", bad_request)
            fleet.drain()


# ---------------------------------------------------------------------------
# Telemetry under parallelism
# ---------------------------------------------------------------------------


def test_collector_merges_spans_across_workers():
    """Spans recorded by parallel fleet workers merge losslessly."""
    schedule = mixed_schedule(8)
    with obs.observe() as collector:
        with Fleet(["ide", "permedia2", "ne2000"], workers=4,
                   tracing=True, collector=collector) as fleet:
            fleet.run(schedule)
    spans = collector.spans
    assert spans, "instrumented fleet produced no spans"
    sequence = [span.seq for span in spans]
    assert sequence == sorted(sequence)
    assert len(set(sequence)) == len(sequence), "duplicate span seq"
    # Every span belongs to exactly one worker's thread of execution
    # and attributed I/O must equal the bus's merged totals.
    calls = collector.metrics.find("dev.calls")
    assert sum(counter.value for counter in calls) == len(spans)
