"""Tests for the live fleet telemetry plane (``repro.obs.live``).

Three layers, mirroring the module split:

* **instruments** — the new :class:`Gauge`, torn-counter safety under
  thread hammering, histogram quantiles and cross-process snapshot
  merging;
* **transport** — the shared-memory seqlock heartbeat slot, the flight
  recorder ring, the Prometheus text exporter and the JSONL snapshot
  sink (both validated against ``docs/trace_schema.json``);
* **the plane on a running fleet** — heartbeats, latency histograms,
  live ``bus.trace_dropped``, stall detection against a deliberately
  wedged thread worker, and the periodic monitor (marked
  ``concurrency``; the process-backend wedge lives in
  ``tests/test_fleet_stress.py``).
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.engine.shm import HEARTBEAT_SLOT_BYTES, HeartbeatSlot, \
    create_heartbeat_memory
from repro.obs import to_prometheus
from repro.obs.export import JsonlSnapshotSink
from repro.obs.live import (
    DEAD,
    HEALTHY,
    STALLED,
    FleetHealth,
    FleetTelemetry,
    FlightRecorder,
    Heartbeat,
    HeartbeatBoard,
    LiveMonitor,
    WorkerPulse,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS_US,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.validate import load_schema, validate


@pytest.fixture(scope="module")
def schema():
    return load_schema()


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue.depth", {"worker": "w0"})
        assert gauge.value == 0.0
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 8.0

    def test_snapshot_shape(self):
        gauge = Gauge("queue.depth", {"worker": "w0"})
        gauge.set(3.5)
        assert gauge.snapshot() == {"type": "gauge",
                                    "name": "queue.depth",
                                    "labels": {"worker": "w0"},
                                    "value": 3.5}

    def test_registry_get_or_create_and_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("fleet.inflight", worker="w1")
        gauge.set(1)
        assert registry.gauge("fleet.inflight", worker="w1") is gauge
        assert registry.value("fleet.inflight", worker="w1") == 1.0


class TestCounterRaiseTo:
    def test_monotonic_lift(self):
        counter = Counter("bus.trace_dropped", {})
        counter.raise_to(10)
        counter.raise_to(4)  # never goes backward
        counter.raise_to(12)
        assert counter.value == 12


class TestTornCounterHammer:
    """Satellite: instrument mutation is now locked — N threads
    hammering one Counter/Gauge/Histogram must lose no update (the
    pure-Python ``+=`` read-modify-write tears without the lock)."""

    THREADS = 8
    ROUNDS = 2_500

    def _hammer(self, work):
        threads = [threading.Thread(target=work)
                   for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_is_exact_under_contention(self):
        counter = Counter("hammer", {})
        self._hammer(lambda: [counter.inc()
                              for _ in range(self.ROUNDS)])
        assert counter.value == self.THREADS * self.ROUNDS

    def test_gauge_inc_dec_balances_under_contention(self):
        gauge = Gauge("hammer", {})
        def work():
            for _ in range(self.ROUNDS):
                gauge.inc(2.0)
                gauge.dec(1.0)
        self._hammer(work)
        assert gauge.value == self.THREADS * self.ROUNDS

    def test_histogram_counts_are_exact_under_contention(self):
        histogram = Histogram("hammer", {}, (10.0, 100.0))
        self._hammer(lambda: [histogram.observe(50.0)
                              for _ in range(self.ROUNDS)])
        expected = self.THREADS * self.ROUNDS
        assert histogram.count == expected
        assert histogram.total == 50.0 * expected
        assert histogram.bucket_counts[1] == expected


class TestHistogramQuantile:
    def test_quantile_returns_bucket_upper_bound(self):
        histogram = Histogram("lat", {}, (10.0, 100.0, 1000.0))
        for value in (5, 5, 50, 50, 50, 500):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 100.0
        assert histogram.quantile(0.99) == 1000.0

    def test_quantile_overflow_and_empty(self):
        histogram = Histogram("lat", {}, (10.0,))
        assert histogram.quantile(0.5) == 0.0
        histogram.observe(1e9)
        assert histogram.quantile(0.5) == 1e9  # the observed maximum

    def test_merge_snapshot_folds_worker_deltas(self):
        local = Histogram("lat", {}, (10.0, 100.0))
        for value in (5, 50, 500):
            local.observe(value)
        merged = Histogram("lat", {}, (10.0, 100.0))
        merged.observe(7)
        merged.merge_snapshot(local.snapshot())
        assert merged.count == 4
        assert merged.total == 562.0
        assert merged.minimum == 5.0
        assert merged.maximum == 500.0

    def test_merge_snapshot_rejects_mismatched_buckets(self):
        other = Histogram("lat", {}, (1.0, 2.0))
        with pytest.raises(ValueError, match="bucket"):
            Histogram("lat", {}, (10.0,)).merge_snapshot(
                other.snapshot())


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestPrometheusExport:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("fleet.submitted", spec="ide").inc(3)
        registry.gauge("fleet.queue_depth", worker="w0").set(2)
        histogram = registry.histogram("fleet.request_us",
                                       (10.0, 100.0), spec="ide")
        histogram.observe(5)
        histogram.observe(50)
        text = to_prometheus(registry)
        lines = text.splitlines()
        assert "# TYPE devil_fleet_submitted_total counter" in lines
        assert 'devil_fleet_submitted_total{spec="ide"} 3' in lines
        assert 'devil_fleet_queue_depth{worker="w0"} 2' in lines
        # Cumulative buckets plus the +Inf catch-all, sum and count.
        assert 'devil_fleet_request_us_bucket{le="10",spec="ide"} 1' \
            in lines
        assert 'devil_fleet_request_us_bucket{le="100",spec="ide"} 2' \
            in lines
        assert 'devil_fleet_request_us_bucket{le="+Inf",spec="ide"} 2' \
            in lines
        assert 'devil_fleet_request_us_count{spec="ide"} 2' in lines

    def test_output_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("a.b", y="2", x="1").inc()
            registry.counter("a.b", x="1", y="2").inc()
            registry.gauge("c").set(1)
            return to_prometheus(registry)
        assert build() == build()

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd", label='say "hi"\n\\x').inc()
        text = to_prometheus(registry)
        assert r'label="say \"hi\"\n\\x"' in text


class TestJsonlSnapshotSink:
    def test_records_validate_against_schema(self, schema):
        registry = MetricsRegistry()
        registry.counter("fleet.submitted", spec="ide").inc()
        registry.gauge("fleet.inflight", worker="w0").set(1)
        buffer = io.StringIO()
        sink = JsonlSnapshotSink(buffer)
        registry.add_sink(sink)
        registry.flush()
        registry.flush()
        assert sink.writes == 2
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["record"] == "metrics"
            validate(record, schema)

    def test_appends_to_path(self, tmp_path):
        target = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry()
        registry.counter("n").inc()
        sink = JsonlSnapshotSink(str(target))
        sink(registry.snapshot())
        sink(registry.snapshot())
        assert len(target.read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_counts_evictions(self):
        recorder = FlightRecorder(limit=4)
        for index in range(10):
            recorder.record("submit", worker="w0", index=index)
        events = recorder.events()
        assert len(events) == 4
        assert recorder.dropped == 6
        assert [event.detail["index"] for event in events] \
            == [6, 7, 8, 9]

    def test_dump_jsonl_validates_and_appends(self, tmp_path, schema):
        recorder = FlightRecorder(limit=8)
        recorder.record("submit", spec="ide", device="ide0",
                        request="ide_sector_read")
        recorder.record("stall", worker="w1", age_s=1.25)
        target = tmp_path / "flight.jsonl"
        assert recorder.dump_jsonl(str(target)) == 2
        assert recorder.dump_jsonl(str(target)) == 2  # appends
        lines = target.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            validate(json.loads(line), schema)

    def test_dump_text_is_human_readable(self):
        recorder = FlightRecorder()
        recorder.record("sync", worker="pfleet-w0", sync_id=3)
        text = recorder.dump_text()
        assert "1 event(s)" in text
        assert "sync" in text and "pfleet-w0" in text

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError, match="limit"):
            FlightRecorder(limit=0)


# ---------------------------------------------------------------------------
# Heartbeat transports
# ---------------------------------------------------------------------------


class TestHeartbeatSlot:
    def test_roundtrip_latest_value_semantics(self):
        slot = HeartbeatSlot(create_heartbeat_memory())
        try:
            assert slot.read() is None  # nothing published yet
            for completed in (1, 2, 3):
                slot.publish(Heartbeat(worker="pfleet-w0",
                                       backend="process",
                                       completed=completed,
                                       timestamp=123.0))
            beat = slot.read()
            assert beat.completed == 3  # only the latest survives
            assert beat.worker == "pfleet-w0"
        finally:
            slot.close()
            slot.unlink()

    def test_torn_write_reads_as_none(self):
        slot = HeartbeatSlot(create_heartbeat_memory())
        try:
            slot.publish(Heartbeat(worker="w", backend="process"))
            # Fake a writer parked mid-publish: odd sequence number.
            slot.memory.buf[0:8] = (99).to_bytes(4, "big") * 2
            assert slot.read(retries=2) is None
        finally:
            slot.close()
            slot.unlink()

    def test_oversized_record_is_rejected(self):
        slot = HeartbeatSlot(create_heartbeat_memory())
        try:
            beat = Heartbeat(worker="w" * HEARTBEAT_SLOT_BYTES,
                             backend="process")
            with pytest.raises(ValueError, match="slot"):
                slot.publish(beat)
        finally:
            slot.close()
            slot.unlink()


class TestWorkerPulse:
    def test_pulse_state_rides_in_heartbeats(self):
        board = HeartbeatBoard()
        clock = lambda: 42.0
        pulse = WorkerPulse(board, "fleet-w0", "thread", clock=clock)
        pulse.begin("ide_sector_read")
        beat = board.latest()["fleet-w0"]
        assert beat.inflight == "ide_sector_read"
        assert beat.timestamp == 42.0
        pulse.done(150.0)
        pulse.begin("pm2_fill_rect")
        pulse.done(250.0, error=True, trace_dropped=5)
        beat = board.latest()["fleet-w0"]
        assert beat.inflight is None
        assert beat.completed == 2
        assert beat.errors == 1
        assert beat.trace_dropped == 5
        assert beat.latency_p50_us == 250.0

    def test_heartbeat_record_validates(self, schema):
        beat = Heartbeat(worker="w0", backend="thread", completed=3,
                         inflight=None, timestamp=1.0,
                         latency_p50_us=10.0, latency_p95_us=20.0)
        validate(beat.to_dict(), schema)


# ---------------------------------------------------------------------------
# The plane on running fleets (thread backend; process wedge is in
# tests/test_fleet_stress.py)
# ---------------------------------------------------------------------------


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


@pytest.mark.concurrency
class TestThreadFleetLive:
    def _fleet(self, **kwargs):
        from repro.engine import Fleet
        kwargs.setdefault("telemetry", True)
        return Fleet(["ide", "permedia2", "ne2000"], workers=2,
                     **kwargs)

    def test_heartbeats_latency_and_gauges(self):
        from repro.engine import MIXED_REQUESTS
        with self._fleet() as fleet:
            for _ in range(4):
                for spec, request in MIXED_REQUESTS.items():
                    fleet.submit(spec, request)
            fleet.drain()
            health = fleet.health_view()
            rows = health.check()
            assert {row.status for row in rows} == {HEALTHY}
            assert sum(row.completed for row in rows) == 12
            telemetry = fleet.telemetry
            assert telemetry.observed_p95_us() > 0.0
            submitted = sum(
                counter.value for counter
                in telemetry.metrics.find("fleet.submitted"))
            assert submitted == 12
            for row in rows:
                assert telemetry.metrics.value(
                    "fleet.inflight", worker=row.worker) == 0
            kinds = [event.kind for event
                     in telemetry.recorder.events()]
            assert kinds.count("submit") == 12
            assert "drain" in kinds

    def test_telemetry_off_has_no_plane(self):
        with self._fleet(telemetry=None) as fleet:
            assert fleet.telemetry is None
            with pytest.raises(ValueError, match="telemetry"):
                FleetHealth(fleet)

    def test_trace_dropped_is_surfaced_live(self):
        from repro.engine import MIXED_REQUESTS
        with self._fleet(tracing=True, trace_limit=8) as fleet:
            for _ in range(4):
                fleet.submit("ide", MIXED_REQUESTS["ide"])
            fleet.drain()
            fleet.health_view().check()
            dropped = fleet.telemetry.metrics.value("bus.trace_dropped")
            assert dropped == fleet.trace_dropped
            assert dropped > 0

    def test_wedged_thread_worker_stalls_then_recovers(self, tmp_path):
        release = threading.Event()

        def wedge(stubs, aux):
            release.wait(20.0)
            return "released"

        dump = tmp_path / "flight.jsonl"
        with self._fleet() as fleet:
            fleet.telemetry.dump_path = str(dump)
            health = fleet.health_view(stall_after=0.2)
            fleet.submit("ide", wedge)
            try:
                statuses = _wait_for(
                    lambda: ("stalled" in
                             health.statuses().values())
                    and health.statuses())
                assert STALLED in statuses.values()
                kinds = [event.kind for event
                         in fleet.telemetry.recorder.events()]
                assert "stall" in kinds
                assert dump.exists()  # automatic post-mortem
            finally:
                release.set()
            fleet.drain()
            assert set(health.statuses().values()) == {HEALTHY}
            kinds = [event.kind for event
                     in fleet.telemetry.recorder.events()]
            assert "recovered" in kinds

    def test_dead_worker_is_reported(self):
        with self._fleet() as fleet:
            fleet.drain()
            health = fleet.health_view()
            fleet.pool._threads[0].join(0)  # prove it's alive first
            assert health.statuses()["fleet-w0"] == HEALTHY
        # After shutdown every pool thread is gone.
        assert all(status == DEAD
                   for status in health.statuses().values())

    def test_live_monitor_logs_validating_records(self, tmp_path,
                                                  schema):
        from repro.engine import MIXED_REQUESTS
        log = tmp_path / "health.jsonl"
        with self._fleet() as fleet:
            with LiveMonitor(fleet, interval=0.05,
                             log_path=str(log)) as monitor:
                for _ in range(4):
                    for spec, request in MIXED_REQUESTS.items():
                        fleet.submit(spec, request)
                fleet.drain()
            assert monitor.samples >= 1
        records = [json.loads(line)
                   for line in log.read_text().splitlines()]
        kinds = {record["record"] for record in records}
        assert "health" in kinds and "heartbeat" in kinds
        for record in records:
            validate(record, schema)

    def test_monitor_rejects_nonpositive_interval(self):
        with self._fleet() as fleet:
            fleet.drain()
            with pytest.raises(ValueError, match="interval"):
                LiveMonitor(fleet, interval=0.0)


@pytest.mark.concurrency
class TestTelemetrySharing:
    def test_explicit_instance_shares_registry(self):
        from repro.engine import MIXED_REQUESTS, Fleet
        registry = MetricsRegistry()
        telemetry = FleetTelemetry(metrics=registry)
        with Fleet(["ide"], workers=2, telemetry=telemetry) as fleet:
            assert fleet.telemetry is telemetry
            fleet.submit("ide", MIXED_REQUESTS["ide"])
            fleet.drain()
        assert registry.value("fleet.submitted", spec="ide",
                              backend="thread") == 1
