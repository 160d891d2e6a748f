"""Cross-process parity harness: the process backend is indistinguishable.

The multiprocessing fleet's correctness claim mirrors PR 4's thread
claim, one substrate deeper: for the same submission sequence, the
process backend must produce — not approximately, *byte for byte* —

* the same device end-state (pickled per-mapping snapshots via the
  :meth:`repro.bus.Bus.state_snapshot` seam),
* the same exact per-device accounting shards,
* the same span signatures (strategy- and timing-independent span
  identity), and
* the same merged port-operation trace (every device's segment, in
  global device order)

as the serial single-worker reference and the thread backend, for
every shipped specification.  Placement is deterministic at submit
time in all three, which is what makes request-for-request comparison
a valid test at all.
"""

from __future__ import annotations

import functools
import os
import pickle
import time

import pytest

from repro import obs
from repro.bus import Bus, iter_operations
from repro.engine import (
    Fleet,
    ProcessFleet,
    WorkerError,
    decode_request,
    encode_request,
    ide_sector_checksum,
    ide_sector_read,
    mixed_schedule,
)
from repro.devil.native import native_available
from repro.obs.workloads import WORKLOADS, build_machine
from repro.specs import SPEC_NAMES

pytestmark = pytest.mark.concurrency

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="strategy='native' needs a C "
                                     "compiler")


#: ``backend -> (fleet class, workers)`` of the parity runs; "serial"
#: is the one-worker thread fleet every other run is compared with.
_BACKENDS = {"serial": (Fleet, 1), "thread": (Fleet, 4),
             "process": (ProcessFleet, 2)}


def _run_backend(backend: str, devices, schedule, **fleet_kwargs):
    """One observed fleet run; returns the full parity evidence."""
    fleet_cls, workers = _BACKENDS[backend]
    collector = obs.Collector()
    with obs.observe(collector=collector):
        with fleet_cls(devices, workers=workers, tracing=True,
                       collector=collector, **fleet_kwargs) as fleet:
            fleet.run(schedule)
            return {
                "states": fleet.device_states(),
                "by_device": fleet.accounting_by_device(),
                "accounting": fleet.accounting,
                "completed": fleet.completed_by_device(),
                "trace": fleet.trace,
                "signatures": sorted(collector.signatures(), key=repr),
            }


# ---------------------------------------------------------------------------
# The parity suite: every shipped spec, serial vs thread vs process
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _spec_references(spec):
    """Serial and thread evidence for one spec's parity schedule.

    Cached: the per-spec, native and telemetry parity tests all compare
    against the same references, so each spec pays for them once."""
    devices = [spec, spec]
    schedule = [(spec, WORKLOADS[spec])] * 6
    return (_run_backend("serial", devices, schedule),
            _run_backend("thread", devices, schedule))


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_backend_parity_per_spec(spec):
    """Serial, thread-fleet and process-fleet runs of the shipped
    workload are byte-identical in end-state, accounting, spans and
    merged traces."""
    devices = [spec, spec]
    schedule = [(spec, WORKLOADS[spec])] * 6
    serial, threaded = _spec_references(spec)
    process = _run_backend("process", devices, schedule)

    for backend, evidence in (("thread", threaded),
                              ("process", process)):
        assert evidence["completed"] == serial["completed"], backend
        assert evidence["by_device"] == serial["by_device"], backend
        assert evidence["accounting"] == serial["accounting"], backend
        # Byte-equal end-state, mapping by mapping.
        assert sorted(evidence["states"]) == sorted(serial["states"])
        for name, blob in serial["states"].items():
            assert evidence["states"][name] == blob, \
                f"{backend}: end-state of {name!r} diverged for {spec}"
        assert evidence["signatures"] == serial["signatures"], \
            f"{backend}: span signatures diverged for {spec}"
        # The whole merged trace: device segments in global device
        # order, each in its device's program order.
        assert evidence["trace"] == serial["trace"], \
            f"{backend}: trace diverged for {spec}"


def test_backend_parity_mixed_fleet_with_txn_and_cpu_requests():
    """A mixed fleet under a request mix spanning plain, transactional
    and CPU-bound requests stays exact across all three backends."""
    from repro.engine import ide_sector_read_txn

    devices = ["ide", "ide", "permedia2", "ne2000"]
    schedule = []
    for _ in range(4):
        schedule += [("ide", ide_sector_read),
                     ("ide", ide_sector_read_txn),
                     ("ide", ide_sector_checksum),
                     ("permedia2", WORKLOADS["permedia2"]),
                     ("ne2000", WORKLOADS["ne2000"])]
    serial = _run_backend("serial", devices, schedule,
                          shadow_cache=True)
    threaded = _run_backend("thread", devices, schedule,
                            shadow_cache=True)
    process = _run_backend("process", devices, schedule,
                           shadow_cache=True)
    assert threaded["states"] == serial["states"]
    assert process["states"] == serial["states"]
    assert threaded["by_device"] == serial["by_device"]
    assert process["by_device"] == serial["by_device"]
    assert threaded["trace"] == serial["trace"]
    assert process["trace"] == serial["trace"]
    assert process["signatures"] == serial["signatures"]
    # Runtime-level effects crossed the process boundary exactly: the
    # transactional writes coalesced in the workers, and the merged
    # accounting agrees field for field (the mix's registers are all
    # volatile, so elisions are exactly zero on every backend).
    assert process["accounting"] == serial["accounting"]
    assert process["accounting"].coalesced_writes > 0


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_backend_parity_with_telemetry_enabled(backend):
    """The live telemetry plane (heartbeats, latency histograms,
    flight recorder) is pure observation: a fleet running with
    ``telemetry=True`` stays byte-equal to the untelemetered serial
    reference — end-state, accounting, spans and the merged trace."""
    spec = "ide"
    devices = [spec, spec]
    schedule = [(spec, WORKLOADS[spec])] * 6
    serial, _ = _spec_references(spec)
    evidence = _run_backend(backend, devices, schedule, telemetry=True)
    assert evidence["completed"] == serial["completed"]
    assert evidence["by_device"] == serial["by_device"]
    assert evidence["accounting"] == serial["accounting"]
    for name, blob in serial["states"].items():
        assert evidence["states"][name] == blob, \
            f"telemetry perturbed the end-state of {name!r}"
    assert evidence["signatures"] == serial["signatures"]
    assert evidence["trace"] == serial["trace"], \
        "telemetry perturbed the trace"


def test_process_fleet_telemetry_merges_worker_latency():
    """Worker-observed request latency crosses the process boundary
    as delta snapshots at sync points and folds into the parent's
    registry; live heartbeats carry each worker's own percentiles."""
    from repro.engine import MIXED_REQUESTS

    with ProcessFleet(["ide", "permedia2"], workers=2,
                      telemetry=True) as fleet:
        for _ in range(4):
            fleet.submit("ide", MIXED_REQUESTS["ide"])
            fleet.submit("permedia2", MIXED_REQUESTS["permedia2"])
        fleet.drain()
        telemetry = fleet.telemetry
        merged = {tuple(sorted(h.labels.items())): h.count
                  for h in telemetry.metrics.find("fleet.request_us")}
        assert merged[(("backend", "process"), ("spec", "ide"))] == 4
        assert merged[(("backend", "process"),
                       ("spec", "permedia2"))] == 4
        beats = telemetry.heartbeats()
        assert set(beats) == {"pfleet-w0", "pfleet-w1"}
        for beat in beats.values():
            assert beat.completed == 4
            assert beat.inflight is None
            assert beat.latency_p95_us > 0.0


@pytest.mark.parametrize("strategy", ("interpret", "generated"))
def test_process_backend_strategy_parity(strategy):
    """The process backend is exact under the non-default execution
    strategies too (the specializer is covered by the suite above)."""
    devices = ["ide", "ide"]
    schedule = [("ide", ide_sector_read)] * 6
    serial = _run_backend("serial", devices, schedule,
                          strategy=strategy)
    process = _run_backend("process", devices, schedule,
                           strategy=strategy)
    assert process["states"] == serial["states"]
    assert process["by_device"] == serial["by_device"]
    assert process["signatures"] == serial["signatures"]


def test_process_backend_block_groups_stay_contiguous():
    """Block transfers keep their per-word trace entries adjacent in
    each worker's exported ring (``iter_operations`` must regroup)."""
    devices = ["ide", "ide", "ide"]
    schedule = [("ide", ide_sector_read)] * 9
    process = _run_backend("process", devices, schedule)
    operations = list(iter_operations(process["trace"]))
    blocks = [op for op in operations if op[0].op in ("rb", "wb")]
    assert blocks, "sector reads must produce block operations"
    for group in blocks:
        assert len(group) == group[0].count
        assert len({entry.port for entry in group}) == 1


# ---------------------------------------------------------------------------
# The native strategy: the compiled core is a fourth exact substrate
# ---------------------------------------------------------------------------


def _run_untraced(backend, devices, schedule, **fleet_kwargs):
    """A fleet run with no tracer and no collector attached.

    This is the configuration where native thread workers enter direct
    mode — whole batches dispatch through the C port table with
    C-side accounting — so exactness here covers the fast path the
    traced harness above deliberately disables.
    """
    fleet_cls, workers = _BACKENDS[backend]
    with fleet_cls(devices, workers=workers, tracing=False,
                   **fleet_kwargs) as fleet:
        fleet.run(schedule)
        return {
            "states": fleet.device_states(),
            "by_device": fleet.accounting_by_device(),
            "accounting": fleet.accounting,
            "completed": fleet.completed_by_device(),
        }


@needs_cc
@pytest.mark.parametrize("backend", ("serial", "thread", "process"))
@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_native_backend_parity_per_spec(spec, backend):
    """Every backend running ``strategy='native'`` is byte-identical
    to the serial specializer reference on every shipped spec —
    end-state, per-device accounting shards, span signatures and
    the merged port-op trace.  Tracing keeps the native core in
    callback mode here; direct mode is covered below."""
    devices = [spec, spec]
    schedule = [(spec, WORKLOADS[spec])] * 6
    serial, _ = _spec_references(spec)
    evidence = _run_backend(backend, devices, schedule,
                            strategy="native")
    assert evidence["completed"] == serial["completed"]
    assert evidence["by_device"] == serial["by_device"]
    assert evidence["accounting"] == serial["accounting"]
    for name, blob in serial["states"].items():
        assert evidence["states"][name] == blob, \
            f"native/{backend}: end-state of {name!r} diverged"
    assert evidence["signatures"] == serial["signatures"], \
        f"native/{backend}: span signatures diverged for {spec}"
    assert evidence["trace"] == serial["trace"], \
        f"native/{backend}: trace diverged for {spec}"


@needs_cc
@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_native_direct_mode_parity_untraced(spec):
    """With no tracer or collector, native fleet workers run whole
    batches in direct mode (C dispatch, C accounting, C device models
    where shipped) and still land byte-equal end-state, exact merged
    accounting and exact per-device shards against the untraced serial
    specializer."""
    devices = [spec, spec]
    schedule = [(spec, WORKLOADS[spec])] * 6
    reference = _run_untraced("serial", devices, schedule)
    for backend in ("thread", "process"):
        native = _run_untraced(backend, devices, schedule,
                               strategy="native")
        assert native == reference, f"native/{backend} for {spec}"


@needs_cc
def test_native_churn_request_parity_across_strategies():
    """The dispatch-bound benchmark request is exact: the native
    ``repeat()`` fast path produces the same traffic, traces and
    accounting as the specializer's Python loop."""
    from repro.engine import ide_taskfile_churn

    devices = ["ide", "ide"]
    schedule = [("ide", functools.partial(ide_taskfile_churn,
                                          n=512))] * 4
    reference = _run_backend("serial", devices, schedule)
    for backend in ("thread", "process"):
        native = _run_backend(backend, devices, schedule,
                              strategy="native")
        assert native["states"] == reference["states"]
        assert native["by_device"] == reference["by_device"]
        assert native["accounting"] == reference["accounting"]
        assert native["trace"] == reference["trace"], backend


@needs_cc
def test_native_process_fleet_propagates_mid_batch_errors():
    """A device fault between two good native requests surfaces as a
    WorkerError carrying the device's message, and the worker keeps
    serving later requests."""
    from repro.engine import ide_data_probe

    with ProcessFleet(["ide"], workers=1, strategy="native") as fleet:
        fleet.submit("ide", ide_sector_read)
        fleet.submit("ide", ide_data_probe)
        fleet.submit("ide", ide_sector_read)
        with pytest.raises(WorkerError) as info:
            fleet.drain()
        assert "DRQ" in str(info.value)
        # The failure was contained to the one request: the worker
        # process survived and the fleet still executes new requests.
        fleet.submit("ide", ide_sector_read)
        fleet.drain()
        assert fleet.completed() == 3


# ---------------------------------------------------------------------------
# The bus snapshot/restore seam
# ---------------------------------------------------------------------------


def test_bus_state_snapshot_detects_single_bit_difference():
    bus_a, aux_a, _ = build_machine("ide", tracing=False)
    bus_b, aux_b, _ = build_machine("ide", tracing=False)
    assert bus_a.state_snapshot() == bus_b.state_snapshot()
    aux_b["disk"].store[0] ^= 0x01
    assert bus_a.state_snapshot() != bus_b.state_snapshot()


def test_bus_state_blob_roundtrip_preserves_aliasing():
    """restore_state swaps device state and keeps shared models shared
    (the NE2000 model sits behind three mappings)."""
    bus, aux, bases = build_machine("ne2000", tracing=False)
    aux["nic"].ram[0:4] = b"\x11\x22\x33\x44"
    blob = bus.state_blob()
    snapshot = bus.state_snapshot()

    fresh, _, _ = build_machine("ne2000", tracing=False)
    assert fresh.state_snapshot() != snapshot
    fresh.restore_state(blob)
    assert fresh.state_snapshot() == snapshot
    # The data port still aliases the restored model: a write through
    # one mapping is visible through the other.
    restored_nic = fresh._mappings[0].device
    data_port = fresh._mappings[1].device
    assert data_port.nic is restored_nic


def test_bus_restore_state_rejects_mismatched_topology():
    bus, _, _ = build_machine("ide", tracing=False)
    other, _, _ = build_machine("ne2000", tracing=False)
    from repro.bus import BusError
    with pytest.raises(BusError):
        bus.restore_state(other.state_blob())


def test_plain_bus_exposes_the_snapshot_seam():
    """The seam lives on the base Bus, not just the thread-safe one."""
    bus = Bus()
    assert bus.state_snapshot() == {}
    assert pickle.loads(bus.state_blob()) == []


# ---------------------------------------------------------------------------
# The request codec
# ---------------------------------------------------------------------------


def test_request_codec_roundtrips_shipped_requests():
    for request in (ide_sector_read, ide_sector_checksum,
                    WORKLOADS["busmouse"]):
        token = encode_request(request)
        assert decode_request(token) is request


def test_request_codec_rejects_unshippable_callables():
    with pytest.raises(ValueError):
        encode_request(lambda stubs, aux: None)

    def nested(stubs, aux):
        return None

    with pytest.raises(ValueError):
        encode_request(nested)
    with pytest.raises(ValueError):
        decode_request("repro.engine.requests:does_not_exist")
    with pytest.raises(ValueError):
        decode_request("no-colon-here")


def test_process_fleet_rejects_unshippable_requests_at_submit():
    with ProcessFleet(["ide"], workers=1) as fleet:
        with pytest.raises(ValueError):
            fleet.submit("ide", lambda stubs, aux: None)
        fleet.submit("ide", ide_sector_read)
        fleet.drain()
        assert fleet.completed() == 1


def test_request_codec_roundtrips_partials():
    """A partial over a module-level callable ships: the base travels
    by reference, the bound arguments by value."""
    import functools as ft

    from repro.engine import ide_sector_read_lba, request_label

    request = ft.partial(ide_sector_read_lba, lba=9)
    token = encode_request(request)
    assert isinstance(token, tuple) and token[0] == "partial"
    resolved = decode_request(token)
    assert resolved.func is ide_sector_read_lba
    assert resolved.keywords == {"lba": 9}
    # Nested partials flatten at construction, so they ship too.
    nested = ft.partial(ft.partial(ide_sector_read_lba, lba=3))
    assert decode_request(encode_request(nested)).keywords == {"lba": 3}
    assert "ide_sector_read_lba" in request_label(request)
    assert "lba=9" in request_label(request)


def test_request_codec_rejects_bad_partials():
    import functools as ft

    from repro.engine import ide_sector_read_lba

    with pytest.raises(ValueError):  # lambda under the partial
        encode_request(ft.partial(lambda stubs, aux: None))
    with pytest.raises(ValueError):  # unpicklable bound argument
        encode_request(ft.partial(ide_sector_read_lba,
                                  lba=lambda: 2))
    with pytest.raises(ValueError):  # malformed tuple tokens
        decode_request(("partial", "only-two"))
    with pytest.raises(ValueError):
        decode_request(("partial", "repro.engine.requests:"
                        "ide_sector_read_lba", b"not a pickle"))


def test_process_fleet_executes_partial_requests_exactly():
    """Partial requests land the same end-state on every backend (the
    bound lba argument must actually reach the worker)."""
    import functools as ft

    from repro.engine import ide_sector_read_lba

    schedule = [("ide", ft.partial(ide_sector_read_lba, lba=5)),
                ("ide", ide_sector_read),
                ("ide", ft.partial(ide_sector_read_lba, lba=11))] * 2
    serial = _run_backend("serial", ["ide", "ide"], schedule)
    process = _run_backend("process", ["ide", "ide"], schedule)
    assert process["states"] == serial["states"]
    assert process["by_device"] == serial["by_device"]
    assert process["trace"] == serial["trace"]
    # The parameterized reads really did touch different sectors than
    # a default-lba-only schedule would.
    default_only = _run_backend("serial", ["ide", "ide"],
                                [("ide", ide_sector_read)] * 6)
    assert process["trace"] != default_only["trace"]


# ---------------------------------------------------------------------------
# Process-backend semantics
# ---------------------------------------------------------------------------


def test_process_fleet_requires_deterministic_policy():
    with pytest.raises(ValueError, match="deterministic"):
        ProcessFleet(["ide", "ide"], policy="least-loaded")
    with pytest.raises(ValueError):
        ProcessFleet(["ide"], policy="psychic")


def test_process_fleet_propagates_request_errors():
    with pytest.raises(WorkerError) as info:
        with ProcessFleet(["ide"], workers=1) as fleet:
            fleet.submit("ide", _exploding_request)
            fleet.drain()
    assert "request exploded in the worker" in str(info.value)


def test_process_fleet_reports_a_dead_worker_promptly():
    """A worker process that exits mid-run surfaces as a WorkerError
    naming it and its exit code as soon as it is gone: neither the
    drain nor the shutdown behind it waits out ``sync_timeout``, and
    the dead shard refuses new requests instead of queueing them."""
    started = time.monotonic()
    with ProcessFleet(["ide"], workers=1, sync_timeout=60) as fleet:
        fleet.submit("ide", _exiting_request)
        with pytest.raises(WorkerError) as info:
            fleet.drain()
        with pytest.raises(RuntimeError, match="dead"):
            fleet.submit("ide", ide_sector_read)
    elapsed = time.monotonic() - started
    assert "pfleet-w0" in str(info.value)
    assert "exited with code 3" in str(info.value)
    assert elapsed < 30.0


def test_process_fleet_weighted_placement_matches_thread_backend():
    weights = {"ide0": 3, "ide1": 1}
    schedule = [("ide", ide_sector_read)] * 8
    with Fleet(["ide", "ide"], workers=2,
               policy="weighted-round-robin", weights=weights) as fleet:
        fleet.run(schedule)
        thread_counts = fleet.completed_by_device()
    with ProcessFleet(["ide", "ide"], workers=2,
                      policy="weighted-round-robin",
                      weights=weights) as fleet:
        fleet.run(schedule)
        process_counts = fleet.completed_by_device()
    assert thread_counts == process_counts == {"ide0": 6, "ide1": 2}


def test_process_fleet_accounting_exact_across_worker_counts():
    """The mixed schedule lands identical merged totals at 1, 2 and 3
    processes — sharding must not change what reaches the wire."""
    schedule = mixed_schedule(4)
    devices = ["ide", "permedia2", "ne2000"]
    reference = None
    for workers in (1, 2, 3):
        with ProcessFleet(devices, workers=workers) as fleet:
            fleet.run(schedule)
            accounting = fleet.accounting
            states = fleet.device_states()
        if reference is None:
            reference = (accounting, states)
        else:
            assert accounting == reference[0], f"{workers} workers"
            assert states == reference[1], f"{workers} workers"


def _exploding_request(stubs, aux):
    raise RuntimeError("request exploded in the worker")


def _exiting_request(stubs, aux):
    os._exit(3)
