"""Cross-process parity: the process backend is indistinguishable.

The multiprocessing fleet's correctness claim mirrors the thread
fleet's, one substrate deeper: for the same submission sequence, the
process backend must produce — not approximately, *byte for byte* —
the same device end-state (pickled per-mapping snapshots via
:meth:`repro.bus.Bus.state_snapshot`), the same exact merged and
per-device accounting, the same span signatures and the same merged
port-operation trace as the serial single-worker reference and the
thread backend, for every shipped specification and strategy.  The
parity tests run the fleet cells of the differential harness
(``tests/differential.py``).  Placement is deterministic at submit
time in all three, which is what makes request-for-request comparison
a valid test at all.
"""

from __future__ import annotations

import functools
import os
import time

import pytest

from repro.bus import Bus, iter_operations
from repro.engine import (
    ProcessFleet,
    WorkerError,
    decode_request,
    encode_request,
    ide_sector_checksum,
    ide_sector_read,
    ide_sector_read_lba,
    ide_sector_read_txn,
    ide_taskfile_churn,
)
from repro.obs.workloads import WORKLOADS, build_machine
from repro.specs import SPEC_NAMES
from tests.differential import (
    BOTH,
    FLEET,
    FLEETS,
    MIXED,
    PYTHON_STRATEGIES,
    STRATEGIES,
    Cell,
    FleetRun,
    check,
    evidence,
    matrix,
    needs_cc,
)

pytestmark = pytest.mark.concurrency

PARALLEL = ("thread", "process")

#: A device of every shipped spec serving its workload.
EVERY_SPEC = FleetRun("every spec fleet",
                      tuple((spec, WORKLOADS[spec]) for spec in SPEC_NAMES),
                      devices=tuple(SPEC_NAMES))

IDE_READS = FleetRun("ide sector reads", (("ide", ide_sector_read),) * 6,
                     devices=("ide", "ide"))


#: Plain, transactional and CPU-bound requests on a mixed fleet; the
#: transactional writes coalesce in the workers, and the mix's
#: registers are all volatile, so nothing is elided.
MIXED_TXN = FleetRun(
    "mixed fleet, txn and cpu requests", None,
    (("ide", ide_sector_read), ("ide", ide_sector_read_txn),
     ("ide", ide_sector_checksum), ("permedia2", WORKLOADS["permedia2"]),
     ("ne2000", WORKLOADS["ne2000"])) * 4,
    expect=lambda found, cell: found.accounting.coalesced_writes > 0,
    devices=("ide", "ide", "permedia2", "ne2000"))

# ---------------------------------------------------------------------------
# The parity suite: every shipped spec, serial vs thread vs process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_backend_parity_per_spec(spec):
    """Serial, thread-fleet and process-fleet runs of the shipped
    workload are byte-identical in end-state, accounting, spans and
    merged traces."""
    check(FLEET[spec], matrix(strategy=("specialize",), backend=PARALLEL,
                              spans=(True,)))


def test_every_strategy_and_shadow_setting_on_every_backend():
    """Every shipped spec on one fleet, in every Python strategy with
    the shadow cache on (spans compared with it off); a native fleet
    rejects the cache on every backend."""
    if "native" in STRATEGIES:
        check(EVERY_SPEC, matrix(strategy=("native",), shadow_cache=(True,),
                                 backend=tuple(FLEETS)))
    for shadow in BOTH:
        check(EVERY_SPEC, matrix(strategy=PYTHON_STRATEGIES,
                                 shadow_cache=(shadow,),
                                 backend=tuple(FLEETS),
                                 spans=(not shadow,)))


def test_backend_parity_mixed_fleet_with_txn_and_cpu_requests():
    check(MIXED_TXN, matrix(strategy=("specialize",), shadow_cache=(True,),
                            txn=(True,), backend=tuple(FLEETS),
                            spans=(True,)))


@pytest.mark.parametrize("backend", PARALLEL)
def test_backend_parity_with_telemetry_enabled(backend):
    """The live telemetry plane (heartbeats, latency histograms,
    flight recorder) is pure observation: a fleet running with
    ``telemetry=True`` stays byte-equal to the untelemetered serial
    reference."""
    check(FLEET["ide"], [Cell("specialize", backend=backend,
                              telemetry=True, spans=True)])


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
    check(IDE_READS, [Cell(strategy, backend="process", spans=True)])


def test_process_backend_block_groups_stay_contiguous():
    """Block transfers keep their per-word trace entries adjacent in
    each worker's exported ring (``iter_operations`` must regroup)."""
    reads = FleetRun("three ide, sector reads",
                     (("ide", ide_sector_read),) * 9, devices=("ide",) * 3)
    trace = evidence(reads, Cell("specialize", backend="process")).trace
    blocks = [op for op in iter_operations(trace)
              if op[0].op in ("rb", "wb")]
    assert blocks, "sector reads must produce block operations"
    for group in blocks:
        assert len(group) == group[0].count
        assert len({entry.port for entry in group}) == 1


# ---------------------------------------------------------------------------
# The native strategy: the compiled core is a fourth exact substrate
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("backend", tuple(FLEETS))
@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_native_backend_parity_per_spec(spec, backend):
    """Every backend running the native core agrees with the serial
    interpreter fleet; tracing keeps the core in callback mode here,
    direct mode is covered below."""
    check(FLEET[spec], [Cell("native", backend=backend, spans=True)])


@needs_cc
@pytest.mark.parametrize("spec", SPEC_NAMES)
def test_native_direct_mode_parity_untraced(spec):
    """With no tracer or collector, native fleet workers may run
    batches in direct mode (C dispatch, C accounting, C device models
    where shipped) and still land byte-equal end-state and exact
    accounting."""
    check(FLEET[spec], matrix(strategy=("native",), backend=PARALLEL,
                              tracing=(False,)))


@needs_cc
def test_native_churn_request_parity_across_strategies():
    """The dispatch-bound benchmark request is exact: the native
    ``repeat()`` fast path (direct when untraced) produces the same
    traffic and accounting as the interpreter's Python loop."""
    check(FleetRun("ide taskfile churn", (("ide", functools.partial(
        ide_taskfile_churn, n=512)),) * 4, devices=("ide", "ide")),
          matrix(strategy=("native",), backend=PARALLEL, tracing=BOTH))


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
# The bus snapshot seam
# ---------------------------------------------------------------------------


def test_bus_state_snapshot_detects_single_bit_difference():
    bus_a, aux_a, _ = build_machine("ide", tracing=False)
    bus_b, aux_b, _ = build_machine("ide", tracing=False)
    assert bus_a.state_snapshot() == bus_b.state_snapshot()
    aux_b["disk"].store[0] ^= 0x01
    assert bus_a.state_snapshot() != bus_b.state_snapshot()


def test_plain_bus_exposes_the_snapshot_seam():
    """The seam lives on the base Bus, not just the thread-safe one."""
    bus = Bus()
    assert bus.state_snapshot() == {}


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
    lba = functools.partial(ide_sector_read_lba, lba=5)
    check(FleetRun("ide partial reads", (("ide", lba), ("ide",
                   ide_sector_read), ("ide", functools.partial(lba, lba=11)))
                   * 2,
                   devices=("ide", "ide"), expect=lambda found, cell:
                   found.trace != evidence(IDE_READS, cell).trace),
          [Cell(backend="process")])


# ---------------------------------------------------------------------------
# Process-backend semantics
# ---------------------------------------------------------------------------


def test_process_fleet_requires_deterministic_policy():
    check(IDE_READS, [Cell(backend="process", policy="least-loaded")])
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
    check(FleetRun("ide weighted 3:1", (("ide", ide_sector_read),) * 8,
                   devices=("ide", "ide"), weights=(("ide0", 3), ("ide1", 1)),
                   expect=lambda found, cell:
                   found.results == {"ide0": 6, "ide1": 2}),
          matrix(strategy=("specialize",), backend=PARALLEL, workers=(2,),
                 policy=("weighted-round-robin",), tracing=(False,)))


def test_process_fleet_accounting_exact_across_worker_counts():
    """The mixed schedule lands identical merged totals at 1, 2 and 3
    processes — sharding must not change what reaches the wire."""
    check(MIXED, matrix(strategy=("specialize",), backend=("process",),
                        workers=(1, 2, 3), tracing=(False,)))


def _exploding_request(stubs, aux):
    raise RuntimeError("request exploded in the worker")


def _exiting_request(stubs, aux):
    os._exit(3)
