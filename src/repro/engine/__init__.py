"""Concurrent device-fleet engine.

Two execution substrates under one request API:

* the **thread backend** (:class:`Fleet`) gives each of N shipped
  devices an exclusive session with a bus of its own, routes requests
  to the sessions by a scheduling policy, and executes them on a
  bounded worker pool with backpressure — it scales with the
  sleeping-I/O fraction of the mix;
* the **process backend** (:class:`ProcessFleet`) shards the same
  sessions across worker processes — it scales CPU-bound mixes the GIL
  serializes.  Its transport is one queue message per request and one
  report per worker per sync point.

Both backends answer accounting, per-device accounting, end-state and
traces by merging per-session reports in global device order with one
routine (:class:`~repro.engine.fleet.MergedSessions`).

:meth:`Fleet.auto` picks between the two from the fleet's own
configuration — policy, worker and CPU counts, strategy and port
latency (:mod:`repro.engine.select`).

Placement under the deterministic policies is a pure function of
submission order in both backends, which is what makes them
byte-comparable against each other and against a serial reference
(``tests/test_fleet_mp.py``).

See ``docs/CONCURRENCY.md`` for the locking/sharding model and
``benchmarks/bench_fleet.py`` for the throughput numbers.
"""

from .compute import COMPUTE_SPEC, compute_fleet
from .fleet import (
    SLOT_STRIDE,
    DeviceSession,
    Fleet,
    LatencyBus,
    fleet_layout,
    map_fleet_device,
    session_weight,
)
from .mp import ProcessFleet, ProcessSession
from .pool import WorkerError, WorkerPool
from .requests import (
    CHURN_OPS,
    CPU_REQUESTS,
    MIXED_REQUESTS,
    decode_request,
    encode_request,
    ide_data_probe,
    ide_sector_checksum,
    ide_sector_read,
    ide_sector_read_lba,
    ide_sector_read_txn,
    ide_taskfile_churn,
    ne2000_ring_poll,
    pm2_fill_rect,
    request_label,
    wedged_request,
)
from .scheduler import (
    DETERMINISTIC_POLICIES,
    SCHEDULERS,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    Scheduler,
    WeightedRoundRobinScheduler,
)
from .select import BackendChoice, decide
from .shm import HEARTBEAT_SLOT_BYTES, HeartbeatSlot
from .stress import STRESS_BACKENDS, mixed_schedule, run_stress

__all__ = [
    "COMPUTE_SPEC",
    "compute_fleet",
    "SLOT_STRIDE",
    "DeviceSession",
    "Fleet",
    "LatencyBus",
    "ProcessFleet",
    "ProcessSession",
    "fleet_layout",
    "map_fleet_device",
    "session_weight",
    "WorkerError",
    "WorkerPool",
    "CHURN_OPS",
    "CPU_REQUESTS",
    "MIXED_REQUESTS",
    "decode_request",
    "encode_request",
    "ide_data_probe",
    "ide_sector_checksum",
    "ide_sector_read",
    "ide_sector_read_lba",
    "ide_sector_read_txn",
    "ide_taskfile_churn",
    "ne2000_ring_poll",
    "pm2_fill_rect",
    "request_label",
    "wedged_request",
    "BackendChoice",
    "decide",
    "HEARTBEAT_SLOT_BYTES",
    "HeartbeatSlot",
    "STRESS_BACKENDS",
    "DETERMINISTIC_POLICIES",
    "SCHEDULERS",
    "LeastLoadedScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "WeightedRoundRobinScheduler",
    "mixed_schedule",
    "run_stress",
]
