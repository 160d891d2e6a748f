"""Thread fleet vs process fleet: CPU-bound and sleeping-I/O legs.

The measurement the multiprocessing backend exists for.  Two legs:

**CPU leg** — the request is :func:`repro.engine.ide_sector_checksum`:
one IDE sector read followed by a pure-Python rolling checksum that
holds the GIL for its whole duration (~2 ms).  Against that mix the
two backends must diverge in a very specific way:

* the **thread** backend cannot scale: every checksum serializes on
  the GIL, so 4 workers deliver essentially the single-worker rate.
  The benchmark enforces a *ceiling*: thread speedup at 4 workers must
  stay at or below ``THREAD_CPU_CEILING`` (1.2x) — if threads ever
  "scale" on this mix, the mix has stopped being CPU-bound and the
  benchmark has stopped testing what it claims to test.
* the **process** backend shards devices across worker processes, each
  with its own interpreter and GIL, so the checksums genuinely overlap
  on a multi-core machine.  The benchmark enforces a *floor*: process
  speedup at 4 workers must reach ``PROCESS_CPU_FLOOR`` (2.0x),
  enforced when ``os.cpu_count() >= 4`` and recorded as skipped, with
  the measurement, otherwise.

**I/O leg** — the mixed fleet under GIL-releasing port latency, on
both backends.  It carries no floor: it records how far the process
transport's per-request IPC cost puts it behind threads on I/O, which
is why the adaptive selector sends I/O-bound mixes to threads.

Exactness is enforced unconditionally on both legs: merged accounting
and byte-identical per-device end-state across every backend and
worker count.  A scheduling or merge bug fails this benchmark even on
a single-core machine where the throughput floor is waived.

Runs standalone (``python benchmarks/bench_fleet_mp.py [--quick]``,
the CI concurrency-job step) and under pytest via
:func:`test_fleet_mp_bench_quick`.  Results land in
``results/BENCH_fleet_mp.{txt,json}`` with the host environment
recorded alongside (a 1-CPU container's numbers are labeled as such).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from conftest import record

from repro.engine import (
    Fleet,
    ProcessFleet,
    ide_sector_checksum,
    mixed_schedule,
)

pytestmark = pytest.mark.concurrency

#: Thread speedup at 4 workers must stay at or below this on the
#: CPU-bound mix (the GIL flatline; enforced everywhere).
THREAD_CPU_CEILING = 1.2

#: Process speedup at 4 workers must reach this on the CPU-bound mix
#: (enforced when the machine has >= PROCESS_FLOOR_MIN_CPUS cores).
PROCESS_CPU_FLOOR = 2.0
PROCESS_FLOOR_MIN_CPUS = 4

WORKER_COUNTS = (1, 2, 4)

#: CPU leg: four disks, every request a GIL-holding checksum.
CPU_FLEET = ["ide"] * 4

#: I/O leg: the mixed machine of bench_fleet.py.
IO_FLEET = ["ide"] * 4 + ["permedia2"] * 4 + ["ne2000"] * 4
IO_LATENCY_US = 20.0
IO_WORD_LATENCY_US = 0.2

#: Columns of both legs: thread vs process backend.
VARIANTS = (
    ("thread", "thread", {}),
    ("process", "process", {}),
)


def cpu_variants():
    """The CPU-leg columns, with a native thread column when a C
    compiler is present.

    The checksum mix holds the GIL in *request* code, so the native
    column is an exactness cross-check here, not a scaling claim —
    the dispatch-bound mix where the native core's GIL release wins
    lives in ``bench_fleet_native.py``.
    """
    from repro.devil.native import native_available

    variants = list(VARIANTS)
    if native_available():
        variants.append(("nat/thread", "thread",
                         {"strategy": "native"}))
    return tuple(variants)


def _build(backend: str, devices, workers: int,
           latency_us: float = 0.0, word_latency_us: float = 0.0,
           **fleet_kwargs):
    cls = ProcessFleet if backend == "process" else Fleet
    return cls(devices, workers=workers, policy="round-robin",
               op_latency_us=latency_us,
               word_latency_us=word_latency_us, **fleet_kwargs)


def run_once(backend: str, devices, workers: int, schedule,
             latency_us: float = 0.0, word_latency_us: float = 0.0,
             **fleet_kwargs):
    """One timed run; returns (req/s, accounting, device states)."""
    with _build(backend, devices, workers, latency_us,
                word_latency_us, **fleet_kwargs) as fleet:
        start = time.perf_counter()
        fleet.run(schedule)
        elapsed = time.perf_counter() - start
        accounting = fleet.accounting
        if backend == "thread":
            accounting = accounting.snapshot()
        states = fleet.device_states()
        assert fleet.completed() == len(schedule)
    return len(schedule) / elapsed, accounting, states


def scaling_leg(variants, devices, schedule, latency_us: float = 0.0,
                word_latency_us: float = 0.0):
    """Every variant at every worker count, with exactness checks.

    Speedups are relative to each variant's own single-worker run, so
    they isolate scaling from the (constant) per-transport overhead.
    Every run must land identical accounting and byte-identical
    device end-state — backend and worker count may change *when*
    work happens, never *what* reaches the wire.
    """
    rows = []
    reference = None
    for label, backend, fleet_kwargs in variants:
        base_rate = None
        for workers in WORKER_COUNTS:
            rate, accounting, states = run_once(
                backend, devices, workers, schedule,
                latency_us, word_latency_us, **fleet_kwargs)
            if reference is None:
                reference = (accounting, states)
            else:
                if accounting != reference[0]:
                    raise AssertionError(
                        f"accounting diverged ({label}, {workers} "
                        f"workers):\n  reference: {reference[0]}\n"
                        f"  this run : {accounting}")
                if states != reference[1]:
                    diverged = sorted(
                        name for name in reference[1]
                        if states.get(name) != reference[1][name])
                    raise AssertionError(
                        f"device end-state diverged ({label}, "
                        f"{workers} workers): {diverged}")
            if base_rate is None:
                base_rate = rate
            rows.append({"label": label, "backend": backend,
                         "workers": workers, "rps": rate,
                         "speedup": rate / base_rate})
    return rows, reference[0]


def _row(rows, label: str, workers: int) -> dict:
    return next(row for row in rows
                if row["label"] == label
                and row["workers"] == workers)


def check_floors(cpu_rows, cpu_count: int):
    """(verdicts, ok) for the CPU leg's ceiling and floor."""
    verdicts = []
    ok = True

    thread4 = _row(cpu_rows, "thread", 4)
    if thread4["speedup"] <= THREAD_CPU_CEILING:
        verdicts.append(
            f"OK: thread backend flatlines on CPU-bound mix "
            f"({thread4['speedup']:.2f}x at 4 workers, ceiling "
            f"{THREAD_CPU_CEILING}x)")
    else:
        ok = False
        verdicts.append(
            f"FAIL: thread backend 'scaled' to "
            f"{thread4['speedup']:.2f}x at 4 workers (ceiling "
            f"{THREAD_CPU_CEILING}x) — the mix is no longer CPU-bound")

    process4 = _row(cpu_rows, "process", 4)
    if cpu_count < PROCESS_FLOOR_MIN_CPUS:
        verdicts.append(
            f"SKIP: process scaling floor ({PROCESS_CPU_FLOOR}x at 4 "
            f"workers) needs >= {PROCESS_FLOOR_MIN_CPUS} CPUs; this "
            f"machine has {cpu_count} (measured "
            f"{process4['speedup']:.2f}x)")
    elif process4["speedup"] >= PROCESS_CPU_FLOOR:
        verdicts.append(
            f"OK: process backend scales on CPU-bound mix "
            f"({process4['speedup']:.2f}x at 4 workers, floor "
            f"{PROCESS_CPU_FLOOR}x)")
    else:
        ok = False
        verdicts.append(
            f"FAIL: process backend reached only "
            f"{process4['speedup']:.2f}x at 4 workers (floor "
            f"{PROCESS_CPU_FLOOR}x on a {cpu_count}-CPU machine)")
    return verdicts, ok


def render(cpu_rows, io_rows, verdicts, cpu_schedule_len,
           io_schedule_len, cpu_count: int) -> str:
    def table(rows):
        lines = [f"{'variant':>10} | {'workers':>7} | {'req/s':>10} | "
                 f"{'speedup':>8}",
                 "-" * 46]
        for row in rows:
            lines.append(
                f"{row['label']:>10} | {row['workers']:>7} | "
                f"{row['rps']:>10.1f} | {row['speedup']:>7.2f}x")
        return lines

    lines = [
        "Thread fleet vs process fleet "
        f"(os.cpu_count()={cpu_count})",
        "",
        f"CPU-bound leg: 4x IDE, {cpu_schedule_len} x "
        f"ide_sector_checksum (GIL-holding; speedup vs each "
        f"variant's own 1-worker run)",
    ]
    lines += table(cpu_rows)
    lines += [
        "",
        f"Sleeping-I/O leg: mixed fleet, {io_schedule_len} requests, "
        f"{IO_LATENCY_US:.0f}us/op + {IO_WORD_LATENCY_US:.1f}us/word "
        f"(GIL-releasing; no floor)",
    ]
    lines += table(io_rows)
    lines += ["",
              "exactness: merged accounting and per-device end-state "
              "byte-identical across every variant and worker count",
              ""]
    lines += verdicts
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller schedules (CI smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="CPU-bound requests in the schedule")
    args = parser.parse_args(argv)

    cpu_requests = args.requests or (12 if args.quick else 32)
    cpu_schedule = [("ide", ide_sector_checksum)] * cpu_requests
    io_schedule = mixed_schedule(4 if args.quick else 16)
    cpu_count = os.cpu_count() or 1

    cpu_rows, _ = scaling_leg(cpu_variants(), CPU_FLEET, cpu_schedule)
    io_rows, _ = scaling_leg(VARIANTS, IO_FLEET, io_schedule,
                             IO_LATENCY_US, IO_WORD_LATENCY_US)
    verdicts, ok = check_floors(cpu_rows, cpu_count)

    table = render(cpu_rows, io_rows, verdicts, len(cpu_schedule),
                   len(io_schedule), cpu_count)
    record("BENCH_fleet_mp", table, data={
        "quick": args.quick,
        "cpu_count": cpu_count,
        "cpu_leg": {"devices": CPU_FLEET,
                    "requests": len(cpu_schedule),
                    "rows": cpu_rows},
        "io_leg": {"devices": IO_FLEET,
                   "requests": len(io_schedule),
                   "latency_us": IO_LATENCY_US,
                   "word_latency_us": IO_WORD_LATENCY_US,
                   "rows": io_rows},
        "floors": {
            "thread_cpu_ceiling": THREAD_CPU_CEILING,
            "process_cpu_floor": PROCESS_CPU_FLOOR,
            "process_floor_min_cpus": PROCESS_FLOOR_MIN_CPUS,
            "process_floor_enforced":
                cpu_count >= PROCESS_FLOOR_MIN_CPUS,
        },
        "verdicts": verdicts,
    })

    for verdict in verdicts:
        stream = sys.stderr if verdict.startswith("FAIL") else sys.stdout
        print(verdict, file=stream)
    return 0 if ok else 1


def test_fleet_mp_bench_quick():
    """Pytest entry: tiny schedules, exactness only.

    The throughput ceilings/floors are waived here (wall-clock floors
    are flaky under a loaded test runner) and enforced by the
    standalone run in the CI concurrency job instead.  Exactness —
    the part that catches scheduling and merge bugs — still asserts
    across every variant.
    """
    variants = cpu_variants()
    cpu_rows, accounting = scaling_leg(
        variants, CPU_FLEET, [("ide", ide_sector_checksum)] * 6)
    assert accounting.total_ops > 0
    assert len(cpu_rows) == len(variants) * len(WORKER_COUNTS)
    io_rows, _ = scaling_leg(VARIANTS, IO_FLEET, mixed_schedule(2),
                             IO_LATENCY_US, IO_WORD_LATENCY_US)
    assert len(io_rows) == len(VARIANTS) * len(WORKER_COUNTS)


if __name__ == "__main__":
    sys.exit(main())
