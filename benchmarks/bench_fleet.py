"""Fleet throughput: backends, strategies and worker counts, three legs.

Every leg drives one fleet per cell (variant x worker count) through
the same request schedule and reports requests/sec.  Each cell's fleet
is built once and timed by :func:`conftest.time_rounds`: one untimed
warm-up run (worker start-up and first calls stay out of the timer),
then ``ROUNDS`` rounds that run the schedule once on every cell of the
leg, rotating the cell order from round to round so a shared host's
drift lands on all cells alike.  A cell reports the median [quartiles]
of its round rates; speedups are medians over the variant's own
1-worker median, and every floor and ceiling applies to them.

**Sleeping I/O** — a mixed fleet (4 IDE disks serving one-sector PIO
reads, 4 Permedia2 GPUs filling rectangles, 4 NE2000 NICs polling
their receive rings) whose bus sleeps 20 us per port operation plus
0.2 us per block word.  The sleep releases the GIL, so — exactly like
real programmed I/O stalling one core while others keep working —
latency on one device overlaps with work on others.  Threads at 1, 2,
4 and 8 workers must reach ``MIN_SPEEDUP_AT_4`` (2.5x) at 4; the
process backend at 1, 2 and 4 carries no floor: it records how far
its per-request IPC puts it behind threads on I/O, which is why the
selector sends a fleet with port latency to threads.

**GIL-bound checksum** — 4 disks, every request
:func:`repro.engine.ide_sector_checksum` (one sector read, then ~2 ms
of pure-Python checksum holding the GIL).  Threads cannot scale: their
speedup at 4 workers must stay at or below ``THREAD_CPU_CEILING``
(1.2x) — if threads ever "scale" here, the mix has stopped being
CPU-bound.  Processes each have their own GIL and must reach
``PROCESS_CPU_FLOOR`` (2x) at 4 workers on a machine with at least
``FLOOR_MIN_CPUS`` (4) CPUs; below that the verdict is a skip with the
measurement.  A native thread column rides along as an exactness
cross-check (the GIL is held in request code, not in dispatch).

**Dispatch-bound churn** — 4 disks, every request
:func:`repro.engine.ide_taskfile_churn` (thousands of single-register
writes, no latency).  On specializer stubs every write is a Python
round trip holding the GIL; on native stubs the request is one C
``repeat()`` that releases it and runs against the C-resident IDE
model.  ``nat/thread`` at 4 workers must reach
``NATIVE_VS_SPECIALIZE`` (2x) ``spec/thread`` at 4 on >= 4 CPUs
(skip with the measurement below); ``nat/process`` shows the C core
composes with the process backend.  The leg needs a C compiler.

Exactness is enforced unconditionally on every leg: each cell runs
the schedule equally often and must end with the same merged
accounting and byte-identical per-device state as every other backend,
strategy and worker count.  An 8-thread single-device stress leg
(exact accounting, state and whole-trace parity vs a serial
reference, every strategy, native included when a C compiler is
present; each request reads its own sector, so a device that ran them
out of order would leave another trace) rides along,
so a scheduling, locking or merge bug fails this benchmark even where
the throughput floors are waived.

A **selector table** rides along with no floor: for each leg and
worker count it sets :func:`repro.engine.select.decide`'s pick for the
leg's configuration (policy, worker and CPU counts, strategy, port
latency) against the measured winner between the leg's thread and
process cells: the backend whose quartile range lies wholly above the
other's, or a tie where the two ranges overlap.

Runs standalone (``python benchmarks/bench_fleet.py [--quick]``, the
CI concurrency-job steps; exits 1 on a failed floor) and under pytest
via :func:`test_fleet_bench_quick`.  A full run records
``results/BENCH_fleet.{txt,json}`` with the host environment; a
``--quick`` run only prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from conftest import record, time_rounds

from repro.devil.native import native_available
from repro.engine import (
    CHURN_OPS,
    Fleet,
    ProcessFleet,
    decide,
    ide_sector_checksum,
    ide_sector_read_lba,
    ide_taskfile_churn,
    mixed_schedule,
    run_stress,
)

pytestmark = pytest.mark.concurrency

#: Thread speedup at 4 workers on sleeping I/O (enforced everywhere).
MIN_SPEEDUP_AT_4 = 2.5

#: Thread speedup at 4 workers on the checksum mix must stay at or
#: below this (the GIL flatline; enforced everywhere).
THREAD_CPU_CEILING = 1.2

#: Process speedup at 4 workers on the checksum mix (>= 4 CPUs).
PROCESS_CPU_FLOOR = 2.0

#: ``nat/thread`` over ``spec/thread`` at 4 workers on churn (>= 4 CPUs).
NATIVE_VS_SPECIALIZE = 2.0

#: The CPU-scaling floors need this many cores to mean anything.
FLOOR_MIN_CPUS = 4

#: Timed rounds per leg: each runs the schedule once on every cell.
ROUNDS = 7

#: The I/O leg's mixed fleet and its sleeping latency model.
IO_FLEET = ["ide"] * 4 + ["permedia2"] * 4 + ["ne2000"] * 4
IO_LATENCY_US = 20.0
IO_WORD_LATENCY_US = 0.2

#: The checksum and churn legs' fleet.
IDE_FLEET = ["ide"] * 4

#: Variants: (label, backend, strategy, worker counts).
IO_VARIANTS = (("thread", "thread", "specialize", (1, 2, 4, 8)),
               ("process", "process", "specialize", (1, 2, 4)))
CPU_VARIANTS = (("thread", "thread", "specialize", (1, 2, 4)),
                ("process", "process", "specialize", (1, 2, 4)),
                ("nat/thread", "thread", "native", (1, 2, 4)))
CHURN_VARIANTS = (("spec/thread", "thread", "specialize", (1, 2, 4)),
                  ("nat/thread", "thread", "native", (1, 2, 4)),
                  ("nat/process", "process", "native", (1, 2, 4)))

#: Per leg: the thread and process variants the selector chooses
#: between, and the fleet, bind strategy and port latency it decides on.
SELECTOR_CELLS = {
    "io": ("thread", "process", IO_FLEET, "specialize", IO_LATENCY_US),
    "checksum": ("thread", "process", IDE_FLEET, "specialize", 0.0),
    "churn": ("nat/thread", "nat/process", IDE_FLEET, "native", 0.0),
}


def scaling_leg(variants, devices, schedule, latency_us: float = 0.0,
                word_latency_us: float = 0.0, rounds: int = ROUNDS):
    """Every variant at each of its worker counts, with exactness.

    Returns the rows (median req/s, quartiles and speedup over the
    variant's own 1-worker median per cell) and the merged accounting
    every cell ended with.  Backend, strategy and worker count may
    change *when* work happens, never *what* reaches the wire: every
    cell must land identical accounting and byte-identical device
    end-state.
    """
    cells = [(label, backend, strategy, workers)
             for label, backend, strategy, counts in variants
             for workers in counts]
    with contextlib.ExitStack() as stack:
        fleets = {}
        for label, backend, strategy, workers in cells:
            cls = ProcessFleet if backend == "process" else Fleet
            fleets[f"{label}@{workers}"] = stack.enter_context(cls(
                devices, strategy=strategy, workers=workers,
                policy="round-robin", op_latency_us=latency_us,
                word_latency_us=word_latency_us))
        stats = time_rounds({name: functools.partial(fleet.run, schedule)
                             for name, fleet in fleets.items()}, rounds)
        reference = None
        for name, fleet in fleets.items():
            assert fleet.completed() == len(schedule) * (rounds + 1)
            evidence = (fleet.accounting, fleet.device_states())
            if reference is None:
                reference = evidence
            elif evidence[0] != reference[0]:
                raise AssertionError(
                    f"accounting diverged ({name}):\n"
                    f"  reference: {reference[0]}\n"
                    f"  this run : {evidence[0]}")
            elif evidence[1] != reference[1]:
                diverged = sorted(
                    device for device in reference[1]
                    if evidence[1].get(device) != reference[1][device])
                raise AssertionError(
                    f"device end-state diverged ({name}): {diverged}")
    rows = []
    for label, backend, strategy, workers in cells:
        q1, median, q3 = stats[f"{label}@{workers}"]
        if workers == 1:
            base_rate = median
        rows.append({"label": label, "backend": backend,
                     "strategy": strategy, "workers": workers,
                     "rps": median, "rps_quartiles": [q1, q3],
                     "speedup": median / base_rate})
    return rows, reference[0]


def stress_leg(iterations: int) -> None:
    """8 threads against one device, exact vs a serial reference, the
    traced port operations in the same order too."""
    schedule = [("ide", functools.partial(ide_sector_read_lba, lba=lba))
                for lba in range(16)]
    strategies = ["interpret", "specialize", "generated"]
    if native_available():
        strategies.append("native")
    for strategy in strategies:
        reference = None
        for _ in range(iterations):
            reference = run_stress(["ide"], schedule, workers=8,
                                   strategy=strategy, tracing=True,
                                   reference=reference)


def run_legs(io_schedule, cpu_schedule, churn_schedule,
             rounds: int = ROUNDS) -> dict:
    """``leg -> (rows, accounting)``; churn only with a C compiler."""
    native = native_available()
    cpu_variants = CPU_VARIANTS if native else CPU_VARIANTS[:2]
    legs = {
        "io": scaling_leg(IO_VARIANTS, IO_FLEET, io_schedule,
                          IO_LATENCY_US, IO_WORD_LATENCY_US, rounds),
        "checksum": scaling_leg(cpu_variants, IDE_FLEET, cpu_schedule,
                                rounds=rounds),
    }
    if native:
        legs["churn"] = scaling_leg(CHURN_VARIANTS, IDE_FLEET,
                                    churn_schedule, rounds=rounds)
    return legs


def selector_rows(legs: dict, cpu_count: int) -> list[dict]:
    """The selector's pick against each leg's measured winner.

    Asks ``decide()`` what ``Fleet.auto`` would pick for each leg's
    configuration and worker count, and compares it with the leg's
    thread and process cells: one wins when its quartile range lies
    wholly above the other's, and overlapping ranges are a tie.
    """
    rows = []
    for leg, (leg_rows, _) in legs.items():
        thread_label, process_label, devices, strategy, op_us = \
            SELECTOR_CELLS[leg]
        for workers in sorted({row["workers"] for row in leg_rows
                               if row["label"] == process_label}):
            choice = decide("round-robin", min(workers, len(devices)),
                            cpu_count, strategy, op_us)
            thread = _row(leg_rows, thread_label, workers)
            process = _row(leg_rows, process_label, workers)
            (thread_q1, thread_q3), (process_q1, process_q3) = \
                thread["rps_quartiles"], process["rps_quartiles"]
            winner = ("thread" if thread_q1 > process_q3 else
                      "process" if process_q1 > thread_q3 else "tie")
            rows.append({"leg": leg, "workers": workers,
                         "pick": choice.backend, "winner": winner,
                         "thread_rps": thread["rps"],
                         "process_rps": process["rps"]})
    return rows


def render_selector(rows) -> list[str]:
    lines = [
        "",
        "Selector evidence (no floor): decide() on the leg's "
        "configuration vs the winner of the leg's thread and process "
        "cells",
        f"{'leg':>8} | {'workers':>7} | {'pick':>7} | {'winner':>7} | "
        f"{'thread/process req/s':>21}",
        "-" * 61,
    ]
    for row in rows:
        rates = f"{row['thread_rps']:.1f}/{row['process_rps']:.1f}"
        mark = "" if row["winner"] in ("tie", row["pick"]) else " *"
        lines.append(
            f"{row['leg']:>8} | {row['workers']:>7} | {row['pick']:>7} | "
            f"{row['winner']:>7} | {rates:>21}{mark}")
    agree = sum(row["pick"] == row["winner"] for row in rows)
    ties = sum(row["winner"] == "tie" for row in rows)
    lines.append(f"pick = measured winner in {agree} of "
                 f"{len(rows) - ties} cells with a winner (* = "
                 f"disagreement), {ties} ties; pick = decide(policy, "
                 "workers, CPU count, strategy, port latency), as "
                 "Fleet.auto applies it; winner = the backend whose "
                 "req/s quartile range lies wholly above the other's, "
                 "tie where they overlap")
    return lines


def _row(rows, label: str, workers: int) -> dict:
    return next(row for row in rows
                if row["label"] == label and row["workers"] == workers)


def _verdict(claim: str, value: float, floor: float | None = None,
             ceiling: float | None = None, min_cpus: int = 1,
             cpu_count: int = 1) -> tuple[str, bool]:
    """``(verdict line, ok)`` for one gate; a skip counts as ok."""
    bound = f"floor {floor}x" if floor is not None \
        else f"ceiling {ceiling}x"
    text = f"{claim}: {value:.2f}x ({bound}"
    if cpu_count < min_cpus:
        return (f"SKIP: {text} needs >= {min_cpus} CPUs; this machine "
                f"has {cpu_count})"), True
    ok = value >= floor if floor is not None else value <= ceiling
    return f"{'OK' if ok else 'FAIL'}: {text})", ok


def check_gates(legs: dict, cpu_count: int) -> list[tuple[str, bool]]:
    """Every throughput gate of the three legs, on medians."""
    io_rows = legs["io"][0]
    cpu_rows = legs["checksum"][0]
    verdicts = [
        _verdict("thread speedup at 4 workers on sleeping I/O",
                 _row(io_rows, "thread", 4)["speedup"],
                 floor=MIN_SPEEDUP_AT_4),
        _verdict("thread speedup at 4 workers on the checksum mix",
                 _row(cpu_rows, "thread", 4)["speedup"],
                 ceiling=THREAD_CPU_CEILING),
        _verdict("process speedup at 4 workers on the checksum mix",
                 _row(cpu_rows, "process", 4)["speedup"],
                 floor=PROCESS_CPU_FLOOR, min_cpus=FLOOR_MIN_CPUS,
                 cpu_count=cpu_count),
    ]
    if "churn" in legs:
        churn_rows = legs["churn"][0]
        verdicts.append(_verdict(
            "nat/thread over spec/thread at 4 workers on churn",
            _row(churn_rows, "nat/thread", 4)["rps"] /
            _row(churn_rows, "spec/thread", 4)["rps"],
            floor=NATIVE_VS_SPECIALIZE, min_cpus=FLOOR_MIN_CPUS,
            cpu_count=cpu_count))
    else:
        verdicts.append(("SKIP: churn leg needs a C compiler", True))
    return verdicts


def render(legs: dict, titles: dict, selector, verdicts,
           stress_iterations: int, cpu_count: int, rounds: int) -> str:
    lines = [
        f"Fleet throughput (os.cpu_count()={cpu_count}); req/s: median "
        f"[quartiles] of {rounds} interleaved rounds per cell, cell "
        "order rotated per round, fleets built and warmed before "
        "timing; speedup: medians vs the variant's own 1-worker median",
    ]
    for leg, (rows, accounting) in legs.items():
        lines += [
            "",
            titles[leg],
            f"{'variant':>11} | {'workers':>7} | "
            f"{'req/s median [q1-q3]':>26} | {'speedup':>8}",
            "-" * 62,
        ]
        for row in rows:
            q1, q3 = row["rps_quartiles"]
            cell = f"{row['rps']:.1f} [{q1:.1f}-{q3:.1f}]"
            lines.append(f"{row['label']:>11} | {row['workers']:>7} | "
                         f"{cell:>26} | {row['speedup']:>7.2f}x")
        lines.append(
            f"port ops after warm-up + {rounds} rounds, identical in "
            f"every cell: total={accounting.total_ops} "
            f"reads={accounting.reads} writes={accounting.writes} "
            f"block_words={accounting.block_words}")
    lines += [
        "",
        "exactness: merged accounting and per-device end-state "
        "byte-identical across every cell of each leg",
        f"stress: 8 threads x 1 device x {stress_iterations} iterations "
        "per strategy — exact accounting, state and trace parity vs "
        "serial reference: ok",
    ]
    lines += render_selector(selector)
    lines.append("")
    lines += [text for text, _ in verdicts]
    return "\n".join(lines)


def _port_ops(accounting) -> dict:
    return {"total_ops": accounting.total_ops, "reads": accounting.reads,
            "writes": accounting.writes,
            "block_ops": accounting.block_ops,
            "block_words": accounting.block_words}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller schedules and stress (CI smoke); "
                             "every floor still applies")
    args = parser.parse_args(argv)

    io_schedule = mixed_schedule(24 if args.quick else 64)
    cpu_schedule = [("ide", ide_sector_checksum)] * \
        (12 if args.quick else 32)
    churn_ops = 2048 if args.quick else CHURN_OPS
    churn_schedule = [("ide", functools.partial(
        ide_taskfile_churn, n=churn_ops))] * (16 if args.quick else 48)
    stress_iterations = 10 if args.quick else 100
    cpu_count = os.cpu_count() or 1

    legs = run_legs(io_schedule, cpu_schedule, churn_schedule)
    stress_leg(stress_iterations)
    verdicts = check_gates(legs, cpu_count)
    selector = selector_rows(legs, cpu_count)

    titles = {
        "io": f"Sleeping I/O: 4x IDE sector read, 4x PM2 fill rect, "
              f"4x NE2000 ring poll; {len(io_schedule)} requests per "
              f"round, {IO_LATENCY_US:.0f}us/op + "
              f"{IO_WORD_LATENCY_US:.1f}us/word (GIL-releasing)",
        "checksum": f"GIL-bound: 4x IDE, {len(cpu_schedule)} x "
                    f"ide_sector_checksum per round",
        "churn": f"Dispatch-bound: 4x IDE, {len(churn_schedule)} x "
                 f"ide_taskfile_churn({churn_ops} writes) per round",
    }
    table = render(legs, titles, selector, verdicts, stress_iterations,
                   cpu_count, ROUNDS)
    record("BENCH_fleet", table, data={
        "quick": args.quick,
        "cpu_count": cpu_count,
        "rounds": ROUNDS,
        "legs": {leg: {"title": titles[leg], "rows": rows,
                       "port_ops": _port_ops(accounting)}
                 for leg, (rows, accounting) in legs.items()},
        "floors": {
            "thread_io_speedup_at_4": MIN_SPEEDUP_AT_4,
            "thread_cpu_ceiling": THREAD_CPU_CEILING,
            "process_cpu_floor": PROCESS_CPU_FLOOR,
            "native_vs_specialize": NATIVE_VS_SPECIALIZE,
            "floor_min_cpus": FLOOR_MIN_CPUS,
        },
        "stress_iterations": stress_iterations,
        "selector": selector,
        "verdicts": [text for text, _ in verdicts],
    }, quick=args.quick)

    return 0 if all(ok for _, ok in verdicts) else 1


def test_fleet_bench_quick():
    """Pytest entry: tiny schedules, two rounds, exactness only.

    The throughput floors are waived here (wall-clock floors are flaky
    under a loaded test runner) and enforced by the standalone runs in
    the CI concurrency job instead.  Exactness — the part that catches
    scheduling and merge bugs — still asserts in every cell of every
    leg, and the stress leg runs.
    """
    churn = functools.partial(ide_taskfile_churn, n=256)
    legs = run_legs(mixed_schedule(2), [("ide", ide_sector_checksum)] * 6,
                    [("ide", churn)] * 6, rounds=2)
    assert legs["io"][1].total_ops > 0
    if "churn" in legs:
        assert legs["churn"][1].writes == 6 * 256 * 3
    stress_leg(3)
    selector = selector_rows(legs, os.cpu_count() or 1)
    assert {row["leg"] for row in selector} == set(legs)
    assert "Selector evidence" in "\n".join(render_selector(selector))


if __name__ == "__main__":
    sys.exit(main())
