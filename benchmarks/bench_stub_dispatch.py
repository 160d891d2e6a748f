"""Stub dispatch cost: interpreted vs specialized vs generated stubs.

The tentpole measurement for bind-time stub specialization
(:mod:`repro.devil.specialize`): partial evaluation folds masks,
shifts, neutral values, enum tables and absolute port addresses into
straight-line closures, so a stub call stops walking the resolved
model.  This bench times calls/sec of representative stubs on the
busmouse, IDE and Permedia2 machines for the three execution flavours:

* ``interpret`` — ``bind(..., strategy="interpret")``, the default
  model-walking runtime;
* ``specialize`` — ``bind(..., strategy="specialize")``, closures
  compiled at bind time;
* ``generated`` — the standalone module from ``emit_python`` (the
  same emitter in module mode: ports relative to the constructor's
  bases, ``debug`` tested at run time) — the only place the module's
  speed is measured.

Each cell is the median of interleaved rounds: every round times the
three flavours back to back on already-bound, warmed devices, rotating
their order from round to round, so slow drift of a shared host lands
on all three alike; the quartiles of the rounds are reported with the
median.

When a C compiler is present a fourth leg times a batched native
``repeat()`` on the busmouse ``get_dx`` loop and enforces the
``NATIVE_FLOOR`` over the specializer; the full native table lives in
``bench_native.py``.

Before timing, every workload is replayed on tracing buses and the
I/O traces and accounting counters of all three flavours must be
identical — speed must not change semantics.  The script asserts the
acceptance floor (specialized ≥ 3x interpreted on the busmouse
``get_dx`` and IDE status workloads, on medians) and records the table
plus a machine-readable payload as
``results/BENCH_stub_dispatch.{txt,json}``.

Runs standalone (``python benchmarks/bench_stub_dispatch.py
[--quick]``, no pytest needed — this is what CI's smoke step does) and
under pytest via :func:`test_stub_dispatch_quick`.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from conftest import record

from repro.bus import Bus
from repro.devices.busmouse import REGION_SIZE as MOUSE_REGION
from repro.devices.busmouse import BusmouseModel
from repro.devices.ide import REGION_SIZE as IDE_REGION
from repro.devices.ide import IdeControlPort, IdeDiskModel
from repro.devices.permedia2 import REGION_SIZE as PM2_REGION
from repro.devices.permedia2 import Permedia2Aperture, Permedia2Model
from repro.specs import compile_shipped

MOUSE_BASE = 0x23C
IDE_BASE = 0x1F0
IDE_CTRL = 0x3F6
PM2_REGS = 0xF000
PM2_FB = 0xF800

STRATEGIES = ("interpret", "specialize", "generated")

#: (workload name, machine, setup, one timed call).  The setup runs
#: once per binding; ``get_dx`` deliberately reads a member of an
#: already-fetched snapshot — the purest dispatch-overhead probe.
WORKLOADS = [
    ("busmouse/get_dx", "busmouse",
     lambda d: d.get_mouse_state(), lambda d: d.get_dx()),
    ("busmouse/get_mouse_state", "busmouse",
     None, lambda d: d.get_mouse_state()),
    ("busmouse/set_config", "busmouse",
     None, lambda d: d.set_config("CONFIGURATION")),
    ("ide/status_poll", "ide",
     None, lambda d: d.get_ide_drq()),
    ("ide/set_sector_count", "ide",
     None, lambda d: d.set_sector_count(1)),
    ("permedia2/get_fifo_space", "permedia2",
     None, lambda d: d.get_fifo_space()),
    ("permedia2/set_rect_width", "permedia2",
     None, lambda d: d.set_rect_width(64)),
]

#: Acceptance floor: specialized must beat interpreted by this factor
#: on the two hot-path workloads (release mode).
SPEEDUP_FLOOR = 3.0
FLOOR_WORKLOADS = ("busmouse/get_dx", "ide/status_poll")

#: Acceptance floor for the fourth strategy: a batched native
#: ``repeat()`` must beat the per-call specializer by this factor on
#: the cache-served busmouse ``get_dx`` loop (release mode).  Only
#: enforced when a C compiler is present; ``bench_native.py`` holds
#: the full native table and the 10x tentpole floor.
NATIVE_FLOOR = 5.0
NATIVE_FLOOR_WORKLOAD = "busmouse/get_dx"


def _machine(name: str, tracing: bool,
             bus_factory=Bus) -> tuple[Bus, dict[str, int]]:
    bus = bus_factory(tracing=tracing)
    if name == "busmouse":
        bus.map_device(MOUSE_BASE, MOUSE_REGION, BusmouseModel(),
                       "busmouse")
        return bus, {"base": MOUSE_BASE}
    if name == "ide":
        disk = IdeDiskModel(total_sectors=16)
        bus.map_device(IDE_BASE, IDE_REGION, disk, "ide")
        bus.map_device(IDE_CTRL, 1, IdeControlPort(disk), "ide-ctrl")
        return bus, {"cmd": IDE_BASE, "data": IDE_BASE,
                     "data32": IDE_BASE, "ctrl": IDE_CTRL}
    if name == "permedia2":
        gpu = Permedia2Model(width=64, height=48)
        bus.map_device(PM2_REGS, PM2_REGION, gpu, "permedia2")
        bus.map_device(PM2_FB, 1, Permedia2Aperture(gpu), "permedia2-fb")
        return bus, {"regs": PM2_REGS, "fb": PM2_FB}
    raise ValueError(f"no machine for {name!r}")


_GENERATED_CLASSES: dict[str, type] = {}


def _generated_class(name: str) -> type:
    cls = _GENERATED_CLASSES.get(name)
    if cls is None:
        spec = compile_shipped(name)
        namespace: dict = {}
        exec(compile(spec.emit_python(), f"<gen:{name}>", "exec"),
             namespace)
        for value in namespace.values():
            if isinstance(value, type) and \
                    value.__name__.endswith("Stubs"):
                cls = value
        assert cls is not None, f"no stub class generated for {name}"
        _GENERATED_CLASSES[name] = cls
    return cls


def _bind(name: str, strategy: str, bus: Bus, bases: dict[str, int],
          debug: bool):
    spec = compile_shipped(name)
    if strategy == "generated":
        cls = _generated_class(name)
        return cls(bus, *[bases[param] for param in spec.model.params],
                   debug=debug)
    return spec.bind(bus, bases, debug=debug, strategy=strategy)


def _check_parity(workload, debug: bool, calls: int = 8) -> None:
    """Replay ``workload`` on tracing buses; all flavours must issue a
    byte-identical I/O trace with identical accounting."""
    name, machine, setup, op = workload
    observed = {}
    for strategy in STRATEGIES:
        bus, bases = _machine(machine, tracing=True)
        device = _bind(machine, strategy, bus, bases, debug)
        if setup is not None:
            setup(device)
        for _ in range(calls):
            op(device)
        observed[strategy] = (list(bus.trace),
                              bus.accounting.snapshot())
    reference = observed["interpret"]
    for strategy in ("specialize", "generated"):
        assert observed[strategy] == reference, \
            f"{name} (debug={debug}): {strategy} diverged from " \
            f"the interpreter"


def _bound_op(workload, strategy: str, debug: bool):
    """A warmed, untraced device of ``strategy`` and its timed call."""
    _, machine, setup, op = workload
    bus, bases = _machine(machine, tracing=False)
    device = _bind(machine, strategy, bus, bases, debug)
    if setup is not None:
        setup(device)
    op(device)  # warm caches and lazy paths outside the timed loop
    return lambda: op(device)


def _time_calls(call, iterations: int) -> float:
    """Calls/sec of one timed round of ``iterations`` calls."""
    start = time.perf_counter()
    for _ in range(iterations):
        call()
    return iterations / (time.perf_counter() - start)


def _interleaved(calls: dict, iterations: int, rounds: int) -> dict:
    """Time every flavour once per round, rotating the order; returns
    ``(q1, median, q3)`` of each flavour's per-round rates."""
    names = list(calls)
    rates: dict[str, list[float]] = {name: [] for name in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            rates[name].append(_time_calls(calls[name], iterations))
    return {name: statistics.quantiles(values, n=4, method="inclusive")
            for name, values in rates.items()}


def _cell(row: dict, strategy: str) -> str:
    """``median [q1-q3]`` in thousands of calls/sec."""
    q1, q3 = row["quartiles"][strategy]
    median = row["calls_per_sec"][strategy]
    return f"{median / 1e3:,.0f}k [{q1 / 1e3:,.0f}-{q3 / 1e3:,.0f}]"


def run_bench(quick: bool = False, iterations: int | None = None,
              repeats: int | None = None) -> dict:
    iterations = iterations or (1000 if quick else 10000)
    rounds = repeats or 7

    rows = []
    for workload in WORKLOADS:
        name = workload[0]
        for debug in (False, True):
            _check_parity(workload, debug)
            stats = _interleaved(
                {strategy: _bound_op(workload, strategy, debug)
                 for strategy in STRATEGIES}, iterations, rounds)
            rates = {strategy: stats[strategy][1]
                     for strategy in STRATEGIES}
            rows.append({
                "workload": name,
                "debug": debug,
                "calls_per_sec": rates,
                "quartiles": {strategy: [stats[strategy][0],
                                         stats[strategy][2]]
                              for strategy in STRATEGIES},
                "speedup_specialize": rates["specialize"] /
                rates["interpret"],
                "speedup_generated": rates["generated"] /
                rates["interpret"],
                "parity": True,
            })

    width = 21
    lines = [
        "Stub dispatch, calls/sec: median [quartiles] of "
        f"{rounds} interleaved rounds x {iterations} calls, order "
        "rotated per round; identical I/O traces verified first:",
        "",
        f"{'workload':<26} {'mode':<8} {'interpret':>{width}} "
        f"{'specialize':>{width}} {'generated':>{width}} {'spec/int':>9}",
    ]
    for row in rows:
        cells = " ".join(f"{_cell(row, strategy):>{width}}"
                         for strategy in STRATEGIES)
        lines.append(
            f"{row['workload']:<26} "
            f"{'debug' if row['debug'] else 'release':<8} {cells} "
            f"{row['speedup_specialize']:>8.1f}x")
    report = {"quick": quick, "iterations": iterations,
              "rounds": rounds, "speedup_floor": SPEEDUP_FLOOR,
              "rows": rows}

    native_row = _native_batched_row(rows, iterations, rounds)
    if native_row is not None:
        report["native_batched"] = native_row
        lines += [
            "",
            f"native batched {NATIVE_FLOOR_WORKLOAD} (release): "
            f"{native_row['calls_per_sec']:,.0f} calls/s = "
            f"{native_row['speedup_vs_specialize']:.1f}x specialize "
            f"(floor {NATIVE_FLOOR}x)",
        ]
    else:
        lines += ["", "native batched: skipped (no C compiler)"]
    record("BENCH_stub_dispatch", "\n".join(lines), data=report)

    for row in rows:
        if row["workload"] in FLOOR_WORKLOADS and not row["debug"]:
            assert row["speedup_specialize"] >= SPEEDUP_FLOOR, \
                f"{row['workload']}: specialized only " \
                f"{row['speedup_specialize']:.2f}x interpreted " \
                f"(floor {SPEEDUP_FLOOR}x)"
    if native_row is not None:
        assert native_row["speedup_vs_specialize"] >= NATIVE_FLOOR, \
            f"{NATIVE_FLOOR_WORKLOAD}: batched native only " \
            f"{native_row['speedup_vs_specialize']:.2f}x the " \
            f"specializer (floor {NATIVE_FLOOR}x)"
    return report


def _native_batched_row(rows: list[dict], iterations: int,
                        rounds: int) -> dict | None:
    """Time one batched native ``repeat()`` leg (median of ``rounds``)
    against the release specializer median already measured, or None
    without a compiler."""
    from repro.devil.native import native_available

    if not native_available():
        return None
    workload = next(w for w in WORKLOADS
                    if w[0] == NATIVE_FLOOR_WORKLOAD)
    _, machine, setup, _op = workload
    bus, bases = _machine(machine, tracing=False)
    device = _bind(machine, "native", bus, bases, debug=False)
    if setup is not None:
        setup(device)
    device.repeat("get_dx", 16)  # warm the direct-mode port table
    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        device.repeat("get_dx", iterations)
        rates.append(iterations / (time.perf_counter() - start))
    rate = statistics.median(rates)
    specialize_rate = next(
        row["calls_per_sec"]["specialize"] for row in rows
        if row["workload"] == NATIVE_FLOOR_WORKLOAD
        and not row["debug"])
    return {"workload": NATIVE_FLOOR_WORKLOAD, "debug": False,
            "calls_per_sec": rate,
            "speedup_vs_specialize": rate / specialize_rate,
            "floor": NATIVE_FLOOR}


def test_stub_dispatch_quick():
    """Pytest entry point: the quick smoke run (parity + floor)."""
    run_bench(quick=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke run)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="timed calls per measurement")
    parser.add_argument("--repeats", type=int, default=None,
                        help="interleaved measurement rounds (median "
                             "and quartiles are reported; default 7)")
    options = parser.parse_args(argv)
    run_bench(quick=options.quick, iterations=options.iterations,
              repeats=options.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
