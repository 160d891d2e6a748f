"""Telemetry overhead: disabled, enabled-detached, enabled-collecting.

The :mod:`repro.obs` design promise is *bind-time gating*: instances
bound while telemetry is disabled get exactly the stubs an
uninstrumented build would produce, and the bus's ``collector`` hook
rides the existing ``tracing`` gate, so an untraced bus checks exactly
the one flag it always did — observability must be nearly free until
it is asked for.  This bench quantifies the full
ladder on the stub-dispatch workloads of
``benchmarks/bench_stub_dispatch.py``:

* ``off``        — telemetry disabled at bind time (the default);
* ``on-detached`` — instrumented stubs, no collector attached: the
  per-call cost is one ``bus.collector`` load per public stub call;
* ``on-collecting`` — a live :class:`repro.obs.Collector` receiving
  spans, actions and I/O events (bus tracing on, ring-buffered, since
  port attribution rides the trace hook).

Two guards:

* always: an interleaved A/B — the same telemetry-off stubs driven
  against the real :class:`repro.bus.Bus` and against a bus with the
  telemetry hot-path additions (the per-access ``collector`` check)
  removed — must show <5% cost per hot workload, on the medians of
  :func:`conftest.time_rounds`.  Interleaving the two timed loops in
  one process makes the comparison immune to the machine drift that
  plagues cross-run rate comparisons;
* always: the PR acceptance floor of bind-time specialization
  (specialized ≥ 3x interpreted on the hot workloads) must still hold
  with telemetry code in the tree and **off** — the repository's
  standing regression bound;
* ``--strict``: additionally compare ``off`` rates against the
  committed ``results/BENCH_stub_dispatch.json`` baseline (recorded
  for inspection in all modes; only meaningful on the machine and
  session that recorded the baseline, hence not asserted by default).

A full run records ``results/BENCH_obs_overhead.{txt,json}`` (a
``--quick`` run only prints).

The **fleet leg** (``--fleet-only`` / skipped with ``--no-fleet``)
extends the ladder to the live telemetry plane: the same
latency-model mixed workload driven through a thread fleet and a
process fleet with ``telemetry=`` off and on, timed in interleaved
rounds in one process.  Enabled overhead of the median on the thread
backend is asserted ≤5% (heartbeats, the flight recorder and latency
histograms live at request boundaries, off the port-I/O path).
A full run records ``results/BENCH_obs_live.{txt,json}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench_stub_dispatch import (
    FLOOR_WORKLOADS,
    SPEEDUP_FLOOR,
    STRATEGIES,
    WORKLOADS,
    _machine,
)
from conftest import RESULTS_DIR, record, time_rounds

from repro import obs
from repro.bus import Bus, IoTraceEntry
from repro.obs.workloads import bind_stubs

CONFIGS = ("off", "on-detached", "on-collecting")

#: Disabled telemetry must cost at most this fraction (A/B assert;
#: also the --strict bound against the committed baseline).
OFF_OVERHEAD_BOUND = 0.05


class _BareBus(Bus):
    """The pre-telemetry Bus hot path, reproduced exactly.

    ``read``/``write`` carry the original bodies: inline trace append,
    no ring-buffer accounting, no ``collector`` hook.  Binding
    identical telemetry-off stubs to a ``Bus`` and a ``_BareBus`` and
    timing them interleaved measures exactly what the disabled-mode
    instrumentation costs, immune to cross-run machine drift.
    """

    def read(self, port: int, width: int = 8) -> int:
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise ValueError(f"unsupported access width {width}")
        value = mapping.device.io_read(port - mapping.base, width)
        value &= (1 << width) - 1
        accounting = self.accounting
        accounting.reads += 1
        by_width = accounting.single_by_width
        by_width[width] = by_width.get(width, 0) + 1
        if self.tracing:
            self.trace.append(IoTraceEntry("r", port, value, width))
        return value

    def write(self, value: int, port: int, width: int = 8) -> None:
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise ValueError(f"unsupported access width {width}")
        value &= (1 << width) - 1
        mapping.device.io_write(port - mapping.base, value, width)
        accounting = self.accounting
        accounting.writes += 1
        by_width = accounting.single_by_width
        by_width[width] = by_width.get(width, 0) + 1
        if self.tracing:
            self.trace.append(IoTraceEntry("w", port, value, width))


def _bind_config(machine: str, strategy: str, bus, bases,
                 config: str):
    """Bind under one telemetry configuration; returns the instance."""
    if config == "off":
        obs.disable()
        return bind_stubs(machine, strategy, bus, bases, debug=False)
    obs.enable()
    try:
        device = bind_stubs(machine, strategy, bus, bases, debug=False)
    finally:
        obs.disable()
    if config == "on-collecting":
        collector = obs.Collector()
        collector.register_ports(machine,
                                 getattr(device, "_obs_ports", {}))
        bus.collector = collector
        device._bench_collector = collector
    return device


def _ladder_cell(workload, strategy: str, config: str,
                 iterations: int):
    """One ladder configuration as a :func:`time_rounds` cell."""
    _, machine, setup, stub, args = workload
    if config == "on-collecting":
        # Port attribution rides the trace hook; a bounded ring keeps
        # the trace from growing for the duration of the timed loops.
        bus, bases = _machine(
            machine, tracing=True,
            bus_factory=lambda tracing: Bus(tracing=True,
                                            trace_limit=4096))
    else:
        bus, bases = _machine(machine, tracing=False)
    device = _bind_config(machine, strategy, bus, bases, config)
    collector = getattr(device, "_bench_collector", None)
    if setup is not None:
        setup(device)
    call = getattr(device, stub)

    def cell() -> int:
        if collector is not None:
            collector.clear()  # keep span accumulation out of memory
        for _ in range(iterations):
            call(*args)
        return iterations

    return cell


def _ladder_rates(workload, strategy: str, iterations: int,
                  rounds: int) -> dict[str, float]:
    """``config -> median calls/sec``, the configs timed interleaved."""
    stats = time_rounds({config: _ladder_cell(workload, strategy, config,
                                              iterations)
                         for config in CONFIGS}, rounds)
    return {config: stats[config][1] for config in CONFIGS}


def _ab_overhead(workload, strategy: str, iterations: int,
                 rounds: int) -> float:
    """Cost of disabled telemetry, measured interleaved in-process.

    Returns ``bare_rate / bus_rate - 1`` on the medians of
    :func:`time_rounds`: the fractional slowdown the telemetry-off
    configuration shows against a bus without the telemetry hot path.
    """
    _, machine, setup, stub, args = workload
    obs.disable()
    calls = []
    for factory in (Bus, _BareBus):
        bus, bases = _machine(machine, tracing=False,
                              bus_factory=factory)
        device = bind_stubs(machine, strategy, bus, bases, debug=False)
        if setup is not None:
            setup(device)
        call = getattr(device, stub)
        call(*args)
        calls.append(call)
    # Calibrate so each timed chunk runs >=20ms: sub-millisecond chunks
    # are dominated by scheduler jitter, not the code under test.
    while True:
        start = time.perf_counter()
        for _ in range(iterations):
            calls[0](*args)
        if time.perf_counter() - start >= 0.02:
            break
        iterations *= 2

    def chunk(call):
        def cell() -> int:
            for _ in range(iterations):
                call(*args)
            return iterations
        return cell

    # At least 15 alternating rounds per side: noise bursts on shared
    # machines outlast a handful of chunks.
    stats = time_rounds({"bus": chunk(calls[0]), "bare": chunk(calls[1])},
                        max(rounds, 15))
    return stats["bare"][1] / stats["bus"][1] - 1.0


def _committed_baseline() -> dict[str, dict[str, float]]:
    """release-mode rates from results/BENCH_stub_dispatch.json."""
    path = RESULTS_DIR / "BENCH_stub_dispatch.json"
    if not path.exists():
        return {}
    payload = json.loads(path.read_text())
    baseline: dict[str, dict[str, float]] = {}
    for row in payload.get("data", {}).get("rows", []):
        if not row["debug"]:
            baseline[row["workload"]] = row["calls_per_sec"]
    return baseline


def run_bench(quick: bool = False, strict: bool = False,
              iterations: int | None = None,
              rounds: int | None = None) -> dict:
    iterations = iterations or (1000 if quick else 10000)
    rounds = rounds or (3 if quick else 5)
    baseline = _committed_baseline()

    rows = []
    for workload in WORKLOADS:
        name = workload[0]
        for strategy in STRATEGIES:
            rates = _ladder_rates(workload, strategy, iterations, rounds)
            row = {
                "workload": name,
                "strategy": strategy,
                "calls_per_sec": rates,
                "overhead_on_detached":
                    rates["off"] / rates["on-detached"] - 1.0,
                "overhead_on_collecting":
                    rates["off"] / rates["on-collecting"] - 1.0,
            }
            reference = baseline.get(name, {}).get(strategy)
            if reference:
                row["baseline_calls_per_sec"] = reference
                row["overhead_off_vs_baseline"] = \
                    reference / rates["off"] - 1.0
            row["ab_overhead_off"] = _ab_overhead(
                workload, strategy, max(iterations, 1000), rounds)
            rows.append(row)

    lines = [
        "Telemetry overhead, calls/sec (median of "
        f"{rounds} interleaved rounds x {iterations} calls; release "
        "mode):",
        "",
        f"{'workload':<26} {'strategy':<11} {'off':>11} "
        f"{'on-detached':>12} {'on-collect':>11} {'det%':>6} "
        f"{'col%':>6} {'offA/B%':>8} {'vs-base%':>9}",
    ]
    for row in rows:
        rates = row["calls_per_sec"]
        base = row.get("overhead_off_vs_baseline")
        base_text = f"{100 * base:>8.1f}%" if base is not None \
            else f"{'n/a':>9}"
        lines.append(
            f"{row['workload']:<26} {row['strategy']:<11} "
            f"{rates['off']:>11,.0f} {rates['on-detached']:>12,.0f} "
            f"{rates['on-collecting']:>11,.0f} "
            f"{100 * row['overhead_on_detached']:>5.1f}% "
            f"{100 * row['overhead_on_collecting']:>5.1f}% "
            f"{100 * row['ab_overhead_off']:>7.1f}% "
            f"{base_text}")
    lines += [
        "",
        "off = telemetry disabled at bind (the default); det%/col% = "
        "slowdown of the",
        "instrumented configurations relative to off; offA/B% = "
        "slowdown of off vs a",
        "bus without the telemetry hot path, interleaved in-process "
        "(the asserted",
        "<5% bound); vs-base% = off vs the committed "
        "BENCH_stub_dispatch baseline",
        "(cross-run, informational; asserted only under --strict).",
    ]

    report = {"quick": quick, "iterations": iterations,
              "rounds": rounds, "strict": strict,
              "off_overhead_bound": OFF_OVERHEAD_BOUND, "rows": rows}
    record("BENCH_obs_overhead", "\n".join(lines), data=report,
           quick=quick)

    # Disabled telemetry must be nearly free (the interleaved A/B
    # isolates exactly the added hot-path code).
    for row in rows:
        assert row["ab_overhead_off"] <= OFF_OVERHEAD_BOUND, \
            f"{row['workload']}/{row['strategy']}: disabled telemetry " \
            f"costs {100 * row['ab_overhead_off']:.1f}% vs the bare " \
            f"bus (bound {100 * OFF_OVERHEAD_BOUND:.0f}%)"

    # Standing guard: the specialization acceptance floor must hold
    # with telemetry machinery present but off.
    off_rates = {(row["workload"], row["strategy"]):
                 row["calls_per_sec"]["off"] for row in rows}
    for name in FLOOR_WORKLOADS:
        speedup = off_rates[(name, "specialize")] / \
            off_rates[(name, "interpret")]
        assert speedup >= SPEEDUP_FLOOR, \
            f"{name}: specialized only {speedup:.2f}x interpreted " \
            f"with telemetry off (floor {SPEEDUP_FLOOR}x)"

    if strict:
        assert baseline, "no committed BENCH_stub_dispatch baseline"
        for row in rows:
            overhead = row.get("overhead_off_vs_baseline")
            if overhead is None:
                continue
            assert overhead <= OFF_OVERHEAD_BOUND, \
                f"{row['workload']}/{row['strategy']}: disabled " \
                f"telemetry costs {100 * overhead:.1f}% vs the " \
                f"committed baseline " \
                f"(bound {100 * OFF_OVERHEAD_BOUND:.0f}%)"
    return report


def test_obs_overhead_quick():
    """Pytest entry point: quick smoke (floor with telemetry off)."""
    run_bench(quick=True)


# ---------------------------------------------------------------------------
# The fleet leg: live-plane enabled overhead on both backends
# ---------------------------------------------------------------------------

#: Enabled live telemetry (heartbeats + histograms + flight recorder)
#: must cost at most this fraction of thread-fleet throughput.
FLEET_OVERHEAD_BOUND = 0.05

FLEET_DEVICES = ("ide", "permedia2", "ne2000")


def _fleet_rates(backend: str, schedule, rounds: int,
                 workers: int = 2) -> dict:
    """Requests/sec with ``telemetry=`` off and on, interleaved.

    Both fleets live for the whole measurement and are timed by
    :func:`conftest.time_rounds` (each round runs the full schedule,
    submit + drain, on both sides, alternating which goes first);
    returns ``side -> (q1, median, q3)``.
    """
    from repro.engine import Fleet, ProcessFleet

    fleet_cls = ProcessFleet if backend == "process" else Fleet
    kwargs = dict(workers=workers, policy="round-robin",
                  op_latency_us=20.0, word_latency_us=0.2)
    fleets = {"off": fleet_cls(list(FLEET_DEVICES), **kwargs),
              "on": fleet_cls(list(FLEET_DEVICES), telemetry=True,
                              **kwargs)}
    try:
        stats = time_rounds({side: functools.partial(fleet.run, schedule)
                             for side, fleet in fleets.items()}, rounds)
        # The enabled plane must actually have been alive, not elided.
        telemetry = fleets["on"].telemetry
        assert telemetry.observed_p95_us() > 0.0
        assert fleets["on"].health_view().statuses()
    finally:
        for fleet in fleets.values():
            fleet.shutdown()
    return stats


def run_fleet_bench(quick: bool = False,
                    requests_per_spec: int | None = None,
                    rounds: int | None = None) -> dict:
    """The live-plane leg; records ``results/BENCH_obs_live``."""
    from repro.engine import mixed_schedule

    requests_per_spec = requests_per_spec or (8 if quick else 32)
    rounds = rounds or (9 if quick else 15)
    schedule = mixed_schedule(requests_per_spec)

    rows = []
    for backend in ("thread", "process"):
        stats = _fleet_rates(backend, schedule, rounds)
        rates = {side: stats[side][1] for side in stats}
        rows.append({
            "backend": backend,
            "requests": len(schedule),
            "rounds": rounds,
            "req_per_sec": rates,
            "quartiles": {side: [stats[side][0], stats[side][2]]
                          for side in stats},
            "overhead_enabled": rates["off"] / rates["on"] - 1.0,
        })

    lines = [
        "Live fleet telemetry overhead, req/s: median [quartiles] of "
        f"{rounds} interleaved rounds x {len(schedule)} latency-model "
        "requests, 2 workers:",
        "",
        f"{'backend':<10} {'telemetry off':>20} {'telemetry on':>20} "
        f"{'enabled%':>9}",
    ]
    for row in rows:
        cells = [f"{row['req_per_sec'][side]:,.0f} "
                 f"[{row['quartiles'][side][0]:,.0f}-"
                 f"{row['quartiles'][side][1]:,.0f}]"
                 for side in ("off", "on")]
        lines.append(f"{row['backend']:<10} {cells[0]:>20} "
                     f"{cells[1]:>20} "
                     f"{100 * row['overhead_enabled']:>8.1f}%")
    lines += [
        "",
        "enabled% = slowdown of the median with the live plane attached "
        "(heartbeats,",
        "request-latency histograms, flight recorder); the thread "
        f"backend is asserted <= {100 * FLEET_OVERHEAD_BOUND:.0f}%",
        "(the process backend's number is informational — its "
        "heartbeats cross shared",
        "memory and ride worker-side request execution).",
    ]

    report = {"quick": quick, "requests": len(schedule),
              "rounds": rounds,
              "fleet_overhead_bound": FLEET_OVERHEAD_BOUND,
              "rows": rows}
    record("BENCH_obs_live", "\n".join(lines), data=report,
           quick=quick)

    for row in rows:
        if row["backend"] == "thread":
            assert row["overhead_enabled"] <= FLEET_OVERHEAD_BOUND, \
                f"thread fleet: enabled live telemetry costs " \
                f"{100 * row['overhead_enabled']:.1f}% " \
                f"(bound {100 * FLEET_OVERHEAD_BOUND:.0f}%)"
    return report


@pytest.mark.concurrency
def test_obs_live_fleet_quick():
    """Pytest entry point: quick fleet leg (concurrency job)."""
    run_fleet_bench(quick=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke run)")
    parser.add_argument("--strict", action="store_true",
                        help="also assert the <5%% disabled-overhead "
                             "bound against the committed baseline "
                             "(same-machine runs only)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="timed calls per measurement")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed rounds per measurement (the median "
                             "is kept)")
    parser.add_argument("--no-fleet", action="store_true",
                        help="skip the live fleet telemetry leg "
                             "(fast CI tier)")
    parser.add_argument("--fleet-only", action="store_true",
                        help="run only the live fleet telemetry leg "
                             "(CI concurrency job)")
    options = parser.parse_args(argv)
    if options.no_fleet and options.fleet_only:
        parser.error("--no-fleet and --fleet-only are exclusive")
    if not options.fleet_only:
        run_bench(quick=options.quick, strict=options.strict,
                  iterations=options.iterations,
                  rounds=options.repeats)
    if not options.no_fleet:
        run_fleet_bench(quick=options.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
