"""The repository's benchmark: ``campaign``, ``drivers`` and ``fleet``.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 \\
        --trace 0

``--workload all`` runs the three in turn.  Every workload runs in
fresh interpreters (``child.py``): set-up alone several times, for the
median ``setup_s``, then set-up plus the timed phase.  ``--trace 1``
adds a separate traced interpreter and reports the per-layer metrics
instead of the end-to-end ones.

Host time is reference-scaled (see ``hostref.py``): each printed value
reads as time on a nominal host, with the raw wall-clock value beside
it.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run outputs (the full child results, Chrome traces) land in
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("campaign", "drivers", "fleet")

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_RUNS = 5

#: A run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Largest ``host.gap_busy_frac`` of a correct run: above it, program
#: threads ran during kernel samples and slowed the reference along
#: with the program, so the scaled values cannot be trusted.
GAP_BUSY_MAX = 0.05

#: End-to-end metrics: name -> unit (all reference-scaled host time,
#: except ``peak_rss_mb``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  A run reports
#: every one; a layer its workload does not reach reads 0.
PER_LAYER = {
    "devil.lexer.ms": "ms",
    "devil.lexer.ktok_per_s": "ktok/s",
    "devil.parser.ms": "ms",
    "devil.checker.ms": "ms",
    "minic.lexer.ms": "ms",
    "minic.checker.ms": "ms",
    "mutation.classify_ms": "ms",
    "mutation.vcache.put_ms": "ms",
    "mutation.other_ms": "ms",
    "mutation.mutants": "count",
    "mutation.useful_frac": "ratio",
    "setup.unit_keys_s": "s",
    "setup.targets_s": "s",
    "drivers.stub_calls": "count",
    "devil.runtime.us_per_call": "us",
    "drivers.self_us": "us",
    "bus.ops": "count",
    "bus.block_words": "count",
    "bus.read_us_per_access": "us",
    "bus.write_us_per_access": "us",
    "devices.us_per_access": "us",
    "devices.fifo_full_frac": "ratio",
    "sim_us_per_op": "sim-us",
    "engine.slot_wait_us": "us",
    "engine.queue_wait_us": "us",
    "engine.exec_us": "us",
    "engine.overhead_us": "us",
    "engine.placement_skew": "ratio",
    "devil.specialize.us_per_call": "us",
    "devil.specialize.calls": "count",
    "bus.ts_us_per_access": "us",
    "setup.import_s": "s",
    "setup.compile_s": "s",
    "setup.bind_s": "s",
    "host.ref_ms": "ms",
    "host.drift": "ratio",
    "host.gap_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "diag.op_p99_ms": "ms",
    "diag.op_samples": "count",
    "failed_frac": "ratio",
}


class RunError(RuntimeError):
    """A child interpreter failed; the run prints no result."""


def child(workload: str, seed: int, mode: str, seconds: float,
          deadline: float) -> dict:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--seconds", str(seconds), "--out", str(OUT)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload}/{mode} exceeded the time budget") \
            from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"{workload}/{mode} exited {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    setups = [child(workload, seed, "setup", seconds, deadline)
              for _ in range(SETUP_RUNS - 1)]
    run = child(workload, seed, "run", seconds, deadline)
    setups.append(run)
    run["setup_runs"] = [entry["setup_s"] for entry in setups]
    scaled, raw = run["latency_ms"]["scaled"], run["latency_ms"]["raw"]
    values = {
        "setup_s": (statistics.median(s["setup_s"]["scaled"]
                                      for s in setups),
                    statistics.median(s["setup_s"]["raw"] for s in setups)),
        "ops_per_s": (run["ops_per_s"]["scaled"], run["ops_per_s"]["raw"]),
        "op_p50_ms": (scaled["p50"], raw["p50"]),
        "op_p90_ms": (scaled["p90"], raw["p90"]),
        "peak_rss_mb": (run["peak_rss_mb"], None),
    }
    return {"run": run, "values": values, "gap_busy_frac":
            max(entry["host"]["gap_busy_frac"] for entry in setups)}


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> dict:
    run = child(workload, seed, "run", seconds, deadline)
    traced = child(workload, seed, "traced", seconds, deadline)
    layer = dict.fromkeys(PER_LAYER, 0.0)
    for measured in (run["layer"], traced["layer"]):
        layer.update({key: value for key, value in measured.items()
                      if key in PER_LAYER})
    setup = {name: scaled for name, (_, scaled) in run["setup"].items()}
    for name in ("import", "compile", "bind", "targets", "unit_keys"):
        layer[f"setup.{name}_s"] = setup.get(name, 0.0)
    host = run["host"]
    p99 = run["latency_ms"]["scaled"]["p99"]
    layer.update({
        "host.ref_ms": host["ref_ms"],
        "host.drift": host["drift"],
        "host.gap_busy_frac": host["gap_busy_frac"],
        "trace.overhead_frac":
            1 - traced["ops_per_s"]["scaled"] / run["ops_per_s"]["scaled"],
        "diag.op_p99_ms": p99 if p99 is not None else 0.0,
        "diag.op_samples": run["attempted"],
        "failed_frac": run["failed"] / run["attempted"],
    })
    return {"run": run, "traced": traced, "values":
            {name: (value, None) for name, value in layer.items()},
            "gap_busy_frac": max(host["gap_busy_frac"],
                                 traced["host"]["gap_busy_frac"])}


def report(workload: str, measured: dict, units: dict) -> None:
    run = measured["run"]
    print(f"== {workload}: {run['attempted']} ops, {run['failed']} failed "
          f"(failed_frac {run['failed'] / run['attempted']:.4f})")
    for name, (value, raw) in measured["values"].items():
        beside = f"   (raw {raw:.6g})" if raw is not None else ""
        print(f"  {name:<30} {value:>14.6g} {units[name]:<7}{beside}")
    host = run["host"]
    print(f"  host: ref {host['ref_ms']:.4f} ms, drift "
          f"{host['drift']:.3f}, gap busy {host['gap_busy_frac']:.4f}, "
          f"{host['samples']} kernel samples")
    layer = run["layer"]
    if "sim_us_per_op" in layer:
        print(f"  sim_us_per_op {layer['sim_us_per_op']:.6f} simulated us")
    print(f"  checks: {run['checks']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S * (
        len(WORKLOADS) if args.workload == "all" else 1)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: the program does not compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    measure = per_layer if args.trace else end_to_end
    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads:
        try:
            measured = measure(workload, args.seed, args.seconds, deadline)
        except RunError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        report(workload, measured, units)
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(measured))
        for timed in (measured["run"], measured.get("traced")):
            if timed is not None:
                correct = correct and timed["failed"] == 0 and \
                    all(timed["checks"].values())
                attempted += timed["attempted"]
                failed += timed["failed"]
        if measured["gap_busy_frac"] > GAP_BUSY_MAX:
            print(f"perfbench: {workload}: program threads ran during "
                  f"kernel samples (gap busy "
                  f"{measured['gap_busy_frac']:.4f} > {GAP_BUSY_MAX})",
                  file=sys.stderr)
            correct = False
        prefix = "" if len(workloads) == 1 else f"{workload}."
        for name, (value, _) in measured["values"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
