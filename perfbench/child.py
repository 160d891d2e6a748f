"""One workload in a fresh interpreter: set it up, then time or trace it.

``run.py`` starts this script once per measurement::

    python3 perfbench/child.py --workload fleet --seed 1 --mode run \\
        --seconds 10 --out .perfbench_out

``--mode setup`` stops after set-up, ``run`` also times the workload,
``traced`` times it with spans around every layer.  The last line of
standard output is one JSON object with the raw and scaled results.
Only the standard library and this directory are imported before the
first kernel sample, so the ``import`` setup step is the program's own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

from common import Context, SetupSteps
from hostref import HostRef, kernel
from spans import Tracer
from stats import InsufficientSamples, percentile
from wl_campaign import Campaign
from wl_drivers import Drivers
from wl_fleet import FleetWorkload

WORKLOADS = {"campaign": Campaign, "drivers": Drivers,
             "fleet": FleetWorkload}


def latency_summary(values_ms: list[float]) -> dict:
    summary = {"p50": percentile(values_ms, 50),
               "p90": percentile(values_ms, 90)}
    try:
        summary["p99"] = percentile(values_ms, 99)
    except InsufficientSamples:
        summary["p99"] = None          # diagnostic only; see README
    return summary


def summarize(out, host, steps, trace_of, workload, peak_rss_mb) -> dict:
    scaled = [host.scale(start, end) * 1e3 for start, end in out.latencies]
    raw = [(end - start) * 1e3 for start, end in out.latencies]
    busy_raw = sum(end - start for start, end in out.busy)
    busy_scaled = sum(host.scale(start, end) for start, end in out.busy)
    ops = len(out.latencies)
    setup = steps.report()
    result = {
        "attempted": ops,
        "failed": out.failed,
        "checks": out.checks,
        "ops_per_s": {"scaled": ops / busy_scaled, "raw": ops / busy_raw},
        "latency_ms": {"scaled": latency_summary(scaled),
                       "raw": latency_summary(raw)},
        "setup": setup,
        "setup_s": {"scaled": sum(s for _, s in setup.values()),
                    "raw": sum(r for r, _ in setup.values())},
        "peak_rss_mb": peak_rss_mb,
        "host": host_guards(host),
        "layer": dict(out.layer),
        "info": out.info,
        "series": {"kernel": host.series(),
                   "latencies": list(out.latencies),
                   "busy": list(out.busy), "latency_ms_scaled": scaled},
    }
    if trace_of is not None:
        trace = trace_of(out)
        result["layer"].update(workload.layer_metrics(
            trace, ops, busy_scaled / busy_raw))
        result["layer"]["trace.accounted_frac"] = trace["accounted_frac"]
        result["trace_spans"] = {"self_s": trace["self"],
                                 "calls": trace["calls"]}
    return result


def host_guards(host) -> dict:
    return {"ref_ms": host.ref_ms(), "drift": host.drift(),
            "gap_busy_frac": host.gap_busy_frac(),
            "samples": len(host.durations)}


def trace_reader(tracer):
    def read(out):
        self_s = tracer.self_times()
        latency = sum(end - start for start, end in out.latencies)
        # Fleet queue wait happens between threads, outside any span.
        unspanned = out.layer.get("engine.queue_wait_s", 0.0)
        return {"self": self_s, "total": tracer.totals(),
                "calls": tracer.calls(), "counts": tracer.counts(),
                "layer": out.layer, "latency_s": latency,
                "accounted_frac": (sum(self_s.values()) + unspanned)
                / latency}
    return read


def pin_to_one_cpu() -> None:
    """Run this interpreter, all its threads included, on one CPU.

    The kernel then samples the CPU the program runs on, and the
    fleet's GIL handoffs stay on that CPU.  Unpinned, cross-CPU wakeups
    under host contention moved fleet throughput by 25% where the
    kernel moved by 10%, which no scaling can undo.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    kernel()                            # warm the kernel's code paths
    host = HostRef()
    host.sample()
    host.sample()
    workload = WORKLOADS[args.workload]()
    tracer = Tracer(workload.roots) if args.mode == "traced" else None
    steps = SetupSteps(host)
    workload.setup(steps, tracer)
    if args.mode == "setup":
        host.sample()
        setup = steps.report()
        print(json.dumps({"setup": setup, "setup_s": {
            "scaled": sum(s for _, s in setup.values()),
            "raw": sum(r for r, _ in setup.values())},
            "host": host_guards(host)}))
        return 0

    workdir = Path(args.out) / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(host=host, seed=args.seed, seconds=args.seconds,
                  tracer=tracer, workdir=workdir)
    try:
        workload.prepare(ctx)
        if tracer is not None:
            tracer.reset()
        origin = host.clock()
        out = workload.run(ctx)
        # Before the harness builds its per-op lists for the report.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024
    finally:
        if hasattr(workload, "close"):
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result = summarize(out, host, steps,
                       trace_reader(tracer) if tracer else None, workload,
                       peak_rss_mb)
    result["errors"] = out.errors
    if tracer is not None:
        path = Path(args.out) / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(path, origin)
        result["chrome_trace"] = str(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
