"""``devilc`` — the Devil compiler command-line front end.

Usage::

    devilc check  SPEC.devil             verify only, report diagnostics
    devilc c      SPEC.devil [-o OUT]    emit the C stub header
    devilc python SPEC.devil [-o OUT]    emit the Python stub module
    devilc compile SPEC.devil --backend c --debug -o FILE
                                         emit any backend to disk
                                         (--shim adds the native
                                         runtime shim, the CPython
                                         extension module a native
                                         bind builds)
    devilc dump   SPEC.devil             print the resolved model
    devilc trace  NAME [--format=...]    replay a shipped driver
                                         workload with telemetry
    devilc fleet  [--devices ide:4 ...]  drive a concurrent device
                                         fleet, report throughput
    devilc top    [--devices ide:4 ...]  live per-worker dashboard of
                                         a running fleet (health,
                                         throughput, latency)
    devilc campaign [--specs ... --backend process]
                                         fleet-scheduled mutation
                                         campaign over the shipped
                                         specs, with cached verdicts
                                         and the Table 1 projection

(``devil`` is installed as an alias of ``devilc``; ``devil trace
busmouse --format=chrome`` is the quick-start of docs/LANGUAGE.md.)

Exit status is 0 on success, 1 when the specification is rejected —
suitable for driver build systems, which is how the paper envisioned
the compiler being used.
"""

from __future__ import annotations

import argparse
import sys

from .compiler import compile_file
from .errors import DevilError
from .model import ResolvedDevice


def _dump_model(model: ResolvedDevice) -> str:
    lines = [f"device {model.name}"]
    for name, param in model.params.items():
        offsets = sorted(param.offset_values())
        lines.append(f"  port {name}: bit[{param.data_width}] @ {offsets}")
    for name, register in model.registers.items():
        direction = "".join((
            "r" if register.readable else "-",
            "w" if register.writable else "-"))
        origin = f" (from {register.constructor}"\
            f"{register.constructor_args})" if register.constructor else ""
        lines.append(f"  register {name}: {register.width} bits, "
                     f"{direction}, mask {register.mask}{origin}")
    for name, variable in model.variables.items():
        flags = []
        if variable.private:
            flags.append("private")
        if variable.memory:
            flags.append("memory")
        if variable.behaviors.volatile:
            flags.append("volatile")
        if variable.behaviors.trigger is not None:
            flags.append("trigger")
        if variable.behaviors.block:
            flags.append("block")
        chunks = " # ".join(
            f"{c.register}[{c.msb}..{c.lsb}]" for c in variable.chunks)
        suffix = f" = {chunks}" if chunks else ""
        flag_text = f" ({', '.join(flags)})" if flags else ""
        lines.append(f"  variable {name}: {variable.type}{flag_text}"
                     f"{suffix}")
    for name, structure in model.structures.items():
        lines.append(f"  structure {name}: {', '.join(structure.members)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="devilc",
        description="Devil IDL compiler (OSDI 2000 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("check", "verify a specification"),
            ("c", "emit the C stub header"),
            ("python", "emit the Python stub module"),
            ("doc", "emit a Markdown datasheet"),
            ("dump", "print the resolved model")):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("spec", help="path to the .devil source")
        if name in ("c", "python", "doc"):
            sub.add_argument("-o", "--output",
                             help="output file (default: stdout)")
        if name == "c":
            sub.add_argument("--prefix",
                             help="stub name prefix (default: device "
                                  "name)")
            sub.add_argument("--debug", action="store_true",
                             help="force DEVIL_DEBUG on")

    compile_cmd = commands.add_parser(
        "compile",
        help="emit a code-generation backend, selected by --backend")
    compile_cmd.add_argument("spec", help="path to the .devil source")
    compile_cmd.add_argument("--backend", default="c",
                             choices=("c", "python", "doc", "pyi"),
                             help="artifact to emit: C stub header "
                                  "(default), Python stub module, "
                                  "Markdown datasheet, or .pyi typing "
                                  "stubs for bound device APIs")
    compile_cmd.add_argument("-o", "--output",
                             help="output file (default: stdout)")
    compile_cmd.add_argument("--prefix",
                             help="C backend: stub name prefix "
                                  "(default: device name)")
    compile_cmd.add_argument("--debug", action="store_true",
                             help="C backend: force DEVIL_DEBUG on")
    compile_cmd.add_argument("--shim", metavar="FILE",
                             help="C backend: also write the native "
                                  "runtime shim (port-table dispatch, "
                                  "accounting, C device models) to FILE; "
                                  "it is the strategy='native' CPython "
                                  "extension module and compiles with "
                                  "the header and the Python headers on "
                                  "its include path")

    trace = commands.add_parser(
        "trace",
        help="replay a shipped driver workload with telemetry on")
    trace.add_argument("spec", metavar="NAME",
                       help="shipped spec name (e.g. busmouse, ide)")
    trace.add_argument("--strategy", default="interpret",
                       choices=("interpret", "specialize", "generated",
                                "native", "all"),
                       help="execution strategy to trace (default: "
                            "interpret; 'native' needs a C compiler; "
                            "'all' runs every strategy back-to-back)")
    trace.add_argument("--format", default="chrome",
                       choices=("jsonl", "chrome", "report", "summary"),
                       help="chrome: Perfetto-loadable trace_event "
                            "JSON (default); jsonl: one span per "
                            "line; report: hot-variables profile; "
                            "summary: one line per strategy")
    trace.add_argument("-o", "--output",
                       help="output file (default: stdout)")
    trace.add_argument("--variable",
                       help="keep only spans of this device variable")
    trace.add_argument("--trace-limit", type=int, default=None,
                       help="bound the bus trace to N entries (ring "
                            "buffer; drops are counted)")
    trace.add_argument("--debug", action="store_true",
                       help="bind the stubs in debug mode")

    fleet = commands.add_parser(
        "fleet",
        help="run a concurrent device fleet and report throughput")
    fleet.add_argument("--devices", nargs="+", default=["ide:2",
                                                        "permedia2:2",
                                                        "ne2000:2"],
                       metavar="SPEC[:COUNT]",
                       help="fleet composition (default: ide:2 "
                            "permedia2:2 ne2000:2); every spec needs "
                            "a shipped workload")
    fleet.add_argument("--backend", default="thread",
                       choices=("thread", "process", "auto"),
                       help="execution substrate: worker threads, "
                            "worker processes each owning a shard of "
                            "the fleet, or 'auto' to pick one from "
                            "the policy, worker and CPU counts, "
                            "strategy and latency (default: thread)")
    fleet.add_argument("--workers", type=int, default=4,
                       help="worker threads or processes (default: 4)")
    fleet.add_argument("--requests", type=int, default=32,
                       help="requests per device spec (default: 32)")
    fleet.add_argument("--policy", default="round-robin",
                       choices=("round-robin", "weighted-round-robin",
                                "least-loaded"),
                       help="dispatch policy (default: round-robin; "
                            "the process backend needs a "
                            "deterministic one)")
    fleet.add_argument("--strategy", default="specialize",
                       choices=("interpret", "specialize", "generated",
                                "native", "auto"),
                       help="execution strategy (default: specialize; "
                            "'native' needs a C compiler, 'auto' "
                            "falls back to specialize without one)")
    fleet.add_argument("--latency-us", type=float, default=20.0,
                       help="sleeping port latency charged per bus op "
                            "(default: 20.0; 0 disables)")
    fleet.add_argument("--word-latency-us", type=float, default=0.2,
                       help="extra latency per block word "
                            "(default: 0.2)")
    fleet.add_argument("--shadow-cache", action="store_true",
                       help="enable the register shadow cache")
    fleet.add_argument("--telemetry", action="store_true",
                       help="attach the live telemetry plane "
                            "(heartbeats, flight recorder, latency "
                            "histograms) and print a health summary")
    fleet.add_argument("--health-log", metavar="PATH",
                       help="write periodic heartbeat/health JSONL "
                            "records to PATH while the fleet runs "
                            "(implies --telemetry)")

    top = commands.add_parser(
        "top",
        help="live per-worker dashboard of a running fleet")
    top.add_argument("--devices", nargs="+", default=["ide:2",
                                                      "permedia2:2",
                                                      "ne2000:2"],
                     metavar="SPEC[:COUNT]",
                     help="fleet composition (default: ide:2 "
                          "permedia2:2 ne2000:2)")
    top.add_argument("--backend", default="thread",
                     choices=("thread", "process"),
                     help="execution substrate (default: thread)")
    top.add_argument("--workers", type=int, default=4,
                     help="worker threads or processes (default: 4)")
    top.add_argument("--requests", type=int, default=16,
                     help="requests per spec per feeder round "
                          "(default: 16)")
    top.add_argument("--policy", default="round-robin",
                     choices=("round-robin", "weighted-round-robin",
                              "least-loaded"),
                     help="dispatch policy (default: round-robin)")
    top.add_argument("--strategy", default="specialize",
                     choices=("interpret", "specialize", "generated",
                              "native", "auto"),
                     help="execution strategy (default: specialize)")
    top.add_argument("--latency-us", type=float, default=20.0,
                     help="sleeping port latency per bus op "
                          "(default: 20.0)")
    top.add_argument("--interval", type=float, default=0.5,
                     help="refresh interval in seconds (default: 0.5)")
    top.add_argument("--duration", type=float, default=10.0,
                     help="run for this many seconds (default: 10)")
    top.add_argument("--once", action="store_true",
                     help="drive one feeder round, render a single "
                          "frame and exit (CI smoke mode)")

    campaign = commands.add_parser(
        "campaign",
        help="run a fleet-scheduled mutation campaign (Table 1 at "
             "scale) with cached verdicts")
    campaign.add_argument("--specs", nargs="+", default=None,
                          metavar="NAME",
                          help="spec subset (default: all 8 shipped "
                               "specs)")
    campaign.add_argument("--styles", nargs="+", default=None,
                          choices=("c", "devil", "cdevil"),
                          help="driver styles to mutate (default: all "
                               "three; c/cdevil exist only for the "
                               "paper's three corpus devices)")
    campaign.add_argument("--budget", type=int, default=8,
                          help="uniform per-kind mutant budget per "
                               "site (default: 8)")
    campaign.add_argument("--full", action="store_true",
                          help="use the full Table 1 budget instead "
                               "(enumerate numbers/operators/bit "
                               "patterns exhaustively, cap "
                               "identifiers)")
    campaign.add_argument("--max-sites", type=int, default=None,
                          metavar="N",
                          help="only the first N sites per target "
                               "(deterministic; disables the exact "
                               "Table 1 projection)")
    campaign.add_argument("--backend", default="serial",
                          choices=("serial", "process"),
                          help="execution substrate (default: serial; "
                               "'process' is what scales this "
                               "CPU-bound workload)")
    campaign.add_argument("--workers", type=int, default=4,
                          help="fleet workers (default: 4)")
    campaign.add_argument("--cache-dir", metavar="PATH",
                          help="verdict cache directory (default: "
                               "$DEVIL_CAMPAIGN_CACHE or "
                               "~/.cache/devil-campaign); re-running "
                               "against a warm cache resumes")
    campaign.add_argument("--no-cache", action="store_true",
                          help="cold run: use a private cache "
                               "discarded on exit")
    campaign.add_argument("--report", default="table",
                          choices=("table", "json", "rows"),
                          help="report rendering: human table "
                               "(default), the full JSON report, or "
                               "just the Table 1 projection rows")
    campaign.add_argument("-o", "--output",
                          help="write the report here (default: "
                               "stdout)")
    campaign.add_argument("--telemetry", action="store_true",
                          help="attach the live telemetry plane to "
                               "fleet backends and print a health "
                               "summary")
    campaign.add_argument("--health-log", metavar="PATH",
                          help="write periodic heartbeat/health JSONL "
                               "records to PATH while the campaign "
                               "runs (implies --telemetry)")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress progress narration on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except BrokenPipeError:
        return 0  # e.g. `devilc dump spec | head`


def _run(arguments) -> int:
    if arguments.command == "trace":
        return _run_trace(arguments)
    if arguments.command == "fleet":
        return _run_fleet(arguments)
    if arguments.command == "top":
        return _run_top(arguments)
    if arguments.command == "campaign":
        return _run_campaign(arguments)
    try:
        spec = compile_file(arguments.spec)
    except DevilError as error:
        print(error, file=sys.stderr)
        return 1
    for warning in spec.warnings:
        print(warning, file=sys.stderr)

    if arguments.command == "check":
        print(f"{arguments.spec}: specification "
              f"{spec.name!r} is consistent "
              f"({len(spec.model.registers)} registers, "
              f"{len(spec.model.variables)} variables, "
              f"{len(spec.warnings)} warning(s))")
        return 0
    if arguments.command == "dump":
        print(_dump_model(spec.model))
        return 0

    if arguments.command == "compile":
        backend = arguments.backend
        if backend == "c":
            text = spec.emit_c(prefix=arguments.prefix,
                               debug=arguments.debug)
        elif backend == "python":
            text = spec.emit_python()
        elif backend == "pyi":
            from .codegen.pyi_backend import generate_pyi
            text = generate_pyi(spec.model)
        else:
            text = spec.emit_doc()
        if arguments.shim:
            if backend != "c":
                print("--shim only applies to --backend c",
                      file=sys.stderr)
                return 1
            from .native import generate_shim
            header_name = (arguments.output
                           and arguments.output.rsplit("/", 1)[-1]) \
                or f"{spec.name}.dil.h"
            with open(arguments.shim, "w", encoding="utf-8") as handle:
                handle.write(generate_shim(spec.model,
                                           prefix=arguments.prefix,
                                           header_name=header_name))
    elif arguments.command == "c":
        text = spec.emit_c(prefix=arguments.prefix,
                           debug=arguments.debug)
    elif arguments.command == "doc":
        text = spec.emit_doc()
    else:
        text = spec.emit_python()
    if getattr(arguments, "output", None):
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _run_trace(arguments) -> int:
    """Replay one shipped driver workload with telemetry attached."""
    import json

    from .. import obs
    from ..obs.workloads import (
        STRATEGIES,
        WORKLOADS,
        bind_stubs,
        build_machine,
    )
    from ..specs import SPEC_NAMES

    name = arguments.spec
    if name not in SPEC_NAMES:
        print(f"unknown shipped spec {name!r}; choose from: "
              f"{', '.join(SPEC_NAMES)}", file=sys.stderr)
        return 1
    strategies = STRATEGIES if arguments.strategy == "all" \
        else (arguments.strategy,)

    collector = obs.Collector()
    for strategy in strategies:
        bus, aux, bases = build_machine(
            name, trace_limit=arguments.trace_limit)
        with obs.observe(bus, collector=collector):
            stubs = bind_stubs(name, strategy, bus, bases,
                               debug=arguments.debug)
            collector.register_ports(name,
                                     getattr(stubs, "_obs_ports", {}))
            WORKLOADS[name](stubs, aux)

    spans = collector.spans
    if arguments.variable:
        spans = [span for span in spans
                 if span.variable == arguments.variable]

    if arguments.format == "jsonl":
        import io
        buffer = io.StringIO()
        obs.to_jsonl(spans, buffer)
        text = buffer.getvalue()
    elif arguments.format == "chrome":
        text = json.dumps(obs.to_chrome_trace(spans), indent=2) + "\n"
    elif arguments.format == "report":
        text = obs.hot_report(spans, collector.metrics) + "\n"
    else:  # summary
        lines = [f"{name}: {len(spans)} spans"]
        for strategy in strategies:
            group = [span for span in spans
                     if span.strategy == strategy]
            io_ops = sum(span.io_ops for span in group)
            words = sum(span.io_words for span in group)
            lines.append(f"  {strategy:<11} {len(group):>4} spans  "
                         f"{io_ops:>5} I/O ops  {words:>6} words")
        dropped = collector.metrics.value("bus.trace_dropped")
        if dropped:
            lines.append(f"  bus trace entries dropped: {dropped}")
        text = "\n".join(lines) + "\n"

    if getattr(arguments, "output", None):
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_devices(items) -> list[str] | None:
    """``["ide:2", ...] -> ["ide", "ide", ...]``; None on a bad item."""
    from ..specs import SPEC_NAMES

    devices: list[str] = []
    for item in items:
        spec, _, count_text = item.partition(":")
        if spec not in SPEC_NAMES:
            print(f"unknown shipped spec {spec!r}; choose from: "
                  f"{', '.join(SPEC_NAMES)}", file=sys.stderr)
            return None
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            print(f"bad device count in {item!r}", file=sys.stderr)
            return None
        devices.extend([spec] * count)
    return devices


def _run_fleet(arguments) -> int:
    """Drive a concurrent fleet of shipped devices; print throughput."""
    import time

    from ..engine import MIXED_REQUESTS, Fleet, ProcessFleet
    from ..obs.workloads import WORKLOADS

    devices = _parse_devices(arguments.devices)
    if devices is None:
        return 1

    specs = sorted(set(devices))
    requests = {spec: MIXED_REQUESTS.get(spec, WORKLOADS[spec])
                for spec in specs}
    schedule = [(spec, requests[spec])
                for _ in range(arguments.requests) for spec in specs]

    telemetry = arguments.telemetry or bool(arguments.health_log)
    common = dict(strategy=arguments.strategy,
                  policy=arguments.policy,
                  workers=arguments.workers,
                  shadow_cache=arguments.shadow_cache,
                  op_latency_us=arguments.latency_us,
                  word_latency_us=arguments.word_latency_us,
                  telemetry=telemetry or None)
    try:
        if arguments.backend == "auto":
            fleet = Fleet.auto(devices, **common)
            choice = fleet.choice
            print(f"auto: picked the {choice.backend} backend — "
                  f"{choice.reason}")
        elif arguments.backend == "process":
            fleet = ProcessFleet(devices, **common)
        else:
            fleet = Fleet(devices, **common)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1
    monitor = None
    if arguments.health_log:
        from ..obs.live import LiveMonitor
        monitor = LiveMonitor(fleet, interval=0.25,
                              log_path=arguments.health_log)
    with fleet:
        if monitor is not None:
            monitor.start()
        try:
            start = time.perf_counter()
            for spec, request in schedule:
                fleet.submit(spec, request)
            fleet.drain()
            elapsed = time.perf_counter() - start
        finally:
            if monitor is not None:
                monitor.stop()
        total = fleet.completed()
        accounting = fleet.accounting
        # fleet.strategy is the *resolved* strategy: "auto" settles to
        # native or specialize at bind time, and that is what ran.
        print(f"fleet: {len(devices)} devices "
              f"({', '.join(arguments.devices)}), "
              f"{arguments.workers} {fleet.backend} workers, "
              f"{arguments.policy}, {fleet.strategy}")
        print(f"  {total} requests in {elapsed * 1e3:.1f} ms "
              f"({total / elapsed:.0f} req/s)")
        print(f"  port ops: total={accounting.total_ops} "
              f"reads={accounting.reads} writes={accounting.writes} "
              f"block_ops={accounting.block_ops} "
              f"block_words={accounting.block_words}")
        for session in fleet.sessions:
            print(f"  {session.label:<12} {session.completed:>6} "
                  f"requests")
        if fleet.telemetry is not None:
            rows = fleet.health_view().check()
            statuses = ", ".join(f"{row.worker}={row.status}"
                                 for row in rows)
            dropped = fleet.telemetry.metrics.value("bus.trace_dropped")
            print(f"  health: {statuses}")
            if dropped:
                print(f"  bus trace entries dropped: {dropped}")
            if arguments.health_log:
                print(f"  health log: {arguments.health_log}")
    return 0


def _run_campaign(arguments) -> int:
    """Run a mutation campaign; report to stdout, narration to stderr."""
    import json

    from ..mutation import CampaignConfig, MutantCaps, VerdictCache, \
        run_campaign
    from ..mutation.registry import STYLES
    from ..mutation.vcache import default_cache_dir
    from ..specs import SPEC_NAMES

    caps = MutantCaps() if arguments.full \
        else MutantCaps.quick(arguments.budget)
    try:
        config = CampaignConfig(
            specs=tuple(arguments.specs or SPEC_NAMES),
            styles=tuple(arguments.styles or STYLES),
            caps=caps, max_sites=arguments.max_sites,
            backend=arguments.backend, workers=arguments.workers)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1

    cache = None
    if not arguments.no_cache:
        root = arguments.cache_dir or default_cache_dir()
        cache = VerdictCache(root)
        if not arguments.quiet:
            print(f"verdict cache: {cache.root}", file=sys.stderr)
    progress = None if arguments.quiet else \
        (lambda message: print(message, file=sys.stderr))
    telemetry = (arguments.telemetry or bool(arguments.health_log)) \
        or None
    try:
        result = run_campaign(config, cache=cache, telemetry=telemetry,
                              health_log=arguments.health_log,
                              progress=progress)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1

    if arguments.report == "json":
        text = result.report.to_json()
    elif arguments.report == "rows":
        text = json.dumps(result.report.table1_rows(), indent=2,
                          sort_keys=True) + "\n"
    else:
        text = result.report.format() + "\n"
    if arguments.output:
        with open(arguments.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    stats = result.stats()
    if not arguments.quiet:
        print(f"campaign: {stats['units']} units, "
              f"{stats['cache_hits']} cache hits, "
              f"{stats['evaluated']} evaluated"
              + (f", {stats['corrupt_recovered']} corrupt recovered"
                 if stats["corrupt_recovered"] else "")
              + (f", {stats['salvaged']} salvaged"
                 if stats["salvaged"] else "")
              + f" in {stats['elapsed_s']:.2f}s "
              f"({stats['backend']}, {stats['workers']} workers)",
              file=sys.stderr)
        if result.placement:
            placed = ", ".join(f"{label}={count}" for label, count
                               in sorted(result.placement.items()))
            print(f"placement: {placed}", file=sys.stderr)
        if arguments.health_log:
            print(f"health log: {arguments.health_log}",
                  file=sys.stderr)
    return 0


def _top_frame(fleet, health, previous, now) -> str:
    """Render one dashboard frame from a health check.

    ``previous`` maps worker -> (completed, timestamp) from the last
    frame and is updated in place; the delta gives per-worker req/s.
    """
    rows = health.check()
    telemetry = fleet.telemetry
    lines = [
        f"devil top — {fleet.backend} backend "
        f"({fleet.strategy}), {len(rows)} workers, "
        f"stall window {health.stall_window():.2f}s",
        f"{'WORKER':<12} {'HEALTH':<8} {'DONE':>8} {'REQ/S':>7} "
        f"{'QUEUE':>5} {'P50us':>8} {'P95us':>8}  INFLIGHT",
    ]
    total_done = 0
    total_rate = 0.0
    for row in rows:
        total_done += row.completed
        prior = previous.get(row.worker)
        if prior is None or now <= prior[1]:
            rate_text = "-"
        else:
            rate = (row.completed - prior[0]) / (now - prior[1])
            total_rate += max(rate, 0.0)
            rate_text = f"{rate:.0f}"
        previous[row.worker] = (row.completed, now)

        def cell(value, fmt="{:.0f}"):
            return "-" if value is None else fmt.format(value)

        inflight = row.inflight or ""
        if row.inflight_age_s is not None:
            inflight += f" ({row.inflight_age_s:.1f}s)"
        lines.append(
            f"{row.worker:<12} {row.status:<8} {row.completed:>8} "
            f"{rate_text:>7} {cell(row.queue_depth):>5} "
            f"{cell(row.latency_p50_us):>8} "
            f"{cell(row.latency_p95_us):>8}  {inflight[:30]}")
    dropped = telemetry.metrics.value("bus.trace_dropped")
    recorder = telemetry.recorder
    lines.append(
        f"total: {total_done} done, {total_rate:.0f} req/s | "
        f"trace dropped: {dropped} | flight events: "
        f"{len(recorder.events())}"
        + (f" (+{recorder.dropped} evicted)" if recorder.dropped else ""))
    return "\n".join(lines) + "\n"


def _run_top(arguments) -> int:
    """Live per-worker dashboard over the fleet telemetry plane."""
    import threading
    import time

    from ..engine import MIXED_REQUESTS, Fleet, ProcessFleet
    from ..obs.workloads import WORKLOADS

    devices = _parse_devices(arguments.devices)
    if devices is None:
        return 1
    specs = sorted(set(devices))
    requests = {spec: MIXED_REQUESTS.get(spec, WORKLOADS[spec])
                for spec in specs}
    schedule = [(spec, requests[spec])
                for _ in range(arguments.requests) for spec in specs]

    fleet_cls = ProcessFleet if arguments.backend == "process" else Fleet
    try:
        fleet = fleet_cls(devices, strategy=arguments.strategy,
                          policy=arguments.policy,
                          workers=arguments.workers,
                          op_latency_us=arguments.latency_us,
                          telemetry=True)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 1

    with fleet:
        health = fleet.health_view()
        previous: dict = {}
        if arguments.once:
            fleet.run(schedule)
            sys.stdout.write(
                _top_frame(fleet, health, previous, time.monotonic()))
            return 0

        stop = threading.Event()
        feeder_errors: list[BaseException] = []

        def feed() -> None:
            # Feed round by round: fleet.run() drains between rounds,
            # which bounds outstanding work on both backends.
            while not stop.is_set():
                try:
                    fleet.run(schedule)
                except BaseException as error:  # surface in the footer
                    feeder_errors.append(error)
                    return

        feeder = threading.Thread(target=feed, name="top-feeder",
                                  daemon=True)
        feeder.start()
        interactive = sys.stdout.isatty()
        deadline = time.monotonic() + arguments.duration
        try:
            while time.monotonic() < deadline and not feeder_errors:
                frame = _top_frame(fleet, health, previous,
                                   time.monotonic())
                if interactive:
                    sys.stdout.write("\x1b[2J\x1b[H" + frame)
                else:
                    sys.stdout.write(frame + "\n")
                sys.stdout.flush()
                time.sleep(arguments.interval)
        except KeyboardInterrupt:
            pass
        finally:
            stop.set()
            feeder.join(timeout=max(arguments.duration, 30.0))
        if feeder_errors:
            print(f"feeder failed: {feeder_errors[0]}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
