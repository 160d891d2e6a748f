"""Campaign engine: fleet scaling and verdict-cache incrementality.

Runs one mutation campaign scope cold on both execution substrates
(serial reference, process fleet), asserts the reports are
byte-identical, then re-runs against the warm verdict
cache and measures the speedup — the campaign's incrementality claim
(an unchanged immediate re-run must be at least an order of magnitude
faster, since it evaluates nothing).

Default scope: all 8 shipped specs, all styles, uniform quick budget —
Table 1 at campaign scale, with the paper's rows emitted as the
projection.  Set DEVIL_MUTATION_QUICK=1 for the CI smoke scope (two
specs, minimal budget).
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import record

from repro.mutation import (
    CampaignConfig,
    MutantCaps,
    VerdictCache,
    format_table,
    run_campaign,
)

#: Cold-vs-warm floor: an unchanged re-run serves every verdict from
#: disk, so it must beat the evaluation run by at least this factor.
WARM_SPEEDUP_FLOOR = 10.0


def _scope() -> dict:
    if os.environ.get("DEVIL_MUTATION_QUICK"):
        return {"specs": ("busmouse", "pic8259"),
                "caps": MutantCaps.quick(2)}
    return {"caps": MutantCaps.quick(8)}  # all 8 specs, all styles


def _timed(config: CampaignConfig, cache: VerdictCache):
    start = time.perf_counter()
    result = run_campaign(config, cache=cache)
    return result, time.perf_counter() - start


def test_campaign_backends_and_cache(benchmark):
    scope = _scope()
    workers = min(4, os.cpu_count() or 1)
    runs: dict[str, dict] = {}

    with tempfile.TemporaryDirectory() as serial_root, \
            tempfile.TemporaryDirectory() as process_root:
        serial_cfg = CampaignConfig(backend="serial", **scope)
        serial = benchmark.pedantic(
            lambda: run_campaign(serial_cfg,
                                 cache=VerdictCache(serial_root)),
            rounds=1, iterations=1)
        reference = serial.report.to_json()
        runs["serial"] = serial.stats()

        result, elapsed = _timed(
            CampaignConfig(backend="process", workers=workers, **scope),
            VerdictCache(process_root))
        assert result.report.to_json() == reference, \
            "process report diverged from serial"
        assert result.salvaged == 0
        runs["process"] = result.stats() | {"elapsed_s": elapsed}

        warm, warm_elapsed = _timed(serial_cfg,
                                    VerdictCache(serial_root))
        assert warm.evaluated == 0
        assert warm.cache_hits == warm.units == serial.units
        assert warm.report.to_json() == reference
        speedup = serial.elapsed_s / warm_elapsed
        assert speedup >= WARM_SPEEDUP_FLOOR, \
            (f"warm re-run only {speedup:.1f}x faster "
             f"({serial.elapsed_s:.2f}s cold, {warm_elapsed:.2f}s warm)")

    lines = [
        f"campaign scope: {len(serial_cfg.specs)} specs, "
        f"budget {serial_cfg.caps.ident}, {serial.units} units",
        f"{'backend':<10} {'workers':>7} {'evaluated':>9} "
        f"{'elapsed_s':>10} {'speedup':>8}",
    ]
    for backend in ("serial", "process"):
        stats = runs[backend]
        lines.append(
            f"{backend:<10} {stats['workers'] if backend != 'serial' else 1:>7} "
            f"{stats['evaluated']:>9} {stats['elapsed_s']:>10.2f} "
            f"{serial.elapsed_s / stats['elapsed_s']:>8.2f}")
    lines.append(
        f"{'warm':<10} {1:>7} {warm.evaluated:>9} "
        f"{warm_elapsed:>10.3f} {speedup:>8.1f}")
    lines.append("")
    lines.append("both backends byte-identical; warm re-run "
                 f"served {warm.cache_hits}/{warm.units} verdicts "
                 "from cache")
    rows = serial.report.table1_rows()
    if rows:
        lines.append("")
        lines.append(format_table(serial.report.table1_device_rows()))

    record("BENCH_campaign", "\n".join(lines), data={
        "scope": serial_cfg.describe(),
        "units": serial.units,
        "runs": runs,
        "warm": warm.stats() | {"elapsed_s": warm_elapsed,
                                "speedup_vs_cold": speedup},
        "table1": rows,
    })
