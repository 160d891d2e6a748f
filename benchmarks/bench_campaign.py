"""Campaign engine: fleet scaling and verdict-cache incrementality.

Runs one mutation campaign scope cold on both execution substrates
(serial reference, process fleet), asserts the reports are
byte-identical, then times cold serial runs (a fresh verdict cache
each round) against warm re-runs (the reference's cache) in
interleaved rounds of :func:`conftest.time_rounds` — the campaign's
incrementality claim: an unchanged immediate re-run evaluates nothing,
so its median must be at least an order of magnitude faster.

Default scope: all 8 shipped specs, all styles, uniform quick budget —
Table 1 at campaign scale, with the paper's rows emitted as the
projection.  Set DEVIL_MUTATION_QUICK=1 for the CI smoke scope (two
specs, minimal budget), which prints its table but leaves
``results/BENCH_campaign.*`` alone.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time

from conftest import record, time_rounds

from repro.mutation import (
    CampaignConfig,
    MutantCaps,
    VerdictCache,
    format_table,
    run_campaign,
)

#: Cold-vs-warm floor: an unchanged re-run serves every verdict from
#: disk, so its median must beat the cold median by at least this.
WARM_SPEEDUP_FLOOR = 10.0


def _scope() -> tuple[dict, int]:
    """Campaign scope and timed cold/warm rounds (a cold full-scope
    run takes about half a minute, a quick-scope one a second or two)."""
    if os.environ.get("DEVIL_MUTATION_QUICK"):
        return {"specs": ("busmouse", "pic8259"),
                "caps": MutantCaps.quick(2)}, 5
    return {"caps": MutantCaps.quick(8)}, 3  # all 8 specs, all styles


def _timed(config: CampaignConfig, cache: VerdictCache):
    start = time.perf_counter()
    result = run_campaign(config, cache=cache)
    return result, time.perf_counter() - start


def test_campaign_backends_and_cache(benchmark):
    scope, rounds = _scope()
    workers = min(4, os.cpu_count() or 1)
    runs: dict[str, dict] = {}

    with tempfile.TemporaryDirectory() as root:
        serial_cfg = CampaignConfig(backend="serial", **scope)
        warm_cache = VerdictCache(os.path.join(root, "warm"))
        serial = run_campaign(serial_cfg, cache=warm_cache)
        reference = serial.report.to_json()
        runs["serial"] = serial.stats()

        result, elapsed = _timed(
            CampaignConfig(backend="process", workers=workers, **scope),
            VerdictCache(os.path.join(root, "process")))
        assert result.report.to_json() == reference, \
            "process report diverged from serial"
        assert result.salvaged == 0
        runs["process"] = result.stats() | {"elapsed_s": elapsed}

        fresh = itertools.count()
        last: dict = {}

        def cold() -> int:
            cache = VerdictCache(os.path.join(root, f"cold{next(fresh)}"))
            last["cold"] = run_campaign(serial_cfg, cache=cache)
            return last["cold"].units

        def warm() -> int:
            last["warm"] = run_campaign(serial_cfg, cache=warm_cache)
            return last["warm"].units

        stats = benchmark.pedantic(
            time_rounds, args=({"cold": cold, "warm": warm}, rounds),
            rounds=1, iterations=1)
        assert last["cold"].evaluated == serial.units
        assert last["cold"].report.to_json() == reference
        warm_run = last["warm"]
        assert warm_run.evaluated == 0
        assert warm_run.cache_hits == warm_run.units == serial.units
        assert warm_run.report.to_json() == reference
        # Seconds per run, from the rate quartiles (units per second).
        seconds = {side: [serial.units / rate for rate in stats[side]]
                   for side in stats}
        speedup = stats["warm"][1] / stats["cold"][1]
        assert speedup >= WARM_SPEEDUP_FLOOR, \
            (f"warm re-run median only {speedup:.1f}x faster "
             f"({seconds['cold'][1]:.2f}s cold, "
             f"{seconds['warm'][1]:.3f}s warm)")

    lines = [
        f"campaign scope: {len(serial_cfg.specs)} specs, "
        f"budget {serial_cfg.caps.ident}, {serial.units} units",
        f"{'backend':<10} {'workers':>7} {'evaluated':>9} "
        f"{'elapsed_s':>10} {'speedup':>8}",
    ]
    for backend in ("serial", "process"):
        stats_row = runs[backend]
        lines.append(
            f"{backend:<10} "
            f"{stats_row['workers'] if backend != 'serial' else 1:>7} "
            f"{stats_row['evaluated']:>9} "
            f"{stats_row['elapsed_s']:>10.2f} "
            f"{serial.elapsed_s / stats_row['elapsed_s']:>8.2f}")
    lines.append("")
    lines.append(f"cold vs warm serial, median [quartiles] of {rounds} "
                 f"interleaved rounds (fresh cache per cold run):")
    for side in ("cold", "warm"):
        q3, median, q1 = seconds[side]
        lines.append(f"{side:<10} {median:>10.3f} s [{q1:.3f}-{q3:.3f}]")
    lines.append(f"warm speedup (medians): {speedup:.1f}x "
                 f"(floor {WARM_SPEEDUP_FLOOR:.0f}x)")
    lines.append("")
    lines.append("both backends byte-identical; warm re-run "
                 f"served {warm_run.cache_hits}/{warm_run.units} verdicts "
                 "from cache")
    rows = serial.report.table1_rows()
    if rows:
        lines.append("")
        lines.append(format_table(serial.report.table1_device_rows()))

    record("BENCH_campaign", "\n".join(lines), data={
        "scope": serial_cfg.describe(),
        "units": serial.units,
        "runs": runs,
        "rounds": rounds,
        "cold": {"elapsed_s": seconds["cold"][1],
                 "elapsed_s_quartiles": [seconds["cold"][2],
                                         seconds["cold"][0]]},
        "warm": warm_run.stats() | {
            "elapsed_s": seconds["warm"][1],
            "elapsed_s_quartiles": [seconds["warm"][2],
                                    seconds["warm"][0]],
            "speedup_vs_cold": speedup},
        "table1": rows,
    }, quick=bool(os.environ.get("DEVIL_MUTATION_QUICK")))
