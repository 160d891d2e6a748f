"""Shared helpers for the benchmark harness.

Every ``bench_table*.py`` file regenerates one table or figure of the
paper.  Heavy experiments run exactly once (``benchmark.pedantic`` with
one round); the reproduced table is printed and also written to
``results/<name>.txt`` — plus a machine-readable ``results/<name>.json``
companion so downstream tooling (CI trend lines, EXPERIMENTS.md
generators) does not have to parse the human-oriented text.

The stub-dispatch, fleet and live-telemetry benchmarks time every
cell through :func:`time_rounds`, so each reports the same statistic:
the median [quartiles] of interleaved rounds.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def environment() -> dict:
    """The machine context a benchmark number is meaningless without.

    Recorded into every ``results/BENCH_*.json`` so a reader can tell
    a 1-CPU CI container's scaling numbers from a real machine's —
    the fleet benchmarks' speedups are functions of ``cpu_count``.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
    }


def record(name: str, content: str, data: object = None,
           quick: bool = False) -> None:
    """Print a reproduced table and, for a full run, persist it under
    results/.

    ``results/<name>.txt`` holds the rendered table; ``<name>.json``
    holds ``{"name", "text", "environment"}`` plus the optional
    structured ``data`` payload (plain dicts/lists/numbers) when the
    caller provides one.  A ``quick`` run (a smoke step's small
    counts) only prints: the committed records stay full-run numbers.
    """
    print(f"\n=== {name}{' (quick run, not recorded)' if quick else ''} ===")
    print(content)
    if quick:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(content + "\n")
    payload: dict[str, object] = {"name": name, "text": content,
                                  "environment": environment()}
    if data is not None:
        payload["data"] = data
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def time_rounds(cells: dict, rounds: int) -> dict:
    """Rates of warmed cells, timed in interleaved rounds.

    ``cells`` maps a name to a zero-argument callable that does one
    round of work and returns how many operations it did.  Every cell
    runs once untimed (start-up, first calls and lazy paths stay out
    of the timer); then each of ``rounds`` rounds times every cell
    once, rotating the order by one from round to round so the slow
    drift of a shared host lands on all cells alike.  Returns ``name
    -> (q1, median, q3)`` of the per-round rates, operations per
    second.
    """
    for cell in cells.values():
        cell()
    names = list(cells)
    rates: dict[str, list[float]] = {name: [] for name in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            start = time.perf_counter()
            operations = cells[name]()
            rates[name].append(operations /
                               (time.perf_counter() - start))
    return {name: tuple(statistics.quantiles(values, n=4,
                                             method="inclusive"))
            for name, values in rates.items()}
