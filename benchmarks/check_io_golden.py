#!/usr/bin/env python
"""Port-I/O-count regression gate.

Every shipped workload (and its transactional variant) has a golden
port-I/O profile checked in under ``results/io_golden.json``: total
operations, reads, writes, block transfers, elided reads and coalesced
writes, with the shadow cache off and on.  The gate recomputes the
profile under **all three** execution strategies, fails if the
strategies disagree with each other (the parity invariant) and fails
if any count drifts from the golden file — a one-operation regression
in any stub is a CI failure, exactly like a perf budget.

A third section pins the **fleet**: single-worker fleet runs of the
mixed benchmark schedule are deterministic (round-robin assignment at
submit time, FIFO drain), so their merged port-op totals are golden
numbers too — a scheduler or thread-safe-bus change that alters what
reaches the wire fails here even if throughput and parity both look
fine.

Run with ``--write`` after an intentional change to re-bless the file.

Usage::

    PYTHONPATH=src python benchmarks/check_io_golden.py [--write]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.engine import Fleet, mixed_schedule
from repro.obs.workloads import (
    STRATEGIES,
    TXN_WORKLOADS,
    WORKLOADS,
    run_txn_workload,
    run_workload,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / \
    "results" / "io_golden.json"

COUNTERS = ("total_ops", "reads", "writes", "block_ops",
            "elided_reads", "coalesced_writes")


def _profile(accounting) -> dict:
    return {counter: getattr(accounting, counter)
            for counter in COUNTERS}


def _native_checkable() -> bool:
    from repro.devil.native import native_available
    return native_available()


def measure() -> dict:
    """The current I/O profile of every workload, parity-checked.

    When a C compiler is present, the ``native`` strategy is
    cross-checked against the same interpreter reference for every
    plain (non-shadow, non-transactional) workload — it never changes
    the pinned numbers, it must merely match them.  The shadow-cache
    and transactional variants are interpreter-family features the
    native binding rejects by design, so they stay three-strategy.
    """
    check_native = _native_checkable()
    table: dict = {"workloads": {}, "txn_workloads": {}}
    suites = (("workloads", WORKLOADS, run_workload),
              ("txn_workloads", TXN_WORKLOADS, run_txn_workload))
    for section, drivers, runner in suites:
        for name in sorted(drivers):
            row: dict = {}
            for label, shadow in (("plain", False), ("shadow", True)):
                strategies = list(STRATEGIES)
                if check_native and section == "workloads" \
                        and not shadow:
                    strategies.append("native")
                profiles = {
                    strategy: _profile(
                        runner(name, strategy, shadow_cache=shadow)[2])
                    for strategy in strategies}
                reference = profiles["interpret"]
                for strategy, profile in profiles.items():
                    if profile != reference:
                        raise SystemExit(
                            f"parity violation: {section}/{name} "
                            f"({label}) {strategy}={profile} "
                            f"interpret={reference}")
                row[label] = reference
            table[section][name] = row
    table["fleet"] = _measure_fleet()
    return table


#: Deterministic fleet pins.  Each case pins the merged port-op
#: profile *and* the request placement (``completed_by_device``) —
#: both are pure functions of submission order under the
#: deterministic policies, so the scheduler itself is under the
#: golden gate: a tie-break or credit-accounting change in
#: round-robin or weighted-round-robin shows up as a placement diff
#: here even when the port totals happen to survive.
FLEET_CASES = {
    "mixed_2x3": {
        "devices": ["ide", "ide", "permedia2", "permedia2",
                    "ne2000", "ne2000"],
        "per_spec": 8,
    },
    "single_ide": {"devices": ["ide"], "per_spec": 6},
    # The smooth weighted round-robin pin: 3:1 credits over two disks
    # must place requests 6:2 — and identically on the process
    # backend (cross-checked below).
    "weighted_ide_3to1": {
        "devices": ["ide", "ide"],
        "per_spec": 8,
        "policy": "weighted-round-robin",
        "weights": {"ide0": 3, "ide1": 1},
    },
}


def _measure_fleet() -> dict:
    """Single-worker fleet profiles, parity-checked across strategies
    and cross-checked against the process backend — and, when a C
    compiler is present, against the native substrate on both
    backends."""
    from repro.engine import ProcessFleet

    section: dict = {}
    for name, case in sorted(FLEET_CASES.items()):
        devices = case["devices"]
        policy = case.get("policy", "round-robin")
        weights = case.get("weights")
        specs = tuple(dict.fromkeys(devices))
        schedule = mixed_schedule(case["per_spec"], specs=specs)
        profiles = {}
        placements = {}
        for strategy in STRATEGIES:
            with Fleet(devices, strategy=strategy, workers=1,
                       policy=policy, weights=weights) as fleet:
                fleet.run(schedule)
                profiles[strategy] = _profile(fleet.accounting)
                placements[strategy] = fleet.completed_by_device()
        reference = profiles["interpret"]
        placement = placements["interpret"]
        for strategy in STRATEGIES:
            if profiles[strategy] != reference \
                    or placements[strategy] != placement:
                raise SystemExit(
                    f"parity violation: fleet/{name} "
                    f"{strategy}={profiles[strategy]}/"
                    f"{placements[strategy]} "
                    f"interpret={reference}/{placement}")
        # The process backend must match the pins too: sharding and
        # the queue transport change where work runs, never what
        # reaches the wire or which device it lands on.
        with ProcessFleet(devices, workers=2, policy=policy,
                          weights=weights) as fleet:
            fleet.run(schedule)
            process_profile = _profile(fleet.accounting)
            process_placement = fleet.completed_by_device()
        if process_profile != reference \
                or process_placement != placement:
            raise SystemExit(
                f"backend divergence: fleet/{name} process backend "
                f"{process_profile}/{process_placement} vs thread "
                f"{reference}/{placement}")
        # The native fleet substrate (C dispatch core, direct-mode
        # batches, C-resident device models) must hit the same pins on
        # both backends.  Like the per-workload native cross-check, it
        # never changes the pinned numbers — it must merely match.
        if _native_checkable():
            for backend, builder in (
                    ("thread", lambda: Fleet(
                        devices, strategy="native", workers=1,
                        policy=policy, weights=weights)),
                    ("process", lambda: ProcessFleet(
                        devices, strategy="native", workers=2,
                        policy=policy, weights=weights))):
                with builder() as fleet:
                    fleet.run(schedule)
                    native_profile = _profile(fleet.accounting)
                    native_placement = fleet.completed_by_device()
                if native_profile != reference \
                        or native_placement != placement:
                    raise SystemExit(
                        f"backend divergence: fleet/{name} native "
                        f"{backend} backend "
                        f"{native_profile}/{native_placement} vs "
                        f"{reference}/{placement}")
        section[name] = {"ports": reference, "completed": placement}
    return section


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="re-bless results/io_golden.json")
    options = parser.parse_args(argv)

    current = measure()
    if options.write:
        GOLDEN.write_text(json.dumps(current, indent=2,
                                     sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0

    golden = json.loads(GOLDEN.read_text())
    failures = []
    for section in ("workloads", "txn_workloads", "fleet"):
        golden_rows = golden.get(section, {})
        current_rows = current.get(section, {})
        for name in sorted(set(golden_rows) | set(current_rows)):
            expected = golden_rows.get(name)
            actual = current_rows.get(name)
            if expected != actual:
                failures.append(
                    f"{section}/{name}:\n"
                    f"  golden:  {json.dumps(expected, sort_keys=True)}\n"
                    f"  current: {json.dumps(actual, sort_keys=True)}")
    if failures:
        print("port-I/O count regression(s):\n" + "\n".join(failures))
        print("\nIf the change is intentional, re-bless with:\n"
              "  PYTHONPATH=src python benchmarks/check_io_golden.py "
              "--write")
        return 1
    total = sum(len(golden[section]) for section in golden)
    native_note = " + native cross-check" if _native_checkable() \
        else " (native skipped: no C compiler)"
    print(f"io golden: {total} workload profiles match "
          f"({len(STRATEGIES)} strategies each{native_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
