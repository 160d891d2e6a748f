"""The backend selector: a rule over the fleet's configuration.

``decide()`` reads the policy, the effective worker count, the CPU
count, the resolved strategy and the port latency, and nothing it
would have to measure, so its cases run without a fleet or a clock.
Each row of the committed selector table (``benchmarks/bench_fleet.py``,
``results/BENCH_fleet.txt``) is one case: the rule must pick that
row's measured winner, or either backend where the row is a tie (the
two backends' quartile ranges overlap).  ``Fleet.auto`` must build
the chosen backend and attach the verdict.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import (
    DETERMINISTIC_POLICIES,
    Fleet,
    ProcessFleet,
    decide,
    ide_sector_checksum,
    mixed_schedule,
)

#: ``(leg, strategy, op latency us, workers, measured winner)`` for
#: each row of the committed selector table: 2 CPUs, round-robin.
COMMITTED_TABLE = (
    ("io", "specialize", 20.0, 1, "thread"),
    ("io", "specialize", 20.0, 2, "thread"),
    ("io", "specialize", 20.0, 4, "thread"),
    ("checksum", "specialize", 0.0, 1, "tie"),
    ("checksum", "specialize", 0.0, 2, "process"),
    ("checksum", "specialize", 0.0, 4, "process"),
    ("churn", "native", 0.0, 1, "tie"),
    ("churn", "native", 0.0, 2, "thread"),
    ("churn", "native", 0.0, 4, "thread"),
)


@pytest.mark.parametrize("leg,strategy,latency_us,workers,winner",
                         COMMITTED_TABLE)
def test_decide_picks_the_committed_winner(leg, strategy, latency_us,
                                           workers, winner):
    choice = decide("round-robin", workers, 2, strategy, latency_us)
    assert winner in ("tie", choice.backend), choice.reason


def test_decide_prefers_threads_on_one_cpu():
    choice = decide("round-robin", 4, 1, "specialize", 0.0)
    assert choice.backend == "thread"
    assert "one CPU" in choice.reason


def test_decide_prefers_threads_on_one_worker():
    choice = decide("round-robin", 1, 8, "specialize", 0.0)
    assert choice.backend == "thread"
    assert "one worker" in choice.reason


def test_decide_keeps_run_time_policies_on_threads():
    # The process backend refuses a policy that places at run time.
    choice = decide("least-loaded", 4, 8, "specialize", 0.0)
    assert choice.backend == "thread"
    assert "least-loaded" in choice.reason


def test_decide_picks_processes_for_gil_bound_mixes():
    # No port latency: a Python request holds the GIL throughout.
    for cpu_count in (2, 4, 8):
        for policy in DETERMINISTIC_POLICIES:
            for strategy in ("interpret", "specialize", "generated"):
                choice = decide(policy, 4, cpu_count, strategy, 0.0)
                assert choice.backend == "process", (cpu_count, policy,
                                                     strategy)
                assert choice.cpu_count == cpu_count


@pytest.mark.parametrize("cpu_count", (2, 4, 8))
def test_decide_picks_threads_for_io_bound_mixes(cpu_count):
    # Sleeping port latency releases the GIL; threads overlap it.
    choice = decide("round-robin", 4, cpu_count, "specialize", 0.5)
    assert choice.backend == "thread"
    assert "latency" in choice.reason


@pytest.mark.parametrize("strategy,cpu_count", (("native", 4),
                                                ("specialize", 1)))
def test_decide_keeps_cpu_bound_mixes_on_threads(strategy, cpu_count):
    # The native core releases the GIL; one CPU has nothing to overlap.
    choice = decide("round-robin", 4, cpu_count, strategy, 0.0)
    assert choice.backend == "thread"


# ---------------------------------------------------------------------------
# Fleet.auto: the rule applied to a fleet's own arguments
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
def test_fleet_auto_builds_the_chosen_backend_and_runs():
    schedule = [("ide", ide_sector_checksum)] * 4
    for cpu_count, backend in ((4, ProcessFleet), (1, Fleet)):
        with Fleet.auto(["ide", "ide"], workers=2,
                        cpu_count=cpu_count) as fleet:
            assert type(fleet) is backend
            assert fleet.choice.backend == fleet.backend
            fleet.run(schedule)
            assert fleet.completed() == len(schedule)


@pytest.mark.concurrency
def test_fleet_auto_caps_workers_at_the_device_count():
    with Fleet.auto(["ide"], workers=4, cpu_count=4) as fleet:
        assert fleet.choice.backend == "thread"
        assert "one worker" in fleet.choice.reason


@pytest.mark.concurrency
def test_auto_fleet_forwards_fleet_kwargs():
    schedule = mixed_schedule(2)
    with Fleet.auto(["ide", "permedia2", "ne2000"], workers=2,
                    cpu_count=4, strategy="auto", shadow_cache=True,
                    policy="least-loaded") as fleet:
        assert fleet.backend == "thread"
        assert fleet.strategy == "specialize"  # no native shadow cache
        assert fleet.policy == "least-loaded"
        fleet.run(schedule)
        assert fleet.completed() == len(schedule)


@pytest.mark.concurrency
def test_a_busy_thread_does_not_move_the_pick():
    """Another thread's CPU is no property of the request mix: with a
    Python thread spinning beside it, the sleeping-I/O mix still goes
    to threads."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin, daemon=True)
    spinner.start()
    try:
        with Fleet.auto(["ide", "permedia2", "ne2000"], workers=2,
                        cpu_count=4, op_latency_us=20.0,
                        word_latency_us=0.2) as fleet:
            assert fleet.choice.backend == "thread"
            fleet.run(mixed_schedule(2))
    finally:
        stop.set()
        spinner.join(timeout=5)
    assert not spinner.is_alive()
