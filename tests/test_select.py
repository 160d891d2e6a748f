"""The adaptive backend selector: calibration, decision, wiring.

The selector's claims are testable without trusting wall-clock
absolutes: calibration must profile each distinct request kind once
(weighted by schedule frequency), the decision function is pure given
profiles and a CPU count, and ``Fleet.auto`` must return a working
fleet of the chosen backend with the verdict attached.
"""

from __future__ import annotations

import functools

import pytest

from repro.engine import (
    Fleet,
    KindProfile,
    ProcessFleet,
    auto_fleet,
    calibrate,
    decide,
    ide_sector_checksum,
    ide_sector_read,
    ide_sector_read_lba,
    mixed_schedule,
)
from repro.engine.select import CPU_BOUND_THRESHOLD

pytestmark = pytest.mark.concurrency


def _profile(wall_us: float, cpu_us: float, count: int = 1,
             spec: str = "ide") -> KindProfile:
    return KindProfile(spec=spec, request="synthetic", count=count,
                       wall_s=wall_us * 1e-6, cpu_s=cpu_us * 1e-6)


# ---------------------------------------------------------------------------
# decide: pure given profiles + cpu_count
# ---------------------------------------------------------------------------


def test_decide_prefers_threads_on_one_cpu():
    choice = decide([_profile(2000, 2000)], cpu_count=1)
    assert choice.backend == "thread"
    assert "1 CPU" in choice.reason


def test_decide_picks_processes_for_gil_bound_mixes():
    for cpu_count in (2, 4, 8):
        choice = decide([_profile(2000, 1900)], cpu_count=cpu_count)
        assert choice.backend == "process", cpu_count
        assert choice.cpu_fraction >= CPU_BOUND_THRESHOLD


@pytest.mark.parametrize("cpu_count", (2, 4, 8))
def test_decide_picks_threads_for_io_bound_mixes(cpu_count):
    # 500µs sleeping requests: threads overlap the I/O; no process
    # transport beat them on any measured I/O mix.
    choice = decide([_profile(500, 50)], cpu_count=cpu_count)
    assert choice.backend == "thread"
    assert choice.cpu_fraction < CPU_BOUND_THRESHOLD
    assert "I/O-bound" in choice.reason


@pytest.mark.parametrize("strategy,cpu_count", (("native", 4),
                                                ("specialize", 1)))
def test_decide_keeps_cpu_bound_mixes_on_threads(strategy, cpu_count):
    # The native core releases the GIL; one CPU has nothing to overlap.
    choice = decide([_profile(2000, 1900)], cpu_count=cpu_count,
                    strategy=strategy)
    assert choice.cpu_fraction >= CPU_BOUND_THRESHOLD
    assert choice.backend == "thread"


def test_decide_weights_kinds_by_schedule_frequency():
    # One rare CPU hog vs many cheap I/O polls: frequency decides.
    profiles = [_profile(2000, 2000, count=1),
                _profile(2000, 100, count=99)]
    io_heavy = decide(profiles, cpu_count=4)
    assert io_heavy.cpu_fraction < CPU_BOUND_THRESHOLD
    assert io_heavy.backend == "thread"
    cpu_heavy = decide([_profile(2000, 2000, count=99),
                        _profile(2000, 100, count=1)], cpu_count=4)
    assert cpu_heavy.cpu_fraction >= CPU_BOUND_THRESHOLD
    assert cpu_heavy.backend == "process"


def test_decide_handles_an_empty_schedule():
    choice = decide([], cpu_count=8)
    assert choice.backend == "thread"


# ---------------------------------------------------------------------------
# calibrate: one burst per distinct kind
# ---------------------------------------------------------------------------


def test_calibrate_profiles_each_kind_once_with_counts():
    schedule = mixed_schedule(5) + [("ide", ide_sector_read)] * 3
    profiles = calibrate(schedule, rounds=2)
    by_request = {p.request: p for p in profiles}
    assert len(profiles) == 3  # ide/pm2/ne2000 kinds, deduplicated
    assert by_request["ide_sector_read"].count == 8  # 5 mixed + 3
    for profile in profiles:
        assert profile.wall_s > 0
        assert profile.cpu_s >= 0


def test_calibrate_distinguishes_partial_bindings():
    schedule = [
        ("ide", functools.partial(ide_sector_read_lba, lba=3)),
        ("ide", functools.partial(ide_sector_read_lba, lba=4)),
        ("ide", ide_sector_read),
    ]
    profiles = calibrate(schedule, rounds=1)
    assert len(profiles) == 3  # different bindings are different kinds


def test_calibrate_sees_the_latency_model():
    quiet = calibrate([("ide", ide_sector_read)], rounds=2)
    slow = calibrate([("ide", ide_sector_read)], rounds=2,
                     op_latency_us=200.0)
    assert slow[0].wall_s > quiet[0].wall_s
    assert slow[0].cpu_fraction < 0.9


def test_calibrate_rejects_unshippable_requests():
    with pytest.raises(ValueError):
        calibrate([("ide", lambda stubs, aux: None)])


# ---------------------------------------------------------------------------
# auto_fleet / Fleet.auto: end-to-end wiring
# ---------------------------------------------------------------------------


def test_fleet_auto_builds_the_chosen_backend_and_runs():
    schedule = [("ide", ide_sector_checksum)] * 4
    with Fleet.auto(["ide", "ide"], schedule, workers=2,
                    cpu_count=4) as fleet:
        assert isinstance(fleet, ProcessFleet)
        assert fleet.choice.backend == "process"
        fleet.run(schedule)
        assert fleet.completed() == len(schedule)

    with Fleet.auto(["ide", "ide"], schedule, workers=2,
                    cpu_count=1) as fleet:
        assert isinstance(fleet, Fleet)
        assert fleet.choice.backend == "thread"
        fleet.run(schedule)
        assert fleet.completed() == len(schedule)


def test_auto_fleet_forwards_fleet_kwargs():
    schedule = mixed_schedule(2)
    devices = ["ide", "permedia2", "ne2000"]
    with auto_fleet(devices, schedule, workers=2, cpu_count=1,
                    shadow_cache=True,
                    policy="round-robin") as fleet:
        fleet.run(schedule)
        assert fleet.completed() == len(schedule)
        assert fleet.choice.cpu_count == 1
        assert fleet.choice.profiles  # calibration evidence attached
