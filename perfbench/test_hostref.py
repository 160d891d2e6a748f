"""Tests of the reference scaling (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from hostref import (CLIP, KERNEL_CHECKSUM, R0, SMOOTH_WINDOW,
                     HostGuardError, HostRef, kernel, smooth)

KERNEL_S = 0.002
OP_S = 0.010


class SlowingHost:
    """A synthetic host whose speed halves at ``slow_at`` seconds.

    Work of nominal length ``d`` advances the clock by ``d`` before the
    switch and ``2 d`` after it, for the kernel and the ops alike.
    """

    def __init__(self, slow_at: float):
        self.now = 0.0
        self.slow_at = slow_at

    def clock(self) -> float:
        return self.now

    def spend(self, nominal: float) -> None:
        self.now += nominal * (2.0 if self.now >= self.slow_at else 1.0)

    def kernel(self) -> int:
        self.spend(KERNEL_S)
        return KERNEL_CHECKSUM


def run_ops(host: SlowingHost, ref: HostRef, ops: int) -> list:
    """Alternate kernel samples and ops; returns the ops' intervals."""
    intervals = []
    for _ in range(ops):
        ref.sample()
        start = host.clock()
        host.spend(OP_S)
        intervals.append((start, host.clock()))
    ref.sample()
    return intervals


def make_ref(host: SlowingHost) -> HostRef:
    cpu = iter(range(10**9)).__next__
    return HostRef(clock=host.clock, work=host.kernel,
                   cpu=lambda: float(cpu()), thread_cpu=lambda: 0.0)


def test_scaled_durations_stay_flat_while_raw_ones_double():
    host = SlowingHost(slow_at=0.6)
    ref = make_ref(host)
    intervals = run_ops(host, ref, 100)
    raw = [end - start for start, end in intervals]
    scaled = [ref.scale(start, end) for start, end in intervals]
    before = [index for index, (start, _) in enumerate(intervals)
              if start < host.slow_at]
    first, last = before[len(before) // 2], len(intervals) - 1
    assert raw[last] == pytest.approx(2 * raw[first])
    nominal = OP_S * R0 / KERNEL_S
    assert scaled[first] == pytest.approx(nominal)
    assert scaled[last] == pytest.approx(nominal)
    # Away from the switch, the smoothing window sees one speed only.
    settled = [value for index, value in enumerate(scaled)
               if abs(index - len(before)) > SMOOTH_WINDOW]
    assert all(value == pytest.approx(nominal) for value in settled)
    assert ref.drift() == pytest.approx(2.0)


def test_scaled_throughput_is_flat_across_the_slowdown():
    host = SlowingHost(slow_at=0.6)
    ref = make_ref(host)
    intervals = run_ops(host, ref, 100)
    halves = intervals[:50], intervals[50:]
    raw_rate = [len(part) / sum(e - s for s, e in part) for part in halves]
    scaled_rate = [len(part) / sum(ref.scale(s, e) for s, e in part)
                   for part in halves]
    assert raw_rate[0] / raw_rate[1] > 1.8
    assert scaled_rate[0] == pytest.approx(scaled_rate[1], rel=0.05)


def test_one_outlier_sample_barely_moves_the_scale():
    host = SlowingHost(slow_at=float("inf"))
    calls = []

    def work():                             # the tenth sample is preempted
        calls.append(None)
        host.spend(KERNEL_S * (50 if len(calls) == 10 else 1))
        return KERNEL_CHECKSUM

    ref = HostRef(clock=host.clock, work=work, cpu=lambda: 0.0,
                  thread_cpu=lambda: 0.0)
    for _ in range(20):
        ref.sample()
    assert max(ref.durations) == pytest.approx(50 * KERNEL_S)
    # Clipped to CLIP x the median, then averaged with its neighbours.
    bump = (CLIP - 1) / SMOOTH_WINDOW
    assert max(ref.smoothed()) == pytest.approx(KERNEL_S * (1 + bump))
    assert sorted(ref.smoothed())[-SMOOTH_WINDOW - 1] == \
        pytest.approx(KERNEL_S)


def test_factor_uses_the_nearest_sample():
    ref = HostRef(clock=lambda: 0.0, work=lambda: KERNEL_CHECKSUM)
    ref.times, ref._smoothed = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004]
    assert ref.factor(0.0) == pytest.approx(R0 / 0.001)
    assert ref.factor(1.6) == pytest.approx(R0 / 0.002)
    assert ref.factor(2.4) == pytest.approx(R0 / 0.002)
    assert ref.factor(2.6) == pytest.approx(R0 / 0.004)
    assert ref.factor(9.0) == pytest.approx(R0 / 0.004)


def test_smooth_is_a_clipped_running_mean():
    assert smooth([1, 2, 3, 4, 5], 3) == [1.5, 2, 3, 4, 4.5]
    assert smooth([1, 1, 100, 1, 1], 1) == [1, 1, CLIP, 1, 1]


def test_gap_busy_frac_counts_other_threads_cpu():
    host = SlowingHost(slow_at=float("inf"))
    cpu = [0.0]

    def work():
        host.spend(KERNEL_S)
        cpu[0] += KERNEL_S * 1.5            # another thread burns half
        return KERNEL_CHECKSUM

    thread_cpu = [0.0]

    def own():                              # the kernel's own CPU
        thread_cpu[0] += KERNEL_S
        return thread_cpu[0]

    ref = HostRef(clock=host.clock, work=work, cpu=lambda: cpu[0],
                  thread_cpu=own)
    for _ in range(4):
        ref.sample()
    assert ref.gap_busy_frac() == pytest.approx(0.5)


def test_refuses_to_sample_under_a_trace_hook():
    ref = HostRef()
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        with pytest.raises(HostGuardError, match="trace"):
            ref.sample()
    finally:
        sys.settrace(previous)


def test_refuses_to_sample_under_a_threading_profile_hook():
    ref = HostRef()
    threading.setprofile(lambda *args: None)
    try:
        with pytest.raises(HostGuardError, match="threading"):
            ref.sample()
    finally:
        threading.setprofile(None)


def test_refuses_to_sample_after_gc_retuning():
    ref = HostRef()
    old = gc.get_threshold()
    gc.set_threshold(old[0] + 1, *old[1:])
    try:
        with pytest.raises(HostGuardError, match="GC thresholds"):
            ref.sample()
    finally:
        gc.set_threshold(*old)


def test_sampling_keeps_the_gc_state():
    ref = HostRef()
    assert gc.isenabled()
    ref.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        ref.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_wrong_kernel_result_is_refused():
    ref = HostRef(work=lambda: KERNEL_CHECKSUM + 1)
    with pytest.raises(HostGuardError, match="checksum"):
        ref.sample()


def test_kernel_is_deterministic():
    assert kernel() == KERNEL_CHECKSUM == kernel()
