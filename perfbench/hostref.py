"""Reference-kernel scaling: host time read as time on a nominal host.

The benchmark runs on shared machines whose speed drifts by 2-3x within
a minute, so a raw wall-clock duration says as much about the neighbours
as about the program.  This module times a fixed pure-Python kernel
between units of program work and rescales every program duration by
``R0 / R_local``: ``R_local`` is the smoothed kernel time nearest to the
duration, ``R0`` the kernel time of a nominal host.  A scaled duration
therefore reads as seconds on that nominal host.

The scaling is only sound if nothing but the kernel runs while it is
timed, and if the program cannot slow the kernel down along with itself
(a global trace hook, GC tuning, background CPU in the gaps).  Every
sample therefore checks for hooks and changed GC thresholds first, and
measures how much CPU other threads burnt while it ran.

The kernel imports nothing from the program under test.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from array import array
from bisect import bisect_left
from statistics import fmean, median

#: Kernel time on the nominal host, in seconds.  Scaled durations read
#: as seconds on a host where :func:`kernel` takes exactly this long.
R0 = 0.0015

#: Iterations of :func:`kernel`; about 1.5 ms on a 2020s x86 core.
KERNEL_ROUNDS = 2600

#: Samples in the running mean that smooths the kernel series.  Unsmoothed
#: samples add noise to calm runs; on this kind of host the speed also
#: changes within 100 ms, so wider windows (or medians of 7 and more)
#: tracked it worse in measured runs.
SMOOTH_WINDOW = 5

#: A sample above this multiple of the run's median kernel time is
#: clipped to it before smoothing: a preempted sample measures the
#: scheduler, not the host's speed.
CLIP = 3.0

_WORDS = tuple(f"k{index:03d}" for index in range(96))
_TEXT = "".join(_WORDS) * 3


def _mix(accumulator: int, value: int) -> int:
    return (accumulator * 33 + value) & 0xFFFFFF


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    """Fixed pure-Python work: calls, dict and list traffic, slicing.

    Returns a checksum so the work cannot be skipped and a broken
    kernel shows (see :data:`KERNEL_CHECKSUM`).
    """
    table: dict[str, int] = {}
    window: list[str] = []
    text = _TEXT
    span = len(text) - 8
    accumulator = 0
    for index in range(rounds):
        start = (index * 13) % span
        key = text[start:start + 4]
        table[key] = _mix(table.get(key, 0), index)
        window.append(key)
        if len(window) > 24:
            accumulator = _mix(accumulator, len(window.pop(0)))
    for key in sorted(table):
        accumulator = _mix(accumulator, table[key])
    return accumulator


#: ``kernel()``'s result; checked on every sample.
KERNEL_CHECKSUM = kernel()


class HostGuardError(RuntimeError):
    """The host reference cannot be trusted for this run."""


def smooth(values: list[float], window: int) -> list[float]:
    """Centred running mean of ``values`` clipped at ``CLIP`` x median.

    The window shrinks at the ends.
    """
    ceiling = CLIP * median(values)
    clipped = [min(value, ceiling) for value in values]
    half = window // 2
    return [fmean(clipped[max(0, index - half):index + half + 1])
            for index in range(len(clipped))]


class HostRef:
    """Kernel samples over one run, and the scale they imply.

    ``clock``, ``cpu`` and ``thread_cpu`` default to the process's wall,
    process-CPU and thread-CPU clocks; tests substitute synthetic ones.
    ``work`` runs one kernel sample and returns its checksum.
    """

    def __init__(self, clock=time.perf_counter, work=kernel,
                 cpu=time.process_time, thread_cpu=time.thread_time):
        self.clock = clock
        self._work = work
        self._cpu = cpu
        self._thread_cpu = thread_cpu
        self.gc_threshold = gc.get_threshold()
        #: Sample midpoints and raw kernel durations, in seconds.
        self.times = array("d")
        self.durations = array("d")
        #: CPU other threads used during samples, and the samples' wall
        #: time (the ``host.gap_busy_frac`` ratio).
        self.busy = 0.0
        self.wall = 0.0
        self._smoothed: list[float] | None = None

    def check_quiet(self) -> None:
        """Refuse to sample under a trace/profile hook or changed GC."""
        if sys.gettrace() is not None or sys.getprofile() is not None:
            raise HostGuardError("a trace or profile hook is installed")
        if threading.gettrace() is not None or \
                threading.getprofile() is not None:
            raise HostGuardError(
                "a threading trace or profile hook is installed")
        if gc.get_threshold() != self.gc_threshold:
            raise HostGuardError(
                f"GC thresholds changed from {self.gc_threshold} to "
                f"{gc.get_threshold()}")

    def sample(self) -> None:
        """Time one kernel run; call only while no program work runs."""
        self.check_quiet()
        enabled = gc.isenabled()
        gc.disable()
        try:
            cpu0 = self._cpu()
            thread0 = self._thread_cpu()
            start = self.clock()
            checksum = self._work()
            end = self.clock()
            thread1 = self._thread_cpu()
            cpu1 = self._cpu()
        finally:
            if enabled:
                gc.enable()
        if checksum != KERNEL_CHECKSUM:
            raise HostGuardError(
                f"kernel checksum {checksum} != {KERNEL_CHECKSUM}")
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.busy += max(0.0, (cpu1 - cpu0) - (thread1 - thread0))
        self.wall += end - start
        self._smoothed = None

    # -- the scale ------------------------------------------------------

    def smoothed(self) -> list[float]:
        if self._smoothed is None:
            if not self.durations:
                raise HostGuardError("no kernel samples taken")
            self._smoothed = smooth(self.durations, SMOOTH_WINDOW)
        return self._smoothed

    def factor(self, at: float) -> float:
        """``R0 / R_local`` for an instant on :attr:`clock`."""
        smoothed = self.smoothed()
        index = bisect_left(self.times, at)
        if index == len(self.times):
            index -= 1
        elif index > 0 and \
                at - self.times[index - 1] < self.times[index] - at:
            index -= 1
        return R0 / smoothed[index]

    def scale(self, start: float, end: float) -> float:
        """The duration ``end - start`` in nominal-host seconds."""
        return (end - start) * self.factor((start + end) / 2)

    # -- guards reported with every run ---------------------------------

    def ref_ms(self) -> float:
        """Raw median kernel time."""
        return median(self.durations) * 1e3

    def drift(self) -> float:
        """Max/min smoothed kernel time over the run."""
        smoothed = self.smoothed()
        return max(smoothed) / min(smoothed)

    def gap_busy_frac(self) -> float:
        """CPU of other threads per kernel wall second."""
        return self.busy / self.wall if self.wall else 0.0

    def series(self) -> dict:
        return {"times": list(self.times),
                "durations": list(self.durations),
                "smoothed": self.smoothed()}
