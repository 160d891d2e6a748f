"""Backend selection: the fleet's configuration picks the engine.

The fleet engine has two substrates with opposite failure modes: the
thread backend (:class:`~repro.engine.fleet.Fleet`) serializes on the
GIL exactly when requests compute, and the process backend
(:class:`~repro.engine.mp.ProcessFleet`) pays an IPC toll on every
request.  Which one wins follows from values the fleet is configured
with, so :func:`decide` reads them instead of measuring the requests:

* a policy that assigns devices at run time (not in
  :data:`~repro.engine.scheduler.DETERMINISTIC_POLICIES`) → threads,
  the only backend that serves it;
* one CPU or one worker → threads (nothing runs in parallel, and
  threads pay no IPC toll);
* ``strategy="native"`` → threads (the compiled core releases the GIL
  around batched dispatch);
* a sleeping port latency (``op_latency_us > 0``) → threads, which
  overlap the sleeps without the IPC toll;
* otherwise → processes: a Python request on a bus that does not sleep
  holds the GIL for its whole run.

The selector table of ``benchmarks/bench_fleet.py`` sets this rule's
pick against the measured winner of each leg and worker count.
:meth:`Fleet.auto <repro.engine.fleet.Fleet.auto>` and ``devil fleet
--backend auto`` apply it and attach the verdict as ``fleet.choice``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheduler import DETERMINISTIC_POLICIES


@dataclass(frozen=True)
class BackendChoice:
    """The selector's verdict, with a one-line reason for reporting."""

    backend: str  # "thread" | "process"
    cpu_count: int
    reason: str


def decide(policy: str, workers: int, cpu_count: int, strategy: str,
           op_latency_us: float) -> BackendChoice:
    """Pick a backend for a fleet configured with these values.

    ``workers`` is the effective worker count, ``min(workers,
    len(devices))``, as :class:`~repro.engine.mp.ProcessFleet` caps
    it; ``strategy`` is the *resolved* bind strategy.
    """
    if policy not in DETERMINISTIC_POLICIES:
        choice, reason = "thread", (
            f"policy {policy!r} assigns devices at run time, which "
            f"only the thread backend serves")
    elif min(cpu_count, workers) <= 1:
        choice, reason = "thread", (
            f"one {'CPU' if cpu_count <= 1 else 'worker'}: nothing runs "
            f"in parallel, and threads pay no IPC toll")
    elif strategy == "native":
        choice, reason = "thread", (
            "strategy 'native' releases the GIL around batched C "
            "dispatch: threads overlap in-process without the IPC toll")
    elif op_latency_us > 0:
        choice, reason = "thread", (
            f"{op_latency_us:g} us of sleeping latency per port op "
            f"releases the GIL: threads overlap it without the IPC toll")
    else:
        choice, reason = "process", (
            f"{workers} workers on {cpu_count} CPUs and no port "
            f"latency: Python requests hold the GIL, and only "
            f"processes overlap them")
    return BackendChoice(backend=choice, cpu_count=cpu_count,
                         reason=reason)
