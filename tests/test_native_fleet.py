"""Native fleet substrate tests: build-cache races, threads sharing a
binding, the direct-mode gate, and the C-resident device models.

Four claims with teeth:

* **One compile per spec variant, ever** — N workers (threads of one
  process, or separate processes) cold-binding the same spec against
  an empty cache produce exactly one compiler invocation and an
  uncorrupted library (the ``flock`` + second-check + atomic-publish
  discipline in :mod:`repro.devil.native.build`).
* **A shared binding neither deadlocks nor loses an access** —
  threads running GIL-free direct batches and threads making single
  calls on one binding serialize on its C mutex, and no thread waits
  for the mutex while holding the GIL.
* **The direct-mode gate is exact** — batches leave the Python bus
  only on an untraced plain ``Bus`` with no collector (every fleet
  session bus without latency); tracing, collectors, the latency-model
  subclass and the shared ``ThreadSafeBus`` always force callback
  mode.
* **The C device models are indistinguishable** — end state,
  accounting and device error messages byte-match the Python models
  they mirror (session and fleet cells of ``tests/differential.py``).
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.bus import Bus, BusError, ThreadSafeBus
from repro.devil.native import build as native_build
from repro.engine import SLOT_STRIDE, Fleet, map_fleet_device
from repro.engine.fleet import open_session
from repro.obs.workloads import WORKLOADS, bind_stubs, build_machine
from tests.differential import (
    Cell,
    FleetRun,
    Machine,
    call,
    check,
    needs_cc,
)

pytestmark = pytest.mark.concurrency


# ---------------------------------------------------------------------------
# Build-cache races: exactly one compile, no corruption
# ---------------------------------------------------------------------------


@needs_cc
def test_eight_concurrent_cold_binds_compile_once(tmp_path,
                                                  monkeypatch):
    """Eight threads hammering an empty cache produce one compile.

    Every bind must also come back *usable* — each thread runs the
    shipped workload on its own machine and the end states agree, so a
    torn or partially-published library cannot hide behind the count.
    """
    monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
    before = native_build.BUILD_COUNT
    barrier = threading.Barrier(8)
    results: list = [None] * 8
    errors: list = []

    def cold_bind(index: int) -> None:
        try:
            bus, aux, bases = build_machine("busmouse", tracing=False)
            barrier.wait()
            stubs = bind_stubs("busmouse", "native", bus, bases,
                               debug=False)
            results[index] = (WORKLOADS["busmouse"](stubs, aux),
                              bus.accounting.snapshot())
        except BaseException as exc:    # pragma: no cover - diagnostics
            errors.append(exc)

    threads = [threading.Thread(target=cold_bind, args=(i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert native_build.BUILD_COUNT == before + 1
    assert all(result == results[0] for result in results)


_CHILD_BIND = """\
import os, sys, time
sys.path.insert(0, {src!r})
from repro.obs.workloads import WORKLOADS, bind_stubs, build_machine
go = {go!r}
deadline = time.monotonic() + 30
while not os.path.exists(go):
    if time.monotonic() > deadline:
        raise SystemExit("barrier file never appeared")
    time.sleep(0.005)
bus, aux, bases = build_machine("busmouse", tracing=False)
stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
WORKLOADS["busmouse"](stubs, aux)
print("BOUND")
"""


@needs_cc
def test_cross_process_cold_binds_compile_once(tmp_path):
    """Four *processes* racing an empty cache still compile once.

    flock is what serializes across processes (the in-process lock
    cannot), so this is the test that actually exercises it.  The
    compiler is wrapped in a logging shim; compile invocations are the
    logged lines carrying ``-shared``.
    """
    log = tmp_path / "cc.log"
    real_cc = native_build.find_compiler()
    wrapper = tmp_path / "cc-logged"
    wrapper.write_text(
        f"#!/bin/sh\necho \"$@\" >> {log}\nexec {real_cc} \"$@\"\n")
    wrapper.chmod(0o755)

    src = str(Path(__file__).resolve().parent.parent / "src")
    go = tmp_path / "go"
    env = dict(os.environ,
               CC=str(wrapper),
               **{native_build.CACHE_ENV: str(tmp_path / "cache")})
    script = _CHILD_BIND.format(src=src, go=str(go))
    children = [subprocess.Popen([sys.executable, "-c", script],
                                 env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for _ in range(4)]
    go.write_text("go")
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        assert "BOUND" in out
    compiles = [line for line in log.read_text().splitlines()
                if "-shared" in line]
    assert len(compiles) == 1, compiles


# ---------------------------------------------------------------------------
# One binding shared by threads: the GIL and the device mutex
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("spec, stub, args", [
    ("busmouse", "get_signature", ()),    # raw callbacks take the GIL
    ("ide", "set_lba_low", (2,)),         # C model, GIL-free batches
])
def test_threads_sharing_one_binding_lose_no_access(spec, stub, args):
    """Four threads on two CPUs share one native binding: two run direct
    batches (GIL released, mutex held, Python-modelled devices reached
    through callbacks that take the GIL back), two make single calls
    (GIL held, mutex tried first).  No thread deadlocks, and the merged
    accounting counts every access exactly once."""
    bus, aux, bases = build_machine(spec, tracing=False)
    stubs = bind_stubs(spec, "native", bus, bases, debug=False)
    batches, batch, singles = 40, 50, 400
    errors: list = []

    def batcher():
        try:
            for _ in range(batches):
                stubs.repeat(stub, batch, *args)
        except BaseException as exc:    # pragma: no cover - diagnostics
            errors.append(exc)

    def single():
        try:
            call = getattr(stubs, stub)
            for _ in range(singles):
                call(*args)
        except BaseException as exc:    # pragma: no cover - diagnostics
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target)
                   for target in (batcher, batcher, single, single)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "deadlock"
    assert not errors
    stubs.sync_to_bus()
    accounting = bus.accounting
    assert accounting.reads + accounting.writes == \
        2 * batches * batch + 2 * singles


# ---------------------------------------------------------------------------
# The direct-mode gate
# ---------------------------------------------------------------------------


def _fleet_session(spec: str, strategy: str = "native", **kwargs):
    """One fleet session: ``spec`` alone on its own bus at a slot."""
    return open_session(spec, f"{spec}0", SLOT_STRIDE, strategy=strategy,
                        **kwargs)


@needs_cc
def test_direct_mode_gate_decisions():
    """The gate's whole truth table: an untraced plain ``Bus`` with no
    collector goes direct, with or without C-resident models; every
    other bus stays on callbacks."""
    for spec in ("busmouse", "ide"):  # Python-modelled, C-modelled
        core = _fleet_session(spec).stubs._native
        assert core.enter_direct() is True, spec
        core.leave_direct()

    # Tracing: the per-access hooks are the point.
    assert _fleet_session("ide", tracing=True) \
        .stubs._native.enter_direct() is False

    # A collector on an untraced bus: its I/O events need the hooks.
    session = _fleet_session("ide")
    session.bus.collector = obs.Collector()
    assert session.stubs._native.enter_direct() is False

    # The latency-modelling subclass: its per-access sleeps are
    # semantics, not observation.
    assert _fleet_session("ide", op_latency_us=1.0) \
        .stubs._native.enter_direct() is False

    # The shared locked bus is a subclass too, fully modelled or not.
    bus = ThreadSafeBus()
    _, bases = map_fleet_device(bus, "ide", SLOT_STRIDE, "ide0")
    stubs = bind_stubs("ide", "native", bus, bases)
    assert stubs._native.enter_direct() is False


# ---------------------------------------------------------------------------
# C-resident models: exactness on the fleet bus
# ---------------------------------------------------------------------------


def _session_machine(spec: str, tracing: bool):
    """``spec`` alone at its fleet slot, mapped as a session maps it."""
    bus = Bus(tracing=tracing)
    aux, bases = map_fleet_device(bus, spec, SLOT_STRIDE, f"{spec}0")
    return bus, aux, bases


#: Native on an untraced plain session bus, where its batches go direct.
SESSION_CELLS = [Cell("native", tracing=False)]


@needs_cc
@pytest.mark.parametrize("spec", ("ide", "permedia2"))
def test_c_models_match_python_models_on_fleet_bus(spec):
    """Hot-register devices driven through the C models land the same
    results, end state and accounting as the interpreter on an
    identical fleet session."""
    check(Machine(f"{spec} session", WORKLOADS[spec], spec=spec,
                  build=functools.partial(_session_machine, spec)),
          SESSION_CELLS)


@needs_cc
def test_c_model_error_messages_match_python():
    """A device fault raised from C carries the same message as the
    Python model raises: diagnostics are part of the contract."""
    check(Machine("ide session data read before a command",
                  call("read_ide_data_block", 8),
                  expect=lambda found, cell: isinstance(found.error, BusError),
                  spec="ide",
                  build=functools.partial(_session_machine, "ide")),
          SESSION_CELLS)


def _busmouse_poll(stubs, aux):
    """64 signature reads: one ``repeat()`` batch on native stubs, which
    must run direct (all 64 reads are served from the port table)."""
    if not hasattr(stubs, "repeat"):
        return [stubs.get_signature() for _ in range(64)][-1]
    before = stubs._native.direct_accesses
    value = stubs.repeat("get_signature", 64)
    assert stubs._native.direct_accesses - before == 64, \
        "the batch did not run direct"
    return value


@needs_cc
def test_native_thread_fleet_repeat_on_python_modelled_device():
    """A busmouse has no C model, so a direct batch on its session bus
    reaches the Python model through raw callbacks: the native thread
    fleet still lands the interpreter's accounting and end state, and
    every batch really ran direct (the request asserts it)."""
    check(FleetRun("busmouse poll", (("busmouse", _busmouse_poll),) * 8,
                   devices=("busmouse", "busmouse"),
                   expect=lambda found, cell: found.accounting.reads == 512),
          [Cell("native", backend="thread", workers=2, tracing=False)])


@needs_cc
def test_native_thread_fleet_overlaps_cpu_bound_requests():
    """Smoke the tentpole claim at test scale: a 2-worker native
    thread fleet executes dispatch-bound requests without error and
    exactly (full-scale speedup lives in bench_fleet.py's churn leg)."""
    from repro.engine import ide_taskfile_churn

    request = functools.partial(ide_taskfile_churn, n=2048)
    with Fleet(["ide", "ide"], workers=2, strategy="native",
               tracing=False) as fleet:
        fleet.run([("ide", request)] * 8)
        accounting = fleet.accounting
        by_device = fleet.accounting_by_device()
    assert accounting.writes == 8 * 2048
    assert by_device["ide0"].writes == 4 * 2048
    assert by_device["ide1"].writes == 4 * 2048
