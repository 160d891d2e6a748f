"""Native fleet substrate tests: build-cache races, the direct-mode
gate, and the C-resident device models.

Three claims with teeth:

* **One compile per spec variant, ever** — N workers (threads of one
  process, or separate processes) cold-binding the same spec against
  an empty cache produce exactly one compiler invocation and an
  uncorrupted library (the ``flock`` + second-check + atomic-publish
  discipline in :mod:`repro.devil.native.build`).
* **The direct-mode gate is exact** — batches leave the Python bus
  only when no observer needs per-access hooks: plain ``Bus`` always
  qualifies, the zero-latency fleet ``ThreadSafeBus`` only when every
  owned mapping has a C-resident model, and tracing, collectors and
  latency-model subclasses always force callback mode.
* **The C device models are indistinguishable** — end state,
  accounting shards and device error messages byte-match the Python
  models they mirror.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bus import Bus, BusError, ThreadSafeBus
from repro.devil.native import bind_native, native_available
from repro.devil.native import build as native_build
from repro.engine import SLOT_STRIDE, Fleet, map_fleet_device
from repro.obs.workloads import WORKLOADS, bind_stubs, build_machine
from tests.conftest import shipped_spec


def _bind_native(spec: str, bus, bases):
    return bind_native(shipped_spec(spec).model, bus, bases,
                       debug=False)

pytestmark = pytest.mark.concurrency

needs_cc = pytest.mark.skipif(not native_available(),
                              reason="strategy='native' needs a C "
                                     "compiler")


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
# The direct-mode gate
# ---------------------------------------------------------------------------


def _tsb_machine(spec: str, bus):
    aux, bases = map_fleet_device(bus, spec, SLOT_STRIDE, f"{spec}0")
    return aux, bases


@needs_cc
def test_direct_mode_gate_decisions():
    """The gate's whole truth table, against the real bus classes."""
    from repro.engine.fleet import LatencyBus

    # Plain Bus, untraced: always direct — even without C models.
    bus, aux, bases = build_machine("busmouse", tracing=False)
    stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
    core = stubs._native
    assert core.enter_direct() is True
    core.leave_direct()

    # Tracing bus: never direct (per-access hooks are the point).
    traced, aux, bases = build_machine("busmouse", tracing=True)
    stubs = bind_stubs("busmouse", "native", traced, bases, debug=False)
    assert stubs._native.enter_direct() is False

    # Zero-latency fleet bus + fully modelled device: direct.
    tsb = ThreadSafeBus()
    aux, bases = _tsb_machine("ide", tsb)
    stubs = _bind_native("ide", tsb, bases)
    core = stubs._native
    assert core.enter_direct() is True
    core.leave_direct()

    # Same bus, device without a C model: callback mode.
    tsb = ThreadSafeBus()
    aux, bases = _tsb_machine("busmouse", tsb)
    stubs = _bind_native("busmouse", tsb, bases)
    assert stubs._native.enter_direct() is False

    # The latency-modelling subclass never qualifies: its per-access
    # sleep hooks are semantics, not observation.
    latency = LatencyBus(op_latency_us=1.0)
    aux, bases = _tsb_machine("ide", latency)
    stubs = _bind_native("ide", latency, bases)
    assert stubs._native.enter_direct() is False


# ---------------------------------------------------------------------------
# C-resident models: exactness on the fleet bus
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("spec", ("ide", "permedia2"))
def test_c_models_match_python_models_on_fleet_bus(spec):
    """Hot-register devices driven through the C models land the same
    end state, merged accounting and per-device shards as the
    specializer on an identical ThreadSafeBus."""
    evidence = {}
    for strategy in ("specialize", "native"):
        bus = ThreadSafeBus()
        aux, bases = _tsb_machine(spec, bus)
        stubs = bind_stubs(spec, strategy, bus, bases, debug=False)
        results = WORKLOADS[spec](stubs, aux)
        evidence[strategy] = (results,
                              bus.state_snapshot(),
                              bus.accounting.snapshot(),
                              bus.accounting_by_device())
    assert evidence["native"] == evidence["specialize"]


@needs_cc
def test_c_model_error_messages_match_python(tmp_path):
    """A device fault raised from C carries the same message as the
    Python model raises: diagnostics are part of the contract."""
    messages = {}
    for strategy in ("specialize", "native"):
        bus = ThreadSafeBus()
        aux, bases = _tsb_machine("ide", bus)
        stubs = bind_stubs("ide", strategy, bus, bases, debug=False)
        with pytest.raises(BusError) as info:
            stubs.read_ide_data_block(8)
        messages[strategy] = str(info.value)
    assert messages["native"] == messages["specialize"]


@needs_cc
def test_native_thread_fleet_overlaps_cpu_bound_requests():
    """Smoke the tentpole claim at test scale: a 2-worker native
    thread fleet executes dispatch-bound requests without error and
    exactly (full-scale speedup lives in bench_fleet.py's churn leg)."""
    from repro.engine import ide_taskfile_churn

    import functools
    request = functools.partial(ide_taskfile_churn, n=2048)
    with Fleet(["ide", "ide"], workers=2, strategy="native",
               tracing=False) as fleet:
        fleet.run([("ide", request)] * 8)
        accounting = fleet.accounting
        by_device = fleet.accounting_by_device()
    assert accounting.writes == 8 * 2048
    assert by_device["ide0"].writes == 4 * 2048
    assert by_device["ide1"].writes == 4 * 2048
