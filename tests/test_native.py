"""Tests for the compiled-C execution strategy (``strategy="native"``).

The exactness bar (after Braibant & Chlipala: equivalence is proven,
not assumed): a native-bound device must produce byte-equal end state,
exact accounting, identical port-I/O traces and identical span streams
vs the interpreter on every shipped spec, in debug and release mode;
the parity tests run native's cells of the differential harness
(``tests/differential.py``).  Everything that needs a C compiler is
gated on discovery; the fallback tests run everywhere and prove the
repo works without one.
"""

from __future__ import annotations

import functools

import pytest

from repro import obs
from repro.bus import Bus
from repro.bus.bus import BusError
from repro.devil.errors import DevilRuntimeError
from repro.devil.native import NativeBuildError, NativeDeviceInstance
from repro.devil.native import build as native_build
from repro.obs.workloads import (
    MOUSE_BASE,
    WORKLOADS,
    bind_stubs,
    build_machine,
    run_workload,
)
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec
from tests.differential import (
    BOTH,
    STRATEGIES,
    WORKLOAD,
    Cell,
    FleetRun,
    Machine,
    Ram,
    call,
    check,
    device_machine,
    in_turn,
    matrix,
    needs_cc,
    rejections,
)


# ---------------------------------------------------------------------------
# Four-way parity (the acceptance bar)
# ---------------------------------------------------------------------------


@needs_cc
class TestFourWayParity:
    """Native's workload cells; the other strategies' are
    ``test_specialize``'s and ``test_coalesce``'s."""

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_results_trace_accounting_identical(self, name, debug):
        check(WORKLOAD[name], [Cell("native", debug=debug)])

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_device_end_state_byte_equal(self, name):
        """Untraced: end state and accounting alone."""
        check(WORKLOAD[name], matrix(strategy=("native",), debug=BOTH,
                                     tracing=(False,)))

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_span_streams_identical(self, name, debug):
        check(WORKLOAD[name], [Cell("native", debug=debug, spans=True)])

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_state_blob_is_deterministic(self, name):
        blobs = []
        for _ in range(2):
            bus, aux, bases = build_machine(name, tracing=False)
            stubs = bind_stubs(name, "native", bus, bases, debug=True)
            WORKLOADS[name](stubs, aux)
            blobs.append(stubs.state_blob())
        assert blobs[0] == blobs[1]
        assert len(blobs[0]) > 0


def _repeat(stub, count, stubs, aux):
    """One ``repeat()`` batch on native stubs (direct on an untraced
    bus), a loop elsewhere."""
    if hasattr(stubs, "repeat"):
        return stubs.repeat(stub, count)
    return [getattr(stubs, stub)() for _ in range(count)][-1]


REPEAT_DX, REPEAT_STATE = (
    Machine(f"busmouse {stub} x{count}", in_turn(
        call("set_config", "CONFIGURATION"), call("get_mouse_state"),
        functools.partial(_repeat, stub, count)), spec="busmouse")
    for stub, count in (("get_dx", 500), ("get_mouse_state", 25)))


# ---------------------------------------------------------------------------
# Batched dispatch (repeat)
# ---------------------------------------------------------------------------


@needs_cc
class TestRepeat:
    def _machines(self, tracing):
        bus, aux, bases = build_machine("busmouse", tracing=tracing)
        stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
        return bus, aux, stubs

    def test_direct_batch_matches_per_call_loop(self):
        check(REPEAT_DX, matrix(strategy=STRATEGIES, tracing=(False,)))

    def test_traced_batch_matches_per_call_loop(self):
        check(REPEAT_STATE, matrix(strategy=STRATEGIES))

    def test_io_batch_runs_direct_on_plain_bus(self):
        """Every access of the batch is served direct: the count of
        direct accesses equals the interpreter's accesses for the same
        ten calls, and the merged accounting equals its accounting."""
        ref_bus, _, bases = build_machine("busmouse", tracing=False)
        reference = bind_stubs("busmouse", "interpret", ref_bus, bases)
        reference.set_config("CONFIGURATION")
        before = ref_bus.accounting.snapshot()
        for _ in range(10):
            reference.get_mouse_state()
        batch = ref_bus.accounting.delta(before)
        bus, _aux, stubs = self._machines(tracing=False)
        stubs.set_config("CONFIGURATION")
        stubs.repeat("get_mouse_state", 10)
        assert stubs._native.direct_accesses == \
            batch.reads + batch.writes > 0
        stubs.sync_to_bus()
        assert bus.accounting == ref_bus.accounting

    def test_setter_batch(self):
        bus, aux, bases = build_machine("permedia2", tracing=False)
        stubs = bind_stubs("permedia2", "native", bus, bases, debug=True)
        stubs.repeat("set_fb_write_mask", 64, 0xDEADBEEF)
        stubs.sync_to_bus()
        assert bus.accounting.writes == 64
        assert aux["gpu"].write_mask == 0xDEADBEEF

    def test_struct_setter_batch_takes_declaration_order(self):
        bus, aux, bases = build_machine("cs4236", tracing=False)
        stubs = bind_stubs("cs4236", "native", bus, bases, debug=True)
        stubs.repeat("set_left_dac_output", 5, 9, True, False)
        state = stubs.get_left_dac_output()
        assert state == {"left_dac_attenuation": 9,
                         "left_dac_mute": True,
                         "left_dac_pad": False}

    def test_struct_setter_batch_arity_checked(self):
        bus, aux, bases = build_machine("cs4236", tracing=False)
        stubs = bind_stubs("cs4236", "native", bus, bases, debug=True)
        with pytest.raises(DevilRuntimeError, match="positional"):
            stubs.repeat("set_left_dac_output", 2, 9)

    def test_collector_present_falls_back_to_python_loop(self):
        bus, aux, bases = build_machine("busmouse")
        with obs.observe(bus) as collector:
            stubs = bind_stubs("busmouse", "native", bus, bases,
                               debug=False)
            collector.register_ports(
                "busmouse", getattr(stubs, "_obs_ports", {}))
            stubs.set_config("CONFIGURATION")
            stubs.repeat("get_mouse_state", 7)
        spans = [s for s in collector.spans
                 if s.stub == "get_mouse_state"]
        assert len(spans) == 7    # one span per call, not per batch

    def test_zero_and_negative_counts_are_noops(self):
        _bus, _aux, stubs = self._machines(tracing=False)
        assert stubs.repeat("set_config", 0, "CONFIGURATION") is None
        assert stubs.repeat("set_config", -3, "CONFIGURATION") is None

    def test_unknown_stub_rejected(self):
        _bus, _aux, stubs = self._machines(tracing=False)
        with pytest.raises(DevilRuntimeError, match="unknown stub"):
            stubs.repeat("get_nonsense", 3)

    def test_setter_batch_validates_value_first(self):
        _bus, _aux, stubs = self._machines(tracing=False)
        with pytest.raises(DevilRuntimeError):
            stubs.repeat("set_config", 5, "NOT_A_SYMBOL")

    def test_error_mid_batch_propagates(self):
        class Boom:
            def __init__(self):
                self.calls = 0

            def io_read(self, offset, width):
                self.calls += 1
                if self.calls > 3:
                    raise RuntimeError("device exploded")
                return 0xA5

            def io_write(self, value, offset=0, width=8):
                pass

        bus = Bus()
        boom = Boom()
        bus.map_device(MOUSE_BASE, 4, boom, "boom")
        stubs = shipped_spec("busmouse").bind(
            bus, {"base": MOUSE_BASE}, debug=False, strategy="native")
        with pytest.raises(RuntimeError, match="device exploded"):
            stubs.repeat("get_signature", 10)
        stubs.sync_to_bus()
        # The three successful accesses are accounted, no more.
        assert bus.accounting.reads == 3


# ---------------------------------------------------------------------------
# State seam and caches
# ---------------------------------------------------------------------------


@needs_cc
class TestStateSeam:
    def test_cached_register_reflects_c_state(self):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
        stubs.set_config("CONFIGURATION")
        assert stubs.cached_register("cr") is not None
        assert stubs.cached_register("not_a_register") is None

    def test_invalidate_caches_forces_refetch(self):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
        stubs.set_config("CONFIGURATION")
        stubs.get_mouse_state()
        before = bus.accounting.reads
        stubs.invalidate_caches()
        stubs.get_mouse_state()
        assert bus.accounting.reads > before


# ---------------------------------------------------------------------------
# Build cache
# ---------------------------------------------------------------------------


@needs_cc
class TestBuildCache:
    def test_second_bind_hits_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
        bus, aux, bases = build_machine("busmouse", tracing=False)
        before = native_build.BUILD_COUNT
        bind_stubs("busmouse", "native", bus, bases, debug=False)
        assert native_build.BUILD_COUNT == before + 1
        bus2, aux2, bases2 = build_machine("busmouse", tracing=False)
        bind_stubs("busmouse", "native", bus2, bases2, debug=False)
        assert native_build.BUILD_COUNT == before + 1   # no rebuild

    def test_debug_flag_keys_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
        bus, aux, bases = build_machine("busmouse", tracing=False)
        before = native_build.BUILD_COUNT
        bind_stubs("busmouse", "native", bus, bases, debug=False)
        bus2, aux2, bases2 = build_machine("busmouse", tracing=False)
        bind_stubs("busmouse", "native", bus2, bases2, debug=True)
        assert native_build.BUILD_COUNT == before + 2
        names = [p.name for p in tmp_path.iterdir() if p.is_file()]
        assert any("-rel-" in name for name in names)
        assert any("-dbg-" in name for name in names)

    def test_build_key_varies_with_inputs(self):
        key = native_build.build_key("x", "h", "s", False)
        assert native_build.build_key("x", "h", "s", True) != key
        assert native_build.build_key("x", "H", "s", False) != key
        assert native_build.build_key("x", "h", "S", False) != key


# ---------------------------------------------------------------------------
# No-compiler behaviour (runs everywhere)
# ---------------------------------------------------------------------------


class TestNoCompilerFallback:
    @pytest.fixture
    def no_compiler(self, monkeypatch):
        monkeypatch.setattr(native_build, "_discover",
                            lambda: (None, "none"))
        native_build._reset_compiler_cache()
        yield
        native_build._reset_compiler_cache()

    def test_native_available_false(self, no_compiler):
        assert native_build.native_available() is False

    def test_native_strategy_raises_clear_diagnostic(self, no_compiler):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        with pytest.raises(NativeBuildError,
                           match="no C compiler found"):
            bind_stubs("busmouse", "native", bus, bases, debug=False)

    def test_auto_falls_back_to_specialize(self, no_compiler):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "auto", bus, bases, debug=False)
        assert stubs.strategy == "specialize"

    def test_auto_workload_still_exact(self, no_compiler):
        reference = run_workload("busmouse", "interpret")
        assert run_workload("busmouse", "auto") == reference


class TestNoPythonHeaders:
    """A compiler without the interpreter's ``Python.h`` cannot build the
    extension: native is unavailable and ``auto`` specializes."""

    @pytest.fixture
    def no_headers(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native_build.sysconfig, "get_paths",
                            lambda *args, **kwargs:
                            {"include": str(tmp_path)})
        native_build._reset_compiler_cache()
        yield
        native_build._reset_compiler_cache()

    def test_native_available_false(self, no_headers):
        assert native_build.native_available() is False

    @needs_cc
    def test_native_strategy_raises_clear_diagnostic(self, no_headers):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        with pytest.raises(NativeBuildError, match="no Python.h"):
            bind_stubs("busmouse", "native", bus, bases, debug=False)

    def test_auto_falls_back_to_specialize(self, no_headers):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "auto", bus, bases, debug=False)
        assert stubs.strategy == "specialize"


@needs_cc
class TestAutoStrategy:
    def test_auto_picks_native_with_a_compiler(self):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "auto", bus, bases, debug=False)
        assert isinstance(stubs, NativeDeviceInstance)
        assert stubs.strategy == "native"

    def test_auto_with_shadow_cache_uses_specializer(self):
        bus, aux, bases = build_machine("ide", tracing=False)
        stubs = bind_stubs("ide", "auto", bus, bases, debug=False,
                           shadow_cache=True)
        assert stubs.strategy == "specialize"


# ---------------------------------------------------------------------------
# Unsupported features and error paths
# ---------------------------------------------------------------------------


@needs_cc
class TestRejections:
    def test_transactions_rejected(self):
        check(WORKLOAD["ide"], [Cell("native", txn=True)])

    def test_shadow_cache_rejected(self):
        check(WORKLOAD["ide"], [Cell("native", shadow_cache=True)])

    def test_rmw_composition_rejected(self):
        check(WORKLOAD["busmouse"],
              [Cell("native", composition="read-modify-write")])

    def test_unknown_strategy_names_the_choices(self):
        spec = shipped_spec("busmouse")
        with pytest.raises(DevilRuntimeError, match="native"):
            spec.bind(Bus(), {"base": MOUSE_BASE}, strategy="compiled")


@needs_cc
class TestErrorPaths:
    def test_unmapped_port_raises_bus_error(self):
        stubs = shipped_spec("busmouse").bind(
            Bus(), {"base": MOUSE_BASE}, debug=False, strategy="native")
        with pytest.raises(BusError, match="no device mapped"):
            stubs.get_signature()
        with pytest.raises(BusError, match="no device mapped"):
            stubs.repeat("get_signature", 4)

    def test_member_read_before_fetch_debug_check(self):
        check(rejections("busmouse", ("get_mouse_state", call("get_dx"))),
              [Cell("native", debug=True)])

    MEMORY_SOURCE = """
    device memtest (base : bit[8] port @ {0}) {
        private variable xm : bool;
        register r = base @ 0, set {xm = false} : bit[8];
        variable gate = r[0], set {xm = gate}, write trigger for true
            : bool;
        variable rest = r[7..1] : int(7);
    }
    """

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_memory_read_before_initialisation(self, debug):
        from repro.devil.compiler import compile_spec
        spec = compile_spec(self.MEMORY_SOURCE)
        bus = Bus()
        bus.map_device(0x10, 1, Ram(), "ram")
        stubs = spec.bind(bus, {"base": 0x10}, debug=debug,
                          strategy="native")
        with pytest.raises(DevilRuntimeError,
                           match="read before initialisation"):
            stubs.get("xm")
        # C-side set-action initialises the memory mirror; the generic
        # accessor must observe it even in release builds.
        stubs.set_gate(True)
        assert stubs.get("xm") is True
        stubs.set_rest(3)       # register set-action: xm = false
        stubs.get_rest()
        assert stubs.get("xm") is False

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_memory_matches_interpreter(self, debug):
        # C-side set-actions write the memory mirror ``get`` reads.
        check(Machine("memtest set-actions", in_turn(
                          call("set_gate", True), call("set_rest", 5),
                          call("get_rest"), call("get", "xm"),
                          call("get_rest")), spec=self.MEMORY_SOURCE,
                      build=device_machine(Ram, 0x10, 1)),
              matrix(strategy=("specialize", "native"), debug=(debug,)))

    def test_generic_accessors_route_natively(self):
        bus, aux, bases = build_machine("busmouse", tracing=False)
        stubs = bind_stubs("busmouse", "native", bus, bases, debug=False)
        stubs.set("config", "CONFIGURATION")
        assert stubs.get("signature") == stubs.get_signature()
        state = stubs.get_structure("mouse_state")
        assert set(state) == {"dx", "dy", "buttons"}
        with pytest.raises(DevilRuntimeError, match="unknown variable"):
            stubs.get("nonsense")

    def test_block_errors_match_interpreter(self):
        bus, aux, bases = build_machine("ide", tracing=False)
        stubs = bind_stubs("ide", "native", bus, bases, debug=False)
        with pytest.raises(BusError, match="negative block count"):
            stubs.read_ide_data_block(-1)
        assert stubs.read_ide_data_block(0) == []
        assert stubs.write_ide_data_block([]) == 0


# ---------------------------------------------------------------------------
# Fleet integration
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.concurrency
class TestFleetIntegration:
    def test_thread_fleet_runs_native_devices(self):
        schedule = tuple((name, WORKLOADS[name])
                         for _ in range(4) for name in ("busmouse", "ide"))
        check(FleetRun("busmouse+ide", schedule, devices=("busmouse", "ide"),
                       expect=lambda found, cell:
                       sum(found.results.values()) == 8),
              [Cell("native", backend="thread", workers=2)])
