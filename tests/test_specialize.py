"""Cross-check of the execution strategies over the differential harness.

The interpreter, the bind-time specializer, the generated Python
module and the native C core claim one semantics.  Every shipped
spec's driver workload (:mod:`repro.obs.workloads`) runs in each
strategy's cells of ``tests/differential.py`` and must match the
interpreter's results, trace, accounting, spans, stub surface and end
state; a debug cell must do exactly the release run's I/O (§3.2).
The traced workload cells are split by strategy: the interpreter's
debug cell and the specializer's here, the generated module's in
``test_composition_strategies_agree[cache-*]`` (it composes as
``cache`` only), native's in ``test_native``.

Debug-mode errors must be message-exact in every strategy and make no
port access: out-of-range writes, illegal enum symbols, structure
protocol violations, missing/unknown structure members and mode
violations.
"""

import re

import pytest

import repro.devil.specialize as specialize_module
from repro.devil.errors import DevilRuntimeError
from repro.devil.specialize import specialized_factory
from repro.obs.workloads import MOUSE_BASE, bind_stubs, build_machine
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec
from tests.differential import (
    BOTH,
    MEMBER_ERRORS,
    MODE_ERROR,
    STRATEGIES,
    WORKLOAD,
    Cell,
    Machine,
    call,
    check,
    error_scenario,
    matrix,
    rejections,
)

#: Every strategy but the generated module, whose error cells are
#: ``test_py_backend``'s.
NOT_GENERATED = tuple(s for s in STRATEGIES if s != "generated")

# ---------------------------------------------------------------------------
# Workload parity: every strategy against the interpreter
# ---------------------------------------------------------------------------


class TestThreeWayParity:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_traces_accounting_results_identical(self, name, debug):
        check(WORKLOAD[name], [Cell("specialize", debug=debug)])

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_debug_and_release_do_identical_io(self, name):
        """§3.2: debug checks are CPU-side only (every debug cell of
        the harness is compared with the interpreter's release run)."""
        check(WORKLOAD[name], [Cell(debug=True)])


def test_a_perturbed_cell_fails_naming_scenario_cell_and_field(
        monkeypatch):
    """One specialized stub making one extra bus read fails the harness
    on that cell, which the failure names with the scenario."""
    specialize = specialize_module.specialize_instance

    def one_extra_read(instance):
        specialize(instance)
        stub = instance.get_signature

        def get_signature():
            instance.bus.read(MOUSE_BASE + 1)
            return stub()
        instance.get_signature = get_signature

    monkeypatch.setattr(specialize_module, "specialize_instance",
                        one_extra_read)
    check(WORKLOAD["busmouse"], [Cell("generated", debug=True)])
    with pytest.raises(AssertionError, match=re.escape(
            "busmouse [specialize bus debug=True]: trace differs")):
        check(WORKLOAD["busmouse"], [Cell("specialize", debug=True)])


# ---------------------------------------------------------------------------
# Debug-mode error parity (every strategy, message-exact, no I/O)
# ---------------------------------------------------------------------------


#: The concrete §3.2 out-of-range writes.
OUT_OF_RANGE = [rejections(name, ("outside range", call(stub, bad)))
                for name, stub, bad in (
                    ("busmouse", "set_signature", 256),
                    ("ide", "set_head", 16),
                    ("cs4236", "set_mic_left_volume", 32),
                    ("permedia2", "set_rect_width", 1 << 16))]

class TestDebugErrorParity:
    """The generated module's cells of these scenarios are
    ``test_py_backend``'s."""

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_identical_errors_and_no_io(self, name):
        check(error_scenario(name), matrix(strategy=NOT_GENERATED,
                                           debug=BOTH))

    def test_out_of_range_write_messages(self):
        for scenario in OUT_OF_RANGE:
            check(scenario, matrix(strategy=STRATEGIES, debug=(True,)))

    def test_structure_member_errors_identical(self):
        check(MEMBER_ERRORS, matrix(strategy=NOT_GENERATED, debug=BOTH))

    def test_mode_violation_identical(self):
        check(MODE_ERROR, matrix(strategy=NOT_GENERATED, debug=BOTH))


# ---------------------------------------------------------------------------
# Interop and caching behaviour of the specializer itself
# ---------------------------------------------------------------------------


class TestSpecializedInstance:
    def test_generic_api_shares_state_with_specialized_stubs(self):
        bus, aux, bases = build_machine("busmouse")
        stubs = bind_stubs("busmouse", "specialize", bus, bases,
                           debug=True)
        stubs.get_mouse_state()
        # The generic (interpreted) member read sees the snapshot the
        # specialized structure getter took.
        assert stubs.get("dx") == stubs.get_dx() == 5
        stubs.set("signature", 0x5A)
        assert stubs.get_signature() == 0x5A

    def test_transaction_coalescing_identical(self):
        check(TRANSACTION, matrix(strategy=STRATEGIES, debug=BOTH,
                                  txn=(True,)))

    def test_factory_cached_per_key(self):
        model = shipped_spec("busmouse").model
        first = specialized_factory(model, {"base": MOUSE_BASE},
                                    debug=True, composition="cache")
        second = specialized_factory(model, {"base": MOUSE_BASE},
                                     debug=True, composition="cache")
        assert first is second
        other_debug = specialized_factory(model, {"base": MOUSE_BASE},
                                          debug=False,
                                          composition="cache")
        other_base = specialized_factory(model, {"base": 0x300},
                                         debug=True, composition="cache")
        assert other_debug is not first
        assert other_base is not first

    def test_addresses_folded_into_source(self):
        bus, aux, bases = build_machine("busmouse")
        stubs = bind_stubs("busmouse", "specialize", bus, bases,
                           debug=False)
        source = stubs._specialized_source
        assert hex(MOUSE_BASE + 1) in source  # sig_reg absolute port
        assert "def get_dx" in source
        assert "def set_config" in source

    def test_unknown_strategy_rejected(self):
        bus, aux, bases = build_machine("busmouse")
        with pytest.raises(DevilRuntimeError, match="execution strategy"):
            shipped_spec("busmouse").bind(bus, bases, strategy="jit")

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_public_surface_identical(self, name):
        """No strategy adds or removes public stubs, and binding alone
        makes no port access (the stub surface is evidence in every
        cell; here nothing but the bind runs)."""
        check(Machine(f"{name} bind", _bind_only, spec=name,
                      expect=lambda found, cell: found.trace == []
                      and found.surface),
              [Cell(strategy) for strategy in STRATEGIES])

    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("composition",
                             ["cache", "read-modify-write"])
    def test_composition_strategies_agree(self, name, composition):
        """Each composition works identically in the strategies that
        run it: read-modify-write in the interpreter and the specializer
        (native rejects it, ``test_native``), ``cache`` in the generated
        module, which composes as nothing else."""
        check(WORKLOAD[name], matrix(
            strategy=("generated",) if composition == "cache"
            else ("interpret", "specialize"),
            composition=(composition,), debug=BOTH))


def _bind_only(stubs, aux):
    return None


def _coalesced_device_head(stubs, aux):
    with stubs.transaction():
        stubs.set_lba_mode(True)
        stubs.set_drive("MASTER")
        stubs.set_head(5)


#: One coalesced ``device_reg`` write.
TRANSACTION = Machine("ide transaction()", None, _coalesced_device_head,
                      expect=lambda found, cell: len(found.trace) == 1,
                      spec="ide")
