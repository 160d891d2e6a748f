"""Tests for the Python stub generator: the generated module.

The generated module and the interpreting runtime implement one
semantics; the agreement tests run the module's cells of the
differential harness (``tests/differential.py``) against the
interpreter's, and the module must also run where ``repro`` cannot be
imported.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

from repro.bus import Bus
from repro.devices.cs4236 import VERSION_ID
from repro.obs.workloads import build_machine, load_generated
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec
from tests.differential import (
    MEMBER_ERRORS,
    MODE_ERROR,
    STRATEGIES,
    Cell,
    Machine,
    Ram,
    call,
    check,
    device_machine,
    error_scenario,
    in_turn,
    matrix,
    rejections,
)


class TestGeneration:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_module_is_valid_python(self, name):
        load_generated(name)

    def test_class_name_derived_from_device(self):
        cls = load_generated("busmouse")
        assert cls.__name__ == "LogitechBusmouseStubs"

    def test_docstrings_present(self):
        stubs = load_generated("busmouse")(Bus(), 0x23C)
        assert "dx" in stubs.get_dx.__doc__

    def test_module_is_reproducible_across_hash_seeds(self):
        """The module is the same text in every process: string hashing
        is seeded per process, so no set may be written in hash order."""
        script = ("import hashlib, sys\n"
                  "from repro.specs import SPEC_NAMES, compile_shipped\n"
                  "for name in SPEC_NAMES:\n"
                  "    for observe in (False, True):\n"
                  "        text = compile_shipped(name).emit_python("
                  "observe=observe)\n"
                  "        print(name, observe, "
                  "hashlib.sha256(text.encode()).hexdigest())\n")
        outputs = []
        for seed in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join(sys.path)})
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert len(outputs[0].splitlines()) == 2 * len(SPEC_NAMES)
        assert outputs[0] == outputs[1]


def _extended_mode(stubs, aux):
    return aux["chip"].extended_mode


def _nic_ram(stubs, aux):
    return bytes(aux["nic"].ram[:8])


class TestAgreementBusmouse:
    def test_full_session_identical(self):
        check(Machine("busmouse session", in_turn(
            call("set_config", "CONFIGURATION"), call("set_signature", 0xA5),
            call("get_signature"), call("get_mouse_state"), call("get_dy")),
            expect=lambda found, cell: found.results[2:] == [
                0xA5, {"dx": 5, "dy": -3, "buttons": 5}, -3],
            spec="busmouse"), [Cell("generated", debug=True)])

    def test_debug_check_in_generated_code(self):
        check(rejections("busmouse", ("before", call("get_dx"))),
              [Cell("generated", debug=True)])

    def test_enum_check_in_generated_code(self):
        check(rejections("busmouse", ("'NOPE' is not a symbol",
                                      call("set_config", "NOPE"))),
              [Cell("generated", debug=True)])


class TestAgreementAutomaton:
    def test_cs4236_extended_access(self):
        check(Machine("cs4236 extended access", in_turn(
            call("set_left_dac_output", left_dac_attenuation=9,
                 left_dac_mute=True, left_dac_pad=False),
            call("get_version"), call("set_ACF", True), _extended_mode),
            expect=lambda found, cell: found.results[1::2] == [
                VERSION_ID, False], spec="cs4236"), [Cell("generated")])


def _pic_init(sngl, ic4, stubs, aux):
    stubs.set_init(addr_vector=0, ltim="EDGE", adi="INTERVAL8",
                   sngl=sngl, ic4=ic4, vector_base=0x20, slaves=4,
                   sfnm=False, buffered=False, master="BUF_SLAVE",
                   aeoi=False, microprocessor="X8086")
    return aux["pic"].init_log[0]


#: Conditional serialization: the ICW sequence length follows the
#: ``sngl`` and ``ic4`` fields.
PIC_INITS = [Machine(f"pic8259 init {sngl} ic4={ic4}",
                     functools.partial(_pic_init, sngl, ic4),
                     expect=lambda found, cell, words=words:
                     len(found.results) == words, spec="pic8259")
             for sngl, ic4, words in (
                 ("CASCADED", True, 4), ("SINGLE", False, 2),
                 ("CASCADED", False, 3), ("SINGLE", True, 3))]


class TestAgreementConditionalSerialization:
    def test_pic_init_sequences(self):
        for scenario in PIC_INITS:
            check(scenario, matrix(strategy=STRATEGIES))


class TestAgreementBlockTransfer:
    def test_ne2000_remote_dma(self):
        check(Machine("ne2000 remote DMA write", in_turn(
            call("set_st", "START"), call("set_remote_byte_count", 8),
            call("set_remote_start_address", 0x4000),
            call("set_rd", "REMOTE_WRITE"),
            call("write_dma_data_block", [1, 2, 3, 4]),
            _nic_ram), expect=lambda found, cell: found.results[-1]
            == bytes([1, 0, 2, 0, 3, 0, 4, 0]), spec="ne2000"),
            [Cell("generated")])


# ---------------------------------------------------------------------------
# Value-validation parity: every strategy accepts, writes and rejects
# exactly like the interpreter, and words its rejections the same (the
# module raises its own ``DevilStubError``)
# ---------------------------------------------------------------------------

#: ``(variable declaration, register mask, device value, stub, args)``:
#: a §3.2 read check, non-integer and non-boolean writes, and release
#: mode's masking of an int written to an enum.
VALIDATION_CASES = [
    ("variable x = r[3..0] : int{0..3, 8};", "0000....", 5, "get_x", ()),
    ("variable x = r[3..0] : int(4);", "0000....", 0, "set_x", ("7",)),
    ("variable b = r[0] : bool;", "0000000.", 0, "set_b", ("yes",)),
    ("variable mode = r[1..0] : "
     "{ A <=> '00', B <=> '01', C <=> '10', D <= '11' };",
     "000000..", 0, "set_mode", (1,)),
]


VALIDATION = {
    stub + repr(args): Machine(
        f"{stub}{args!r} on {declaration!r}", call(stub, *args),
        debug_differs=True,
        spec="device d (base : bit[8] port @ {0}) {\n"
             f"    register r = base @ 0, mask '{mask}' : bit[8];\n"
             f"    {declaration}\n}}\n",
        build=device_machine(functools.partial(Ram, preset), 0, 1))
    for declaration, mask, preset, stub, args in VALIDATION_CASES}


class TestValidationParity:
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("case", VALIDATION)
    def test_value_checks_match_interpreter(self, case, debug):
        check(VALIDATION[case], matrix(strategy=STRATEGIES,
                                       debug=(debug,)))

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_error_scenarios_match_interpreter(self, name, debug):
        """The module replays every debug error scenario: out-of-range
        writes, illegal symbols, the structure protocol, missing/unknown
        members and mode violations."""
        scenarios = [error_scenario(name)] + \
            ([MEMBER_ERRORS] if name == "cs4236" else []) + \
            ([MODE_ERROR] if name == "pic8259" else [])
        for scenario in scenarios:
            check(scenario, [Cell("generated", debug=debug)])


# ---------------------------------------------------------------------------
# The module stands alone: it runs where ``repro`` cannot be imported
# ---------------------------------------------------------------------------

#: A RAM io object and one setter/getter pair, run under ``python -I``
#: next to the written module; prints the io log and the value read.
STANDALONE_SCRIPT = """\
import importlib, json, sys
config = json.loads(sys.argv[1])
sys.path.insert(0, ".")
if importlib.util.find_spec("repro") is not None:
    sys.exit("repro is importable")


class Ram:
    def __init__(self):
        self.cells, self.log = {}, []

    def read(self, port, width):
        self.log.append(["r", port, self.cells.get(port, 0), width])
        return self.cells.get(port, 0)

    def write(self, value, port, width):
        self.cells[port] = value
        self.log.append(["w", port, value, width])

    def block_read(self, port, count, width):
        return [self.read(port, width) for _ in range(count)]

    def block_write(self, port, values, width):
        return len([self.write(value, port, width) for value in values])


io = Ram()
module = importlib.import_module(config["module"])
stubs = getattr(module, config["class"])(io, *config["bases"])
getattr(stubs, config["setter"])(config["value"])
got = getattr(stubs, config["getter"])()
print(json.dumps({"got": got, "log": io.log}))
"""

#: ``spec -> (setter, value, getter)`` from the shipped workloads.
STANDALONE_CALLS = {
    "busmouse": ("set_signature", 0xA5, "get_signature"),
    "dma8237": ("set_address1", 0x1234, "get_address1"),
    "pic8259": ("set_irq_mask", 0xFE, "get_irq_mask"),
    "ne2000": ("set_boundary", 0x46, "get_boundary"),
    "cs4236": ("set_mic_left_volume", 7, "get_mic_left_volume"),
    "ide": ("set_sector_count", 1, "get_sector_count"),
    "piix4": ("set_prd_pointer", 0x10000, "get_prd_pointer"),
    "permedia2": ("set_rect_width", 8, "get_fifo_space"),
}


class TestStandalone:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_module_runs_without_repro(self, name, tmp_path):
        spec = shipped_spec(name)
        module = f"{name}_stubs"
        (tmp_path / f"{module}.py").write_text(spec.emit_python())
        (tmp_path / "drive.py").write_text(STANDALONE_SCRIPT)
        _, _, bases = build_machine(name)
        setter, value, getter = STANDALONE_CALLS[name]
        config = {"module": module, "class": load_generated(name).__name__,
                  "bases": [bases[param] for param in spec.model.params],
                  "setter": setter, "value": value, "getter": getter}
        run = subprocess.run(
            [sys.executable, "-I", "drive.py", json.dumps(config)],
            cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        standalone = json.loads(run.stdout)

        bus = Bus(tracing=True)
        bus.map_device(0, 1 << 16, Ram(size=1 << 16))
        stubs = spec.bind(bus, bases, debug=False)
        getattr(stubs, setter)(value)
        assert standalone["got"] == getattr(stubs, getter)()
        assert standalone["log"] == [[entry.op, entry.port, entry.value,
                                      entry.width] for entry in bus.trace]
