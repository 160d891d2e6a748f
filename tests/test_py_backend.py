"""Tests for the Python stub generator: compiled vs interpreted stubs.

The generated module and the interpreting runtime implement one
semantics; these tests run both against identical simulated devices and
compare results and complete I/O traces.
"""

import json
import subprocess
import sys

import pytest

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.errors import DevilRuntimeError
from repro.devices.busmouse import BusmouseModel
from repro.devices.cs4236 import VERSION_ID, Cs4236Model
from repro.devices.ne2000 import Ne2000DataPort, Ne2000Model, Ne2000ResetPort
from repro.devices.pic8259 import Pic8259Model
from repro.obs.workloads import bind_stubs, build_machine
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec
from tests.test_specialize import _error_scenarios


def load_generated(name: str):
    """exec the generated module; returns its stub class."""
    source = shipped_spec(name).emit_python()
    namespace: dict = {}
    exec(compile(source, f"{name}_stubs.py", "exec"), namespace)
    (cls,) = [value for key, value in namespace.items()
              if key.endswith("Stubs")]
    return cls


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


def _mouse_pair():
    machines = []
    for _ in range(2):
        bus = Bus(tracing=True)
        mouse = BusmouseModel()
        mouse.move(5, -3)
        mouse.set_buttons(0b100)
        bus.map_device(0x23C, 4, mouse, "busmouse")
        machines.append((bus, mouse))
    cls = load_generated("busmouse")
    generated = cls(machines[0][0], 0x23C, debug=True)
    interpreted = shipped_spec("busmouse").bind(
        machines[1][0], {"base": 0x23C})
    return machines, generated, interpreted


class TestAgreementBusmouse:
    def test_full_session_identical(self):
        machines, generated, interpreted = _mouse_pair()
        for stubs in (generated, interpreted):
            stubs.set_config("CONFIGURATION")
            stubs.set_signature(0xA5)
            assert stubs.get_signature() == 0xA5
            state = stubs.get_mouse_state()
            assert state == {"dx": 5, "dy": -3, "buttons": 4}
            assert stubs.get_dy() == -3
        assert machines[0][0].trace == machines[1][0].trace

    def test_debug_check_in_generated_code(self):
        _, generated, _ = _mouse_pair()
        with pytest.raises(Exception, match="before"):
            generated.get_dx()  # structure not fetched yet

    def test_enum_check_in_generated_code(self):
        _, generated, _ = _mouse_pair()
        with pytest.raises(Exception, match="'NOPE' is not a symbol"):
            generated.set_config("NOPE")


class TestAgreementAutomaton:
    def test_cs4236_extended_access(self):
        traces = []
        for kind in ("generated", "interpreted"):
            bus = Bus(tracing=True)
            chip = Cs4236Model()
            bus.map_device(0x534, 2, chip, "cs4236")
            if kind == "generated":
                stubs = load_generated("cs4236")(bus, 0x534, debug=False)
            else:
                stubs = shipped_spec("cs4236").bind(
                    bus, {"base": 0x534}, debug=False)
            stubs.set_left_dac_output(left_dac_attenuation=9,
                                      left_dac_mute=True,
                                      left_dac_pad=False) \
                if kind == "generated" else stubs.set_structure(
                    "left_dac_output", {"left_dac_attenuation": 9,
                                        "left_dac_mute": True,
                                        "left_dac_pad": False})
            assert stubs.get_version() == VERSION_ID
            stubs.set_ACF(True)
            assert not chip.extended_mode
            traces.append([(e.op, e.port, e.value) for e in bus.trace])
        assert traces[0] == traces[1]


class TestAgreementConditionalSerialization:
    def test_pic_init_sequences(self):
        for sngl, ic4, expected_words in (
                ("CASCADED", True, 4), ("SINGLE", False, 2),
                ("CASCADED", False, 3), ("SINGLE", True, 3)):
            results = []
            for kind in ("generated", "interpreted"):
                bus = Bus()
                pic = Pic8259Model()
                bus.map_device(0x20, 2, pic, "pic")
                values = dict(addr_vector=0, ltim="EDGE",
                              adi="INTERVAL8", sngl=sngl, ic4=ic4,
                              vector_base=0x20, slaves=4, sfnm=False,
                              buffered=False, master="BUF_SLAVE",
                              aeoi=False, microprocessor="X8086")
                if kind == "generated":
                    stubs = load_generated("pic8259")(bus, 0x20)
                    stubs.set_init(**values)
                else:
                    stubs = shipped_spec("pic8259").bind(
                        bus, {"base": 0x20})
                    stubs.set_structure("init", values)
                results.append(pic.init_log[0])
            assert results[0] == results[1]
            assert len(results[0]) == expected_words


class TestAgreementBlockTransfer:
    def test_ne2000_remote_dma(self):
        traces = []
        for kind in ("generated", "interpreted"):
            bus = Bus(tracing=True)
            nic = Ne2000Model()
            bus.map_device(0x300, 16, nic, "ne2000")
            bus.map_device(0x310, 2, Ne2000DataPort(nic), "data")
            bus.map_device(0x31F, 1, Ne2000ResetPort(nic), "reset")
            if kind == "generated":
                stubs = load_generated("ne2000")(bus, 0x300, 0x310, 0x31F)
            else:
                stubs = shipped_spec("ne2000").bind(
                    bus, {"base": 0x300, "data": 0x310, "rst": 0x31F})
            stubs.set_st("START")
            stubs.set_remote_byte_count(8)
            stubs.set_remote_start_address(0x4000)
            stubs.set_rd("REMOTE_WRITE")
            stubs.write_dma_data_block([1, 2, 3, 4])
            assert nic.ram[0:8] == bytes([1, 0, 2, 0, 3, 0, 4, 0])
            traces.append([(e.op, e.port, e.value) for e in bus.trace])
        assert traces[0] == traces[1]



# ---------------------------------------------------------------------------
# Value-validation parity: the module accepts, writes and rejects exactly
# like the interpreter, and words its rejections the same
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


class _Cell:
    """One device register holding a preset value."""

    def __init__(self, value):
        self.value = value

    def io_read(self, offset, width):
        return self.value

    def io_write(self, offset, value, width):
        self.value = value


def _outcome(bus, call):
    """``(returned value or raised error, bus trace)`` of one call."""
    try:
        result = call()
    except Exception as error:  # noqa: BLE001 - the error is the result
        result = error
    return result, list(bus.trace)


def _assert_same_outcome(module, interpreted, module_stubs, label):
    """Same decision, same bus trace; a rejection is the module's own
    ``DevilStubError`` with the interpreter's message."""
    (got, module_trace), (expected, interpreted_trace) = module, interpreted
    assert module_trace == interpreted_trace, label
    if isinstance(expected, DevilRuntimeError):
        error_class = type(module_stubs).__init__.__globals__[
            "DevilStubError"]
        assert type(got) is error_class, (label, got)
        assert str(got) == str(expected), label
    elif isinstance(expected, Exception):  # raised by the device model
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got == expected, label


class TestValidationParity:
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("case", VALIDATION_CASES,
                             ids=[case[3] + repr(case[4])
                                  for case in VALIDATION_CASES])
    def test_value_checks_match_interpreter(self, case, debug):
        declaration, mask, preset, stub, args = case
        spec = compile_spec(
            "device d (base : bit[8] port @ {0}) {\n"
            f"    register r = base @ 0, mask '{mask}' : bit[8];\n"
            f"    {declaration}\n}}\n")
        namespace: dict = {}
        exec(compile(spec.emit_python(), "d_stubs.py", "exec"), namespace)
        outcomes = []
        for kind in ("generated", "interpret"):
            bus = Bus(tracing=True)
            bus.map_device(0, 1, _Cell(preset))
            stubs = namespace["DStubs"](bus, 0, debug=debug) \
                if kind == "generated" \
                else spec.bind(bus, {"base": 0}, debug=debug)
            outcomes.append(_outcome(
                bus, lambda: getattr(stubs, stub)(*args)))
            if kind == "generated":
                module_stubs = stubs
        _assert_same_outcome(*outcomes, module_stubs, (stub, args, debug))

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_error_scenarios_match_interpreter(self, name, debug):
        """``TestDebugErrorParity``'s scenarios, replayed against the
        module: out-of-range writes, illegal symbols, the structure
        protocol, missing/unknown members and mode violations."""
        calls = [(stub, args, {})
                 for _, stub, args in _error_scenarios(name)]
        if name == "cs4236":
            members = {"left_dac_attenuation": 9, "left_dac_mute": True}
            calls += [("set_left_dac_output", (), members),
                      ("set_left_dac_output", (),
                       {**members, "left_dac_pad": False, "bogus": 1})]
        if name == "pic8259":
            calls.append(("set_irq_mask", (0xFF,), {}))
        for stub, args, kwargs in calls:
            outcomes = []
            for kind in ("generated", "interpret"):
                bus, _, bases = build_machine(name)
                stubs = bind_stubs(name, kind, bus, bases, debug)
                outcomes.append(_outcome(
                    bus, lambda: getattr(stubs, stub)(*args, **kwargs)))
                if kind == "generated":
                    module_stubs = stubs
            _assert_same_outcome(*outcomes, module_stubs,
                                 (name, stub, args, kwargs, debug))


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


class _RamDevice:
    """The interpreter-side twin of the script's RAM io object."""

    def __init__(self):
        self.cells = {}

    def io_read(self, offset, width):
        return self.cells.get(offset, 0)

    def io_write(self, offset, value, width):
        self.cells[offset] = value


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
        bus.map_device(0, 1 << 16, _RamDevice())
        stubs = spec.bind(bus, bases, debug=False)
        getattr(stubs, setter)(value)
        assert standalone["got"] == getattr(stubs, getter)()
        assert standalone["log"] == [[entry.op, entry.port, entry.value,
                                      entry.width] for entry in bus.trace]
