"""The stub table states which stubs a device exposes; every backend
lists exactly its rows.

One purpose-built spec covers each case of the rule: a read-write, a
read-only and a write-only register variable, a private index variable
a pre-action sets, two modes (the public memory variable
``device_mode``), a block variable on a 16-bit port, a structure whose
members all qualify, one with a write-only member and one with a
read-only member.
"""

import re

import pytest

from repro.bus import Bus
from repro.devil.codegen.pyi_backend import generate_pyi
from repro.devil.compiler import compile_spec
from repro.devil.native import build as native_build
from repro.devil.stubs import Stub, stub_table
from repro.mutation.targets import stub_externals
from tests.differential import Ram, needs_cc

SPEC = """
device stub_rules (base : bit[8] port @ {0..7}, data : bit[16] port @ {0})
{
    mode setup, running;

    register rw_reg = base @ 0 : bit[8];
    variable rw = rw_reg : int(8);

    register ro_reg = read base @ 1 : bit[8];
    variable ro = ro_reg, volatile : int(8);

    register wo_reg = write base @ 2, in setup : bit[8];
    variable wo = wo_reg : int(8);

    register index_reg = write base @ 3, mask '000000..' : bit[8];
    private variable index = index_reg[1..0] : int(2);

    register bank0 = base @ 4, pre {index = 0} : bit[8];
    register bank1 = read base @ 4, pre {index = 1} : bit[8];
    register ctl_reg = base @ 5, in running : bit[8];

    register cmd_reg = write base @ 6 : bit[8];
    register arg_reg = base @ 7 : bit[8];

    register data_reg = data @ 0 : bit[16];
    variable fifo = data_reg, volatile, block : int(16);

    structure both = {
        variable lo = bank0[3..0] : int(4);
        variable hi = bank0[7..4] : int(4);
    };

    structure command = {
        variable cmd = cmd_reg : int(8);
        variable arg = arg_reg : int(8);
    };

    structure mixed = {
        variable status = bank1, volatile : int(8);
        variable ctl = ctl_reg : int(8);
    };
}
"""

ROWS = (
    Stub("get_device_mode", "get", "device_mode", ()),
    Stub("set_device_mode", "set", "device_mode", ("device_mode",)),
    Stub("get_rw", "get", "rw", ()),
    Stub("set_rw", "set", "rw", ("rw",)),
    Stub("get_ro", "get", "ro", ()),
    Stub("set_wo", "set", "wo", ("wo",)),
    Stub("get_fifo", "get", "fifo", ()),
    Stub("set_fifo", "set", "fifo", ("fifo",)),
    Stub("read_fifo_block", "block_read", "fifo", ()),
    Stub("write_fifo_block", "block_write", "fifo", ()),
    Stub("get_lo", "get", "lo", ()),
    Stub("set_lo", "set", "lo", ("lo",)),
    Stub("get_hi", "get", "hi", ()),
    Stub("set_hi", "set", "hi", ("hi",)),
    Stub("set_cmd", "set", "cmd", ("cmd",)),
    Stub("get_arg", "get", "arg", ()),
    Stub("set_arg", "set", "arg", ("arg",)),
    Stub("get_status", "get", "status", ()),
    Stub("get_ctl", "get", "ctl", ()),
    Stub("set_ctl", "set", "ctl", ("ctl",)),
    Stub("get_both", "get_struct", "both", ()),
    Stub("set_both", "set_struct", "both", ("lo", "hi")),
    Stub("set_command", "set_struct", "command", ("cmd", "arg")),
    Stub("get_mixed", "get_struct", "mixed", ()),
)
NAMES = [row.name for row in ROWS]


@pytest.fixture(scope="module")
def spec():
    return compile_spec(SPEC)


@pytest.fixture(scope="module")
def model(spec):
    return spec.model


def ram_bus() -> Bus:
    bus = Bus()
    bus.map_device(0, 8, Ram(), "device")
    return bus


def test_rows(model):
    assert stub_table(model).rows == ROWS


def test_name_sets(model):
    table = stub_table(model)
    assert table.readable == {"device_mode", "rw", "ro", "fifo", "lo",
                              "hi", "arg", "status", "ctl", "both",
                              "mixed"}
    # The private index has a setter the pre-actions call, and no row.
    assert table.writable == {"device_mode", "rw", "wo", "index", "fifo",
                              "lo", "hi", "cmd", "arg", "ctl", "both",
                              "command"}


def test_computed_once_per_model(model):
    assert stub_table(model) is stub_table(model)
    assert compile_spec(SPEC).model.stubs is None  # not by the checker


def test_interpreter_attaches_the_rows(spec):
    instance = spec.bind(ram_bus(), {"base": 0, "data": 0})
    assert [name for name, value in vars(instance).items()
            if callable(value) and not name.startswith("_")] == NAMES


def test_pyi_lists_the_rows(model):
    text = generate_pyi(model)
    protocol = text.split("(Protocol):")[1].split("# Generic")[0]
    assert re.findall(r"def (\w+)\(", protocol) == NAMES


def test_externals_list_the_rows(model):
    externals, constants = stub_externals(model, "sr")
    arity = {"get": 0, "set": 1, "block_read": 2, "block_write": 2,
             "get_struct": 0, "set_struct": 2}
    assert externals == {"sr_init": 2, **{
        f"sr_{row.name}": arity[row.kind] for row in ROWS}}
    assert constants == {"SR_setup", "SR_running"}


def test_header_macros_list_the_rows(spec):
    header = spec.emit_c(prefix="sr")
    noref = header.split("#ifdef DEVIL_NO_REF")[1]
    assert re.findall(r"#define sr_(\w+)\(", noref) == ["init"] + NAMES


@needs_cc
def test_native_dispatch_ids_cover_the_non_memory_rows(spec, tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv(native_build.CACHE_ENV, str(tmp_path))
    instance = spec.bind(ram_bus(), {"base": 0, "data": 0},
                         strategy="native")
    core = instance._native
    singles = [row.name for row in ROWS if row.target != "device_mode"
               and row.kind not in ("block_read", "block_write")]
    assert {name: index for name, (index, _row)
            in core.stub_index.items()} == {
        name: index for index, name in enumerate(singles)}
    assert core.block_index == {"read_fifo_block": 0,
                                "write_fifo_block": 1}
