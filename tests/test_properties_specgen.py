"""Property tests over randomly *generated* Devil specifications.

A hypothesis strategy builds whole random (but well-formed) device
specifications — one to three registers, each read-write, read-only or
write-only, with masks and typed variables over their fields — and the
properties assert that the entire toolchain is closed over them:

* the checker accepts what the generator claims is well-formed,
* parse → print → parse is the identity (up to locations),
* every strategy — interpreter, specializer, generated module and the
  native core, which compiles and runs the spec's C header — agrees on
  values, traces, accounting and end state at every debug/shadow-cache
  setting (the cells of ``tests/differential.py``) when every get and
  set stub of the spec's stub table is called, and the C header always
  generates.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devil.compiler import compile_spec
from repro.devil.native import build as native_build
from repro.devil.parser import parse
from repro.devil.printer import print_device
from repro.devil.stubs import stub_table
from tests.differential import (
    BOTH,
    STRATEGIES,
    Machine,
    Ram,
    call,
    check,
    device_machine,
    in_turn,
    matrix,
)
from tests.test_printer import normalize


@st.composite
def register_specs(draw):
    """One register: a partition into fields plus a bit class per run."""
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=7),
                               min_size=0, max_size=3)))
    boundaries = [0] + cuts + [8]
    fields = []
    for i in range(len(boundaries) - 1):
        msb, lsb = boundaries[i + 1] - 1, boundaries[i]
        kind = draw(st.sampled_from(["var", "var", "var", "irrelevant",
                                     "forced0", "forced1"]))
        fields.append((msb, lsb, kind))
    if not any(kind == "var" for _, _, kind in fields):
        fields[0] = (fields[0][0], fields[0][1], "var")
    return fields


@st.composite
def device_specs(draw):
    """A whole device: 1..3 registers at distinct offsets, each
    read-write, ``read`` or ``write`` (forced bits constrain writes
    only, so a read-only register's are irrelevant instead)."""
    register_count = draw(st.integers(min_value=1, max_value=3))
    registers = [draw(register_specs()) for _ in range(register_count)]
    directions = [draw(st.sampled_from(["", "read ", "write "]))
                  for _ in range(register_count)]
    signed_choices = [draw(st.booleans()) for _ in range(16)]

    lines = [f"device generated (base : bit[8] port "
             f"@ {{0..{register_count - 1}}}) {{"]
    variable_specs = []
    for reg_index, fields in enumerate(registers):
        forced = "--" if directions[reg_index] == "read " else "01"
        mask_chars = []
        for bit in range(7, -1, -1):
            for msb, lsb, kind in fields:
                if lsb <= bit <= msb:
                    mask_chars.append({"var": ".", "irrelevant": "-",
                                       "forced0": forced[0],
                                       "forced1": forced[1]}[kind])
                    break
        mask = "".join(mask_chars)
        lines.append(f"    register r{reg_index} = "
                     f"{directions[reg_index]}base @ {reg_index}, "
                     f"mask '{mask}' : bit[8];")
        for field_index, (msb, lsb, kind) in enumerate(fields):
            if kind != "var":
                continue
            width = msb - lsb + 1
            name = f"v{reg_index}_{field_index}"
            signed = signed_choices[(reg_index * 5 + field_index) % 16] \
                and width > 1
            type_text = f"signed int({width})" if signed \
                else f"int({width})"
            lines.append(f"    variable {name} = "
                         f"r{reg_index}[{msb}..{lsb}] : {type_text};")
            variable_specs.append((name, width, signed))
    lines.append("}")
    return "\n".join(lines), variable_specs


@pytest.fixture(scope="module")
def native_cache(tmp_path_factory):
    """Every generated spec builds native libraries of its own; keep
    them out of the shared build cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(native_build.CACHE_ENV,
                     str(tmp_path_factory.mktemp("native")))
        yield


class TestGeneratedSpecs:
    @settings(max_examples=50, deadline=None)
    @given(device_specs())
    def test_checker_accepts_wellformed(self, generated):
        source, _ = generated
        spec = compile_spec(source)
        assert spec.model.registers

    @settings(max_examples=50, deadline=None)
    @given(device_specs())
    def test_print_parse_roundtrip(self, generated):
        source, _ = generated
        first = parse(source)
        second = parse(print_device(first))
        assert normalize(first) == normalize(second)

    @settings(max_examples=30, deadline=None)
    @given(device_specs(), st.data())
    def test_runtime_and_generated_python_agree(self, native_cache,
                                                generated, data):
        """Every strategy: equal values, traces, accounting and end
        state, at debug and shadow cache each on and off (the native
        core rejects the shadow cache).  The run makes every set call
        of the stub table, then every get call, over a RAM seeded with
        drawn bytes; a read-write variable reads back what was set."""
        source, variables = generated
        rows = stub_table(compile_spec(source).model).rows
        ranges = {name: (-(1 << (width - 1)), (1 << (width - 1)) - 1)
                  if signed else (0, (1 << width) - 1)
                  for name, width, signed in variables}
        written = {row.target: data.draw(st.integers(*ranges[row.target]),
                                         label=row.name)
                   for row in rows if row.kind == "set"}
        gets = [row.name for row in rows if row.kind == "get"]
        expected = {f"get_{name}": value for name, value in written.items()
                    if f"get_{name}" in gets}
        ram = data.draw(st.lists(st.integers(min_value=0, max_value=255),
                                 min_size=8, max_size=8), label="ram")
        check(Machine("generated spec", in_turn(
                          *(call(f"set_{name}", value)
                            for name, value in written.items()),
                          *(call(name) for name in gets)), spec=source,
                      build=device_machine(functools.partial(Ram, *ram),
                                           0, 8),
                      expect=lambda found, cell: all(
                          dict(zip(gets, found.results[len(written):]))
                          [name] == value
                          for name, value in expected.items())),
              matrix(strategy=STRATEGIES, debug=BOTH, shadow_cache=BOTH))

    @settings(max_examples=20, deadline=None)
    @given(device_specs())
    def test_c_header_always_generates(self, generated):
        source, _ = generated
        header = compile_spec(source).emit_c(prefix="gen")
        assert "gen_state_t" in header
