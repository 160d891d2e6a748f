"""Unit tests for the static checker: one test per §3.1 rule family."""

import pytest

from repro.devil.checker import check
from repro.devil.compiler import compile_spec
from repro.devil.errors import DevilCheckError, DiagnosticSink, FirstErrorSink
from repro.devil.parser import parse
from repro.devil.types import EnumType, IntSetType, IntType


def check_body(body: str, params: str = "base : bit[8] port @ {0..7}"):
    device = parse(f"device d ({params}) {{\n{body}\n}}")
    return check(device)


def errors_of(body: str, params: str = "base : bit[8] port @ {0..7}"):
    device = parse(f"device d ({params}) {{\n{body}\n}}")
    sink = DiagnosticSink()
    with pytest.raises(DevilCheckError):
        check(device, sink)
    return [d.message for d in sink.errors]


def warnings_of(body: str, params: str = "base : bit[8] port @ {0..7}"):
    device = parse(f"device d ({params}) {{\n{body}\n}}")
    sink = DiagnosticSink()
    check(device, sink)
    return [d.message for d in sink.warnings]


MINIMAL = ("register r = base @ 0 : bit[8];"
           "variable v = r : int(8);")


class TestAcceptance:
    def test_minimal_device(self):
        model = check_body(MINIMAL, params="base : bit[8] port @ {0}")
        assert "v" in model.variables
        assert model.variables["v"].type == IntType(8)

    def test_every_shipped_spec_checks(self, spec_name):
        from repro.specs import compile_shipped
        spec = compile_shipped(spec_name)
        assert spec.model.public_variables()


class TestStrongTyping:
    def test_unknown_port(self):
        messages = errors_of("register r = bogus @ 0 : bit[8];"
                             "variable v = r : int(8);",
                             params="base : bit[8] port @ {0}")
        assert any("unknown port" in m for m in messages)

    def test_offset_outside_range(self):
        messages = errors_of("register r = base @ 9 : bit[8];"
                             "variable v = r : int(8);")
        assert any("outside the declared range" in m for m in messages)

    def test_register_width_vs_port_width(self):
        messages = errors_of("register r = base @ 0 : bit[16];"
                             "variable v = r : int(16);",
                             params="base : bit[8] port @ {0}")
        assert any("data width" in m for m in messages)

    def test_register_needs_explicit_size(self):
        messages = errors_of("register r = base @ 0;"
                             "variable v = r : int(8);",
                             params="base : bit[8] port @ {0}")
        assert any("does not declare its size" in m for m in messages)

    def test_mask_width_mismatch(self):
        messages = errors_of("register r = base @ 0, mask '....' : bit[8];"
                             "variable v = r : int(8);",
                             params="base : bit[8] port @ {0}")
        assert any("mask" in m for m in messages)

    def test_bit_index_outside_register(self):
        messages = errors_of("register r = base @ 0 : bit[8];"
                             "variable v = r[8] : bool;",
                             params="base : bit[8] port @ {0}")
        assert any("outside the 8-bit register" in m for m in messages)

    def test_variable_width_vs_type_width(self):
        messages = errors_of("register r = base @ 0 : bit[8];"
                             "variable v = r[3..0] : int(8);"
                             "variable rest = r[7..4] : int(4);",
                             params="base : bit[8] port @ {0}")
        assert any("4 bit(s) wide but its type" in m for m in messages)

    def test_variable_on_forced_mask_bit(self):
        messages = errors_of(
            "register r = base @ 0, mask '0.......' : bit[8];"
            "variable v = r[7] : bool;"
            "variable rest = r[6..0] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("cannot belong to a variable" in m for m in messages)

    def test_enum_width_vs_variable_width(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable v = r[1..0] : { A <=> '1', B <=> '0' };"
            "variable rest = r[7..2] : int(6);",
            params="base : bit[8] port @ {0}")
        assert any("type" in m for m in messages)

    def test_memory_variable_needs_type(self):
        messages = errors_of(MINIMAL + "private variable m;",
                             params="base : bit[8] port @ {0}")
        assert any("explicit type" in m for m in messages)

    def test_memory_variable_must_be_private(self):
        messages = errors_of(MINIMAL + "variable m : bool;",
                             params="base : bit[8] port @ {0}")
        assert any("must be private" in m for m in messages)

    def test_action_constant_range_checked_statically(self):
        messages = errors_of(
            "register idx = write base @ 1 : bit[8];"
            "private variable i = idx[1..0] : int(2);"
            "variable rest = idx[7..2] : int(6);"
            "register r = read base @ 0, pre {i = 7} : bit[8];"
            "variable v = r : int(8);",
            params="base : bit[8] port @ {0..1}")
        assert any("outside" in m for m in messages)

    def test_action_on_unknown_variable(self):
        messages = errors_of(
            "register r = base @ 0, pre {nothing = 1} : bit[8];"
            "variable v = r : int(8);",
            params="base : bit[8] port @ {0}")
        assert any("unknown variable" in m for m in messages)

    def test_forced_bits_on_read_only_register(self):
        messages = errors_of(
            "register r = read base @ 0, mask '1.......' : bit[8];"
            "variable v = r[6..0] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("read-only register" in m for m in messages)

    def test_constructor_argument_type_checked(self):
        messages = errors_of(
            "register idx = write base @ 0 : bit[8];"
            "private variable ia = idx[4..0] : int{0..31};"
            "variable rest = idx[7..5] : int(3);"
            "register I(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];"
            "register I40 = I(40);"
            "variable v = I40 : int(8);",
            params="base : bit[8] port @ {0..1}")
        assert any("outside int{0..31}" in m for m in messages)

    def test_serialization_must_cover_exact_registers(self):
        messages = errors_of(
            "register lo = base @ 0 : bit[8];"
            "register hi = base @ 1 : bit[8];"
            "variable x = hi # lo : int(16) serialized as {lo; lo};",
            params="base : bit[8] port @ {0..1}")
        assert any("exactly once" in m for m in messages)


class TestNoOmission:
    def test_unused_port_parameter(self):
        messages = errors_of(
            MINIMAL,
            params="base : bit[8] port @ {0}, extra : bit[8] port @ {0}")
        assert any("never used" in m for m in messages)

    def test_unused_port_offset(self):
        messages = errors_of(MINIMAL,
                             params="base : bit[8] port @ {0..1}")
        assert any("declared but never used" in m for m in messages)

    def test_unused_register(self):
        messages = errors_of(
            MINIMAL + "register unused = base @ 1 : bit[8];",
            params="base : bit[8] port @ {0..1}")
        assert any("never used by any variable" in m for m in messages)

    def test_uncovered_register_bits(self):
        messages = errors_of("register r = base @ 0 : bit[8];"
                             "variable v = r[3..0] : int(4);",
                             params="base : bit[8] port @ {0}")
        assert any("not covered by any variable" in m for m in messages)

    def test_unused_named_type(self):
        messages = errors_of(
            "type t = { A <=> '1', B <=> '0' };" + MINIMAL,
            params="base : bit[8] port @ {0}")
        assert any("'t' is never used" in m for m in messages)

    def test_uninstantiated_constructor(self):
        messages = errors_of(
            "register idx = write base @ 0 : bit[8];"
            "private variable ia = idx[4..0] : int{0..31};"
            "variable rest = idx[7..5] : int(3);"
            "register I(i : int{0..31}) = base @ 1, pre {ia = i} : bit[8];",
            params="base : bit[8] port @ {0..1}")
        assert any("never instantiated" in m for m in messages)

    def test_readable_enum_must_be_exhaustive(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable v = r[1..0] : { A <=> '00', B <=> '01' };"
            "variable rest = r[7..2] : int(6);",
            params="base : bit[8] port @ {0}")
        assert any("not exhaustive" in m for m in messages)

    def test_read_mapping_on_write_only_variable(self):
        messages = errors_of(
            "register r = write base @ 0 : bit[8];"
            "variable v = r[0] : { A <=> '1', B <=> '0' };"
            "variable rest = r[7..1] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("write-only" in m for m in messages)

    def test_structure_write_requires_all_members(self):
        messages = errors_of(
            "register a = write base @ 0 : bit[8];"
            "structure s = {"
            "  variable lo = a[3..0] : int(4);"
            "  variable hi = a[7..4] : int(4);"
            "};"
            "register r = read base @ 1, pre {s = {lo => 1}} : bit[8];"
            "variable v = r : int(8);",
            params="base : bit[8] port @ {0..1}")
        assert any("every member" in m for m in messages)


class TestNoDoubleDefinition:
    def test_duplicate_register_name(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "register r = base @ 1 : bit[8];"
            "variable v = r : int(8);",
            params="base : bit[8] port @ {0..1}")
        assert any("already declared" in m for m in messages)

    def test_duplicate_variable_name(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable v = r[3..0] : int(4);"
            "variable v = r[7..4] : int(4);",
            params="base : bit[8] port @ {0}")
        assert any("already declared" in m for m in messages)

    def test_register_variable_namespace_shared(self):
        messages = errors_of(
            "register x = base @ 0 : bit[8];"
            "variable x = x : int(8);",
            params="base : bit[8] port @ {0}")
        assert any("already declared" in m for m in messages)

    def test_duplicate_enum_symbol(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable v = r[0] : { A <=> '1', A <=> '0' };"
            "variable rest = r[7..1] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("declared twice" in m for m in messages)

    def test_ambiguous_readable_patterns(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable v = r[0] : { A <=> '1', B <=> '1' };"
            "variable rest = r[7..1] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("ambiguous" in m for m in messages)


class TestNoOverlap:
    def test_bit_owned_by_two_variables(self):
        messages = errors_of(
            "register r = base @ 0 : bit[8];"
            "variable a = r[3..0] : int(4);"
            "variable b = r[4..1] : int(4);"
            "variable rest = r[7..5] : int(3);",
            params="base : bit[8] port @ {0}")
        assert any("belongs to both" in m for m in messages)

    def test_same_port_same_direction_no_disambiguation(self):
        messages = errors_of(
            "register a = base @ 0 : bit[8];"
            "register b = base @ 0 : bit[8];"
            "variable va = a : int(8);"
            "variable vb = b : int(8);",
            params="base : bit[8] port @ {0}")
        assert any("overlap on" in m for m in messages)

    def test_disjoint_masks_allowed(self):
        check_body(
            "register a = write base @ 0, mask '....----' : bit[8];"
            "register b = write base @ 0, mask '----....' : bit[8];"
            "variable va = a[7..4] : int(4);"
            "variable vb = b[3..0] : int(4);",
            params="base : bit[8] port @ {0}")

    def test_distinct_pre_actions_allowed(self):
        check_body(
            "register idx = write base @ 1 : bit[8];"
            "private variable i = idx[0] : int(1);"
            "variable rest = idx[7..1] : int(7);"
            "register a = read base @ 0, pre {i = 0} : bit[8];"
            "register b = read base @ 0, pre {i = 1} : bit[8];"
            "variable va = a : int(8);"
            "variable vb = b : int(8);",
            params="base : bit[8] port @ {0..1}")

    def test_forced_bit_write_discrimination_allowed(self):
        check_body(
            "register a = write base @ 0, mask '1.......' : bit[8];"
            "register b = write base @ 0, mask '0.......' : bit[8];"
            "variable va = a[6..0] : int(7);"
            "variable vb = b[6..0] : int(7);",
            params="base : bit[8] port @ {0}")

    def test_read_one_write_other_allowed(self):
        check_body(
            "register a = read base @ 0 : bit[8];"
            "register b = write base @ 0 : bit[8];"
            "variable va = a : int(8);"
            "variable vb = b : int(8);",
            params="base : bit[8] port @ {0}")

    def test_mode_distinguished_registers_warn(self):
        messages = warnings_of(
            "register w1 = write base @ 0, mask '...1....' : bit[8];"
            "register w2 = write base @ 1 : bit[8];"
            "structure init = {"
            "  variable pad = w1[7..5] : int(3);"
            "  variable l = w1[3..0] : int(4);"
            "  variable vec = w2 : int(8);"
            "} serialized as { w1; w2; };"
            "register later = write base @ 1 : bit[8];"
            "variable v = later : int(8);",
            params="base : bit[8] port @ {0..1}")
        assert any("device mode" in m for m in messages)


class TestBehaviourRules:
    def test_trigger_without_neutral_sharing_register(self):
        messages = errors_of(
            "register cmd = base @ 0 : bit[8];"
            "variable t = cmd[0], write trigger : bool;"
            "variable other = cmd[7..1] : int(7);",
            params="base : bit[8] port @ {0}")
        assert any("no neutral value" in m for m in messages)

    def test_trigger_alone_on_register_is_fine(self):
        check_body(
            "register cmd = base @ 0 : bit[8];"
            "variable t = cmd, write trigger : int(8);",
            params="base : bit[8] port @ {0}")

    def test_trigger_with_except_neutral_ok(self):
        check_body(
            "register cmd = base @ 0 : bit[8];"
            "variable t = cmd[1..0], write trigger except NOP : "
            "{ NOP <=> '00', GO => '01', ST1 <= '01', ST2 <= '10',"
            "  ST3 <= '11' };"
            "variable other = cmd[7..2] : int(6);",
            params="base : bit[8] port @ {0}")

    def test_except_requires_enum_type(self):
        messages = errors_of(
            "register cmd = base @ 0 : bit[8];"
            "variable t = cmd[1..0], write trigger except NOP : int(2);"
            "variable other = cmd[7..2] : int(6);",
            params="base : bit[8] port @ {0}")
        assert any("requires an enumerated type" in m for m in messages)

    def test_volatile_sharing_across_structures_warns(self):
        messages = warnings_of(
            "register r = base @ 0 : bit[8];"
            "variable a = r[3..0], volatile : int(4);"
            "variable b = r[7..4] : int(4);",
            params="base : bit[8] port @ {0}")
        assert any("structure boundaries" in m for m in messages)

    def test_volatile_grouped_in_structure_ok(self):
        messages = warnings_of(
            "register r = base @ 0 : bit[8];"
            "structure s = {"
            "  variable a = r[3..0], volatile : int(4);"
            "  variable b = r[7..4], volatile : int(4);"
            "};",
            params="base : bit[8] port @ {0}")
        assert not messages


class TestResolvedModel:
    def test_busmouse_model_shape(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("busmouse").model
        assert set(model.structures) == {"mouse_state"}
        assert model.variables["index"].private
        dx = model.variables["dx"]
        assert [c.register for c in dx.chunks] == ["x_high", "x_low"]
        assert dx.type == IntType(8, signed=True)

    def test_cs4236_constructor_substitution(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("cs4236").model
        i23 = model.registers["I23"]
        assert i23.constructor == "I"
        assert i23.constructor_args == (23,)
        (pre,) = i23.pre_actions
        assert pre.target == "IA" and pre.value == 23
        x2 = model.registers["X2"]
        (pre,) = x2.pre_actions
        assert pre.target_kind == "structure"
        assert pre.value == {"XA": 2, "XRAE": True}

    def test_trigger_neutrals_resolved(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("ne2000").model
        assert model.variables["st"].trigger_neutral_raw == 0b00
        assert model.variables["rd"].trigger_neutral_raw == 0b100
        xrae = shipped_spec("cs4236").model.variables["XRAE"]
        assert xrae.trigger_for_raw == 1
        assert xrae.trigger_neutral_raw == 0

    def test_ia_type_is_int_set(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("cs4236").model
        assert isinstance(model.variables["IA"].type, IntSetType)

    def test_enum_type_resolution(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("busmouse").model
        assert isinstance(model.variables["config"].type, EnumType)


#: One error from each of three rule families, none caused by another.
THREE_ERRORS = """\
type level = int(4);
type level = int(4);
type spare = bool;
device chip (base : bit[8] port @ {0..1}) {
    register r = base @ 0 : bit[8];
    register s = read base @ 0 : bit[8];
    variable a = r[3..0] : level;
    variable b = r[7..4] : level;
    variable c = s : int(8);
    register u = base @ 1 : bit[8];
    variable d = u : int(8);
}
"""


class TestEveryErrorReported:
    """Mutation verdicts stop at the first error; a compile does not."""

    def test_compile_spec_reports_all_three(self):
        with pytest.raises(DevilCheckError) as raised:
            compile_spec(THREE_ERRORS)
        message = str(raised.value)
        assert "3 error(s) in specification" in message
        for line, rule in ((2, "no-double-definition"), (6, "no-overlap"),
                           (3, "no-omission")):
            assert f"<devil>:{line}:" in message and f"[{rule}]" in message

    def test_a_first_error_sink_stops_at_the_first(self):
        sink = FirstErrorSink()
        with pytest.raises(DevilCheckError) as raised:
            compile_spec(THREE_ERRORS, sink=sink)
        assert str(raised.value) == \
            "<devil>:2:1: type 'level' is already declared at <devil>:1:1"
        assert [d.rule for d in sink.diagnostics] == \
            ["no-double-definition"]
