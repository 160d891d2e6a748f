"""Unit tests for the diagnostics module and the resolved model."""

import pytest

from repro.devil.errors import (
    Diagnostic,
    DiagnosticSink,
    DevilCheckError,
    DevilError,
    SourceLocation,
    UNKNOWN_LOCATION,
)
from repro.devil.model import (
    ParamRef,
    ResolvedAction,
    ResolvedChunk,
    ResolvedVariable,
    VarRef,
    Wildcard,
)
from repro.devil.types import IntType


class TestSourceLocation:
    def test_str_format(self):
        location = SourceLocation(12, 5, "chip.devil")
        assert str(location) == "chip.devil:12:5"

    def test_ordering(self):
        early = SourceLocation(1, 2, "a")
        late = SourceLocation(3, 1, "a")
        assert early < late

    def test_unknown_location(self):
        assert UNKNOWN_LOCATION.line == 0


class TestDevilErrors:
    def test_message_carries_location(self):
        error = DevilError("boom", SourceLocation(7, 3, "x.devil"))
        assert "x.devil:7:3" in str(error)
        assert error.message == "boom"

    def test_hierarchy(self):
        from repro.devil.errors import (
            DevilCodegenError,
            DevilLexError,
            DevilParseError,
            DevilRuntimeError,
        )
        for cls in (DevilLexError, DevilParseError, DevilCheckError,
                    DevilCodegenError, DevilRuntimeError):
            assert issubclass(cls, DevilError)


class TestDiagnosticSink:
    def test_collects_errors_and_warnings(self):
        sink = DiagnosticSink()
        sink.error("bad", rule="strong-typing")
        sink.warning("meh", rule="behaviour")
        assert len(sink.errors) == 1
        assert len(sink.warnings) == 1

    def test_raise_if_errors_includes_all(self):
        sink = DiagnosticSink()
        sink.error("first problem")
        sink.error("second problem")
        with pytest.raises(DevilCheckError) as excinfo:
            sink.raise_if_errors()
        assert "first problem" in str(excinfo.value)
        assert "second problem" in str(excinfo.value)
        assert "2 error(s)" in str(excinfo.value)

    def test_warnings_do_not_raise(self):
        sink = DiagnosticSink()
        sink.warning("just a warning")
        sink.raise_if_errors()

    def test_diagnostic_str_includes_rule(self):
        diagnostic = Diagnostic("error", "bad thing",
                                SourceLocation(1, 1), "no-omission")
        assert "[no-omission]" in str(diagnostic)


class TestResolvedActionSubstitution:
    def test_param_ref_substituted(self):
        action = ResolvedAction("ia", "variable", ParamRef("i"))
        concrete = action.substitute({"i": 23})
        assert concrete.value == 23

    def test_unbound_param_survives(self):
        action = ResolvedAction("ia", "variable", ParamRef("j"))
        assert action.substitute({"i": 1}).value == ParamRef("j")

    def test_struct_value_substituted_recursively(self):
        action = ResolvedAction(
            "XS", "structure", {"XA": ParamRef("j"), "XRAE": True})
        concrete = action.substitute({"j": 2})
        assert concrete.value == {"XA": 2, "XRAE": True}

    def test_literals_untouched(self):
        for value in (5, True, "SYMBOL", Wildcard(), VarRef("v")):
            action = ResolvedAction("t", "variable", value)
            assert action.substitute({"x": 1}).value == value


class TestResolvedVariable:
    def _variable(self):
        return ResolvedVariable(
            name="dx", type=IntType(8, signed=True),
            chunks=[ResolvedChunk("x_high", 3, 0),
                    ResolvedChunk("x_low", 3, 0)])

    def test_width_sums_chunks(self):
        assert self._variable().width == 8

    def test_registers_in_chunk_order(self):
        assert self._variable().registers() == ["x_high", "x_low"]

    def test_serialization_overrides_order(self):
        variable = self._variable()
        variable.serialization = ["x_low", "x_high"]
        assert variable.registers() == ["x_low", "x_high"]

    def test_chunks_of_reports_value_offsets(self):
        variable = self._variable()
        (high_chunk,) = variable.chunks_of("x_high")
        (low_chunk,) = variable.chunks_of("x_low")
        assert high_chunk[1] == 4   # x_high holds value bits 7..4
        assert low_chunk[1] == 0


class TestResolvedDeviceQueries:
    def test_variables_of_register(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("busmouse").model
        names = {v.name for v in model.variables_of_register("y_high")}
        assert names == {"dy", "buttons"}

    def test_public_excludes_private(self):
        from tests.conftest import shipped_spec
        model = shipped_spec("ne2000").model
        names = {v.name for v in model.public_variables()}
        assert "page" not in names
        assert "st" in names


POST_ACTION_SPEC = """
device pa (base : bit[8] port @ {0..1}) {
    register counter = write base @ 1 : bit[8];
    private variable accesses = counter, write trigger : int(8);
    register r = base @ 0, post {accesses = 1} : bit[8];
    variable v = r : int(8);
}
"""


class TestPostActions:
    """§2.2 lists access post-actions; they run after the register I/O."""

    def test_post_action_runs_after_access(self):
        from repro.bus import Bus
        from repro.devil.compiler import compile_spec

        class Ram:
            def __init__(self):
                self.cells = [0] * 4
                self.order = []

            def io_read(self, offset, width):
                self.order.append(("r", offset))
                return self.cells[offset]

            def io_write(self, offset, value, width):
                self.order.append(("w", offset))
                self.cells[offset] = value

        spec = compile_spec(POST_ACTION_SPEC)
        bus = Bus()
        ram = Ram()
        bus.map_device(0, 4, ram)
        device = spec.bind(bus, {"base": 0})
        device.get_v()
        # The post-action write to `counter` happens after the read.
        assert ram.order == [("r", 0), ("w", 1)]

    def test_post_action_in_generated_backends(self):
        from repro.devil.compiler import compile_spec
        import re
        spec = compile_spec(POST_ACTION_SPEC)
        header = spec.emit_c(prefix="pa")
        match = re.search(
            r"static inline unsigned pa__get_v\(pa_state_t \*d\)"
            r"\n\{.*?\n\}", header, re.S)
        assert match is not None
        get_body = match.group(0)
        assert get_body.index("devil_in") < get_body.index(
            "pa__set_accesses")
        # The module's post-action write also follows the read.
        namespace: dict = {}
        exec(compile(spec.emit_python(), "pa", "exec"), namespace)
        order = []

        class Recorder:
            def read(self, port, width):
                order.append(("r", port))
                return 0

            def write(self, value, port, width):
                order.append(("w", port))

        namespace["PaStubs"](Recorder(), 0).get_v()
        assert order == [("r", 0), ("w", 1)]
