"""Static verification of Devil specifications (§3.1 of the paper).

The checker lowers a parsed :class:`~repro.devil.ast.DeviceDecl` into a
:class:`~repro.devil.model.ResolvedDevice` while enforcing the four
families of consistency rules the paper describes:

**Strong typing.**  Every use of a port, register, variable or type is
matched against its definition: port offsets must lie within the
declared range, register widths must match their ports' data widths,
masks must have exactly the register's width, bit ranges must fall
inside the register and on mask bits classified as variable bits,
variable types must have exactly the width of their bit chunks,
enumerated patterns must have the variable's width, and constant values
written by actions are range-checked at compile time.

**No omission.**  All declared entities must be used: every port
parameter and every offset of its declared range by some register,
every register by some variable, every named type by some variable,
every register constructor by some instantiation, and every mask bit
classified as a variable bit by exactly one variable.  Read mappings of
enumerated types on readable variables must be exhaustive.

**No double definition.**  One flat namespace covers port parameters,
registers, constructors, variables, structures and named types;
enumerated symbols must be unique within their type.

**No overlapping definitions.**  Two registers may share a port and
direction only if their masks are disjoint or their pre-actions differ
(index-based addressing); no register bit may belong to two variables.

Beyond §3.1's list the checker also enforces the behaviour rules of
§2.1: a write-trigger variable may share a register with other
variables only if it has a neutral value (``except``/``for``), and it
warns when volatile variables share a register across structure
boundaries (so reads cannot be made consistent).

**Resumed checks.**  Passes 2-4 resolve one declaration at a time, and
each resolution is a function of its node, the device header and the
entries its names looked up.  :func:`record_check` records that per
declaration; a :func:`check` with that ``baseline`` replays every
declaration it can prove unchanged and resolves only the ones an edit
can reach, then runs passes 5-10 over the assembled model.  Mutation
verdicts check mutants that way (:mod:`repro.mutation.targets`), with
a :class:`~repro.devil.errors.FirstErrorSink` that stops at the first
error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import ast
from .errors import DevilCheckError, DiagnosticSink, SourceLocation
from .mask import BitKind, Mask
from .model import (
    ParamRef,
    RegisterConstructor,
    ResolvedAction,
    ResolvedChunk,
    ResolvedDevice,
    ResolvedRegister,
    ResolvedStructure,
    ResolvedVariable,
    SerStep,
    VarRef,
    Wildcard,
)
from .types import (
    BoolType,
    DevilType,
    EnumDirection,
    EnumItem,
    EnumType,
    IntSetType,
    IntType,
)


def _index_values(param_type: DevilType):
    """Enumerable values of an integer constructor parameter."""
    if isinstance(param_type, IntSetType):
        return sorted(param_type.values)
    if isinstance(param_type, IntType) and not param_type.signed \
            and param_type.width <= 12:
        return range(param_type.maximum + 1)
    return None


def _has_actions(register: ResolvedRegister) -> bool:
    return bool(register.pre_actions or register.post_actions
                or register.set_actions)


def check(device: ast.DeviceDecl,
          sink: DiagnosticSink | None = None,
          baseline: CheckBaseline | None = None) -> ResolvedDevice:
    """Verify ``device`` and return its resolved model.

    Raises :class:`~repro.devil.errors.DevilCheckError` summarising every
    error found.  Pass a ``sink`` to also collect warnings, or a
    :class:`~repro.devil.errors.FirstErrorSink` to stop at the first
    error.

    ``baseline`` is the :func:`record_check` of an earlier declaration
    that ``device`` repeats except around an edit, sharing its
    unchanged declaration nodes (as a resumed
    :func:`~repro.devil.parser.parse` does).  The check then reuses
    the baseline's resolution of each type, register, variable and
    structure whose node is the baseline's and whose looked-up names
    still bind to the same baseline declarations, and resolves the
    others again; the model and diagnostics are a full check's.  An
    edit in the ``device`` header or a ``mode`` declaration checks in
    full.
    """
    if baseline is not None and baseline.resumes(device):
        return _ResumedChecker(device, sink, baseline).run()
    return Checker(device, sink).run()


def record_check(device: ast.DeviceDecl) -> CheckBaseline:
    """Check passes 1-4 of ``device`` and record, per declaration, what
    a resumed :func:`check` needs to reuse it (see :class:`_Entry`)."""
    return _RecordingChecker(device).record()


class Checker:
    """One verification run over one device declaration."""

    def __init__(self, device: ast.DeviceDecl,
                 sink: DiagnosticSink | None = None):
        self._ast = device
        self.sink = sink if sink is not None else DiagnosticSink()
        self.device = ResolvedDevice(device.name, location=device.location)
        # Flat namespace for the "no double definition" rule.
        self._namespace: dict[str, SourceLocation] = {}
        # Use tracking for the "no omission" rule.
        self._used_ports: set[tuple[str, int]] = set()
        self._used_registers: set[str] = set()
        self._used_types: set[str] = set()
        self._used_modes: set[str] = set()
        self._instantiated: set[str] = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self) -> ResolvedDevice:
        self._collect_params()
        self._collect_modes()
        self._collect_types()
        self._collect_registers()
        self._collect_variables_and_structures()
        self._validate_actions()
        self._check_bit_coverage()
        self._check_port_overlap()
        self._check_behaviour_rules()
        self._check_serializations()
        self._check_omissions()
        self.sink.raise_if_errors()
        return self.device

    def _collect(self, collect, decl: ast.Declaration) -> None:
        """Check one declaration of passes 2-4 (a type, register,
        variable or structure) with ``collect``; a resumed check may
        reuse what its baseline recorded for the declaration instead."""
        collect(decl)

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def _find(self, table: dict, name: str):
        """``table.get(name)``: every name a declaration looks up goes
        through here, so that a recording check can note it."""
        return table.get(name)

    def _declare(self, name: str, location: SourceLocation,
                 what: str) -> bool:
        previous = self._find(self._namespace, name)
        if previous is not None:
            self.sink.error(
                f"{what} {name!r} is already declared at {previous}",
                location, rule="no-double-definition")
            return False
        self._namespace[name] = location
        return True

    # ------------------------------------------------------------------
    # Pass 1: port parameters
    # ------------------------------------------------------------------

    def _collect_params(self) -> None:
        for param in self._ast.params:
            if not self._declare(param.name, param.location,
                                 "port parameter"):
                continue
            if param.data_width <= 0:
                self.sink.error(
                    f"port parameter {param.name!r} has non-positive data "
                    f"width {param.data_width}", param.location,
                    rule="strong-typing")
                continue
            self.device.params[param.name] = param

    # ------------------------------------------------------------------
    # Pass 1b: operating modes (§2.2 conditional declarations)
    # ------------------------------------------------------------------

    def _collect_modes(self) -> None:
        declarations = self._ast.mode_decls()
        if not declarations:
            return
        if len(declarations) > 1:
            self.sink.error(
                "a device declares its modes at most once",
                declarations[1].location, rule="no-double-definition")
        names: list[str] = []
        for declaration in declarations:
            for name in declaration.names:
                if name in names:
                    self.sink.error(
                        f"mode {name!r} is declared twice",
                        declaration.location,
                        rule="no-double-definition")
                    continue
                names.append(name)
        if len(names) < 2:
            self.sink.error(
                "a mode declaration needs at least two modes",
                declarations[0].location, rule="strong-typing")
            return
        self.device.modes = tuple(names)
        # The current mode is exposed as an implicit memory variable so
        # that actions (`set {device_mode = operational}`) and the
        # generated interface (`set_device_mode`) use the ordinary
        # machinery.
        if not self._declare("device_mode", declarations[0].location,
                             "variable"):
            return
        width = max((len(names) - 1).bit_length(), 1)
        items = tuple(
            EnumItem(name, format(index, f"0{width}b"),
                     EnumDirection.BOTH)
            for index, name in enumerate(names))
        self.device.variables["device_mode"] = ResolvedVariable(
            name="device_mode", type=EnumType(items, name="device_mode"),
            private=False, memory=True,
            location=declarations[0].location)

    # ------------------------------------------------------------------
    # Pass 2: named types
    # ------------------------------------------------------------------

    def _collect_types(self) -> None:
        for decl in self._ast.type_decls():
            self._collect(self._collect_type, decl)

    def _collect_type(self, decl: ast.TypeDecl) -> None:
        if not self._declare(decl.name, decl.location, "type"):
            return
        resolved = self._resolve_type_expr(decl.type_expr, name=decl.name)
        if resolved is not None:
            self.device.types[decl.name] = resolved

    def _resolve_type_expr(self, expr: ast.TypeExpr,
                           name: str = "") -> DevilType | None:
        """Lower a syntactic type to a concrete DevilType (or None on
        error, which has already been reported)."""
        if isinstance(expr, ast.BoolTypeExpr):
            return BoolType()
        if isinstance(expr, ast.IntTypeExpr):
            if expr.width <= 0:
                self.sink.error(f"integer width must be positive, got "
                                f"{expr.width}", expr.location,
                                rule="strong-typing")
                return None
            return IntType(expr.width, expr.signed)
        if isinstance(expr, ast.IntSetTypeExpr):
            values = expr.values()
            if not values:
                self.sink.error("empty integer set type", expr.location,
                                rule="strong-typing")
                return None
            return IntSetType(values)
        if isinstance(expr, ast.EnumTypeExpr):
            return self._resolve_enum_type(expr, name)
        if isinstance(expr, ast.NamedTypeExpr):
            resolved = self._find(self.device.types, expr.name)
            if resolved is None:
                self.sink.error(f"unknown type {expr.name!r}",
                                expr.location, rule="strong-typing")
                return None
            self._used_types.add(expr.name)
            return resolved
        raise AssertionError(f"unhandled type expression {expr!r}")

    def _resolve_enum_type(self, expr: ast.EnumTypeExpr,
                           name: str) -> EnumType | None:
        items: list[EnumItem] = []
        seen_names: dict[str, SourceLocation] = {}
        widths: set[int] = set()
        for item in expr.items:
            if item.name in seen_names:
                self.sink.error(
                    f"enumerated symbol {item.name!r} is declared twice",
                    item.location, rule="no-double-definition")
                continue
            seen_names[item.name] = item.location
            if any(char not in "01" for char in item.pattern):
                self.sink.error(
                    f"enumerated value '{item.pattern}' must be a pure "
                    f"binary pattern", item.location, rule="strong-typing")
                continue
            widths.add(len(item.pattern))
            items.append(EnumItem(item.name, item.pattern,
                                  item.direction))
        if len(widths) > 1:
            self.sink.error(
                f"enumerated type mixes pattern widths {sorted(widths)}",
                expr.location, rule="strong-typing")
            return None
        if not items:
            self.sink.error("empty enumerated type", expr.location,
                            rule="strong-typing")
            return None
        self._check_enum_pattern_clashes(items, expr.location)
        return EnumType(tuple(items), name=name)

    def _check_enum_pattern_clashes(self, items: list[EnumItem],
                                    location: SourceLocation) -> None:
        readable: dict[int, str] = {}
        for item in items:
            if not item.direction.readable:
                continue
            other = readable.get(item.value)
            if other is not None:
                self.sink.error(
                    f"readable symbols {other!r} and {item.name!r} share "
                    f"the bit pattern '{item.pattern}' — reads would be "
                    f"ambiguous", location, rule="no-double-definition")
            readable[item.value] = item.name

    # ------------------------------------------------------------------
    # Pass 3: registers and register constructors
    # ------------------------------------------------------------------

    def _collect_registers(self) -> None:
        # Declarations are processed in order so that instantiations can
        # reference earlier constructors, as in the paper's CS4236B spec.
        for decl in self._ast.registers():
            self._collect(self._collect_register, decl)

    def _collect_register(self, decl: ast.RegisterDecl) -> None:
        if not self._declare(decl.name, decl.location, "register"):
            return
        if decl.is_constructor:
            self._collect_constructor(decl)
        elif decl.base is not None:
            self._collect_instantiation(decl)
        else:
            register = self._resolve_plain_register(decl)
            if register is not None:
                self.device.registers[decl.name] = register

    def _resolve_port(self, port: ast.PortExpr | None,
                      width: int | None,
                      offset_params: dict[str, DevilType] | None = None
                      ) -> tuple[str, int] | None:
        """Resolve a port clause.

        ``offset_params`` supplies the constructor parameters a
        parameterized offset (``base @ 1 + i``) may reference; outside
        a constructor, a parameterized offset is an error.  For
        parameterized offsets, every reachable offset is range-checked
        here and the returned tuple carries only the constant part —
        instantiation adds the bound parameter value.
        """
        if port is None:
            return None
        param = self._find(self.device.params, port.base)
        if param is None:
            self.sink.error(f"unknown port parameter {port.base!r}",
                            port.location, rule="strong-typing")
            return None
        if width is not None and width != param.data_width:
            self.sink.error(
                f"register width {width} does not match the {param.data_width}"
                f"-bit data width of port {port.base!r}", port.location,
                rule="strong-typing")
        if port.offset_param is not None:
            if not offset_params or port.offset_param not in offset_params:
                self.sink.error(
                    f"offset parameter {port.offset_param!r} is not a "
                    f"parameter of this register constructor",
                    port.location, rule="strong-typing")
                return None
            param_type = offset_params[port.offset_param]
            values = _index_values(param_type)
            if values is None:
                self.sink.error(
                    f"offset parameter {port.offset_param!r} must have "
                    f"an integer type", port.location,
                    rule="strong-typing")
                return None
            for value in values:
                if port.offset + value not in param.offset_values():
                    self.sink.error(
                        f"offset {port.offset}+{port.offset_param} = "
                        f"{port.offset + value} (for "
                        f"{port.offset_param}={value}) falls outside the "
                        f"declared range of port {port.base!r}",
                        port.location, rule="strong-typing")
                    return None
            return (port.base, port.offset)
        if port.offset not in param.offset_values():
            self.sink.error(
                f"offset {port.offset} outside the declared range of port "
                f"{port.base!r}", port.location, rule="strong-typing")
            return None
        self._used_ports.add((port.base, port.offset))
        return (port.base, port.offset)

    def _resolve_plain_register(
            self, decl: ast.RegisterDecl) -> ResolvedRegister | None:
        if decl.width is None:
            self.sink.error(
                f"register {decl.name!r} does not declare its size "
                f"(e.g. ': bit[8]')", decl.location, rule="strong-typing")
            return None
        read_port = self._resolve_port(decl.read_port, decl.width)
        write_port = self._resolve_port(decl.write_port, decl.width)
        if read_port is None and write_port is None:
            self.sink.error(
                f"register {decl.name!r} has neither a read nor a write "
                f"port", decl.location, rule="strong-typing")
            return None
        mask = self._resolve_mask(decl.mask_pattern, decl.width,
                                  decl.location)
        if write_port is None and mask.forced_bits:
            self.sink.error(
                f"mask of read-only register {decl.name!r} forces bit "
                f"values, but forced bits are write constraints",
                decl.location, rule="strong-typing")
        return ResolvedRegister(
            name=decl.name,
            width=decl.width,
            mask=mask,
            read_port=read_port,
            write_port=write_port,
            pre_actions=self._lower_actions(decl.pre_actions, ()),
            post_actions=self._lower_actions(decl.post_actions, ()),
            set_actions=self._lower_actions(decl.set_actions, ()),
            mode=self._resolve_mode(decl),
            location=decl.location,
        )

    def _resolve_mode(self, decl: ast.RegisterDecl) -> str | None:
        if decl.mode is None:
            return None
        if decl.mode not in self.device.modes:
            self.sink.error(
                f"register {decl.name!r} names unknown mode "
                f"{decl.mode!r}", decl.location, rule="strong-typing")
            return None
        self._used_modes.add(decl.mode)
        return decl.mode

    def _resolve_mask(self, pattern: str | None, width: int,
                      location: SourceLocation) -> Mask:
        if pattern is None:
            return Mask.all_variable(width)
        try:
            return Mask.parse(pattern, width, location)
        except DevilCheckError as error:
            self.sink.error(error.message, error.location,
                            rule="strong-typing")
            return Mask.all_variable(width)

    def _collect_constructor(self, decl: ast.RegisterDecl) -> None:
        param_names: list[str] = []
        param_types: list[DevilType] = []
        for param in decl.params:
            if param.name in param_names:
                self.sink.error(
                    f"register parameter {param.name!r} declared twice",
                    param.location, rule="no-double-definition")
                continue
            resolved = self._resolve_type_expr(param.type_expr)
            if resolved is None:
                return
            param_names.append(param.name)
            param_types.append(resolved)
        if decl.base is not None:
            self.sink.error(
                f"register constructor {decl.name!r} cannot itself be an "
                f"instantiation", decl.location, rule="strong-typing")
            return
        offset_params = dict(zip(param_names, param_types))
        template = self._resolve_template(decl, tuple(param_names),
                                          offset_params)
        if template is None:
            return
        self.device.constructors[decl.name] = RegisterConstructor(
            decl.name, tuple(param_names), tuple(param_types), template,
            read_offset_param=(decl.read_port.offset_param
                               if decl.read_port else None),
            write_offset_param=(decl.write_port.offset_param
                                if decl.write_port else None),
            location=decl.location)

    def _resolve_template(self, decl: ast.RegisterDecl,
                          param_names: tuple[str, ...],
                          offset_params: dict[str, DevilType]
                          ) -> ResolvedRegister | None:
        if decl.width is None:
            self.sink.error(
                f"register constructor {decl.name!r} does not declare its "
                f"size", decl.location, rule="strong-typing")
            return None
        read_port = self._resolve_port(decl.read_port, decl.width,
                                       offset_params)
        write_port = self._resolve_port(decl.write_port, decl.width,
                                        offset_params)
        if read_port is None and write_port is None:
            self.sink.error(
                f"register constructor {decl.name!r} has no port",
                decl.location, rule="strong-typing")
            return None
        mask = self._resolve_mask(decl.mask_pattern, decl.width,
                                  decl.location)
        return ResolvedRegister(
            name=decl.name,
            width=decl.width,
            mask=mask,
            read_port=read_port,
            write_port=write_port,
            pre_actions=self._lower_actions(decl.pre_actions, param_names),
            post_actions=self._lower_actions(decl.post_actions, param_names),
            set_actions=self._lower_actions(decl.set_actions, param_names),
            mode=self._resolve_mode(decl),
            location=decl.location,
        )

    def _collect_instantiation(self, decl: ast.RegisterDecl) -> None:
        assert decl.base is not None
        constructor = self._find(self.device.constructors,
                                 decl.base.constructor)
        if constructor is None:
            self.sink.error(
                f"unknown register constructor {decl.base.constructor!r}",
                decl.base.location, rule="strong-typing")
            return
        arguments = tuple(decl.base.arguments)
        if len(arguments) != len(constructor.param_names):
            self.sink.error(
                f"constructor {constructor.name!r} takes "
                f"{len(constructor.param_names)} argument(s), got "
                f"{len(arguments)}", decl.base.location,
                rule="strong-typing")
            return
        for value, param_type, param_name in zip(
                arguments, constructor.param_types,
                constructor.param_names):
            if not param_type.contains(value):
                self.sink.error(
                    f"argument {value} for parameter {param_name!r} is "
                    f"outside {param_type}", decl.base.location,
                    rule="strong-typing")
                return
        self._instantiated.add(constructor.name)
        register = constructor.instantiate(decl.name, arguments)
        register.location = decl.location
        for concrete_port in (register.read_port, register.write_port):
            if concrete_port is not None:
                self._used_ports.add(concrete_port)
        if decl.width is not None and decl.width != register.width:
            self.sink.error(
                f"instance width {decl.width} differs from constructor "
                f"width {register.width}", decl.location,
                rule="strong-typing")
        if decl.mask_pattern is not None:
            extra = self._resolve_mask(decl.mask_pattern, register.width,
                                       decl.location)
            try:
                register.mask = register.mask.refine(extra, decl.location)
            except DevilCheckError as error:
                self.sink.error(error.message, error.location,
                                rule="strong-typing")
        if register.write_port is None and register.mask.forced_bits:
            self.sink.error(
                f"mask of read-only register {decl.name!r} forces bit "
                f"values, but forced bits are write constraints",
                decl.location, rule="strong-typing")
        if decl.mode is not None:
            register.mode = self._resolve_mode(decl)
        register.pre_actions.extend(self._lower_actions(decl.pre_actions, ()))
        register.post_actions.extend(
            self._lower_actions(decl.post_actions, ()))
        register.set_actions.extend(self._lower_actions(decl.set_actions, ()))
        self.device.registers[decl.name] = register

    # ------------------------------------------------------------------
    # Action lowering (validation happens later, once variables exist)
    # ------------------------------------------------------------------

    def _lower_actions(self, actions: list[ast.Action],
                       param_names: tuple[str, ...]) -> list[ResolvedAction]:
        return [ResolvedAction(
            action.target, "unresolved",
            self._lower_value(action.value, param_names), action.location)
            for action in actions]

    def _lower_value(self, value: ast.ActionValue,
                     param_names: tuple[str, ...]):
        if isinstance(value, ast.IntValue):
            return value.value
        if isinstance(value, ast.BoolValue):
            return value.value
        if isinstance(value, ast.WildcardValue):
            return Wildcard()
        if isinstance(value, ast.SymbolValue):
            if value.name in param_names:
                return ParamRef(value.name)
            # Enum symbol or variable reference — decided during
            # validation, once the target's type is known.
            return VarRef(value.name)
        if isinstance(value, ast.StructValue):
            return {name: self._lower_value(inner, param_names)
                    for name, inner in value.fields}
        raise AssertionError(f"unhandled action value {value!r}")

    # ------------------------------------------------------------------
    # Pass 4: variables and structures
    # ------------------------------------------------------------------

    def _collect_variables_and_structures(self) -> None:
        for decl in self._ast.declarations:
            if isinstance(decl, ast.VariableDecl):
                self._collect(self._collect_variable, decl)
            elif isinstance(decl, ast.StructureDecl):
                self._collect(self._collect_structure, decl)

    def _collect_structure(self, decl: ast.StructureDecl) -> None:
        if not self._declare(decl.name, decl.location, "structure"):
            return
        structure = ResolvedStructure(decl.name, location=decl.location)
        for member in decl.members:
            variable = self._collect_variable(member, structure=decl.name)
            if variable is not None:
                structure.members.append(variable.name)
        if decl.serialization is not None:
            structure.serialization = self._lower_ser_block(
                decl.serialization)
        if not structure.members:
            self.sink.error(f"structure {decl.name!r} has no members",
                            decl.location, rule="no-omission")
            return
        self.device.structures[decl.name] = structure

    def _lower_ser_block(self, block: list[ast.SerStmt]) -> list[SerStep]:
        steps: list[SerStep] = []
        for stmt in block:
            condition = None
            while isinstance(stmt, ast.SerIf):
                if condition is not None:
                    self.sink.error(
                        "nested serialization conditions are not supported",
                        stmt.location, rule="strong-typing")
                condition = (stmt.variable, self._lower_value(stmt.value, ()))
                stmt = stmt.body
            assert isinstance(stmt, ast.SerWrite)
            steps.append(SerStep(stmt.register, condition, stmt.location))
        return steps

    def _collect_variable(self, decl: ast.VariableDecl,
                          structure: str | None = None
                          ) -> ResolvedVariable | None:
        if not self._declare(decl.name, decl.location, "variable"):
            return None
        if decl.chunks is None:
            return self._collect_memory_variable(decl, structure)

        chunks: list[ResolvedChunk] = []
        for chunk in decl.chunks:
            resolved = self._resolve_chunk(chunk)
            if resolved is None:
                return None
            chunks.extend(resolved)
        width = sum(chunk.width for chunk in chunks)

        var_type = self._variable_type(decl, width)
        if var_type is None:
            return None
        if var_type.width != width:
            self.sink.error(
                f"variable {decl.name!r} is {width} bit(s) wide but its "
                f"type {var_type} is {var_type.width} bit(s)",
                decl.location, rule="strong-typing")
            return None

        variable = ResolvedVariable(
            name=decl.name,
            type=var_type,
            private=decl.private,
            chunks=chunks,
            behaviors=decl.behaviors,
            set_actions=self._lower_actions(decl.set_actions, ()),
            structure=structure,
            location=decl.location,
        )
        self._resolve_trigger(decl, variable)
        if decl.serialization is not None:
            variable.serialization = self._lower_variable_serialization(
                decl, variable)
        self._check_variable_directions(decl, variable)
        self.device.variables[decl.name] = variable
        return variable

    def _collect_memory_variable(self, decl: ast.VariableDecl,
                                 structure: str | None
                                 ) -> ResolvedVariable | None:
        if decl.type_expr is None:
            self.sink.error(
                f"memory variable {decl.name!r} needs an explicit type",
                decl.location, rule="strong-typing")
            return None
        var_type = self._resolve_type_expr(decl.type_expr)
        if var_type is None:
            return None
        if not decl.private:
            self.sink.error(
                f"memory variable {decl.name!r} must be private — it is "
                f"not mapped to any register", decl.location,
                rule="strong-typing")
        if decl.behaviors.volatile or decl.behaviors.block \
                or decl.behaviors.trigger is not None:
            self.sink.error(
                f"memory variable {decl.name!r} cannot carry behaviour "
                f"qualifiers", decl.location, rule="strong-typing")
        variable = ResolvedVariable(
            name=decl.name, type=var_type, private=True, memory=True,
            set_actions=self._lower_actions(decl.set_actions, ()),
            structure=structure, location=decl.location)
        self.device.variables[decl.name] = variable
        return variable

    def _resolve_chunk(self, chunk: ast.Chunk
                       ) -> list[ResolvedChunk] | None:
        register = self._find(self.device.registers, chunk.register)
        if register is None:
            what = ("register constructor — instantiate it first"
                    if self._find(self.device.constructors,
                                  chunk.register) is not None
                    else "register")
            self.sink.error(
                f"unknown {what} {chunk.register!r}", chunk.location,
                rule="strong-typing")
            return None
        self._used_registers.add(chunk.register)
        if chunk.ranges is None:
            return [ResolvedChunk(register.name, register.width - 1, 0)]
        resolved = []
        for bit_range in chunk.ranges:
            if bit_range.msb >= register.width:
                self.sink.error(
                    f"bit {bit_range.msb} outside the {register.width}-bit "
                    f"register {register.name!r}", bit_range.location,
                    rule="strong-typing")
                return None
            for bit in range(bit_range.lsb, bit_range.msb + 1):
                kind = register.mask.kinds[bit]
                if kind is not BitKind.VARIABLE:
                    self.sink.error(
                        f"bit {bit} of register {register.name!r} is "
                        f"marked {kind.value!r} by its mask and cannot "
                        f"belong to a variable", bit_range.location,
                        rule="strong-typing")
                    return None
            resolved.append(ResolvedChunk(register.name, bit_range.msb,
                                          bit_range.lsb))
        return resolved

    def _variable_type(self, decl: ast.VariableDecl,
                       width: int) -> DevilType | None:
        if decl.type_expr is None:
            # The paper's NE2000 fragment omits types whose enums are
            # "not shown"; an untyped variable defaults to an unsigned
            # integer of its natural width.
            return IntType(width)
        return self._resolve_type_expr(decl.type_expr)

    def _resolve_trigger(self, decl: ast.VariableDecl,
                         variable: ResolvedVariable) -> None:
        trigger = decl.behaviors.trigger
        if trigger is None:
            return
        if trigger.except_symbol is not None:
            var_type = variable.type
            if not isinstance(var_type, EnumType):
                self.sink.error(
                    f"'except {trigger.except_symbol}' on variable "
                    f"{variable.name!r} requires an enumerated type",
                    trigger.location, rule="strong-typing")
                return
            item = var_type.item(trigger.except_symbol)
            if item is None:
                self.sink.error(
                    f"neutral symbol {trigger.except_symbol!r} is not an "
                    f"element of {var_type}", trigger.location,
                    rule="strong-typing")
                return
            if not item.direction.writable:
                self.sink.error(
                    f"neutral symbol {trigger.except_symbol!r} must be "
                    f"writable", trigger.location, rule="strong-typing")
                return
            variable.trigger_neutral_raw = item.value
        elif trigger.for_value is not None:
            raw = self._encode_static(
                self._lower_value(trigger.for_value, ()), variable.type,
                trigger.location)
            if raw is None:
                return
            variable.trigger_for_raw = raw
            # Any value other than the trigger value is neutral; stubs
            # use the complement of its lowest bit within the width.
            limit = (1 << variable.type.width) - 1
            variable.trigger_neutral_raw = (raw ^ 1) & limit

    def _lower_variable_serialization(
            self, decl: ast.VariableDecl,
            variable: ResolvedVariable) -> list[str] | None:
        assert decl.serialization is not None
        order: list[str] = []
        for stmt in decl.serialization:
            if isinstance(stmt, ast.SerIf):
                self.sink.error(
                    "conditional serialization is only allowed on "
                    "structures", stmt.location, rule="strong-typing")
                return None
            assert isinstance(stmt, ast.SerWrite)
            order.append(stmt.register)
        expected = {chunk.register for chunk in variable.chunks}
        if set(order) != expected or len(order) != len(set(order)):
            self.sink.error(
                f"serialization of variable {variable.name!r} must list "
                f"each of its registers exactly once "
                f"({sorted(expected)})", decl.location,
                rule="strong-typing")
            return None
        return order

    def _check_variable_directions(self, decl: ast.VariableDecl,
                                   variable: ResolvedVariable) -> None:
        registers = [self.device.registers[c.register]
                     for c in variable.chunks]
        readable = all(r.readable for r in registers)
        writable = all(r.writable for r in registers)
        partially_readable = any(r.readable for r in registers)
        partially_writable = any(r.writable for r in registers)
        if readable != partially_readable:
            self.sink.error(
                f"variable {variable.name!r} spans registers with mixed "
                f"read capability", decl.location, rule="strong-typing")
        if writable != partially_writable:
            self.sink.error(
                f"variable {variable.name!r} spans registers with mixed "
                f"write capability", decl.location, rule="strong-typing")
        if not readable and not writable:
            self.sink.error(
                f"variable {variable.name!r} is neither readable nor "
                f"writable", decl.location, rule="strong-typing")
            return

        var_type = variable.type
        if readable and not var_type.can_decode():
            self.sink.error(
                f"variable {variable.name!r} is readable but its type "
                f"{var_type} has no read mapping", decl.location,
                rule="no-omission")
        if writable and not var_type.can_encode():
            self.sink.error(
                f"variable {variable.name!r} is writable but its type "
                f"{var_type} has no write mapping", decl.location,
                rule="no-omission")
        if isinstance(var_type, EnumType):
            if not readable and var_type.readable_items:
                self.sink.error(
                    f"type of variable {variable.name!r} has read "
                    f"mappings but the variable is write-only",
                    decl.location, rule="no-omission")
            if not writable and var_type.writable_items:
                self.sink.error(
                    f"type of variable {variable.name!r} has write "
                    f"mappings but the variable is read-only",
                    decl.location, rule="no-omission")
            if readable and not var_type.decode_is_exhaustive():
                self.sink.error(
                    f"read mapping of variable {variable.name!r} is not "
                    f"exhaustive: a {var_type.width}-bit read may deliver "
                    f"a value with no symbol", decl.location,
                    rule="no-omission")
        elif readable and not var_type.decode_is_exhaustive():
            self.sink.warning(
                f"reads of variable {variable.name!r} may deliver values "
                f"outside {var_type}; debug builds check this at run time",
                decl.location, rule="no-omission")

    # ------------------------------------------------------------------
    # Pass 5: action validation
    # ------------------------------------------------------------------

    def _validate_actions(self) -> None:
        """Validate every action.  Validation resolves each action's
        target kind and value, so the registers, constructors and
        variables holding actions are replaced by validated copies:
        the declarations' own objects are never changed, which lets a
        resumed check share them with its baseline."""
        registers = self.device.registers
        for name, register in registers.items():
            if _has_actions(register):
                registers[name] = self._validated_register(register)
        constructors = self.device.constructors
        for name, constructor in constructors.items():
            if _has_actions(constructor.template):
                params = dict(zip(constructor.param_names,
                                  constructor.param_types))
                constructors[name] = replace(
                    constructor, template=self._validated_register(
                        constructor.template, params))
        variables = self.device.variables
        for name, variable in variables.items():
            if variable.set_actions:
                variables[name] = replace(
                    variable,
                    set_actions=self._validated(variable.set_actions))

    def _validated_register(self, register: ResolvedRegister,
                            params: dict[str, DevilType] | None = None
                            ) -> ResolvedRegister:
        return replace(
            register,
            pre_actions=self._validated(register.pre_actions, params),
            post_actions=self._validated(register.post_actions, params),
            set_actions=self._validated(register.set_actions, params))

    def _validated(self, actions: list[ResolvedAction],
                   params: dict[str, DevilType] | None = None
                   ) -> list[ResolvedAction]:
        """``actions`` validated; ``params`` are the constructor
        parameters in scope (None outside a constructor)."""
        return [self._validate_action(action, params is not None,
                                      params or {})
                for action in actions]

    def _validate_action(self, action: ResolvedAction, allow_params: bool,
                         params: dict[str, DevilType]) -> ResolvedAction:
        structure = self.device.structures.get(action.target)
        if structure is not None:
            return ResolvedAction(
                action.target, "structure",
                self._validate_structure_value(action, structure,
                                               allow_params, params),
                action.location)
        variable = self.device.variables.get(action.target)
        if variable is None:
            self.sink.error(
                f"action targets unknown variable {action.target!r}",
                action.location, rule="strong-typing")
            return action
        if not variable.memory:
            for register_name in variable.registers():
                register = self.device.registers.get(register_name)
                if register is not None and not register.writable:
                    self.sink.error(
                        f"action writes variable {variable.name!r} whose "
                        f"register {register_name!r} is read-only",
                        action.location, rule="strong-typing")
        return ResolvedAction(
            action.target, "variable",
            self._validate_value(action.value, variable.type,
                                 action.location, allow_params, params),
            action.location)

    def _validate_structure_value(self, action: ResolvedAction,
                                  structure: ResolvedStructure,
                                  allow_params: bool,
                                  params: dict[str, DevilType]):
        """The validated ``{member: value}`` initializer of a structure
        write (``action.value`` itself after an error)."""
        value = action.value
        if not isinstance(value, dict):
            self.sink.error(
                f"writing structure {structure.name!r} requires a "
                f"{{field => value; ...}} initializer", action.location,
                rule="strong-typing")
            return value
        member_names = set(structure.members)
        for field_name in value:
            if field_name not in member_names:
                self.sink.error(
                    f"{field_name!r} is not a member of structure "
                    f"{structure.name!r}", action.location,
                    rule="strong-typing")
                return value
        missing = member_names - set(value)
        if missing:
            self.sink.error(
                f"structure write of {structure.name!r} must initialise "
                f"every member (missing: {sorted(missing)})",
                action.location, rule="no-omission")
            return value
        validated = {}
        for field_name, field_value in value.items():
            member = self.device.variables[field_name]
            validated[field_name] = self._validate_value(
                field_value, member.type, action.location,
                allow_params, params)
        return validated

    def _validate_value(self, value, target_type: DevilType,
                        location: SourceLocation, allow_params: bool,
                        params: dict[str, DevilType]):
        """Check one action value against the target's type.

        Returns the (possibly rewritten) value: ``VarRef`` placeholders
        resolve either to an enum symbol of the target type or to a
        reference to another variable.
        """
        if isinstance(value, Wildcard):
            return value
        if isinstance(value, ParamRef):
            if not allow_params or value.name not in params:
                self.sink.error(
                    f"parameter {value.name!r} is not in scope",
                    location, rule="strong-typing")
                return value
            param_type = params[value.name]
            if param_type.width > target_type.width:
                self.sink.error(
                    f"parameter {value.name!r} ({param_type}) is wider "
                    f"than the target's type {target_type}", location,
                    rule="strong-typing")
            return value
        if isinstance(value, VarRef):
            if isinstance(target_type, EnumType):
                item = target_type.item(value.name)
                if item is not None:
                    if not item.direction.writable:
                        self.sink.error(
                            f"symbol {value.name!r} is read-only",
                            location, rule="strong-typing")
                    return value.name  # resolved to an enum symbol
            source = self.device.variables.get(value.name)
            if source is None:
                self.sink.error(
                    f"{value.name!r} is neither a symbol of "
                    f"{target_type} nor a variable", location,
                    rule="strong-typing")
                return value
            if source.type.width != target_type.width:
                self.sink.error(
                    f"variable {value.name!r} ({source.type}) does not "
                    f"fit the target's type {target_type}", location,
                    rule="strong-typing")
            return value
        if isinstance(value, dict):
            self.sink.error(
                "structure initializer used where a scalar value is "
                "expected", location, rule="strong-typing")
            return value
        # Literal int / bool: the compile-time range check of §3.2.
        raw = self._encode_static(value, target_type, location)
        return value if raw is not None else value

    def _encode_static(self, value, target_type: DevilType,
                       location: SourceLocation) -> int | None:
        """Statically encode a literal; report a check error on failure."""
        if isinstance(value, VarRef):
            if isinstance(target_type, EnumType):
                item = target_type.item(value.name)
                if item is not None:
                    return item.value
            self.sink.error(
                f"{value.name!r} is not a symbol of {target_type}",
                location, rule="strong-typing")
            return None
        if isinstance(value, (Wildcard, ParamRef, dict)):
            self.sink.error(
                f"expected a literal value, got {value}", location,
                rule="strong-typing")
            return None
        if isinstance(value, str):
            if isinstance(target_type, EnumType):
                item = target_type.item(value)
                if item is not None:
                    return item.value
            self.sink.error(f"{value!r} is not a symbol of {target_type}",
                            location, rule="strong-typing")
            return None
        if not target_type.contains(value):
            self.sink.error(
                f"constant {value!r} is outside {target_type}", location,
                rule="strong-typing")
            return None
        if isinstance(value, bool):
            return 1 if value else 0
        assert isinstance(value, int)
        return target_type.encode(value)

    # ------------------------------------------------------------------
    # Pass 6: bit coverage (no omission / no overlap at the bit level)
    # ------------------------------------------------------------------

    def _check_bit_coverage(self) -> None:
        owners: dict[str, dict[int, str]] = {
            name: {} for name in self.device.registers}
        for variable in self.device.variables.values():
            for chunk in variable.chunks:
                register_owners = owners[chunk.register]
                for bit in range(chunk.lsb, chunk.msb + 1):
                    other = register_owners.get(bit)
                    if other is not None:
                        self.sink.error(
                            f"bit {bit} of register {chunk.register!r} "
                            f"belongs to both {other!r} and "
                            f"{variable.name!r}", variable.location,
                            rule="no-overlap")
                    register_owners[bit] = variable.name
        for name, register in self.device.registers.items():
            covered = owners[name]
            for bit in range(register.width):
                kind = register.mask.kinds[bit]
                if kind is BitKind.VARIABLE and bit not in covered:
                    self.sink.error(
                        f"bit {bit} of register {name!r} is not covered "
                        f"by any variable (mark it irrelevant in the mask "
                        f"if it carries no information)",
                        register.location, rule="no-omission")

    # ------------------------------------------------------------------
    # Pass 7: port overlap
    # ------------------------------------------------------------------

    @staticmethod
    def _actions_key(actions: list[ResolvedAction]) -> tuple:
        return tuple((a.target, repr(a.value)) for a in actions)

    def _serialization_groups(self) -> dict[str, str]:
        """Map each register to the serialization group that writes it.

        Registers written only as ordered steps of the same variable or
        structure serialization are disambiguated by control flow — the
        paper's 8259A example maps icw2/icw3/icw4 to one port and
        addresses them "implicitly ... by previously written
        configuration values".
        """
        groups: dict[str, str] = {}
        for variable in self.device.variables.values():
            if variable.serialization is not None:
                for register in variable.serialization:
                    groups[register] = f"variable:{variable.name}"
        for structure in self.device.structures.values():
            if structure.serialization is not None:
                for step in structure.serialization:
                    groups[step.register] = f"structure:{structure.name}"
        return groups

    def _check_port_overlap(self) -> None:
        groups = self._serialization_groups()
        for direction in ("read", "write"):
            by_port: dict[tuple[str, int], list[ResolvedRegister]] = {}
            for register in self.device.registers.values():
                port = (register.read_port if direction == "read"
                        else register.write_port)
                if port is not None:
                    by_port.setdefault(port, []).append(register)
            for port, registers in by_port.items():
                for i, first in enumerate(registers):
                    for second in registers[i + 1:]:
                        self._check_register_pair(port, direction,
                                                  first, second, groups)

    def _check_register_pair(self, port: tuple[str, int], direction: str,
                             first: ResolvedRegister,
                             second: ResolvedRegister,
                             groups: dict[str, str]) -> None:
        if first.mode is not None and second.mode is not None and \
                first.mode != second.mode:
            # Conditional declarations: the two registers can never be
            # addressed in the same device mode.
            return
        if first.mask.disjoint_with(second.mask):
            return
        if direction == "write" and \
                first.mask.write_discriminated_from(second.mask):
            return
        if self._actions_key(first.pre_actions) != \
                self._actions_key(second.pre_actions):
            return
        first_group = groups.get(first.name)
        second_group = groups.get(second.name)
        if first_group is not None and first_group == second_group:
            # Ordered steps of one serialization: control-flow based
            # addressing (the 8259A initialization sequence).
            return
        if first_group != second_group:
            # One register belongs to an init-style serialization, the
            # other to normal operation: distinguishable only by device
            # mode.  Devil's conditional declarations would express this
            # precisely; we accept it with a warning.
            self.sink.warning(
                f"registers {first.name!r} and {second.name!r} share "
                f"{direction} port {port[0]}@{port[1]} and are "
                f"distinguished only by device mode", second.location,
                rule="no-overlap")
            return
        self.sink.error(
            f"registers {first.name!r} and {second.name!r} overlap on "
            f"{direction} port {port[0]}@{port[1]} without disjoint masks "
            f"or distinguishing pre-actions", second.location,
            rule="no-overlap")

    # ------------------------------------------------------------------
    # Pass 8: behaviour rules (§2.1 caching and synchronization)
    # ------------------------------------------------------------------

    def _check_behaviour_rules(self) -> None:
        for name, register in self.device.registers.items():
            variables = self.device.variables_of_register(name)
            if len(variables) < 2:
                continue
            for variable in variables:
                if variable.behaviors.write_triggers and \
                        variable.trigger_neutral_raw is None:
                    self.sink.error(
                        f"write-trigger variable {variable.name!r} shares "
                        f"register {name!r} with other variables but has "
                        f"no neutral value ('except SYMBOL' or "
                        f"'for VALUE')", variable.location,
                        rule="behaviour")
            structures = {v.structure for v in variables
                          if v.behaviors.volatile}
            if structures and (len(structures) > 1 or None in structures):
                volatile_names = [v.name for v in variables
                                  if v.behaviors.volatile]
                self.sink.warning(
                    f"volatile variable(s) {volatile_names} share register "
                    f"{name!r} across structure boundaries; grouped reads "
                    f"cannot be made consistent", register.location,
                    rule="behaviour")

    # ------------------------------------------------------------------
    # Pass 9: serialization validation
    # ------------------------------------------------------------------

    def _check_serializations(self) -> None:
        """Validate structure serializations.  A step's condition value
        is encoded, so a structure with conditional steps is replaced
        by a copy (see :meth:`_validate_actions`)."""
        structures = self.device.structures
        for name, structure in structures.items():
            if structure.serialization is None:
                continue
            member_registers: set[str] = set()
            for member_name in structure.members:
                member = self.device.variables[member_name]
                member_registers.update(c.register for c in member.chunks)
            listed: set[str] = set()
            steps: list[SerStep] = []
            conditional = False
            for step in structure.serialization:
                steps.append(step)
                if step.register not in self.device.registers:
                    self.sink.error(
                        f"serialization of {structure.name!r} lists "
                        f"unknown register {step.register!r}",
                        step.location, rule="strong-typing")
                    continue
                if step.register not in member_registers:
                    self.sink.error(
                        f"serialization of {structure.name!r} lists "
                        f"register {step.register!r} that no member uses",
                        step.location, rule="strong-typing")
                listed.add(step.register)
                if step.condition is not None:
                    steps[-1] = self._check_ser_condition(structure, step)
                    conditional = True
            missing = member_registers - listed
            if missing:
                self.sink.error(
                    f"serialization of {structure.name!r} never writes "
                    f"register(s) {sorted(missing)}", structure.location,
                    rule="no-omission")
            if conditional:
                structures[name] = replace(structure, serialization=steps)

    def _check_ser_condition(self, structure: ResolvedStructure,
                             step: SerStep) -> SerStep:
        """``step`` with its condition value encoded (``step`` itself
        after an error)."""
        assert step.condition is not None
        variable_name, value = step.condition
        if variable_name not in structure.members:
            self.sink.error(
                f"serialization condition references {variable_name!r}, "
                f"which is not a member of {structure.name!r}",
                step.location, rule="strong-typing")
            return step
        member = self.device.variables[variable_name]
        raw = self._encode_static(value, member.type, step.location)
        if raw is None:
            return step
        return SerStep(step.register, (variable_name, raw), step.location)

    # ------------------------------------------------------------------
    # Pass 10: omission checks (unused entities)
    # ------------------------------------------------------------------

    def _check_omissions(self) -> None:
        for param in self.device.params.values():
            used_offsets = {offset for (base, offset) in self._used_ports
                            if base == param.name}
            if not used_offsets:
                self.sink.error(
                    f"port parameter {param.name!r} is never used",
                    param.location, rule="no-omission")
                continue
            unused = param.offset_values() - used_offsets
            if unused:
                self.sink.error(
                    f"offset(s) {sorted(unused)} of port {param.name!r} "
                    f"are declared but never used", param.location,
                    rule="no-omission")
        for name, register in self.device.registers.items():
            if name not in self._used_registers:
                self.sink.error(
                    f"register {name!r} is never used by any variable",
                    register.location, rule="no-omission")
        for name, constructor in self.device.constructors.items():
            if name not in self._instantiated:
                self.sink.error(
                    f"register constructor {name!r} is never instantiated",
                    constructor.location, rule="no-omission")
        for mode in self.device.modes:
            if mode not in self._used_modes:
                self.sink.error(
                    f"mode {mode!r} is declared but no register is "
                    f"restricted to it", self.device.location,
                    rule="no-omission")
        for name in self.device.types:
            if name not in self._used_types:
                self.sink.error(
                    f"type {name!r} is never used",
                    self._namespace.get(name, self.device.location),
                    rule="no-omission")


# ----------------------------------------------------------------------
# Resumed checks
# ----------------------------------------------------------------------

#: The model tables a declaration defines its names in.
_TABLES = ("types", "registers", "constructors", "variables", "structures")

#: The use sets a declaration adds to (read by the omission pass).
_USES = ("_used_ports", "_used_registers", "_used_types", "_used_modes",
         "_instantiated")

#: Who declared a name, in a recording check's provider map: the device
#: header (port parameters, ``device_mode``), which a resumed check
#: never resolves differently ...
_HEADER = object()
#: ... and, in a resumed check's map, a declaration resolved again.
_FRESH = object()


@dataclass
class _Entry:
    """What checking one declaration did in a baseline check.

    A resumed check replays it in place of resolving the declaration
    again when ``node`` is its declaration and every name in ``reads``
    is still declared by the same provider.  Resolution is a function
    of the node, the header and what the looked-up names resolved to,
    so the replay does exactly what resolving would.
    """

    node: ast.Declaration
    #: ``(name, provider)`` for every name the resolution looked up,
    #: misses included: the :class:`_Entry` that had declared it then,
    #: or None.  Names the header declared, or the entry itself before
    #: the lookup, are left out: they cannot differ when it replays.
    reads: tuple = ()
    #: ``(name, location)`` for each name it added to the namespace.
    declared: tuple = ()
    #: ``(table, name, object)`` for each model entry it defined; a
    #: resumed check shares these objects, which no pass changes.
    writes: tuple = ()
    #: ``(use set, items)`` for each use set it added to.
    uses: tuple = ()
    #: The diagnostics it emitted, warnings included, in order.
    diagnostics: tuple = ()


@dataclass
class CheckBaseline:
    """A recorded check of one device declaration (:func:`record_check`),
    kept so that checks of edited copies of it resume from it
    (:func:`check`'s ``baseline``)."""

    name: str
    params: list[ast.PortParam]
    location: SourceLocation
    modes: tuple[ast.ModeDecl, ...]
    #: One entry per type, register, variable and structure
    #: declaration, in check order.
    entries: tuple[_Entry, ...]
    #: ``entries`` keyed by the ``id`` of their node.
    index: dict[int, _Entry] = field(init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        self.index = {id(entry.node): entry for entry in self.entries}

    def resumes(self, device: ast.DeviceDecl) -> bool:
        """True unless ``device`` edits the header or a ``mode``
        declaration, which every declaration may depend on."""
        modes = device.mode_decls()
        return (device.name == self.name and device.params == self.params
                and device.location == self.location
                and len(modes) == len(self.modes)
                and all(mode is old for mode, old in zip(modes, self.modes)))


class _RecordingChecker(Checker):
    """Passes 1-4 of a check, recording one :class:`_Entry` per
    declaration."""

    def __init__(self, device: ast.DeviceDecl):
        super().__init__(device)
        self._entries: list[_Entry] = []
        #: name -> the entry (or ``_HEADER``) that declared it.
        self._providers: dict[str, object] = {}
        self._entry: object = _HEADER
        self._reads: dict[str, object] = {}
        self._declared: list[tuple[str, SourceLocation]] = []

    def record(self) -> CheckBaseline:
        self._collect_params()
        self._collect_modes()
        self._collect_types()
        self._collect_registers()
        self._collect_variables_and_structures()
        syntax = self._ast
        return CheckBaseline(syntax.name, syntax.params, syntax.location,
                             tuple(syntax.mode_decls()),
                             tuple(self._entries))

    def _find(self, table: dict, name: str):
        provider = self._providers.get(name)
        if provider is not self._entry and provider is not _HEADER:
            self._reads.setdefault(name, provider)
        return table.get(name)

    def _declare(self, name: str, location: SourceLocation,
                 what: str) -> bool:
        if not super()._declare(name, location, what):
            return False
        self._providers[name] = self._entry
        self._declared.append((name, location))
        return True

    def _collect(self, collect, decl: ast.Declaration) -> None:
        entry = _Entry(decl)
        self._entry, self._reads, self._declared = entry, {}, []
        outer = [getattr(self, use) for use in _USES]
        for use in _USES:
            setattr(self, use, set())
        mark = len(self.sink.diagnostics)
        collect(decl)
        entry.reads = tuple(self._reads.items())
        entry.declared = tuple(self._declared)
        entry.writes = tuple(
            (table, name, getattr(self.device, table)[name])
            for name, _ in self._declared for table in _TABLES
            if name in getattr(self.device, table))
        entry.uses = tuple((use, frozenset(getattr(self, use)))
                           for use in _USES if getattr(self, use))
        entry.diagnostics = tuple(self.sink.diagnostics[mark:])
        for use, items in zip(_USES, outer):
            items |= getattr(self, use)
            setattr(self, use, items)
        self._entries.append(entry)


class _ResumedChecker(Checker):
    """A check that replays its baseline's entries where they hold."""

    def __init__(self, device: ast.DeviceDecl,
                 sink: DiagnosticSink | None, baseline: CheckBaseline):
        super().__init__(device, sink)
        self._index = baseline.index
        #: name -> the baseline entry replayed for it, or ``_FRESH``.
        self._providers: dict[str, object] = {}

    def _declare(self, name: str, location: SourceLocation,
                 what: str) -> bool:
        if not super()._declare(name, location, what):
            return False
        self._providers[name] = _FRESH
        return True

    def _collect(self, collect, decl: ast.Declaration) -> None:
        entry = self._index.get(id(decl))
        providers = self._providers
        if entry is None or entry.node is not decl or any(
                providers.get(name) is not provider
                for name, provider in entry.reads):
            collect(decl)
            return
        namespace = self._namespace
        for name, location in entry.declared:
            namespace[name] = location
            providers[name] = entry
        device = self.device
        for table, name, value in entry.writes:
            getattr(device, table)[name] = value
        for use, items in entry.uses:
            getattr(self, use).update(items)
        sink = self.sink
        for diagnostic in entry.diagnostics:
            report = sink.error if diagnostic.severity == "error" \
                else sink.warning
            report(diagnostic.message, diagnostic.location, diagnostic.rule)
