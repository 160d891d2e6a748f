"""C stub generator: the paper's compilation artifact (Figure 3c).

From a checked specification this backend emits a self-contained C
header of ``static inline`` accessor stubs.  The shape follows the
paper's generated ``busmouse.dil.h``:

* a state struct holding the port base addresses, one cache word per
  register (the write-composition and structure cache) and one word
  per private memory variable;
* one ``<prefix>__get_<var>`` / ``<prefix>__set_<var>`` pair per
  readable/writable variable, performing pre/post/set actions, mask
  application, cache composition and trigger neutralisation exactly
  like the Python runtime;
* grouped structure accessors and ``block`` transfer stubs;
* ``DEVIL_DEBUG`` compiles in the run-time checks of §3.2
  (out-of-range writes, unfetched-structure reads);
* ``DEVIL_NO_REF`` (Figure 3a) declares a single global device state
  and wraps every stub in an argument-free macro, so driver code reads
  exactly like Figure 3b: ``bm_get_mouse_state(); dy = bm_get_dy();``.

The including translation unit provides the I/O primitives (the kernel
would map them to ``inb``/``outb``; the test harness maps them to the
simulated bus):

.. code-block:: c

    unsigned devil_in(unsigned port, int width);
    void devil_out(unsigned value, unsigned port, int width);
    void devil_in_rep(unsigned port, int width,
                      unsigned long count, unsigned *buffer);
    void devil_out_rep(unsigned port, int width,
                       unsigned long count, const unsigned *buffer);
"""

from __future__ import annotations

import threading

from ..errors import DevilCodegenError
from ..model import (
    ParamRef,
    ResolvedAction,
    ResolvedDevice,
    ResolvedRegister,
    ResolvedValue,
    ResolvedVariable,
    VarRef,
    Wildcard,
)
from ..stubs import BLOCK_KINDS, stub_table
from ..types import BoolType, EnumType, IntSetType, IntType


# Bump whenever the emitted C changes shape: the native build cache keys
# compiled shared libraries on this value, so stale .so files from an
# older emitter are never dlopen'ed against a newer state-struct layout.
# v4: the native shim is a CPython extension module.
CODEGEN_VERSION = 4

_HEADER_MEMO_LOCK = threading.Lock()


def generate_c_header(device: ResolvedDevice, prefix: str | None = None,
                      debug: bool = False) -> str:
    """Emit the C stub header for ``device``.

    ``prefix`` defaults to the device name; ``debug`` forces
    ``DEVIL_DEBUG`` on regardless of the including file.

    Emission is memoized per resolved device (same double-checked-lock
    pattern as ``repro.specs.compile_shipped``): a fleet binding N
    native instances of one spec emits the header once, not N times.
    Resolved devices are treated as immutable once emitted.
    """
    key = (prefix or device.name, bool(debug))
    memo = device.__dict__.get("_c_header_memo")
    if memo is not None:
        header = memo.get(key)
        if header is not None:
            return header
    with _HEADER_MEMO_LOCK:
        memo = device.__dict__.get("_c_header_memo")
        if memo is None:
            memo = {}
            device.__dict__["_c_header_memo"] = memo
        header = memo.get(key)
        if header is None:
            header = _CWriter(device, key[0], force_debug=debug).emit()
            memo[key] = header
    return header


def mode_check_message(register) -> str:
    """The header's ``DEVIL_CHECK`` text for a register addressed
    outside its mode (the native core maps it back to the register)."""
    return f"register {register.name} addressed outside mode " \
        f"{register.mode}"


def state_fields(device: ResolvedDevice) -> list[tuple[str, str, bool]]:
    """The fields of ``<prefix>_state_t`` as ``(C type, name, debug
    only)``: the header's struct and the native extension's member table
    are both written from this list.  The ``init_`` flags of memory
    variables are unconditional (the native runtime tracks
    initialisation in release builds too); only the ``DEVIL_CHECK``
    that consults them is debug-only."""
    memory = [v.name for v in device.variables.values() if v.memory]
    return ([("unsigned", f"port_{name}", False) for name in device.params]
            + [("unsigned", f"cache_{name}", False)
               for name in device.registers]
            + [("unsigned", f"mem_{name}", False) for name in memory]
            + [("unsigned char", f"init_{name}", False) for name in memory]
            + [("unsigned char", f"fetched_{name}", True)
               for name in device.structures])


def c_value_cast(prefix: str, variable: ResolvedVariable,
                 expr: str) -> str:
    """Cast a raw ``unsigned`` expression to a stub parameter's C type.

    The native dispatch shim marshals every argument as a width-masked
    ``unsigned``; signed stub parameters must be sign-extended back and
    enum parameters cast to their typedef before the stub call.
    """
    var_type = variable.type
    if isinstance(var_type, EnumType):
        name = var_type.name or variable.name
        return f"({prefix}_{name}_t)({expr})"
    if isinstance(var_type, IntType) and var_type.signed:
        return f"devil__sext({expr}, {var_type.width})"
    return expr


class _CWriter:
    """Stateful emitter for one header."""

    def __init__(self, device: ResolvedDevice, prefix: str,
                 force_debug: bool = False):
        self.device = device
        self.prefix = prefix
        self.force_debug = force_debug
        self.stubs = stub_table(device)
        self.lines: list[str] = []

    # ------------------------------------------------------------------
    # Low-level helpers
    # ------------------------------------------------------------------

    def _w(self, text: str = "") -> None:
        self.lines.append(text)

    def _sym(self, name: str) -> str:
        """Enum constant name: device prefix, upper-cased."""
        return f"{self.prefix.upper()}_{name}"

    def _port_expr(self, port: tuple[str, int]) -> str:
        base, offset = port
        if offset:
            return f"d->port_{base} + {offset}"
        return f"d->port_{base}"

    def _port_width(self, port: tuple[str, int]) -> int:
        return self.device.params[port[0]].data_width

    @staticmethod
    def _hex(value: int) -> str:
        return f"0x{value:x}u"

    def _value_const(self, value: ResolvedValue, variable_type) -> str:
        """C constant for a literal action value."""
        if isinstance(value, Wildcard):
            return "0u"
        if isinstance(value, bool):
            return "1u" if value else "0u"
        if isinstance(value, int):
            return self._hex(value & 0xFFFFFFFF)
        if isinstance(value, str):  # enum symbol
            return self._sym(value)
        raise DevilCodegenError(
            f"cannot emit C constant for action value {value!r}")

    def _c_type(self, variable: ResolvedVariable) -> str:
        var_type = variable.type
        if isinstance(var_type, EnumType):
            return f"{self.prefix}_{variable.name}_t" if not var_type.name \
                else f"{self.prefix}_{var_type.name}_t"
        if isinstance(var_type, IntType) and var_type.signed:
            return "int"
        return "unsigned"

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self) -> str:
        for register in self.device.registers.values():
            if register.width > 32:
                raise DevilCodegenError(
                    f"register {register.name!r} is wider than 32 bits; "
                    f"the C backend targets 32-bit I/O")
        guard = f"DEVIL_{self.prefix.upper()}_DIL_H"
        self._w(f"/* Generated by devilc from specification "
                f"'{self.device.name}'. Do not edit. */")
        self._w(f"#ifndef {guard}")
        self._w(f"#define {guard}")
        self._w()
        if self.force_debug:
            self._w("#ifndef DEVIL_DEBUG")
            self._w("#define DEVIL_DEBUG 1")
            self._w("#endif")
            self._w()
        self._emit_io_decls()
        self._emit_debug_support()
        self._emit_enum_types()
        self._emit_state_struct()
        self._emit_prototypes()
        self._emit_init()
        for variable in self.device.variables.values():
            if variable.memory:
                self._emit_memory_accessors(variable)
        for variable in self.device.variables.values():
            if variable.memory or variable.structure is not None:
                continue
            self._emit_variable_accessors(variable)
        for structure in self.device.structures:
            self._emit_structure_accessors(structure)
        for variable in self.device.variables.values():
            if variable.structure is not None:
                self._emit_member_getter(variable)
                # Members also get individual setters (compose-with-cache
                # register writes, like any other variable); reads stay
                # snapshot-based via the grouped fetch.
                self._emit_variable_accessors(variable, getter=False)
        for variable in self.device.variables.values():
            if variable.behaviors.block:
                self._emit_block_stubs(variable)
        self._emit_noref_macros()
        self._w(f"#endif /* {guard} */")
        return "\n".join(self.lines) + "\n"

    # -- prologue -------------------------------------------------------

    def _emit_io_decls(self) -> None:
        self._w("#ifndef DEVIL_IO_DECLARED")
        self._w("#define DEVIL_IO_DECLARED")
        self._w("extern unsigned devil_in(unsigned port, int width);")
        self._w("extern void devil_out(unsigned value, unsigned port, "
                "int width);")
        self._w("extern void devil_in_rep(unsigned port, int width, "
                "unsigned long count, unsigned *buffer);")
        self._w("extern void devil_out_rep(unsigned port, int width, "
                "unsigned long count, const unsigned *buffer);")
        self._w("#endif")
        self._w()
        self._w("#ifndef DEVIL_SEXT_DEFINED")
        self._w("#define DEVIL_SEXT_DEFINED")
        self._w("static inline int devil__sext(unsigned value, int width)")
        self._w("{")
        self._w("    unsigned sign = 1u << (width - 1);")
        self._w("    if (width < 32)")
        self._w("        value &= (1u << width) - 1u;")
        self._w("    return (int)((value ^ sign) - sign);")
        self._w("}")
        self._w("#endif")
        self._w()
        self._w("#ifndef DEVIL_OBS_ACTION")
        self._w("/* Observability hook, expanded before every "
                "action-triggered stub call")
        self._w("   (mirroring the Python runtime's record-then-execute "
                "order).  The")
        self._w("   native runtime shim overrides this to notify the "
                "span collector;")
        self._w("   standalone kernel-style builds compile it away. */")
        self._w("#define DEVIL_OBS_ACTION(kind, target) ((void)0)")
        self._w("#endif")
        self._w()

    def _emit_debug_support(self) -> None:
        self._w("#ifdef DEVIL_DEBUG")
        self._w("#ifndef DEVIL_CHECK")
        self._w("#include <assert.h>")
        self._w('#define DEVIL_CHECK(cond, msg) assert((cond) && (msg))')
        self._w("#endif")
        self._w("#endif")
        self._w()

    def _emit_enum_types(self) -> None:
        emitted: set[str] = set()
        for variable in self.device.variables.values():
            var_type = variable.type
            if not isinstance(var_type, EnumType):
                continue
            type_name = self._c_type(variable)
            if type_name in emitted:
                continue
            emitted.add(type_name)
            items = ", ".join(
                f"{self._sym(item.name)} = {item.value}"
                for item in var_type.items)
            self._w(f"typedef enum {{ {items} }} {type_name};")
        if emitted:
            self._w()

    def _emit_state_struct(self) -> None:
        p = self.prefix
        self._w(f"typedef struct {p}_state {{")
        fields = state_fields(self.device)
        for c_type, name, debug_only in fields:
            if not debug_only:
                self._w(f"    {c_type} {name};")
        self._w("#ifdef DEVIL_DEBUG")
        for c_type, name, debug_only in fields:
            if debug_only:
                self._w(f"    {c_type} {name};")
        self._w("#endif")
        self._w(f"}} {p}_state_t;")
        self._w()

    def _emit_prototypes(self) -> None:
        """Forward declarations: stubs call each other through actions
        (a register pre-action may write a structure whose setter is
        defined later), so every accessor is declared up front."""
        p = self.prefix
        readable, writable = self.stubs.readable, self.stubs.writable
        for variable in self.device.variables.values():
            name = variable.name
            c_type = self._c_type(variable)
            if name in readable:
                self._w(f"static inline {c_type} {p}__get_{name}"
                        f"({p}_state_t *d);")
            if name in writable:
                self._w(f"static inline void {p}__set_{name}"
                        f"({p}_state_t *d, {c_type} value);")
        for structure_name, structure in self.device.structures.items():
            members = [self.device.variables[m] for m in structure.members]
            if structure_name in readable:
                self._w(f"static inline void {p}__get_{structure_name}"
                        f"({p}_state_t *d);")
            if structure_name in writable:
                params = ", ".join(
                    f"{self._c_type(m)} {m.name}" for m in members)
                self._w(f"static inline void {p}__set_{structure_name}"
                        f"({p}_state_t *d, {params});")
        self._w()

    def _emit_init(self) -> None:
        p = self.prefix
        args = ", ".join(f"unsigned {name}_base"
                         for name in self.device.params)
        self._w(f"static inline void {p}__init({p}_state_t *d, {args})")
        self._w("{")
        for name in self.device.params:
            self._w(f"    d->port_{name} = {name}_base;")
        for name in self.device.registers:
            self._w(f"    d->cache_{name} = 0u;")
        for variable in self.device.variables.values():
            if variable.memory:
                self._w(f"    d->mem_{variable.name} = 0u;")
        if self.device.modes:
            # Reset into the first declared mode (enum value 0).
            self._w(f"    d->mem_device_mode = "
                    f"{self._sym(self.device.modes[0])};")
        for variable in self.device.variables.values():
            if variable.memory:
                init = "1" if (variable.name == "device_mode"
                               and self.device.modes) else "0"
                self._w(f"    d->init_{variable.name} = {init};")
        self._w("#ifdef DEVIL_DEBUG")
        for structure in self.device.structures:
            self._w(f"    d->fetched_{structure} = 0;")
        self._w("#endif")
        self._w("}")
        self._w()

    # -- actions --------------------------------------------------------

    def _emit_action(self, action: ResolvedAction, indent: str,
                     context_var: str | None = None,
                     context_param: str = "value",
                     kind: str = "reg-set") -> None:
        """Emit one pre/post/set action as stub calls."""
        p = self.prefix
        self._w(f'{indent}DEVIL_OBS_ACTION("{kind}", "{action.target}");')
        if action.target_kind == "structure":
            if not isinstance(action.value, dict):
                raise DevilCodegenError(
                    f"structure action on {action.target!r} needs a "
                    f"field map")
            structure = self.device.structures[action.target]
            args = []
            for member in structure.members:
                member_var = self.device.variables[member]
                args.append(self._action_value_expr(
                    action.value[member], member_var, context_var,
                    context_param))
            self._w(f"{indent}{p}__set_{action.target}(d, "
                    + ", ".join(args) + ");")
            return
        target = self.device.variables[action.target]
        expr = self._action_value_expr(action.value, target, context_var,
                                       context_param)
        self._w(f"{indent}{p}__set_{action.target}(d, {expr});")

    def _action_value_expr(self, value: ResolvedValue,
                           target: ResolvedVariable,
                           context_var: str | None,
                           context_param: str) -> str:
        if isinstance(value, VarRef):
            if context_var is not None and value.name == context_var:
                return context_param
            source = self.device.variables.get(value.name)
            if source is not None and source.memory:
                return f"d->mem_{value.name}"
            raise DevilCodegenError(
                f"C backend cannot evaluate reference to variable "
                f"{value.name!r} in this action context")
        if isinstance(value, ParamRef):
            raise DevilCodegenError(
                f"unsubstituted constructor parameter {value.name!r}")
        if isinstance(value, str):
            return f"({self._c_type(target)}){self._sym(value)}"
        return self._value_const(value, target.type)

    def _emit_mode_check(self, register: ResolvedRegister,
                         indent: str) -> None:
        if register.mode is None:
            return
        self._w("#ifdef DEVIL_DEBUG")
        self._w(f'{indent}DEVIL_CHECK(d->mem_device_mode == '
                f'(unsigned){self._sym(register.mode)}, '
                f'"{mode_check_message(register)}");')
        self._w("#endif")

    def _emit_register_read(self, register: ResolvedRegister,
                            indent: str = "    ") -> None:
        """pre-actions, devil_in into raw_<reg>, cache, post/set."""
        if register.read_port is None:
            raise DevilCodegenError(
                f"register {register.name!r} is write-only")
        self._emit_mode_check(register, indent)
        for action in register.pre_actions:
            self._emit_action(action, indent, kind="pre")
        self._w(f"{indent}raw_{register.name} = devil_in("
                f"{self._port_expr(register.read_port)}, "
                f"{self._port_width(register.read_port)});")
        self._w(f"{indent}d->cache_{register.name} = raw_{register.name} & "
                f"{self._hex(register.mask.variable_bits)};")
        for action in register.post_actions:
            self._emit_action(action, indent, kind="post")
        for action in register.set_actions:
            self._emit_action(action, indent, kind="reg-set")

    def _emit_register_write(self, register: ResolvedRegister,
                             composed_expr: str,
                             indent: str = "    ") -> None:
        if register.write_port is None:
            raise DevilCodegenError(
                f"register {register.name!r} is read-only")
        name = register.name
        self._emit_mode_check(register, indent)
        self._w(f"{indent}d->cache_{name} = ({composed_expr}) & "
                f"{self._hex(register.mask.variable_bits)};")
        for action in register.pre_actions:
            self._emit_action(action, indent, kind="pre")
        out_expr = f"(d->cache_{name} & " \
            f"{self._hex(register.mask.variable_bits)}) | " \
            f"{self._hex(register.mask.forced_value)}"
        self._w(f"{indent}devil_out({out_expr}, "
                f"{self._port_expr(register.write_port)}, "
                f"{self._port_width(register.write_port)});")
        for action in register.post_actions:
            self._emit_action(action, indent, kind="post")
        for action in register.set_actions:
            self._emit_action(action, indent, kind="reg-set")

    # -- value (de)composition ------------------------------------------

    def _assemble_expr(self, variable: ResolvedVariable,
                       raw_prefix: str = "raw_") -> str:
        """C expression concatenating the variable's chunks, MSB first."""
        parts = []
        offset = variable.width
        for chunk in variable.chunks:
            offset -= chunk.width
            chunk_mask = (1 << chunk.width) - 1
            extract = f"(({raw_prefix}{chunk.register} >> {chunk.lsb}) & " \
                f"{self._hex(chunk_mask)})"
            parts.append(f"({extract} << {offset})" if offset else extract)
        return " | ".join(parts) if parts else "0u"

    def _decode_expr(self, variable: ResolvedVariable, raw: str) -> str:
        var_type = variable.type
        if isinstance(var_type, BoolType):
            return f"({raw}) & 1u"
        if isinstance(var_type, EnumType):
            return f"({self._c_type(variable)})({raw})"
        if isinstance(var_type, IntType) and var_type.signed:
            return f"devil__sext({raw}, {var_type.width})"
        return raw

    def _compose_write_expr(self, register: ResolvedRegister,
                            writing: ResolvedVariable,
                            raw_param: str) -> str:
        """Composed register value: self bits + cache + trigger neutrals."""
        self_bits = 0
        insert_parts = []
        for chunk, value_lsb in writing.chunks_of(register.name):
            chunk_mask = (1 << chunk.width) - 1
            self_bits |= chunk_mask << chunk.lsb
            insert_parts.append(
                f"((({raw_param} >> {value_lsb}) & "
                f"{self._hex(chunk_mask)}) << {chunk.lsb})")
        neutral_bits = 0
        neutral_value = 0
        for neighbour in self.device.variables_of_register(register.name):
            if neighbour.name == writing.name:
                continue
            if neighbour.behaviors.write_triggers and \
                    neighbour.trigger_neutral_raw is not None:
                for chunk, value_lsb in \
                        neighbour.chunks_of(register.name):
                    chunk_mask = (1 << chunk.width) - 1
                    neutral_bits |= chunk_mask << chunk.lsb
                    field = (neighbour.trigger_neutral_raw >> value_lsb) \
                        & chunk_mask
                    neutral_value |= field << chunk.lsb
        keep_mask = register.mask.variable_bits & ~self_bits & ~neutral_bits
        parts = [f"(d->cache_{register.name} & {self._hex(keep_mask)})"]
        parts.extend(insert_parts)
        if neutral_value:
            parts.append(self._hex(neutral_value))
        return " | ".join(parts)

    # -- variable accessors ----------------------------------------------

    def _emit_memory_accessors(self, variable: ResolvedVariable) -> None:
        p = self.prefix
        name = variable.name
        c_type = self._c_type(variable)
        self._w(f"static inline {c_type} {p}__get_{name}"
                f"({p}_state_t *d)")
        self._w("{")
        self._w("#ifdef DEVIL_DEBUG")
        self._w(f'    DEVIL_CHECK(d->init_{name}, '
                f'"memory variable {name} read before initialisation");')
        self._w("#endif")
        self._w(f"    return ({c_type})d->mem_{name};")
        self._w("}")
        self._w()
        self._w(f"static inline void {p}__set_{name}"
                f"({p}_state_t *d, {c_type} value)")
        self._w("{")
        self._w(f"    d->mem_{name} = (unsigned)value;")
        self._w(f"    d->init_{name} = 1;")
        for action in variable.set_actions:
            self._emit_action(action, "    ", context_var=variable.name,
                              kind="var-set")
        self._w("}")
        self._w()

    def _emit_range_check(self, variable: ResolvedVariable,
                          param: str) -> None:
        var_type = variable.type
        self._w("#ifdef DEVIL_DEBUG")
        if isinstance(var_type, EnumType):
            legal = " || ".join(
                f"{param} == {self._sym(item.name)}"
                for item in var_type.writable_items)
            self._w(f'    DEVIL_CHECK({legal or "0"}, '
                    f'"illegal value for {variable.name}");')
        elif isinstance(var_type, IntSetType):
            legal = " || ".join(f"{param} == {v}"
                                for v in sorted(var_type.values))
            self._w(f'    DEVIL_CHECK({legal}, '
                    f'"value outside {variable.name} member set");')
        elif isinstance(var_type, IntType):
            if var_type.signed:
                self._w(f'    DEVIL_CHECK((int){param} >= '
                        f'{var_type.minimum} && (int){param} <= '
                        f'{var_type.maximum}, '
                        f'"value outside range of {variable.name}");')
            else:
                self._w(f'    DEVIL_CHECK({param} <= '
                        f'{self._hex(var_type.maximum)}, '
                        f'"value outside range of {variable.name}");')
        elif isinstance(var_type, BoolType):
            self._w(f'    DEVIL_CHECK({param} == 0u || {param} == 1u, '
                    f'"boolean value for {variable.name} must be 0/1");')
        self._w("#endif")

    def _encode_expr(self, variable: ResolvedVariable, param: str) -> str:
        width_mask = (1 << variable.width) - 1
        return f"((unsigned){param} & {self._hex(width_mask)})"

    def _emit_variable_accessors(self, variable: ResolvedVariable,
                                 getter: bool = True) -> None:
        p = self.prefix
        name = variable.name
        c_type = self._c_type(variable)
        if getter and name in self.stubs.readable:
            self._w(f"static inline {c_type} {p}__get_{name}"
                    f"({p}_state_t *d)")
            self._w("{")
            registers = [self.device.registers[r]
                         for r in variable.registers()]
            for register in registers:
                self._w(f"    unsigned raw_{register.name};")
            for register in registers:
                self._emit_register_read(register)
            raw = self._assemble_expr(variable)
            self._w(f"    return {self._decode_expr(variable, raw)};")
            self._w("}")
            self._w()
        if name in self.stubs.writable:
            self._w(f"static inline void {p}__set_{name}"
                    f"({p}_state_t *d, {c_type} value)")
            self._w("{")
            self._emit_range_check(variable, "value")
            self._w(f"    unsigned raw = "
                    f"{self._encode_expr(variable, 'value')};")
            for register_name in variable.registers():
                register = self.device.registers[register_name]
                composed = self._compose_write_expr(register, variable,
                                                    "raw")
                self._emit_register_write(register, composed)
            for action in variable.set_actions:
                self._emit_action(action, "    ",
                                  context_var=variable.name,
                                  kind="var-set")
            self._w("}")
            self._w()

    # -- structures -------------------------------------------------------

    def _structure_registers(self, structure_name: str) -> list[str]:
        structure = self.device.structures[structure_name]
        ordered: list[str] = []
        for member_name in structure.members:
            for chunk in self.device.variables[member_name].chunks:
                if chunk.register not in ordered:
                    ordered.append(chunk.register)
        return ordered

    def _emit_structure_accessors(self, structure_name: str) -> None:
        p = self.prefix
        structure = self.device.structures[structure_name]
        members = [self.device.variables[m] for m in structure.members]
        register_names = self._structure_registers(structure_name)
        registers = [self.device.registers[r] for r in register_names]

        if structure_name in self.stubs.readable:
            self._w(f"static inline void {p}__get_{structure_name}"
                    f"({p}_state_t *d)")
            self._w("{")
            for register in registers:
                self._w(f"    unsigned raw_{register.name};")
            for register in registers:
                self._emit_register_read(register)
            self._w("#ifdef DEVIL_DEBUG")
            self._w(f"    d->fetched_{structure_name} = 1;")
            self._w("#endif")
            self._w("}")
            self._w()

        if structure_name in self.stubs.writable:
            params = ", ".join(
                f"{self._c_type(m)} {m.name}" for m in members)
            self._w(f"static inline void {p}__set_{structure_name}"
                    f"({p}_state_t *d, {params})")
            self._w("{")
            for member in members:
                self._emit_range_check(member, member.name)
            for member in members:
                self._w(f"    unsigned raw_{member.name} = "
                        f"{self._encode_expr(member, member.name)};")
            if structure.serialization is not None:
                steps = structure.serialization
            else:
                from ..model import SerStep
                steps = [SerStep(name) for name in register_names]
            for step in steps:
                register = self.device.registers[step.register]
                indent = "    "
                if step.condition is not None:
                    cond_var, cond_raw = step.condition
                    self._w(f"    if (raw_{cond_var} == "
                            f"{self._hex(cond_raw)}) {{")
                    indent = "        "
                composed = self._compose_struct_write(register, members)
                self._emit_register_write(register, composed, indent)
                if step.condition is not None:
                    self._w("    }")
            for member in members:
                for action in member.set_actions:
                    self._emit_action(action, "    ",
                                      context_var=member.name,
                                      context_param=f"raw_{member.name}",
                                      kind="var-set")
            self._w("}")
            self._w()

    def _compose_struct_write(self, register: ResolvedRegister,
                              members: list[ResolvedVariable]) -> str:
        member_names = {m.name for m in members}
        written_bits = 0
        parts = []
        for member in members:
            for chunk, value_lsb in member.chunks_of(register.name):
                chunk_mask = (1 << chunk.width) - 1
                written_bits |= chunk_mask << chunk.lsb
                parts.append(
                    f"(((raw_{member.name} >> {value_lsb}) & "
                    f"{self._hex(chunk_mask)}) << {chunk.lsb})")
        neutral_value = 0
        neutral_bits = 0
        for neighbour in self.device.variables_of_register(register.name):
            if neighbour.name in member_names:
                continue
            if neighbour.behaviors.write_triggers and \
                    neighbour.trigger_neutral_raw is not None:
                for chunk, value_lsb in neighbour.chunks_of(register.name):
                    chunk_mask = (1 << chunk.width) - 1
                    neutral_bits |= chunk_mask << chunk.lsb
                    field = (neighbour.trigger_neutral_raw >> value_lsb) \
                        & chunk_mask
                    neutral_value |= field << chunk.lsb
        keep = register.mask.variable_bits & ~written_bits & ~neutral_bits
        expr_parts = [f"(d->cache_{register.name} & {self._hex(keep)})"]
        expr_parts.extend(parts)
        if neutral_value:
            expr_parts.append(self._hex(neutral_value))
        return " | ".join(expr_parts)

    def _emit_member_getter(self, variable: ResolvedVariable) -> None:
        """Structure members read the register caches, never the device."""
        p = self.prefix
        name = variable.name
        if name not in self.stubs.readable:
            return
        c_type = self._c_type(variable)
        self._w(f"static inline {c_type} {p}__get_{name}"
                f"({p}_state_t *d)")
        self._w("{")
        self._w("#ifdef DEVIL_DEBUG")
        self._w(f'    DEVIL_CHECK(d->fetched_{variable.structure}, '
                f'"read of {name} before {variable.structure} was '
                f'fetched");')
        self._w("#endif")
        raw = self._assemble_expr(variable, raw_prefix="d->cache_")
        self._w(f"    return {self._decode_expr(variable, raw)};")
        self._w("}")
        self._w()

    # -- block stubs -------------------------------------------------------

    def _emit_block_stubs(self, variable: ResolvedVariable) -> None:
        p = self.prefix
        name = variable.name
        register = self.device.registers[variable.chunks[0].register]
        if name in self.stubs.readable:
            self._w(f"static inline void {p}__read_{name}_block"
                    f"({p}_state_t *d, unsigned *buffer, "
                    f"unsigned long count)")
            self._w("{")
            for action in register.pre_actions:
                self._emit_action(action, "    ", kind="pre")
            self._w(f"    devil_in_rep({self._port_expr(register.read_port)},"
                    f" {self._port_width(register.read_port)}, count, "
                    f"buffer);")
            for action in register.post_actions:
                self._emit_action(action, "    ", kind="post")
            for action in register.set_actions:
                self._emit_action(action, "    ", kind="reg-set")
            self._w("}")
            self._w()
        if name in self.stubs.writable:
            self._w(f"static inline void {p}__write_{name}_block"
                    f"({p}_state_t *d, const unsigned *buffer, "
                    f"unsigned long count)")
            self._w("{")
            for action in register.pre_actions:
                self._emit_action(action, "    ", kind="pre")
            self._w(f"    devil_out_rep("
                    f"{self._port_expr(register.write_port)}, "
                    f"{self._port_width(register.write_port)}, count, "
                    f"buffer);")
            for action in register.post_actions:
                self._emit_action(action, "    ", kind="post")
            for action in register.set_actions:
                self._emit_action(action, "    ", kind="reg-set")
            self._w("}")
            self._w()

    # -- DEVIL_NO_REF -----------------------------------------------------

    def _emit_noref_macros(self) -> None:
        p = self.prefix
        self._w("#ifdef DEVIL_NO_REF")
        self._w(f"static {p}_state_t {p}_devil_state;")
        args = ", ".join(f"{name}_base" for name in self.device.params)
        self._w(f"#define {p}_init({args}) "
                f"{p}__init(&{p}_devil_state, {args})")
        for row in self.stubs.rows:
            if row.kind == "set":
                params = "v"
            elif row.kind in BLOCK_KINDS:
                params = "buf, n"
            else:  # a getter has none, a structure setter its members
                params = ", ".join(row.params)
            args = f"&{p}_devil_state" + (f", {params}" if params else "")
            self._w(f"#define {p}_{row.name}({params}) "
                    f"{p}__{row.name}({args})")
        self._w("#endif /* DEVIL_NO_REF */")
        self._w()
