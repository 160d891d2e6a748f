"""Datasheet generator: render a checked specification as Markdown.

§4.1 of the paper: "The Devil specification is so close to a device
description that it can be used for documentation purposes."  This
backend takes that literally: from the resolved model it produces a
device datasheet — port map, register map with bit layouts, the
functional interface with types and behaviours, structures, modes —
the page a driver writer would otherwise dig out of a vendor PDF.

Exposed as ``devilc doc SPEC.devil``.
"""

from __future__ import annotations

from .mask import BitKind
from .model import (
    ResolvedDevice,
    ResolvedRegister,
    ResolvedVariable,
)
from .stubs import stub_table
from .types import EnumType


def generate_markdown(device: ResolvedDevice) -> str:
    """Render the datasheet for ``device``."""
    writer = _DocWriter(device)
    return writer.emit()


class _DocWriter:
    def __init__(self, device: ResolvedDevice):
        self.device = device
        self.lines: list[str] = []

    def _w(self, text: str = "") -> None:
        self.lines.append(text)

    def emit(self) -> str:
        device = self.device
        self._w(f"# Device `{device.name}`")
        self._w()
        self._w(f"Generated from the Devil specification; "
                f"{len(device.registers)} register(s), "
                f"{len(device.public_variables())} public variable(s).")
        self._w()
        self._emit_ports()
        if device.modes:
            self._emit_modes()
        self._emit_registers()
        self._emit_interface()
        self._emit_structures()
        return "\n".join(self.lines) + "\n"

    # ------------------------------------------------------------------

    def _emit_ports(self) -> None:
        self._w("## Ports")
        self._w()
        self._w("| port | data width | valid offsets |")
        self._w("|---|---|---|")
        for name, param in self.device.params.items():
            offsets = ", ".join(
                str(low) if low == high else f"{low}–{high}"
                for low, high in param.offsets)
            self._w(f"| `{name}` | {param.data_width} bits | {offsets} |")
        self._w()

    def _emit_modes(self) -> None:
        self._w("## Operating modes")
        self._w()
        names = ", ".join(f"`{mode}`" for mode in self.device.modes)
        self._w(f"{names} — reset state `{self.device.modes[0]}`; "
                f"switch with `set_device_mode(...)`.")
        self._w()

    # ------------------------------------------------------------------

    def _bit_layout(self, register: ResolvedRegister) -> str:
        """One cell per bit, MSB first, naming the owning variable."""
        owners: dict[int, str] = {}
        for variable in self.device.variables_of_register(register.name):
            for chunk in variable.chunks:
                if chunk.register != register.name:
                    continue
                for bit in range(chunk.lsb, chunk.msb + 1):
                    owners[bit] = variable.name
        cells = []
        for bit in range(register.width - 1, -1, -1):
            kind = register.mask.kinds[bit]
            if kind is BitKind.VARIABLE:
                cells.append(owners.get(bit, "?"))
            elif kind in (BitKind.FORCE0, BitKind.FORCE1):
                cells.append(kind.value)
            else:
                cells.append("–")
        return " \\| ".join(cells)

    def _register_access(self, register: ResolvedRegister) -> str:
        if register.readable and register.writable:
            return "R/W"
        return "R" if register.readable else "W"

    def _emit_registers(self) -> None:
        self._w("## Register map")
        self._w()
        self._w("| register | port | access | mode | bits "
                "(msb → lsb) |")
        self._w("|---|---|---|---|---|")
        for name, register in self.device.registers.items():
            port = register.read_port or register.write_port
            assert port is not None
            port_text = f"`{port[0]}`+{port[1]}"
            if register.read_port and register.write_port and \
                    register.read_port != register.write_port:
                port_text = (f"r `{register.read_port[0]}`+"
                             f"{register.read_port[1]} / w "
                             f"`{register.write_port[0]}`+"
                             f"{register.write_port[1]}")
            mode = register.mode or "—"
            self._w(f"| `{name}` | {port_text} | "
                    f"{self._register_access(register)} | {mode} | "
                    f"{self._bit_layout(register)} |")
        self._w()
        notes = []
        for name, register in self.device.registers.items():
            for label, actions in (("pre", register.pre_actions),
                                   ("post", register.post_actions),
                                   ("set", register.set_actions)):
                for action in actions:
                    notes.append(
                        f"* `{name}` {label}-action: "
                        f"`{action.target} = {action.value}`")
        if notes:
            self._w("Access actions:")
            self._w()
            for note in notes:
                self._w(note)
            self._w()

    # ------------------------------------------------------------------

    def _behaviours(self, variable: ResolvedVariable) -> str:
        flags = []
        if variable.behaviors.volatile:
            flags.append("volatile")
        if variable.behaviors.trigger is not None:
            text = "trigger"
            if variable.trigger_neutral_raw is not None and \
                    variable.trigger_for_raw is None:
                text += f" (neutral {variable.trigger_neutral_raw:#x})"
            if variable.trigger_for_raw is not None:
                text += f" (for {variable.trigger_for_raw:#x})"
            flags.append(text)
        if variable.behaviors.block:
            flags.append("block")
        return ", ".join(flags) if flags else "idempotent"

    def _layout(self, variable: ResolvedVariable) -> str:
        if variable.memory:
            return "memory cell"
        return " # ".join(f"`{c.register}`[{c.msb}..{c.lsb}]"
                          for c in variable.chunks)

    def _emit_interface(self) -> None:
        self._w("## Functional interface (device variables)")
        self._w()
        self._w("| variable | type | layout | behaviour | stubs |")
        self._w("|---|---|---|---|---|")
        stubs: dict[str, list[str]] = {}
        for row in stub_table(self.device).rows:
            stubs.setdefault(row.target, []).append(f"`{row.name}`")
        for variable in self.device.public_variables():
            self._w(f"| `{variable.name}` | {variable.type} | "
                    f"{self._layout(variable)} | "
                    f"{self._behaviours(variable)} | "
                    f"{', '.join(stubs[variable.name])} |")
        self._w()
        self._emit_enums()
        private_names = [v.name for v in self.device.variables.values()
                         if v.private]
        if private_names:
            self._w(f"Private (hidden from the interface): "
                    + ", ".join(f"`{name}`" for name in private_names)
                    + ".")
            self._w()

    def _emit_enums(self) -> None:
        emitted = False
        for variable in self.device.variables.values():
            if variable.private or not isinstance(variable.type, EnumType):
                continue
            if not emitted:
                self._w("Enumerated values:")
                self._w()
                emitted = True
            items = ", ".join(
                f"`{item.name}` {item.direction.value} "
                f"'{item.pattern}'" for item in variable.type.items)
            self._w(f"* `{variable.name}`: {items}")
        if emitted:
            self._w()

    def _emit_structures(self) -> None:
        if not self.device.structures:
            return
        self._w("## Structures (grouped access)")
        self._w()
        for name, structure in self.device.structures.items():
            members = ", ".join(f"`{m}`" for m in structure.members)
            self._w(f"* `{name}`: {members}")
            if structure.serialization is not None:
                steps = []
                for step in structure.serialization:
                    text = f"`{step.register}`"
                    if step.condition is not None:
                        variable, raw = step.condition
                        text += f" (if `{variable}` == {raw:#x})"
                    steps.append(text)
                self._w(f"  — written in order: {' → '.join(steps)}")
        self._w()
