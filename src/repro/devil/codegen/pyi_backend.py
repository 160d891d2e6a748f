"""``.pyi`` typing-stub backend: autocomplete for bound devices.

A bound device instance grows its stub surface dynamically (one
attribute per row of :func:`repro.devil.stubs.stub_table`, set at bind
time), which static type checkers and editors cannot see.  This backend
emits a PEP 561-style ``.pyi`` module per spec with a ``Protocol``
describing that surface — enum variables become ``Literal`` unions of
their symbols, booleans ``bool``, integers ``int``, structures typed
``get``/keyword-only ``set`` pairs — plus the batched-dispatch seam of
the native strategy (``repeat``/``sync_to_bus``/``state_blob``).

The shipped stubs live in ``src/repro/specs/stubs/`` and are kept
fresh by ``tests/test_c_backend.py``; regenerate one with::

    devilc compile SPEC.devil --backend pyi -o stubs/<name>.pyi
"""

from __future__ import annotations

from ..model import ResolvedDevice, ResolvedVariable
from ..stubs import stub_table
from ..types import BoolType, EnumType


def _symbol_literal(items) -> str:
    names = ", ".join(f'"{item.name}"' for item in items)
    return f"Literal[{names}]"


def _read_annotation(variable: ResolvedVariable) -> str:
    """Type of values a getter returns (release mode may fall back to
    the raw int when decode fails, so enum reads admit ``int`` too)."""
    var_type = variable.type
    if isinstance(var_type, BoolType):
        return "bool"
    if isinstance(var_type, EnumType):
        items = var_type.readable_items
        if not items:
            return "int"
        literal = _symbol_literal(items)
        if var_type.decode_is_exhaustive():
            return literal
        return f"{literal} | int"
    return "int"


def _write_annotation(variable: ResolvedVariable) -> str:
    """Type of values a setter accepts."""
    var_type = variable.type
    if isinstance(var_type, BoolType):
        return "bool"
    if isinstance(var_type, EnumType):
        items = var_type.writable_items
        if not items:
            return "str"
        return _symbol_literal(items)
    return "int"


def stub_class_name(device_name: str) -> str:
    """``logitech_busmouse`` -> ``LogitechBusmouseStubs`` (the class of
    the generated module and of its typing stub)."""
    return "".join(part.capitalize()
                   for part in device_name.split("_")) + "Stubs"


def generate_pyi(model: ResolvedDevice) -> str:
    """Emit the ``.pyi`` typing-stub module for ``model``."""
    uses_literal = False
    methods: list[str] = []
    for stub, kind, target, params in stub_table(model).rows:
        if kind == "get":
            annotation = _read_annotation(model.variables[target])
            methods.append(f"    def {stub}(self) -> {annotation}: ...")
        elif kind == "set":
            annotation = _write_annotation(model.variables[target])
            methods.append(f"    def {stub}(self, value: {annotation}) "
                           f"-> None: ...")
        elif kind == "block_read":
            methods.append(f"    def {stub}(self, count: int) "
                           f"-> list[int]: ...")
        elif kind == "block_write":
            methods.append(f"    def {stub}(self, values: "
                           f"Sequence[int]) -> int: ...")
        elif kind == "get_struct":
            structure = model.structures[target]
            value_types = sorted({
                _read_annotation(model.variables[m])
                for m in structure.members})
            union = " | ".join(value_types)
            methods.append(f"    def {stub}(self) "
                           f"-> dict[str, {union}]: ...")
        else:  # set_struct
            keywords = ", ".join(
                f"{m}: {_write_annotation(model.variables[m])}"
                for m in params)
            methods.append(f"    def {stub}(self, *, {keywords}) "
                           f"-> None: ...")
        uses_literal = uses_literal or "Literal[" in methods[-1]

    lines = [
        f"# Typing stubs for the {model.name!r} device API "
        f"(all bind() strategies).",
        "# Generated by `devilc compile --backend pyi` — do not edit "
        "by hand;",
        "# tests/test_c_backend.py fails when this file goes stale.",
        "",
    ]
    imports = ["Protocol", "Sequence"]
    if uses_literal:
        imports.insert(0, "Literal")
    lines.append(f"from typing import {', '.join(imports)}")
    lines += [
        "",
        "",
        f"class {stub_class_name(model.name)}(Protocol):",
        *methods,
        "",
        "    # Generic accessors (every strategy).",
        "    def get(self, name: str) -> object: ...",
        "    def set(self, name: str, value: object) -> None: ...",
        "    def get_structure(self, name: str) "
        "-> dict[str, object]: ...",
        "    def set_structure(self, name: str, "
        "values: dict[str, object]) -> None: ...",
        "    def read_block(self, name: str, count: int) "
        "-> list[int]: ...",
        "    def write_block(self, name: str, "
        "values: Sequence[int]) -> int: ...",
        "    def invalidate_caches(self) -> None: ...",
        "",
        "    # Batched dispatch and parity seams "
        "(strategy='native').",
        "    def repeat(self, stub: str, n: int, "
        "*args: object) -> object: ...",
        "    def sync_to_bus(self) -> None: ...",
        "    def state_blob(self) -> bytes: ...",
        "",
    ]
    return "\n".join(lines)
