"""The stub table: which stubs a device exposes, decided once.

The paper's compiler derives one interface from each specification
(§2, Figure 3c): a ``get``/``set`` stub per device variable in each
direction its registers allow, plus structure and block stubs.  This
module states that rule once.  Every backend (the interpreter, the
specializer and its generated module, the C header, the native shim
and loader), the ``.pyi`` emitter, span instrumentation, the CDevil
environment and the datasheet read the table it builds, so they cannot
disagree about a device's interface.

The rule:

* a variable is *readable* if it is a memory cell or every register
  it spans is readable, and *writable* likewise;
* a structure is readable if every member is, and writable likewise;
* a public variable has ``get_<v>`` if readable and ``set_<v>`` if
  writable; a ``block`` variable also has ``read_<v>_block`` and
  ``write_<v>_block`` in the same directions;
* a structure has ``get_<s>`` if readable and ``set_<s>`` if writable;
* private variables have no public stubs (the backends still emit the
  internal accessors their readable/writable names call for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import _MEMO_LOCK, ResolvedDevice

#: Row kinds whose stubs move a buffer of raw words.
BLOCK_KINDS = frozenset({"block_read", "block_write"})


class Stub(NamedTuple):
    """One public stub of a device."""

    #: Attribute and function name, e.g. ``"set_init"``.
    name: str
    #: ``"get"``, ``"set"``, ``"block_read"``, ``"block_write"``,
    #: ``"get_struct"`` or ``"set_struct"``.
    kind: str
    #: The variable or structure the stub accesses.
    target: str
    #: The variables whose values the arguments supply, in order; a
    #: block stub's count or buffer of raw words comes from none.
    params: tuple[str, ...]


@dataclass(frozen=True)
class StubTable:
    """The interface of one resolved device."""

    #: Readable variables (private ones included) and structures.
    readable: frozenset[str]
    #: Writable variables (private ones included) and structures.
    writable: frozenset[str]
    #: The public stubs: per public variable its get, set, block read
    #: and block write, then per structure its get and set.
    rows: tuple[Stub, ...]


def _compute(model: ResolvedDevice) -> StubTable:
    readable: set[str] = set()
    writable: set[str] = set()
    for name, variable in model.variables.items():
        registers = [model.registers[c.register] for c in variable.chunks]
        if variable.memory or all(r.readable for r in registers):
            readable.add(name)
        if variable.memory or all(r.writable for r in registers):
            writable.add(name)
    for name, structure in model.structures.items():
        if all(m in readable for m in structure.members):
            readable.add(name)
        if all(m in writable for m in structure.members):
            writable.add(name)
    rows: list[Stub] = []
    for variable in model.public_variables():
        name = variable.name
        if name in readable:
            rows.append(Stub(f"get_{name}", "get", name, ()))
        if name in writable:
            rows.append(Stub(f"set_{name}", "set", name, (name,)))
        if variable.behaviors.block:
            if name in readable:
                rows.append(Stub(f"read_{name}_block", "block_read",
                                 name, ()))
            if name in writable:
                rows.append(Stub(f"write_{name}_block", "block_write",
                                 name, ()))
    for name, structure in model.structures.items():
        if name in readable:
            rows.append(Stub(f"get_{name}", "get_struct", name, ()))
        if name in writable:
            rows.append(Stub(f"set_{name}", "set_struct", name,
                             tuple(structure.members)))
    return StubTable(frozenset(readable), frozenset(writable), tuple(rows))


def stub_table(model: ResolvedDevice) -> StubTable:
    """The model's stub table, computed at the first call and cached
    on it.

    Like :func:`repro.devil.plan.access_plan`, threads asking for one
    model's table at once compute it once, under
    :data:`~repro.devil.model._MEMO_LOCK`, and the checker does not
    compute it.
    """
    table = model.stubs
    if table is None:
        with _MEMO_LOCK:
            table = model.stubs
            if table is None:
                table = model.stubs = _compute(model)
    return table
