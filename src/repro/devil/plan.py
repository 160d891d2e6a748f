"""Static access-plan analysis: register volatility classification.

The paper's performance argument (§4.3, Tables 2–4) rests on the
compiler knowing, per register, whether port I/O can be avoided: a
register whose variables are all idempotent ("can be cached", §2.1)
never needs to be re-read once its value is known, while a ``volatile``
variable pins its register to the device and a ``trigger`` access has
an unrepeatable side effect that may change *other* registers behind
the driver's back.

This module derives that classification once per bound model, from
the behaviour qualifiers alone — no runtime information is needed,
which is exactly why the paper can do the optimisation in the
compiler.  All three execution strategies (interpreter, bind-time
specializer, generated stub module) consume the same
:class:`AccessPlan`, so they cannot disagree about which reads are
elidable or which writes invalidate the shadow cache.

Classification per register:

``cacheable``
    Every owning variable is idempotent: reads are elidable once a
    shadow value is known (the register cannot change on its own), and
    writes keep the shadow valid.
``volatile``
    Some owning variable is ``volatile``: the device may change the
    register spontaneously, so reads always reach the bus.
``trigger``
    Some owning variable ``trigger``\\ s: accessing the register has a
    side effect.  A *write*-trigger write (and a *read*-trigger read)
    acts as a **barrier**: it may mutate arbitrary device state, so it
    invalidates every register's shadow validity.  Block transfers act
    as barriers for the same reason (a remote-DMA transfer decrements
    the byte-count registers as it runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .model import _MEMO_LOCK, ResolvedDevice


@dataclass(frozen=True)
class RegisterPlan:
    """The static access classification of one register."""

    register: str
    #: ``"cacheable"`` | ``"volatile"`` | ``"trigger"``.
    classification: str
    #: A read may be served from the shadow cache once valid: the
    #: register is readable and no owner is volatile or a trigger.
    read_elidable: bool
    #: Reading this register has side effects (read-trigger owner):
    #: every shadow is invalidated by the read.
    read_barrier: bool
    #: Writing this register has side effects (write-trigger owner):
    #: every shadow is invalidated by the write.
    write_barrier: bool


@dataclass(frozen=True)
class AccessPlan:
    """Per-register :class:`RegisterPlan` for one resolved device."""

    device: str
    registers: Mapping[str, RegisterPlan]

    def __getitem__(self, register: str) -> RegisterPlan:
        return self.registers[register]

    def __iter__(self) -> Iterator[RegisterPlan]:
        return iter(self.registers.values())

    def read_elidable(self, register: str) -> bool:
        return self.registers[register].read_elidable

    def elidable_registers(self) -> list[str]:
        """Registers whose reads the shadow cache may serve."""
        return [plan.register for plan in self if plan.read_elidable]

    def variable_elidable(self, variable) -> bool:
        """True if every register of ``variable`` is read-elidable.

        Memory variables and structure members never elide through
        this path (memory reads do no I/O; members read snapshots).
        """
        if variable.memory or variable.structure is not None:
            return False
        registers = variable.registers()
        return bool(registers) and all(
            self.registers[name].read_elidable for name in registers)


def compute_access_plan(model: ResolvedDevice) -> AccessPlan:
    """Classify every register of ``model`` (see module docstring)."""
    plans: dict[str, RegisterPlan] = {}
    for name, register in model.registers.items():
        owners = model.variables_of_register(name)
        any_volatile = any(v.behaviors.volatile for v in owners)
        any_trigger = any(v.behaviors.trigger is not None for v in owners)
        read_barrier = any(v.behaviors.read_triggers for v in owners)
        write_barrier = any(v.behaviors.write_triggers for v in owners)
        if any_trigger:
            classification = "trigger"
        elif any_volatile:
            classification = "volatile"
        else:
            classification = "cacheable"
        plans[name] = RegisterPlan(
            register=name,
            classification=classification,
            read_elidable=(register.readable
                           and classification == "cacheable"),
            read_barrier=read_barrier,
            write_barrier=write_barrier,
        )
    return AccessPlan(model.name, MappingProxyType(plans))


def access_plan(model: ResolvedDevice) -> AccessPlan:
    """The model's plan, computed at the first call and cached on it.

    The interpreter, the specializer and the generated module all ask
    here when they bind or emit stubs, so they share one plan (threads
    binding one model at once compute it once, under
    :data:`~repro.devil.model._MEMO_LOCK`).  The checker does not
    compute it: most checked models (mutation campaign mutants among
    them) are never bound.
    """
    plan = model.plan
    if not isinstance(plan, AccessPlan):
        with _MEMO_LOCK:
            plan = model.plan
            if not isinstance(plan, AccessPlan):
                plan = compute_access_plan(model)
                model.plan = plan
    return plan
