"""Resolved (checked) model of a Devil specification.

The static checker (:mod:`repro.devil.checker`) lowers the syntactic AST
into the value objects defined here.  This resolved model is what the
code generators consume: every name is resolved, every type concrete,
every register's mask explicit, and every action reduced to a small
command the stub runtime can interpret.

The model corresponds to the paper's compiled form of a specification:
it contains exactly the information needed to emit the get/set stubs of
Figure 3c, plus the metadata for the optional run-time checks of §3.2.

Nothing changes a resolved register, constructor, variable or structure
once the checker has built it (its validation passes build validated
copies instead), so a check resumed from a baseline shares the objects
of unchanged declarations with that baseline.  The lazy derivation
caches below are the exception: they fill in on first use, the same for
every model sharing the object.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .ast import Behaviors, PortParam
from .errors import SourceLocation, UNKNOWN_LOCATION
from .mask import Mask
from .types import DevilType

#: Guards *population* of the lazy derivation caches below
#: (``ResolvedVariable.width``/``registers``/``chunks_of``,
#: ``ResolvedDevice.variables_of_register``).  The hot path — a cache
#: hit — stays a plain ``__dict__`` probe with no lock: publication is
#: a single atomic dict assignment of a fully built value, so readers
#: either see nothing (and take the lock to build) or a complete
#: cache.  The lock only serializes concurrent *misses*, preventing
#: two threads from interleaving partial population (one shared lock
#: is enough: misses happen once per model per process).  It is an
#: RLock because the derivations nest — ``chunks_of`` consults
#: ``width`` while holding the lock, and both may be cold.
_MEMO_LOCK = threading.RLock()


# ---------------------------------------------------------------------------
# Resolved action values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Wildcard:
    """A ``*`` action value: any value is acceptable (stubs write 0)."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class ParamRef:
    """Reference to a register-constructor parameter inside its actions."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VarRef:
    """Reference to the just-written value of another variable.

    Used by ``set`` actions such as ``set {xm = XRAE}``: after writing
    XRAE, the memory variable ``xm`` takes the written value.
    """

    name: str

    def __str__(self) -> str:
        return self.name


#: A fully resolved action value.  ``int``/``bool``/``str`` are literal
#: values (``str`` being an enum symbol); dict maps structure member
#: names to nested values.
ResolvedValue = (
    int | bool | str | Wildcard | ParamRef | VarRef | dict
)


@dataclass
class ResolvedAction:
    """``target = value`` where target is a variable or structure."""

    target: str
    target_kind: str  # "variable" or "structure"
    value: ResolvedValue
    location: SourceLocation = UNKNOWN_LOCATION

    def substitute(self, bindings: dict[str, int]) -> "ResolvedAction":
        """Replace constructor-parameter references with concrete ints."""
        return ResolvedAction(
            self.target, self.target_kind,
            _substitute_value(self.value, bindings), self.location)


def _substitute_value(value: ResolvedValue,
                      bindings: dict[str, int]) -> ResolvedValue:
    if isinstance(value, ParamRef) and value.name in bindings:
        return bindings[value.name]
    if isinstance(value, dict):
        return {name: _substitute_value(inner, bindings)
                for name, inner in value.items()}
    return value


# ---------------------------------------------------------------------------
# Registers
# ---------------------------------------------------------------------------


@dataclass
class ResolvedRegister:
    """A concrete register (constructors appear only after instantiation).

    ``read_port``/``write_port`` are ``(param_name, offset)`` pairs; at
    least one is set.  ``mask`` is always explicit (the implicit mask of
    an unmasked register is all-variable).
    """

    name: str
    width: int
    mask: Mask
    read_port: tuple[str, int] | None = None
    write_port: tuple[str, int] | None = None
    pre_actions: list[ResolvedAction] = field(default_factory=list)
    post_actions: list[ResolvedAction] = field(default_factory=list)
    set_actions: list[ResolvedAction] = field(default_factory=list)
    #: Name of the constructor this register was instantiated from.
    constructor: str | None = None
    constructor_args: tuple[int, ...] = ()
    #: Operating mode this register is valid in, or None (all modes).
    mode: str | None = None
    location: SourceLocation = UNKNOWN_LOCATION

    @property
    def readable(self) -> bool:
        return self.read_port is not None

    @property
    def writable(self) -> bool:
        return self.write_port is not None


@dataclass
class RegisterConstructor:
    """An indexed register family, e.g. ``register I(i : int{0..31})``.

    Instantiation substitutes the parameter bindings into the pre/post/
    set actions of the ``template`` register and into parameterized
    port offsets (``base @ 1 + i``, the register-array feature).
    """

    name: str
    param_names: tuple[str, ...]
    param_types: tuple[DevilType, ...]
    template: ResolvedRegister = None  # type: ignore[assignment]
    #: Constructor parameter added to the read/write port offset, if any.
    read_offset_param: str | None = None
    write_offset_param: str | None = None
    location: SourceLocation = UNKNOWN_LOCATION

    def instantiate(self, instance_name: str,
                    arguments: tuple[int, ...]) -> ResolvedRegister:
        bindings = dict(zip(self.param_names, arguments))
        template = self.template
        read_port = template.read_port
        if read_port is not None and self.read_offset_param is not None:
            read_port = (read_port[0], read_port[1]
                         + bindings[self.read_offset_param])
        write_port = template.write_port
        if write_port is not None and self.write_offset_param is not None:
            write_port = (write_port[0], write_port[1]
                          + bindings[self.write_offset_param])
        return ResolvedRegister(
            name=instance_name,
            width=template.width,
            mask=template.mask,
            read_port=read_port,
            write_port=write_port,
            pre_actions=[a.substitute(bindings)
                         for a in template.pre_actions],
            post_actions=[a.substitute(bindings)
                          for a in template.post_actions],
            set_actions=[a.substitute(bindings)
                         for a in template.set_actions],
            constructor=self.name,
            constructor_args=arguments,
            mode=template.mode,
            location=template.location,
        )


# ---------------------------------------------------------------------------
# Variables and structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedChunk:
    """One bit range of one register; chunks are listed MSB-first."""

    register: str
    msb: int
    lsb: int

    @property
    def width(self) -> int:
        return self.msb - self.lsb + 1


@dataclass
class ResolvedVariable:
    """A fully checked device variable.

    ``memory`` variables have no chunks: they are the private state
    cells of §2.2 used to model addressing automata (e.g. ``xm`` of the
    CS4236B).  ``serialization`` lists the registers of a multi-register
    variable in the order their I/O must happen.
    """

    name: str
    type: DevilType
    private: bool = False
    memory: bool = False
    chunks: list[ResolvedChunk] = field(default_factory=list)
    behaviors: Behaviors = field(default_factory=Behaviors)
    #: Raw value that does *not* trigger (from ``except SYMBOL``).
    trigger_neutral_raw: int | None = None
    #: Raw value that is the only one to trigger (from ``for VALUE``).
    trigger_for_raw: int | None = None
    set_actions: list[ResolvedAction] = field(default_factory=list)
    serialization: list[str] | None = None
    #: Enclosing structure name, or None for top-level variables.
    structure: str | None = None
    location: SourceLocation = UNKNOWN_LOCATION

    @property
    def width(self) -> int:
        cache = self.__dict__.get("_width_cache")
        if cache is None or cache[0] != len(self.chunks):
            with _MEMO_LOCK:
                cache = self.__dict__.get("_width_cache")
                if cache is None or cache[0] != len(self.chunks):
                    cache = (len(self.chunks),
                             sum(chunk.width for chunk in self.chunks))
                    self.__dict__["_width_cache"] = cache
        return cache[1]

    def registers(self) -> list[str]:
        """Register names in I/O order (serialization if given)."""
        if self.serialization is not None:
            return list(self.serialization)
        cache = self.__dict__.get("_registers_cache")
        if cache is None or cache[0] != len(self.chunks):
            with _MEMO_LOCK:
                cache = self.__dict__.get("_registers_cache")
                if cache is None or cache[0] != len(self.chunks):
                    seen: list[str] = []
                    for chunk in self.chunks:
                        if chunk.register not in seen:
                            seen.append(chunk.register)
                    cache = (len(self.chunks), seen)
                    self.__dict__["_registers_cache"] = cache
        return list(cache[1])

    def chunks_of(self, register: str) -> list[tuple[ResolvedChunk, int]]:
        """Chunks living in ``register`` with their LSB offset in the
        variable's value (chunk 0 is the most significant).

        Memoized per register (callers iterate, never mutate): the
        interpreter walks this on every composed write and transaction
        defer.  Caches invalidate if chunks are still being populated;
        misses populate under :data:`_MEMO_LOCK` (double-checked) so
        concurrent first calls cannot interleave.
        """
        cache = self.__dict__.get("_chunks_of_cache")
        result = None if cache is None or cache[0] != len(self.chunks) \
            else cache[1].get(register)
        if result is None:
            with _MEMO_LOCK:
                cache = self.__dict__.get("_chunks_of_cache")
                if cache is None or cache[0] != len(self.chunks):
                    cache = (len(self.chunks), {})
                    self.__dict__["_chunks_of_cache"] = cache
                result = cache[1].get(register)
                if result is None:
                    result = []
                    offset = self.width
                    for chunk in self.chunks:
                        offset -= chunk.width
                        if chunk.register == register:
                            result.append((chunk, offset))
                    cache[1][register] = result
        return result


@dataclass
class SerStep:
    """One step of a structure serialization: write ``register`` if the
    optional condition ``(variable, value)`` holds."""

    register: str
    condition: tuple[str, ResolvedValue] | None = None
    location: SourceLocation = UNKNOWN_LOCATION


@dataclass
class ResolvedStructure:
    """A structure grouping variables for consistent (cached) access."""

    name: str
    members: list[str] = field(default_factory=list)
    serialization: list[SerStep] | None = None
    location: SourceLocation = UNKNOWN_LOCATION


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------


@dataclass
class ResolvedDevice:
    """The checked specification; input of both code generators."""

    name: str
    params: dict[str, PortParam] = field(default_factory=dict)
    #: Declared operating modes, in order; the first is the reset mode.
    modes: tuple[str, ...] = ()
    types: dict[str, DevilType] = field(default_factory=dict)
    registers: dict[str, ResolvedRegister] = field(default_factory=dict)
    constructors: dict[str, RegisterConstructor] = field(default_factory=dict)
    variables: dict[str, ResolvedVariable] = field(default_factory=dict)
    structures: dict[str, ResolvedStructure] = field(default_factory=dict)
    #: Static access plan (:class:`repro.devil.plan.AccessPlan`),
    #: computed and cached here by :func:`repro.devil.plan.access_plan`
    #: when stubs are first bound or generated, not by the checker.
    plan: object | None = None
    #: Stub table (:class:`repro.devil.stubs.StubTable`), cached here
    #: by :func:`repro.devil.stubs.stub_table` at first use.  Derived
    #: from the fields above, so it takes no part in comparisons.
    stubs: object | None = field(default=None, compare=False, repr=False)
    location: SourceLocation = UNKNOWN_LOCATION

    def public_variables(self) -> list[ResolvedVariable]:
        """The functional interface: everything not ``private``."""
        return [v for v in self.variables.values() if not v.private]

    def variables_of_register(self, register: str) -> list[ResolvedVariable]:
        """Every variable owning at least one bit of ``register``.

        Memoized: the interpreter consults this on every composed
        register write and the specializer in every compose-emission
        loop, so the linear scan over all variables is built once per
        variable-set generation (keyed by the variable count, which only
        grows while the checker is still populating the model).  Misses
        rebuild under :data:`_MEMO_LOCK` and publish the finished map
        with one atomic assignment, so concurrent threads compiling or
        binding the same model never observe a half-built owners table.
        """
        cached = self.__dict__.get("_owners_cache")
        if cached is None or cached[0] != len(self.variables):
            with _MEMO_LOCK:
                cached = self.__dict__.get("_owners_cache")
                if cached is None or cached[0] != len(self.variables):
                    owners: dict[str, list[ResolvedVariable]] = {}
                    for variable in self.variables.values():
                        seen: set[str] = set()
                        for chunk in variable.chunks:
                            if chunk.register not in seen:
                                seen.add(chunk.register)
                                owners.setdefault(chunk.register,
                                                  []).append(variable)
                    cached = (len(self.variables), owners)
                    self.__dict__["_owners_cache"] = cached
        return cached[1].get(register, [])

    def port_of(self, port: tuple[str, int]) -> int:
        """Flat index of a concrete port within the device's port list.

        Used by code generators to compute addresses: the device is
        instantiated at run time with one base address per port
        parameter, and ``offset`` is added to it.
        """
        param_name, offset = port
        if param_name not in self.params:
            raise KeyError(f"unknown port parameter {param_name!r}")
        return offset
