"""Executable stub runtime for checked Devil specifications.

The paper's compiler emits C macros (Figure 3c) that a driver includes;
this module provides the equivalent executable artifact for the Python
reproduction: :class:`DeviceInstance` interprets the resolved model of a
specification and exposes one ``get_<var>``/``set_<var>`` stub pair per
public device variable, ``get_<structure>``/``set_<structure>`` stubs
per structure, and ``read_<var>_block``/``write_<var>_block`` stubs for
``block`` variables.

Semantics implemented (§2.1–2.2 of the paper):

* register masks — forced bits are OR-ed into every write, irrelevant
  bits cleared;
* pre/post actions — run around every access of their register, which
  is how index-based addressing and banked registers are driven;
* ``set`` actions — update private memory variables after an access,
  modelling addressing automata such as the CS4236B's ``xm`` mode bit;
* caching — the last written/read raw value of every register is kept
  so that writing one variable of a shared register preserves its
  idempotent neighbours;
* trigger neutrality — when a shared register is written on behalf of
  one variable, write-trigger neighbours receive their neutral value;
* structures — one ``get`` performs the grouped read (each register
  exactly once, volatile-consistent), after which member stubs read
  the cache, exactly like ``bm_get_mouse_state`` / ``bm_get_dy``;
* serialization — multi-register variables and structures perform
  their I/O in the specified order, including conditional steps;
* block transfer — ``block`` variables move whole buffers with one
  accounted bus operation, the Pentium ``rep`` equivalence.

Debug mode adds the run-time checks of §3.2: range/enum validation on
writes, validation of values the device delivers on reads, and the
"structure must be fetched before its members" protocol.
"""

from __future__ import annotations

from typing import Iterable

from .. import obs
from ..bus import Bus
from .errors import DevilRuntimeError, SourceLocation, UNKNOWN_LOCATION
from .mask import extract_bits, insert_bits
from .model import (
    ParamRef,
    ResolvedAction,
    ResolvedDevice,
    ResolvedRegister,
    ResolvedValue,
    ResolvedVariable,
    VarRef,
    Wildcard,
)
from .plan import access_plan
from .stubs import stub_table


class DeviceInstance:
    """One device bound to a bus at concrete base addresses.

    ``bases`` maps every port parameter of the specification to the
    absolute bus address it was mapped at — the run-time analogue of
    passing ``base`` to the ``logitech_busmouse`` declaration.

    In addition to the generic :meth:`get`/:meth:`set` API, one bound
    method per public variable and structure is attached at
    construction time (``get_dx``, ``set_config``, ``get_mouse_state``,
    ...), mirroring the per-variable stubs of the paper.
    """

    def __init__(self, model: ResolvedDevice, bus: Bus,
                 bases: dict[str, int], debug: bool = True,
                 composition: str = "cache",
                 strategy: str = "interpret",
                 shadow_cache: bool = False):
        missing = set(model.params) - set(bases)
        if missing:
            raise DevilRuntimeError(
                f"no base address for port parameter(s) {sorted(missing)}",
                model.location)
        if composition not in ("cache", "read-modify-write"):
            raise DevilRuntimeError(
                f"unknown composition strategy {composition!r}",
                model.location)
        if strategy not in ("interpret", "specialize"):
            raise DevilRuntimeError(
                f"unknown execution strategy {strategy!r} (choose "
                f"'interpret', 'specialize', 'native' or 'auto'; "
                f"'native'/'auto' dispatch via CompiledSpec.bind)",
                model.location)
        self.model = model
        self.bus = bus
        self.bases = dict(bases)
        self.debug = debug
        #: How neighbour bits are supplied when writing one variable of
        #: a shared register.  ``"cache"`` is Devil's strategy (§2.1:
        #: idempotent values "can be cached"); ``"read-modify-write"``
        #: is the naive alternative — re-read the register first — which
        #: costs an extra I/O per write and is *wrong* for write-only
        #: registers and non-idempotent reads.  Kept for the ablation
        #: benchmark.
        self.composition = composition
        #: How stubs execute.  ``"interpret"`` walks the resolved model
        #: on every call; ``"specialize"`` partially evaluates the model
        #: at bind time into straight-line closures with all masks,
        #: shifts and port addresses folded to literals (see
        #: :mod:`repro.devil.specialize`).  Semantics are identical.
        self.strategy = strategy
        #: Static access plan: per-register cacheable/volatile/trigger
        #: classification derived from the behaviour qualifiers.
        self.plan = access_plan(model)
        #: Shadow caching elides reads of registers whose last raw value
        #: is still authoritative (non-volatile, no trigger anywhere on
        #: the register).  It requires the write-composition cache: the
        #: read-modify-write ablation deliberately re-reads the device,
        #: so eliding those reads would change what it measures.
        self.shadow_cache = bool(shadow_cache) and composition == "cache"
        #: Registers whose ``_register_cache`` entry mirrors the device
        #: (None when shadow caching is off, so the common path costs
        #: one ``is not None`` test).
        self._shadow_valid: set[str] | None = \
            set() if self.shadow_cache else None
        #: Last known raw value per register (write composition cache).
        self._register_cache: dict[str, int] = {}
        #: Raw register snapshots per structure, taken by get_<struct>.
        self._structure_cache: dict[str, dict[str, int]] = {}
        #: Values of private memory variables.
        self._memory: dict[str, object] = {}
        #: Last abstract value written per variable (for set-actions
        #: and serialization conditions).
        self._last_written: dict[str, object] = {}
        if model.modes:
            # Devices with conditional declarations reset into their
            # first declared mode.
            self._memory["device_mode"] = model.modes[0]
            self._last_written["device_mode"] = model.modes[0]
        #: Active transaction state, or None (see :meth:`transaction`).
        self._txn: dict | None = None
        #: Specialized per-register flush writers (name -> callable),
        #: attached by :mod:`repro.devil.specialize`; None falls back
        #: to the generic compose-and-write path.
        self._txn_writers: dict | None = None
        #: Per-variable ``(registers tuple, write-triggers)`` pairs,
        #: filled lazily by :meth:`_defer_write` (the defer path runs
        #: once per set call inside a transaction, so the model walk is
        #: paid once per variable, not once per defer).
        self._defer_info: dict[str, tuple] = {}
        #: Variables with ``set { ... }`` actions; the flush consults
        #: this instead of walking the model per deferred variable.
        self._set_action_vars = frozenset(
            name for name, variable in model.variables.items()
            if variable.set_actions)
        #: Decided at bind time so disabled telemetry costs nothing:
        #: uninstrumented instances carry exactly the stubs an
        #: observability-free build would (see :mod:`repro.obs`).
        self._instrumented = obs.is_enabled()
        self._attach_stubs()
        if strategy == "specialize":
            # Deferred import: the specializer imports nothing at module
            # scope that depends on this module's load order, but the
            # lazy import keeps the interpreted path dependency-free.
            from .specialize import specialize_instance
            specialize_instance(self)
        if self._instrumented:
            # Wrap the final public stub surface (interpreted closures
            # or the specialized replacements) in span-opening wrappers.
            obs.instrument_instance(self)

    # ------------------------------------------------------------------
    # Stub attachment
    # ------------------------------------------------------------------

    def _attach_stubs(self) -> None:
        for row in stub_table(self.model).rows:
            setattr(self, row.name, _BINDERS[row.kind](self, row.target))

    # ------------------------------------------------------------------
    # Port arithmetic
    # ------------------------------------------------------------------

    def _address(self, port: tuple[str, int]) -> int:
        base, offset = port
        return self.bases[base] + offset

    def _port_width(self, port: tuple[str, int]) -> int:
        return self.model.params[port[0]].data_width

    # ------------------------------------------------------------------
    # Raw register access (pre/post/set actions included)
    # ------------------------------------------------------------------

    def _run_actions(self, actions: list[ResolvedAction],
                     context: dict[str, object],
                     kind: str = "reg-set") -> None:
        if not actions:
            return
        collector = self.bus.collector
        for action in actions:
            if collector is not None:
                collector.record_action(kind, action.target)
            value = self._eval_value(action.value, context,
                                     action.location)
            if action.target_kind == "structure":
                assert isinstance(value, dict)
                self.set_structure(action.target, value)
            else:
                self.set(action.target, value)

    def _eval_value(self, value: ResolvedValue,
                    context: dict[str, object],
                    location: SourceLocation) -> object:
        if isinstance(value, Wildcard):
            return 0  # any value is acceptable; stubs write zero
        if isinstance(value, ParamRef):
            raise DevilRuntimeError(
                f"unsubstituted constructor parameter {value.name!r}",
                location)
        if isinstance(value, VarRef):
            if value.name in context:
                return context[value.name]
            if value.name in self._last_written:
                return self._last_written[value.name]
            raise DevilRuntimeError(
                f"action reads variable {value.name!r} before any value "
                f"was written to it", location)
        if isinstance(value, dict):
            return {name: self._eval_value(inner, context, location)
                    for name, inner in value.items()}
        return value  # literal int / bool / enum symbol (str)

    def _check_mode(self, register) -> None:
        """Debug check: the register's mode must be the current mode."""
        if not self.debug or register.mode is None:
            return
        current = self._memory.get("device_mode")
        if current != register.mode:
            raise DevilRuntimeError(
                f"register {register.name!r} is only addressable in mode "
                f"{register.mode!r}, but the device is in {current!r}",
                register.location)

    def read_register(self, name: str,
                      context: dict[str, object] | None = None) -> int:
        """Read one register, honouring pre/post/set actions and cache."""
        register = self.model.registers[name]
        if register.read_port is None:
            raise DevilRuntimeError(
                f"register {name!r} is write-only", register.location)
        self._check_mode(register)
        context = context or {}
        self._run_actions(register.pre_actions, context, kind="pre")
        raw = self.bus.read(self._address(register.read_port),
                            self._port_width(register.read_port))
        shadow = self._shadow_valid
        if shadow is not None:
            plan = self.plan[name]
            if plan.read_barrier:
                # A read trigger may have changed any register.
                shadow.clear()
            elif plan.read_elidable:
                shadow.add(name)
        self._run_actions(register.post_actions, context, kind="post")
        self._run_actions(register.set_actions, context)
        self._register_cache[name] = raw
        return raw

    def write_register(self, name: str, raw: int,
                       context: dict[str, object] | None = None) -> None:
        """Write one register: mask applied, actions run, cache updated."""
        register = self.model.registers[name]
        if register.write_port is None:
            raise DevilRuntimeError(
                f"register {name!r} is read-only", register.location)
        self._check_mode(register)
        context = context or {}
        self._run_actions(register.pre_actions, context, kind="pre")
        self.bus.write(register.mask.apply_write(raw),
                       self._address(register.write_port),
                       self._port_width(register.write_port))
        shadow = self._shadow_valid
        if shadow is not None:
            plan = self.plan[name]
            if plan.write_barrier:
                # A write trigger may have changed any register.
                shadow.clear()
            elif plan.read_elidable:
                shadow.add(name)
        self._run_actions(register.post_actions, context, kind="post")
        self._run_actions(register.set_actions, context)
        self._register_cache[name] = raw & register.mask.variable_bits

    # ------------------------------------------------------------------
    # Value (de)composition
    # ------------------------------------------------------------------

    @staticmethod
    def _assemble(variable: ResolvedVariable,
                  raw_registers: dict[str, int]) -> int:
        """Concatenate the variable's chunks (MSB-first) from raw values."""
        value = 0
        for chunk in variable.chunks:
            raw = raw_registers[chunk.register]
            value = (value << chunk.width) | extract_bits(
                raw, chunk.msb, chunk.lsb)
        return value

    def _compose_register_write(self, register: ResolvedRegister,
                                updates: dict[str, int]) -> int:
        """Raw value to write to ``register`` given new variable bits.

        ``updates`` maps variable names to their new raw values.  Other
        variables on the register contribute their cached bits if
        idempotent, or their neutral value if write-trigger (§2.1:
        "the Devil compiler has to determine a value to assign to the
        other variables").
        """
        if self.composition == "read-modify-write" and \
                register.readable and \
                len(self.model.variables_of_register(register.name)) > 1:
            # Ablation strategy: refresh neighbour bits from the device
            # instead of the cache (one extra read per shared write).
            self.read_register(register.name)
        raw = self._register_cache.get(register.name, 0)
        for neighbour in self.model.variables_of_register(register.name):
            if neighbour.name in updates:
                new_bits = updates[neighbour.name]
                for chunk, value_lsb in neighbour.chunks_of(register.name):
                    raw = insert_bits(
                        raw, chunk.msb, chunk.lsb,
                        extract_bits(new_bits,
                                     value_lsb + chunk.width - 1,
                                     value_lsb))
            elif neighbour.behaviors.write_triggers and \
                    neighbour.trigger_neutral_raw is not None:
                neutral = neighbour.trigger_neutral_raw
                for chunk, value_lsb in neighbour.chunks_of(register.name):
                    raw = insert_bits(
                        raw, chunk.msb, chunk.lsb,
                        extract_bits(neutral,
                                     value_lsb + chunk.width - 1,
                                     value_lsb))
            # Idempotent neighbours keep their cached bits (already in
            # ``raw``); the default cache is zero, as in the generated
            # C where the cache struct is zero-initialised.
        return raw

    # ------------------------------------------------------------------
    # Variable access
    # ------------------------------------------------------------------

    def _lookup(self, name: str) -> ResolvedVariable:
        variable = self.model.variables.get(name)
        if variable is None:
            raise DevilRuntimeError(f"unknown variable {name!r}",
                                    self.model.location)
        return variable

    def get(self, name: str) -> object:
        """Read device variable ``name`` (performs the I/O)."""
        self._flush_pending()
        variable = self._lookup(name)
        if variable.memory:
            if name not in self._memory:
                raise DevilRuntimeError(
                    f"memory variable {name!r} read before initialisation",
                    variable.location)
            return self._memory[name]
        if variable.structure is not None:
            return self._get_member(variable)
        shadow = self._shadow_valid
        if shadow is not None and self.plan.variable_elidable(variable):
            registers = variable.registers()
            if all(name in shadow for name in registers):
                return self._get_elided(variable, registers)
        raw_registers: dict[str, int] = {}
        for register_name in variable.registers():
            raw_registers[register_name] = self.read_register(register_name)
        raw = self._assemble(variable, raw_registers)
        return self._decode(variable, raw)

    def _get_elided(self, variable: ResolvedVariable,
                    registers: list[str]) -> object:
        """Serve a read from the shadow cache: no port I/O, no actions.

        Debug mode checks still run; instrumented instances report the
        elided accesses so traces stay honest about what was skipped.
        """
        cache = self._register_cache
        report = self._instrumented and self.bus.tracing and \
            self.bus.collector is not None
        raw_registers: dict[str, int] = {}
        for register_name in registers:
            register = self.model.registers[register_name]
            self._check_mode(register)
            raw = cache.get(register_name, 0)
            raw_registers[register_name] = raw
            if report:
                port = register.read_port
                self.bus.collector.io_event(
                    "r", self._address(port),
                    raw & register.mask.variable_bits,
                    self._port_width(port), 1, True)
        self.bus.note_elided(len(registers))
        raw = self._assemble(variable, raw_registers)
        return self._decode(variable, raw)

    def _get_member(self, variable: ResolvedVariable) -> object:
        """Structure members read the snapshot, never the device."""
        assert variable.structure is not None
        snapshot = self._structure_cache.get(variable.structure)
        if snapshot is None:
            if self.debug:
                raise DevilRuntimeError(
                    f"variable {variable.name!r} read before its "
                    f"structure {variable.structure!r} was fetched — "
                    f"call get_{variable.structure}() first",
                    variable.location)
            snapshot = {chunk.register: 0 for chunk in variable.chunks}
        raw = self._assemble(variable, snapshot)
        return self._decode(variable, raw)

    def _decode(self, variable: ResolvedVariable, raw: int) -> object:
        if self.debug:
            return variable.type.decode(raw, variable.location)
        try:
            return variable.type.decode(raw, variable.location)
        except DevilRuntimeError:
            return raw  # release builds skip the §3.2 read checks

    def set(self, name: str, value: object) -> None:
        """Write device variable ``name`` (performs the I/O).

        Inside a :meth:`transaction`, the write is deferred and
        coalesced with other writes to the same register.
        """
        variable = self._lookup(name)
        raw = self._encode(variable, value)
        if variable.memory:
            self._memory[name] = value
            self._last_written[name] = value
            return
        if self._txn is not None:
            self._defer_write(variable, value, raw)
            return
        updates = {name: raw}
        for register_name in variable.registers():
            register = self.model.registers[register_name]
            composed = self._compose_register_write(register, updates)
            self.write_register(register_name, composed,
                                context={name: value})
        self._last_written[name] = value
        self._run_actions(variable.set_actions, {name: value},
                          kind="var-set")

    # ------------------------------------------------------------------
    # Transactions: factorized device communication (§6 future work)
    # ------------------------------------------------------------------

    def transaction(self) -> "_TransactionBlock":
        """Coalesce variable writes into one I/O operation per register.

        The paper's future work proposes "factorizing and scheduling
        device communications" at the compiler level; this is the
        runtime form.  Within the block, ``set_<var>()`` calls are
        deferred; on exit each touched register is written exactly
        once, composed from every new value — so setting the three
        device/head fields of the IDE controller costs one ``outb``,
        like the hand-written driver's ``outb(0xE0 | ...)``, and
        starting the NE2000 while issuing a remote-DMA command composes
        ``START | REMOTE_READ`` into a single command write.

        Reads inside the block first flush pending writes (program
        order is preserved across the read).  Transactions do not
        nest.
        """
        return _TransactionBlock(self)

    def txn(self) -> "_TransactionBlock":
        """Short alias for :meth:`transaction`."""
        return _TransactionBlock(self)

    def _defer_write(self, variable: ResolvedVariable, value: object,
                     raw: int) -> None:
        txn = self._txn
        assert txn is not None
        info = self._defer_info.get(variable.name)
        if info is None:
            info = (tuple(variable.registers()),
                    variable.behaviors.write_triggers)
            self._defer_info[variable.name] = info
        registers, write_triggers = info
        if write_triggers:
            # Trigger barrier: a repeated write to a write-trigger
            # variable must reach the device twice — last-write-wins
            # merging would drop a side effect.  Flush, then re-defer.
            for register_name in registers:
                pending = txn["registers"].get(register_name)
                if pending is not None and variable.name in pending:
                    self._flush_pending()
                    txn = self._txn
                    break
        txn_registers = txn["registers"]
        order = txn["order"]
        for register_name in registers:
            per_register = txn_registers.get(register_name)
            if per_register is None:
                txn_registers[register_name] = per_register = {}
                order.append(register_name)
            per_register[variable.name] = raw
        txn["variables"][variable.name] = value
        # Count the register writes an immediate set would have cost;
        # the flush performs len(order) of them, the rest coalesced.
        txn["deferred"] += len(registers)
        self._last_written[variable.name] = value
        if self._instrumented:
            collector = self.bus.collector
            if collector is not None:
                collector.mark_coalesced()

    def _flush_pending(self) -> None:
        """Flush an open transaction (called before reads)."""
        if self._txn is None:
            return
        transaction, self._txn = self._txn, None
        self._flush_transaction(transaction)
        self._txn = {"registers": {}, "order": [], "variables": {},
                     "deferred": 0}

    def _flush_transaction(self, transaction: dict) -> None:
        if not transaction["order"]:
            return
        collector = self.bus.collector if self._instrumented else None
        if collector is not None:
            collector.span_start(self.model.name, "txn_flush", "*",
                                 "txn", self.strategy)
            try:
                self._flush_transaction_body(transaction)
            except BaseException as error:
                collector.span_end(error=type(error).__name__)
                raise
            collector.span_end()
        else:
            self._flush_transaction_body(transaction)

    def _flush_transaction_body(self, transaction: dict) -> None:
        writers = self._txn_writers
        values = None
        for register_name in transaction["order"]:
            writer = None if writers is None \
                else writers.get(register_name)
            if writer is not None:
                writer(transaction["registers"][register_name])
                continue
            if values is None:
                values = dict(transaction["variables"])
            register = self.model.registers[register_name]
            updates = transaction["registers"][register_name]
            composed = self._compose_register_write(register, updates)
            self.write_register(register_name, composed, context=values)
        merged = transaction["deferred"] - len(transaction["order"])
        if merged > 0:
            self.bus.note_coalesced(merged)
        set_action_vars = self._set_action_vars
        if set_action_vars:
            for variable_name in transaction["variables"]:
                if variable_name not in set_action_vars:
                    continue
                if values is None:
                    values = dict(transaction["variables"])
                variable = self.model.variables[variable_name]
                self._run_actions(variable.set_actions, values,
                                  kind="var-set")

    def _encode(self, variable: ResolvedVariable, value: object) -> int:
        if self.debug:
            return variable.type.encode(value, variable.location)
        try:
            return variable.type.encode(value, variable.location)
        except DevilRuntimeError:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value & ((1 << variable.type.width) - 1)
            raise

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    def _structure(self, name: str):
        structure = self.model.structures.get(name)
        if structure is None:
            raise DevilRuntimeError(f"unknown structure {name!r}",
                                    self.model.location)
        return structure

    def _structure_registers(self, name: str) -> list[str]:
        """Registers of a structure's members, first-use order, deduped."""
        structure = self._structure(name)
        ordered: list[str] = []
        for member_name in structure.members:
            member = self.model.variables[member_name]
            for chunk in member.chunks:
                if chunk.register not in ordered:
                    ordered.append(chunk.register)
        return ordered

    def get_structure(self, name: str) -> dict[str, object]:
        """Grouped read: each member register exactly once (§2.1).

        Returns the decoded member values; member stubs subsequently
        read the same snapshot, so ``dy`` and ``buttons`` observe the
        single read of ``y_high`` — exactly Figure 3c.
        """
        self._flush_pending()
        structure = self._structure(name)
        snapshot: dict[str, int] = {}
        for register_name in self._structure_registers(name):
            snapshot[register_name] = self.read_register(register_name)
        self._structure_cache[name] = snapshot
        result = {}
        for member_name in structure.members:
            member = self.model.variables[member_name]
            raw = self._assemble(member, snapshot)
            result[member_name] = self._decode(member, raw)
        return result

    def set_structure(self, name: str, values: dict[str, object]) -> None:
        """Grouped write, honouring the serialization clause.

        ``values`` must provide every member (the checker enforces the
        same rule on structure-valued actions); conditional
        serialization steps are evaluated against these values, which
        is how the 8259A's mode-dependent init sequence is driven.
        """
        self._flush_pending()
        structure = self._structure(name)
        missing = set(structure.members) - set(values)
        if missing:
            raise DevilRuntimeError(
                f"structure write of {name!r} must provide every member "
                f"(missing: {sorted(missing)})", structure.location)
        unknown = set(values) - set(structure.members)
        if unknown:
            raise DevilRuntimeError(
                f"unknown member(s) {sorted(unknown)} in structure write "
                f"of {name!r}", structure.location)
        updates = {}
        for member_name, value in values.items():
            member = self.model.variables[member_name]
            updates[member_name] = self._encode(member, value)

        if structure.serialization is not None:
            steps = structure.serialization
        else:
            steps = [_PlainStep(register)
                     for register in self._structure_registers(name)]
        for step in steps:
            if step.condition is not None:
                variable_name, expected_raw = step.condition
                if updates.get(variable_name) != expected_raw:
                    continue
            register = self.model.registers[step.register]
            composed = self._compose_register_write(register, updates)
            self.write_register(step.register, composed, context=dict(values))
        for member_name, value in values.items():
            member = self.model.variables[member_name]
            self._last_written[member_name] = value
            self._run_actions(member.set_actions, dict(values),
                              kind="var-set")

    # ------------------------------------------------------------------
    # Block transfer
    # ------------------------------------------------------------------

    def _block_variable(self, name: str) -> ResolvedVariable:
        variable = self._lookup(name)
        if not variable.behaviors.block:
            raise DevilRuntimeError(
                f"variable {name!r} has no 'block' behaviour",
                variable.location)
        if len(variable.chunks) != 1:
            raise DevilRuntimeError(
                f"block variable {name!r} must cover one whole register",
                variable.location)
        chunk = variable.chunks[0]
        register = self.model.registers[chunk.register]
        if chunk.width != register.width or chunk.lsb != 0:
            raise DevilRuntimeError(
                f"block variable {name!r} must cover one whole register",
                variable.location)
        return variable

    def read_block(self, name: str, count: int) -> list[int]:
        """Block read: one accounted bus operation for ``count`` words.

        Models the processor-specific ``rep`` stub of §2.2 ("Block
        transfer"): pre-actions run once, then the transfer is
        hardware-paced.
        """
        self._flush_pending()
        variable = self._block_variable(name)
        register = self.model.registers[variable.chunks[0].register]
        if register.read_port is None:
            raise DevilRuntimeError(
                f"register {register.name!r} is write-only",
                register.location)
        self._run_actions(register.pre_actions, {}, kind="pre")
        values = self.bus.block_read(self._address(register.read_port),
                                     count,
                                     self._port_width(register.read_port))
        if self._shadow_valid is not None:
            # Hardware-paced transfers step the device's internal state.
            self._shadow_valid.clear()
        self._run_actions(register.post_actions, {}, kind="post")
        self._run_actions(register.set_actions, {})
        return values

    def write_block(self, name: str, values: Iterable[int]) -> int:
        """Block write counterpart of :meth:`read_block`."""
        self._flush_pending()
        variable = self._block_variable(name)
        register = self.model.registers[variable.chunks[0].register]
        if register.write_port is None:
            raise DevilRuntimeError(
                f"register {register.name!r} is read-only",
                register.location)
        self._run_actions(register.pre_actions, {}, kind="pre")
        count = self.bus.block_write(self._address(register.write_port),
                                     values,
                                     self._port_width(register.write_port))
        if self._shadow_valid is not None:
            self._shadow_valid.clear()
        self._run_actions(register.post_actions, {}, kind="post")
        self._run_actions(register.set_actions, {})
        return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cached_register(self, name: str) -> int | None:
        """Last known raw value of a register (None if never accessed)."""
        return self._register_cache.get(name)

    def invalidate_caches(self) -> None:
        """Drop every cache (e.g. after a device reset)."""
        self._register_cache.clear()
        self._structure_cache.clear()
        if self._shadow_valid is not None:
            self._shadow_valid.clear()


class _TransactionBlock:
    """The ``with device.txn():`` context manager.

    A plain class rather than ``@contextmanager``: opening a
    transaction sits on driver hot paths (one per coalesced command
    setup), and the generator protocol costs several times the two
    attribute assignments actually needed.  The flush runs on *every*
    exit, exceptional or not, matching a ``try/finally`` around the
    block body.
    """

    __slots__ = ("instance",)

    def __init__(self, instance: "DeviceInstance"):
        self.instance = instance

    def __enter__(self) -> "DeviceInstance":
        instance = self.instance
        if instance._txn is not None:
            raise DevilRuntimeError("transactions do not nest",
                                    instance.model.location)
        instance._txn = {"registers": {}, "order": [], "variables": {},
                         "deferred": 0}
        return instance

    def __exit__(self, exc_type, exc, tb) -> bool:
        instance = self.instance
        transaction, instance._txn = instance._txn, None
        instance._flush_transaction(transaction)
        return False


class _PlainStep:
    """Unconditional serialization step used when none was declared."""

    __slots__ = ("register", "condition")

    def __init__(self, register: str):
        self.register = register
        self.condition = None


# ---------------------------------------------------------------------------
# Bound stub factories (kept top-level so instances stay picklable-ish
# and the closures are easy to read)
# ---------------------------------------------------------------------------


def _bind_getter(instance: DeviceInstance, name: str):
    def getter():
        return instance.get(name)
    getter.__name__ = f"get_{name}"
    getter.__doc__ = f"Read device variable {name!r}."
    return getter


def _bind_setter(instance: DeviceInstance, name: str):
    def setter(value):
        instance.set(name, value)
    setter.__name__ = f"set_{name}"
    setter.__doc__ = f"Write device variable {name!r}."
    return setter


def _bind_struct_getter(instance: DeviceInstance, name: str):
    def getter():
        return instance.get_structure(name)
    getter.__name__ = f"get_{name}"
    getter.__doc__ = f"Fetch structure {name!r} (grouped register read)."
    return getter


def _bind_struct_setter(instance: DeviceInstance, name: str):
    def setter(**values):
        instance.set_structure(name, values)
    setter.__name__ = f"set_{name}"
    setter.__doc__ = f"Write structure {name!r} (serialized register writes)."
    return setter


def _bind_block_reader(instance: DeviceInstance, name: str):
    def reader(count: int):
        return instance.read_block(name, count)
    reader.__name__ = f"read_{name}_block"
    reader.__doc__ = f"Block-read ``count`` words through {name!r}."
    return reader


def _bind_block_writer(instance: DeviceInstance, name: str):
    def writer(values):
        return instance.write_block(name, values)
    writer.__name__ = f"write_{name}_block"
    writer.__doc__ = f"Block-write a buffer through {name!r}."
    return writer


#: One binder per stub-table row kind.
_BINDERS = {
    "get": _bind_getter,
    "set": _bind_setter,
    "block_read": _bind_block_reader,
    "block_write": _bind_block_writer,
    "get_struct": _bind_struct_getter,
    "set_struct": _bind_struct_setter,
}
