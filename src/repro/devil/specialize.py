"""The Python lowering of a checked Devil specification.

The paper's headline performance claim (§4.3) is that Devil stubs have
no execution overhead because the compiler folds masks, shifts and
addresses into straight-line code.  :mod:`repro.devil.runtime`
re-interprets the resolved model on every call; this module partially
evaluates the :class:`~repro.devil.model.ResolvedDevice` instead and
emits one Python function per stub, with

* register masks (AND/OR constants),
* chunk shifts and widths,
* port addresses,
* enum encode/decode tables, trigger-neutral values, and
* the debug/release check variants

all resolved to literals.  One emitter, :class:`_Specializer`, serves
two targets:

* **bound** — ``bind(strategy="specialize")``: a ``_factory(_I)`` of
  closures over a :class:`~repro.devil.runtime.DeviceInstance`, with
  *absolute* port literals and the ``debug``/``shadow_cache`` variant
  baked in, ``exec``-ed once and cached per specialization key;
* **module** — :meth:`CompiledSpec.emit_python`: a standalone module
  (it imports nothing from ``repro``) whose ``<Device>Stubs`` class
  runs the same factory at construction, with ports relative to the
  bases it receives and ``debug``/``shadow_cache`` tested at run time.

The specialized closures share the :class:`DeviceInstance`'s mutable
state (register/structure caches, memory variables, ``_last_written``,
transactions), so mixing specialized stubs with the generic
:meth:`DeviceInstance.get`/:meth:`~DeviceInstance.set` API — or with
:meth:`~DeviceInstance.transaction` blocks — behaves exactly like the
interpreter.  Semantics parity is bit-exact: identical bus traces,
identical :class:`~repro.bus.IoAccounting` counters, and identical
:class:`~repro.devil.errors.DevilRuntimeError` messages.  The fast
path is inlined; bound closures delegate every rarely-taken path
(illegal values, unusual types, open transactions) back to the
interpreter so the two execution strategies cannot drift apart.  The
module cannot import the interpreter, so it carries emitted versions
of those paths (:data:`_MODULE_PRELUDE`, :data:`_MODULE_TXN`) that make
the interpreter's decisions and raise its messages as
``DevilStubError``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .errors import DevilCodegenError, DevilRuntimeError, SourceLocation
from .plan import access_plan
from .model import (
    ParamRef,
    ResolvedAction,
    ResolvedDevice,
    ResolvedRegister,
    ResolvedValue,
    ResolvedVariable,
    SerStep,
    VarRef,
    Wildcard,
)
from .stubs import stub_table
from .types import BoolType, EnumType, IntSetType, IntType

#: Sentinel distinguishing "absent" from any legal table value.
_MISSING = object()

#: Error helpers both targets share: ``exec``-ed into the bound
#: namespace (``_DRE`` is :class:`DevilRuntimeError` there) and written
#: into the module (``_DRE`` is its ``DevilStubError``).
_SHARED_HELPERS = '''\
def _struct_args_error(name, members, values, location):
    """Raise the interpreter's structure-argument errors verbatim."""
    missing = set(members) - set(values)
    if missing:
        raise _DRE(f"structure write of {name!r} must provide every "
                   f"member (missing: {sorted(missing)})", location)
    unknown = set(values) - set(members)
    raise _DRE(f"unknown member(s) {sorted(unknown)} in structure write "
               f"of {name!r}", location)


def _raise_param(name, location):
    raise _DRE(f"unsubstituted constructor parameter {name!r}", location)
'''

_SHARED_CODE = compile(_SHARED_HELPERS, "<devil-specialize:helpers>",
                       "exec")

#: Module-level code of a standalone stub module: the error class and
#: the slow paths a bound factory takes from the interpreter
#: (``DeviceInstance._encode``/``_decode``, ``_TransactionBlock``).
#: ``_vars`` entries are ``(name, registers, write_triggers, kind,
#: width, type text, location, extra)`` literals.
_MODULE_PRELUDE = '''\
class DevilStubError(Exception):
    """A run-time check of the generated stubs failed.

    ``str()`` is ``"<file>:<line>:<column>: <message>"``, the text of
    the interpreter's DevilRuntimeError for the same call.
    """

    def __init__(self, message, location):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}")


_DRE = DevilStubError
_MISS = object()


def _ignore(count):
    """Stand-in for the optional io hooks note_elided/note_coalesced."""


def _encode(var, value, debug):
    """Encode a value the inlined fast path does not cover: the
    interpreter's checks and messages, and its release fallback."""
    kind, width, text, location, extra = var[3:]
    if kind == "bool":
        if isinstance(value, bool) or value in (0, 1):
            return 1 if value else 0
        error = f"value {value!r} is not a boolean"
    elif kind == "enum":
        if not isinstance(value, str):
            error = f"enumerated value must be a symbol name, got {value!r}"
        elif value not in extra:
            error = f"{value!r} is not a symbol of {text}"
        elif not extra[value][1]:
            error = f"symbol {value!r} of {text} is read-only"
        else:
            return extra[value][0]
    elif kind == "set":
        if isinstance(value, int) and not isinstance(value, bool) \\
                and value in extra:
            return value
        error = f"value {value!r} is not a member of {text}"
    elif not isinstance(value, int) or isinstance(value, bool):
        error = f"value {value!r} is not an integer"
    elif not extra[0] <= value <= extra[1]:
        error = (f"value {value} outside range [{extra[0]}, {extra[1]}] "
                 f"of {text}")
    else:
        return value & ((1 << width) - 1)
    if not debug:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value & ((1 << width) - 1)
    raise DevilStubError(error, location)


def _decode(var, raw, debug):
    """A raw value outside an enum's readable symbols or an int set:
    rejected in debug builds, passed through in release builds."""
    if not debug:
        return raw
    kind, width, text, location = var[3:7]
    raw &= (1 << width) - 1
    if kind == "enum":
        raise DevilStubError(f"device delivered {raw:#x}, which matches "
                             f"no readable symbol of {text}", location)
    raise DevilStubError(f"device delivered {raw}, which is not a member "
                         f"of {text}", location)


class _DevilTxn:
    """The ``with stubs.txn():`` block: writes coalesce per register."""

    __slots__ = ("_stubs",)

    def __init__(self, stubs):
        self._stubs = stubs

    def __enter__(self):
        stubs = self._stubs
        if stubs._txn is not None:
            raise DevilStubError("transactions do not nest", _MODEL_LOC)
        stubs._txn = {"registers": {}, "order": [], "variables": {},
                      "deferred": 0}
        return stubs

    def __exit__(self, exc_type, exc, tb):
        stubs = self._stubs
        txn, stubs._txn = stubs._txn, None
        stubs._flush_transaction(txn)
        return False
'''

#: Observe-mode additions: span wrappers resolving ``observer.collector``
#: per call, like :func:`repro.obs.spans.wrap_stub` does for ``bus``.
_MODULE_OBSERVE = '''\
class _Unobserved:
    """The observer of a class built without one."""

    collector = None
    tracing = False


def _observed(observer, stub, variable, kind, func):
    """Wrap one public stub so each call is a span on the observer's
    collector (any object with ``collector``/``tracing``: a Bus)."""
    def observed(*args, **kwargs):
        collector = observer.collector
        if collector is None:
            return func(*args, **kwargs)
        collector.span_start(_DEVICE, stub, variable, kind, "generated")
        try:
            result = func(*args, **kwargs)
        except BaseException as error:
            collector.span_end(error=type(error).__name__)
            raise
        collector.span_end()
        return result
    observed.__name__ = func.__name__
    observed.__doc__ = func.__doc__
    observed.__wrapped__ = func
    return observed
'''

#: Module-mode transaction closures, spliced into ``_factory``: the
#: counterparts of ``DeviceInstance._flush_pending``,
#: ``_flush_transaction_body`` and ``_defer_write``.  Every deferrable
#: register has a flush writer ``_txn_write_<reg>(updates, values)``.
_MODULE_TXN = '''\
def _flush():
    _t = _I._txn
    if _t is not None:
        _I._txn = None
        _flush_txn(_t)
        _I._txn = {'registers': {}, 'order': [], 'variables': {},
                   'deferred': 0}

def _flush_body(_t):
    _tv = _t['variables']
    _tw = _I._txn_writers
    for _r in _t['order']:
        _tw[_r](_t['registers'][_r], _tv)
    _n = _t['deferred'] - len(_t['order'])
    if _n > 0:
        _note_coalesced(_n)
    for _k in _tv:
        _post = _txn_posts.get(_k)
        if _post is not None:
            _post(_tv)

def _defer(_var, value, raw):
    _k, _regs, _trigger = _var[:3]
    _t = _I._txn
    if _trigger:
        for _r in _regs:
            _p = _t['registers'].get(_r)
            if _p is not None and _k in _p:
                _flush()
                _t = _I._txn
                break
    _tr = _t['registers']
    for _r in _regs:
        _p = _tr.get(_r)
        if _p is None:
            _tr[_r] = _p = {}
            _t['order'].append(_r)
        _p[_k] = raw
    _t['variables'][_k] = value
    _t['deferred'] += len(_regs)
    _lw[_k] = value
'''

_MODULE_FLUSH = '''\
def _flush_txn(_t):
    if _t['order']:
        _flush_body(_t)
'''

_MODULE_FLUSH_OBSERVED = '''\
def _flush_txn(_t):
    if not _t['order']:
        return
    _c = _bus.collector
    if _c is None:
        _flush_body(_t)
        return
    _c.span_start(_DEVICE, 'txn_flush', '*', 'txn', 'generated')
    try:
        _flush_body(_t)
    except BaseException as _e:
        _c.span_end(error=type(_e).__name__)
        raise
    _c.span_end()
'''

#: The module's stub class: the constructor runs ``_factory`` once and
#: attaches the public stubs as instance attributes.
_MODULE_CLASS = '''\
class {name}:
    """Stubs of device {device!r} over an I/O provider.

    ``io`` provides read(port, width) and write(value, port, width),
    block_read(port, count, width) and block_write(port, values, width)
    if the device has block variables, and optionally note_elided(count)
    and note_coalesced(count).  A repro.bus.Bus qualifies.  In observe
    mode spans go to ``observer.collector``, read per call (pass the
    Bus).
    """

    def __init__(self, io{params}, debug=False, shadow_cache=False{observer}):
        self._io = io
        self._debug = debug
        self._shadow_valid = set() if shadow_cache else None
        self._register_cache = {{}}
        self._structure_cache = {{}}
        self._memory = {initial!r}
        self._last_written = {initial!r}
        self._txn = None
{init}

    def txn(self):
        """Coalesce variable writes: one I/O per touched register."""
        return _DevilTxn(self)

    transaction = txn
'''

#: Module-mode flags: the generated class receives them at
#: construction, so the emitted code tests these expressions instead of
#: baking a variant in.
_RUN_TIME_DEBUG = "_debug"
_RUN_TIME_SHADOW = "_sv is not None"


def _table_literal(table: object) -> str:
    """A table as module source.  Set tables are written in sorted
    order: the ``repr`` of a set of strings follows the per-process
    string hash seed, and the module must not."""
    if isinstance(table, frozenset) and table:
        return f"frozenset({{{', '.join(map(repr, sorted(table)))}}})"
    return repr(table)


class _Specializer:
    """Generates the ``_factory(_I)`` source for one specialization key.

    The factory takes a bound :class:`DeviceInstance` (or, in module
    mode, the generated class's instance), captures its hot state (I/O
    methods, caches) in closure cells, defines one function per stub
    and returns the dict of public stubs.  Compilation happens once per
    key; running the factory per instance is cheap.

    ``bases=None`` selects module mode.  It differs from bound mode in
    three places only: ports are ``_p_<param> + offset`` instead of
    absolute literals; ``debug`` and ``shadow_cache`` are the run-time
    tests :data:`_RUN_TIME_DEBUG`/:data:`_RUN_TIME_SHADOW` instead of
    baked-in booleans; and the rare paths call emitted code instead of
    the interpreter.
    """

    def __init__(self, model: ResolvedDevice, bases: dict[str, int] | None,
                 debug: bool | str, composition: str,
                 instrumented: bool = False,
                 shadow_cache: bool | str = False):
        self.model = model
        self.module = bases is None
        self.bases = None if bases is None else dict(bases)
        #: ``True``/``False`` bake one variant into the source; a string
        #: is the run-time test guarding the variant (module mode).
        self.debug = debug
        self.composition = composition
        #: When set, getters of fully-cacheable variables test the
        #: instance's shadow-validity set and serve reads straight from
        #: the register cache; register accesses maintain the set per
        #: the static access plan.  Off, no shadow code is emitted at
        #: all — the source is byte-identical to the pre-shadow output.
        self.shadow_cache = shadow_cache
        self.plan = access_plan(model)
        #: When True (telemetry enabled at bind time), every action
        #: site additionally emits an ``_obs_act(kind, target)`` probe
        #: mirroring the interpreter's ``_run_actions`` recording, so
        #: span action streams are identical across strategies.  The
        #: uninstrumented source is byte-identical to a telemetry-free
        #: build.
        self.instrumented = instrumented
        self.lines: list[str] = []
        self._indent = 0
        #: Objects injected into the exec globals (bound mode).
        self.namespace: dict[str, object] = {
            "_DRE": DevilRuntimeError,
            "_MISS": _MISSING,
            "_vars": model.variables,
        }
        #: Enum/set/member tables: injected in bound mode, rendered as
        #: literals in module mode.
        self.tables: dict[str, object] = {}
        self._locs: dict[SourceLocation, int] = {}
        self._loc_list: list[SourceLocation] = []
        self.namespace["_locs"] = self._loc_list
        #: Which accessors exist, and the public ones.
        self.stubs = stub_table(model)

    # -- low-level emission -------------------------------------------

    def _w(self, text: str = "") -> None:
        prefix = "    " * self._indent if text else ""
        self.lines.append(prefix + text)

    def _push(self) -> None:
        self._indent += 1

    def _pop(self) -> None:
        self._indent -= 1

    def _splice(self, text: str) -> None:
        for line in text.splitlines():
            self._w(line)

    @contextmanager
    def _guard(self, flag: bool | str):
        """Emit the enclosed lines under ``if flag:`` when ``flag`` is a
        run-time test; a baked-in ``True`` emits them unguarded."""
        if isinstance(flag, str):
            self._w(f"if {flag}:")
            self._push()
            yield
            self._pop()
        else:
            yield

    def _def(self, signature: str, doc: str) -> None:
        """Open a stub function; the module documents its stubs."""
        self._w(f"def {signature}:")
        self._push()
        if self.module:
            self._w(f'"""{doc}"""')

    def _loc(self, location: SourceLocation) -> str:
        index = self._locs.get(location)
        if index is None:
            index = len(self._loc_list)
            self._locs[location] = index
            self._loc_list.append(location)
        return f"_locs[{index}]"

    def _structure_registers(self, name: str) -> list[str]:
        structure = self.model.structures[name]
        ordered: list[str] = []
        for member_name in structure.members:
            for chunk in self.model.variables[member_name].chunks:
                if chunk.register not in ordered:
                    ordered.append(chunk.register)
        return ordered

    # -- port folding -------------------------------------------------

    def _port(self, port: tuple[str, int]) -> str:
        """The port expression: an absolute literal when bound, relative
        to the base the generated class received in module mode."""
        base, offset = port
        if self.bases is not None:
            return f"{self.bases[base] + offset:#x}"
        return f"_p_{base} + {offset}" if offset else f"_p_{base}"

    def _port_width(self, port: tuple[str, int]) -> int:
        return self.model.params[port[0]].data_width

    # -- enum / set tables --------------------------------------------

    def _tables_for(self, variable: ResolvedVariable) -> None:
        var_type = variable.type
        name = variable.name
        if isinstance(var_type, EnumType):
            # First match wins, exactly like the interpreter's linear
            # scans (EnumType.item / EnumType.decode).  A name whose
            # first occurrence is read-only stays off the fast path so
            # the slow path can raise the interpreter's error.
            encode_table: dict[str, int] = {}
            seen_names = set()
            for item in var_type.items:
                if item.name in seen_names:
                    continue
                seen_names.add(item.name)
                if item.direction.writable:
                    encode_table[item.name] = item.value
            decode_table: dict[int, str] = {}
            for item in var_type.readable_items:
                if item.value not in decode_table:
                    decode_table[item.value] = item.name
            self.tables.setdefault(f"_ENC_{name}", encode_table)
            self.tables.setdefault(f"_DEC_{name}", decode_table)
        elif isinstance(var_type, IntSetType):
            self.tables.setdefault(f"_SET_{name}",
                                   frozenset(var_type.values))

    # -- action lowering ----------------------------------------------

    def _value_expr(self, value: ResolvedValue, context: dict[str, str],
                    loc_expr: str) -> str:
        if isinstance(value, Wildcard):
            return "0"
        if isinstance(value, ParamRef):
            return f"_raise_param({value.name!r}, {loc_expr})"
        if isinstance(value, VarRef):
            if value.name in context:
                return context[value.name]
            fallback = f"_lwget({value.name!r}, {loc_expr})"
            values = context.get("*")
            if values is not None:
                # A run-time context dict (the values of a module-mode
                # transaction flush) shadows the last-written values.
                return (f"({values}[{value.name!r}] if {value.name!r} in "
                        f"{values} else {fallback})")
            return fallback
        # bool before int: True is an int.
        if isinstance(value, (bool, int, str)):
            return repr(value)
        raise AssertionError(f"unexpected action value {value!r}")

    def _emit_action(self, action: ResolvedAction,
                     context: dict[str, str],
                     kind: str = "reg-set") -> None:
        loc_expr = self._loc(action.location)
        if self.instrumented:
            self._w(f"_obs_act({kind!r}, {action.target!r})")
        if action.target_kind == "structure":
            assert isinstance(action.value, dict)
            if self.module or action.target in self.stubs.writable:
                # The module emits a setter for every structure an
                # action targets (see _emit_stubs).
                arguments = ", ".join(
                    f"{member}={self._value_expr(inner, context, loc_expr)}"
                    for member, inner in action.value.items())
                self._w(f"set_{action.target}({arguments})")
            else:
                # The interpreter calls set_structure without checking
                # writability; no bound setter exists, so keep the
                # interpreted path (and its errors).
                items = ", ".join(
                    f"{member!r}: "
                    f"{self._value_expr(inner, context, loc_expr)}"
                    for member, inner in action.value.items())
                self._w(f"_I.set_structure({action.target!r}, "
                        f"{{{items}}})")
            return
        expr = self._value_expr(action.value, context, loc_expr)
        if action.target in self.stubs.writable:
            self._w(f"set_{action.target}({expr})")
        elif self.module:
            raise DevilCodegenError(
                f"action writes {action.target!r}, which has no setter",
                action.location)
        else:
            # No specialized setter exists; the interpreter path raises
            # (or handles) exactly like an interpreted action would.
            self._w(f"_set({action.target!r}, {expr})")

    def _emit_actions(self, actions: list[ResolvedAction],
                      context: dict[str, str],
                      kind: str = "reg-set") -> None:
        for action in actions:
            self._emit_action(action, context, kind)

    # -- debug checks -------------------------------------------------

    def _emit_mode_check(self, register: ResolvedRegister) -> None:
        if not self.debug or register.mode is None:
            return
        message = (f"register {register.name!r} is only addressable in "
                   f"mode {register.mode!r}, but the device is in %r")
        with self._guard(self.debug):
            self._w("_dm = _mem.get('device_mode')")
            self._w(f"if _dm != {register.mode!r}:")
            self._push()
            self._w(f"raise _DRE({message!r} % (_dm,), "
                    f"{self._loc(register.location)})")
            self._pop()

    # -- raw register access ------------------------------------------

    def _emit_register_read(self, register: ResolvedRegister,
                            context: dict[str, str]) -> None:
        port = register.read_port
        assert port is not None
        self._emit_mode_check(register)
        self._emit_actions(register.pre_actions, context, "pre")
        self._w(f"raw_{register.name} = "
                f"_read({self._port(port)}, {self._port_width(port)})")
        self._emit_shadow_update(register, read=True)
        self._emit_actions(register.post_actions, context, "post")
        self._emit_actions(register.set_actions, context)
        # The interpreter caches the full raw value after the actions.
        self._w(f"_rc[{register.name!r}] = raw_{register.name}")

    def _emit_register_write(self, register: ResolvedRegister,
                             composed: str,
                             context: dict[str, str]) -> None:
        port = register.write_port
        name = register.name
        self._w(f"_w_{name} = {composed}")
        if port is None:
            # Only a module-mode setter of a structure an action writes
            # reaches a read-only register; the interpreter raises here.
            message = f"register {name!r} is read-only"
            self._w(f"raise _DRE({message!r}, "
                    f"{self._loc(register.location)})")
            return
        self._emit_mode_check(register)
        self._emit_actions(register.pre_actions, context, "pre")
        forced = register.mask.forced_value
        on_bus = f"_w_{name} | {forced:#x}" if forced else f"_w_{name}"
        self._w(f"_write({on_bus}, {self._port(port)}, "
                f"{self._port_width(port)})")
        self._emit_shadow_update(register, read=False)
        self._emit_actions(register.post_actions, context, "post")
        self._emit_actions(register.set_actions, context)
        self._w(f"_rc[{name!r}] = _w_{name}")

    def _emit_shadow_update(self, register: ResolvedRegister,
                            read: bool) -> None:
        """Shadow-validity maintenance after a bus access (plan-driven)."""
        if not self.shadow_cache:
            return
        plan = self.plan[register.name]
        barrier = plan.read_barrier if read else plan.write_barrier
        if barrier:
            with self._guard(self.shadow_cache):
                self._w("_sv.clear()")
        elif plan.read_elidable:
            with self._guard(self.shadow_cache):
                self._w(f"_sv.add({register.name!r})")

    def _emit_rmw_refresh(self, register: ResolvedRegister,
                          context: dict[str, str]) -> None:
        """Ablation strategy: refresh neighbour bits from the device."""
        if self.composition == "read-modify-write" and \
                register.readable and \
                len(self.model.variables_of_register(register.name)) > 1:
            self._emit_register_read(register, {})
        del context  # the interpreter's refresh read runs with {}

    # -- value (de)composition ----------------------------------------

    def _extract_expr(self, source: str, msb: int, lsb: int,
                      source_width: int) -> str:
        """Extract bits lsb..msb of ``source`` (a value < 2**source_width)."""
        width = msb - lsb + 1
        mask = (1 << width) - 1
        if lsb == 0 and width >= source_width:
            return source
        if lsb == 0:
            return f"({source} & {mask:#x})"
        if msb == source_width - 1:
            return f"({source} >> {lsb})"
        return f"(({source} >> {lsb}) & {mask:#x})"

    def _assemble_expr(self, variable: ResolvedVariable,
                       raw_of) -> str:
        """MSB-first chunk concatenation; ``raw_of(register)`` gives the
        raw-value expression of one register."""
        parts = []
        offset = variable.width
        for chunk in variable.chunks:
            offset -= chunk.width
            register = self.model.registers[chunk.register]
            extract = self._extract_expr(raw_of(chunk.register),
                                         chunk.msb, chunk.lsb,
                                         register.width)
            parts.append(f"({extract} << {offset})" if offset else extract)
        return " | ".join(parts) if parts else "0"

    def _compose_write(self, register: ResolvedRegister,
                       members: list[ResolvedVariable], source_of) -> str:
        """Raw value to write to ``register`` for new values of
        ``members`` (``source_of(member)`` is the expression of its raw
        value): their bits, the neighbours' trigger-neutral values and
        the cached bits of everyone else."""
        written = 0
        parts = []
        for member in members:
            for chunk, value_lsb in member.chunks_of(register.name):
                chunk_mask = (1 << chunk.width) - 1
                written |= chunk_mask << chunk.lsb
                extract = self._extract_expr(source_of(member),
                                             value_lsb + chunk.width - 1,
                                             value_lsb, member.width)
                parts.append(f"({extract} << {chunk.lsb})"
                             if chunk.lsb else extract)
        names = {member.name for member in members}
        neighbours = [neighbour for neighbour
                      in self.model.variables_of_register(register.name)
                      if neighbour.name not in names]
        neutral_bits, neutral_value = self._neutral_of(register,
                                                       neighbours)
        keep = register.mask.variable_bits & ~written & ~neutral_bits
        expr = []
        if keep:
            expr.append(f"(_rc.get({register.name!r}, 0) & {keep:#x})")
        expr.extend(parts)
        if neutral_value:
            expr.append(f"{neutral_value:#x}")
        return " | ".join(expr) if expr else "0"

    def _neutral_of(self, register: ResolvedRegister,
                    owners: list[ResolvedVariable]) -> tuple[int, int]:
        """Folded trigger-neutral ``(bits, value)`` of ``owners`` in
        ``register``."""
        neutral_bits = 0
        neutral_value = 0
        for owner in owners:
            if owner.behaviors.write_triggers and \
                    owner.trigger_neutral_raw is not None:
                for chunk, value_lsb in owner.chunks_of(register.name):
                    chunk_mask = (1 << chunk.width) - 1
                    neutral_bits |= chunk_mask << chunk.lsb
                    field = (owner.trigger_neutral_raw >> value_lsb) \
                        & chunk_mask
                    neutral_value |= field << chunk.lsb
        return neutral_bits, neutral_value

    # -- encode / decode ----------------------------------------------

    def _emit_encode(self, variable: ResolvedVariable,
                     value_expr: str = "value",
                     target: str = "raw") -> None:
        """``target = encode(value_expr)``.

        The fast path covers exactly the values on which debug and
        release encoding agree and succeed; everything else delegates to
        ``DeviceInstance._encode`` for identical results and errors.
        """
        var_type = variable.type
        name = variable.name
        self._tables_for(variable)
        if isinstance(var_type, BoolType):
            self._w(f"if isinstance({value_expr}, bool) "
                    f"or {value_expr} == 0 or {value_expr} == 1:")
            self._push()
            self._w(f"{target} = 1 if {value_expr} else 0")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, EnumType):
            self._w(f"{target} = _ENC_{name}.get({value_expr}, _MISS) "
                    f"if type({value_expr}) is str else _MISS")
            self._w(f"if {target} is _MISS:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, IntSetType):
            self._w(f"if type({value_expr}) is int "
                    f"and {value_expr} in _SET_{name}:")
            self._push()
            self._w(f"{target} = {value_expr}")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, IntType):
            self._w(f"if type({value_expr}) is int and "
                    f"{var_type.minimum} <= {value_expr} "
                    f"<= {var_type.maximum}:")
            self._push()
            if var_type.signed:
                mask = (1 << var_type.width) - 1
                self._w(f"{target} = {value_expr} & {mask:#x}")
            else:
                self._w(f"{target} = {value_expr}")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        else:
            # Unknown type: interpret.
            self._w(f"{target} = _enc({name!r}, {value_expr})")

    def _emit_decode(self, variable: ResolvedVariable, raw_expr: str,
                     target: str) -> None:
        """``target = decode(raw_expr)`` (raw_expr < 2**width)."""
        var_type = variable.type
        name = variable.name
        self._tables_for(variable)
        if isinstance(var_type, BoolType):
            self._w(f"{target} = bool({raw_expr})")
        elif isinstance(var_type, EnumType):
            if raw_expr != target and not raw_expr.isidentifier():
                self._w(f"_r = {raw_expr}")
                raw_expr = "_r"
            self._w(f"{target} = _DEC_{name}.get({raw_expr}, _MISS)")
            self._w(f"if {target} is _MISS:")
            self._push()
            self._w(f"{target} = _dec({name!r}, {raw_expr})")
            self._pop()
        elif isinstance(var_type, IntSetType):
            self._w(f"{target} = {raw_expr}")
            self._w(f"if {target} not in _SET_{name}:")
            self._push()
            self._w(f"{target} = _dec({name!r}, {target})")
            self._pop()
        elif isinstance(var_type, IntType) and var_type.signed:
            half = 1 << (var_type.width - 1)
            full = 1 << var_type.width
            self._w(f"{target} = {raw_expr}")
            self._w(f"if {target} >= {half:#x}:")
            self._push()
            self._w(f"{target} = {target} - {full:#x}")
            self._pop()
        elif isinstance(var_type, IntType):
            self._w(f"{target} = {raw_expr}")
        else:
            self._w(f"{target} = _dec({name!r}, {raw_expr})")

    # -- stub emitters ------------------------------------------------

    def _open_stub(self, signature: str, doc: str) -> None:
        """Open a stub that first flushes an open transaction."""
        self._def(signature, doc)
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()

    def _emit_memory_accessors(self, variable: ResolvedVariable) -> None:
        name = variable.name
        message = f"memory variable {name!r} read before initialisation"
        self._open_stub(f"get_{name}()", f"Read device variable {name!r}.")
        self._w(f"if {name!r} in _mem:")
        self._push()
        self._w(f"return _mem[{name!r}]")
        self._pop()
        self._w(f"raise _DRE({message!r}, {self._loc(variable.location)})")
        self._pop()
        self._w()
        self._def(f"set_{name}(value)", f"Write device variable {name!r}.")
        # The interpreter encodes (and so validates) memory writes, then
        # stores the abstract value without running set-actions.
        self._emit_encode(variable)
        self._w(f"_mem[{name!r}] = value")
        self._w(f"_lw[{name!r}] = value")
        self._pop()
        self._w()

    def _emit_getter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        self._open_stub(f"get_{name}()", f"Read device variable {name!r}.")
        if self.shadow_cache and self.plan.variable_elidable(variable):
            self._emit_elided_branch(variable)
        for register_name in variable.registers():
            self._emit_register_read(self.model.registers[register_name], {})
        raw = self._assemble_expr(variable, lambda reg: f"raw_{reg}")
        self._emit_decode(variable, raw, "_v")
        self._w("return _v")
        self._pop()
        self._w()

    def _emit_elided_branch(self, variable: ResolvedVariable) -> None:
        """Serve the read from the shadow cache when it is valid."""
        registers = variable.registers()
        tests = [f"{reg!r} in _sv" for reg in registers]
        if isinstance(self.shadow_cache, str):
            tests.insert(0, self.shadow_cache)
        self._w(f"if {' and '.join(tests)}:")
        self._push()
        for register_name in registers:
            register = self.model.registers[register_name]
            self._emit_mode_check(register)
            self._w(f"_raw_{register_name} = "
                    f"_rc.get({register_name!r}, 0)")
            if self.instrumented:
                port = register.read_port
                assert port is not None
                vb = register.mask.variable_bits
                self._w(f"_obs_elide({self._port(port)}, "
                        f"_raw_{register_name} & {vb:#x}, "
                        f"{self._port_width(port)})")
        self._w(f"_note_elided({len(registers)})")
        raw = self._assemble_expr(variable, lambda reg: f"_raw_{reg}")
        self._emit_decode(variable, raw, "_v")
        self._w("return _v")
        self._pop()

    def _emit_member_getter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        structure = variable.structure
        assert structure is not None
        self._open_stub(f"get_{name}()", f"Read device variable {name!r}.")
        self._w(f"_snap = _sc.get({structure!r})")
        raw = self._assemble_expr(variable,
                                  lambda reg: f"_snap[{reg!r}]")
        # Debug raises on an unfetched structure, release reads zeros.
        self._w("if _snap is None:")
        self._push()
        if self.debug:
            message = (f"variable {name!r} read before its structure "
                       f"{structure!r} was fetched — call "
                       f"get_{structure}() first")
            with self._guard(self.debug):
                self._w(f"raise _DRE({message!r}, "
                        f"{self._loc(variable.location)})")
        if self.debug is not True:
            self._w("_raw = 0")
        self._pop()
        if self.debug is True:
            self._w(f"_raw = {raw}")
        else:
            self._w("else:")
            self._push()
            self._w(f"_raw = {raw}")
            self._pop()
        self._emit_decode(variable, "_raw", "_v")
        self._w("return _v")
        self._pop()
        self._w()

    def _emit_setter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        context = {name: "value"}
        self._def(f"set_{name}(value)", f"Write device variable {name!r}.")
        # Open transactions defer writes: encode on the inlined fast
        # path, then record the raw value in the transaction.  Single-
        # register variables get the deferral inlined (the common case
        # — one dict probe, one barrier test); multi-register and
        # serialized variables go through the shared deferral (the
        # interpreter's, or the module's _MODULE_TXN copy).
        registers = variable.registers()
        self._w("if _I._txn is not None:")
        self._push()
        self._emit_encode(variable)
        if len(registers) == 1 and variable.serialization is None:
            register_name = registers[0]
            self._w("_t = _I._txn")
            self._w("_tr = _t['registers']")
            self._w(f"_p = _tr.get({register_name!r})")
            if variable.behaviors.write_triggers:
                # Trigger barrier: a repeated write to a write-trigger
                # variable must reach the device twice.
                self._w(f"if _p is not None and {name!r} in _p:")
                self._push()
                self._w("_flush()")
                self._w("_t = _I._txn")
                self._w("_tr = _t['registers']")
                self._w("_p = None")
                self._pop()
            self._w("if _p is None:")
            self._push()
            self._w(f"_tr[{register_name!r}] = _p = {{}}")
            self._w(f"_t['order'].append({register_name!r})")
            self._pop()
            self._w(f"_p[{name!r}] = raw")
            self._w(f"_t['variables'][{name!r}] = value")
            self._w("_t['deferred'] += 1")
            self._w(f"_lw[{name!r}] = value")
            self._emit_mark_coalesced()
        else:
            self._w(f"_defer(_vars[{name!r}], value, raw)")
        self._w("return")
        self._pop()
        self._emit_encode(variable)
        for register_name in variable.registers():
            register = self.model.registers[register_name]
            self._emit_rmw_refresh(register, context)
            composed = self._compose_write(register, [variable],
                                           lambda member: "raw")
            self._emit_register_write(register, composed, context)
        self._w(f"_lw[{name!r}] = value")
        self._emit_actions(variable.set_actions, context, "var-set")
        self._pop()
        self._w()

    def _emit_mark_coalesced(self) -> None:
        """Flag the open span: a deferred write joined a flush."""
        if self.instrumented:
            self._w("_c = _bus.collector")
            self._w("if _c is not None:")
            self._push()
            self._w("_c.mark_coalesced()")
            self._pop()

    def _emit_struct_getter(self, structure_name: str) -> None:
        structure = self.model.structures[structure_name]
        register_names = self._structure_registers(structure_name)
        self._open_stub(f"get_{structure_name}()",
                        f"Fetch structure {structure_name!r} (grouped "
                        f"register read).")
        for register_name in register_names:
            self._emit_register_read(self.model.registers[register_name], {})
        snapshot = ", ".join(f"{reg!r}: raw_{reg}"
                             for reg in register_names)
        self._w(f"_sc[{structure_name!r}] = {{{snapshot}}}")
        for member_name in structure.members:
            member = self.model.variables[member_name]
            raw = self._assemble_expr(member, lambda reg: f"raw_{reg}")
            self._emit_decode(member, raw, f"_v_{member_name}")
        items = ", ".join(f"{m!r}: _v_{m}" for m in structure.members)
        self._w(f"return {{{items}}}")
        self._pop()
        self._w()

    def _emit_struct_setter(self, structure_name: str) -> None:
        structure = self.model.structures[structure_name]
        members = [self.model.variables[m] for m in structure.members]
        context = {m.name: f"values[{m.name!r}]" for m in members}
        loc_expr = self._loc(structure.location)
        members_set = f"_M_{structure_name}"
        self.tables[members_set] = frozenset(structure.members)

        # Per-member encoders (runtime iteration preserves the
        # interpreter's values-order encoding and error order).
        for member in members:
            self._w(f"def _e_{structure_name}_{member.name}(value):")
            self._push()
            self._emit_encode(member)
            self._w("return raw")
            self._pop()
            self._w()
        encoders = ", ".join(
            f"{m.name!r}: _e_{structure_name}_{m.name}" for m in members)
        self._w(f"_E_{structure_name} = {{{encoders}}}")
        self._w()

        # Per-member set-action runners (only members that have any).
        post_members = [m for m in members if m.set_actions]
        for member in post_members:
            self._w(f"def _p_{structure_name}_{member.name}(values):")
            self._push()
            self._emit_actions(member.set_actions, context, "var-set")
            self._pop()
            self._w()
        posts = ", ".join(f"{m.name!r}: _p_{structure_name}_{m.name}"
                          for m in post_members)
        self._w(f"_P_{structure_name} = {{{posts}}}")
        self._w()

        self._open_stub(f"set_{structure_name}(**values)",
                        f"Write structure {structure_name!r} (serialized "
                        f"register writes).")
        self._w(f"if {members_set}.symmetric_difference(values):")
        self._push()
        self._w(f"_struct_args_error({structure_name!r}, {members_set}, "
                f"values, {loc_expr})")
        self._pop()
        self._w("_u = {}")
        self._w("for _k, _v in values.items():")
        self._push()
        self._w(f"_u[_k] = _E_{structure_name}[_k](_v)")
        self._pop()
        steps = structure.serialization
        if steps is None:
            steps = [SerStep(reg)
                     for reg in self._structure_registers(structure_name)]
        for step in steps:
            register = self.model.registers[step.register]
            if step.condition is not None:
                # The checker resolves conditions to raw literals.
                cond_var, expected = step.condition
                self._w(f"if _u.get({cond_var!r}) == {expected!r}:")
                self._push()
                self._emit_struct_step(register, members, context)
                self._pop()
            else:
                self._emit_struct_step(register, members, context)
        self._w("for _k, _v in values.items():")
        self._push()
        self._w("_lw[_k] = _v")
        self._w(f"_r = _P_{structure_name}.get(_k)")
        self._w("if _r is not None:")
        self._push()
        self._w("_r(values)")
        self._pop()
        self._pop()
        self._pop()
        self._w()

    def _emit_struct_step(self, register: ResolvedRegister,
                          members: list[ResolvedVariable],
                          context: dict[str, str]) -> None:
        self._emit_rmw_refresh(register, context)
        composed = self._compose_write(
            register, members, lambda member: f"_u[{member.name!r}]")
        self._emit_register_write(register, composed, context)

    def _block_shape_ok(self, variable: ResolvedVariable) -> bool:
        if len(variable.chunks) != 1:
            return False
        chunk = variable.chunks[0]
        register = self.model.registers[chunk.register]
        return chunk.width == register.width and chunk.lsb == 0

    def _emit_block_stubs(self, variable: ResolvedVariable) -> None:
        name = variable.name
        register = self.model.registers[variable.chunks[0].register] \
            if self._block_shape_ok(variable) else None
        for kind, argument, result, doc in (
                ("read", "count", "_vals",
                 f"Block-read ``count`` words through {name!r}."),
                ("write", "values", "_n",
                 f"Block-write a buffer through {name!r}.")):
            if name not in (self.stubs.readable if kind == "read"
                            else self.stubs.writable):
                continue
            self._open_stub(f"{kind}_{name}_block({argument})", doc)
            port = None if register is None else \
                register.read_port if kind == "read" else register.write_port
            if port is not None:
                self._emit_actions(register.pre_actions, {}, "pre")
                self._w(f"{result} = _block_{kind}({self._port(port)}, "
                        f"{argument}, {self._port_width(port)})")
                if self.shadow_cache:
                    with self._guard(self.shadow_cache):
                        self._w("_sv.clear()")
                self._emit_actions(register.post_actions, {}, "post")
                self._emit_actions(register.set_actions, {})
                self._w(f"return {result}")
            elif self.module:
                # Malformed block variables raise at call time exactly
                # like the interpreter.
                message = f"block variable {name!r} must cover one " \
                    f"whole register"
                self._w(f"raise _DRE({message!r}, "
                        f"{self._loc(variable.location)})")
            else:
                self._w(f"return _I.{kind}_block({name!r}, {argument})")
            self._pop()
            self._w()

    # -- transaction flush writers ------------------------------------

    def _deferrable(self, variable: ResolvedVariable) -> bool:
        """Setters of these variables defer inside a transaction."""
        return variable.name in self.stubs.writable and not variable.memory

    def _txn_writer_registers(self) -> list:
        """Registers whose transaction flush runs straight-line.

        The module needs a writer for every register a transaction can
        touch.  Bound mode emits one only when composing the register
        needs no model walk at flush time: ``cache`` composition, no
        register actions (actions may consult the deferred-values
        context, which the interpreter's generic flush provides), and
        an owner outside any structure.  Registers that do not qualify
        fall back to the interpreter's ``_compose_register_write``
        path — semantics are identical either way, only the dispatch
        cost differs.
        """
        if self.composition != "cache":
            return []
        result = []
        for register in self.model.registers.values():
            owners = [owner for owner
                      in self.model.variables_of_register(register.name)
                      if self._deferrable(owner)]
            if register.write_port is None or not owners:
                continue
            if not self.module and (
                    register.pre_actions or register.post_actions
                    or register.set_actions
                    or all(owner.structure is not None
                           for owner in owners)):
                continue
            result.append(register)
        return result

    def _emit_txn_writer(self, register: ResolvedRegister) -> None:
        """``_txn_write_<reg>(updates)``: the specialized equivalent of
        ``_compose_register_write`` + ``write_register`` for one
        register, with masks, neutral values and the port address
        folded in.  Must compose exactly what the interpreter would:
        updated owners contribute their new bits, write-trigger
        neighbours their neutral value, everyone else their cached
        bits.  Module writers also take the flush's ``values``, the
        context of the register's actions."""
        name = register.name
        width_mask = (1 << register.width) - 1
        parameters, context = ("_u, _tv", {"*": "_tv"}) if self.module \
            else ("_u", {})
        self._w(f"def _txn_write_{name}({parameters}):")
        self._push()
        self._w(f"_x = _rc.get({name!r}, 0) & "
                f"{register.mask.variable_bits:#x}")
        for owner in self.model.variables_of_register(name):
            bits = 0
            inserts = []
            for chunk, value_lsb in owner.chunks_of(name):
                chunk_mask = (1 << chunk.width) - 1
                bits |= chunk_mask << chunk.lsb
                extract = self._extract_expr(
                    "_v", value_lsb + chunk.width - 1, value_lsb,
                    owner.width)
                inserts.append(f"({extract} << {chunk.lsb})"
                               if chunk.lsb else extract)
            keep = ~bits & width_mask
            has_neutral, neutral = self._neutral_of(register, [owner])
            if self._deferrable(owner):
                self._w(f"_v = _u.get({owner.name!r})")
                self._w("if _v is not None:")
                self._push()
                self._w(f"_x = (_x & {keep:#x}) | "
                        f"{' | '.join(inserts)}")
                self._pop()
                if has_neutral:
                    self._w("else:")
                    self._push()
                    self._w(f"_x = (_x & {keep:#x}) | {neutral:#x}")
                    self._pop()
            elif has_neutral:
                self._w(f"_x = (_x & {keep:#x}) | {neutral:#x}")
        self._emit_register_write(register, "_x", context)
        self._pop()
        self._w()

    def _emit_txn_tail(self) -> None:
        """Flush writers; in module mode also the flush's set-action
        runners (the interpreter's ``_flush_transaction_body`` pass)."""
        writer_registers = self._txn_writer_registers()
        for register in writer_registers:
            self._emit_txn_writer(register)
        if writer_registers:
            writer_entries = ", ".join(
                f"{register.name!r}: _txn_write_{register.name}"
                for register in writer_registers)
            self._w(f"_I._txn_writers = {{{writer_entries}}}")
        else:
            self._w("_I._txn_writers = None")
        if not self.module:
            return
        posts = [variable for variable in self.model.variables.values()
                 if self._deferrable(variable) and variable.set_actions]
        for variable in posts:
            self._w(f"def _txn_post_{variable.name}(_tv):")
            self._push()
            self._emit_actions(variable.set_actions, {"*": "_tv"},
                               "var-set")
            self._pop()
            self._w()
        entries = ", ".join(f"{variable.name!r}: _txn_post_{variable.name}"
                            for variable in posts)
        self._w(f"_txn_posts = {{{entries}}}")
        self._w("_I._flush_transaction = _flush_txn")

    # -- driver -------------------------------------------------------

    def _emit_prologue(self) -> None:
        """Capture the instance's hot state; define the slow paths."""
        io = "_io" if self.module else "_bus"
        self._w(f"{io} = _I.{'_io' if self.module else 'bus'}")
        self._w(f"_read = {io}.read")
        self._w(f"_write = {io}.write")
        # A module's io needs the block methods only if the device has
        # block variables.
        if not self.module or any(variable.behaviors.block for variable
                                  in self.model.variables.values()):
            self._w(f"_block_read = {io}.block_read")
            self._w(f"_block_write = {io}.block_write")
        self._w("_rc = _I._register_cache")
        self._w("_sc = _I._structure_cache")
        self._w("_mem = _I._memory")
        self._w("_lw = _I._last_written")
        if self.module:
            self._w("_debug = _I._debug")
            self._w("_sv = _I._shadow_valid")
            self._w("_note_elided = getattr(_io, 'note_elided', _ignore)")
            self._w("_note_coalesced = getattr(_io, 'note_coalesced', "
                    "_ignore)")
            for param in self.model.params:
                self._w(f"_p_{param} = _I._port_{param}")
            if self.instrumented:
                self._w("_bus = _I._observer")
        else:
            self._w("_encode = _I._encode")
            self._w("_decode = _I._decode")
            self._w("_set = _I.set")
            self._w("_flush = _I._flush_pending")
            self._w("_defer = _I._defer_write")
            if self.shadow_cache:
                self._w("_sv = _I._shadow_valid")
                self._w("_note_elided = _bus.note_elided")
        self._w()
        debug = ", _debug" if self.module else ""
        self._w("def _enc(name, value):")
        self._push()
        self._w(f"return _encode(_vars[name], value{debug})")
        self._pop()
        self._w()
        self._w("def _dec(name, raw):")
        self._push()
        self._w(f"return _decode(_vars[name], raw{debug})")
        self._pop()
        self._w()
        self._w("def _lwget(name, loc):")
        self._push()
        self._w("if name in _lw:")
        self._push()
        self._w("return _lw[name]")
        self._pop()
        self._w("raise _DRE('action reads variable %r before any value "
                "was written to it' % (name,), loc)")
        self._pop()
        self._w()
        if self.module:
            self._splice(_MODULE_TXN)
            self._push()
            self._emit_mark_coalesced()
            self._pop()
            self._w()
            self._splice(_MODULE_FLUSH_OBSERVED if self.instrumented
                         else _MODULE_FLUSH)
            self._w()
        if self.instrumented:
            self._w("def _obs_act(kind, target):")
            self._push()
            self._w("_c = _bus.collector")
            self._w("if _c is not None:")
            self._push()
            self._w("_c.record_action(kind, target)")
            self._pop()
            self._pop()
            self._w()
        if self.instrumented and self.shadow_cache:
            self._w("def _obs_elide(port, value, width):")
            self._push()
            self._w("_c = _bus.collector")
            self._w("if _c is not None and _bus.tracing:")
            self._push()
            self._w("_c.io_event('r', port, value, width, 1, True)")
            self._pop()
            self._pop()
            self._w()

    def _emit_stubs(self) -> None:
        """Every stub function, the private accessors included."""
        model = self.model
        readable, writable = self.stubs.readable, self.stubs.writable
        for variable in model.variables.values():
            if variable.memory:
                self._emit_memory_accessors(variable)
            else:
                if variable.name in readable:
                    if variable.structure is not None:
                        self._emit_member_getter(variable)
                    else:
                        self._emit_getter(variable)
                if variable.name in writable:
                    self._emit_setter(variable)
            if variable.behaviors.block:
                self._emit_block_stubs(variable)
        # The module cannot hand an action on a structure it cannot
        # write to the interpreter: it emits a private setter that
        # fails where the interpreter's set_structure does.
        targets = set()
        if self.module:
            actions = [action for register in model.registers.values()
                       for action in register.pre_actions
                       + register.post_actions + register.set_actions]
            actions += [action for variable in model.variables.values()
                        for action in variable.set_actions]
            targets = {action.target for action in actions
                       if action.target_kind == "structure"}
        for name in model.structures:
            if name in readable:
                self._emit_struct_getter(name)
            if name in writable or name in targets:
                self._emit_struct_setter(name)

    def generate(self) -> str:
        self._w("def _factory(_I):")
        self._push()
        self._emit_prologue()
        self._emit_stubs()
        self._emit_txn_tail()
        entries = ", ".join(f"{row.name!r}: {row.name}"
                            for row in self.stubs.rows)
        self._w(f"return {{{entries}}}")
        self._pop()
        if self.module:
            return self._module_source()
        exec(_SHARED_CODE, self.namespace)
        self.namespace.update(self.tables)
        model = self.model
        header = [f"# Specialized stubs for {model.name!r} "
                  f"(debug={self.debug}, "
                  f"composition={self.composition!r}, "
                  f"instrumented={self.instrumented}, "
                  f"shadow_cache={self.shadow_cache}).",
                  "# Generated by repro.devil.specialize; do not edit.",
                  ""]
        return "\n".join(header + self.lines) + "\n"

    # -- module mode --------------------------------------------------

    def _var_literal(self, variable: ResolvedVariable) -> tuple:
        """``_vars`` entry: what the module's _defer/_encode/_decode
        need to know about one variable."""
        var_type = variable.type
        if isinstance(var_type, BoolType):
            kind, extra = "bool", None
        elif isinstance(var_type, EnumType):
            kind, extra = "enum", {}
            for item in var_type.items:  # first occurrence wins
                extra.setdefault(item.name,
                                 (item.value, item.direction.writable))
        elif isinstance(var_type, IntSetType):
            kind, extra = "set", frozenset(var_type.values)
        else:
            kind, extra = "int", (var_type.minimum, var_type.maximum)
        return (variable.name, tuple(variable.registers()),
                bool(variable.behaviors.write_triggers), kind,
                var_type.width, str(var_type), str(variable.location),
                extra)

    def _module_source(self) -> str:
        """Wrap the factory into a standalone module with a stub class."""
        from .codegen.pyi_backend import stub_class_name
        model = self.model
        lines = [f'"""Generated by devilc from specification '
                 f'{model.name!r}. Do not edit."""', ""]
        helpers = [_MODULE_PRELUDE, _SHARED_HELPERS]
        if self.instrumented:
            helpers.append(_MODULE_OBSERVE)
        for text in helpers:
            lines += text.splitlines() + ["", ""]
        lines.append(f"_MODEL_LOC = {str(model.location)!r}")
        lines.append("_locs = [")
        lines += [f"    {str(location)!r}," for location in self._loc_list]
        lines.append("]")
        lines.append("_vars = {")
        lines += [f"    {name!r}: {self._var_literal(variable)!r},"
                  for name, variable in model.variables.items()]
        lines.append("}")
        lines += [f"{name} = {_table_literal(table)}"
                  for name, table in self.tables.items()]
        if self.instrumented:
            spans = {row.name: (row.target, row.kind)
                     for row in self.stubs.rows}
            lines.append(f"_DEVICE = {model.name!r}")
            lines.append(f"_SPANS = {spans!r}")
        lines += ["", ""] + self.lines + ["", ""]

        init = [f"self._port_{param} = {param}_base"
                for param in model.params]
        observer = ""
        if self.instrumented:
            observer = ", observer=None"
            init.append("self._observer = _Unobserved if observer is None "
                        "else observer")
        init += ["for name, stub in _factory(self).items():",
                 "    setattr(self, name, stub)"]
        if self.instrumented:
            init += ["for name, (variable, kind) in _SPANS.items():",
                     "    setattr(self, name, _observed(",
                     "        self._observer, name, variable, kind,",
                     "        getattr(self, name)))"]
        initial = {"device_mode": model.modes[0]} if model.modes else {}
        lines += _MODULE_CLASS.format(
            name=stub_class_name(model.name), device=model.name,
            params="".join(f", {param}_base" for param in model.params),
            observer=observer, initial=initial,
            init="\n".join(f"        {line}" for line in init)).splitlines()
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Factory cache and instance attachment
# ---------------------------------------------------------------------------

#: ``id(model) -> (model, {(bases, debug, composition): entry})``.  The
#: model reference pins the id so keys can never alias; the number of
#: distinct specialized models per process is small (shipped specs are
#: memoized by ``specs.compile_shipped``).
_FACTORY_CACHE: dict[int, tuple[ResolvedDevice, dict]] = {}

#: Serializes cache *misses* only (generation + ``exec`` of one
#: specialization).  Hits never touch it: a published entry is complete
#: (the per-model dict assignment is atomic), so concurrent binds of an
#: already-specialized key stay lock-free.
_FACTORY_LOCK = threading.Lock()


def specialized_factory(model: ResolvedDevice, bases: dict[str, int],
                        debug: bool, composition: str,
                        instrumented: bool = False,
                        shadow_cache: bool = False):
    """Return ``(factory, source)`` for one specialization key.

    Generation, ``compile`` and ``exec`` run once per key; rebinding the
    same specification at the same addresses only re-runs the factory.
    ``instrumented`` selects the telemetry variant (action probes
    emitted inline); it is part of the key, so enabling
    :mod:`repro.obs` never mutates sources served to uninstrumented
    bindings.  Thread-safe: two threads binding the same spec
    concurrently specialize it exactly once (double-checked under
    :data:`_FACTORY_LOCK`) and both receive the same entry.
    """
    key = (tuple(sorted(bases.items())), debug, composition, instrumented,
           shadow_cache)
    _, per_model = _FACTORY_CACHE.setdefault(id(model), (model, {}))
    entry = per_model.get(key)
    if entry is None:
        with _FACTORY_LOCK:
            entry = per_model.get(key)
            if entry is None:
                specializer = _Specializer(model, bases, debug,
                                           composition, instrumented,
                                           shadow_cache)
                source = specializer.generate()
                code = compile(source,
                               f"<devil-specialize:{model.name}>",
                               "exec")
                namespace = specializer.namespace
                exec(code, namespace)
                entry = (namespace["_factory"], source)
                per_model[key] = entry
    return entry


def generate_python_module(model: ResolvedDevice,
                           observe: bool = False) -> str:
    """Emit the standalone Python stub module for ``model``.

    The module imports nothing from ``repro``: its ``<Device>Stubs``
    class takes ``(io, *bases, debug=False, shadow_cache=False)``.
    With ``observe=True`` it also takes ``observer=``, wraps every
    public stub in a span and records actions on
    ``observer.collector``; the default module has no hooks and no
    overhead.
    """
    return _Specializer(model, None, _RUN_TIME_DEBUG, "cache",
                        instrumented=observe,
                        shadow_cache=_RUN_TIME_SHADOW).generate()


def generate_specialized_source(model: ResolvedDevice,
                                bases: dict[str, int],
                                debug: bool = True,
                                composition: str = "cache",
                                instrumented: bool = False,
                                shadow_cache: bool = False) -> str:
    """The generated factory source (for inspection and tests)."""
    return _Specializer(model, bases, debug, composition,
                        instrumented, shadow_cache).generate()


def specialize_instance(instance) -> None:
    """Replace ``instance``'s interpreted stubs with specialized closures.

    Only the stub attributes the interpreter attached are overwritten,
    so the public surface of the instance is identical in both
    strategies; the generic ``get``/``set``/``transaction`` API keeps
    using the interpreter against the same shared state.
    """
    factory, source = specialized_factory(
        instance.model, instance.bases, instance.debug,
        instance.composition,
        instrumented=getattr(instance, "_instrumented", False),
        shadow_cache=getattr(instance, "shadow_cache", False))
    stubs = factory(instance)
    instance._specialized_source = source
    instance._specialized_stubs = stubs
    for name, stub in stubs.items():
        setattr(instance, name, stub)
