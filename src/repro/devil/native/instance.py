"""The ``strategy="native"`` device binding.

A :class:`NativeDeviceInstance` keeps device state in the generated C
state struct (mirrored by ctypes, so Python and C read the same bytes)
and dispatches public stubs through the compiled shared library.  The
division of labour is chosen for *exactness* against the interpreter,
which stays the semantic reference:

* top-level variable get/set, structure get/set and block transfers run
  in C; their port I/O calls back into the Python :class:`Bus`, so
  traces, accounting, collectors and mapped device models observe
  byte-identical streams;
* value validation stays in Python: setters pre-validate with the
  interpreter's ``_encode`` (so §3.2 write errors carry the exact
  interpreter messages) and getters decode the raw C result with
  ``_decode`` (read-side checks, release fallbacks);
* structure-member reads and memory variables run purely in Python
  against the shared mirror, preserving the interpreter's snapshot
  semantics (members read the fetch-time snapshot, not live caches)
  and its memory rules (writes run no actions, reads return the stored
  value);
* :meth:`NativeDeviceInstance.repeat` is the batched entry: ``n``
  calls of one stub cross the Python↔C boundary once.  On a plain,
  untraced, uncollected bus the batch additionally switches the shim
  into *direct* mode — port-table dispatch straight to the mapped
  device models with C-side accounting counters and a bounded trace
  ring, merged into ``bus.accounting`` when the batch ends
  (:meth:`sync_to_bus`).

C runtime checks unwind via ``setjmp``/``longjmp`` and surface as
:class:`DevilRuntimeError`; exceptions raised inside Python callbacks
abort the C frames and re-raise unchanged.
"""

from __future__ import annotations

import ctypes
from ctypes import (CFUNCTYPE, POINTER, Structure, c_char, c_char_p,
                    c_int, c_ubyte, c_uint, c_ulong, c_ulonglong,
                    c_void_p)

from ... import obs
from ...bus.bus import Bus, BusError, IoTraceEntry
from ..errors import DevilRuntimeError
from ..runtime import DeviceInstance
from ..codegen.c_backend import generate_c_header, mode_check_message
from ..stubs import stub_table
from . import build
from .build import NativeBuildError
from .shim import (STATUS_CHECK, STATUS_DEVERR, STATUS_NODEV,
                   STATUS_PYERR, dispatch_rows, generate_shim)

#: Capacity of the C flight-recorder ring (last N direct-mode accesses).
RING_CAPACITY = 256

_IN_FN = CFUNCTYPE(c_uint, c_void_p, c_uint, c_int)
_OUT_FN = CFUNCTYPE(None, c_void_p, c_uint, c_uint, c_int)
_IN_REP_FN = CFUNCTYPE(None, c_void_p, c_uint, c_int, c_ulong,
                       POINTER(c_uint))
_OUT_REP_FN = CFUNCTYPE(None, c_void_p, c_uint, c_int, c_ulong,
                        POINTER(c_uint))
_RAW_IN_FN = CFUNCTYPE(c_uint, c_void_p, c_uint, c_uint, c_int)
_RAW_OUT_FN = CFUNCTYPE(None, c_void_p, c_uint, c_uint, c_uint, c_int)
_OBS_FN = CFUNCTYPE(None, c_void_p, c_char_p, c_char_p)


class _PortEntry(Structure):
    """One bus mapping in the C port table.

    ``model``/``mstate`` select an optional C-resident device model;
    the trailing counters account direct-mode accesses, which
    :meth:`_NativeCore.sync_accounting` merges into ``bus.accounting``
    when the batch ends.
    """

    _fields_ = [("base", c_uint), ("size", c_uint), ("index", c_uint),
                ("model", c_int), ("mstate", c_void_p),
                ("reads", c_ulonglong), ("writes", c_ulonglong),
                ("w8", c_ulonglong), ("w16", c_ulonglong),
                ("w32", c_ulonglong)]


class _TraceEntry(Structure):
    _fields_ = [("op", c_uint), ("port", c_uint), ("value", c_uint),
                ("width", c_uint)]


class _NatBus(Structure):
    """ctypes mirror of the shim's ``devil_nat_bus_t`` (same order)."""

    _fields_ = [
        ("py_in", _IN_FN),
        ("py_out", _OUT_FN),
        ("py_in_rep", _IN_REP_FN),
        ("py_out_rep", _OUT_REP_FN),
        ("raw_in", _RAW_IN_FN),
        ("raw_out", _RAW_OUT_FN),
        ("obs", _OBS_FN),
        ("ctx", c_void_p),
        ("direct", c_int),
        ("action_hook", c_int),
        ("aborted", c_int),
        ("ports", POINTER(_PortEntry)),
        ("n_ports", c_uint),
        ("ring", POINTER(_TraceEntry)),
        ("ring_cap", c_uint),
        ("ring_written", c_ulonglong),
        ("fail_msg", c_char_p),
        ("fail_port", c_uint),
        ("dev_lock", c_void_p),
        ("fail_buf", c_char * 256),
    ]


def _state_struct(model, debug: bool):
    """ctypes mirror of ``<p>_state_t`` (field order must match
    ``_CWriter._emit_state_struct`` exactly)."""
    fields: list[tuple[str, object]] = []
    for name in model.params:
        fields.append((f"port_{name}", c_uint))
    for name in model.registers:
        fields.append((f"cache_{name}", c_uint))
    memory = [v for v in model.variables.values() if v.memory]
    for variable in memory:
        fields.append((f"mem_{variable.name}", c_uint))
    for variable in memory:
        fields.append((f"init_{variable.name}", c_ubyte))
    if debug:
        for structure in model.structures:
            fields.append((f"fetched_{structure}", c_ubyte))
    return type(f"{model.name}_nat_state", (Structure,),
                {"_fields_": fields})


class _NativeCore:
    """Library handle, ABI mirrors, callbacks and stub closures."""

    def __init__(self, instance: "NativeDeviceInstance"):
        self.instance = instance
        self.bus = instance.bus
        model = instance.model
        self.prefix = model.name
        header = generate_c_header(model, debug=instance.debug)
        # The shim is a function of the model alone (emitted once per
        # model, like the header).  The ``--with-models`` shim: C ports
        # of the IDE and Permedia2 hot registers serve direct batches
        # on the fleet bus.
        shim_source = model.__dict__.get("_native_shim")
        if shim_source is None:
            shim_source = model.__dict__["_native_shim"] = generate_shim(
                model, with_models=True)
        self.library_path = build.build_library(
            model.name, header, shim_source, instance.debug)
        lib = build.load_library(self.library_path)
        self._bind_entries(lib)
        from .models import ModelRegistry, check_model_abi
        try:
            check_model_abi(lib, self.prefix)
        except RuntimeError as exc:
            raise NativeBuildError(
                f"{exc}; clear {build.cache_dir()} and re-bind") from exc
        self.models = ModelRegistry()

        struct_cls = _state_struct(model, instance.debug)
        if self.lib_state_size() != ctypes.sizeof(struct_cls):
            raise NativeBuildError(
                f"native library {self.library_path} disagrees with the "
                f"ctypes state mirror for {model.name!r} "
                f"({self.lib_state_size()} vs "
                f"{ctypes.sizeof(struct_cls)} bytes); clear "
                f"{build.cache_dir()} and re-bind")
        if self.lib_bus_size() != ctypes.sizeof(_NatBus):
            raise NativeBuildError(
                f"native library {self.library_path} disagrees with the "
                f"devil_nat_bus_t ABI mirror; clear {build.cache_dir()} "
                f"and re-bind")
        if self.lib_port_size() != ctypes.sizeof(_PortEntry):
            raise NativeBuildError(
                f"native library {self.library_path} disagrees with the "
                f"devil_nat_port_t ABI mirror; clear {build.cache_dir()} "
                f"and re-bind")
        self.state = struct_cls()
        self.state_ptr = ctypes.cast(ctypes.pointer(self.state), c_void_p)
        self.cache_fields = [f"cache_{name}" for name in model.registers]
        self.fetched_fields = [f"fetched_{name}"
                               for name in model.structures] \
            if instance.debug else []

        bases = (c_uint * max(len(model.params), 1))()
        for i, name in enumerate(model.params):
            bases[i] = instance.bases[name]
        self.lib_init(self.state_ptr, bases)

        singles, blocks = dispatch_rows(model)
        #: ``stub name -> (dispatch id, row)`` of the C switches.
        self.stub_index = {row.name: (index, row)
                           for index, row in enumerate(singles)}
        self.block_index = {row.name: index
                            for index, row in enumerate(blocks)}
        self.memory_vars = {variable.name: variable
                            for variable in model.variables.values()
                            if variable.memory}
        self.mode_checks = {mode_check_message(register): register
                            for register in model.registers.values()
                            if register.mode is not None}
        max_args = max([len(row.params) for row in singles] + [1])
        self.args = (c_uint * max_args)()
        self.out = (c_uint * 1)()

        self.pending: BaseException | None = None
        self.hook_flag = False
        self.ring = (_TraceEntry * RING_CAPACITY)()
        self.direct_devices: list = []
        self._port_stamp: tuple | None = None
        self._port_entries = None
        self._table_bindings: list = []
        self.cbus = self._make_cbus()
        self.cbus_ptr = ctypes.cast(ctypes.pointer(self.cbus), c_void_p)
        # Per-device recursive C mutex: entry frames hold it for the
        # whole batch, so concurrent GIL-free batches against this
        # binding serialize in C.
        self._dev_lock = self.lib_lock_new()
        self.cbus.dev_lock = self._dev_lock
        self.raw_stubs: dict[str, object] = {}

    def __del__(self):
        lock = getattr(self, "_dev_lock", None)
        free = getattr(self, "lib_lock_free", None)
        if lock and free is not None:
            self._dev_lock = None
            cbus = getattr(self, "cbus", None)
            if cbus is not None:
                cbus.dev_lock = None
            try:
                free(lock)
            except Exception:       # interpreter teardown
                pass

    # -- library entry points ------------------------------------------

    def _bind_entries(self, lib) -> None:
        p = self.prefix
        self.lib_call = getattr(lib, f"{p}_nat_call")
        self.lib_call.argtypes = [c_void_p, c_void_p, c_uint,
                                  POINTER(c_uint), POINTER(c_uint)]
        self.lib_call.restype = c_int
        self.lib_repeat = getattr(lib, f"{p}_nat_repeat")
        self.lib_repeat.argtypes = [c_void_p, c_void_p, c_uint,
                                    POINTER(c_uint), c_ulong,
                                    POINTER(c_uint)]
        self.lib_repeat.restype = c_int
        self.lib_read_block = getattr(lib, f"{p}_nat_read_block")
        self.lib_read_block.argtypes = [c_void_p, c_void_p, c_uint,
                                        POINTER(c_uint), c_ulong]
        self.lib_read_block.restype = c_int
        self.lib_write_block = getattr(lib, f"{p}_nat_write_block")
        self.lib_write_block.argtypes = [c_void_p, c_void_p, c_uint,
                                         POINTER(c_uint), c_ulong]
        self.lib_write_block.restype = c_int
        self.lib_init = getattr(lib, f"{p}_nat_init")
        self.lib_init.argtypes = [c_void_p, POINTER(c_uint)]
        self.lib_init.restype = None
        self.lib_state_size = getattr(lib, f"{p}_nat_state_size")
        self.lib_state_size.argtypes = []
        self.lib_state_size.restype = c_ulong
        self.lib_bus_size = getattr(lib, f"{p}_nat_bus_abi_size")
        self.lib_bus_size.argtypes = []
        self.lib_bus_size.restype = c_ulong
        self.lib_port_size = getattr(lib, f"{p}_nat_port_abi_size")
        self.lib_port_size.argtypes = []
        self.lib_port_size.restype = c_ulong
        self.lib_lock_new = getattr(lib, f"{p}_nat_lock_new")
        self.lib_lock_new.argtypes = []
        self.lib_lock_new.restype = c_void_p
        self.lib_lock_free = getattr(lib, f"{p}_nat_lock_free")
        self.lib_lock_free.argtypes = [c_void_p]
        self.lib_lock_free.restype = None

    # -- callbacks ------------------------------------------------------

    def _make_cbus(self) -> _NatBus:
        bus = self.bus
        core = self

        def py_in(ctx, port, width):
            try:
                return bus.read(port, width) & 0xFFFFFFFF
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1
                return 0

        def py_out(ctx, value, port, width):
            try:
                bus.write(value, port, width)
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1

        def py_in_rep(ctx, port, width, count, buffer):
            try:
                values = bus.block_read(port, count, width)
                for i, value in enumerate(values):
                    buffer[i] = value
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1

        def py_out_rep(ctx, port, width, count, buffer):
            try:
                bus.block_write(port, [buffer[i] for i in range(count)],
                                width)
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1

        def raw_in(ctx, index, offset, width):
            try:
                return core.direct_devices[index].io_read(
                    offset, width) & 0xFFFFFFFF
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1
                return 0

        def raw_out(ctx, index, offset, value, width):
            try:
                core.direct_devices[index].io_write(offset, value, width)
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1

        label_memo: dict[tuple, tuple] = {}

        def obs_action(ctx, kind, target):
            collector = bus.collector
            if collector is None:
                return
            try:
                key = (kind, target)
                pair = label_memo.get(key)
                if pair is None:
                    pair = (kind.decode("ascii"), target.decode("ascii"))
                    label_memo[key] = pair
                collector.record_action(pair[0], pair[1])
            except BaseException as exc:
                core.pending = exc
                core.cbus.aborted = 1

        # Keep the CFUNCTYPE objects alive for the binding's lifetime.
        self._callbacks = (
            _IN_FN(py_in), _OUT_FN(py_out), _IN_REP_FN(py_in_rep),
            _OUT_REP_FN(py_out_rep), _RAW_IN_FN(raw_in),
            _RAW_OUT_FN(raw_out), _OBS_FN(obs_action))
        cbus = _NatBus()
        (cbus.py_in, cbus.py_out, cbus.py_in_rep, cbus.py_out_rep,
         cbus.raw_in, cbus.raw_out, cbus.obs) = self._callbacks
        cbus.ring = self.ring
        cbus.ring_cap = RING_CAPACITY
        return cbus

    # -- call plumbing --------------------------------------------------

    def _sync_hook(self) -> None:
        hook = self.bus.collector is not None
        if hook is not self.hook_flag:
            self.cbus.action_hook = 1 if hook else 0
            self.hook_flag = hook

    def call_stub(self, index: int) -> None:
        self._sync_hook()
        status = self.lib_call(self.state_ptr, self.cbus_ptr, index,
                               self.args, self.out)
        if status:
            self._raise(status)

    def _raise(self, status: int) -> None:
        cbus = self.cbus
        if status == STATUS_PYERR:
            exc, self.pending = self.pending, None
            cbus.aborted = 0
            if exc is None:
                raise DevilRuntimeError(
                    "native callback aborted without a pending exception",
                    self.instance.model.location)
            raise exc
        if status == STATUS_CHECK:
            message = (cbus.fail_msg or b"native runtime check failed") \
                .decode("ascii", "replace")
            register = self.mode_checks.get(message)
            if register is not None:
                # The interpreter's check words it with the device's
                # current mode, at the register's location.
                self.sync_memory()
                self.instance._check_mode(register)
            raise DevilRuntimeError(message, self.instance.model.location)
        if status == STATUS_NODEV:
            raise BusError(f"no device mapped at port "
                           f"{cbus.fail_port:#x}")
        if status == STATUS_DEVERR:
            # A C-resident device model raised: same exception type and
            # message the Python model would have produced.
            message = cbus.fail_msg or b"native device model error"
            raise BusError(message.decode("ascii", "replace"))
        raise DevilRuntimeError(
            f"native dispatch failed with status {status} "
            f"(stub table / library version skew)",
            self.instance.model.location)

    # -- direct mode ----------------------------------------------------

    def enter_direct(self) -> bool:
        """Switch a batch to port-table dispatch when exactness allows.

        One rule: an untraced plain :class:`Bus` with no collector goes
        direct, and every other bus stays on callbacks.  Tracing and a
        collector need the per-access Python hooks, and a subclass's
        hooks (the latency-modelling fleet bus sleeps per access) are
        semantics; the check is exact-type, so subclasses fail closed.
        A direct batch reaches C-resident models without the GIL and
        Python-modelled devices through raw callbacks, which take the
        GIL per access as callback mode does.
        """
        bus = self.bus
        if type(bus) is not Bus or bus.tracing or \
                bus.collector is not None:
            return False
        self._refresh_port_table()
        for binding in self._table_bindings:
            binding.sync_to_c()
        self.cbus.direct = 1
        return True

    def leave_direct(self) -> None:
        self.cbus.direct = 0
        for binding in self._table_bindings:
            binding.sync_to_py()
        self.sync_accounting()

    def _refresh_port_table(self) -> None:
        mappings = list(self.bus._mappings)
        stamp = tuple((id(m), id(m.device)) for m in mappings)
        if stamp == self._port_stamp:
            return
        from .models import SyncedFallback

        entries = (_PortEntry * max(len(mappings), 1))()
        own_bases = set(self.instance.bases.values())
        devices: list = []
        bindings: list = []
        for i, mapping in enumerate(mappings):
            entries[i].base = mapping.base
            entries[i].size = mapping.size
            entries[i].index = i
            device = mapping.device
            attached = None
            # Only mappings this instance *owns* get a C model: another
            # instance's device must not be mirrored from here, or two
            # cores would clobber each other's sync points.
            if mapping.base in own_bases:
                attached = self.models.binding_for(device)
            if attached is not None:
                kind, binding = attached
                entries[i].model = kind
                entries[i].mstate = ctypes.cast(
                    ctypes.pointer(binding.cstate), c_void_p)
                devices.append(SyncedFallback(binding, device))
                if binding not in bindings:
                    bindings.append(binding)
            else:
                devices.append(device)
        self._port_entries = entries        # keep alive
        self._table_bindings = bindings
        self.direct_devices = devices
        self.cbus.ports = entries
        self.cbus.n_ports = len(mappings)
        self._port_stamp = stamp

    def sync_accounting(self) -> None:
        """Merge the per-entry C counters of the last direct batch into
        ``bus.accounting``."""
        entries = self._port_entries
        if entries is None:
            return
        accounting = self.bus.accounting
        by_width = accounting.single_by_width
        for entry in entries:
            if not (entry.reads or entry.writes):
                continue
            accounting.reads += entry.reads
            accounting.writes += entry.writes
            for width, count in ((8, entry.w8), (16, entry.w16),
                                 (32, entry.w32)):
                if count:
                    by_width[width] = by_width.get(width, 0) + count
            entry.reads = entry.writes = 0
            entry.w8 = entry.w16 = entry.w32 = 0

    # -- caches ---------------------------------------------------------

    def clear_caches(self) -> None:
        state = self.state
        for field in self.cache_fields:
            setattr(state, field, 0)
        for field in self.fetched_fields:
            setattr(state, field, 0)

    def snapshot_structure(self, structure) -> dict:
        """Post-fetch snapshot + decode, shared by get_<struct> and
        batched repeats."""
        instance = self.instance
        state = self.state
        snapshot = {}
        for register in instance._structure_registers(structure.name):
            snapshot[register] = getattr(state, f"cache_{register}")
        instance._structure_cache[structure.name] = snapshot
        result = {}
        for member_name in structure.members:
            member = instance.model.variables[member_name]
            raw = instance._assemble(member, snapshot)
            result[member_name] = instance._decode(member, raw)
        return result

    # -- stub installation ----------------------------------------------

    def install(self) -> None:
        instance = self.instance
        for row in stub_table(instance.model).rows:
            wrapper = self._build_stub(row)
            self.raw_stubs[row.name] = wrapper
            setattr(instance, row.name, wrapper)

    def _build_stub(self, row):
        model = self.instance.model
        kind, target = row.kind, row.target
        if kind == "block_read":
            return self._block_reader(target, self.block_index[row.name])
        if kind == "block_write":
            return self._block_writer(target, self.block_index[row.name])
        if kind == "get_struct":
            return self._struct_getter(model.structures[target],
                                       self.stub_index[row.name][0])
        if kind == "set_struct":
            return self._struct_setter(model.structures[target],
                                       self.stub_index[row.name][0])
        variable = model.variables[target]
        if kind == "get":
            if variable.memory:
                return self._memory_getter(variable)
            if variable.structure is not None:
                return self._member_getter(variable)
            return self._getter(variable, self.stub_index[row.name][0])
        assert kind == "set"
        if variable.memory:
            return self._memory_setter(variable)
        return self._setter(variable, self.stub_index[row.name][0])

    def _getter(self, variable, index: int):
        instance = self.instance
        out = self.out
        mask = (1 << variable.width) - 1

        def native_get():
            self.call_stub(index)
            return instance._decode(variable, out[0] & mask)
        return native_get

    def _setter(self, variable, index: int):
        instance = self.instance
        args = self.args

        def native_set(value):
            args[0] = instance._encode(variable, value)
            self.call_stub(index)
            instance._last_written[variable.name] = value
        return native_set

    def _member_getter(self, variable):
        # Pure Python: the interpreter's snapshot semantics (fetch-time
        # register values, debug unfetched-read check) are the spec.
        instance = self.instance

        def native_member_get():
            return instance._get_member(variable)
        return native_member_get

    def memory_get(self, variable):
        """Read a memory variable from the C mirror.

        The mirror is authoritative (C-side actions update it and the
        Python ``_memory`` dict cannot see them); the ``init_`` flag —
        unconditional in the state struct — preserves the interpreter's
        read-before-initialisation error in release mode too.
        """
        name = variable.name
        if not getattr(self.state, f"init_{name}"):
            raise DevilRuntimeError(
                f"memory variable {name!r} read before initialisation",
                variable.location)
        return self.instance._decode(
            variable, getattr(self.state, f"mem_{name}"))

    def memory_set(self, variable, value) -> None:
        # Interpreter semantics: store only — memory writes run no
        # set-actions.  Both sides are written: the mirror feeds C
        # actions and mode checks, ``_memory`` keeps the interpreter
        # fallback paths (``_check_mode``) coherent.
        instance = self.instance
        name = variable.name
        raw = instance._encode(variable, value)
        setattr(self.state, f"mem_{name}", raw)
        setattr(self.state, f"init_{name}", 1)
        instance._memory[name] = value
        instance._last_written[name] = value

    def sync_memory(self) -> None:
        """Pull C-action-written memory values into ``_memory`` so
        interpreter fallback paths (mode checks, error paths) see the
        same device mode the compiled stubs do."""
        instance = self.instance
        state = self.state
        for name, variable in self.memory_vars.items():
            if getattr(state, f"init_{name}"):
                instance._memory[name] = instance._decode(
                    variable, getattr(state, f"mem_{name}"))

    def _memory_getter(self, variable):
        def native_memory_get():
            return self.memory_get(variable)
        return native_memory_get

    def _memory_setter(self, variable):
        def native_memory_set(value):
            self.memory_set(variable, value)
        return native_memory_set

    def _struct_getter(self, structure, index: int):
        def native_struct_get():
            self.call_stub(index)
            return self.snapshot_structure(structure)
        return native_struct_get

    def _struct_setter(self, structure, index: int):
        instance = self.instance
        model = instance.model
        members = [model.variables[m] for m in structure.members]
        member_names = set(structure.members)
        args = self.args

        def native_struct_set(**values):
            missing = member_names - set(values)
            if missing:
                raise DevilRuntimeError(
                    f"structure write of {structure.name!r} must provide "
                    f"every member (missing: {sorted(missing)})",
                    structure.location)
            unknown = set(values) - member_names
            if unknown:
                raise DevilRuntimeError(
                    f"unknown member(s) {sorted(unknown)} in structure "
                    f"write of {structure.name!r}", structure.location)
            for i, member in enumerate(members):
                args[i] = instance._encode(member, values[member.name])
            self.call_stub(index)
            for member in members:
                instance._last_written[member.name] = values[member.name]
        return native_struct_set

    def _block_reader(self, target: str, index: int):
        instance = self.instance

        def native_read_block(count):
            if not isinstance(count, int) or count < 0:
                # Interpreter path reproduces the exact error behaviour
                # (pre-actions, then the bus rejects the count).
                self.sync_memory()
                return DeviceInstance.read_block(instance, target, count)
            buffer = (c_uint * max(count, 1))()
            self._sync_hook()
            status = self.lib_read_block(self.state_ptr, self.cbus_ptr,
                                         index, buffer, count)
            if status:
                self._raise(status)
            return buffer[:count]
        return native_read_block

    def _block_writer(self, target: str, index: int):
        def native_write_block(values):
            values = list(values)
            count = len(values)
            buffer = (c_uint * max(count, 1))()
            for i, value in enumerate(values):
                buffer[i] = value & 0xFFFFFFFF
            self._sync_hook()
            status = self.lib_write_block(self.state_ptr, self.cbus_ptr,
                                          index, buffer, count)
            if status:
                self._raise(status)
            return count
        return native_write_block


def reject_unsupported(model, composition: str = "cache",
                       shadow_cache: bool = False) -> None:
    """Raise the error a native bind of ``model`` raises for an option
    the core rejects by design (transactions fail at ``txn()``)."""
    if composition != "cache":
        raise DevilRuntimeError(
            f"strategy='native' supports only composition='cache' "
            f"(got {composition!r}); use interpret/specialize for "
            f"the read-modify-write ablation", model.location)
    if shadow_cache:
        raise DevilRuntimeError(
            "strategy='native' does not support shadow_cache=True; "
            "use strategy='specialize' for read elision",
            model.location)


class NativeDeviceInstance(DeviceInstance):
    """A device bound with ``strategy="native"``.

    Same public stub surface and (byte-for-byte) same bus traffic as
    the interpreter; state lives in the compiled C struct.  Unsupported
    by design: transactions, ``shadow_cache`` and the
    ``read-modify-write`` composition ablation — bind another strategy
    for those.
    """

    def __init__(self, model, bus, bases, debug: bool = True,
                 composition: str = "cache",
                 shadow_cache: bool = False):
        reject_unsupported(model, composition, shadow_cache)
        super().__init__(model, bus, bases, debug=debug,
                         composition="cache", strategy="interpret",
                         shadow_cache=False)
        self.strategy = "native"
        self._native = _NativeCore(self)
        self._native.install()
        if self._instrumented:
            # Re-wrap: the native closures replaced the interpreted
            # stubs instrument_instance wrapped in super().__init__.
            obs.instrument_instance(self)

    # -- generic accessors route through the native closures -----------

    def get(self, name: str) -> object:
        core = self._native
        variable = core.memory_vars.get(name)
        if variable is not None:      # public or private memory var
            return core.memory_get(variable)
        fn = core.raw_stubs.get(f"get_{name}")
        if fn is None or name in self.model.structures:
            core.sync_memory()
            return super().get(name)   # unknown/write-only error paths
        return fn()

    def set(self, name: str, value: object) -> None:
        core = self._native
        variable = core.memory_vars.get(name)
        if variable is not None:
            return core.memory_set(variable, value)
        fn = core.raw_stubs.get(f"set_{name}")
        if fn is None or name in self.model.structures:
            core.sync_memory()
            return super().set(name, value)
        return fn(value)

    def get_structure(self, name: str) -> dict[str, object]:
        fn = self._native.raw_stubs.get(f"get_{name}") \
            if name in self.model.structures else None
        if fn is None:
            self._native.sync_memory()
            return super().get_structure(name)
        return fn()

    def set_structure(self, name: str, values: dict[str, object]) -> None:
        fn = self._native.raw_stubs.get(f"set_{name}") \
            if name in self.model.structures else None
        if fn is None:
            self._native.sync_memory()
            return super().set_structure(name, values)
        return fn(**values)

    def read_block(self, name: str, count: int) -> list[int]:
        fn = self._native.raw_stubs.get(f"read_{name}_block")
        if fn is None:
            self._native.sync_memory()
            return super().read_block(name, count)
        return fn(count)

    def write_block(self, name: str, values) -> int:
        fn = self._native.raw_stubs.get(f"write_{name}_block")
        if fn is None:
            self._native.sync_memory()
            return super().write_block(name, values)
        return fn(values)

    # -- batched dispatch ----------------------------------------------

    def repeat(self, stub: str, n: int, *args) -> object:
        """Call public stub ``stub`` ``n`` times, one C crossing total.

        Returns what the final call returned (setters return None).
        ``set_<struct>`` takes the member values positionally, in
        declaration order.  With a span collector attached the batch
        falls back to a Python loop over the instrumented stubs so
        per-call spans stay exact; read-side decode checks run against
        the final value.  On a plain untraced bus the batch runs in
        direct mode (C port table + C accounting, merged back when the
        batch ends).
        """
        core = self._native
        n = int(n)
        entry = core.stub_index.get(stub)
        if entry is None or self.bus.collector is not None:
            fn = getattr(self, stub, None)
            if fn is None:
                raise DevilRuntimeError(
                    f"unknown stub {stub!r} for repeat()",
                    self.model.location)
            if entry is None and stub not in core.raw_stubs and \
                    stub not in core.block_index:
                raise DevilRuntimeError(
                    f"unknown stub {stub!r} for repeat()",
                    self.model.location)
            result = None
            for _ in range(n):
                result = fn(*args)
            return result
        index, row = entry
        model = self.model
        if row.kind == "set":
            variable = model.variables[row.target]
            core.args[0] = self._encode(variable, args[0])
        elif row.kind == "set_struct":
            structure = model.structures[row.target]
            members = [model.variables[m] for m in row.params]
            if len(args) != len(members):
                raise DevilRuntimeError(
                    f"repeat({stub!r}) takes {len(members)} positional "
                    f"member values (declaration order), got {len(args)}",
                    structure.location)
            for i, member in enumerate(members):
                core.args[i] = self._encode(member, args[i])
        elif args:
            raise DevilRuntimeError(
                f"stub {stub!r} takes no arguments", model.location)
        if n <= 0:
            return None
        direct = core.enter_direct()
        try:
            core._sync_hook()
            status = core.lib_repeat(core.state_ptr, core.cbus_ptr,
                                     index, core.args, n, core.out)
        finally:
            if direct:
                core.leave_direct()
        if status:
            core._raise(status)
        if row.kind == "get":
            variable = model.variables[row.target]
            mask = (1 << variable.width) - 1
            return self._decode(variable, core.out[0] & mask)
        if row.kind == "get_struct":
            return core.snapshot_structure(model.structures[row.target])
        if row.kind == "set":
            self._last_written[row.target] = args[0]
        elif row.kind == "set_struct":
            for member_name, value in zip(row.params, args):
                self._last_written[member_name] = value
        return None

    # -- seams for the parity harness ----------------------------------

    def sync_to_bus(self) -> None:
        """Flush pending C accounting deltas into ``bus.accounting``.

        A no-op outside direct batches: single calls and callback-mode
        batches account through the Python bus as they go.
        """
        self._native.sync_accounting()

    def state_blob(self) -> bytes:
        """The C state struct, byte for byte (ports, caches, memory)."""
        self.sync_to_bus()
        return bytes(self._native.state)

    def flight_recorder(self) -> list[IoTraceEntry]:
        """Decoded bounded trace ring: the last direct-mode accesses."""
        cbus = self._native.cbus
        ring = self._native.ring
        capacity = cbus.ring_cap
        written = cbus.ring_written
        count = min(written, capacity)
        entries = []
        for position in range(written - count, written):
            slot = ring[position % capacity]
            entries.append(IoTraceEntry(
                "r" if slot.op == 0 else "w", slot.port, slot.value,
                slot.width))
        return entries

    # -- unsupported features ------------------------------------------

    def transaction(self):
        raise DevilRuntimeError(
            "strategy='native' does not support transactions; bind "
            "strategy='specialize' (or 'interpret') for write "
            "coalescing", self.model.location)

    def txn(self):
        return self.transaction()

    # -- introspection --------------------------------------------------

    def cached_register(self, name: str) -> int | None:
        """Masked raw cache word from the C state struct.

        Differs from the interpreter in two documented ways: the native
        cache is zero-initialised (never ``None``) and read caches are
        stored masked to the register's variable bits, as in the
        generated C.
        """
        if name not in self.model.registers:
            return None
        return getattr(self._native.state, f"cache_{name}")

    def invalidate_caches(self) -> None:
        super().invalidate_caches()
        self._native.clear_caches()
