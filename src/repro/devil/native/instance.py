"""The ``strategy="native"`` device binding.

A :class:`NativeDeviceInstance` keeps device state in the generated C
state struct, owned by the spec's extension module (its ``Core`` type;
Python reads and writes the struct's fields as the type's members) and
dispatches public stubs through the module's four entry points.  The
division of labour is chosen for *exactness* against the interpreter,
which stays the semantic reference:

* top-level variable get/set, structure get/set and block transfers run
  in C; their port I/O calls the Python :class:`Bus` through the C API,
  so traces, accounting, collectors and mapped device models observe
  byte-identical streams;
* value validation stays in Python: setters pre-validate with the
  interpreter's ``_encode`` (so §3.2 write errors carry the exact
  interpreter messages) and getters decode the raw C result with
  ``_decode`` (read-side checks, release fallbacks);
* structure-member reads and memory variables run purely in Python
  against the state members, preserving the interpreter's snapshot
  semantics (members read the fetch-time snapshot, not live caches)
  and its memory rules (writes run no actions, reads return the stored
  value);
* :meth:`NativeDeviceInstance.repeat` is the batched entry: ``n``
  calls of one stub cross the Python↔C boundary once.  On a plain,
  untraced, uncollected bus the batch additionally runs *direct*, with
  the GIL released: port-table dispatch straight to the mapped device
  models with C-side accounting counters, merged into
  ``bus.accounting`` when the batch ends (:meth:`sync_to_bus`).

C runtime checks unwind via ``setjmp``/``longjmp`` and surface as
:class:`DevilRuntimeError`; exceptions raised inside Python callbacks
abort the C frames and re-raise unchanged.
"""

from __future__ import annotations

import threading

from ... import obs
from ...bus.bus import Bus, BusError
from ..errors import DevilRuntimeError
from ..runtime import DeviceInstance
from ..codegen.c_backend import generate_c_header, mode_check_message
from ..stubs import stub_table
from . import build
from .shim import (STATUS_CHECK, STATUS_DEVERR, STATUS_NODEV,
                   dispatch_rows, generate_shim)


class _NativeCore:
    """The extension core of one binding, its stub closures and its
    direct-mode port table."""

    def __init__(self, instance: "NativeDeviceInstance"):
        self.instance = instance
        self.bus = instance.bus
        model = instance.model
        header = generate_c_header(model, debug=instance.debug)
        # The shim is a function of the model alone (emitted once per
        # model, like the header).
        shim_source = model.__dict__.get("_native_shim")
        if shim_source is None:
            shim_source = model.__dict__["_native_shim"] = \
                generate_shim(model)
        module = build.build_module(model.name, header, shim_source,
                                    instance.debug)
        #: The extension's ``Core``: state struct, bus context, mutex.
        self.core = module.Core(
            instance.bus, [instance.bases[name] for name in model.params],
            self._fault)
        from .models import ModelRegistry
        self.models = ModelRegistry(module)
        self.cache_fields = [f"cache_{name}" for name in model.registers]
        self.fetched_fields = [f"fetched_{name}"
                               for name in model.structures] \
            if instance.debug else []

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
        #: Port accesses served direct so far (merged by
        #: :meth:`sync_accounting`).
        self.direct_accesses = 0
        #: The port table a direct batch runs against.
        self.ports: tuple = ()
        #: Held across a batch and its C-model syncs, which attach and
        #: detach buffers that another thread's batch may be using.
        self.batch_lock = threading.RLock()
        self._port_stamp: tuple | None = None
        self._table_bindings: list = []
        self.raw_stubs: dict[str, object] = {}

    def _fault(self, status: int, message: str | None, port: int) -> None:
        """Raise the error a failed entry frame stands for."""
        location = self.instance.model.location
        if status == STATUS_CHECK:
            message = message or "native runtime check failed"
            register = self.mode_checks.get(message)
            if register is not None:
                # The interpreter's check words it with the device's
                # current mode, at the register's location.
                self.sync_memory()
                self.instance._check_mode(register)
            raise DevilRuntimeError(message, location)
        if status == STATUS_NODEV:
            raise BusError(f"no device mapped at port {port:#x}")
        if status == STATUS_DEVERR:
            # A C-resident device model raised: same exception type and
            # message the Python model would have produced.
            raise BusError(message or "native device model error")
        raise DevilRuntimeError(
            f"native dispatch failed with status {status} "
            f"(stub table / library version skew)", location)

    # -- direct mode ----------------------------------------------------

    def enter_direct(self) -> bool:
        """Ready a batch for port-table dispatch when exactness allows.

        One rule: an untraced plain :class:`Bus` with no collector goes
        direct, and every other bus stays on callbacks.  Tracing and a
        collector need the per-access Python hooks, and a subclass's
        hooks (the latency-modelling fleet bus sleeps per access) are
        semantics; the check is exact-type, so subclasses fail closed.
        A direct batch releases the GIL: it reaches C-resident models
        without it and Python-modelled devices through raw callbacks,
        which take it per access.
        """
        bus = self.bus
        if type(bus) is not Bus or bus.tracing or \
                bus.collector is not None:
            return False
        self._refresh_port_table()
        for binding in self._table_bindings:
            binding.sync_to_c()
        return True

    def leave_direct(self) -> None:
        for binding in self._table_bindings:
            binding.sync_to_py()
        self.sync_accounting()

    def _refresh_port_table(self) -> None:
        mappings = list(self.bus._mappings)
        stamp = tuple((id(m), id(m.device)) for m in mappings)
        if stamp == self._port_stamp:
            return
        from .models import MODEL_NONE, SyncedFallback

        own_bases = set(self.instance.bases.values())
        entries: list[tuple] = []
        bindings: list = []
        for mapping in mappings:
            device = mapping.device
            attached = None
            # Only mappings this instance *owns* get a C model: another
            # instance's device must not be synced from here, or two
            # cores would clobber each other's sync points.
            if mapping.base in own_bases:
                attached = self.models.binding_for(device)
            if attached is None:
                entries.append((mapping.base, mapping.size, device,
                                MODEL_NONE, None))
                continue
            kind, binding = attached
            entries.append((mapping.base, mapping.size,
                            SyncedFallback(binding, device), kind,
                            binding.cstate))
            if binding not in bindings:
                bindings.append(binding)
        self.ports = tuple(entries)
        self._table_bindings = bindings
        self._port_stamp = stamp

    def sync_accounting(self) -> None:
        """Merge the C counters of the last direct batches into
        ``bus.accounting``."""
        core = self.core
        # Take and clear the counters with no call in between: a frame
        # that ends meanwhile on another thread adds to them only while
        # it holds the GIL.
        reads, writes, w8, w16, w32 = (core.reads, core.writes, core.w8,
                                       core.w16, core.w32)
        core.reads = core.writes = core.w8 = core.w16 = core.w32 = 0
        if not (reads or writes):
            return
        accounting = self.bus.accounting
        accounting.reads += reads
        accounting.writes += writes
        by_width = accounting.single_by_width
        for width, count in ((8, w8), (16, w16), (32, w32)):
            if count:
                by_width[width] = by_width.get(width, 0) + count
        self.direct_accesses += reads + writes

    # -- caches ---------------------------------------------------------

    def clear_caches(self) -> None:
        core = self.core
        for field in self.cache_fields + self.fetched_fields:
            setattr(core, field, 0)

    def snapshot_structure(self, structure) -> dict:
        """Post-fetch snapshot + decode, shared by get_<struct> and
        batched repeats."""
        instance = self.instance
        core = self.core
        snapshot = {}
        for register in instance._structure_registers(structure.name):
            snapshot[register] = getattr(core, f"cache_{register}")
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
            return self._block_writer(self.block_index[row.name])
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
        call = self.core.call
        decode = self.instance._decode
        mask = (1 << variable.width) - 1

        def native_get():
            return decode(variable, call(index) & mask)
        return native_get

    def _setter(self, variable, index: int):
        call = self.core.call
        encode = self.instance._encode
        last_written = self.instance._last_written
        name = variable.name

        def native_set(value):
            call(index, encode(variable, value))
            last_written[name] = value
        return native_set

    def _member_getter(self, variable):
        # Pure Python: the interpreter's snapshot semantics (fetch-time
        # register values, debug unfetched-read check) are the spec.
        instance = self.instance

        def native_member_get():
            return instance._get_member(variable)
        return native_member_get

    def memory_get(self, variable):
        """Read a memory variable from the C state.

        The C state is authoritative (C-side actions update it and the
        Python ``_memory`` dict cannot see them); the ``init_`` flag,
        unconditional in the state struct, preserves the interpreter's
        read-before-initialisation error in release mode too.
        """
        name = variable.name
        if not getattr(self.core, f"init_{name}"):
            raise DevilRuntimeError(
                f"memory variable {name!r} read before initialisation",
                variable.location)
        return self.instance._decode(
            variable, getattr(self.core, f"mem_{name}"))

    def memory_set(self, variable, value) -> None:
        # Interpreter semantics: store only — memory writes run no
        # set-actions.  Both sides are written: the C state feeds C
        # actions and mode checks, ``_memory`` keeps the interpreter
        # fallback paths (``_check_mode``) coherent.
        instance = self.instance
        name = variable.name
        raw = instance._encode(variable, value)
        setattr(self.core, f"mem_{name}", raw)
        setattr(self.core, f"init_{name}", 1)
        instance._memory[name] = value
        instance._last_written[name] = value

    def sync_memory(self) -> None:
        """Pull C-action-written memory values into ``_memory`` so
        interpreter fallback paths (mode checks, error paths) see the
        same device mode the compiled stubs do."""
        instance = self.instance
        core = self.core
        for name, variable in self.memory_vars.items():
            if getattr(core, f"init_{name}"):
                instance._memory[name] = instance._decode(
                    variable, getattr(core, f"mem_{name}"))

    def _memory_getter(self, variable):
        def native_memory_get():
            return self.memory_get(variable)
        return native_memory_get

    def _memory_setter(self, variable):
        def native_memory_set(value):
            self.memory_set(variable, value)
        return native_memory_set

    def _struct_getter(self, structure, index: int):
        call = self.core.call

        def native_struct_get():
            call(index)
            return self.snapshot_structure(structure)
        return native_struct_get

    def _struct_setter(self, structure, index: int):
        instance = self.instance
        model = instance.model
        members = [model.variables[m] for m in structure.members]
        member_names = set(structure.members)
        call = self.core.call

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
            call(index, *[instance._encode(member, values[member.name])
                          for member in members])
            for member in members:
                instance._last_written[member.name] = values[member.name]
        return native_struct_set

    def _block_reader(self, target: str, index: int):
        instance = self.instance
        read_block = self.core.read_block

        def native_read_block(count):
            if not isinstance(count, int) or count < 0:
                # Interpreter path reproduces the exact error behaviour
                # (pre-actions, then the bus rejects the count).
                self.sync_memory()
                return DeviceInstance.read_block(instance, target, count)
            return read_block(index, count)
        return native_read_block

    def _block_writer(self, index: int):
        write_block = self.core.write_block

        def native_write_block(values):
            words = [value & 0xFFFFFFFF for value in values]
            write_block(index, words)
            return len(words)
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
        direct mode with the GIL released (C port table + C accounting,
        merged back when the batch ends).
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
        words: list[int] = []
        if row.kind == "set":
            words = [self._encode(model.variables[row.target], args[0])]
        elif row.kind == "set_struct":
            structure = model.structures[row.target]
            members = [model.variables[m] for m in row.params]
            if len(args) != len(members):
                raise DevilRuntimeError(
                    f"repeat({stub!r}) takes {len(members)} positional "
                    f"member values (declaration order), got {len(args)}",
                    structure.location)
            words = [self._encode(member, value)
                     for member, value in zip(members, args)]
        elif args:
            raise DevilRuntimeError(
                f"stub {stub!r} takes no arguments", model.location)
        if n <= 0:
            return None
        with core.batch_lock:
            direct = core.enter_direct()
            try:
                out = core.core.repeat(
                    index, n, core.ports if direct else None, *words)
            finally:
                if direct:
                    core.leave_direct()
        if row.kind == "get":
            variable = model.variables[row.target]
            mask = (1 << variable.width) - 1
            return self._decode(variable, out & mask)
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
        return bytes(self._native.core)

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
        return getattr(self._native.core, f"cache_{name}")

    def invalidate_caches(self) -> None:
        super().invalidate_caches()
        self._native.clear_caches()
