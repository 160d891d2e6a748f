"""The simulated I/O bus.

A :class:`Bus` owns a flat address space into which behavioural device
models are mapped.  Drivers (hand-written or Devil-generated) perform
``inb``/``outb``-style accesses; the bus routes them to the owning
device model, enforces width and range rules, and accounts every
access.

Accounting distinguishes single accesses from block (``rep``) transfers
because the paper's Table 2 shows that Devil's ``block`` stubs — which
compile to a single ``rep`` instruction on the Pentium — close the 10 %
throughput gap that a C loop over single-word stubs leaves open.  The
performance models in :mod:`repro.perf` convert these counters into
throughput figures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol


class BusError(Exception):
    """Raised for accesses that no real bus could satisfy.

    In a physical machine a stray port access yields bus garbage; in the
    simulation we prefer to fail loudly, because a stray access from a
    generated stub is always a bug in this reproduction.
    """


class MappedDevice(Protocol):
    """Interface a behavioural device model exposes to the bus.

    ``offset`` is relative to the base address the device was mapped
    at; ``width`` is the access width in bits (8, 16 or 32).

    A device may also define ``io_read_block(offset, count, width)``,
    which :meth:`Bus.block_read` then calls once per ``rep insw`` (for
    ``count > 0``) instead of calling :meth:`io_read` ``count`` times.
    Its contract: it returns the list that ``count`` successive
    ``io_read(offset, width)`` calls would return and leaves the model
    in the same state; if a word fails, it raises the exception that
    word's ``io_read`` would raise, after the same earlier words were
    consumed.  Its values must fit in ``width`` bits, as ``io_read``'s
    should: the bus masks each per-word read but hands the block's list
    back as is.  The per-word loop is the reference it is tested against.
    """

    def io_read(self, offset: int, width: int) -> int:
        """Handle a read; returns the raw value (width bits)."""
        ...  # pragma: no cover - protocol

    def io_write(self, offset: int, value: int, width: int) -> None:
        """Handle a write of ``value`` (width bits)."""
        ...  # pragma: no cover - protocol


@dataclass
class IoAccounting:
    """Counters for every kind of bus access.

    ``reads``/``writes`` count single port operations.  A block
    transfer counts as **one** operation in ``block_ops`` (matching the
    paper's I/O-operation columns, where a ``rep insw`` is one
    instruction) while ``block_words`` records how many words moved.
    """

    reads: int = 0
    writes: int = 0
    block_ops: int = 0
    block_words: int = 0
    #: Single operations broken down by access width (bits); the
    #: timing models charge 8/16-bit and 32-bit cycles differently.
    single_by_width: dict = field(default_factory=dict)
    #: Block-transferred words by access width.
    block_words_by_width: dict = field(default_factory=dict)
    #: Reads served from a runtime shadow cache instead of the bus.
    #: *Not* counted in :attr:`total_ops` — no port operation happened;
    #: the counter exists so elision is visible, never silent.
    elided_reads: int = 0
    #: Register writes merged away by transactional coalescing (the
    #: writes deferred set calls would have issued, minus the register
    #: writes the flush actually performed).  Introspection only, like
    #: :attr:`elided_reads`.
    coalesced_writes: int = 0

    @property
    def single_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_ops(self) -> int:
        """Operations as counted by the paper (block transfer = 1)."""
        return self.single_ops + self.block_ops

    @property
    def bus_transactions(self) -> int:
        """Every word moved, loop or rep — the per-sector counts of
        Table 2 (128 or 256 data operations per sector)."""
        return self.single_ops + self.block_words

    def record_single(self, width: int) -> None:
        self.single_by_width[width] = \
            self.single_by_width.get(width, 0) + 1

    def record_block(self, width: int, words: int) -> None:
        self.block_words_by_width[width] = \
            self.block_words_by_width.get(width, 0) + words

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.block_ops = 0
        self.block_words = 0
        self.single_by_width = {}
        self.block_words_by_width = {}
        self.elided_reads = 0
        self.coalesced_writes = 0

    def snapshot(self) -> "IoAccounting":
        return IoAccounting(self.reads, self.writes,
                            self.block_ops, self.block_words,
                            dict(self.single_by_width),
                            dict(self.block_words_by_width),
                            self.elided_reads, self.coalesced_writes)

    def add(self, other: "IoAccounting") -> "IoAccounting":
        """Accumulate ``other``'s counters into this one (returns self).

        The merge half of the fleet's per-session accounting
        (:class:`repro.engine.fleet.MergedSessions`): per-device counts
        are summed into one consistent view.
        """
        self.reads += other.reads
        self.writes += other.writes
        self.block_ops += other.block_ops
        self.block_words += other.block_words
        for width, count in other.single_by_width.items():
            self.single_by_width[width] = \
                self.single_by_width.get(width, 0) + count
        for width, words in other.block_words_by_width.items():
            self.block_words_by_width[width] = \
                self.block_words_by_width.get(width, 0) + words
        self.elided_reads += other.elided_reads
        self.coalesced_writes += other.coalesced_writes
        return self

    def delta(self, earlier: "IoAccounting") -> "IoAccounting":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        widths = set(self.single_by_width) | set(earlier.single_by_width)
        block_widths = set(self.block_words_by_width) | \
            set(earlier.block_words_by_width)
        return IoAccounting(
            self.reads - earlier.reads,
            self.writes - earlier.writes,
            self.block_ops - earlier.block_ops,
            self.block_words - earlier.block_words,
            {w: self.single_by_width.get(w, 0)
                - earlier.single_by_width.get(w, 0) for w in widths},
            {w: self.block_words_by_width.get(w, 0)
                - earlier.block_words_by_width.get(w, 0)
             for w in block_widths},
            self.elided_reads - earlier.elided_reads,
            self.coalesced_writes - earlier.coalesced_writes,
        )


@dataclass(frozen=True)
class IoTraceEntry:
    """One traced access: ``op`` is 'r', 'w', 'rb' (block read) or 'wb'.

    ``count`` is the word count of the block operation the entry
    belongs to (1 for single accesses).  A block transfer of N words
    appends N entries, each carrying ``count=N``, so adjacent block
    operations to the same port remain distinguishable and the
    operation structure is reconstructible from the trace alone (see
    :func:`iter_operations`).
    """

    op: str
    port: int
    value: int
    width: int
    count: int = 1


def iter_operations(trace: Iterable[IoTraceEntry]) \
        -> Iterator[tuple[IoTraceEntry, ...]]:
    """Group a trace back into bus operations.

    Single accesses yield one-entry tuples; a block transfer yields one
    tuple of its ``count`` per-word entries.  This is the inverse of the
    trace encoding: ``sum(len(op) for op in iter_operations(t)) ==
    len(t)`` and the grouping matches :class:`IoAccounting.total_ops`.
    """
    entries = iter(trace)
    for entry in entries:
        if entry.op in ("r", "w"):
            yield (entry,)
            continue
        words = [entry]
        for _ in range(entry.count - 1):
            words.append(next(entries))
        yield tuple(words)


def read_words(device: MappedDevice, offset: int, count: int,
               width: int) -> list[int]:
    """The device side of a block read: ``count`` values of one port.

    One ``io_read_block`` call when the device has that method (see
    :class:`MappedDevice`), else one ``io_read`` per word, masked to
    ``width``.  ``count == 0`` calls no device.  Shared by every bus
    class's ``block_read``.
    """
    if not count:
        return []
    read_block = getattr(device, "io_read_block", None)
    if read_block is not None:
        return read_block(offset, count, width)
    mask = (1 << width) - 1
    return [device.io_read(offset, width) & mask for _ in range(count)]


@dataclass
class _Mapping:
    base: int
    size: int
    device: MappedDevice
    name: str
    #: Per-device lock and accounting shard, populated only by
    #: :class:`~repro.bus.concurrent.ThreadSafeBus`; the base bus never
    #: touches either, so the single-threaded hot path pays nothing.
    lock: object = None
    shard: object = None

    def contains(self, port: int) -> bool:
        return self.base <= port < self.base + self.size


@dataclass
class Bus:
    """A flat port/memory address space with mapped device models."""

    accounting: IoAccounting = field(default_factory=IoAccounting)
    #: When True, every access is appended to :attr:`trace`.
    tracing: bool = False
    trace: list[IoTraceEntry] = field(default_factory=list)
    #: When set, :attr:`trace` becomes a ring buffer of this many
    #: entries: long workloads keep the most recent window instead of
    #: growing without bound, and every evicted entry is counted in
    #: :attr:`trace_dropped` (surfaced as the ``bus.trace_dropped``
    #: metric by :mod:`repro.obs`).
    trace_limit: int | None = None
    #: Entries evicted from the ring buffer so far.
    trace_dropped: int = 0
    #: Telemetry observer (:class:`repro.obs.Collector`) or None.  The
    #: hook shares the ``tracing`` gate, so port-level attribution
    #: requires ``tracing=True`` (the default everywhere telemetry is
    #: used) and an untraced bus pays nothing for it: the hot paths
    #: check exactly one flag, as they did before telemetry existed.
    #: When attached and tracing, every access is attributed to the
    #: currently open device-variable span.
    collector: object | None = None
    _mappings: list[_Mapping] = field(default_factory=list)
    #: Port-dispatch fast path: memoized ``port -> _Mapping`` so the hot
    #: ``read``/``write`` path costs one dict probe instead of a linear
    #: scan over every mapping.  Populated lazily on first access to a
    #: port and invalidated whenever the topology changes.
    _port_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.trace_limit is not None:
            if self.trace_limit < 0:
                raise BusError(
                    f"trace_limit must be non-negative, "
                    f"got {self.trace_limit}")
            self.trace = deque(self.trace, maxlen=self.trace_limit)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def _trace_add(self, entry: IoTraceEntry) -> None:
        trace = self.trace
        if self.trace_limit is not None and \
                len(trace) >= self.trace_limit:
            self.trace_dropped += 1  # the deque evicts the oldest entry
        trace.append(entry)

    def _trace_extend(self, entries: list[IoTraceEntry]) -> None:
        """Append one block operation's per-word entries.

        A single overridable point so :class:`ThreadSafeBus` can keep
        the group contiguous in the ring buffer under concurrent
        writers (``iter_operations`` relies on block contiguity).
        """
        for entry in entries:
            self._trace_add(entry)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def map_device(self, base: int, size: int, device: MappedDevice,
                   name: str = "") -> None:
        """Map ``device`` at ``[base, base+size)``; ranges must not overlap."""
        if size <= 0:
            raise BusError(f"mapping size must be positive, got {size}")
        if base < 0:
            raise BusError(f"mapping base must be non-negative, got {base}")
        for mapping in self._mappings:
            if base < mapping.base + mapping.size and \
                    mapping.base < base + size:
                raise BusError(
                    f"mapping [{base:#x}, {base + size:#x}) overlaps "
                    f"{mapping.name or 'existing mapping'} at "
                    f"[{mapping.base:#x}, {mapping.base + mapping.size:#x})")
        self._mappings.append(
            _Mapping(base, size, device, name or type(device).__name__))
        self._port_cache.clear()

    def unmap_device(self, device: MappedDevice) -> None:
        """Remove every mapping of ``device``."""
        self._mappings = [m for m in self._mappings if m.device is not device]
        self._port_cache.clear()

    # ------------------------------------------------------------------
    # State snapshot / restore (the cross-process parity seam)
    # ------------------------------------------------------------------

    def state_snapshot(self) -> dict[str, bytes]:
        """``mapping name -> pickled device state``, byte-comparable.

        The end-state parity seam used by the fleet backends: two buses
        that mapped the same device models under the same names and
        executed equivalent traffic produce *byte-identical* snapshots,
        regardless of which process (or backend) ran the traffic.  Each
        mapping's device is pickled independently with a pinned
        protocol, so a device shared by several mappings (the NE2000
        model behind its register file, data port and reset port) is
        serialized the same way on every side of the comparison.

        For a restorable capture that preserves object sharing between
        mappings, use :meth:`state_blob` / :meth:`restore_state`.
        """
        import pickle
        snapshot: dict[str, bytes] = {}
        for mapping in self._mappings:
            if mapping.name in snapshot:
                raise BusError(
                    f"duplicate mapping name {mapping.name!r}: "
                    f"state_snapshot needs unique names")
            snapshot[mapping.name] = pickle.dumps(
                mapping.device, protocol=4)
        return snapshot

    def state_blob(self) -> bytes:
        """One pickle of every mapped device, sharing preserved.

        Unlike :meth:`state_snapshot` (independent per-mapping pickles,
        for comparison), this serializes the whole device list in one
        payload so aliased models stay aliased across a
        :meth:`restore_state` round trip.
        """
        import pickle
        return pickle.dumps([m.device for m in self._mappings],
                            protocol=4)

    def restore_state(self, blob: bytes) -> None:
        """Replace every mapped device's state from a :meth:`state_blob`.

        The topology (bases, sizes, names, locks, accounting) is left
        untouched; only the device objects are swapped.  The blob must
        come from a bus with the same mapping list, in the same order.
        """
        import pickle
        devices = pickle.loads(blob)
        if len(devices) != len(self._mappings):
            raise BusError(
                f"state blob has {len(devices)} devices, bus has "
                f"{len(self._mappings)} mappings")
        for mapping, device in zip(self._mappings, devices):
            mapping.device = device

    def _find(self, port: int) -> _Mapping:
        mapping = self._port_cache.get(port)
        if mapping is not None:
            return mapping
        for mapping in self._mappings:
            if mapping.contains(port):
                self._port_cache[port] = mapping
                return mapping
        raise BusError(f"no device mapped at port {port:#x}")

    # ------------------------------------------------------------------
    # Single accesses
    # ------------------------------------------------------------------

    @staticmethod
    def _check_width(width: int) -> None:
        if width not in (8, 16, 32):
            raise BusError(f"unsupported access width {width}")

    @staticmethod
    def _check_block_read(count: int, width: int) -> None:
        Bus._check_width(width)
        if count < 0:
            raise BusError(f"negative block count {count}")

    def read(self, port: int, width: int = 8) -> int:
        """One port read of ``width`` bits (``inb``/``inw``/``inl``)."""
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise BusError(f"unsupported access width {width}")
        value = mapping.device.io_read(port - mapping.base, width)
        value &= (1 << width) - 1
        accounting = self.accounting
        accounting.reads += 1
        by_width = accounting.single_by_width
        by_width[width] = by_width.get(width, 0) + 1
        if self.tracing:
            self._trace_add(IoTraceEntry("r", port, value, width))
            collector = self.collector
            if collector is not None:
                collector.io_event("r", port, value, width)
        return value

    def write(self, value: int, port: int, width: int = 8) -> None:
        """One port write (``outb``/``outw``/``outl``).

        The argument order (value first) follows the x86 convention used
        throughout the paper's code fragments: ``outb(value, port)``.
        """
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise BusError(f"unsupported access width {width}")
        value &= (1 << width) - 1
        mapping.device.io_write(port - mapping.base, value, width)
        accounting = self.accounting
        accounting.writes += 1
        by_width = accounting.single_by_width
        by_width[width] = by_width.get(width, 0) + 1
        if self.tracing:
            self._trace_add(IoTraceEntry("w", port, value, width))
            collector = self.collector
            if collector is not None:
                collector.io_event("w", port, value, width)

    # ------------------------------------------------------------------
    # Shadow-cache bookkeeping (no bus traffic)
    # ------------------------------------------------------------------

    def note_elided(self, count: int = 1) -> None:
        """Record ``count`` reads served from a shadow cache.

        No port operation happened — nothing is traced and
        ``total_ops`` is unaffected; the counter keeps elision honest
        in accounting comparisons.
        """
        self.accounting.elided_reads += count

    def note_coalesced(self, count: int = 1) -> None:
        """Record ``count`` deferred writes merged away at a txn flush."""
        self.accounting.coalesced_writes += count

    # Convenience aliases in driver idiom.
    def inb(self, port: int) -> int:
        return self.read(port, 8)

    def outb(self, value: int, port: int) -> None:
        self.write(value, port, 8)

    def inw(self, port: int) -> int:
        return self.read(port, 16)

    def outw(self, value: int, port: int) -> None:
        self.write(value, port, 16)

    def inl(self, port: int) -> int:
        return self.read(port, 32)

    def outl(self, value: int, port: int) -> None:
        self.write(value, port, 32)

    # ------------------------------------------------------------------
    # Block (rep) transfers
    # ------------------------------------------------------------------

    def block_read(self, port: int, count: int, width: int = 16) -> list[int]:
        """``rep insw``-style transfer: ``count`` reads from one port.

        Accounted as a single block operation; the per-word traffic is
        recorded in ``block_words`` so the performance model can charge
        hardware-paced transfer time without per-instruction overhead.
        A device that defines ``io_read_block`` serves the whole
        transfer in one call (see :func:`read_words`).
        """
        self._check_block_read(count, width)
        mapping = self._find(port)
        values = read_words(mapping.device, port - mapping.base, count,
                            width)
        self.accounting.block_ops += 1
        self.accounting.block_words += count
        self.accounting.record_block(width, count)
        if self.tracing:
            self._trace_extend(
                [IoTraceEntry("rb", port, value, width, count)
                 for value in values])
            collector = self.collector
            if collector is not None:
                collector.io_event("rb", port, None, width, count)
        return values

    def block_write(self, port: int, values: Iterable[int],
                    width: int = 16) -> int:
        """``rep outsw``-style transfer; returns the word count."""
        self._check_width(width)
        mapping = self._find(port)
        offset = port - mapping.base
        mask = (1 << width) - 1
        count = 0
        traced: list[int] | None = [] if self.tracing else None
        for value in values:
            mapping.device.io_write(offset, value & mask, width)
            count += 1
            if traced is not None:
                traced.append(value & mask)
        if traced is not None:
            # Entries carry the operation's final word count, so the
            # trace is appended once the transfer length is known.
            self._trace_extend(
                [IoTraceEntry("wb", port, value, width, count)
                 for value in traced])
            collector = self.collector
            if collector is not None:
                collector.io_event("wb", port, None, width, count)
        self.accounting.block_ops += 1
        self.accounting.block_words += count
        self.accounting.record_block(width, count)
        return count
