"""Thread-safe bus variant: per-device locks, sharded accounting.

The base :class:`~repro.bus.bus.Bus` is deliberately lock-free — every
existing benchmark and single-threaded driver pays nothing for the
fleet engine.  :class:`ThreadSafeBus` is the concurrent drop-in: a
subclass whose access paths are safe when many threads issue port
operations at once, built on three ideas:

* **per-device locking** — every mapping owns its own
  ``threading.Lock``; an access to one device's port range serializes
  only against other accesses *to that device*.  Workers driving
  different devices never contend, which is what lets the fleet
  scheduler scale (a global bus lock would serialize the whole fleet).
* **lock-sharded accounting** — each mapping also owns a private
  :class:`IoAccounting` shard mutated only under that mapping's lock.
  The public :attr:`accounting` attribute becomes a *merged snapshot*:
  reading it takes every shard lock in turn and sums the shards with
  :meth:`IoAccounting.add`, so totals are always exact (no torn
  ``+=``), at the cost of making the attribute a read-only view.
  Portless counters (``note_elided``/``note_coalesced`` and anything
  assigned to ``accounting`` at construction) live in a dedicated misc
  shard with its own lock.
* **a trace lock** — the ring buffer (and its ``trace_dropped``
  eviction counter) is guarded by one short lock taken *inside* the
  device lock.  Ordering guarantee: entries of one device appear in
  that device's program order (its lock serializes them), a block
  transfer's per-word entries are always contiguous
  (:meth:`_trace_extend` holds the trace lock across the group), and
  the interleaving *between* devices is best-effort wall-clock order.
  Lock order is always device lock → trace lock, so no cycle exists.

Topology changes (``map_device``/``unmap_device``) are *not* safe
against in-flight traffic — map the machine first, then start the
workers, exactly like real hardware enumeration.

What this class does **not** make safe is the Devil runtime state
layered above it (register shadow caches, transaction buffers,
``_last_written``): those belong to one :class:`DeviceInstance` and
are protected by giving each fleet device an exclusive session (see
:mod:`repro.engine` and ``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import threading

from .bus import Bus, BusError, IoAccounting, IoTraceEntry, read_words


class ThreadSafeBus(Bus):
    """A :class:`Bus` whose access paths are safe under concurrency.

    Construction arguments are identical to :class:`Bus`.  The
    ``accounting`` attribute is a merged snapshot (recomputed on every
    read); per-device totals are available from
    :meth:`accounting_by_device`.
    """

    def __init__(self, **kwargs):
        # The misc shard absorbs the dataclass __init__'s assignment to
        # ``accounting`` (see the property below) and every portless
        # counter update; created before super().__init__ so the setter
        # always has somewhere to write.
        self._misc = IoAccounting()
        self._misc_lock = threading.Lock()
        self._trace_lock = threading.Lock()
        super().__init__(**kwargs)

    # ------------------------------------------------------------------
    # Sharded accounting
    # ------------------------------------------------------------------

    @property
    def accounting(self) -> IoAccounting:
        """Exact merged totals across every per-device shard.

        Returns a fresh :class:`IoAccounting`; mutating it does not
        affect the bus (use :meth:`reset_accounting` to zero counters).
        Each shard is summed under its own lock, so no torn counter is
        ever observed; the merge is not a single atomic cut across
        devices, but any operation fully finished before the call is
        fully included — which is exact whenever the caller has
        quiesced the traffic it is asserting about (the fleet drains
        its queue before reading totals).
        """
        total = IoAccounting()
        with self._misc_lock:
            total.add(self._misc)
        for mapping in list(self._mappings):
            with mapping.lock:
                total.add(mapping.shard)
        return total

    @accounting.setter
    def accounting(self, value: IoAccounting) -> None:
        # The dataclass-generated __init__ assigns the default here;
        # whatever is assigned becomes the misc shard.
        self._misc = value

    def accounting_by_device(self) -> dict:
        """``mapping name -> IoAccounting`` snapshot of each shard."""
        shards: dict[str, IoAccounting] = {}
        for mapping in list(self._mappings):
            with mapping.lock:
                snapshot = mapping.shard.snapshot()
            if mapping.name in shards:
                shards[mapping.name].add(snapshot)
            else:
                shards[mapping.name] = snapshot
        return shards

    def reset_accounting(self) -> None:
        """Zero every shard (only sound while traffic is quiesced)."""
        with self._misc_lock:
            self._misc.reset()
        for mapping in list(self._mappings):
            with mapping.lock:
                mapping.shard.reset()

    # ------------------------------------------------------------------
    # Topology: attach a lock + shard to every mapping
    # ------------------------------------------------------------------

    def map_device(self, base, size, device, name: str = "") -> None:
        super().map_device(base, size, device, name)
        mapping = self._mappings[-1]
        mapping.lock = threading.Lock()
        mapping.shard = IoAccounting()

    # ------------------------------------------------------------------
    # Tracing: ring buffer guarded by one short lock
    # ------------------------------------------------------------------

    def _trace_add(self, entry: IoTraceEntry) -> None:
        with self._trace_lock:
            Bus._trace_add(self, entry)

    def _trace_extend(self, entries) -> None:
        # One lock hold for the whole block operation keeps its
        # per-word entries contiguous (iter_operations depends on it).
        with self._trace_lock:
            for entry in entries:
                Bus._trace_add(self, entry)

    # ------------------------------------------------------------------
    # Access paths (mirror the base class, under the device lock)
    # ------------------------------------------------------------------

    def read(self, port: int, width: int = 8) -> int:
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise BusError(f"unsupported access width {width}")
        with mapping.lock:
            value = mapping.device.io_read(port - mapping.base, width)
            value &= (1 << width) - 1
            shard = mapping.shard
            shard.reads += 1
            by_width = shard.single_by_width
            by_width[width] = by_width.get(width, 0) + 1
            if self.tracing:
                self._trace_add(IoTraceEntry("r", port, value, width))
                collector = self.collector
                if collector is not None:
                    collector.io_event("r", port, value, width)
        return value

    def write(self, value: int, port: int, width: int = 8) -> None:
        mapping = self._port_cache.get(port)
        if mapping is None:
            self._check_width(width)
            mapping = self._find(port)
        elif width not in (8, 16, 32):
            raise BusError(f"unsupported access width {width}")
        value &= (1 << width) - 1
        with mapping.lock:
            mapping.device.io_write(port - mapping.base, value, width)
            shard = mapping.shard
            shard.writes += 1
            by_width = shard.single_by_width
            by_width[width] = by_width.get(width, 0) + 1
            if self.tracing:
                self._trace_add(IoTraceEntry("w", port, value, width))
                collector = self.collector
                if collector is not None:
                    collector.io_event("w", port, value, width)

    def block_read(self, port: int, count: int,
                   width: int = 16) -> list[int]:
        self._check_block_read(count, width)
        mapping = self._find(port)
        with mapping.lock:
            values = read_words(mapping.device, port - mapping.base,
                                count, width)
            shard = mapping.shard
            shard.block_ops += 1
            shard.block_words += count
            shard.record_block(width, count)
            if self.tracing:
                self._trace_extend(
                    [IoTraceEntry("rb", port, value, width, count)
                     for value in values])
                collector = self.collector
                if collector is not None:
                    collector.io_event("rb", port, None, width, count)
        return values

    def block_write(self, port: int, values, width: int = 16) -> int:
        self._check_width(width)
        mapping = self._find(port)
        offset = port - mapping.base
        mask = (1 << width) - 1
        count = 0
        with mapping.lock:
            traced: list[int] | None = [] if self.tracing else None
            for value in values:
                mapping.device.io_write(offset, value & mask, width)
                count += 1
                if traced is not None:
                    traced.append(value & mask)
            if traced is not None:
                self._trace_extend(
                    [IoTraceEntry("wb", port, value, width, count)
                     for value in traced])
                collector = self.collector
                if collector is not None:
                    collector.io_event("wb", port, None, width, count)
            shard = mapping.shard
            shard.block_ops += 1
            shard.block_words += count
            shard.record_block(width, count)
        return count

    # ------------------------------------------------------------------
    # Portless counters: the misc shard
    # ------------------------------------------------------------------

    def note_elided(self, count: int = 1) -> None:
        with self._misc_lock:
            self._misc.elided_reads += count

    def note_coalesced(self, count: int = 1) -> None:
        with self._misc_lock:
            self._misc.coalesced_writes += count
