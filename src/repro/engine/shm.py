"""Shared-memory heartbeat slots for the process fleet.

The live telemetry plane (:mod:`repro.obs.live`) must read each process
worker's most recent state at any moment, without waiting for a sync
point and without a queue round-trip — the whole point is to notice a
worker that has stopped answering.  :class:`HeartbeatSlot` is that
channel: one ``multiprocessing.shared_memory`` segment per worker
holding the latest framed heartbeat pickle, written by the worker and
read by the parent.

Requests and sync reports do not travel through shared memory; they
ride the fleet's plain ``multiprocessing.Queue`` transport
(:mod:`repro.engine.mp`).
"""

from __future__ import annotations

import pickle
import struct

_SEQ = struct.Struct(">II")  # sequence number, payload length

#: Heartbeat records are a dozen small fields; 4 KiB leaves an order of
#: magnitude of headroom over any observed pickle.
HEARTBEAT_SLOT_BYTES = 4096


class HeartbeatSlot:
    """A single-writer latest-value slot in shared memory.

    Old values are worthless, so a seqlock-style slot gives exactly the
    needed semantics with no locks and no queues:

    * the writer bumps the sequence number to **odd**, writes the
      framed pickle, then bumps it to **even**;
    * the reader snapshots the sequence, copies the payload, re-reads
      the sequence, and retries (bounded) unless both reads saw the
      same even value — a torn frame can never be unpickled.

    Single-producer only.  Publishing is two struct packs and one
    small pickle (~2µs), cheap enough to ride every request boundary.
    """

    def __init__(self, memory):
        self.memory = memory
        self._sequence = 0

    # -- writer ---------------------------------------------------------

    def publish(self, record) -> None:
        payload = pickle.dumps(record, protocol=4)
        if _SEQ.size + len(payload) > self.memory.size:
            raise ValueError(
                f"heartbeat record ({len(payload)} bytes) exceeds the "
                f"slot capacity {self.memory.size}")
        buf = self.memory.buf
        self._sequence += 1
        _SEQ.pack_into(buf, 0, self._sequence, len(payload))
        buf[_SEQ.size:_SEQ.size + len(payload)] = payload
        self._sequence += 1
        _SEQ.pack_into(buf, 0, self._sequence, len(payload))

    # -- reader ---------------------------------------------------------

    def read(self, retries: int = 8):
        """The latest published record, or ``None`` if nothing yet.

        Returns ``None`` rather than blocking when every retry catches
        the writer mid-publish — the caller keeps its previous view and
        samples again next tick.
        """
        buf = self.memory.buf
        for _ in range(retries):
            sequence, length = _SEQ.unpack_from(buf, 0)
            if sequence == 0:
                return None
            if sequence % 2:
                continue  # mid-publish
            payload = bytes(buf[_SEQ.size:_SEQ.size + length])
            again, _ = _SEQ.unpack_from(buf, 0)
            if again == sequence:
                return pickle.loads(payload)
        return None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.memory.close()

    def unlink(self) -> None:
        try:
            self.memory.unlink()
        except FileNotFoundError:  # already reclaimed
            pass


def create_heartbeat_memory(capacity: int = HEARTBEAT_SLOT_BYTES):
    """Allocate a heartbeat slot segment (parent side)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(create=True, size=capacity)


def attach_heartbeat_memory(name: str):
    """Attach to an existing segment by name (worker side)."""
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name)
