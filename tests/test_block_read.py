"""The block-read path: ``io_read_block`` against the per-word reference.

``Bus.block_read`` hands a whole ``rep insw`` to a device that defines
``io_read_block`` (see :class:`repro.bus.MappedDevice`) instead of
calling ``io_read`` once per word.  The per-word loop stays the
reference: twin IDE models driven through the same random scripts must
return the same values, fail with the same exception and end in the
same pickled state, whichever path reads them; on every bus class the
values, accounting and trace entries must match those of a device
without the method.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import Bus, BusError, ThreadSafeBus
from repro.devices.ide import (CMD_IDENTIFY, CMD_READ_MULTIPLE,
                               CMD_READ_SECTORS, CMD_SET_MULTIPLE,
                               CMD_WRITE_SECTORS, REGION_SIZE,
                               IdeDiskModel)
from repro.engine.fleet import LatencyBus

#: Large enough that ``nsect = 0`` (256 sectors) fits from low LBAs.
SECTORS = 300
BASE = 0x1F0


#: Distinct bytes for neighbouring words and sectors.
IMAGE = bytes((index * 7 + index // 512) & 0xFF
              for index in range(SECTORS * 512))


def make_disk() -> IdeDiskModel:
    return IdeDiskModel(total_sectors=SECTORS, store=bytearray(IMAGE))


class PerWord:
    """Bus adapter without ``io_read_block``: the per-word reference."""

    def __init__(self, model):
        self.model = model

    def io_read(self, offset, width):
        return self.model.io_read(offset, width)

    def io_write(self, offset, value, width):
        self.model.io_write(offset, value, width)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

# A step is ``("command", opcode, lba, nsect)``, ``("multiple", n)``
# (SET_MULTIPLE n) or ``("read", offset, count, width)``.
_commands = st.tuples(
    st.just("command"),
    st.sampled_from([CMD_READ_SECTORS, CMD_READ_MULTIPLE, CMD_IDENTIFY,
                     CMD_WRITE_SECTORS]),
    st.integers(0, SECTORS + 4),
    st.sampled_from([0, 1, 2, 3, 9, 17]))
_multiple = st.tuples(st.just("multiple"), st.sampled_from([1, 8, 16]))
_data_reads = st.tuples(
    st.just("read"), st.just(0),
    st.one_of(st.integers(-2, 3), st.integers(0, 300),
              st.sampled_from([127, 128, 255, 256, 257, 2048])),
    st.sampled_from([16, 16, 32, 32, 8]))
_other_reads = st.tuples(st.just("read"), st.integers(1, REGION_SIZE),
                         st.integers(0, 4), st.sampled_from([8, 16]))
_steps = st.lists(
    st.one_of(_commands, _multiple, _data_reads, _data_reads, _data_reads,
              _other_reads),
    max_size=24)


def outcome(call):
    """``("ok", value)`` or ``("raised", class, message)``."""
    try:
        return ("ok", call())
    except Exception as error:       # the comparison is the assertion
        return ("raised", type(error), str(error))


def program(write, step) -> None:
    """Send one command step through ``write(offset, value)``."""
    if step[0] == "multiple":
        write(2, step[1])
        write(7, CMD_SET_MULTIPLE)
        return
    _, opcode, lba, nsect = step
    write(2, nsect)
    write(3, lba & 0xFF)
    write(4, lba >> 8)
    write(5, 0)
    write(6, 0xE0)
    write(7, opcode)


# ---------------------------------------------------------------------------
# Device level: io_read_block vs count calls of io_read
# ---------------------------------------------------------------------------


class TestDeviceDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_steps)
    def test_block_matches_per_word(self, steps):
        block, words = make_disk(), make_disk()
        for step in steps:
            if step[0] == "read":
                _, offset, count, width = step
                got = outcome(
                    lambda: block.io_read_block(offset, count, width))
                want = outcome(
                    lambda: [words.io_read(offset, width)
                             for _ in range(count)])
            else:
                got = outcome(lambda: program(
                    lambda o, v: block.io_write(o, v, 8), step))
                want = outcome(lambda: program(
                    lambda o, v: words.io_write(o, v, 8), step))
            assert got == want, step
            assert pickle.dumps(block) == pickle.dumps(words), step

    def twins(self, *steps):
        block, words = make_disk(), make_disk()
        for step in steps:
            program(lambda o, v: block.io_write(o, v, 8), step)
            program(lambda o, v: words.io_write(o, v, 8), step)
        return block, words

    def assert_same(self, block, words, reads):
        for offset, count, width in reads:
            got = outcome(lambda: block.io_read_block(offset, count, width))
            want = outcome(lambda: [words.io_read(offset, width)
                                    for _ in range(count)])
            assert got == want
            assert pickle.dumps(block) == pickle.dumps(words)
        return got

    def test_32_bit_reads_after_a_16_bit_word_leave_a_tail(self):
        block, words = self.twins(("command", CMD_READ_SECTORS, 5, 2))
        last = self.assert_same(block, words,
                                [(0, 1, 16), (0, 200, 32), (0, 56, 32)])
        # Word 128 was the 2-byte tail of sector 5; 56 more end sector 6.
        assert last[0] == "ok" and len(last[1]) == 56
        assert block.interrupts_raised == 2 and not block._direction

    def test_read_past_the_last_word_fails_like_the_next_io_read(self):
        block, words = self.twins(("multiple", 8),
                                  ("command", CMD_READ_MULTIPLE, 0, 9))
        last = self.assert_same(block, words, [(0, 9 * 256 + 1, 16)])
        assert last == ("raised", BusError,
                        "data-port read without pending read DRQ")
        assert block.interrupts_raised == 2 and not block._direction

    def test_8_bit_data_port_read_is_rejected_per_word(self):
        block, words = self.twins(("command", CMD_IDENTIFY, 0, 1))
        last = self.assert_same(block, words, [(0, 3, 8)])
        assert last[0] == "raised" and "16/32-bit" in last[2]

    def test_taskfile_block_read_loops_over_io_read(self):
        block, words = self.twins(("command", CMD_READ_SECTORS, 0, 1))
        assert block.irq_pending
        self.assert_same(block, words, [(7, 3, 8), (2, 2, 8)])
        assert not block.irq_pending


# ---------------------------------------------------------------------------
# Bus level: every bus class, against a device without the method
# ---------------------------------------------------------------------------

BUS_CLASSES = {
    "Bus": lambda: Bus(tracing=True),
    "ThreadSafeBus": lambda: ThreadSafeBus(tracing=True),
    "LatencyBus": lambda: LatencyBus(op_latency_us=1.0,
                                     word_latency_us=0.001, tracing=True),
}


def machine(make_bus, per_word: bool):
    bus, disk = make_bus(), make_disk()
    bus.map_device(BASE, REGION_SIZE, PerWord(disk) if per_word else disk,
                   "ide")
    return bus, disk


def run_on_bus(bus, step):
    if step[0] == "read":
        _, offset, count, width = step
        return bus.block_read(BASE + offset, count, width)
    program(lambda o, v: bus.write(v, BASE + o, 8), step)
    return None


@pytest.mark.parametrize("bus_class", sorted(BUS_CLASSES))
class TestBusDifferential:
    @settings(max_examples=40, deadline=None)
    @given(_steps)
    def test_same_values_accounting_and_trace(self, bus_class, steps):
        make_bus = BUS_CLASSES[bus_class]
        (bus, disk), (ref, ref_disk) = machine(make_bus, False), \
            machine(make_bus, True)
        for step in steps:
            got = outcome(lambda: run_on_bus(bus, step))
            want = outcome(lambda: run_on_bus(ref, step))
            assert got == want, step
            assert bus.accounting == ref.accounting, step
            assert list(bus.trace) == list(ref.trace), step
            assert pickle.dumps(disk) == pickle.dumps(ref_disk), step

    def test_mid_transfer_error_leaves_accounting_and_trace(self,
                                                            bus_class):
        bus, disk = machine(BUS_CLASSES[bus_class], False)
        program(lambda o, v: bus.write(v, BASE + o, 8),
                ("command", CMD_READ_SECTORS, 3, 1))
        bus.block_read(BASE, 100, 16)
        before, trace = bus.accounting.snapshot(), list(bus.trace)
        with pytest.raises(BusError, match="without pending read DRQ"):
            bus.block_read(BASE, 200, 16)
        assert bus.accounting == before
        assert list(bus.trace) == trace
        assert not disk.status & 0x08      # the 156 words were consumed

    def test_count_zero_calls_no_device(self, bus_class):
        class Untouchable:
            def io_read(self, offset, width):
                raise AssertionError("io_read called")

            io_read_block = io_write = io_read

        bus = BUS_CLASSES[bus_class]()
        bus.map_device(BASE, REGION_SIZE, Untouchable(), "none")
        assert bus.block_read(BASE, 0, 16) == []
        ide, _ = machine(BUS_CLASSES[bus_class], False)
        assert ide.block_read(BASE, 0, 8) == []   # 8-bit data port
        assert bus.accounting.block_ops == 1
        assert bus.accounting.block_words == 0
        assert list(bus.trace) == []


def test_latency_bus_rejects_negative_count_before_sleeping():
    bus = LatencyBus(op_latency_us=1.0, word_latency_us=1.0)
    bus.map_device(BASE, REGION_SIZE, make_disk(), "ide")
    with pytest.raises(BusError, match="negative block count -10"):
        bus.block_read(BASE, -10, 16)
    with pytest.raises(BusError, match="unsupported access width 12"):
        bus.block_read(BASE, -10, 12)
