"""Behavioural model of an IDE (ATA) disk with PIO and DMA transfer.

This is the substrate behind the paper's Table 2: the IDE throughput
comparison.  The model implements the ATA taskfile protocol precisely
enough that both the hand-written driver and the Devil-generated stubs
drive *identical* device behaviour:

* the taskfile registers (features, sector count, LBA bytes,
  device/head with its forced bits, command/status, device control,
  alternate status);
* PIO reads/writes with **R sectors per DRQ block**: ``SET_MULTIPLE``
  plus ``READ_MULTIPLE``/``WRITE_MULTIPLE`` transfer R sectors per
  interrupt, the plain commands one — the paper sweeps R over
  {1, 8, 16};
* 16-bit and 32-bit data-port accesses (the paper's "I/O size" axis);
* ``READ_DMA``/``WRITE_DMA``, which post a request the PIIX4 busmaster
  model executes through a PRD table;
* interrupt accounting: :attr:`interrupts_raised` counts every INTRQ
  assertion, and reading the status register acknowledges the line.

The media itself is a plain :class:`bytearray` of 512-byte sectors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ..bus import BusError

SECTOR_SIZE = 512
REGION_SIZE = 8          # data + taskfile window (offsets 0..7)

# Status register bits.
ERR, IDX, CORR, DRQ, DSC, DF, DRDY, BSY = (1 << i for i in range(8))

# Command opcodes.
CMD_READ_SECTORS = 0x20
CMD_WRITE_SECTORS = 0x30
CMD_READ_MULTIPLE = 0xC4
CMD_WRITE_MULTIPLE = 0xC5
CMD_SET_MULTIPLE = 0xC6
CMD_READ_DMA = 0xC8
CMD_WRITE_DMA = 0xCA
CMD_IDENTIFY = 0xEC


@dataclass
class DmaRequest:
    """A posted DMA command awaiting the busmaster."""

    direction: str          # "read" (disk->memory) or "write"
    lba: int
    sectors: int


@dataclass
class IdeDiskModel:
    """Simulated IDE disk."""

    total_sectors: int = 2048
    store: bytearray = field(default=None)  # type: ignore[assignment]

    features: int = 0
    nsect: int = 0
    lba_low: int = 0
    lba_mid: int = 0
    lba_high: int = 0
    device: int = 0xA0
    control: int = 0

    status: int = DRDY | DSC
    error: int = 0
    multiple_count: int = 1

    #: Cumulative INTRQ assertions (the per-interrupt axis of Table 2).
    interrupts_raised: int = 0
    irq_pending: bool = False

    dma_request: DmaRequest | None = None

    # Current PIO transfer state.
    _buffer: bytearray = field(default_factory=bytearray, repr=False)
    _buffer_pos: int = 0
    _direction: str = ""
    _current_lba: int = 0
    _remaining: int = 0
    _block_sectors: int = 1

    def __post_init__(self) -> None:
        if self.store is None:
            self.store = bytearray(self.total_sectors * SECTOR_SIZE)
        elif len(self.store) != self.total_sectors * SECTOR_SIZE:
            raise ValueError("store size does not match total_sectors")

    # ------------------------------------------------------------------
    # Bus interface
    # ------------------------------------------------------------------

    def io_read(self, offset: int, width: int) -> int:
        if offset == 0:
            if width not in (16, 32):
                raise BusError(
                    f"IDE data port takes 16/32-bit accesses, got {width}")
            return self._data_read(width)
        if width != 8:
            raise BusError(f"IDE taskfile registers are 8-bit, got {width}")
        if offset == 1:
            return self.error
        if offset == 2:
            return self.nsect
        if offset == 3:
            return self.lba_low
        if offset == 4:
            return self.lba_mid
        if offset == 5:
            return self.lba_high
        if offset == 6:
            return self.device
        if offset == 7:
            self.irq_pending = False  # reading status acks INTRQ
            return self.status
        raise BusError(f"IDE has no readable offset {offset}")

    def io_read_block(self, offset: int, count: int,
                      width: int) -> list[int]:
        """``count`` successive :meth:`io_read` calls in one (``rep insw``).

        On the data port each DRQ block's remaining whole words come out
        of one ``struct.unpack_from``; a trailing partial word (a 32-bit
        read with 2 bytes left) and every other port go word by word.
        """
        if offset != 0 or width not in (16, 32):
            return [self.io_read(offset, width) for _ in range(count)]
        size = width // 8
        code = "H" if width == 16 else "I"
        values: list[int] = []
        while count > 0:
            buffer, pos = self._buffer, self._buffer_pos
            words = min(count, (len(buffer) - pos) // size)
            if words <= 0 or not self.status & DRQ or \
                    self._direction != "read":
                # A trailing partial word, or the word that fails.
                values.append(self._data_read(width))
                count -= 1
                continue
            values += struct.unpack_from(f"<{words}{code}", buffer, pos)
            count -= words
            self._buffer_pos = pos + words * size
            if self._buffer_pos >= len(buffer):
                self._read_buffer_drained()
        return values

    def io_write(self, offset: int, value: int, width: int) -> None:
        if offset == 0:
            if width not in (16, 32):
                raise BusError(
                    f"IDE data port takes 16/32-bit accesses, got {width}")
            self._data_write(value, width)
            return
        if width != 8:
            raise BusError(f"IDE taskfile registers are 8-bit, got {width}")
        if offset == 1:
            self.features = value
        elif offset == 2:
            self.nsect = value
        elif offset == 3:
            self.lba_low = value
        elif offset == 4:
            self.lba_mid = value
        elif offset == 5:
            self.lba_high = value
        elif offset == 6:
            self.device = value
        elif offset == 7:
            self._execute(value)
        else:
            raise BusError(f"IDE has no writable offset {offset}")

    # Control block (mapped separately through IdeControlPort).

    def control_read(self) -> int:
        return self.status  # alternate status: same bits, no INTRQ ack

    def control_write(self, value: int) -> None:
        self.control = value
        if value & 0b100:  # SRST
            self.soft_reset()

    def soft_reset(self) -> None:
        self.status = DRDY | DSC
        self.error = 0
        self._direction = ""
        self._buffer = bytearray()
        self._buffer_pos = 0
        self._remaining = 0
        self.dma_request = None
        self.irq_pending = False

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    @property
    def _lba(self) -> int:
        return ((self.device & 0x0F) << 24) | (self.lba_high << 16) | \
            (self.lba_mid << 8) | self.lba_low

    @property
    def _sector_count(self) -> int:
        return self.nsect if self.nsect != 0 else 256

    def _check_range(self, lba: int, count: int) -> None:
        if lba + count > self.total_sectors:
            self.error = 0x10  # IDNF
            self.status |= ERR
            raise BusError(
                f"access beyond end of disk: lba={lba} count={count} "
                f"size={self.total_sectors}")

    def _execute(self, opcode: int) -> None:
        self.status &= ~(ERR | DRQ)
        self.error = 0
        if opcode in (CMD_READ_SECTORS, CMD_READ_MULTIPLE):
            block = self.multiple_count if opcode == CMD_READ_MULTIPLE else 1
            self._begin_pio("read", block)
        elif opcode in (CMD_WRITE_SECTORS, CMD_WRITE_MULTIPLE):
            block = self.multiple_count if opcode == CMD_WRITE_MULTIPLE else 1
            self._begin_pio("write", block)
        elif opcode == CMD_SET_MULTIPLE:
            if self.nsect == 0 or self.nsect > 128:
                self.status |= ERR
                self.error = 0x04  # ABRT
            else:
                self.multiple_count = self.nsect
        elif opcode == CMD_READ_DMA:
            self._check_range(self._lba, self._sector_count)
            self.dma_request = DmaRequest("read", self._lba,
                                          self._sector_count)
            self.status |= BSY
        elif opcode == CMD_WRITE_DMA:
            self._check_range(self._lba, self._sector_count)
            self.dma_request = DmaRequest("write", self._lba,
                                          self._sector_count)
            self.status |= BSY
        elif opcode == CMD_IDENTIFY:
            self._buffer = bytearray(self.identify_block())
            self._buffer_pos = 0
            self._direction = "read"
            self._remaining = 0
            self.status |= DRQ
            self._raise_irq()
        else:
            self.status |= ERR
            self.error = 0x04  # ABRT

    def _begin_pio(self, direction: str, block_sectors: int) -> None:
        count = self._sector_count
        self._check_range(self._lba, count)
        self._direction = direction
        self._current_lba = self._lba
        self._remaining = count
        self._block_sectors = block_sectors
        if direction == "read":
            self._load_read_block()
            self._raise_irq()  # data ready
        else:
            self._open_write_block()
            # ATA: the first write DRQ comes without an interrupt.

    def _raise_irq(self) -> None:
        self.interrupts_raised += 1
        self.irq_pending = True

    # ------------------------------------------------------------------
    # PIO data path
    # ------------------------------------------------------------------

    def _load_read_block(self) -> None:
        sectors = min(self._block_sectors, self._remaining)
        start = self._current_lba * SECTOR_SIZE
        self._buffer = bytearray(
            self.store[start:start + sectors * SECTOR_SIZE])
        self._buffer_pos = 0
        self._current_lba += sectors
        self._remaining -= sectors
        self.status |= DRQ

    def _open_write_block(self) -> None:
        sectors = min(self._block_sectors, self._remaining)
        self._buffer = bytearray(sectors * SECTOR_SIZE)
        self._buffer_pos = 0
        self.status |= DRQ

    def _data_read(self, width: int) -> int:
        if not self.status & DRQ or self._direction != "read":
            raise BusError("data-port read without pending read DRQ")
        size = width // 8
        chunk = self._buffer[self._buffer_pos:self._buffer_pos + size]
        self._buffer_pos += size
        value = int.from_bytes(chunk, "little")
        if self._buffer_pos >= len(self._buffer):
            self._read_buffer_drained()
        return value

    def _read_buffer_drained(self) -> None:
        """Load the next DRQ block and raise INTRQ, or end the read."""
        if self._remaining > 0:
            self._load_read_block()
            self._raise_irq()
        else:
            self.status &= ~DRQ
            self._direction = ""

    def _data_write(self, value: int, width: int) -> None:
        if not self.status & DRQ or self._direction != "write":
            raise BusError("data-port write without pending write DRQ")
        size = width // 8
        self._buffer[self._buffer_pos:self._buffer_pos + size] = \
            value.to_bytes(size, "little")
        self._buffer_pos += size
        if self._buffer_pos >= len(self._buffer):
            self._commit_write_block()

    def _commit_write_block(self) -> None:
        sectors = len(self._buffer) // SECTOR_SIZE
        start = self._current_lba * SECTOR_SIZE
        self.store[start:start + len(self._buffer)] = self._buffer
        self._current_lba += sectors
        self._remaining -= sectors
        self._raise_irq()  # block committed to media
        if self._remaining > 0:
            self._open_write_block()
        else:
            self.status &= ~DRQ
            self._direction = ""

    # ------------------------------------------------------------------
    # DMA data path (driven by the PIIX4 model)
    # ------------------------------------------------------------------

    def dma_read(self, byte_count: int) -> bytes:
        """Busmaster pulls ``byte_count`` bytes of the posted read."""
        request = self._require_dma("read")
        start = request.lba * SECTOR_SIZE
        data = bytes(self.store[start:start + byte_count])
        self._consume_dma(request, byte_count)
        return data

    def dma_write(self, data: bytes) -> None:
        """Busmaster pushes bytes of the posted write."""
        request = self._require_dma("write")
        start = request.lba * SECTOR_SIZE
        self.store[start:start + len(data)] = data
        self._consume_dma(request, len(data))

    def _require_dma(self, direction: str) -> DmaRequest:
        if self.dma_request is None or \
                self.dma_request.direction != direction:
            raise BusError(f"no posted {direction} DMA request")
        return self.dma_request

    def _consume_dma(self, request: DmaRequest, byte_count: int) -> None:
        sectors = byte_count // SECTOR_SIZE
        request.lba += sectors
        request.sectors -= sectors
        if request.sectors <= 0:
            self.dma_request = None
            self.status &= ~BSY
            self._raise_irq()

    # ------------------------------------------------------------------
    # Identify data
    # ------------------------------------------------------------------

    def identify_block(self) -> bytes:
        """256 words of IDENTIFY DEVICE data (geometry + model name)."""
        words = [0] * 256
        words[0] = 0x0040                    # fixed drive
        words[1] = max(self.total_sectors // (16 * 63), 1)  # cylinders
        words[3] = 16                        # heads
        words[6] = 63                        # sectors/track
        words[47] = 0x8000 | 16              # max multiple: 16
        words[49] = 0x0300                   # LBA + DMA capable
        words[60] = self.total_sectors & 0xFFFF
        words[61] = (self.total_sectors >> 16) & 0xFFFF
        model = "DEVIL REPRO DISK".ljust(40)
        for i in range(20):                  # words 27..46, byte-swapped
            words[27 + i] = (ord(model[2 * i]) << 8) | ord(model[2 * i + 1])
        out = bytearray()
        for word in words:
            out += word.to_bytes(2, "little")
        return bytes(out)


class IdeControlPort:
    """Bus adapter for the control block (devctl / alternate status)."""

    def __init__(self, disk: IdeDiskModel):
        self.disk = disk

    def io_read(self, offset: int, width: int) -> int:
        if offset != 0 or width != 8:
            raise BusError("IDE control block is one 8-bit register")
        return self.disk.control_read()

    def io_write(self, offset: int, value: int, width: int) -> None:
        if offset != 0 or width != 8:
            raise BusError("IDE control block is one 8-bit register")
        self.disk.control_write(value)
