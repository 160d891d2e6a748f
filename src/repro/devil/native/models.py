"""C-resident simulated device models for the native strategy.

Batched stub dispatch crosses the Python/C boundary once per batch, but
a port access that calls back into a Python device model still takes
the GIL every time.  This module ports the *hot register files* of the
two benchmark-dominant devices into C:

* the IDE disk (:class:`repro.devices.ide.IdeDiskModel`): taskfile
  reads/writes, the status-register IRQ-ack read, and the PIO data
  port including multi-sector block reload/commit;
* the Permedia2 (:class:`repro.devices.permedia2.Permedia2Model`):
  FIFO-modelled register writes, the rect/fill/copy render engine,
  and the linear framebuffer aperture.

The Python dataclasses stay the single source of truth for *cold*
state and rare paths — IDE command execution (``_execute``) and
device-control writes (soft reset) fall back to the Python model via a
:class:`SyncedFallback` proxy that re-syncs the C state either way, so
DMA bookkeeping and the identify block never need a C port.

Exactness contract: every C handler reproduces the Python model's
observable semantics bit-for-bit — field update order, FIFO push
before decode, counter increments *before* an unknown-command error,
the copy-source bounds check even for empty clipped rectangles, and
the exact :class:`BusError` message strings (raised from C via
``devil_nat_fail_fmt`` → status ``DEVIL_NAT_DEVERR``).  The four-way
parity suites and the golden I/O gate hold the contract.

Each model's state is an extension type of the spec's native module
(``IdeState``, ``Pm2State``; :mod:`repro.devil.native.shim` emits it
from the field lists below).  Scalars sync through its members at the
edges of a direct batch; the IDE backing store and the framebuffer
attach through the buffer protocol, so bulk sector and pixel data is
never copied, only scalars are.
"""

from __future__ import annotations

from ...devices.ide import SECTOR_SIZE, IdeControlPort, IdeDiskModel
from ...devices.permedia2 import Permedia2Aperture, Permedia2Model

#: Model kinds carried in ``devil_nat_port_t.model``.
MODEL_NONE = 0
MODEL_IDE = 1
MODEL_IDE_CTRL = 2
MODEL_PM2 = 3
MODEL_PM2_FB = 4

_DIRECTION_CODE = {"": 0, "read": 1, "write": 2}
_DIRECTION_NAME = ("", "read", "write")

#: The fields of ``devil_nat_ide_t`` that ``IdeState`` exposes, as
#: ``(C type, name, IdeDiskModel attribute)``; the attribute is copied
#: to and from the field at sync points, or None where the binding
#: converts by hand.
IDE_FIELDS = (
    *(("unsigned", name, name) for name in (
        "features", "nsect", "lba_low", "lba_mid", "lba_high", "device",
        "control", "status", "error", "multiple_count")),
    ("unsigned long long", "interrupts_raised", "interrupts_raised"),
    ("int", "irq_pending", None),
    ("int", "direction", None),          # 0 idle, 1 read, 2 write
    ("unsigned", "current_lba", "_current_lba"),
    ("long long", "remaining", "_remaining"),
    ("unsigned", "block_sectors", "_block_sectors"),
    ("unsigned long long", "buf_len", None),
    ("unsigned long long", "buf_pos", "_buffer_pos"),
)

#: The fields of ``devil_nat_pm2_t`` that ``Pm2State`` exposes, as
#: ``(C type, name, Permedia2Model attribute)``.
PM2_FIELDS = (
    *(("unsigned", name, name) for name in (
        "fifo_used", "drain_per_poll", "block_color", "rect_x", "rect_y",
        "rect_width", "rect_height")),
    ("int", "copy_dx", "copy_dx"),
    ("int", "copy_dy", "copy_dy"),
    ("unsigned", "depth_code", "depth_code"),
    *(("unsigned", name, None) for name in (
        "scissor_min_x", "scissor_min_y", "scissor_max_x", "scissor_max_y")),
    ("unsigned", "write_mask", "write_mask"),
    ("unsigned", "logical_op", "logical_op"),
    ("unsigned", "window_origin_x", None),
    ("unsigned", "window_origin_y", None),
    *(("unsigned long long", name, name) for name in (
        "fb_address", "pixels_filled", "pixels_copied", "bytes_touched",
        "primitives", "fifo_overflows")),
)

#: The model handlers, compiled into every spec's extension module
#: after the state structs.  Everything is ``static``: per-spec modules
#: each carry their own copy.  Kinds in ``devil_nat_port_t.model``:
#: 1 = IDE disk, 2 = IDE control, 3 = Permedia2 registers,
#: 4 = Permedia2 framebuffer aperture.
MODEL_C = r"""
#define DEVIL_NAT_IDE_ERR 0x01u
#define DEVIL_NAT_IDE_DRQ 0x08u

static void devil_nat_ide_irq(devil_nat_ide_t *d)
{
    d->interrupts_raised++;
    d->irq_pending = 1;
}

static void devil_nat_ide_load_read_block(devil_nat_ide_t *d)
{
    unsigned long long sectors = d->block_sectors;
    unsigned long long start, want, avail;
    if ((long long)sectors > d->remaining)
        sectors = (unsigned long long)d->remaining;
    start = (unsigned long long)d->current_lba * 512ull;
    want = sectors * 512ull;
    avail = start < d->store_len ? d->store_len - start : 0ull;
    if (want > avail)          /* mirrors the Python slice truncation */
        want = avail;
    if (want > d->buf_cap)
        want = d->buf_cap;
    memcpy(d->buffer, d->store + start, (size_t)want);
    d->buf_len = want;
    d->buf_pos = 0;
    d->current_lba += (unsigned)sectors;
    d->remaining -= (long long)sectors;
    d->status |= DEVIL_NAT_IDE_DRQ;
}

static void devil_nat_ide_open_write_block(devil_nat_ide_t *d)
{
    unsigned long long sectors = d->block_sectors;
    if ((long long)sectors > d->remaining)
        sectors = (unsigned long long)d->remaining;
    d->buf_len = sectors * 512ull;
    if (d->buf_len > d->buf_cap)
        d->buf_len = d->buf_cap;
    memset(d->buffer, 0, (size_t)d->buf_len);
    d->buf_pos = 0;
    d->status |= DEVIL_NAT_IDE_DRQ;
}

static void devil_nat_ide_commit_write_block(devil_nat_ide_t *d)
{
    unsigned long long sectors = d->buf_len / 512ull;
    unsigned long long start = (unsigned long long)d->current_lba * 512ull;
    unsigned long long n = d->buf_len;
    if (start < d->store_len) {
        if (n > d->store_len - start)
            n = d->store_len - start;
        memcpy(d->store + start, d->buffer, (size_t)n);
    }
    d->current_lba += (unsigned)sectors;
    d->remaining -= (long long)sectors;
    devil_nat_ide_irq(d);
    if (d->remaining > 0) {
        devil_nat_ide_open_write_block(d);
    } else {
        d->status &= ~DEVIL_NAT_IDE_DRQ;
        d->direction = 0;
    }
}

static unsigned devil_nat_ide_data_read(devil_nat_ide_t *d, int width)
{
    unsigned size = (unsigned)width / 8u, value = 0u, i;
    if (!(d->status & DEVIL_NAT_IDE_DRQ) || d->direction != 1)
        devil_nat_fail_fmt("data-port read without pending read DRQ");
    for (i = 0; i < size; i++)
        if (d->buf_pos + i < d->buf_len)
            value |= (unsigned)d->buffer[d->buf_pos + i] << (8u * i);
    d->buf_pos += size;
    if (d->buf_pos >= d->buf_len) {
        if (d->remaining > 0) {
            devil_nat_ide_load_read_block(d);
            devil_nat_ide_irq(d);
        } else {
            d->status &= ~DEVIL_NAT_IDE_DRQ;
            d->direction = 0;
        }
    }
    return value;
}

static void devil_nat_ide_data_write(devil_nat_ide_t *d,
                                     unsigned value, int width)
{
    unsigned size = (unsigned)width / 8u, i;
    unsigned long long end;
    if (!(d->status & DEVIL_NAT_IDE_DRQ) || d->direction != 2)
        devil_nat_fail_fmt("data-port write without pending write DRQ");
    for (i = 0; i < size; i++)
        if (d->buf_pos + i < d->buf_cap)
            d->buffer[d->buf_pos + i] =
                (unsigned char)((value >> (8u * i)) & 0xFFu);
    /* bytearray slice assignment can extend the buffer past its end */
    end = d->buf_pos + size;
    if (end > d->buf_len)
        d->buf_len = end > d->buf_cap ? d->buf_cap : end;
    d->buf_pos += size;
    if (d->buf_pos >= d->buf_len)
        devil_nat_ide_commit_write_block(d);
}

static unsigned devil_nat_ide_read(devil_nat_ide_t *d,
                                   unsigned off, int width)
{
    if (off == 0u) {
        if (width != 16 && width != 32)
            devil_nat_fail_fmt(
                "IDE data port takes 16/32-bit accesses, got %d", width);
        return devil_nat_ide_data_read(d, width);
    }
    if (width != 8)
        devil_nat_fail_fmt(
            "IDE taskfile registers are 8-bit, got %d", width);
    switch (off) {
    case 1u: return d->error;
    case 2u: return d->nsect;
    case 3u: return d->lba_low;
    case 4u: return d->lba_mid;
    case 5u: return d->lba_high;
    case 6u: return d->device;
    case 7u: d->irq_pending = 0; return d->status;
    }
    devil_nat_fail_fmt("IDE has no readable offset %u", off);
    return 0u;
}

/* Returns 1 when handled in C; 0 defers to the Python fallback.
 * Command writes (offset 7) defer: _execute() touches DMA request
 * objects and the identify block, which stay Python-side. */
static int devil_nat_ide_write(devil_nat_ide_t *d, unsigned off,
                               unsigned value, int width)
{
    if (off == 0u) {
        if (width != 16 && width != 32)
            devil_nat_fail_fmt(
                "IDE data port takes 16/32-bit accesses, got %d", width);
        devil_nat_ide_data_write(d, value, width);
        return 1;
    }
    if (off == 7u)
        return 0;
    if (width != 8)
        devil_nat_fail_fmt(
            "IDE taskfile registers are 8-bit, got %d", width);
    switch (off) {
    case 1u: d->features = value; return 1;
    case 2u: d->nsect = value; return 1;
    case 3u: d->lba_low = value; return 1;
    case 4u: d->lba_mid = value; return 1;
    case 5u: d->lba_high = value; return 1;
    case 6u: d->device = value; return 1;
    }
    devil_nat_fail_fmt("IDE has no writable offset %u", off);
    return 0;
}

static unsigned devil_nat_ide_ctrl_read(devil_nat_ide_t *d,
                                        unsigned off, int width)
{
    if (off != 0u || width != 8)
        devil_nat_fail_fmt("IDE control block is one 8-bit register");
    return d->status;    /* alternate status: no IRQ acknowledge */
}

static int devil_nat_signed16(unsigned value)
{
    return value >= 0x8000u ? (int)value - 0x10000 : (int)value;
}

static void devil_nat_pm2_clip(devil_nat_pm2_t *g,
                               long long *rx0, long long *ry0,
                               long long *rx1, long long *ry1)
{
    long long x0 = (long long)g->rect_x + g->window_origin_x;
    long long y0 = (long long)g->rect_y + g->window_origin_y;
    long long x1 = x0 + g->rect_width;
    long long y1 = y0 + g->rect_height;
    if (x0 < (long long)g->scissor_min_x) x0 = g->scissor_min_x;
    if (x0 < 0) x0 = 0;
    if (y0 < (long long)g->scissor_min_y) y0 = g->scissor_min_y;
    if (y0 < 0) y0 = 0;
    if (x1 > (long long)g->scissor_max_x) x1 = g->scissor_max_x;
    if (x1 > (long long)g->fb_width) x1 = g->fb_width;
    if (y1 > (long long)g->scissor_max_y) y1 = g->scissor_max_y;
    if (y1 > (long long)g->fb_height) y1 = g->fb_height;
    if (x1 <= x0 || y1 <= y0) {
        *rx0 = *ry0 = *rx1 = *ry1 = 0;
        return;
    }
    *rx0 = x0; *ry0 = y0; *rx1 = x1; *ry1 = y1;
}

static void devil_nat_pm2_render(devil_nat_pm2_t *g, unsigned command)
{
    static const unsigned depth_bytes[4] = {1u, 2u, 3u, 4u};
    long long x0, y0, x1, y1, r, c;
    unsigned long long pixels;
    if (command == 3u) {       /* sync: drain the FIFO */
        g->fifo_used = 0u;
        return;
    }
    devil_nat_pm2_clip(g, &x0, &y0, &x1, &y1);
    pixels = (unsigned long long)(x1 - x0) * (unsigned long long)(y1 - y0);
    /* counters move before command decode, exactly like the Python
     * model — an unknown command still costs a primitive */
    g->primitives++;
    g->bytes_touched += pixels * depth_bytes[g->depth_code & 3u];
    if (command == 1u) {       /* fill */
        for (r = y0; r < y1; r++) {
            unsigned *row = g->fb + (size_t)r * g->fb_width;
            for (c = x0; c < x1; c++)
                row[c] = g->block_color;
        }
        g->pixels_filled += pixels;
    } else if (command == 2u) {  /* copy */
        long long sx0 = x0 + g->copy_dx, sy0 = y0 + g->copy_dy;
        long long sx1 = x1 + g->copy_dx, sy1 = y1 + g->copy_dy;
        /* bounds-checked even for an empty clipped rectangle, exactly
         * like the Python model */
        if (!(0 <= sx0 && sx1 <= (long long)g->fb_width &&
              0 <= sy0 && sy1 <= (long long)g->fb_height))
            devil_nat_fail_fmt("copy source rectangle outside framebuffer");
        if (pixels) {
            /* numpy copies the source slice first; mirror with a
             * scratch buffer so overlapping rects behave identically */
            size_t row_words = (size_t)(x1 - x0);
            unsigned *tmp =
                (unsigned *)malloc((size_t)pixels * sizeof(unsigned));
            if (!tmp)
                devil_nat_fail_fmt("native copy scratch allocation failed");
            for (r = 0; r < y1 - y0; r++)
                memcpy(tmp + (size_t)r * row_words,
                       g->fb + (size_t)(sy0 + r) * g->fb_width + sx0,
                       row_words * sizeof(unsigned));
            for (r = 0; r < y1 - y0; r++)
                memcpy(g->fb + (size_t)(y0 + r) * g->fb_width + x0,
                       tmp + (size_t)r * row_words,
                       row_words * sizeof(unsigned));
            free(tmp);
        }
        g->pixels_copied += pixels;
    } else {
        devil_nat_fail_fmt("unknown render command 0b00");
    }
}

static unsigned devil_nat_pm2_read(devil_nat_pm2_t *g,
                                   unsigned off, int width)
{
    if (width != 32)
        devil_nat_fail_fmt(
            "Permedia2 registers are 32-bit, got %d", width);
    if (off == 0u) {           /* FIFO space: polling drains */
        g->fifo_used = g->fifo_used > g->drain_per_poll
            ? g->fifo_used - g->drain_per_poll : 0u;
        return 32u - g->fifo_used;
    }
    if (off == 6u)
        return g->fifo_used > 0u ? 1u : 0u;
    devil_nat_fail_fmt("Permedia2 offset %u is not readable", off);
    return 0u;
}

static int devil_nat_pm2_write(devil_nat_pm2_t *g, unsigned off,
                               unsigned value, int width)
{
    if (width != 32)
        devil_nat_fail_fmt(
            "Permedia2 registers are 32-bit, got %d", width);
    if (off < 1u || off > 13u)
        devil_nat_fail_fmt("Permedia2 offset %u is not writable", off);
    /* FIFO push happens before decode, like the Python model */
    if (g->fifo_used >= 32u) {
        g->fifo_overflows++;
        g->fifo_used = 32u;
    } else {
        g->fifo_used++;
    }
    switch (off) {
    case 1u: g->block_color = value; break;
    case 2u:
        g->rect_x = value & 0xFFFFu;
        g->rect_y = (value >> 16) & 0xFFFFu;
        break;
    case 3u:
        g->rect_width = value & 0xFFFFu;
        g->rect_height = (value >> 16) & 0xFFFFu;
        break;
    case 4u:
        g->copy_dx = devil_nat_signed16(value & 0xFFFFu);
        g->copy_dy = devil_nat_signed16((value >> 16) & 0xFFFFu);
        break;
    case 5u: devil_nat_pm2_render(g, value & 3u); break;
    case 7u: g->depth_code = value & 3u; break;
    case 8u:
        g->scissor_min_x = value & 0xFFFFu;
        g->scissor_min_y = (value >> 16) & 0xFFFFu;
        break;
    case 9u:
        g->scissor_max_x = value & 0xFFFFu;
        g->scissor_max_y = (value >> 16) & 0xFFFFu;
        break;
    case 10u: g->write_mask = value; break;
    case 11u: g->logical_op = value & 0xFu; break;
    case 12u:
        g->window_origin_x = value & 0xFFFFu;
        g->window_origin_y = (value >> 16) & 0xFFFFu;
        break;
    case 13u: g->fb_address = value; break;
    default: break;            /* offset 6: FIFO-pushed, then ignored */
    }
    return 1;
}

static unsigned devil_nat_pm2_fb_read(devil_nat_pm2_t *g,
                                      unsigned off, int width)
{
    unsigned long long index, y, x;
    if (off != 0u)
        devil_nat_fail_fmt("the aperture decodes a single address");
    if (width != 32)
        devil_nat_fail_fmt("the framebuffer aperture is 32-bit");
    index = g->fb_address;
    y = index / g->fb_width;
    x = index % g->fb_width;
    if (y >= (unsigned long long)g->fb_height)
        devil_nat_fail_fmt(
            "aperture address %llu outside framebuffer", index);
    g->fb_address = index + 1ull;
    return g->fb[(size_t)y * g->fb_width + x];
}

static int devil_nat_pm2_fb_write(devil_nat_pm2_t *g, unsigned off,
                                  unsigned value, int width)
{
    unsigned long long index, y, x;
    if (off != 0u)
        devil_nat_fail_fmt("the aperture decodes a single address");
    if (width != 32)
        devil_nat_fail_fmt("the framebuffer aperture is 32-bit");
    index = g->fb_address;
    y = index / g->fb_width;
    x = index % g->fb_width;
    if (y >= (unsigned long long)g->fb_height)
        devil_nat_fail_fmt(
            "aperture address %llu outside framebuffer", index);
    g->fb[(size_t)y * g->fb_width + x] = value;
    g->fb_address = index + 1ull;
    return 1;
}

static int devil_nat_model_in(devil_nat_port_t *m, unsigned off,
                              int width, unsigned *value)
{
    switch (m->model) {
    case 1:
        *value = devil_nat_ide_read(
            (devil_nat_ide_t *)m->mstate, off, width);
        return 1;
    case 2:
        *value = devil_nat_ide_ctrl_read(
            (devil_nat_ide_t *)m->mstate, off, width);
        return 1;
    case 3:
        *value = devil_nat_pm2_read(
            (devil_nat_pm2_t *)m->mstate, off, width);
        return 1;
    case 4:
        *value = devil_nat_pm2_fb_read(
            (devil_nat_pm2_t *)m->mstate, off, width);
        return 1;
    }
    return 0;
}

static int devil_nat_model_out(devil_nat_port_t *m, unsigned off,
                               unsigned value, int width)
{
    switch (m->model) {
    case 1:
        return devil_nat_ide_write(
            (devil_nat_ide_t *)m->mstate, off, value, width);
    case 2:
        return 0;              /* soft reset clears DMA state: Python */
    case 3:
        return devil_nat_pm2_write(
            (devil_nat_pm2_t *)m->mstate, off, value, width);
    case 4:
        return devil_nat_pm2_fb_write(
            (devil_nat_pm2_t *)m->mstate, off, value, width);
    }
    return 0;
}
"""


def _copied(fields) -> tuple[tuple[str, str], ...]:
    """``(field, attribute)`` pairs a binding copies as they are."""
    return tuple((name, attr) for _, name, attr in fields if attr)


_IDE_COPIED = _copied(IDE_FIELDS)
_PM2_COPIED = _copied(PM2_FIELDS)


class IdeBinding:
    """Two-way scalar sync between an :class:`IdeDiskModel` and its
    ``IdeState``.  The backing store attaches as it is (zero-copy); the
    PIO buffer is a scratch ``bytearray`` sized for the largest possible
    transfer, copied at sync points (it is small and bounded)."""

    def __init__(self, disk: IdeDiskModel, cstate):
        self.disk = disk
        self.cstate = cstate
        self._scratch = bytearray(max(len(disk.store), SECTOR_SIZE))

    def sync_to_c(self) -> None:
        disk, s = self.disk, self.cstate
        for field, attr in _IDE_COPIED:
            setattr(s, field, getattr(disk, attr))
        s.irq_pending = 1 if disk.irq_pending else 0
        s.direction = _DIRECTION_CODE[disk._direction]
        buffer = disk._buffer
        length = len(buffer)
        if length > len(self._scratch):
            self._scratch = bytearray(length)
        self._scratch[:length] = buffer
        s.buf_len = length
        s.store = disk.store
        s.scratch = self._scratch

    def sync_to_py(self) -> None:
        disk, s = self.disk, self.cstate
        for field, attr in _IDE_COPIED:
            setattr(disk, attr, getattr(s, field))
        disk.irq_pending = bool(s.irq_pending)
        disk._direction = _DIRECTION_NAME[s.direction]
        disk._buffer = self._scratch[:s.buf_len]
        s.store = s.scratch = None


class Pm2Binding:
    """Two-way scalar sync between a :class:`Permedia2Model` and its
    ``Pm2State``.  The framebuffer attaches as it is: fills and copies
    in C mutate the Python-visible pixels directly."""

    def __init__(self, gpu: Permedia2Model, cstate):
        self.gpu = gpu
        self.cstate = cstate

    def sync_to_c(self) -> None:
        gpu, s = self.gpu, self.cstate
        for field, attr in _PM2_COPIED:
            setattr(s, field, getattr(gpu, attr))
        s.scissor_min_x, s.scissor_min_y = gpu.scissor_min
        s.scissor_max_x, s.scissor_max_y = gpu.scissor_max
        s.window_origin_x, s.window_origin_y = gpu.window_origin
        s.fb = gpu.framebuffer

    def sync_to_py(self) -> None:
        gpu, s = self.gpu, self.cstate
        for field, attr in _PM2_COPIED:
            setattr(gpu, attr, getattr(s, field))
        gpu.scissor_min = (s.scissor_min_x, s.scissor_min_y)
        gpu.scissor_max = (s.scissor_max_x, s.scissor_max_y)
        gpu.window_origin = (s.window_origin_x, s.window_origin_y)
        s.fb = None


class SyncedFallback:
    """Raw-callback proxy for a C-modelled mapping: syncs the C state
    back to Python, runs the real device method, and re-syncs to C (in
    a ``finally``, so the C state stays fresh even when the Python path
    raises mid-batch)."""

    __slots__ = ("binding", "device")

    def __init__(self, binding, device):
        self.binding = binding
        self.device = device

    def io_read(self, offset: int, width: int) -> int:
        self.binding.sync_to_py()
        try:
            return self.device.io_read(offset, width)
        finally:
            self.binding.sync_to_c()

    def io_write(self, offset: int, value: int, width: int) -> None:
        self.binding.sync_to_py()
        try:
            return self.device.io_write(offset, value, width)
        finally:
            self.binding.sync_to_c()


def _ide_eligible(disk: IdeDiskModel) -> bool:
    return isinstance(disk.store, bytearray)


def _pm2_eligible(gpu: Permedia2Model) -> bool:
    """A framebuffer the C model can attach: a C-contiguous 2-D buffer
    of native 32-bit words of the model's shape."""
    try:
        view = memoryview(gpu.framebuffer)
    except TypeError:
        return False
    with view:
        return (view.format == "I" and view.itemsize == 4
                and view.c_contiguous and not view.readonly
                and view.shape == (gpu.height, gpu.width)
                and gpu.width > 0 and gpu.height > 0)


class ModelRegistry:
    """Per-native-core registry: one shared binding per underlying
    Python model, so the IDE disk and its control port (or the
    Permedia2 registers and aperture) share one C state."""

    def __init__(self, module):
        self.module = module
        self._bindings: dict[int, object] = {}
        self._anchors: list = []   # pin models so ids stay unique

    def _memo(self, model, factory, state_type):
        binding = self._bindings.get(id(model))
        if binding is None:
            binding = factory(model, state_type())
            self._bindings[id(model)] = binding
            self._anchors.append(model)
        return binding

    def binding_for(self, device):
        """``(kind, binding)`` when ``device`` has a C port, else
        ``None`` (the mapping stays with its Python model)."""
        module = self.module
        if isinstance(device, IdeDiskModel) and _ide_eligible(device):
            return (MODEL_IDE,
                    self._memo(device, IdeBinding, module.IdeState))
        if isinstance(device, IdeControlPort) \
                and _ide_eligible(device.disk):
            return (MODEL_IDE_CTRL,
                    self._memo(device.disk, IdeBinding, module.IdeState))
        if isinstance(device, Permedia2Model) and _pm2_eligible(device):
            return (MODEL_PM2,
                    self._memo(device, Pm2Binding, module.Pm2State))
        if isinstance(device, Permedia2Aperture) \
                and _pm2_eligible(device.gpu):
            return (MODEL_PM2_FB,
                    self._memo(device.gpu, Pm2Binding, module.Pm2State))
        return None


__all__ = [
    "IDE_FIELDS", "MODEL_C", "MODEL_IDE", "MODEL_IDE_CTRL", "MODEL_NONE",
    "MODEL_PM2", "MODEL_PM2_FB", "PM2_FIELDS", "IdeBinding",
    "ModelRegistry", "Pm2Binding", "SyncedFallback",
]
