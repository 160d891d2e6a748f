"""``drivers``: the paper's Tables 2-4 paths on the interpreter.

``DevilIdeDriver`` and ``DevilPermedia2Driver`` with ``bind()``'s
default (interpreted) stubs, each on one long-lived plain ``Bus``
machine.  The runtime, the bus and the device models do all the work
and the front end none.  IDE ops are read-heavy (``get_`` stubs, single
and block port reads); Permedia2 ops are write-heavy (``set_`` stubs
over packed registers, MMIO writes, FIFO polls).  Every op kind is
sized to a similar host time, so the latency percentiles describe the
mix rather than one slow kind.

The seed picks the LBAs, the rectangle positions and the order of one
cycle of ops; every cycle replays it, starting from a cleared screen,
so each cycle's accounting, simulated time and framebuffer are the
same and are checked against committed values.
"""

from __future__ import annotations

import math
import random
import traceback

from common import Outcome, accounting_dict, digest, load_expected

CMD_BASE, CTRL_BASE, BM_BASE = 0x1F0, 0x3F6, 0xC000
REGS_BASE, FB_BASE = 0xF000_0000, 0xF100_0000
DISK_SECTORS = 2048
SCREEN_WIDTH, SCREEN_HEIGHT, DEPTH_BITS = 1024, 768, 32
CLEAR_COLOR = 0x00102030

#: Op kinds and how many of each one cycle holds.
KINDS = ("ide_pio_loop", "ide_pio_block", "ide_dma", "pm2_batch")
PER_KIND = 4
#: Sectors per op: the C-loop read moves one sector word by word; the
#: block read moves 8 sectors per interrupt as 32-bit ``rep`` words;
#: one DMA op issues DMA_COMMANDS commands of DMA_SECTORS each.
LOOP_SECTORS, BLOCK_SECTORS = 1, 8
DMA_COMMANDS, DMA_SECTORS = 8, 16
DMA_BUFFER, DMA_PRD = 0x20000, 0x8000
#: Rectangle sides of one Permedia2 batch (a fill and a copy each).
#: The batch is the slowest kind, about 1.5x the others, so the p90 lands
#: inside its cluster instead of on the noise tail of all four kinds.
RECT_SIDES = (2, 10, 100) * 4
COPY_GAP = 8
#: Kernel samples are taken every this many ops.
SAMPLE_EVERY = 4
#: Latency slots allocated before the timed phase (see ``Intervals``);
#: a cycle starts only while the whole cycle fits.
MAX_OPS = 65536


def plan_cycle(seed: int) -> list[tuple]:
    """The seeded op sequence of one cycle: ``(kind, parameters)``."""
    rng = random.Random(seed)
    ops = []
    for kind in KINDS:
        for _ in range(PER_KIND):
            if kind == "ide_pio_loop":
                params = rng.randrange(DISK_SECTORS - LOOP_SECTORS)
            elif kind == "ide_pio_block":
                params = rng.randrange(DISK_SECTORS - BLOCK_SECTORS)
            elif kind == "ide_dma":
                params = tuple(rng.randrange(DISK_SECTORS - DMA_SECTORS)
                               for _ in range(DMA_COMMANDS))
            else:
                params = []
                for side in RECT_SIDES:
                    x = rng.randrange(SCREEN_WIDTH - side)
                    y = rng.randrange(SCREEN_HEIGHT - side)
                    params.append(("fill", x, y, side,
                                   rng.randrange(1 << 32)))
                    dst_x = rng.randrange(SCREEN_WIDTH - 2 * side - COPY_GAP)
                    dst_y = rng.randrange(SCREEN_HEIGHT - side)
                    params.append(("copy", dst_x + side + COPY_GAP, dst_y,
                                   dst_x, dst_y, side))
                params = tuple(params)
            ops.append((kind, params))
    rng.shuffle(ops)
    return ops


def reference_framebuffer(np, ops: list[tuple]):
    """The screen one cycle should leave, from the ops alone."""
    screen = np.full((SCREEN_HEIGHT, SCREEN_WIDTH), CLEAR_COLOR,
                     dtype=np.uint32)
    for kind, params in ops:
        if kind != "pm2_batch":
            continue
        for primitive in params:
            if primitive[0] == "fill":
                _, x, y, side, color = primitive
                screen[y:y + side, x:x + side] = color
            else:
                _, src_x, src_y, dst_x, dst_y, side = primitive
                screen[dst_y:dst_y + side, dst_x:dst_x + side] = \
                    screen[src_y:src_y + side, src_x:src_x + side].copy()
    return screen


def disk_image(np) -> bytes:
    """Distinct bytes for every (sector, offset) of the disk."""
    sectors = np.arange(DISK_SECTORS, dtype=np.uint32)[:, None]
    offsets = np.arange(512, dtype=np.uint32)[None, :]
    return ((sectors * 131 + offsets * 7 + (offsets >> 8) + (sectors >> 8))
            & 0xFF).astype(np.uint8).tobytes()


class Drivers:
    name = "drivers"
    #: Spans that open one op in the traced run.
    roots = ("op",)

    def setup(self, steps, tracer) -> None:
        steps.run("import", self._import)
        if tracer is not None:
            self._instrument_classes(tracer)
        steps.run("compile", self._compile)
        steps.run("bind", self._bind)
        if tracer is not None:
            self._instrument_instances(tracer)

    def _import(self) -> None:
        import numpy as np
        from repro.bus import Bus
        from repro.devices.ide import REGION_SIZE as IDE_REGION
        from repro.devices.ide import IdeControlPort, IdeDiskModel
        from repro.devices.permedia2 import DEPTH_BYTES
        from repro.devices.permedia2 import REGION_SIZE as PM2_REGION
        from repro.devices.permedia2 import (Permedia2Aperture,
                                             Permedia2Model)
        from repro.devices.piix4 import REGION_SIZE as BM_REGION
        from repro.devices.piix4 import Piix4Model
        from repro.drivers import DevilIdeDriver, DevilPermedia2Driver
        from repro.perf.model import CostModel
        from repro.specs import compile_shipped

        self.np = np
        self.Bus = Bus
        self.ide_classes = (IdeDiskModel, IdeControlPort, Piix4Model)
        self.pm2_classes = (Permedia2Model, Permedia2Aperture)
        self.regions = (IDE_REGION, BM_REGION, PM2_REGION)
        self.depth_bytes = DEPTH_BYTES
        self.driver_classes = (DevilIdeDriver, DevilPermedia2Driver)
        self.cost = CostModel()
        self.compile_shipped = compile_shipped

    def _compile(self) -> None:
        for name in ("ide", "piix4", "permedia2"):
            self.compile_shipped(name)

    def _bind(self) -> None:
        IdeDiskModel, IdeControlPort, Piix4Model = self.ide_classes
        Permedia2Model, Permedia2Aperture = self.pm2_classes
        ide_region, bm_region, pm2_region = self.regions
        ide_driver, pm2_driver = self.driver_classes

        self.ide_bus = self.Bus()
        self.disk = IdeDiskModel(total_sectors=DISK_SECTORS)
        self.disk.store[:] = disk_image(self.np)
        self.ide_bus.map_device(CMD_BASE, ide_region, self.disk, "ide")
        self.ide_bus.map_device(CTRL_BASE, 1, IdeControlPort(self.disk),
                                "ide-ctrl")
        self.memory = bytearray(1 << 20)
        self.busmaster = Piix4Model(self.disk, self.memory)
        self.ide_bus.map_device(BM_BASE, bm_region, self.busmaster,
                                "piix4")
        self.ide = ide_driver(self.ide_bus, CMD_BASE, CTRL_BASE, BM_BASE)
        self.ide.set_multiple(BLOCK_SECTORS)

        self.pm2_bus = self.Bus()
        self.gpu = Permedia2Model(width=SCREEN_WIDTH, height=SCREEN_HEIGHT)
        self.pm2_bus.map_device(REGS_BASE, pm2_region, self.gpu,
                                "permedia2")
        self.pm2_bus.map_device(FB_BASE, 1, Permedia2Aperture(self.gpu),
                                "permedia2-fb")
        self.pm2 = pm2_driver(self.pm2_bus, REGS_BASE, FB_BASE)
        self.pm2.set_mode(DEPTH_BITS, SCREEN_WIDTH, SCREEN_HEIGHT)

    # -- tracing --------------------------------------------------------

    def _instrument_classes(self, tracer) -> None:
        # Before binding: the stubs reach the bus through these.
        for method in ("read", "block_read"):
            tracer.patch(self.Bus, method, "bus.read")
        for method in ("write", "block_write"):
            tracer.patch(self.Bus, method, "bus.write")
        for cls in self.ide_classes + self.pm2_classes:
            tracer.patch(cls, "io_read", "devices.io")
            tracer.patch(cls, "io_write", "devices.io")

    def _instrument_instances(self, tracer) -> None:
        for stubs in (self.ide.dev, self.ide.bm, self.pm2.dev):
            for attribute in list(vars(stubs)):
                if attribute.startswith(("get_", "set_", "read_",
                                         "write_")):
                    tracer.patch(stubs, attribute, "devil.runtime")
        wait_fifo = self.pm2._wait_fifo

        def counted_wait(entries):
            tracer.count("drivers.fifo_waits")
            return wait_fifo(entries)

        self.pm2._wait_fifo = counted_wait

    # -- ops --------------------------------------------------------------

    def prepare(self, ctx) -> None:
        self.expected = load_expected("drivers")
        self.cycle = plan_cycle(ctx.seed)
        self.reference = reference_framebuffer(self.np, self.cycle)

    def _do_op(self, kind, params):
        """Run one op; returns the bytes read (IDE) or None."""
        if kind == "ide_pio_loop":
            return self.ide.read_sectors(params, LOOP_SECTORS, 1, 16,
                                         use_block=False)
        if kind == "ide_pio_block":
            return self.ide.read_sectors(params, BLOCK_SECTORS,
                                         BLOCK_SECTORS, 32, use_block=True)
        if kind == "ide_dma":
            return b"".join(
                self.ide.read_dma(self.memory, lba, DMA_SECTORS,
                                  DMA_BUFFER, DMA_PRD)
                for lba in params)
        for primitive in params:
            if primitive[0] == "fill":
                _, x, y, side, color = primitive
                self.pm2.fill_rect(x, y, side, side, color)
            else:
                _, src_x, src_y, dst_x, dst_y, side = primitive
                self.pm2.screen_copy(src_x, src_y, dst_x, dst_y, side, side)
        return None

    def _expected_bytes(self, kind, params) -> bytes:
        store = self.disk.store
        if kind == "ide_dma":
            return b"".join(bytes(store[lba * 512:(lba + DMA_SECTORS) * 512])
                            for lba in params)
        count = LOOP_SECTORS if kind == "ide_pio_loop" else BLOCK_SECTORS
        return bytes(store[params * 512:(params + count) * 512])

    def _counters(self, kind):
        if kind == "pm2_batch":
            gpu = self.gpu
            return (self.pm2_bus.accounting.snapshot(), gpu.pixels_filled,
                    gpu.pixels_copied)
        return (self.ide_bus.accounting.snapshot(),
                self.disk.interrupts_raised,
                self.busmaster.bytes_transferred)

    def _sim_us(self, kind, params, before) -> tuple[float, object]:
        """Modelled device time of the op, and its accounting delta."""
        accounting, first, second = before
        if kind == "pm2_batch":
            delta = self.pm2_bus.accounting.delta(accounting)
            depth = self.depth_bytes[self.gpu.depth_code]
            copies = sum(1 for primitive in params if primitive[0] == "copy")
            sim = (self.cost.mmio_time_us(delta)
                   + self.cost.fill_time_us(
                       (self.gpu.pixels_filled - first) * depth)
                   + self.cost.copy_time_us(
                       (self.gpu.pixels_copied - second) * depth, copies))
            return sim, delta
        delta = self.ide_bus.accounting.delta(accounting)
        sim = self.cost.pio_time_us(
            delta, self.disk.interrupts_raised - first,
            self.busmaster.bytes_transferred - second)
        return sim, delta

    def run(self, ctx) -> Outcome:
        host, clock, tracer = ctx.host, ctx.host.clock, ctx.tracer
        do_op = self._do_op
        if tracer is not None:
            do_op = tracer.wrap("op", do_op)
        expected = self.expected.get("cycle")
        out = Outcome(MAX_OPS)
        bus_ops = block_words = 0
        waits_before = self.pm2.wait_iterations
        cycles = 0
        began = clock()
        while cycles == 0 or (clock() - began < ctx.seconds and
                              out.latencies.room() >= len(self.cycle)):
            ide_start = self.ide_bus.accounting.snapshot()
            pm2_start = self.pm2_bus.accounting.snapshot()
            self.pm2.fill_rect(0, 0, SCREEN_WIDTH, SCREEN_HEIGHT,
                               CLEAR_COLOR)
            sims = []
            failed_before = out.failed
            for index, (kind, params) in enumerate(self.cycle):
                if index % SAMPLE_EVERY == 0:
                    host.sample()
                before = self._counters(kind)
                if tracer is not None:
                    tracer.set_op(len(out.latencies) + 1)
                start = clock()
                try:
                    data = do_op(kind, params)
                    ok = True
                except Exception:               # counted, run goes on
                    ok = False
                    out.error(traceback.format_exc())
                end = clock()
                out.latencies.append(start, end)
                sim, delta = self._sim_us(kind, params, before)
                sims.append(sim)
                bus_ops += delta.total_ops
                block_words += delta.block_words
                if not ok or (kind != "pm2_batch" and
                              data != self._expected_bytes(kind, params)):
                    out.failed += 1
            cycles += 1
            observed = {
                # fsum: the cycle's total must not depend on the op order.
                "sim_us": math.fsum(sims),
                "ide_per_cycle": accounting_dict(
                    self.ide_bus.accounting.delta(ide_start)),
                "pm2_per_cycle": accounting_dict(
                    self.pm2_bus.accounting.delta(pm2_start)),
            }
            # Every cycle replays the same ops from a cleared screen.
            cycle_ok = observed == expected and self.np.array_equal(
                self.gpu.framebuffer, self.reference)
            if not cycle_ok and out.failed == failed_before:
                out.failed += len(self.cycle)
        host.sample()
        ops = len(out.latencies)
        screen = digest(self.np.ascontiguousarray(
            self.gpu.framebuffer).tobytes())
        seeds = self.expected.get("framebuffer", {})
        out.checks["framebuffer"] = screen == digest(
            self.reference.tobytes()) and \
            seeds.get(str(ctx.seed), screen) == screen
        out.info.update(cycles=cycles, cycle=observed, framebuffer=screen)
        polls = self.pm2.wait_iterations - waits_before
        out.layer.update({
            "sim_us_per_op": observed["sim_us"] / len(self.cycle),
            "bus.ops": bus_ops / ops,
            "bus.block_words": block_words / ops,
            "drivers.fifo_polls": polls,
        })
        return out

    def bless(self, ctx, seeds) -> dict:
        """Committed expectations: one cycle's counts, per-seed screens."""
        screens = {}
        cycles = []
        for seed in seeds:
            ctx.seed = seed
            self.prepare(ctx)
            info = self.run(ctx).info
            cycles.append(info["cycle"])
            screens[str(seed)] = info["framebuffer"]
        if any(cycle != cycles[0] for cycle in cycles):
            raise AssertionError("cycle counts depend on the seed")
        return {"cycle": cycles[0], "framebuffer": screens}

    # -- per-layer metrics from the traced run --------------------------

    @staticmethod
    def layer_metrics(trace, ops: int, scale: float) -> dict:
        self_s, calls, counts = trace["self"], trace["calls"], \
            trace["counts"]

        def per_call_us(name):
            count = calls.get(name, 0)
            return self_s.get(name, 0.0) * scale / count * 1e6 \
                if count else 0.0

        polls = trace["layer"].get("drivers.fifo_polls", 0)
        waits = counts.get("drivers.fifo_waits", 0)
        return {
            "drivers.stub_calls": calls.get("devil.runtime", 0) / ops,
            "devil.runtime.us_per_call": per_call_us("devil.runtime"),
            "drivers.self_us": self_s.get("op", 0.0) * scale / ops * 1e6,
            "bus.read_us_per_access": per_call_us("bus.read"),
            "bus.write_us_per_access": per_call_us("bus.write"),
            "devices.us_per_access": per_call_us("devices.io"),
            "devices.fifo_full_frac": (polls - waits) / polls
            if polls else 0.0,
        }
