"""Variable-level telemetry spans and the collecting observer.

A *span* covers one public stub call — ``get_dx()``,
``set_left_dac_output(...)``, ``read_ide_data_block(256)`` — and records
the device, the device variable (or structure), the access kind, the
execution strategy, the pre/post/set actions that fired, and the exact
port I/O the call caused.  The flat :attr:`repro.bus.Bus.trace` thereby
becomes *attributable*: every port access belongs to exactly one device
variable.

Spans never nest.  The runtime's action machinery re-enters the stub
layer (a ``pre`` action on an index register calls the index variable's
setter; the specializer's stubs, bound or in a generated module, call
the setter closure directly), and the execution strategies re-enter at
different depths.  The collector therefore
counts depth and only materialises the *outermost* stub call — which is
exactly the granularity the paper argues for: driver-visible operations
on device variables, not raw signal events.  Parity of span streams
across strategies is asserted by ``tests/test_obs.py``.

The collector is attached to a :class:`repro.bus.Bus` via its
``collector`` attribute; instrumented stubs find it there at call time,
so a single bound instance can be observed, detached and re-observed
without rebinding.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from ..devil.stubs import stub_table
from .metrics import MetricsRegistry


@dataclass(frozen=True)
class IoEvent:
    """One bus operation attributed to a span.

    ``op`` follows :class:`repro.bus.IoTraceEntry` ('r', 'w', 'rb',
    'wb'); ``count`` is the word count of a block transfer (1 for
    single accesses); ``value`` is the transferred value for single
    accesses and ``None`` for block transfers (the per-word data lives
    in the bus trace).  ``elided=True`` marks a read served from the
    runtime's register shadow cache: no bus operation happened (the
    event does not appear in the bus trace), and ``value`` is the
    shadow's view of the register's variable bits.
    """

    op: str
    port: int
    value: int | None
    width: int
    count: int = 1
    elided: bool = False


@dataclass
class Span:
    """One observed device-variable access."""

    device: str
    #: Public stub name (``get_dx``, ``write_fb_data_block``...).
    stub: str
    #: Device variable or structure the stub accesses.
    variable: str
    #: ``get``/``set``/``get_struct``/``set_struct``/``block_read``/
    #: ``block_write``.
    kind: str
    strategy: str
    start: float = 0.0
    duration: float = 0.0
    seq: int = 0
    io: list[IoEvent] = field(default_factory=list)
    #: ``(action_kind, target)`` pairs in firing order; action_kind is
    #: ``pre``/``post``/``reg-set`` (register-attached) or ``var-set``
    #: (variable-attached, after the write).
    actions: list[tuple[str, str]] = field(default_factory=list)
    #: True when at least one write this span deferred was merged into
    #: a transactional flush (set by :meth:`Collector.mark_coalesced`).
    coalesced: bool = False
    error: str | None = None

    @property
    def io_ops(self) -> int:
        """Real bus operations attributed to the span (elided excluded)."""
        return sum(1 for event in self.io if not event.elided)

    @property
    def io_words(self) -> int:
        return sum(event.count for event in self.io if not event.elided)

    @property
    def io_elided(self) -> int:
        """Reads served from the shadow cache instead of the bus."""
        return sum(1 for event in self.io if event.elided)

    def signature(self) -> tuple:
        """Strategy- and timing-independent identity, for parity checks."""
        return (self.device, self.stub, self.variable, self.kind,
                tuple((e.op, e.port, e.value, e.width, e.count, e.elided)
                      for e in self.io),
                tuple(self.actions), self.coalesced, self.error)

    def to_dict(self) -> dict:
        """Plain-data form (the JSONL record)."""
        return {
            "device": self.device,
            "stub": self.stub,
            "variable": self.variable,
            "kind": self.kind,
            "strategy": self.strategy,
            "seq": self.seq,
            "start_us": self.start * 1e6,
            "dur_us": self.duration * 1e6,
            "io": [{"op": e.op, "port": e.port, "value": e.value,
                    "width": e.width, "count": e.count,
                    "elided": e.elided}
                   for e in self.io],
            "actions": [{"kind": kind, "target": target}
                        for kind, target in self.actions],
            "coalesced": self.coalesced,
            "error": self.error,
        }


class _WorkerBuffer:
    """Per-thread span state: the open span, depth, finished spans.

    One buffer per thread that ever reported to the collector.  All
    fields are touched only by the owning thread (lock-free hot path);
    the collector merges the ``spans`` lists at read time.
    """

    __slots__ = ("open", "depth", "spans")

    def __init__(self):
        self.open: Span | None = None
        self.depth = 0
        self.spans: list[Span] = []


class Collector:
    """Receives span, action and I/O events; aggregates metrics.

    One collector can observe several buses and devices at once (the
    IDE + PIIX4 machine binds two instances to one bus).  Port→register
    attribution maps are registered per device at bind time so the
    metrics rollups can report per-register traffic without the bus
    knowing anything about Devil models.

    Thread model: spans never nest *per thread*.  Each reporting thread
    owns a private :class:`_WorkerBuffer` (open span, depth counter,
    finished-span list), so the per-event hot path — ``io_event``,
    ``record_action`` — appends to thread-local state without any lock
    and parallel workers never serialize on tracing.  Only span
    *completion* takes the collector lock (sequence number, metrics
    rollup), once per stub call.  :attr:`spans` merges every worker's
    buffer ordered by completion sequence; under a single thread this
    is byte-identical to the pre-concurrency behaviour.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 clock=time.perf_counter):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        #: ``port -> (device, register)`` for metrics attribution.
        self._port_map: dict[int, tuple[str, str]] = {}
        #: Guards the buffer list, sequence numbering and every metrics
        #: mutation (rollups and unattributed-I/O counters).
        self._lock = threading.Lock()
        self._buffers: list[_WorkerBuffer] = []
        self._tls = threading.local()
        self._seq = itertools.count()

    def _buffer(self) -> _WorkerBuffer:
        buffer = getattr(self._tls, "buffer", None)
        if buffer is None:
            buffer = _WorkerBuffer()
            self._tls.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    @property
    def spans(self) -> list[Span]:
        """Every finished span, merged across workers in seq order."""
        with self._lock:
            merged = [span for buffer in self._buffers
                      for span in buffer.spans]
        merged.sort(key=lambda span: span.seq)
        return merged

    # -- wiring ---------------------------------------------------------

    def register_ports(self, device: str,
                       ports: dict[int, str]) -> None:
        """Record that ``ports`` (absolute) belong to ``device``'s
        registers, for per-register rollups."""
        for port, register in ports.items():
            self._port_map[port] = (device, register)

    # -- span lifecycle (called by instrumented stubs) -------------------

    def span_start(self, device: str, stub: str, variable: str,
                   kind: str, strategy: str) -> None:
        buffer = self._buffer()
        if buffer.depth:
            buffer.depth += 1
            return
        buffer.depth = 1
        buffer.open = Span(device=device, stub=stub, variable=variable,
                           kind=kind, strategy=strategy,
                           start=self._clock())

    def span_end(self, error: str | None = None) -> None:
        buffer = self._buffer()
        buffer.depth -= 1
        span = buffer.open
        if buffer.depth or span is None:
            if error is not None and span is not None \
                    and span.error is None:
                span.error = error
            return
        buffer.open = None
        span.duration = self._clock() - span.start
        if error is not None and span.error is None:
            span.error = error
        with self._lock:
            span.seq = next(self._seq)
            buffer.spans.append(span)
            self._roll_up(span)

    # -- event feeds (bus and runtimes) ---------------------------------

    def io_event(self, op: str, port: int, value: int | None,
                 width: int, count: int = 1,
                 elided: bool = False) -> None:
        span = self._buffer().open
        if span is not None:
            span.io.append(IoEvent(op, port, value, width, count, elided))
            return
        with self._lock:
            if elided:
                self.metrics.counter("io.elided_unattributed",
                                     op=op).inc()
            else:
                self.metrics.counter("io.unattributed", op=op).inc()

    def mark_coalesced(self) -> None:
        """Flag the open span: its deferred write joined a txn flush."""
        span = self._buffer().open
        if span is not None:
            span.coalesced = True

    def record_action(self, kind: str, target: str) -> None:
        span = self._buffer().open
        if span is not None:
            span.actions.append((kind, target))

    def record_trace_drops(self, dropped: int) -> None:
        """Surface the bus ring-buffer drop count (absolute value)."""
        with self._lock:
            counter = self.metrics.counter("bus.trace_dropped")
            if dropped > counter.value:
                counter.inc(dropped - counter.value)

    # -- metrics rollups -------------------------------------------------

    def _roll_up(self, span: Span) -> None:
        metrics = self.metrics
        device, variable = span.device, span.variable
        metrics.counter("var.calls", device=device, variable=variable,
                        kind=span.kind).inc()
        metrics.counter("dev.calls", device=device).inc()
        if span.io:
            metrics.counter("var.io_ops", device=device,
                            variable=variable).inc(span.io_ops)
            metrics.counter("var.io_words", device=device,
                            variable=variable).inc(span.io_words)
            metrics.counter("dev.io_ops", device=device).inc(span.io_ops)
            elided = span.io_elided
            if elided:
                metrics.counter("var.io_elided", device=device,
                                variable=variable).inc(elided)
        if span.coalesced:
            metrics.counter("var.coalesced", device=device,
                            variable=variable).inc()
        metrics.histogram("var.us", device=device,
                          variable=variable).observe(span.duration * 1e6)
        for event in span.io:
            if event.elided:
                continue  # no bus traffic to attribute
            owner = self._port_map.get(event.port)
            if owner is None:
                continue
            owner_device, register = owner
            direction = "reads" if event.op in ("r", "rb") else "writes"
            metrics.counter(f"reg.{direction}", device=owner_device,
                            register=register).inc()
            metrics.counter("reg.words", device=owner_device,
                            register=register).inc(event.count)

    # -- cross-process export ---------------------------------------------

    def ingest(self, spans) -> None:
        """Merge spans exported from another collector (or process).

        The span-export half of the process fleet's merge step: worker
        processes collect spans with their own collectors, ship them
        back as plain pickled :class:`Span` objects, and the parent
        ingests them here.  Each span is renumbered into this
        collector's sequence (in the order given — callers pass worker
        batches in the worker's completion order) and rolled up into
        the metrics registry exactly as if it had completed locally, so
        ``dev.calls``/``var.*``/``reg.*`` totals are backend-agnostic.
        Timestamps are left untouched; they are worker-process clocks
        and remain comparable only within one worker.
        """
        buffer = self._buffer()
        with self._lock:
            for span in spans:
                span.seq = next(self._seq)
                buffer.spans.append(span)
                self._roll_up(span)

    # -- convenience ------------------------------------------------------

    def clear(self) -> None:
        """Drop every finished span and restart sequence numbering.

        Open spans (a worker mid-call) are left alone; they land in the
        fresh numbering when they complete.
        """
        with self._lock:
            for buffer in self._buffers:
                buffer.spans.clear()
            self._seq = itertools.count()

    def signatures(self) -> list[tuple]:
        return [span.signature() for span in self.spans]


# ---------------------------------------------------------------------------
# Stub instrumentation (shared by the interpreter and the specializer)
# ---------------------------------------------------------------------------


def wrap_stub(bus, device: str, stub: str, variable: str, kind: str,
              strategy: str, func):
    """Wrap one bound stub so each call opens/closes a span.

    The wrapper resolves ``bus.collector`` per call: when no collector
    is attached the only cost is one attribute load and an ``is None``
    test, and attaching/detaching a collector needs no rebinding.
    """

    def observed(*args, **kwargs):
        collector = bus.collector
        if collector is None:
            return func(*args, **kwargs)
        collector.span_start(device, stub, variable, kind, strategy)
        try:
            result = func(*args, **kwargs)
        except BaseException as error:
            collector.span_end(error=type(error).__name__)
            raise
        collector.span_end()
        return result

    observed.__name__ = getattr(func, "__name__", stub)
    observed.__doc__ = getattr(func, "__doc__", None)
    observed.__wrapped__ = func
    return observed


def instrument_instance(instance) -> None:
    """Wrap every public stub attribute of a bound ``DeviceInstance``.

    Called once at bind time (interpreted strategy) or after
    specialization replaced the stub attributes; also registers the
    instance's absolute port→register map with any future collector via
    ``instance._obs_ports`` (the CLI and tests feed it to
    :meth:`Collector.register_ports`).
    """
    model = instance.model
    bus = instance.bus
    device = model.name
    strategy = instance.strategy
    for row in stub_table(model).rows:
        setattr(instance, row.name,
                wrap_stub(bus, device, row.name, row.target, row.kind,
                          strategy, getattr(instance, row.name)))
    instance._obs_ports = port_map(instance)


def port_map(instance) -> dict[int, str]:
    """``absolute port -> register name`` for one bound instance."""
    return model_port_map(instance.model, instance.bases)


def model_port_map(model, bases: dict[str, int]) -> dict[int, str]:
    """``absolute port -> register name`` for a model at ``bases``.

    Read and write ports are both attributed; when two registers share
    a port (index-addressed register files) the first declaration wins,
    which matches how the hardware multiplexes them.
    """
    ports: dict[int, str] = {}
    for name, register in model.registers.items():
        for port in (register.read_port, register.write_port):
            if port is None:
                continue
            absolute = bases[port[0]] + port[1]
            ports.setdefault(absolute, name)
    return ports
