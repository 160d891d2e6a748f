"""Canonical fleet requests: the mixed workload of the benchmarks.

Each request has the shipped-workload shape ``fn(stubs, aux)`` and is
deliberately *idempotent on device state*: running it N times against
one device leaves that device in the same final state regardless of
which other (idempotent) requests interleaved on *other* devices.
That property lets the stress suite compare a parallel run against a
single-worker reference run request-for-request.

The mix mirrors a small machine under real load:

* :func:`ide_sector_read` — a one-sector PIO read: coalesced command
  block programming, status poll, a 256-word block-in.  Heavy on block
  words; the latency model makes it the slow request of the mix.
* :func:`pm2_fill_rect` — a Permedia2 FILL_RECT primitive: packed
  register writes, render trigger, busy poll.  Write-heavy, short.
* :func:`ne2000_ring_poll` — the NE2000 receive-ring service loop's
  idle branch: read ISR bits, boundary, current page.  Read-heavy,
  shortest; volatile registers defeat the shadow cache, as they must.
* :func:`ide_sector_checksum` — the CPU-bound outlier: one sector read
  followed by a pure-Python rolling checksum over the data.  Threads
  serialize it on the GIL; the process backend is what makes it scale.

Request codec
-------------

The process backend ships requests to worker processes by *reference*,
not by value: :func:`encode_request` turns a module-level request
callable into a ``"package.module:qualname"`` token and
:func:`decode_request` resolves it back on the other side.
:class:`functools.partial` over a module-level callable is also
accepted — the base function travels by reference, the bound
arguments by value (they must pickle).  Encoding validates eagerly in
the submitting process — a lambda, closure, instance method or a
partial with unpicklable arguments fails at ``submit`` time with a
clear error instead of poisoning a worker — and guarantees the token
round-trips to the *same* function object (an equivalent partial), so
both backends execute identical code.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time


def ide_sector_read(stubs, aux):
    """Program a 1-sector LBA read of sector 2 and drain the data FIFO."""
    stubs.set_irq_disabled(True)
    stubs.set_lba_mode(True)
    stubs.set_drive("MASTER")
    stubs.set_head(0)
    stubs.set_sector_count(1)
    stubs.set_lba_low(2)
    stubs.set_lba_mid(0)
    stubs.set_lba_high(0)
    stubs.set_command("READ_SECTORS")
    if stubs.get_ide_err():
        raise RuntimeError("IDE device reported an error")
    data = stubs.read_ide_data_block(256)
    stubs.get_alt_status()
    return data


def ide_sector_read_txn(stubs, aux):
    """The same sector read with the command block in one transaction."""
    with stubs.txn():
        stubs.set_irq_disabled(True)
        stubs.set_lba_mode(True)
        stubs.set_drive("MASTER")
        stubs.set_head(0)
        stubs.set_sector_count(1)
        stubs.set_lba_low(2)
        stubs.set_lba_mid(0)
        stubs.set_lba_high(0)
    stubs.set_command("READ_SECTORS")
    if stubs.get_ide_err():
        raise RuntimeError("IDE device reported an error")
    data = stubs.read_ide_data_block(256)
    stubs.get_alt_status()
    return data


def pm2_fill_rect(stubs, aux):
    """Queue one FILL_RECT primitive and poll it to completion."""
    stubs.set_pixel_depth("BPP8")
    stubs.set_fb_write_mask(0xFFFFFFFF)
    stubs.set_block_color(0x55)
    stubs.set_rect_x(2)
    stubs.set_rect_y(3)
    stubs.set_rect_width(8)
    stubs.set_rect_height(4)
    stubs.set_render("FILL_RECT")
    busy = stubs.get_graphics_busy()
    overflow = stubs.get_fifo_overflow()
    return busy, overflow


def ne2000_ring_poll(stubs, aux):
    """One pass of the receive-ring service loop's polling branch."""
    received = stubs.get_packet_received()
    errored = stubs.get_receive_error()
    overwrite = stubs.get_overwrite_warning()
    boundary = stubs.get_boundary()
    current = stubs.get_current_page()
    return received, errored, overwrite, boundary, current


def ide_sector_read_lba(stubs, aux, lba=2):
    """A parameterized 1-sector read: ``functools.partial`` over this
    callable ships to worker processes (see :func:`encode_request`)."""
    stubs.set_irq_disabled(True)
    stubs.set_lba_mode(True)
    stubs.set_drive("MASTER")
    stubs.set_head(0)
    stubs.set_sector_count(1)
    stubs.set_lba_low(lba)
    stubs.set_lba_mid(0)
    stubs.set_lba_high(0)
    stubs.set_command("READ_SECTORS")
    if stubs.get_ide_err():
        raise RuntimeError("IDE device reported an error")
    data = stubs.read_ide_data_block(256)
    stubs.get_alt_status()
    return data


#: Pure-Python work factor of :func:`ide_sector_checksum`; chosen so
#: one request costs a few milliseconds of GIL-holding compute —
#: enough to dwarf the IPC cost of shipping the request to a process.
CHECKSUM_ROUNDS = 80


def ide_sector_checksum(stubs, aux):
    """Read one sector, then checksum it in pure Python (CPU-bound).

    The bus traffic is identical to :func:`ide_sector_read`; the
    checksum loop after it holds the GIL for its whole duration, so a
    thread fleet cannot overlap two of these no matter how many
    workers it has.  This is the request the multiprocessing backend
    exists for.
    """
    data = ide_sector_read(stubs, aux)
    accumulator = 0
    for _ in range(CHECKSUM_ROUNDS):
        for word in data:
            accumulator = (accumulator * 31 + word) & 0xFFFFFFFF
    return accumulator


#: Dispatch depth of :func:`ide_taskfile_churn`: enough single-register
#: writes that per-op dispatch cost (Python bytecode + GIL traffic)
#: dominates the request, which is exactly what the native core's
#: batched ``repeat()`` dispatch is built to collapse.
CHURN_OPS = 8192


def ide_taskfile_churn(stubs, aux, n=CHURN_OPS):
    """Hammer one 8-bit taskfile register ``n`` times (CPU-bound dispatch).

    The request is pure dispatch overhead by design: no data transfer,
    no latency model stalls, just ``n`` writes of the same value to
    ``lba_low``.  On interpret/specialize stubs each write is a full
    Python round trip holding the GIL; on native stubs the whole run
    collapses into one C call via ``repeat()`` that *releases* the GIL,
    so N thread-fleet workers overlap in real parallel.  Both paths
    produce identical bus traffic (``n`` 8-bit writes of 2), so every
    parity pin — accounting, traces, end state — stays byte-exact
    across strategies.
    """
    repeat = getattr(stubs, "repeat", None)
    if repeat is not None:
        repeat("set_lba_low", n, 2)
    else:
        for _ in range(n):
            stubs.set_lba_low(2)
    return n


def ide_data_probe(stubs, aux):
    """Read the IDE data FIFO without arming a transfer (always faults).

    DRQ is clear, so the device model rejects the read; the request
    exists to prove mid-batch error propagation: a process worker
    executing a batch must surface the failure as a
    :class:`~repro.engine.mp.WorkerError` carrying the device's message
    and keep serving later batches.
    """
    return stubs.read_ide_data_block(8)


def wedged_request(stubs, aux, seconds=2.0):
    """Deliberately wedge the executing worker for ``seconds``.

    Fault injection for the live telemetry plane: the request touches
    no device state (so it perturbs no parity check) but blocks inside
    the worker long enough for :class:`repro.obs.live.FleetHealth` to
    flag the worker ``stalled`` — it cannot heartbeat while stuck in
    user code, which is exactly the signal the detector keys on.
    Module-level so ``functools.partial(wedged_request, seconds=...)``
    ships to process workers through the request codec.
    """
    time.sleep(seconds)
    return seconds


#: The benchmark's mixed fleet: ``spec -> request``.
MIXED_REQUESTS = {
    "ide": ide_sector_read,
    "permedia2": pm2_fill_rect,
    "ne2000": ne2000_ring_poll,
}

#: The CPU-bound mix: every request is GIL-dominated compute.
CPU_REQUESTS = {
    "ide": ide_sector_checksum,
}


# ---------------------------------------------------------------------------
# Picklable request codec (the process backend's wire format)
# ---------------------------------------------------------------------------


def encode_request(request):
    """``module-level callable -> "package.module:qualname"`` token.

    A :class:`functools.partial` over a module-level callable encodes
    as ``("partial", base_token, pickled (args, kwargs))`` — the bound
    arguments travel by value, so they must pickle; anything else
    (unpicklable arguments, a lambda under the partial) fails *here*,
    in the submitting process, with a clear error instead of poisoning
    a worker.  Both forms round-trip through :func:`decode_request` at
    encode time, so a token that encodes is guaranteed to decode to an
    equivalent callable in any process that can import this package.
    Raises :class:`ValueError` for anything else that cannot be
    resolved by import on the worker side: lambdas, nested functions,
    bound methods.
    """
    if isinstance(request, functools.partial):
        return _encode_partial(request)
    module = getattr(request, "__module__", None)
    qualname = getattr(request, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(
            f"request {request!r} is not a named module-level "
            f"callable and cannot be shipped to a worker process")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise ValueError(
            f"request {qualname!r} is a lambda or nested function; "
            f"the process backend needs a module-level callable "
            f"(define it at the top of a module, like the requests in "
            f"repro.engine.requests)")
    token = f"{module}:{qualname}"
    resolved = decode_request(token)
    if resolved is not request:
        raise ValueError(
            f"request token {token!r} resolves to {resolved!r}, not "
            f"the submitted callable — submit the module-level "
            f"function itself, not a wrapper")
    return token


def _encode_partial(request: functools.partial):
    """``("partial", base_token, args_blob)`` for a partial request.

    ``functools.partial`` flattens nested partials at construction, so
    ``request.func`` is always the base callable — which must itself
    encode (i.e. be module-level).
    """
    base_token = encode_request(request.func)
    if not isinstance(base_token, str):  # a partial of a partial object
        raise ValueError(
            f"request {request!r} wraps a non-function callable; "
            f"ship functools.partial over a module-level function")
    try:
        args_blob = pickle.dumps(
            (request.args, dict(request.keywords)), protocol=4)
    except Exception as exc:
        raise ValueError(
            f"functools.partial arguments for "
            f"{base_token!r} are not picklable and cannot be shipped "
            f"to a worker process: {exc!r}") from exc
    token = ("partial", base_token, args_blob)
    resolved = decode_request(token)
    if resolved.func is not request.func \
            or resolved.args != request.args \
            or resolved.keywords != dict(request.keywords):
        raise ValueError(
            f"partial token for {base_token!r} did not round-trip; "
            f"bound arguments must pickle to equal values")
    return token


def decode_request(token):
    """Inverse of :func:`encode_request` (importing as needed)."""
    if isinstance(token, tuple):
        if len(token) != 3 or token[0] != "partial":
            raise ValueError(f"malformed request token {token!r}")
        _, base_token, args_blob = token
        base = decode_request(base_token)
        try:
            args, kwargs = pickle.loads(args_blob)
        except Exception as exc:
            raise ValueError(
                f"partial token for {base_token!r} carries an "
                f"unreadable argument payload: {exc!r}") from exc
        return functools.partial(base, *args, **kwargs)
    module_name, _, qualname = token.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed request token {token!r}")
    try:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise ValueError(
            f"request token {token!r} does not resolve: {exc}") from exc
    if not callable(target):
        raise ValueError(f"request token {token!r} names "
                         f"non-callable {target!r}")
    return target


def request_label(request) -> str:
    """Human-readable name for a request callable (partial-aware)."""
    if isinstance(request, functools.partial):
        bound = [repr(a) for a in request.args]
        bound += [f"{k}={v!r}" for k, v in request.keywords.items()]
        return (f"{request_label(request.func)}"
                f"({', '.join(bound)})")
    return getattr(request, "__name__", repr(request))
