"""Multiprocessing fleet backend: devices sharded across processes.

:class:`ProcessFleet` is the second execution substrate under the
fleet engine.  The thread backend (:class:`~repro.engine.fleet.Fleet`)
scales exactly as far as the GIL lets it — which is far for sleeping
I/O latency and not at all for CPU-bound request mixes.  The process
backend shards the *devices* across worker processes instead: each
worker owns its devices' complete Devil runtime — a private bus slice
with only its devices mapped (at their global slots), bound stubs,
shadow caches, transaction contexts, span collector — so the hot path
crosses no process boundary and takes no cross-process lock at all.

The transport is one ``multiprocessing.Queue`` message per request on
the owning worker's request queue, and one report per worker per sync
point on a shared reply queue.  Grouping requests per message, result
rings in shared memory and codec memo caches were each measured
against this plain transport and none won beyond noise (see
``docs/CONCURRENCY.md``), so there is nothing else.

Design rules (the same exactness contract the thread fleet obeys, see
``docs/CONCURRENCY.md``):

* **Sharding is a pure function of the device list.**  Device
  ``index % workers`` picks the owning worker; labels and port slots
  come from :func:`~repro.engine.fleet.fleet_layout`, shared with the
  thread backend, so a device's mapping names and absolute ports are
  identical in every backend — which is what makes end-state and span
  signatures byte-comparable across substrates.
* **Placement is a pure function of submission order.**  ``submit``
  runs the scheduling policy in the parent, exactly like the thread
  fleet; only :data:`~repro.engine.scheduler.DETERMINISTIC_POLICIES`
  are allowed (``least-loaded`` needs completion feedback that would
  reintroduce timing dependence).  Each worker executes its stream in
  FIFO order, so per-device request order equals submission order.
* **Requests travel by reference.**  ``submit`` encodes the request
  callable with :func:`~repro.engine.requests.encode_request` — a
  validated ``module:qualname`` token, or a partial-application token
  whose bound arguments travel by value — so both backends execute
  the identical function and unpicklable callables fail loudly in the
  submitting process.
* **Merging is exact.**  Each worker runs its devices as the thread
  fleet does, one session bus per device
  (:func:`~repro.engine.fleet.open_session`).  At every sync it
  reports one :class:`~repro.engine.fleet.SessionReport` per session
  (absolute accounting, pickled end-state, trace ring,
  ``trace_dropped``) plus its span buffer.  The parent puts the
  session reports in global device order and answers
  ``accounting``/``accounting_by_device()``/``device_states()``/
  ``trace`` with the thread fleet's own merge
  (:class:`~repro.engine.fleet.MergedSessions`), and ingests spans
  into its collector (:meth:`repro.obs.Collector.ingest`).

Worker failures mirror the thread pool: request exceptions are
captured with their tracebacks and re-raised in the parent as one
:class:`~repro.engine.pool.WorkerError` at ``drain``/``shutdown``.  A
worker process that dies outright is noticed within
:data:`SYNC_POLL_S` of the sync that waits on it, and reported with its
exit code.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass

from ..devil.compiler import resolve_strategy
from .fleet import MergedSessions, SessionReport, fleet_layout, \
    open_session, run_request, session_weight
from .pool import WorkerError
from .requests import decode_request, encode_request
from .scheduler import DETERMINISTIC_POLICIES, SCHEDULERS
from .shm import HeartbeatSlot, attach_heartbeat_memory, \
    create_heartbeat_memory

#: Default seconds to wait for one worker's sync report before
#: declaring it wedged (each report is one queue message; a healthy
#: worker answers as soon as it reaches the sync marker).
SYNC_TIMEOUT = 120.0

#: Seconds between liveness checks while a sync waits for reports: a
#: worker process that died is reported this soon, not after the whole
#: ``sync_timeout``.
SYNC_POLL_S = 0.2


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to build its fleet slice."""

    worker_id: int
    #: ``(spec, label, slot)`` triples, in global fleet order.
    devices: tuple
    strategy: str
    shadow_cache: bool
    tracing: bool
    trace_limit: int | None
    op_latency_us: float
    word_latency_us: float
    #: Instrument stubs and collect spans in the worker.
    observe: bool
    #: Shared-memory heartbeat slot name (None: live telemetry off —
    #: the worker publishes nothing and observes no latencies).
    heartbeat_name: str | None = None


@dataclass
class ProcessSession:
    """Parent-side handle for one device owned by a worker process.

    The scheduling policy runs against these proxies exactly as it
    runs against :class:`~repro.engine.fleet.DeviceSession` objects in
    the thread backend — it only reads ``spec`` and ``weight``.
    ``completed`` is the worker-reported execution count (every request
    placed on the device, after a clean drain).
    """

    label: str
    spec: str
    slot: int
    worker: int
    #: Index into the owning worker's local session list.
    local_index: int
    weight: int = 1
    completed: int = 0
    #: ``fleet.submitted``, resolved when the fleet starts.
    submits: object = None


def _token_label(token) -> str:
    """Cheap human-readable name for a wire token (heartbeats only)."""
    if isinstance(token, tuple):
        return _token_label(token[1]) + "(...)"
    return token.rpartition(":")[2]


def _worker_main(config: _WorkerConfig, requests, results) -> None:
    """Worker process entry point: build the slice, serve the queue.

    Protocol (all messages tuples, first element the kind):

    * ``("req", local_index, token)`` — decode and execute.
    * ``("sync", sync_id)`` — reply ``("report", worker_id, sync_id,
      report)`` on ``results``; queue FIFO guarantees every earlier
      request is finished, so the report is a quiesced snapshot.
    * ``("stop",)`` — exit the loop.

    A failure *outside* request execution (a corrupt message, a bus
    mapping bug) is reported as ``("crash", worker_id, traceback)`` so
    the parent fails fast instead of timing out.
    """
    pulse_slot = None
    try:
        from .. import obs

        collector = None
        if config.observe:
            obs.enable()
            collector = obs.Collector()
        sessions = [
            open_session(spec, label, slot, strategy=config.strategy,
                         shadow_cache=config.shadow_cache,
                         tracing=config.tracing,
                         trace_limit=config.trace_limit,
                         op_latency_us=config.op_latency_us,
                         word_latency_us=config.word_latency_us,
                         collector=collector)
            for spec, label, slot in config.devices]

        name = f"pfleet-w{config.worker_id}"
        pulse = None
        if config.heartbeat_name is not None:
            from ..obs.live import WorkerPulse
            from ..obs.metrics import LATENCY_BUCKETS_US, Histogram

            pulse_slot = HeartbeatSlot(
                attach_heartbeat_memory(config.heartbeat_name))
            pulse = WorkerPulse(pulse_slot, name, "process")
            pulse.idle()  # visible before the first request arrives

        def fresh_latency() -> dict:
            """Per-spec histograms for the next sync's latency deltas."""
            if pulse is None:
                return {}
            by_spec = {session.spec: Histogram(
                "fleet.request_us", {}, LATENCY_BUCKETS_US)
                for session in sessions}
            for session in sessions:
                session.latency = by_spec[session.spec]
            return by_spec

        latency = fresh_latency()
        errors: list[tuple[str, str, str]] = []

        while True:
            message = requests.get()
            kind = message[0]
            if kind == "req":
                session, token = sessions[message[1]], message[2]
                label = None if pulse is None else _token_label(token)
                started = time.perf_counter()
                try:
                    run_request(session, decode_request(token), label,
                                started, pulse)
                except BaseException as exc:  # noqa: BLE001 - at drain
                    errors.append((f"{name}/{session.label}", repr(exc),
                                   traceback.format_exc()))
                continue
            if kind == "stop":
                return
            if kind == "sync":
                spans = []
                if collector is not None:
                    spans = collector.spans
                    collector.clear()
                report = {
                    "errors": list(errors),
                    "completed": {session.label: session.completed
                                  for session in sessions},
                    "sessions": [session.report()
                                 for session in sessions],
                    "spans": spans,
                    # Latency histograms observed since the last sync
                    # (deltas, so the parent's merge never double
                    # counts); empty without live telemetry.
                    "latency": {spec: histogram.snapshot()
                                for spec, histogram
                                in latency.items() if histogram.count},
                }
                errors.clear()
                latency = fresh_latency()
                results.put(("report", config.worker_id, message[1],
                             report))
                continue
            raise RuntimeError(f"unknown fleet message kind {kind!r}")
    except BaseException:  # noqa: BLE001 - the parent re-raises
        results.put(("crash", config.worker_id,
                     traceback.format_exc()))
    finally:
        if pulse_slot is not None:
            pulse_slot.close()


class ProcessFleet(MergedSessions):
    """N shipped devices sharded across worker processes.

    Drop-in for :class:`~repro.engine.fleet.Fleet` for every
    inspection surface the exactness harnesses use — ``submit``,
    ``run``, ``drain``, ``accounting``, ``accounting_by_device()``,
    ``device_states()``, ``completed()``, context management — with
    requests restricted to picklable module-level callables (or
    partials over them) and the policy restricted to the deterministic
    schedulers.

    ``workers`` is the number of *processes* (clamped to the device
    count: a device is owned by exactly one process).  ``mp_context``
    selects the start method (default: ``fork`` where the platform
    offers it — it inherits the parent's warm spec/model caches — else
    ``spawn``; spawn requires ``repro`` to be importable from the
    child, i.e. installed or on ``PYTHONPATH``).

    Telemetry: pass a :class:`repro.obs.Collector` (or enable
    :mod:`repro.obs` before construction) and every worker instruments
    its stubs, collects spans locally, and ships them back in its sync
    reports, where they are merged into :attr:`collector` with
    backend-agnostic metrics rollups.
    """

    backend = "process"

    def __init__(self, devices, strategy: str = "specialize",
                 policy: str = "round-robin", workers: int = 2,
                 queue_depth: int = 64, shadow_cache: bool = False,
                 tracing: bool = False, trace_limit: int | None = None,
                 op_latency_us: float = 0.0,
                 word_latency_us: float = 0.0,
                 weights: dict | None = None,
                 collector=None,
                 mp_context: str | None = None,
                 sync_timeout: float = SYNC_TIMEOUT,
                 telemetry=None):
        from .. import obs

        if not devices:
            raise ValueError("a fleet needs at least one device")
        if workers < 1:
            raise ValueError(f"need at least one worker (got {workers})")
        if policy not in SCHEDULERS:
            raise ValueError(
                f"unknown policy {policy!r} "
                f"(have: {', '.join(sorted(SCHEDULERS))})")
        if policy not in DETERMINISTIC_POLICIES:
            raise ValueError(
                f"policy {policy!r} is not deterministic at submit "
                f"time; the process backend requires one of: "
                f"{', '.join(DETERMINISTIC_POLICIES)}")
        # Resolve "auto" in the parent, once: workers receive the
        # decided strategy, so the compiler probe does not repeat per
        # worker and every shard binds the same way.
        strategy = resolve_strategy(strategy, shadow_cache=shadow_cache)
        if strategy == "native" and shadow_cache:
            # Raise here what the thread fleet's first bind raises,
            # instead of crashing every worker's bind.
            from ..devil.native.instance import reject_unsupported
            from ..specs import compile_shipped

            reject_unsupported(compile_shipped(devices[0]).model,
                               shadow_cache=True)
        self.strategy = strategy
        self.policy = policy
        self.workers = min(workers, len(devices))
        self.submitted = 0
        self._sync_timeout = sync_timeout
        self._dirty = False
        self._closed = False
        self._failures: list[tuple[str, object, str]] = []
        #: Workers whose process is gone: never synced or stopped again.
        self._lost: set[int] = set()
        self._sync_ids = itertools.count(1)
        self._reports: dict[int, dict] = {}

        observe = collector is not None or obs.is_enabled()
        self.collector = (collector or obs.Collector()) if observe \
            else None

        #: Live telemetry plane (``None`` = off; ``True`` builds one).
        if telemetry is True:
            from ..obs.live import FleetTelemetry

            telemetry = FleetTelemetry()
        self.telemetry = telemetry or None
        self._health = None
        self._heartbeat_slots: list[HeartbeatSlot] = []

        # Shard devices across workers; layout (labels, slots) is the
        # global one, shared with the thread backend.
        per_worker: list[list] = [[] for _ in range(self.workers)]
        self.sessions: list[ProcessSession] = []
        for index, (spec, label, slot) in \
                enumerate(fleet_layout(devices)):
            worker = index % self.workers
            self.sessions.append(ProcessSession(
                label=label, spec=spec, slot=slot, worker=worker,
                local_index=len(per_worker[worker]),
                weight=session_weight(weights, label, spec)))
            per_worker[worker].append((spec, label, slot))
        self.scheduler = SCHEDULERS[policy](self.sessions)
        if self.telemetry is not None:
            for session in self.sessions:
                session.submits, _ = self.telemetry.instruments(
                    session.spec, "process")

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(mp_context)
        self.mp_context = mp_context
        self._results = context.Queue()
        self._queues = []
        self._processes = []
        for worker_id in range(self.workers):
            heartbeat_name = None
            if self.telemetry is not None:
                slot = HeartbeatSlot(create_heartbeat_memory())
                self._heartbeat_slots.append(slot)
                self.telemetry.attach_reader(f"pfleet-w{worker_id}",
                                             slot)
                heartbeat_name = slot.memory.name
            config = _WorkerConfig(
                worker_id=worker_id,
                devices=tuple(per_worker[worker_id]),
                strategy=strategy, shadow_cache=shadow_cache,
                tracing=tracing, trace_limit=trace_limit,
                op_latency_us=op_latency_us,
                word_latency_us=word_latency_us,
                observe=observe,
                heartbeat_name=heartbeat_name)
            requests = context.Queue(maxsize=queue_depth)
            process = context.Process(
                target=_worker_main,
                args=(config, requests, self._results),
                name=f"pfleet-w{worker_id}", daemon=True)
            process.start()
            self._queues.append(requests)
            self._processes.append(process)

    # -- request flow ---------------------------------------------------

    def submit(self, spec: str, request) -> None:
        """Route one request and ship it to the owning worker process.

        The session is picked *here*, in the caller's process, by the
        deterministic policy — so placement is a pure function of
        submission order, byte-for-byte the same function the thread
        backend computes.  Blocks when the worker's queue is full
        (backpressure, exactly like the thread pool's bounded queue).
        """
        if self._closed:
            raise RuntimeError("fleet is shut down")
        token = encode_request(request)
        session = self.scheduler.acquire(spec)
        self.scheduler.release(session)
        if session.worker in self._lost:
            raise RuntimeError(
                f"pfleet-w{session.worker} (owner of {session.label}) "
                f"is dead; its shard cannot take requests")
        self._queues[session.worker].put(
            ("req", session.local_index, token))
        self.submitted += 1
        self._dirty = True
        if self.telemetry is not None:
            self.telemetry.note_submit(session, _token_label(token))

    def run(self, requests) -> int:
        """Submit every ``(spec, request)`` pair, then drain."""
        count = 0
        for spec, request in requests:
            self.submit(spec, request)
            count += 1
        self.drain()
        return count

    def drain(self) -> None:
        """Quiesce every worker and merge its report; re-raise errors."""
        if self._dirty or not self._reports:
            self._collect_reports()
        try:
            self._raise_failures()
        except WorkerError as exc:
            if self.telemetry is not None:
                self.telemetry.recorder.record("drain",
                                               error=repr(exc))
                self.telemetry.dump("drain-error")
            raise

    def _lose(self, worker_id: int, error: str, formatted: str) -> None:
        """Record a worker process as gone, with the reason."""
        name = f"pfleet-w{worker_id}"
        self._lost.add(worker_id)
        self._failures.append((name, RuntimeError(error), formatted))
        if self.telemetry is not None:
            self.telemetry.recorder.record("worker-error", worker=name,
                                           error=error)
            self.telemetry.dump(f"crash:{name}")

    def _collect_reports(self) -> None:
        sync_id = next(self._sync_ids)
        if self.telemetry is not None:
            self.telemetry.recorder.record("sync", sync_id=sync_id)
        pending = set(range(self.workers)) - self._lost
        for worker_id in pending:
            self._queues[worker_id].put(("sync", sync_id))
        deadline = time.monotonic() + self._sync_timeout
        while pending:
            try:
                message = self._results.get(timeout=SYNC_POLL_S)
            except queue_module.Empty:
                # A dead worker never answers: report it now rather
                # than after the whole sync timeout.
                for worker_id in sorted(pending):
                    process = self._processes[worker_id]
                    if not process.is_alive():
                        pending.discard(worker_id)
                        self._lose(
                            worker_id,
                            f"worker process exited with code "
                            f"{process.exitcode} before acknowledging "
                            f"sync", "")
                if pending and time.monotonic() >= deadline:
                    if self.telemetry is not None:
                        self.telemetry.recorder.record(
                            "worker-error", worker=None,
                            error="sync timeout", pending=len(pending))
                        self.telemetry.dump("sync-timeout")
                    raise WorkerError([(
                        ", ".join(f"pfleet-w{i}"
                                  for i in sorted(pending)),
                        RuntimeError(
                            f"no sync report within "
                            f"{self._sync_timeout}s"),
                        "")]) from None
                continue
            deadline = time.monotonic() + self._sync_timeout
            kind = message[0]
            if kind == "crash":
                _, worker_id, formatted = message
                pending.discard(worker_id)
                self._lose(worker_id, "worker process crashed",
                           formatted)
                continue
            _, worker_id, got_sync, report = message
            if got_sync != sync_id:
                continue  # stale report from an aborted earlier sync
            pending.discard(worker_id)
            self._reports[worker_id] = report
            self._failures.extend(report["errors"])
            if self.collector is not None and report["spans"]:
                self.collector.ingest(report["spans"])
            if self.telemetry is not None:
                for spec, snapshot in report["latency"].items():
                    self.telemetry.instruments(
                        spec, "process")[1].merge_snapshot(snapshot)
        for session in self.sessions:
            report = self._reports.get(session.worker)
            if report is not None:
                session.completed = \
                    report["completed"].get(session.label, 0)
        self._dirty = False
        if self.collector is not None:
            self.collector.record_trace_drops(
                sum(session.trace_dropped
                    for report in self._reports.values()
                    for session in report["sessions"]))

    def _raise_failures(self) -> None:
        if self._failures:
            failures, self._failures = self._failures, []
            raise WorkerError(failures)

    # -- lifecycle ------------------------------------------------------

    def shutdown(self) -> None:
        """Drain, stop every worker process, and join them."""
        if self._closed:
            return
        self._closed = True
        sync_error = None
        try:
            if self._dirty or not self._reports:
                self._collect_reports()
        except WorkerError as error:
            sync_error = error
        for worker_id, requests in enumerate(self._queues):
            if worker_id in self._lost:
                continue  # nobody reads it; a full queue would block
            try:
                requests.put(("stop",))
            except ValueError:  # queue already closed
                pass
        for process in self._processes:
            process.join(timeout=self._sync_timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for slot in self._heartbeat_slots:
            slot.close()
            slot.unlink()
        self._heartbeat_slots = []
        if self.telemetry is not None:
            self.telemetry.recorder.record("shutdown",
                                           submitted=self.submitted)
        if sync_error is not None:
            raise sync_error
        self._raise_failures()

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
            return
        # Error path: still stop the workers, but don't mask the
        # propagating exception with queued-work failures.
        try:
            self.shutdown()
        except WorkerError:
            pass

    # -- inspection (exact, post-drain) ---------------------------------

    def _sync(self) -> None:
        if self._dirty or not self._reports:
            self.drain()

    def _session_reports(self) -> list[SessionReport]:
        """Every worker's session reports, in global device order."""
        self._sync()
        return [self._reports[session.worker]["sessions"]
                [session.local_index] for session in self.sessions
                if session.worker in self._reports]

    @property
    def spans(self) -> list:
        """Merged spans (requires a collector; empty list otherwise)."""
        if self.collector is None:
            return []
        self._sync()
        return self.collector.spans

    def completed(self) -> int:
        self._sync()
        return sum(session.completed for session in self.sessions)

    def completed_by_device(self) -> dict[str, int]:
        self._sync()
        return {session.label: session.completed
                for session in self.sessions}

    # -- live telemetry plumbing ----------------------------------------

    def worker_liveness(self) -> dict[str, bool]:
        """``worker name -> is the process alive`` (health's "dead")."""
        return {f"pfleet-w{worker_id}": process.is_alive()
                for worker_id, process in enumerate(self._processes)}

    def queue_depths(self) -> dict[str, int | None]:
        """Request-queue depth per worker (approximate by nature;
        ``None`` where the platform's ``qsize`` is unimplemented)."""
        depths: dict[str, int | None] = {}
        for worker_id, requests in enumerate(self._queues):
            try:
                depths[f"pfleet-w{worker_id}"] = requests.qsize()
            except NotImplementedError:  # macOS
                depths[f"pfleet-w{worker_id}"] = None
        return depths

    def health_view(self, **kwargs):
        """The :class:`repro.obs.live.FleetHealth` view of this fleet.

        Built on first call (keyword arguments configure the stall
        detector then); later calls return the same instance so status
        transitions are tracked consistently.
        """
        if self._health is None:
            from ..obs.live import FleetHealth

            self._health = FleetHealth(self, **kwargs)
        return self._health
