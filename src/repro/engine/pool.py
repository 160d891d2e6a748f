"""Bounded worker pool for the fleet engine.

A :class:`WorkerPool` owns N daemon threads pulling work items from a
bounded :class:`queue.Queue`.  The bounded queue is the backpressure
mechanism: a producer calling :meth:`submit` blocks once
``queue_depth`` items are in flight, so an arbitrarily fast request
generator cannot outrun the workers and balloon memory.

Work items are plain callables unless a ``runner`` factory says how
to run them (the fleet's name a device session).  Worker exceptions
are captured — not swallowed — and re-raised in the submitting thread
at :meth:`drain`/:meth:`shutdown`, so a failing request fails the run
loudly instead of silently dropping throughput.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Callable

#: Queue sentinel telling a worker thread to exit.
_STOP = object()


def _calls(worker: str) -> Callable[[Callable[[], None]], None]:
    """The default runner factory: every item is called as is."""
    return lambda item: item()


class WorkerError(RuntimeError):
    """One or more fleet workers raised; carries the formatted causes.

    Shared by both backends: thread-pool failures carry the live
    exception object, process-backend failures (which crossed a pickle
    boundary) carry its ``repr`` string — either way ``failures`` is a
    list of ``(worker name, exception-or-repr, formatted traceback)``.
    """

    def __init__(self, failures: list[tuple[str, BaseException, str]]):
        self.failures = failures
        lines = [f"{len(failures)} fleet worker failure(s):"]
        for worker, exc, tb in failures:
            lines.append(f"--- {worker}: {exc!r}\n{tb}")
        super().__init__("\n".join(lines))


class WorkerPool:
    """N worker threads draining a bounded queue of work items; each
    thread runs its items with ``runner(thread name)``, built as it
    starts."""

    def __init__(self, workers: int, queue_depth: int = 64,
                 name: str = "fleet",
                 runner: Callable[[str], Callable] = _calls):
        if workers < 1:
            raise ValueError(f"need at least one worker (got {workers})")
        if queue_depth < 1:
            raise ValueError(
                f"queue depth must be positive (got {queue_depth})")
        self.workers = workers
        self._queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        self._failures: list[tuple[str, BaseException, str]] = []
        self._failure_lock = threading.Lock()
        self._closed = False
        self._runner = runner
        self._threads = [
            threading.Thread(target=self._run, name=f"{name}-w{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- worker side ----------------------------------------------------

    def _run(self) -> None:
        run = self._runner(threading.current_thread().name)
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            try:
                run(item)
            except BaseException as exc:  # noqa: BLE001 - reported at drain
                with self._failure_lock:
                    self._failures.append(
                        (threading.current_thread().name, exc,
                         traceback.format_exc()))
            finally:
                self._queue.task_done()

    # -- producer side --------------------------------------------------

    def submit(self, item) -> None:
        """Enqueue ``item``; blocks when the queue is full (backpressure)."""
        if self._closed:
            raise RuntimeError("pool is shut down")
        self._queue.put(item)

    def drain(self) -> None:
        """Block until every submitted item has been processed.

        Re-raises collected worker failures as one :class:`WorkerError`.
        """
        self._queue.join()
        self._raise_failures()

    def shutdown(self) -> None:
        """Drain, stop every worker thread, and join them."""
        if self._closed:
            return
        self._closed = True
        self._queue.join()
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        self._raise_failures()

    def _raise_failures(self) -> None:
        with self._failure_lock:
            failures, self._failures = self._failures, []
        if failures:
            raise WorkerError(failures)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "WorkerPool":
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
