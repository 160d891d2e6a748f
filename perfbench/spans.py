"""In-memory spans around calls into the program's layers.

Only the traced run uses this module.  :meth:`Tracer.wrap` returns a
wrapper that records one span per call — name, start, end, parent span,
op id — and accumulates self time (duration minus the time covered by
child spans) per span name.  Only spans inside a root span (one op of
the workload) count; calls between ops, such as set-up, pass through.
Spans nest per thread; the fleet's worker threads each keep their own
stack and totals, merged at the end.
Spans stay in memory and are written as Chrome-trace JSON when the run
ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

#: Spans kept for the Chrome trace; later spans still count in the
#: totals but are not stored (a traced drivers run makes millions).
KEEP_SPANS = 100_000


class _ThreadState:
    __slots__ = ("stack", "self_time", "total", "calls", "counts", "op",
                 "ident", "dropped")

    def __init__(self):
        self.stack: list[list] = []
        self.self_time: dict[str, float] = {}
        self.total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.op = 0
        self.ident = threading.get_ident()
        self.dropped = 0


class Tracer:
    """Span recorder shared by every thread of one traced run."""

    def __init__(self, roots):
        #: Span names that open an op; other spans need an open parent.
        self.roots = frozenset(roots)
        self.clock = time.perf_counter
        #: ``(id, parent id or 0, name, start, end, op id, thread)``.
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def set_op(self, op: int) -> None:
        """Tag the calling thread's next spans with op id ``op``."""
        self._state().op = op

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """``fn`` with one ``name`` span per call.

        ``count(result)``, when given, adds to the ``name`` counter.
        """
        clock = self.clock
        state_of = self._state
        ids = self._ids
        spans = self.spans
        root = name in self.roots

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if not stack and not root:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self_time = state.self_time
                self_time[name] = self_time.get(name, 0.0) + \
                    duration - frame[1]
                total = state.total
                total[name] = total.get(name, 0.0) + duration
                calls = state.calls
                calls[name] = calls.get(name, 0) + 1
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[0],
                                  parent[0] if parent is not None else 0,
                                  name, start, end, state.op,
                                  state.ident))
                else:
                    state.dropped += 1
            if count is not None:
                counts = state.counts
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, count=None):
        """Replace ``owner.attribute`` with its traced wrapper."""
        setattr(owner, attribute,
                self.wrap(name, getattr(owner, attribute), count))

    def reset(self) -> None:
        """Forget every span and total so far (call while quiesced)."""
        with self._states_lock:
            for state in self._states:
                for table in (state.self_time, state.total, state.calls,
                              state.counts):
                    table.clear()
                state.dropped = 0
        self.spans.clear()

    # -- totals ---------------------------------------------------------

    def _merged(self, field: str) -> dict:
        merged: dict = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in getattr(state, field).items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def self_times(self) -> dict[str, float]:
        return self._merged("self_time")

    def totals(self) -> dict[str, float]:
        return self._merged("total")

    def calls(self) -> dict[str, int]:
        return self._merged("calls")

    def counts(self) -> dict[str, int]:
        return self._merged("counts")

    def dropped(self) -> int:
        with self._states_lock:
            return sum(state.dropped for state in self._states)

    def write_chrome(self, path, origin: float) -> None:
        """Write the kept spans as Chrome-trace complete events."""
        events = [{"name": name, "ph": "X", "pid": 1, "tid": thread,
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6,
                   "args": {"id": span_id, "parent": parent, "op": op}}
                  for span_id, parent, name, start, end, op, thread
                  in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"dropped_spans": self.dropped()}},
                      handle)
