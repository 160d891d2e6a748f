"""Shared plumbing of the workloads: outcomes, setup steps, expectations."""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: The recorded default seed and the seed held out for validating
#: later performance claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Tracebacks echoed to stderr per run before further ones are counted.
MAX_LOGGED_ERRORS = 3


class Intervals:
    """``(start, end)`` pairs in float buffers allocated up front.

    The buffers never grow, so the process's peak RSS does not depend
    on how many ops a run finishes; :meth:`room` tells a workload when
    to end its timed phase early.
    """

    def __init__(self, capacity: int):
        self.starts = array("d", [0.0]) * capacity
        self.ends = array("d", [0.0]) * capacity
        self.count = 0

    def append(self, start: float, end: float) -> None:
        index = self.count
        self.starts[index] = start
        self.ends[index] = end
        self.count = index + 1

    def room(self) -> int:
        return len(self.starts) - self.count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return zip(self.starts[:self.count], self.ends[:self.count])


class Outcome:
    """What one timed phase did, on the raw clock."""

    def __init__(self, max_ops: int, max_busy: int = 0):
        #: ``(start, end)`` of every attempted op's latency.
        self.latencies = Intervals(max_ops)
        #: Intervals whose scaled sum is the phase time; by default the
        #: ops' own, for serial workloads.
        self.busy = Intervals(max_busy) if max_busy else self.latencies
        self.failed = 0
        #: End-of-run output checks, ``name -> passed``.
        self.checks: dict = {}
        #: Per-layer values the workload measured itself.
        self.layer: dict = {}
        #: What the run observed, for the result file and ``bless.py``.
        self.info: dict = {}
        self.errors = 0

    def error(self, text: str) -> None:
        self.errors += 1
        if self.errors <= MAX_LOGGED_ERRORS:
            print(text, file=sys.stderr)


@dataclass
class Context:
    host: object
    seed: int
    seconds: float
    tracer: object
    workdir: Path


class SetupSteps:
    """Times setup steps with a kernel sample between each two."""

    def __init__(self, host):
        self.host = host
        #: ``(name, start, end)`` on the raw clock.
        self.steps: list[tuple[str, float, float]] = []

    def run(self, name: str, fn) -> None:
        clock = self.host.clock
        start = clock()
        fn()
        end = clock()
        self.steps.append((name, start, end))
        self.host.sample()

    def report(self) -> dict:
        """``name -> (raw s, scaled s)``; call after the run's samples."""
        return {name: (end - start, self.host.scale(start, end))
                for name, start, end in self.steps}


def load_expected(workload: str) -> dict:
    """The committed expectations; empty before the first ``bless.py``."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest(value) -> str:
    """Short stable digest of a JSON-able value or of raw bytes."""
    if not isinstance(value, (bytes, bytearray, memoryview)):
        value = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def accounting_dict(accounting) -> dict:
    """``IoAccounting`` as a canonical JSON-able dict."""
    return {
        "reads": accounting.reads,
        "writes": accounting.writes,
        "block_ops": accounting.block_ops,
        "block_words": accounting.block_words,
        "single_by_width": {str(width): count for width, count
                            in sorted(accounting.single_by_width.items())
                            if count},
        "block_words_by_width": {
            str(width): words for width, words
            in sorted(accounting.block_words_by_width.items()) if words},
        "elided_reads": accounting.elided_reads,
        "coalesced_writes": accounting.coalesced_writes,
    }


def scaled_accounting(per_unit: dict, times: int) -> dict:
    """``per_unit`` accounting multiplied by ``times``."""
    return {key: ({width: count * times for width, count in value.items()}
                  if isinstance(value, dict) else value * times)
            for key, value in per_unit.items()}
