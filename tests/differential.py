"""One differential harness for every execution strategy and backend.

The interpreter is the reference semantics; the specializer, the
generated module, the native C core and both fleet backends must agree
with it.  A *scenario* (a spec on one bus, or a fleet layout, and what
to run there) runs once in each *cell* of strategy × debug × shadow
cache × composition × transaction × spans × tracing × telemetry ×
backend (× policy, workers) through one routine, :func:`evidence`: the
results or the raised error, the trace, the accounting, the span
signatures, the public stub surface and the end state
(``Bus.state_snapshot()``, a fleet's ``device_states()``).
:func:`check` compares each cell with the interpreter's cell of the
scenario (:func:`reference`) and names the scenario, the cell and the
field that differ; a cell rejected by design must raise its
:data:`UNSUPPORTED` error.  A strategy or backend is one entry on an
axis (:data:`STRATEGIES`, :data:`FLEETS`).  The scenarios several test
modules share live here; each test lists the cells it runs them in,
and no two tests list the same cell of a scenario.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable

import pytest

from repro import obs
from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.errors import DevilRuntimeError
from repro.devil.native import native_available
from repro.devil.types import EnumType, IntSetType, IntType
from repro.engine import Fleet, ProcessFleet, mixed_schedule
from repro.obs.workloads import (
    TXN_WORKLOADS,
    WORKLOADS,
    build_machine,
    load_generated,
)
from repro.specs import SPEC_NAMES, compile_shipped

#: Execution strategies; ``native`` needs a C compiler and rejects the
#: shadow cache and transactions, which the others run.
PYTHON_STRATEGIES = ("interpret", "specialize", "generated")
STRATEGIES = PYTHON_STRATEGIES + (("native",) if native_available() else ())
needs_cc = pytest.mark.skipif(not native_available(),
                              reason="strategy='native' needs a C compiler "
                              "and Python.h")

#: Fleet backends, ``name -> (fleet class, default workers)``; every
#: fleet cell is compared with the one-worker ``serial`` fleet.
FLEETS = {"serial": (Fleet, 1), "thread": (Fleet, 4),
          "process": (ProcessFleet, 2)}

BOTH = (False, True)


@dataclass(frozen=True)
class Cell:
    """One point of the matrix.  ``txn`` runs the scenario's
    transactional variant, ``spans`` attaches a span collector,
    ``telemetry`` turns a fleet's live plane on, ``backend`` is ``bus``
    (one device on one bus) or a key of :data:`FLEETS`."""

    strategy: str = "interpret"
    debug: bool = False
    shadow_cache: bool = False
    composition: str = "cache"
    txn: bool = False
    spans: bool = False
    tracing: bool = True
    telemetry: bool = False
    backend: str = "bus"
    policy: str = "round-robin"
    workers: int | None = None

    def __str__(self) -> str:
        changed = [f"{name}={value}" for name, value in vars(self).items()
                   if name not in ("strategy", "backend")
                   and value != getattr(Cell, name)]
        return " ".join([self.strategy, self.backend, *changed])


def matrix(**axes) -> list[Cell]:
    """Every cell over ``axes`` (``name=values``); the other axes keep
    their defaults."""
    return [Cell(**dict(zip(axes, values)))
            for values in itertools.product(*axes.values())]


#: ``(predicate, error type, exact message)``: the first row whose
#: predicate holds is what the cell raises, at bind or fleet
#: construction or from the scenario's first ``txn()``.
UNSUPPORTED = (
    (lambda cell: cell.strategy == "native" and cell.composition
     != "cache", DevilRuntimeError, "strategy='native' supports only "
     "composition='cache' (got 'read-modify-write'); use "
     "interpret/specialize for the read-modify-write ablation"),
    (lambda cell: cell.strategy == "native" and cell.shadow_cache,
     DevilRuntimeError, "strategy='native' does not support "
     "shadow_cache=True; use strategy='specialize' for read elision"),
    (lambda cell: cell.strategy == "native" and cell.txn,
     DevilRuntimeError, "strategy='native' does not support "
     "transactions; bind strategy='specialize' (or 'interpret') for "
     "write coalescing"),
    (lambda cell: cell.backend == "process" and cell.policy
     == "least-loaded", ValueError, "policy 'least-loaded' is not "
     "deterministic at submit time; the process backend requires one "
     "of: round-robin, weighted-round-robin"),
)


@dataclass(frozen=True)
class Scenario:
    """``run`` and ``txn_run`` are the plain and transactional variants
    (either may be ``None``); ``expect(evidence, cell)`` is true of
    every interpreter cell.  A debug cell is compared with
    the interpreter's release cell (§3.2: debug checks are CPU-side
    only) unless ``debug_differs``, as for calls a debug build
    rejects."""

    name: str
    run: object
    txn_run: object = None
    expect: Callable | None = None
    debug_differs: bool = False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Machine(Scenario):
    """``spec`` (a shipped spec's name or Devil source) bound on one bus
    and driven by ``run(stubs, aux)``; ``build(tracing)`` returns
    ``(bus, aux, bases)``, by default the shipped spec's machine."""

    spec: str = ""
    build: Callable | None = None


@dataclass(frozen=True)
class FleetRun(Scenario):
    """``devices`` (spec names) serving ``run``, a tuple of ``(spec,
    request)``; ``weights`` are ``(label, weight)`` pairs."""

    devices: tuple = ()
    weights: tuple = ()


#: ``spec name -> scenario``: its workload on its machine (with a trace
#: and spans to compare), and on a fleet of two devices serving it six
#: times.
WORKLOAD = {name: Machine(name, WORKLOADS[name], TXN_WORKLOADS.get(name),
                          expect=lambda found, cell: found.trace != []
                          and found.spans != [], spec=name)
            for name in SPEC_NAMES}
FLEET = {name: FleetRun(f"{name} fleet", ((name, WORKLOADS[name]),) * 6,
                        devices=(name, name))
         for name in SPEC_NAMES}
MIXED = FleetRun("mixed fleet", tuple(mixed_schedule(6)),
                 devices=("ide", "permedia2", "ne2000"))


def call(stub: str, *args, **kwargs) -> Callable:
    """A ``run`` making one stub call."""
    return functools.partial(_call, stub, args, kwargs)


def _call(stub, args, kwargs, stubs, aux):
    return getattr(stubs, stub)(*args, **kwargs)


def in_turn(*runs) -> Callable:
    """A ``run`` making ``runs`` in turn on one machine; an outcome is
    what a run returned or, if it raised, :func:`raised`."""
    def run_in_turn(stubs, aux):
        outcomes = []
        for run in runs:
            try:
                outcomes.append(run(stubs, aux))
            except Exception as error:  # noqa: BLE001 - it is evidence
                outcomes.append(raised(error))
        return outcomes
    return run_in_turn


def raised(error) -> tuple:
    """``(type name, text)``; the generated module's own
    ``DevilStubError`` stands for the runtime's ``DevilRuntimeError``."""
    name = type(error).__name__
    return ("DevilRuntimeError" if name == "DevilStubError" else name,
            str(error))


def rejections(name: str, *made) -> Machine:
    """``(fragment, call(...))`` pairs (at least one) made in turn on
    spec ``name``'s machine: a debug build rejects each call with a
    message containing its fragment, before any port access."""
    fragments, runs = zip(*made)
    return Machine(f"{name} " + ", ".join(run.args[0] for run in runs),
                   in_turn(*runs), debug_differs=True, spec=name,
                   expect=lambda found, cell: not cell.debug or (
                       found.trace == [] and all(
                           isinstance(outcome, tuple) and fragment in
                           outcome[1] and outcome[0] == "DevilRuntimeError"
                           for fragment, outcome
                           in zip(fragments, found.results))))


@functools.cache
def error_scenario(name: str) -> Machine:
    """No-I/O error calls derived from the model, uniformly per spec:
    every writable variable gets a value its type rejects, and the
    first structure a member read before its fetch."""
    model = compiled(name).model
    made = []
    for variable in model.public_variables():
        if variable.memory or variable.structure is not None or not all(
                model.registers[c.register].writable
                for c in variable.chunks):
            continue
        var_type, stub = variable.type, f"set_{variable.name}"
        if isinstance(var_type, IntType):
            made.append(("outside range",
                         call(stub, var_type.maximum + 1)))
        elif isinstance(var_type, IntSetType):
            made.append(("is not a member",
                         call(stub, max(var_type.values) + 1)))
        elif isinstance(var_type, EnumType):
            made.append(("is not a symbol", call(stub, "__NOPE__")))
    for structure in model.structures.values():
        member = model.variables[structure.members[0]]
        if all(model.registers[c.register].readable
               for c in member.chunks):
            made.append(("was fetched", call(f"get_{member.name}")))
        break  # one structure-protocol case per spec is enough
    return rejections(name, *made)


_DAC = {"left_dac_attenuation": 9, "left_dac_mute": True}
MEMBER_ERRORS = rejections(
    "cs4236",
    ("must provide every member", call("set_left_dac_output", **_DAC)),
    ("unknown member(s)", call("set_left_dac_output", **_DAC,
                               left_dac_pad=False, bogus=1)))

#: ``ocw1`` while the PIC is still in initialization mode.
MODE_ERROR = rejections("pic8259", ("only addressable in mode",
                                    call("set_irq_mask", 0xFF)))


class Ram:
    """A plain device: a byte per port (``cells``, else ``size``
    zeros), no side effects."""

    def __init__(self, *cells, size: int = 8):
        self.cells = list(cells) or [0] * size

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value


def device_machine(device: Callable, base: int, size: int):
    """``build`` for a custom spec: ``device()`` alone at ``base``."""
    def build(tracing):
        bus, model = Bus(tracing=tracing), device()
        bus.map_device(base, size, model, "device")
        return bus, {"device": model}, {"base": base}
    return build


@dataclass
class Evidence:
    """What one cell observably did; ``None`` where the cell has no
    such observable (a trace untraced, spans without a collector, a
    raised error or a stub surface on a fleet)."""

    results: object
    error: BaseException | None
    trace: list | None
    accounting: object
    by_device: dict | None
    spans: list | None
    surface: tuple | None
    state: dict


@functools.lru_cache(maxsize=None)
def compiled(spec: str):
    return compile_shipped(spec) if spec in SPEC_NAMES \
        else compile_spec(spec)


@functools.lru_cache(maxsize=None)
def _module_class(spec: str, observe: bool):
    if spec in SPEC_NAMES:
        return load_generated(spec, observe=observe)
    namespace: dict = {}
    exec(compile(compiled(spec).emit_python(observe=observe),
                 "<generated>", "exec"), namespace)
    (cls,) = [value for key, value in namespace.items()
              if key.endswith("Stubs")]
    return cls


def bind(spec: str, bus, bases: dict, cell: Cell):
    """Bind ``spec`` on ``bus`` as ``cell`` asks; ``generated`` builds
    the class ``emit_python`` writes (its observe mode under spans)."""
    if cell.strategy != "generated":
        return compiled(spec).bind(
            bus, bases, debug=cell.debug, composition=cell.composition,
            strategy=cell.strategy, shadow_cache=cell.shadow_cache)
    if cell.composition != "cache":
        raise ValueError("the generated module composes as 'cache' only")
    observe = obs.is_enabled()
    hooks = {"observer": bus} if observe else {}
    return _module_class(spec, observe)(
        bus, *(bases[param] for param in compiled(spec).model.params),
        debug=cell.debug, shadow_cache=cell.shadow_cache, **hooks)


def evidence(scenario: Scenario, cell: Cell) -> Evidence:
    """Run ``scenario`` once in ``cell``.  An error the run raises is
    evidence; a binding or fleet error propagates."""
    run = scenario.txn_run if cell.txn else scenario.run
    if run is None:
        raise ValueError(f"{scenario} has no variant for [{cell}]")
    with (obs.observe(collector=obs.Collector()) if cell.spans
          else contextlib.nullcontext()) as collector:
        if cell.backend == "bus":
            return _on_bus(scenario, cell, run, collector)
        return _on_fleet(scenario, cell, run, collector)


def _on_bus(scenario: Machine, cell, run, collector) -> Evidence:
    bus, aux, bases = (scenario.build or functools.partial(
        build_machine, scenario.spec))(tracing=cell.tracing)
    bus.collector = collector
    stubs = bind(scenario.spec, bus, bases, cell)
    try:
        results, error = run(stubs, aux), None
    except Exception as caught:  # noqa: BLE001 - the error is evidence
        results, error = None, caught
    return Evidence(
        results, error, list(bus.trace) if cell.tracing else None,
        bus.accounting.snapshot(), None,
        collector.signatures() if collector else None,
        tuple(sorted(name for name in vars(stubs) if name.split("_", 1)[0]
                     in ("get", "set", "read", "write"))),
        bus.state_snapshot())


def _on_fleet(scenario: FleetRun, cell, schedule, collector) -> Evidence:
    if cell.debug or cell.composition != "cache":
        raise ValueError(f"fleets bind release stubs composing as "
                         f"'cache', not [{cell}]")
    fleet_class, workers = FLEETS[cell.backend]
    with fleet_class(list(scenario.devices), strategy=cell.strategy,
                     policy=cell.policy, workers=cell.workers or workers,
                     shadow_cache=cell.shadow_cache, tracing=cell.tracing,
                     weights=dict(scenario.weights) or None,
                     collector=collector,
                     telemetry=cell.telemetry or None) as fleet:
        fleet.run(schedule)
        return Evidence(
            fleet.completed_by_device(), None,
            fleet.trace if cell.tracing else None, fleet.accounting,
            fleet.accounting_by_device(),
            sorted(collector.signatures(), key=repr) if collector
            else None, None, fleet.device_states())


def reference(scenario: Scenario, cell: Cell) -> Cell:
    """The interpreter's cell ``cell`` is compared with."""
    return replace(cell, strategy="interpret",
                   backend="bus" if cell.backend == "bus" else "serial",
                   debug=cell.debug and scenario.debug_differs,
                   telemetry=False, workers=None)


@functools.lru_cache(maxsize=512)
def _reference_evidence(scenario: Scenario, cell: Cell) -> Evidence:
    found = evidence(scenario, cell)
    assert scenario.expect is None or scenario.expect(found, cell), \
        f"the interpreter's {scenario} [{cell}] fails its expectation"
    return found


def check(scenario: Scenario, cells) -> None:
    """Run ``scenario`` in each of ``cells``: a rejected cell must raise
    its :data:`UNSUPPORTED` error, any other must agree field for field
    with its :func:`reference`."""
    for cell in cells:
        rejection = next((row for row in UNSUPPORTED if row[0](cell)), None)
        if rejection is not None:
            _check_rejected(scenario, cell, *rejection[1:])
            continue
        base = reference(scenario, cell)
        want = _reference_evidence(scenario, base)
        if cell != base:
            _compare(scenario, cell, evidence(scenario, cell), base, want)


def _check_rejected(scenario, cell, error_type, message) -> None:
    try:
        error = evidence(scenario, cell).error
    except Exception as caught:  # noqa: BLE001 - compared below
        error = caught
    assert type(error) is error_type and \
        getattr(error, "message", str(error)) == message, \
        f"{scenario} [{cell}] must raise {error_type.__name__}: " \
        f"{message}\n  got {error!r}"


def _compare(scenario, cell, got: Evidence, base: Cell,
             want: Evidence) -> None:
    for field in fields(Evidence):
        mine, theirs = getattr(got, field.name), getattr(want, field.name)
        if field.name == "error":
            mine, theirs = (error and raised(error)
                            for error in (mine, theirs))
        if mine == theirs:
            continue
        where = f":\n  got  {mine!r}\n  want {theirs!r}"
        if isinstance(mine, list) and isinstance(theirs, list):
            at = next((index for index, pair
                       in enumerate(zip(mine, theirs))
                       if pair[0] != pair[1]), min(len(mine), len(theirs)))
            where = (f" at entry {at} of {len(mine)} ({len(theirs)}):"
                     f"\n  got  {mine[at:at + 1]}\n  want {theirs[at:at + 1]}")
        elif isinstance(mine, dict) and isinstance(theirs, dict):
            where = " on " + str(sorted(key for key in mine.keys() | theirs
                                        if mine.get(key) != theirs.get(key)))
        raise AssertionError(f"{scenario} [{cell}]: {field.name} differs "
                             f"from the interpreter's [{base}]{where}")
