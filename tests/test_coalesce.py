"""Shadow-cache and coalescing parity tests (§4.3, Tables 2-4).

The central invariant of the shadow-cache/transaction work: the
interpreter, the bind-time specializer and the generated stub module
share one static :class:`~repro.devil.plan.AccessPlan` and must
therefore agree *exactly* on which reads are elided, which writes
coalesce, and what the device sees on the wire (the native core
rejects the shadow cache and transactions by design).  These tests pin
the plan classification and the elision/invalidation semantics, and
run every shipped spec and the transactional workload variants in the
shadow-cache cells of the differential harness
(``tests/differential.py``).
"""

import functools
import json
import pathlib

import pytest

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.plan import access_plan
from repro.obs.workloads import (
    TXN_WORKLOADS,
    WORKLOADS,
    run_txn_workload,
    run_workload,
)
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec
from tests.differential import (
    BOTH,
    PYTHON_STRATEGIES,
    STRATEGIES,
    WORKLOAD,
    Cell,
    Machine,
    Ram,
    check,
    device_machine,
    evidence,
    matrix,
)


# ---------------------------------------------------------------------------
# Static access-plan classification
# ---------------------------------------------------------------------------


class TestAccessPlan:
    def test_ide_classification(self):
        plan = access_plan(shipped_spec("ide").model)
        assert plan["status_reg"].classification == "volatile"
        assert not plan["status_reg"].read_elidable
        assert plan["command_reg"].classification == "trigger"
        assert plan["command_reg"].write_barrier
        assert not plan["command_reg"].read_barrier
        assert plan["data_reg"].classification == "trigger"
        assert plan["data_reg"].read_barrier
        assert plan["device_reg"].classification == "cacheable"
        assert plan["device_reg"].read_elidable
        assert plan["nsect_reg"].read_elidable

    def test_write_only_register_is_cacheable_but_not_elidable(self):
        plan = access_plan(shipped_spec("ide").model)
        devctl = plan["devctl_reg"] if "devctl_reg" in plan.registers \
            else plan["features_reg"]
        assert devctl.classification == "cacheable"
        assert not devctl.read_elidable  # write-only: nothing to elide

    def test_busmouse_classification(self):
        plan = access_plan(shipped_spec("busmouse").model)
        assert plan["sig_reg"].classification == "trigger"
        for name in ("x_low", "x_high", "y_low", "y_high"):
            assert plan[name].classification == "volatile"

    def test_permedia2_has_no_elidable_reads(self):
        """Every readable Permedia2 register is volatile: coalescing
        applies, elision never does."""
        plan = access_plan(shipped_spec("permedia2").model)
        assert plan.elidable_registers() == []

    def test_variable_elidable_excludes_memory_and_members(self):
        model = shipped_spec("busmouse").model
        plan = access_plan(model)
        for variable in model.variables.values():
            if variable.memory or variable.structure is not None:
                assert not plan.variable_elidable(variable)

    def test_every_strategy_consumes_the_same_plan(self):
        for name in SPEC_NAMES:
            model = shipped_spec(name).model
            assert access_plan(model) is access_plan(model)


# ---------------------------------------------------------------------------
# Elision and invalidation semantics (one mini machine, three strategies)
# ---------------------------------------------------------------------------


MINI = """
device d (base : bit[8] port @ {0..2}) {
    register r = base @ 0 : bit[8];
    variable plain = r : int(8);
    register s = base @ 1 : bit[8];
    variable moody = s, volatile : int(8);
    register t = base @ 2 : bit[8];
    variable go = t, write trigger : int(8);
}
"""


MINI_RAM = functools.partial(Ram, 0x11, 0x22, 0x33, 0x44)


def _twice(stubs, aux):
    return [stubs.get_plain(), stubs.get_plain()]


def _write_then_read(stubs, aux):
    stubs.set_plain(0x5A)
    return stubs.get_plain()


def _volatile_thrice(stubs, aux):
    return [stubs.get_moody() for _ in range(3)]


def _trigger_between(stubs, aux):
    stubs.get_plain()
    stubs.set_go(1)        # write-trigger: barrier
    return stubs.get_plain()


def _invalidate_between(stubs, aux):
    stubs.get_plain()
    stubs.invalidate_caches()
    return stubs.get_plain()


def _elision(drive, results, cache_off, cache_on) -> Machine:
    """``drive`` on the mini machine returns ``results`` and accounts
    the ``(reads, writes, elided reads)`` of ``cache_off``/``cache_on``."""
    return Machine(
        f"mini {drive.__name__}", drive, spec=MINI,
        build=device_machine(MINI_RAM, 0x10, 4),
        expect=lambda found, cell: found.results == results and (
            found.accounting.reads, found.accounting.writes,
            found.accounting.elided_reads)
        == (cache_on if cell.shadow_cache else cache_off))


TWICE = _elision(_twice, [0x11, 0x11], (2, 0, 0), (1, 0, 1))
WRITE_THEN_READ = _elision(_write_then_read, 0x5A, (1, 1, 0), (0, 1, 1))
VOLATILE = _elision(_volatile_thrice, [0x22] * 3, (3, 0, 0), (3, 0, 0))
TRIGGER = _elision(_trigger_between, 0x11, (2, 1, 0), (2, 1, 0))
INVALIDATE = _elision(_invalidate_between, 0x11, (2, 0, 0), (2, 0, 0))


class TestElision:
    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_second_read_is_elided(self, strategy):
        check(TWICE, [Cell(strategy, shadow_cache=True)])

    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_write_keeps_shadow_valid(self, strategy):
        check(WRITE_THEN_READ, [Cell(strategy, shadow_cache=True)])

    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_volatile_is_never_elided(self, strategy):
        check(VOLATILE, [Cell(strategy, shadow_cache=True)])

    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_trigger_write_invalidates_everything(self, strategy):
        check(TRIGGER, [Cell(strategy, shadow_cache=True)])

    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_invalidate_caches_drops_shadows(self, strategy):
        check(INVALIDATE, [Cell(strategy, shadow_cache=True)])

    @pytest.mark.parametrize("strategy", STRATEGIES[:2])
    def test_shadow_cache_off_by_default(self, strategy):
        check(TWICE, [Cell(strategy)])

    def test_rmw_composition_disables_shadow_cache(self):
        spec = compile_spec(MINI)
        bus = Bus()
        bus.map_device(0x10, 4, MINI_RAM())
        device = spec.bind(bus, {"base": 0x10},
                           composition="read-modify-write",
                           shadow_cache=True)
        assert not device.shadow_cache

    def test_elided_read_still_mode_checked(self):
        """Debug-mode protocol checks run even when the bus is not
        touched: elision must not weaken §3.2 checking."""
        check(TWICE, [Cell(debug=True, shadow_cache=True)])

    def test_block_transfer_is_a_barrier(self):
        check(BURST, matrix(strategy=PYTHON_STRATEGIES, shadow_cache=(True,)))


def _burst_between(stubs, aux):
    stubs.get_plain()
    stubs.read_burst_block(2)
    return stubs.get_plain()


BURST = Machine("a block read between two reads", _burst_between, spec="""
device d (base : bit[8] port @ {0..1}) {
    register r = base @ 0 : bit[8];
    variable plain = r : int(8);
    register b = base @ 1 : bit[8];
    variable burst = b, trigger, volatile, block : int(8);
}
""", build=device_machine(MINI_RAM, 0x10, 4),
                expect=lambda found, cell: found.accounting.elided_reads == 0)


class TestGeneratedElision:
    """The generated stub module mirrors the interpreter's elision."""

    def test_second_read_is_elided(self):
        check(TWICE, [Cell("generated", shadow_cache=True)])

    def test_trigger_write_invalidates(self):
        check(TRIGGER, [Cell("generated", shadow_cache=True)])

    def test_off_by_default(self):
        check(TWICE, [Cell("generated")])


# ---------------------------------------------------------------------------
# Transactional barriers
# ---------------------------------------------------------------------------


class TestTransactionBarriers:
    def test_trigger_rewrite_flushes_first(self, nic_machine):
        """Two writes to a write-trigger variable in one transaction
        must reach the device as two command writes — a trigger is an
        unrepeatable side effect and cannot be last-write-wins."""
        bus, nic, device = nic_machine
        before = bus.accounting.snapshot()
        with device.txn():
            device.set_rd("REMOTE_WRITE")
            device.set_rd("REMOTE_READ")
        delta = bus.accounting.delta(before)
        assert delta.writes == 2

    def test_read_inside_txn_flushes_pending(self, ide_machine):
        bus, device = ide_machine[0], ide_machine[4]
        before = bus.accounting.snapshot()
        with device.txn():
            device.set_sector_count(7)
            assert device.get_sector_count() == 7  # flushed, then read
        delta = bus.accounting.delta(before)
        assert delta.writes == 1

    def test_txn_alias(self, ide_machine):
        device = ide_machine[4]
        with device.txn():
            device.set_sector_count(3)
        assert device.get_sector_count() == 3


# ---------------------------------------------------------------------------
# Full parity: every spec, every strategy, shadow on/off, debug on/off
# ---------------------------------------------------------------------------


class TestThreeWayParity:
    @pytest.mark.parametrize("shadow", [False, True],
                             ids=["plain", "shadow"])
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_workload_parity(self, name, debug, shadow):
        """Cache on with a trace, where the elided reads show; cache off
        on an untraced bus (its traced cells are ``test_specialize``'s)."""
        check(WORKLOAD[name], matrix(strategy=PYTHON_STRATEGIES,
                                     debug=(debug,), shadow_cache=(shadow,),
                                     tracing=(shadow,)))

    @pytest.mark.parametrize("shadow", [False, True],
                             ids=["plain", "shadow"])
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    @pytest.mark.parametrize("name", sorted(TXN_WORKLOADS))
    def test_txn_workload_parity(self, name, debug, shadow):
        check(WORKLOAD[name], matrix(strategy=PYTHON_STRATEGIES,
                                     debug=(debug,), shadow_cache=(shadow,),
                                     txn=(True,)))

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_shadow_cache_only_removes_reads(self, name):
        """Cache on vs off: identical workload results; the cached run
        never performs *more* operations, and every saved operation is
        accounted as an elided read."""
        off = run_workload(name, "interpret", shadow_cache=False)
        on = run_workload(name, "interpret", shadow_cache=True)
        assert on[0] == off[0]  # results identical
        off_acc, on_acc = off[2], on[2]
        # Writes may only *decrease* (an elided indexed-register read
        # skips its ``pre {index = ...}`` write too, cs4236-style).
        assert on_acc.writes <= off_acc.writes
        assert on_acc.block_ops == off_acc.block_ops
        assert on_acc.reads + on_acc.elided_reads == off_acc.reads

    def test_cs4236_elision_skips_index_preamble(self):
        """An elided read of an index-paged codec register also elides
        the ``pre {index = N}`` page-select write: hand-written cached
        code would not touch the device at all, and neither do we."""
        off = run_workload("cs4236", "interpret", shadow_cache=False)
        on = run_workload("cs4236", "interpret", shadow_cache=True)
        assert on[2].elided_reads > 0
        assert on[2].writes < off[2].writes

    @pytest.mark.parametrize("name", sorted(TXN_WORKLOADS))
    def test_final_device_state_matches_cache_off(self, name):
        """The wire-visible outcome (simulated device model state) is
        unchanged by elision and coalescing."""
        on, off = (evidence(WORKLOAD[name], Cell(txn=True,
                                                  shadow_cache=shadow))
                   for shadow in BOTH)
        assert on.state == off.state


# ---------------------------------------------------------------------------
# Golden port-I/O counts (the CI regression gate, mirrored as a test)
# ---------------------------------------------------------------------------


GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "results" / "io_golden.json"
COUNTERS = ("total_ops", "reads", "writes", "block_ops",
            "elided_reads", "coalesced_writes")


class TestGoldenCounts:
    """Every workload's port-I/O profile is pinned in
    ``results/io_golden.json``; a one-operation drift in any stub is a
    failure (re-bless with ``benchmarks/check_io_golden.py --write``)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("shadow", [False, True],
                             ids=["plain", "shadow"])
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_workload_counts(self, golden, name, shadow):
        expected = golden["workloads"][name][
            "shadow" if shadow else "plain"]
        accounting = run_workload(name, "interpret",
                                  shadow_cache=shadow)[2]
        actual = {c: getattr(accounting, c) for c in COUNTERS}
        assert actual == expected

    @pytest.mark.parametrize("shadow", [False, True],
                             ids=["plain", "shadow"])
    @pytest.mark.parametrize("name", sorted(TXN_WORKLOADS))
    def test_txn_workload_counts(self, golden, name, shadow):
        expected = golden["txn_workloads"][name][
            "shadow" if shadow else "plain"]
        accounting = run_txn_workload(name, "interpret",
                                      shadow_cache=shadow)[2]
        actual = {c: getattr(accounting, c) for c in COUNTERS}
        assert actual == expected

    def test_golden_covers_every_workload(self, golden):
        assert sorted(golden["workloads"]) == sorted(WORKLOADS)
        assert sorted(golden["txn_workloads"]) == sorted(TXN_WORKLOADS)

