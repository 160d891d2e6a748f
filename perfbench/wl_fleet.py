"""``fleet``: the thread ``Fleet`` serving the canonical mixed requests.

The CLI default backend with specializer stubs: 2 workers, 2 devices
each of ide, permedia2 and ne2000, round-robin placement, and a closed
loop of 4 outstanding requests from one producer thread.  Requests take
about 0.2 ms, so the pool, the scheduler, the session locks and the
``ThreadSafeBus`` locking are a large share of each one; the bus and
device layers run concurrently and under a different stub strategy
than in ``drivers``.

The seed picks the request order of every round (equal counts per
spec, so round-robin spreads them evenly); a round ends with a drain.
Fresh orders each round keep one order's queueing pattern from setting
the latency percentiles.  The canonical requests are idempotent on
device state, so every round's results and accounting are the same.
"""

from __future__ import annotations

import random
import threading
import traceback

from common import (Outcome, accounting_dict, digest, load_expected,
                    scaled_accounting)

DEVICES = ("ide", "ide", "permedia2", "permedia2", "ne2000", "ne2000")
WORKERS = 2
OUTSTANDING = 4
PER_SPEC = 32
ROUND = PER_SPEC * len(set(DEVICES))
#: Rounds whose device states are committed; a run does at least these.
#: Device models count their traffic, so later states differ by round.
CHECKED_ROUNDS = 2
#: Latency slots allocated before the timed phase (see ``Intervals``);
#: a round starts only while the whole round fits.
MAX_OPS = 262144


def round_orders(seed: int):
    """Endless seeded request orders, one per round."""
    rng = random.Random(seed)
    order = [spec for spec in sorted(set(DEVICES)) for _ in range(PER_SPEC)]
    while True:
        rng.shuffle(order)
        yield list(order)


class FleetWorkload:
    name = "fleet"
    #: Spans that open one op in the traced run.
    roots = ("engine.submit", "engine.session")

    def setup(self, steps, tracer) -> None:
        steps.run("import", self._import)
        if tracer is not None:
            self._instrument_classes(tracer)
        steps.run("compile", self._compile)
        steps.run("bind", self._bind)
        if tracer is not None:
            self._instrument_instances(tracer)

    def _import(self) -> None:
        from repro.bus import ThreadSafeBus
        from repro.devices.ide import IdeControlPort, IdeDiskModel
        from repro.devices.ne2000 import (Ne2000DataPort, Ne2000Model,
                                          Ne2000ResetPort)
        from repro.devices.permedia2 import (Permedia2Aperture,
                                             Permedia2Model)
        from repro.engine import MIXED_REQUESTS, Fleet
        from repro.specs import compile_shipped

        self.Fleet = Fleet
        self.requests = MIXED_REQUESTS
        self.compile_shipped = compile_shipped
        self.bus_class = ThreadSafeBus
        self.device_classes = (IdeDiskModel, IdeControlPort, Permedia2Model,
                               Permedia2Aperture, Ne2000Model,
                               Ne2000DataPort, Ne2000ResetPort)

    def _compile(self) -> None:
        for name in sorted(set(DEVICES)):
            self.compile_shipped(name)

    def _bind(self) -> None:
        self.fleet = self.Fleet(list(DEVICES), strategy="specialize",
                                policy="round-robin", workers=WORKERS)

    def close(self) -> None:
        self.fleet.shutdown()

    # -- tracing --------------------------------------------------------

    def _instrument_classes(self, tracer) -> None:
        # Before binding: specialized stubs capture the bus methods.
        for method in ("read", "write", "block_read", "block_write"):
            tracer.patch(self.bus_class, method, "bus.ts")
        for cls in self.device_classes:
            tracer.patch(cls, "io_read", "devices.io")
            tracer.patch(cls, "io_write", "devices.io")

    def _instrument_instances(self, tracer) -> None:
        self.worker_start = threading.local()
        clock = tracer.clock
        for session in self.fleet.sessions:
            for attribute in list(vars(session.stubs)):
                if attribute.startswith(("get_", "set_", "read_",
                                         "write_")):
                    tracer.patch(session.stubs, attribute,
                                 "devil.specialize")
            execute = session.execute

            def started(request, execute=execute):
                self.worker_start.at = clock()
                return execute(request)

            session.execute = tracer.wrap("engine.session", started)
        tracer.patch(self.fleet, "submit", "engine.submit")

    # -- requests -------------------------------------------------------

    def prepare(self, ctx) -> None:
        self.orders = round_orders(ctx.seed)
        self.slots = threading.BoundedSemaphore(OUTSTANDING)
        #: Per request of the current round: ``(worker start, body
        #: start, body end, result, error)``.
        self.records = [None] * ROUND
        self.op_base = 0
        self.clock, self.tracer = ctx.host.clock, ctx.tracer
        self.bodies_of = dict(self.requests)
        if ctx.tracer is not None:
            for spec, request in self.requests.items():
                self.bodies_of[spec] = ctx.tracer.wrap("engine.exec",
                                                       request)

    def _bodies(self, order: list[str]) -> list:
        return [self._body(index, self.bodies_of[spec])
                for index, spec in enumerate(order)]

    def _body(self, index, request):
        records, slots, clock, tracer = (self.records, self.slots,
                                         self.clock, self.tracer)
        worker_start = self.worker_start if tracer is not None else None

        def body(stubs, aux):
            if tracer is not None:
                tracer.set_op(self.op_base + index + 1)
            began = clock()
            try:
                result, error = request(stubs, aux), None
            except Exception:                   # counted, run goes on
                result, error = None, traceback.format_exc()
            ended = clock()
            records[index] = (worker_start.at if worker_start else began,
                              began, ended, result, error)
            slots.release()
            return result

        return body

    def run(self, ctx) -> Outcome:
        host, clock, tracer = ctx.host, ctx.host.clock, ctx.tracer
        fleet, slots, records = self.fleet, self.slots, self.records
        expected = load_expected("fleet")
        results = expected.get("results", {})
        submitted = [0.0] * ROUND
        returned = [0.0] * ROUND
        out = Outcome(MAX_OPS, MAX_OPS // ROUND)
        out.info["rounds_observed"] = observed = []
        slot_wait = queue_wait = 0.0
        base = fleet.accounting.snapshot()
        completed_base = fleet.completed_by_device()
        rounds = 0
        began = clock()
        while rounds < CHECKED_ROUNDS or (clock() - began < ctx.seconds and
                                          out.latencies.room() >= ROUND):
            order = next(self.orders)
            bodies = self._bodies(order)
            self.op_base = rounds * ROUND
            if rounds < CHECKED_ROUNDS:
                round_base = fleet.accounting.snapshot()
                round_completed = fleet.completed_by_device()
            round_start = clock()
            for index, spec in enumerate(order):
                if tracer is not None:
                    tracer.set_op(self.op_base + index + 1)
                waited = clock()
                slots.acquire()
                submitted[index] = now = clock()
                slot_wait += now - waited
                fleet.submit(spec, bodies[index])
                returned[index] = clock()
            fleet.drain()
            round_end = clock()
            out.busy.append(round_start, round_end)
            rounds += 1
            digests: dict[str, list] = {}
            for index, spec in enumerate(order):
                worker, _, body_end, result, error = records[index]
                out.latencies.append(submitted[index], body_end)
                queue_wait += worker - returned[index]
                if error is not None:
                    out.error(error)
                    out.failed += 1
                    continue
                got = digest(repr(result))
                if got != results.get(spec):
                    out.failed += 1
                if rounds <= CHECKED_ROUNDS and \
                        got not in digests.setdefault(spec, []):
                    digests[spec].append(got)
            if rounds <= CHECKED_ROUNDS:
                observed.append({
                    "results": digests,
                    "per_round": accounting_dict(
                        fleet.accounting.delta(round_base)),
                    "completed_per_round": {
                        label: count - round_completed[label] for label, count
                        in fleet.completed_by_device().items()},
                    "device_state": self.states_digest(),
                })
            host.sample()
        completed = {label: count - completed_base[label]
                     for label, count in fleet.completed_by_device().items()}
        out.checks["device_states"] = [
            entry["device_state"] for entry in observed] == \
            expected.get("device_states")
        out.checks["accounting_totals"] = accounting_dict(
            fleet.accounting.delta(base)) == scaled_accounting(
                expected.get("per_round", {}), rounds)
        out.checks["completed_by_device"] = completed == {
            label: count * rounds for label, count
            in expected.get("completed_per_round", {}).items()}
        out.info["rounds"] = rounds
        out.layer.update({
            "engine.placement_skew":
                max(completed.values()) / min(completed.values()),
            "engine.slot_wait_s": slot_wait,
            "engine.queue_wait_s": queue_wait,
        })
        return out

    def states_digest(self) -> str:
        return digest(repr(sorted(self.fleet.device_states().items())))

    def bless(self, ctx) -> dict:
        """Committed expectations from the first rounds of a fresh fleet;
        they must agree, as every later round must."""
        self.prepare(ctx)
        observed = self.run(ctx).info["rounds_observed"]
        states = [entry.pop("device_state") for entry in observed]
        if any(entry != observed[0] for entry in observed):
            raise AssertionError("rounds differ")
        results = observed[0]["results"]
        if any(len(values) != 1 for values in results.values()):
            raise AssertionError(f"results vary: {results}")
        return dict(observed[0], device_states=states,
                    results={spec: values[0]
                             for spec, values in results.items()})

    # -- per-layer metrics from the traced run --------------------------

    @staticmethod
    def layer_metrics(trace, ops: int, scale: float) -> dict:
        self_s, total_s, calls = trace["self"], trace["total"], \
            trace["calls"]
        layer = trace["layer"]

        def per_call_us(name):
            count = calls.get(name, 0)
            return self_s.get(name, 0.0) * scale / count * 1e6 \
                if count else 0.0

        def per_op_us(seconds):
            return seconds * scale / ops * 1e6

        latency = trace["latency_s"]
        queue = layer["engine.queue_wait_s"]
        execute = total_s.get("engine.exec", 0.0)
        return {
            "engine.slot_wait_us": per_op_us(layer["engine.slot_wait_s"]),
            "engine.queue_wait_us": per_op_us(queue),
            "engine.exec_us": per_op_us(execute),
            "engine.overhead_us": per_op_us(latency - queue - execute),
            "devil.specialize.us_per_call": per_call_us("devil.specialize"),
            "devil.specialize.calls":
                calls.get("devil.specialize", 0) / ops,
            "bus.ts_us_per_access": per_call_us("bus.ts"),
            "devices.us_per_access": per_call_us("devices.io"),
        }
