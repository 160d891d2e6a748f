"""``campaign``: cold Table 1 mutation analysis, one unit per op.

The CLI's defaults (serial backend, ``MutantCaps.quick(8)``) over all
8 specs x c/devil/cdevil.  No bus, runtime or engine code runs, so the
workload isolates the front end (``repro.devil`` lexer/parser/checker
and ``repro.minic``) and is the control for every other layer.  Unit
costs span roughly 7-200 ms by target, so the seed draws a sample
stratified over the 14 targets in proportion to their unit counts.
"""

from __future__ import annotations

import random
import traceback

from common import Outcome, digest, load_expected

#: Units in one pass; about 20 s on the nominal host.  Fewer units let
#: the seed move the latency tail: p90 spread over seeds was 6% at 224
#: units and 4% at 448, from per-unit costs of all 3103 units.
SAMPLE_UNITS = 448

#: ``MutantCaps.quick`` budget of the ``devil campaign`` CLI default.
CAPS_BUDGET = 8

#: Latency slots allocated before the timed phase (see ``Intervals``);
#: a pass starts only while the whole pass fits.
MAX_OPS = 8192


def unit_id(unit) -> str:
    return f"{unit.target_id}#{unit.site_index}"


def apportion(sizes: dict, total: int, minimum: int = 0) -> dict:
    """Split ``total`` in proportion to ``sizes`` (largest remainder)."""
    whole = sum(sizes.values())
    exact = {key: total * size / whole for key, size in sizes.items()}
    shares = {key: max(minimum, int(value)) for key, value in exact.items()}
    spare = total - sum(shares.values())
    for key in sorted(exact, key=lambda key: shares[key] - exact[key])[
            :max(0, spare)]:
        shares[key] += 1
    return shares


def stratified_sample(units: list, seed: int, size: int) -> list:
    """A shuffled sample with every target in proportion to its units.

    Each target's quota is split again over its site kinds, and each
    (target, kind) stratum is drawn systematically from a seeded
    offset, spreading the sample over the whole source.  Unit cost
    varies mostly by target and kind, so this keeps the sample's cost
    mix nearly the same for every seed.
    """
    rng = random.Random(seed)
    strata: dict[str, dict[str, list]] = {}
    for unit in units:
        kind = unit.site_key.partition(":")[0]
        strata.setdefault(unit.target_id, {}).setdefault(
            kind, []).append(unit)
    quotas = apportion({target: sum(map(len, kinds.values()))
                        for target, kinds in strata.items()}, size, 1)
    picked = []
    for target, kinds in strata.items():
        shares = apportion({kind: len(members)
                            for kind, members in kinds.items()},
                           quotas[target])
        for kind, members in kinds.items():
            count = min(shares[kind], len(members))
            offset = rng.random()
            picked.extend(
                members[int((index + offset) * len(members) / count)]
                for index in range(count))
    rng.shuffle(picked)
    return picked


class Campaign:
    name = "campaign"
    #: Spans that open one op in the traced run.
    roots = ("op",)

    def setup(self, steps, tracer) -> None:
        steps.run("import", self._import)
        if tracer is not None:
            self._instrument_front_end(tracer)
        steps.run("targets", self._build_targets)
        if tracer is not None:
            for target_id in self.target_ids:
                target = self.get_target(target_id)
                tracer.patch(target, "classify", "mutation.classify")
        steps.run("unit_keys", self._generate_units)

    def _import(self) -> None:
        from repro.mutation.analysis import MutantCaps
        from repro.mutation.campaign import (CampaignConfig,
                                             evaluate_unit,
                                             generate_units)
        from repro.mutation.registry import get_target, target_ids
        from repro.mutation.rules import mutants_for_site
        from repro.mutation.vcache import VerdictCache

        self.config = CampaignConfig(caps=MutantCaps.quick(CAPS_BUDGET))
        self.evaluate_unit = evaluate_unit
        self.generate_units = generate_units
        self.get_target = get_target
        self.mutants_for_site = mutants_for_site
        self.VerdictCache = VerdictCache
        self.target_ids = target_ids(self.config.specs,
                                     self.config.styles)

    def _build_targets(self) -> None:
        for target_id in self.target_ids:
            self.get_target(target_id)

    def _generate_units(self) -> None:
        self.units = self.generate_units(self.config)

    @staticmethod
    def _instrument_front_end(tracer) -> None:
        import repro.devil.compiler as compiler
        import repro.minic.checker as minic_checker
        import repro.mutation.targets as targets
        from repro.devil.lexer import Lexer
        from repro.mutation.vcache import VerdictCache

        lex = Lexer.tokens

        def tokens(self):
            return list(lex(self))

        # Lexer.tokens is where both tokenize() and parse() lex.
        Lexer.tokens = tracer.wrap("devil.lexer", tokens, count=len)
        tracer.patch(compiler, "parse", "devil.parser")
        tracer.patch(compiler, "check", "devil.checker")
        tracer.patch(minic_checker, "tokenize_c", "minic.lexer")
        tracer.patch(targets, "tokenize_c", "minic.lexer")
        tracer.patch(targets, "check_c", "minic.checker")
        tracer.patch(VerdictCache, "put", "mutation.vcache.put")

    # -- the timed phase ------------------------------------------------

    def prepare(self, ctx) -> None:
        self.expected = load_expected("campaign")
        self.sample = stratified_sample(self.units, ctx.seed,
                                        SAMPLE_UNITS)

    def run(self, ctx) -> Outcome:
        host, clock, tracer = ctx.host, ctx.host.clock, ctx.tracer
        digests = self.expected.get("digests", {})
        evaluate = self.evaluate_unit
        if tracer is not None:
            evaluate = tracer.wrap("op", evaluate)
        out = Outcome(MAX_OPS)
        first_pass: dict[str, dict] = {}
        began = clock()
        passes = 0
        while passes == 0 or (clock() - began < ctx.seconds and
                              out.latencies.room() >= len(self.sample)):
            cache_root = str(ctx.workdir / f"vcache-{passes}")
            for unit in self.sample:
                host.sample()
                if tracer is not None:
                    tracer.set_op(len(out.latencies) + 1)
                token = unit.token()
                start = clock()
                try:
                    record = evaluate(token, cache_root)
                except Exception:               # counted, run goes on
                    record = None
                    out.error(traceback.format_exc())
                end = clock()
                out.latencies.append(start, end)
                if record is None or \
                        digest(record) != digests.get(unit_id(unit)):
                    out.failed += 1
                elif passes == 0:
                    first_pass[unit.key] = record
            passes += 1
        host.sample()
        out.info["passes"] = passes
        out.info["sample_units"] = len(self.sample)
        out.checks["unit_count"] = len(self.units) == \
            self.expected.get("units")
        # The published records must read back as the returned ones.
        cache = self.VerdictCache(ctx.workdir / "vcache-0")
        readback = True
        for key, record in first_pass.items():
            stored = cache.get(key) or {}
            stored = {field: value for field, value in stored.items()
                      if field not in ("schema", "key")}
            readback = readback and stored == record
        out.checks["vcache_readback"] = readback
        generated = useful = 0
        for unit in self.sample:
            site = self.get_target(unit.target_id).sites[unit.site_index]
            generated += len(self.mutants_for_site(
                site, self.config.caps.for_kind(site.kind)))
        for record in first_pass.values():
            useful += record["mutants"]
        out.layer["mutation.mutants"] = generated / len(self.sample)
        out.layer["mutation.useful_frac"] = useful / generated
        return out

    def bless(self) -> dict:
        """Expected digests for every unit of the full campaign."""
        import tempfile

        digests = {}
        with tempfile.TemporaryDirectory() as root:
            for unit in self.units:
                digests[unit_id(unit)] = digest(
                    self.evaluate_unit(unit.token(), root))
        return {"caps": CAPS_BUDGET, "units": len(self.units),
                "digests": digests}

    # -- per-layer metrics from the traced run --------------------------

    @staticmethod
    def layer_metrics(trace, ops: int, scale: float) -> dict:
        self_s, total_s, calls, counts = (trace["self"], trace["total"],
                                          trace["calls"], trace["counts"])

        def per_op_ms(name, table=self_s):
            return table.get(name, 0.0) * scale / ops * 1e3

        lexer_s = self_s.get("devil.lexer", 0.0) * scale
        return {
            "devil.lexer.ms": per_op_ms("devil.lexer"),
            "devil.lexer.ktok_per_s":
                counts.get("devil.lexer", 0) / lexer_s / 1e3
                if lexer_s else 0.0,
            "devil.parser.ms": per_op_ms("devil.parser"),
            "devil.checker.ms": per_op_ms("devil.checker"),
            "minic.lexer.ms": per_op_ms("minic.lexer"),
            "minic.checker.ms": per_op_ms("minic.checker"),
            "mutation.classify_ms": per_op_ms("mutation.classify",
                                              total_s),
            "mutation.vcache.put_ms": per_op_ms("mutation.vcache.put"),
            "mutation.other_ms": per_op_ms("op"),
        }
