"""The mutation campaign engine: Table 1 as a fleet workload.

The paper's robustness study was a one-shot serial script over three
devices.  :func:`run_campaign` scales it into a scheduled workload:

1. **Scope** — a :class:`CampaignConfig` names the spec subset (up to
   all 8 shipped specs), the driver styles (``c``/``devil``/
   ``cdevil``), the per-site mutant budget and an optional per-target
   site budget.
2. **Unit generation** — every mutation site of every in-scope target
   becomes one :class:`CampaignUnit`, keyed by a content hash over the
   target fingerprint, the site, and the *exact mutant population*
   (see :mod:`.vcache`).  Unit order is deterministic.
3. **Cache probe** — units whose verdicts the on-disk cache already
   holds are served without evaluation; everything else is scheduled.
4. **Scheduling** — pending units are encoded as picklable fleet
   requests (``functools.partial`` over
   :func:`evaluate_unit_request`) and run on a serial loop or the
   :class:`~repro.engine.mp.ProcessFleet` (built by
   :func:`repro.engine.compute.compute_fleet`).  Placement happens at
   submit time under a deterministic policy, so a campaign's
   unit→worker assignment is a pure function of its scope — and
   because each unit's verdict is a pure function of its key, every
   backend produces byte-identical reports.
5. **Aggregation** — workers publish verdicts through the cache (the
   result transport); the parent reads them back after ``drain`` and
   folds them into a :class:`~.report.CampaignReport` with
   per-device/per-language/per-rule breakdowns plus the paper's
   Table 1 rows as a projection.

Re-runs are incremental: a spec or corpus edit re-keys only the units
it touches; everything else is a cache hit.  An unchanged immediate
re-run evaluates nothing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from .analysis import MutantCaps, _analyze_site
from .registry import STYLES, get_target, target_fingerprint, target_ids
from .rules import mutants_for_site
from .vcache import SCHEMA_VERSION, VerdictCache
from ..specs import SPEC_NAMES

#: Bump when unit evaluation semantics change without a vcache schema
#: change (classification rules, site analysis); part of every unit key.
CAMPAIGN_VERSION = 1

#: Campaign execution backends.  Classification is GIL-bound Python,
#: so only separate processes run it in parallel.
BACKENDS = ("serial", "process")


def _caps_tuple(caps: MutantCaps) -> tuple:
    return (caps.ident, caps.number, caps.operator, caps.bitpattern)


def _caps_from_tuple(values) -> MutantCaps:
    return MutantCaps(*values)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign's scope and execution substrate."""

    specs: tuple = SPEC_NAMES
    styles: tuple = STYLES
    caps: MutantCaps = field(default_factory=lambda: MutantCaps.quick())
    #: Per-target site budget (first N sites, deterministic); None =
    #: every site — required for an exact Table 1 projection.
    max_sites: int | None = None
    backend: str = "serial"
    workers: int = 4

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown campaign backend {self.backend!r} "
                f"(have: {', '.join(BACKENDS)})")
        if self.workers < 1:
            raise ValueError(
                f"need at least one worker (got {self.workers})")
        if self.max_sites is not None and self.max_sites < 1:
            raise ValueError(
                f"max_sites must be positive or None "
                f"(got {self.max_sites})")

    def describe(self) -> dict:
        """The verdict-determining scope — deliberately excludes the
        execution substrate (backend, workers), so reports
        built from the same scope are byte-identical whatever ran
        them.  See :meth:`CampaignResult.stats` for the run side."""
        return {
            "specs": list(self.specs),
            "styles": list(self.styles),
            "caps": list(_caps_tuple(self.caps)),
            "max_sites": self.max_sites,
        }


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable verdict: one site of one target, one budget."""

    target_id: str
    site_index: int
    site_key: str          # guard against registry/version skew
    caps: tuple
    key: str               # the vcache key

    def token(self) -> dict:
        """The picklable wire form (plain primitives only)."""
        return {"target_id": self.target_id,
                "site_index": self.site_index,
                "site_key": self.site_key,
                "caps": self.caps,
                "key": self.key}

    @classmethod
    def from_token(cls, token: dict) -> "CampaignUnit":
        return cls(target_id=token["target_id"],
                   site_index=token["site_index"],
                   site_key=token["site_key"],
                   caps=tuple(token["caps"]),
                   key=token["key"])


def unit_key(target_id: str, fingerprint: str, site,
             caps: MutantCaps) -> str:
    """Content hash identifying one unit's verdict.

    Includes the hash of the exact mutant-token population, so a
    change to the mutation rules re-keys affected units even if the
    version constants were forgotten.
    """
    population = mutants_for_site(site, caps.for_kind(site.kind))
    mutant_digest = hashlib.sha256(
        "\0".join(m.mutated_token for m in population).encode())
    payload = json.dumps([
        SCHEMA_VERSION, CAMPAIGN_VERSION, target_id, fingerprint,
        site.kind, site.text, site.offset, site.line,
        list(_caps_tuple(caps)), mutant_digest.hexdigest(),
    ], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def generate_units(config: CampaignConfig) -> list[CampaignUnit]:
    """The campaign's deterministic unit stream.

    Building the units builds (and memoizes) every in-scope target in
    the parent — which is what lets forked process workers start with
    a warm registry — and verifies each target's unmutated baseline
    checks clean, exactly like :func:`~.analysis.analyze_target`.
    """
    units: list[CampaignUnit] = []
    caps = config.caps
    for target_id in target_ids(config.specs, config.styles):
        target = get_target(target_id)
        if target.classify(target.source) != "undetected":
            raise ValueError(
                f"campaign target {target_id!r} must check clean "
                f"unmutated")
        fingerprint = target_fingerprint(target_id)
        sites = target.sites
        if config.max_sites is not None:
            sites = sites[:config.max_sites]
        for index, site in enumerate(sites):
            units.append(CampaignUnit(
                target_id=target_id, site_index=index,
                site_key=site.key(), caps=_caps_tuple(caps),
                key=unit_key(target_id, fingerprint, site, caps)))
    return units


# ---------------------------------------------------------------------------
# Unit evaluation (runs in fleet workers — must stay picklable)
# ---------------------------------------------------------------------------


def evaluate_unit(token: dict, cache_root: str) -> dict:
    """Evaluate one unit and publish its verdict record to the cache.

    Pure with respect to scheduling: the record depends only on the
    unit, never on which worker ran it or in what order.
    """
    unit = CampaignUnit.from_token(token)
    target = get_target(unit.target_id)
    if unit.site_index >= len(target.sites):
        raise ValueError(
            f"unit {unit.key[:12]} indexes site {unit.site_index} of "
            f"{unit.target_id!r}, which has only "
            f"{len(target.sites)} sites (stale campaign?)")
    site = target.sites[unit.site_index]
    if site.key() != unit.site_key:
        raise ValueError(
            f"unit {unit.key[:12]} expected site {unit.site_key!r} "
            f"at index {unit.site_index} of {unit.target_id!r}, "
            f"found {site.key()!r} (stale campaign?)")
    outcome = _analyze_site(target, site, _caps_from_tuple(unit.caps))
    record = {
        "target_id": unit.target_id,
        "site": {"kind": site.kind, "text": site.text,
                 "offset": site.offset, "line": site.line},
        "mutants": outcome.mutants,
        "detected": outcome.detected,
        "undetected": outcome.undetected,
        "survivors": list(outcome.survivors),
    }
    VerdictCache(cache_root).put(unit.key, record)
    return record


def evaluate_unit_request(stubs, aux, *, token, cache_root):
    """The fleet-request form of :func:`evaluate_unit`.

    Shaped like every fleet request (``fn(stubs, aux)``) but touches
    no device state: the campaign is a pure-compute workload riding
    the fleet's scheduling and telemetry.  Module-level so
    ``functools.partial`` over it ships to process workers through the
    request codec; the bound ``token``/``cache_root`` travel by value.
    """
    return evaluate_unit(token, cache_root)


# ---------------------------------------------------------------------------
# The campaign runner
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """A finished campaign: the report plus run accounting."""

    config: CampaignConfig
    report: "CampaignReport"
    #: Unit counts: total, served from cache, evaluated, corrupt
    #: entries recovered, and units salvaged by the parent after a
    #: fleet run came back incomplete.
    units: int = 0
    cache_hits: int = 0
    evaluated: int = 0
    corrupt_recovered: int = 0
    salvaged: int = 0
    elapsed_s: float = 0.0
    #: ``label -> completed unit count`` on the fleet backends (the
    #: submit-time placement record; empty for serial runs).
    placement: dict = field(default_factory=dict)

    def stats(self) -> dict:
        return {"units": self.units, "cache_hits": self.cache_hits,
                "evaluated": self.evaluated,
                "corrupt_recovered": self.corrupt_recovered,
                "salvaged": self.salvaged,
                "elapsed_s": self.elapsed_s,
                "backend": self.config.backend,
                "workers": self.config.workers}


def _run_units_serial(pending, cache_root, progress) -> None:
    for index, unit in enumerate(pending):
        evaluate_unit(unit.token(), cache_root)
        if progress is not None and (index + 1) % 25 == 0:
            progress(f"evaluated {index + 1}/{len(pending)} units")


#: Units submitted per worker between drains.  Waves bound how much
#: work can queue ahead of a drain's sync message, keeping the process
#: backend's wedge detection (sync timeout, stall windows) meaningful
#: on campaign-scale runs — a full campaign is minutes of CPU, far
#: beyond any sane sync timeout for a single drain.  The round-robin
#: cursor persists across waves, so placement is identical to one
#: giant submission.
WAVE_UNITS_PER_WORKER = 64


def _run_units_fleet(config, pending, cache_root, telemetry,
                     health_log, progress):
    """Schedule pending units across a compute fleet; returns the
    placement record (``label -> completed``)."""
    from ..engine.compute import compute_fleet

    fleet = compute_fleet(config.workers, telemetry=telemetry)
    monitor = None
    if health_log:
        from ..obs.live import LiveMonitor

        monitor = LiveMonitor(fleet, interval=0.25,
                              log_path=health_log)
    wave = config.workers * WAVE_UNITS_PER_WORKER
    with fleet:
        if monitor is not None:
            monitor.start()
        try:
            for start in range(0, len(pending), wave):
                for unit in pending[start:start + wave]:
                    fleet.submit(fleet.compute_spec, functools.partial(
                        evaluate_unit_request, token=unit.token(),
                        cache_root=cache_root))
                fleet.drain()
                if progress is not None:
                    progress(f"fleet evaluated "
                             f"{min(start + wave, len(pending))}/"
                             f"{len(pending)} units")
        finally:
            if monitor is not None:
                monitor.stop()
        placement = fleet.completed_by_device()
    return placement


def run_campaign(config: CampaignConfig,
                 cache: VerdictCache | None = None,
                 telemetry=None, health_log: str | None = None,
                 progress=None) -> CampaignResult:
    """Run one mutation campaign and aggregate its report.

    ``cache`` is the verdict store (and, on the fleet backends, the
    result transport); ``None`` uses a private temporary directory
    discarded at the end — a cold, cache-less run.  ``progress`` is an
    optional ``fn(message: str)`` narration hook; ``telemetry`` and
    ``health_log`` attach the live telemetry plane to fleet backends
    exactly as ``devil fleet`` does.
    """
    from .report import CampaignReport

    started = time.perf_counter()
    private_root = None
    if cache is None:
        private_root = tempfile.mkdtemp(prefix="devil-campaign-")
        cache = VerdictCache(private_root)
    try:
        units = generate_units(config)
        if progress is not None:
            progress(f"{len(units)} units across "
                     f"{len(target_ids(config.specs, config.styles))} "
                     f"targets")
        records: dict[str, dict] = {}
        pending: list[CampaignUnit] = []
        corrupt_before = cache.corrupt
        for unit in units:
            record = cache.get(unit.key)
            if record is None:
                pending.append(unit)
            else:
                records[unit.key] = record
        cache_hits = len(records)
        corrupt_recovered = cache.corrupt - corrupt_before
        if progress is not None and units:
            progress(f"cache: {cache_hits} hits, "
                     f"{len(pending)} to evaluate"
                     + (f", {corrupt_recovered} corrupt recovered"
                        if corrupt_recovered else ""))

        placement: dict = {}
        if pending:
            if config.backend == "serial":
                _run_units_serial(pending, str(cache.root), progress)
            else:
                placement = _run_units_fleet(
                    config, pending, str(cache.root), telemetry,
                    health_log, progress)

        # Read back what the workers published.  A unit that is still
        # missing (a lost write, a full disk) is salvaged serially in
        # the parent — determinism is unaffected, verdicts are pure.
        salvaged = 0
        for unit in pending:
            record = cache.get(unit.key)
            if record is None:
                record = evaluate_unit(unit.token(), str(cache.root))
                salvaged += 1
            records[unit.key] = record

        report = CampaignReport.from_records(
            config, [records[unit.key] for unit in units])
        return CampaignResult(
            config=config, report=report, units=len(units),
            cache_hits=cache_hits,
            evaluated=len(pending) - salvaged,
            corrupt_recovered=corrupt_recovered, salvaged=salvaged,
            elapsed_s=time.perf_counter() - started,
            placement=placement)
    finally:
        if private_root is not None:
            shutil.rmtree(private_root, ignore_errors=True)
