"""The mutation-analysis engine and Table 1 statistics.

For every mutation site of a target, the engine generates the mutant
population (single-character edits), keeps those that still parse
*and* change the token stream (the paper's "syntactically correct,
actually modifies the semantics" rule), runs the language's checker on
each survivor, and tallies detection.

The reported statistics follow the paper's columns exactly:

========================  ====================================================
column                    meaning
========================  ====================================================
``sites`` (s)             number of mutation sites with a non-empty
                          mutant population
``mutants_per_site``      ms — mean mutants per site
``undetected_per_site``   ums — mean undetected mutants per site
``sites_with_undetected`` sum = ums / ms · s, the expected number of
                          sites at which a typo can survive compilation
========================  ====================================================

The ``ratio_to_c`` of a Devil-based program is ``sum_C / sum_X`` — how
many times less likely an undetected error is, which the paper reports
as "1.6 to 5.2 times higher in C".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rules import MutationSite, mutants_for_site
from .targets import LanguageTarget


@dataclass(frozen=True)
class MutantCaps:
    """Per-site mutant budget by token kind.

    Numbers, operators and bit patterns have naturally small edit
    populations and are enumerated in full by default — this preserves
    the paper's weighting, where numeric sites contribute many mutants
    (a two-digit literal alone yields 50) and dominate C's undetected
    counts.  Identifier populations grow with length × alphabet, so
    they are capped (deterministically sampled).
    """

    ident: int | None = 12
    number: int | None = None
    operator: int | None = None
    bitpattern: int | None = None

    def for_kind(self, kind: str) -> int | None:
        return getattr(self, kind)

    @classmethod
    def quick(cls, budget: int = 8) -> "MutantCaps":
        """A uniform small budget for fast test runs."""
        return cls(ident=budget, number=budget, operator=budget,
                   bitpattern=budget)


@dataclass
class SiteOutcome:
    """Mutation results for one site."""

    site: MutationSite
    mutants: int = 0
    detected: int = 0
    undetected: int = 0
    #: A few surviving mutants, for reports and debugging.
    survivors: list[str] = field(default_factory=list)


@dataclass
class TargetOutcome:
    """Aggregated Table 1 row for one (program, language) pair."""

    name: str
    language: str
    lines_of_code: int
    site_outcomes: list[SiteOutcome] = field(default_factory=list)

    @property
    def sites(self) -> int:
        return len(self.site_outcomes)

    @property
    def total_mutants(self) -> int:
        return sum(outcome.mutants for outcome in self.site_outcomes)

    @property
    def total_undetected(self) -> int:
        return sum(outcome.undetected for outcome in self.site_outcomes)

    @property
    def mutants_per_site(self) -> float:
        return self.total_mutants / self.sites if self.sites else 0.0

    @property
    def undetected_per_site(self) -> float:
        return self.total_undetected / self.sites if self.sites else 0.0

    @property
    def sites_with_undetected(self) -> float:
        """The paper's ``sum = ums / ms * s``."""
        if not self.total_mutants:
            return 0.0
        return self.total_undetected / self.total_mutants * self.sites

    def merged_with(self, other: "TargetOutcome",
                    name: str) -> "TargetOutcome":
        """Combine two rows (the paper's Devil+CDevil line)."""
        merged = TargetOutcome(
            name, f"{self.language}+{other.language}",
            self.lines_of_code + other.lines_of_code)
        merged.site_outcomes = self.site_outcomes + other.site_outcomes
        return merged


def analyze_target(target: LanguageTarget,
                   caps: MutantCaps | None = None) -> TargetOutcome:
    """Run the mutation experiment on one target."""
    caps = caps or MutantCaps()
    outcome = TargetOutcome(target.name, target.language,
                            target.lines_of_code)
    if target.classify(target.source) != "undetected":
        raise ValueError(
            f"target {target.name!r} must check clean unmutated")
    for site in target.sites:
        site_outcome = _analyze_site(target, site, caps)
        if site_outcome.mutants:
            outcome.site_outcomes.append(site_outcome)
    return outcome


def _analyze_site(target: LanguageTarget, site: MutationSite,
                  caps: MutantCaps) -> SiteOutcome:
    outcome = SiteOutcome(site)
    baseline_norm = target.normalize_token(site, site.text)
    for mutant in mutants_for_site(site, caps.for_kind(site.kind)):
        # Meaning-preserving edits ('3' -> '03', mask '-' <-> '*') do
        # not "actually modify the semantics" and are not mutants.
        if target.normalize_token(site, mutant.mutated_token) == \
                baseline_norm:
            continue
        mutated = mutant.apply(target.source)
        verdict = target.classify(mutated, mutant)
        if verdict == "invalid":
            continue
        outcome.mutants += 1
        if verdict == "detected":
            outcome.detected += 1
        else:
            outcome.undetected += 1
            if len(outcome.survivors) < 3:
                outcome.survivors.append(
                    f"{site.text!r} -> {mutant.mutated_token!r} "
                    f"(line {site.line})")
    return outcome


# ---------------------------------------------------------------------------
# Table 1 assembly
# ---------------------------------------------------------------------------


@dataclass
class DeviceRows:
    """The four Table 1 rows for one device."""

    device: str
    c: TargetOutcome
    devil: TargetOutcome
    cdevil: TargetOutcome

    @property
    def combined(self) -> TargetOutcome:
        return self.devil.merged_with(self.cdevil, self.device)

    def ratio_cdevil(self) -> float:
        """sum_C / sum_CDevil (the paper's per-row 'Ratio to C')."""
        divisor = self.cdevil.sites_with_undetected
        return self.c.sites_with_undetected / divisor if divisor else \
            float("inf")

    def ratio_combined(self) -> float:
        """sum_C / sum_(Devil+CDevil)."""
        divisor = self.combined.sites_with_undetected
        return self.c.sites_with_undetected / divisor if divisor else \
            float("inf")

    def rows(self) -> list[dict]:
        """Render in the paper's column order."""
        result = []
        for label, outcome, ratio in (
                ("C", self.c, None),
                ("Devil", self.devil, None),
                ("CDevil", self.cdevil, self.ratio_cdevil()),
                ("Devil+CDevil", self.combined, self.ratio_combined())):
            result.append({
                "device": self.device,
                "language": label,
                "lines": outcome.lines_of_code,
                "sites": outcome.sites,
                "mutants_per_site": round(outcome.mutants_per_site, 1),
                "undetected_per_site":
                    round(outcome.undetected_per_site, 2),
                "sites_with_undetected":
                    round(outcome.sites_with_undetected, 1),
                "ratio_to_c": round(ratio, 1) if ratio is not None
                    else None,
            })
        return result


def format_table(all_rows: list[DeviceRows]) -> str:
    """Human-readable rendering in the shape of the paper's Table 1."""
    header = (f"{'Device':<12} {'Language':<14} {'Lines':>5} {'Sites':>6} "
              f"{'Mut/site':>9} {'Undet/site':>11} {'SitesUndet':>11} "
              f"{'Ratio':>6}")
    lines = [header, "-" * len(header)]
    for device_rows in all_rows:
        for row in device_rows.rows():
            ratio = f"{row['ratio_to_c']:.1f}" if row["ratio_to_c"] \
                else "-"
            lines.append(
                f"{row['device']:<12} {row['language']:<14} "
                f"{row['lines']:>5} {row['sites']:>6} "
                f"{row['mutants_per_site']:>9.1f} "
                f"{row['undetected_per_site']:>11.2f} "
                f"{row['sites_with_undetected']:>11.1f} {ratio:>6}")
        lines.append("-" * len(header))
    return "\n".join(lines)
