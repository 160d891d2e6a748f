"""Tests for the mutation-analysis machinery (Table 1)."""

import pytest

from repro.mutation import (
    MutantCaps,
    MutationSite,
    analyze_target,
    c_target,
    cdevil_target,
    devil_target,
    format_table,
    mutants_for_site,
)
from repro.mutation.analysis import TargetOutcome
from repro.mutation.corpus import (
    BUSMOUSE_C,
    BUSMOUSE_CDEVIL,
    mutation_regions,
)
from repro.mutation.rules import alphabet_for
from repro.specs import load_source
from tests.conftest import shipped_spec

QUICK = MutantCaps.quick(6)


class TestRules:
    def test_number_mutants_are_digit_edits(self):
        site = MutationSite("number", "121", 0, 1)
        tokens = {m.mutated_token for m in mutants_for_site(site)}
        assert "21" in tokens        # removal (the paper's example)
        assert "1211" in tokens      # insertion
        assert "191" in tokens       # replacement
        assert all(set(t) <= set("0123456789") for t in tokens)

    def test_two_digit_number_population_size(self):
        """The paper: a 2-digit decimal yields 50 mutants (2 removals,
        30 insertions, 18 replacements) before dedup."""
        site = MutationSite("number", "12", 0, 1)
        population = mutants_for_site(site)
        # After dedup of colliding edits the count is slightly lower.
        assert 40 <= len(population) <= 50

    def test_hex_prefix_protected(self):
        site = MutationSite("number", "0x3c", 0, 1)
        tokens = {m.mutated_token for m in mutants_for_site(site)}
        assert all(t.startswith("0x") for t in tokens)

    def test_identifier_alphabet_matches_case(self):
        upper = MutationSite("ident", "NEUTRAL", 0, 1)
        lower = MutationSite("ident", "sig_reg", 0, 1)
        assert alphabet_for(upper).isupper() or "_" in alphabet_for(upper)
        assert alphabet_for(lower).islower() or "_" in alphabet_for(lower)

    def test_bitpattern_alphabet(self):
        site = MutationSite("bitpattern", "1001000.", 0, 1)
        assert set(alphabet_for(site)) == set("01.*-")

    def test_deterministic_sampling(self):
        site = MutationSite("ident", "configuration_word", 0, 1)
        first = [m.mutated_token for m in mutants_for_site(site, 10)]
        second = [m.mutated_token for m in mutants_for_site(site, 10)]
        assert first == second
        assert len(first) == 10

    def test_apply_rewrites_exact_span(self):
        site = MutationSite("number", "42", 4, 1)
        mutant = mutants_for_site(site)[0]
        source = "abc 42 def"
        mutated = mutant.apply(source)
        assert mutated.startswith("abc ") and mutated.endswith(" def")


def _reference_population(site, max_mutants=None):
    """Every edit as a Mutant, then dedup and sample: the enumeration
    ``mutants_for_site`` must reproduce without building them all."""
    import hashlib

    from repro.mutation.rules import Mutant

    text, alphabet = site.text, alphabet_for(site)
    protected = 2 if (site.kind == "number"
                      and text.lower().startswith("0x")) else 0
    edits = []
    if len(text) > max(1, protected):
        edits += [Mutant(site, text[:i] + text[i + 1:],
                         f"remove {text[i]!r} at {i}")
                  for i in range(protected, len(text))]
    edits += [Mutant(site, text[:i] + c + text[i:], f"insert {c!r} at {i}")
              for i in range(protected, len(text) + 1) for c in alphabet]
    edits += [Mutant(site, text[:i] + c + text[i + 1:],
                     f"replace {text[i]!r} with {c!r} at {i}")
              for i in range(protected, len(text)) for c in alphabet
              if c != text[i]]
    unique = {}
    for mutant in edits:
        unique.setdefault(mutant.mutated_token, mutant)
    population = list(unique.values())
    if max_mutants is None or len(population) <= max_mutants:
        return population
    seed = int.from_bytes(
        hashlib.sha256(site.key().encode()).digest()[:8], "big")
    stride = max(1, len(population) // max_mutants)
    return population[seed % stride::stride][:max_mutants]


class TestPopulationReference:
    @pytest.mark.parametrize("cap", [None, 1, 3, 8, 12])
    @pytest.mark.parametrize("kind,text", [
        ("ident", "aab_bba"), ("ident", "XX_Y"), ("ident", "a"),
        ("number", "0x3c"), ("number", "0x"), ("number", "100"),
        ("number", "7"), ("operator", "<<="), ("operator", "=="),
        ("bitpattern", "1..0**--"), ("bitpattern", "."),
    ])
    def test_equals_full_enumeration(self, kind, text, cap):
        site = MutationSite(kind, text, 17, 3)
        assert mutants_for_site(site, cap) == \
            _reference_population(site, cap)

    def test_every_shipped_site_at_campaign_budget(self):
        from repro.mutation.registry import get_target, target_ids
        caps = MutantCaps.quick(8)
        for target_id in target_ids():
            for site in get_target(target_id).sites:
                cap = caps.for_kind(site.kind)
                assert mutants_for_site(site, cap) == \
                    _reference_population(site, cap), site


class TestRegions:
    def test_marker_extraction(self):
        regions = mutation_regions(BUSMOUSE_C)
        assert len(regions) == 1
        start, end = regions[0]
        assert "MSE_DATA_PORT" in BUSMOUSE_C[start:end]

    def test_unterminated_region(self):
        with pytest.raises(ValueError):
            mutation_regions("/*MUTATE*/ no end")


class TestTargets:
    def test_c_target_sites_exclude_keywords(self):
        target = c_target("busmouse", BUSMOUSE_C)
        texts = {site.text for site in target.sites}
        assert "int" not in texts
        assert "MSE_DATA_PORT" in texts
        assert "0x23c" in texts

    def test_c_classifier_detects_bad_identifier(self):
        target = c_target("busmouse", BUSMOUSE_C)
        mutated = BUSMOUSE_C.replace("dy |= (buttons & 0xf) << 4;",
                                     "dz |= (buttons & 0xf) << 4;")
        assert target.classify(mutated) == "detected"

    def test_c_classifier_misses_constant_change(self):
        target = c_target("busmouse", BUSMOUSE_C)
        mutated = BUSMOUSE_C.replace("0xc0", "0xc8")
        assert target.classify(mutated) == "undetected"

    def test_c_interface_rename_detected(self):
        target = c_target("busmouse", BUSMOUSE_C)
        mutated = BUSMOUSE_C.replace("void mouse_interrupt(",
                                     "void mouse_interupt(")
        assert target.classify(mutated) == "detected"

    def test_devil_classifier_detects_overlap(self):
        source = load_source("busmouse")
        target = devil_target("busmouse", source)
        mutated = source.replace("index = index_reg[6..5]",
                                 "index = index_reg[7..5]")
        assert target.classify(mutated) == "detected"

    def test_devil_classifier_detects_renamed_interface(self):
        source = load_source("busmouse")
        target = devil_target("busmouse", source)
        mutated = source.replace("variable dy =", "variable dz =")
        assert target.classify(mutated) == "detected"

    def test_devil_classifier_misses_forced_value_change(self):
        source = load_source("busmouse")
        target = devil_target("busmouse", source)
        mutated = source.replace("'1001000.'", "'0001000.'")
        assert target.classify(mutated) == "undetected"

    def test_devil_syntax_break_is_invalid(self):
        source = load_source("busmouse")
        target = devil_target("busmouse", source)
        assert target.classify(
            source.replace("device logitech_busmouse (",
                           "device logitech_busmouse ((")) == "invalid"

    def test_cdevil_constant_range_check(self):
        target = cdevil_target("busmouse", BUSMOUSE_CDEVIL,
                               [(shipped_spec("busmouse").model, "bm")])
        # signature is int(8): 0xa5 legal, 0xa55 out of range -> the
        # §3.2 compile-time check of the generated interface fires.
        assert target.classify(
            BUSMOUSE_CDEVIL.replace("bm_set_signature(0xa5)",
                                    "bm_set_signature(0xa55)")) == \
            "detected"
        assert target.classify(
            BUSMOUSE_CDEVIL.replace("bm_set_signature(0xa5)",
                                    "bm_set_signature(0xa4)")) == \
            "undetected"

    def test_cdevil_stub_rename_detected(self):
        target = cdevil_target("busmouse", BUSMOUSE_CDEVIL,
                               [(shipped_spec("busmouse").model, "bm")])
        mutated = BUSMOUSE_CDEVIL.replace("bm_get_dy()", "bm_get_dz()")
        assert target.classify(mutated) == "detected"


class TestAnalysis:
    def test_busmouse_c_row_statistics(self):
        outcome = analyze_target(c_target("busmouse", BUSMOUSE_C), QUICK)
        assert outcome.sites > 50
        assert outcome.mutants_per_site > 1
        assert 0 < outcome.sites_with_undetected < outcome.sites

    def test_devil_spec_nearly_always_detected(self):
        """The paper's headline: 'mutation errors in Devil
        specifications are nearly always detected'."""
        outcome = analyze_target(
            devil_target("busmouse", load_source("busmouse")), QUICK)
        assert outcome.undetected_per_site < 1.0

    def test_devil_beats_c(self):
        c_outcome = analyze_target(c_target("busmouse", BUSMOUSE_C),
                                   QUICK)
        devil_outcome = analyze_target(
            devil_target("busmouse", load_source("busmouse")), QUICK)
        c_rate = c_outcome.total_undetected / c_outcome.total_mutants
        devil_rate = devil_outcome.total_undetected / \
            devil_outcome.total_mutants
        assert devil_rate < c_rate / 3

    def test_semantically_equal_mutants_excluded(self):
        """'03' for '3' is not a mutant: same value."""
        outcome = analyze_target(c_target("busmouse", BUSMOUSE_C), QUICK)
        for site_outcome in outcome.site_outcomes:
            for survivor in site_outcome.survivors:
                assert "-> '0" not in survivor or \
                    site_outcome.site.text.lstrip("0") != \
                    survivor.split("'")[3].lstrip("0")

    def test_merged_rows(self):
        first = analyze_target(c_target("busmouse", BUSMOUSE_C), QUICK)
        merged = first.merged_with(first, "double")
        assert merged.sites == 2 * first.sites
        assert merged.total_mutants == 2 * first.total_mutants

    def test_format_table_renders(self):
        from repro.mutation.analysis import DeviceRows
        outcome = analyze_target(c_target("busmouse", BUSMOUSE_C), QUICK)
        devil_outcome = analyze_target(
            devil_target("busmouse", load_source("busmouse")), QUICK)
        cdevil_outcome = analyze_target(
            cdevil_target("busmouse", BUSMOUSE_CDEVIL,
                          [(shipped_spec("busmouse").model, "bm")]),
            QUICK)
        rows = DeviceRows("Busmouse", outcome, devil_outcome,
                          cdevil_outcome)
        rendered = format_table([rows])
        assert "Devil+CDevil" in rendered
        assert rows.ratio_combined() > 0

    def test_rejected_baseline_refused(self):
        broken = BUSMOUSE_C.replace("dy |=", "dz |=")
        with pytest.raises(ValueError):
            analyze_target(c_target("busmouse", broken), QUICK)


class TestBitopsSurvey:
    def test_c_fragments_are_bitop_heavy(self):
        from repro.mutation.bitops_survey import run_survey
        reports = {r.name: r for r in run_survey()}
        for name in ("busmouse (C)", "ide (C)", "ne2000 (C)"):
            assert reports[name].line_fraction > 0.10

    def test_cdevil_reduces_bitops(self):
        from repro.mutation.bitops_survey import run_survey
        reports = {r.name: r for r in run_survey()}
        assert reports["ne2000 (CDevil)"].bitop_tokens < \
            reports["ne2000 (C)"].bitop_tokens

    def test_format_survey(self):
        from repro.mutation.bitops_survey import format_survey, run_survey
        assert "Fraction" in format_survey(run_survey())
