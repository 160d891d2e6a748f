"""Property-based tests for the mutation campaign engine.

Each property case is generated from a seeded :class:`random.Random`:
a random spec subset drawn from the cheap end of the shipped pool, a
random uniform mutant budget, a random per-target site budget and a
random process-fleet worker count.  Whatever the draw, the
campaign invariants must hold:

* **Verdict equality** — the fleet-scheduled report is byte-identical
  to the serial reference over the same scope (placement and
  interleaving must not be able to change a verdict).
* **Placement determinism** — the unit→worker assignment matches a
  pure reimplementation of the submit-time round-robin, computed
  without running anything.
* **Cache-hit idempotence** — an immediate re-run against the warm
  cache evaluates nothing, serves every unit from disk, and renders
  the same bytes.

On failure the harness *shrinks* the case — dropping specs, lowering
the site budget and worker count while the failure reproduces — and
reports the seed plus the minimal reproduction, mirroring
``test_fleet_properties.py``.
"""

from __future__ import annotations

import random
import tempfile

import pytest

from repro.mutation import (
    CampaignConfig,
    MutantCaps,
    VerdictCache,
    generate_units,
    run_campaign,
)

pytestmark = pytest.mark.concurrency

#: Specs cheap enough to evaluate in bulk (the big devices — ne2000,
#: dma8237, permedia2 — cost seconds per budget point and add no
#: scheduling coverage).
SPEC_POOL = ("busmouse", "pic8259", "cs4236", "piix4")

FAST_SEEDS = range(4)
SLOW_SEEDS = range(4, 12)


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


def generate_case(seed: int) -> dict:
    rng = random.Random(seed)
    specs = tuple(sorted(rng.sample(SPEC_POOL, rng.randint(1, 3))))
    return {
        "seed": seed,
        "specs": specs,
        "budget": rng.randint(1, 3),
        "max_sites": rng.randint(3, 8),
        "backend": "process",
        "workers": rng.randint(1, 2),
    }


def _config(case: dict, backend: str, workers: int = 1) -> CampaignConfig:
    return CampaignConfig(specs=case["specs"],
                          caps=MutantCaps.quick(case["budget"]),
                          max_sites=case["max_sites"],
                          backend=backend, workers=workers)


# ---------------------------------------------------------------------------
# The pure placement model (independent of the engine code)
# ---------------------------------------------------------------------------


def expected_placement(case: dict) -> dict[str, int]:
    """``worker label -> unit count`` from first principles: pending
    units are submitted in generation order against one compute device
    per worker under round-robin, so unit *i* lands on worker
    ``i % workers``."""
    from repro.engine.compute import COMPUTE_SPEC

    units = generate_units(_config(case, "serial"))
    workers = case["workers"]
    counts = {f"{COMPUTE_SPEC}{index}": 0 for index in range(workers)}
    for index in range(len(units)):
        counts[f"{COMPUTE_SPEC}{index % workers}"] += 1
    return counts


# ---------------------------------------------------------------------------
# Checking and shrinking
# ---------------------------------------------------------------------------


def check_case(case: dict) -> str | None:
    """Run the case serially and on its fleet backend; return a failure
    description or ``None`` when every invariant holds."""
    with tempfile.TemporaryDirectory() as serial_root, \
            tempfile.TemporaryDirectory() as fleet_root:
        serial = run_campaign(_config(case, "serial"),
                              cache=VerdictCache(serial_root))
        fleet = run_campaign(_config(case, case["backend"],
                                     case["workers"]),
                             cache=VerdictCache(fleet_root))
        if fleet.report.to_json() != serial.report.to_json():
            return (f"{case['backend']} report diverged from serial "
                    f"over {case['specs']}")
        if fleet.salvaged:
            return (f"{case['backend']} lost {fleet.salvaged} verdicts "
                    f"(parent had to salvage)")
        expected = expected_placement(case)
        if fleet.placement != expected:
            return (f"{case['backend']} placement {fleet.placement} "
                    f"!= pure model {expected}")

        # Immediate re-run: everything from the warm cache, same bytes.
        again = run_campaign(_config(case, case["backend"],
                                     case["workers"]),
                             cache=VerdictCache(fleet_root))
        if again.evaluated != 0 or again.salvaged != 0:
            return (f"warm re-run evaluated {again.evaluated} and "
                    f"salvaged {again.salvaged} units (want 0)")
        if again.cache_hits != again.units:
            return (f"warm re-run served {again.cache_hits} of "
                    f"{again.units} units from cache")
        if again.report.to_json() != serial.report.to_json():
            return "warm re-run rendered different bytes"
    return None


def shrink_case(case: dict, failure: str) -> tuple[dict, str]:
    """Greedily minimise a failing case while it still fails.

    Passes: drop one spec at a time (restarting after each success),
    then lower ``max_sites``, the budget and the worker count toward 1.
    Deterministic — the shrunk case is reproducible from the report.
    """
    current, current_failure = dict(case), failure
    progress = True
    while progress:
        progress = False
        for index in range(len(current["specs"])):
            if len(current["specs"]) == 1:
                break
            candidate = dict(current)
            candidate["specs"] = (current["specs"][:index] +
                                  current["specs"][index + 1:])
            result = check_case(candidate)
            if result is not None:
                current, current_failure = candidate, result
                progress = True
                break
    for key, floor in (("max_sites", 1), ("budget", 1), ("workers", 1)):
        while current[key] > floor:
            candidate = dict(current)
            candidate[key] = current[key] - 1
            result = check_case(candidate)
            if result is None:
                break
            current, current_failure = candidate, result
    return current, current_failure


def describe_case(case: dict) -> str:
    return (f"seed={case['seed']} specs={case['specs']} "
            f"budget={case['budget']} max_sites={case['max_sites']} "
            f"backend={case['backend']} workers={case['workers']}")


def assert_case_holds(seed: int) -> None:
    case = generate_case(seed)
    failure = check_case(case)
    if failure is None:
        return
    minimal, minimal_failure = shrink_case(case, failure)
    pytest.fail(
        f"campaign property violated for seed {seed}: {failure}\n"
        f"minimal reproduction after shrinking: {minimal_failure}\n"
        f"  {describe_case(minimal)}")


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_random_scopes_preserve_campaign_invariants(seed):
    assert_case_holds(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_random_scopes_extended_sweep(seed):
    assert_case_holds(seed)


def test_generation_is_seed_deterministic():
    """The harness itself must be reproducible: same seed, same case."""
    assert generate_case(3) == generate_case(3)
    assert generate_case(3) != generate_case(4)


def test_shrinker_minimises_a_synthetic_failure():
    """Feed the shrinker a case that 'fails' whenever pic8259 is in
    scope and verify it reduces to that one spec with every knob at
    its floor."""
    case = {"seed": 0, "specs": ("busmouse", "cs4236", "pic8259"),
            "budget": 3, "max_sites": 7, "backend": "process",
            "workers": 3}

    def fake_check(candidate):
        return "synthetic failure" if "pic8259" in candidate["specs"] \
            else None

    original_check = globals()["check_case"]
    globals()["check_case"] = fake_check
    try:
        minimal, failure = shrink_case(case, "synthetic failure")
    finally:
        globals()["check_case"] = original_check
    assert failure == "synthetic failure"
    assert minimal["specs"] == ("pic8259",)
    assert minimal["max_sites"] == 1
    assert minimal["budget"] == 1
    assert minimal["workers"] == 1
