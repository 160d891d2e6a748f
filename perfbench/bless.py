"""Regenerate the committed expected values under ``perfbench/expected``.

Run it only when the benchmark's own definition changes (op plans,
sizes, caps, seeds) — never to make a program change pass the output
checks; a program change must reproduce these values::

    PYTHONPATH=src python3 perfbench/bless.py [campaign] [drivers] [fleet]

``campaign`` evaluates all 3103 units and takes minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from common import (DEFAULT_SEED, EXPECTED_DIR, HELD_OUT_SEED, Context,
                    SetupSteps)
from hostref import HostRef
from wl_campaign import Campaign
from wl_drivers import Drivers
from wl_fleet import FleetWorkload


def bless(name: str) -> dict:
    """The expectations of one workload, observed by its own ``run``."""
    host = HostRef()
    host.sample()
    workload = {"campaign": Campaign, "drivers": Drivers,
                "fleet": FleetWorkload}[name]()
    workload.setup(SetupSteps(host), None)
    if name == "campaign":
        return workload.bless()
    with tempfile.TemporaryDirectory() as workdir:
        ctx = Context(host=host, seed=DEFAULT_SEED, seconds=0,
                      tracer=None, workdir=Path(workdir))
        if name == "drivers":
            return workload.bless(ctx, (DEFAULT_SEED, HELD_OUT_SEED))
        try:
            return workload.bless(ctx)
        finally:
            workload.close()


def main(argv: list[str]) -> int:
    for name in argv or ["campaign", "drivers", "fleet"]:
        values = bless(name)
        path = EXPECTED_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
