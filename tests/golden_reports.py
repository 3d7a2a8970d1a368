#!/usr/bin/env python3
"""Regenerate tests/golden/reports.json, the registry reports that
tests/test_identities.py compares every run against.

The file maps a configuration label to its reports, as IdentityReport.to_dict
without the run time (`millis`).  The configurations are the default, max_n
0 to 5, one rational weight grid of mixed sign, and every fault in
faults.FAULT_TARGETS: CorruptingFamilies(family, i) for i = 0, 1, 2, run on
that family's target entries only.  A change that alters a golden report
must say which entries changed and why.

Usage: PYTHONPATH=src python tests/golden_reports.py
"""

import json
from fractions import Fraction
from pathlib import Path

from faults import FAULT_TARGETS, CorruptingFamilies

from delannoy_jacobi.identities import REGISTRY, SuiteConfig, run_identity

GOLDEN = Path(__file__).parent / "golden" / "reports.json"


def configurations() -> dict[str, tuple[SuiteConfig, list[str]]]:
    """Each label with its config and the entries it runs, in run order."""
    everything = sorted(REGISTRY)
    out = {"default": (SuiteConfig(), everything)}
    for max_n in range(6):
        out[f"max_n={max_n}"] = (SuiteConfig(max_n=max_n), everything)
    grid = (Fraction(-1, 2), Fraction(3), Fraction(2, 5))
    out["weight_grid=-1/2,3,2/5"] = (SuiteConfig(weight_grid=grid), everything)
    for family, targets in sorted(FAULT_TARGETS.items()):
        for index in range(3):
            config = SuiteConfig(families=CorruptingFamilies(family, index))
            out[f"fault={family}/{index}"] = (config, targets)
    return out


def reports(label: str) -> list[dict]:
    """The reports of one configuration, as they are stored in the file."""
    config, ids = configurations()[label]
    records = [run_identity(id, config).to_dict() for id in ids]
    for record in records:
        del record["millis"]
    # A JSON round trip, so tuples compare equal to the stored lists.
    return json.loads(json.dumps(records))


def main() -> None:
    golden = {label: reports(label) for label in configurations()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} configurations to {GOLDEN}")


if __name__ == "__main__":
    main()
