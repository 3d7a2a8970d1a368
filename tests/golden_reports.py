#!/usr/bin/env python3
"""Regenerate the two golden files in tests/golden/.

reports.json holds the registry reports that tests/test_identities.py
compares every run against.  It maps a configuration label to its reports,
as IdentityReport.to_dict without the run time (`millis`).  The
configurations are the default, max_n 0 to 5, one rational weight grid of
mixed sign, and every fault in faults.FAULT_TARGETS: CorruptingFamilies(
family, i) for i = 0, 1, 2, run on that family's target entries only.

outputs.json holds what `delannoy-jacobi compute` prints, which
tests/test_cli.py compares against.  Each record is one request: its argv,
its exit code and the sha256 of its stdout, and for a non-zero exit the
last line of its stderr (argparse wraps the usage lines above it by terminal
width and Python version).  The requests are every distinct CLI request of
seed 0 in perfbench/workloads.py's compute-scalar and compute-poly, then
EDGE_CASES.  The test reads each argv from the file, so a later change to
the workloads does not change what it runs; rerunning this script after
such a change rewrites the list as well.

A change that alters a golden record must say which records changed and why.

Usage: PYTHONPATH=src python tests/golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from faults import FAULT_TARGETS, CorruptingFamilies

from delannoy_jacobi import cli
from delannoy_jacobi.identities import REGISTRY, SuiteConfig, run_identity

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
OUTPUTS = GOLDEN.parent / "outputs.json"
PERFBENCH = Path(__file__).parent.parent / "perfbench"

FORMATS = ("text", "json", "csv")
# Each in all three formats: empty results, zero weights, a polynomial that
# is identically zero, a negative p/q weight as a separate token, and inputs
# that exit with 1 (computation error) or 2 (usage error).
EDGE_CASES = [
    ("compute", "sequence", "--name", "central-delannoy", "--count", "0"),
    ("compute", "sequence", "--name", "schroder", "--count", "0"),
    ("compute", "sequence", "--name", "delannoy-row", "--m", "3", "--count", "0"),
    ("compute", "sequence", "--name", "delannoy-row", "--m", "0", "--count", "4"),
    ("compute", "delannoy", "--m", "0", "--n", "0"),
    ("compute", "delannoy", "--m", "4", "--n", "0", "--u", "3/2"),
    ("compute", "schroder", "--n", "0"),
    ("compute", "poly", "--family", "jacobi", "--n", "0"),
    ("compute", "poly", "--family", "laguerre-gen", "--n", "0", "--beta", "3"),
    ("compute", "delannoy", "--m", "2", "--n", "3", "--u", "0", "--v", "0", "--w", "0"),
    ("compute", "schroder", "--n", "3", "--u", "0", "--v", "0", "--w", "0"),
    ("compute", "poly", "--family", "jacobi", "--n", "2", "--alpha", "-2", "--beta", "-1"),
    ("compute", "poly", "--family", "romanovski", "--n", "1", "--alpha", "-1", "--beta", "-1"),
    ("compute", "delannoy", "--m", "3", "--n", "2", "--v", "-1/3", "--w", "-2"),
    ("compute", "sequence", "--name", "schroder", "--count", "-1"),
    ("compute", "sequence", "--name", "delannoy-row", "--count", "4"),
    ("compute", "delannoy", "--m", "-1", "--n", "2"),
    ("compute", "schroder", "--n", "-3"),
    ("compute", "poly", "--family", "jacobi", "--n", "-1"),
    ("compute", "poly", "--family", "laguerre-gen", "--n", "2", "--beta", "-1"),
    ("compute", "delannoy", "--m", "٢", "--n", "2"),
    ("compute", "delannoy", "--m", "2", "--n", "2", "--u", "0.5"),
    ("compute", "schroder", "--u", "2"),
    ("compute", "sequence", "--name", "schroder", "--count", "1.5"),
]


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


def cli_requests() -> list[list[str]]:
    """The argv of every request that outputs.json records, in order."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    requests = [
        list(request.args)
        for name in ("compute-scalar", "compute-poly")
        for request in workloads.generate(name, 0)
        if request.kind == "cli"
    ]
    requests += [[*argv, "--format", fmt] for argv in EDGE_CASES for fmt in FORMATS]
    return list(map(list, dict.fromkeys(map(tuple, requests))))


def cli_output(argv: list[str]) -> dict:
    """One request run through cli.main, as it is stored in the file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    record = {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }
    if code != 0:
        record["stderr_last_line"] = err.getvalue().splitlines()[-1]
    return record


def main() -> None:
    golden = {label: reports(label) for label in configurations()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} configurations to {GOLDEN}")
    outputs = [cli_output(argv) for argv in cli_requests()]
    OUTPUTS.write_text(json.dumps(outputs, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(outputs)} requests to {OUTPUTS}")


if __name__ == "__main__":
    main()
