"""Write perfbench/reference.json from the current package.

    python3 perfbench/make_reference.py

Records the number of cases each registry entry runs at the default
SuiteConfig (every entry must pass), and digests of the default seed's
compute-poly outputs for the families the library offers no second route
for.  Run it only in a change that alters the benchmark, never in one that
claims a gain: the gate is only as good as the reference it compares with.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from delannoy_jacobi import identities  # noqa: E402

import workloads  # noqa: E402

NO_SECOND_ROUTE = {f"--family={f}" for f in ("laguerre", "laguerre-gen", "narayana")}


def main() -> int:
    reports = identities.run_all()
    failed = [r.id for r in reports if r.status != "pass"]
    if failed:
        print(f"error: registry entries fail: {', '.join(failed)}", file=sys.stderr)
        return 1
    digests = {}
    for request in workloads.generate("compute-poly", workloads.DEFAULT_SEED):
        if request.kind == "cli" and set(request.args) & NO_SECOND_ROUTE:
            workloads.CACHES.clear()
            digests[request.label] = workloads.digest(workloads.execute(request))
    reference = {"cases": {r.id: r.cases_run for r in reports}, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    cases = sum(r.cases_run for r in reports)
    print(f"{len(reports)} entries, {cases} cases, {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
