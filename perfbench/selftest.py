"""Self-test of the benchmark's request generator and correctness gates.

    python3 perfbench/selftest.py

Checks that a seed fixes the request list, that a family constructor
corrupted in one coefficient makes verify-cold report failures, and that a
corrupted compute-* output is counted as failed while the true one passes.
Exits 0 when all hold, 1 otherwise; takes about half a minute.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from delannoy_jacobi import families, identities  # noqa: E402
from delannoy_jacobi.polynomial import Poly  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Verdicts  # noqa: E402


class CorruptingFamilies:
    """Family namespace that adds 1 to one coefficient of one constructor's output."""

    def __init__(self, target: str, index: int):
        self._target, self._index = target, index

    def __getattr__(self, name):
        real = getattr(families, name)
        if name != self._target:
            return real

        def corrupted(*args, **kwargs):
            coeffs = list(real(*args, **kwargs).coeffs)
            coeffs += [Fraction(0)] * (self._index + 1 - len(coeffs))
            coeffs[self._index] += 1
            return Poly(coeffs)

        return corrupted


def corrupt(output: str) -> str:
    """The output with its last decimal digit changed."""
    for i in range(len(output) - 1, -1, -1):
        if output[i].isdigit():
            return output[:i] + str((int(output[i]) + 1) % 10) + output[i + 1:]
    raise ValueError(f"no digit to corrupt in {output!r}")


def failed(requests, outputs) -> int:
    verdicts = Verdicts(requests, checks.check)
    verdicts.add(outputs)
    return verdicts.failed


def main() -> int:
    problems = []
    for workload in ("verify-cold", "compute-scalar", "compute-poly"):
        if workloads.generate(workload, 7) != workloads.generate(workload, 7):
            problems.append(f"{workload}: seed 7 gives two different request lists")
    for workload in ("compute-scalar", "compute-poly"):
        if workloads.generate(workload, 7) == workloads.generate(workload, 8):
            problems.append(f"{workload}: seeds 7 and 8 give the same request list")

    requests = workloads.generate("verify-cold", workloads.DEFAULT_SEED)
    config = identities.SuiteConfig(families=CorruptingFamilies("jacobi", 0))
    result = workloads.run_pass("verify-cold", requests, config, warm=False)
    if failed(requests, result.outputs) == 0:
        problems.append("verify-cold: a corrupted jacobi constructor went unnoticed")

    for workload in ("compute-scalar", "compute-poly"):
        requests = workloads.generate(workload, workloads.DEFAULT_SEED)
        outputs = workloads.run_pass(workload, requests, warm=False).outputs
        if failed(requests, outputs):
            problems.append(f"{workload}: correct outputs were counted as failed")
        corrupted = [(index, corrupt(output)) for index, output in outputs]
        missed = len(outputs) - failed(requests, corrupted)
        if missed:
            problems.append(f"{workload}: {missed} corrupted outputs were counted as correct")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
