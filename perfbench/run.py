"""Benchmark of the delannoy_jacobi package: three workloads, end-to-end
metrics, and a separate traced run for the per-layer metrics.

    python3 perfbench/run.py --workload verify-cold --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
./src, nothing is installed.  Every metric is printed with its unit, one
per line, followed by the error rate and the environment; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end_to_end ones of
BENCHMARK.json, with --trace 1 the per_layer ones.  Exit code 0 means the
run completed (see "correct" for the outputs); 3 means the package source
is missing.  See perfbench/NOTES.md for what each workload is for.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 25
SETUP_TASK_SAMPLES = 10
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
WORKLOADS = ("verify-cold", "compute-scalar", "compute-poly")
CACHED_MODULES = ("delannoy_jacobi.paths", "delannoy_jacobi.families")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median time to import the package in a fresh interpreter, each
    import scaled by the speed task timed SETUP_TASK_SAMPLES times just
    before the interpreter starts and as often just after it ends.  The
    first import is discarded: it also writes the bytecode cache."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        "t = time.perf_counter_ns(); import delannoy_jacobi; print(time.perf_counter_ns() - t)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done, task_ns = speed.around(
            SETUP_TASK_SAMPLES, subprocess.run, [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        samples.append(speed.scale(int(done.stdout), task_ns) / 1e9)
    return statistics.median(samples[1:])


def environment() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        head = done.stdout.strip() or head
    return {
        "python": platform.python_version(),
        "git_head": head,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Verdicts:
    """Checks every output once per distinct (operation, output) pair."""

    def __init__(self, requests, check):
        self.requests, self.check = requests, check
        self.known: dict[tuple[int, str], bool] = {}
        self.attempted = self.failed = 0

    def add(self, outputs) -> None:
        for key in outputs:
            if key not in self.known:
                self.known[key] = self.check(self.requests[key[0]], key[1])
            self.attempted += 1
            self.failed += not self.known[key]


def keep_going(started: float, durations: list[float], seconds: float, minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def scaled(result, field: str) -> list[float]:
    """A pass's operation times of one field ("cold" or "warm"), scaled to
    the reference speed, in nanoseconds."""
    return [speed.scale(ns, task_ns) for ns, task_ns in
            zip(getattr(result, f"{field}_ns"), getattr(result, f"{field}_task_ns"))]


def median_times(passes, field: str) -> list[float]:
    """Each operation's median scaled time over the passes, in nanoseconds."""
    return [statistics.median(times) for times in zip(*(scaled(p, field) for p in passes))]


def end_to_end(workload, requests, seconds, workloads, setup_s):
    """Repeat cold passes (each with its warm repeat) for the run's seconds.

    Every time is scaled by the speed task timed next to it (see speed.py)
    and each operation's time is the median over the run's passes; wall
    times are sums of these, and the latency quantiles are taken over the
    operations.
    """
    passes, durations = [], []
    started = time.perf_counter()
    while keep_going(started, durations, seconds, MIN_PASSES):
        gc.collect()
        begun = time.perf_counter()
        passes.append(workloads.run_pass(workload, requests))
        durations.append(time.perf_counter() - begun)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cold = median_times(passes, "cold")
    p90 = statistics.quantiles(cold, n=10)[8]
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(cold) / 1e9,
        "warm_wall_s": sum(median_times(passes, "warm")) / 1e9,
        "req_p50_ms": statistics.median(cold) / 1e6,
        "req_p90_ms": p90 / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"{len(passes)} passes of {len(requests)} operations; latency quantiles over "
             f"{len(cold)} operations, {sum(ns > p90 for ns in cold)} above p90"]
    return metrics, passes, notes


def per_layer(workload, requests, seconds, workloads, spans):
    """Alternate untraced and traced cold passes: the traced ones give the
    per-layer figures, the medians of each kind the tracing overhead."""
    import delannoy_jacobi

    if workload == "verify-cold":
        cold_ms = workloads.entry_cold_ms(requests)
    else:  # the workload never enters the registry
        cold_ms = dict.fromkeys(delannoy_jacobi.identities.REGISTRY, 0.0)
    metrics = {f"identities.{id}.cold_ms": ms for id, ms in cold_ms.items()}
    tracer = spans.Tracer(delannoy_jacobi)
    plain, traced, snapshots, passes, durations = [], [], [], [], []
    started = time.perf_counter()
    while keep_going(started, durations, seconds, MIN_TRACED_PASSES):
        begun = time.perf_counter()
        gc.collect()
        plain_pass = workloads.run_pass(workload, requests, warm=False)
        plain.append(sum(scaled(plain_pass, "cold")) / 1e9)
        gc.collect()
        tracer.reset()
        before = {m: workloads.CACHES.hits_and_misses(m) for m in CACHED_MODULES}
        tracer.install()
        try:
            traced_pass = workloads.run_pass(workload, requests, warm=False)
        finally:
            tracer.uninstall()
        after = {m: workloads.CACHES.hits_and_misses(m) for m in CACHED_MODULES}
        traced.append(sum(scaled(traced_pass, "cold")) / 1e9)
        snapshot = tracer.snapshot()
        for module, (hits, misses) in after.items():
            hits -= before[module][0]
            misses -= before[module][1]
            ratio = hits / (hits + misses) if hits + misses else 0.0
            snapshot[f"{module.rpartition('.')[2]}.cache_hit_ratio"] = ratio
        snapshots.append(snapshot)
        passes += [plain_pass, traced_pass]
        durations.append(time.perf_counter() - begun)
    for name in snapshots[0]:
        metrics[name] = statistics.median(s[name] for s in snapshots)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = [f"{len(traced)} traced and {len(plain)} untraced cold passes; median "
             f"traced pass {statistics.median(traced):.4f} s, untraced "
             f"{statistics.median(plain):.4f} s (scaled)"]
    return metrics, passes, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delannoy_jacobi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'delannoy_jacobi'}", file=sys.stderr)
        return 3
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import workloads

    requests = workloads.generate(args.workload, args.seed)
    if args.trace:
        measured, passes, notes = per_layer(args.workload, requests, args.seconds, workloads, spans)
    else:
        setup_s = measure_setup()
        measured, passes, notes = end_to_end(args.workload, requests, args.seconds, workloads,
                                             setup_s)
    verdicts = Verdicts(requests, checks.check)
    for result in passes:
        verdicts.add(result.outputs)

    metrics = {d["name"]: {"value": measured[d["name"]], "unit": d["unit"]} for d in declared}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'error_rate':44s} {verdicts.failed / verdicts.attempted:.6g} ratio "
          f"({verdicts.failed} failed of {verdicts.attempted} operations)")
    print("environment " + json.dumps(environment()))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
