"""The benchmark's three workloads: seeded request lists and the passes that
run them.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one returns.  An operation is one
registry entry (verify-cold) or one request (compute-*).  Requests go
through cli.main(argv) in-process, as a one-shot CLI call would, or through
the library where the CLI cannot express them (polynomial weights, Cayley
substitution).  The program receives only the generated inputs.
"""

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction

import delannoy_jacobi
from delannoy_jacobi import cli, families, identities, paths
from delannoy_jacobi.polynomial import X

import speed
from spans import Caches

DEFAULT_SEED = 0
POLY_WEIGHTS = paths.WeightTriple.of(1, X, -1)
CACHES = Caches(delannoy_jacobi)


@dataclass(frozen=True)
class Request:
    """One operation: kind is "entry" (a registry id), "cli" (an argv) or
    the name of a library call; args holds its arguments."""

    kind: str
    args: tuple

    @property
    def label(self) -> str:
        return f"{self.kind} {' '.join(str(a) for a in self.args)}"


def generate(workload: str, seed: int) -> list[Request]:
    """The workload's fixed operation list for this seed.

    Sizes follow a fixed schedule, so that every seed has the same shape of
    work and the latency quantiles do not hinge on which request a seed
    happens to put next to them; the seed draws the orientation (m, n) or
    (n, m) of compute-scalar's requests (compute-poly runs each shape in both),
    the signs and order of the weights, the Jacobi parameters within
    a few units, the other families' parameters, the output formats and the
    order of the requests.
    """
    if workload == "verify-cold":
        # The registry at its default SuiteConfig has no free input.
        return [Request("entry", (id,)) for id in sorted(identities.REGISTRY)]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "compute-scalar":
        return _scalar_requests(rng)
    if workload == "compute-poly":
        return _poly_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _weights(rng: random.Random) -> list[str]:
    # Every request gets the same three magnitudes, in a seeded order and
    # with seeded signs, so that its cost depends on its size, not on how
    # many bits the draw happened to give its weights.
    magnitudes = [Fraction(5, 7), Fraction(11, 9), Fraction(13, 8)]
    rng.shuffle(magnitudes)
    return [f"--{flag}={rng.choice((-1, 1)) * value}" for flag, value in zip("uvw", magnitudes)]


def _oriented(rng: random.Random, m: int, n: int) -> tuple[int, int]:
    return (n, m) if rng.random() < 0.5 else (m, n)


def _fmt(rng: random.Random) -> str:
    return f"--format={rng.choice(('text', 'json', 'csv'))}"


def _scalar_requests(rng: random.Random) -> list[Request]:
    out = []
    shapes = 5 * ((8, 12), (20, 25), (35, 40), (60, 30), (45, 70), (150, 15), (100, 40),
                  (10, 150)) + 4 * ((70, 60),)
    for m, n in shapes:
        m, n = _oriented(rng, m, n)
        out.append(("delannoy", f"--m={m}", f"--n={n}", *_weights(rng)))
    for n in 5 * (10, 30, 50, 70) + 3 * (95, 120):
        out.append(("schroder", f"--n={n}", *_weights(rng)))
    for (m, count) in 3 * ((40, 10), (30, 20)) + 2 * ((25, 30),) + ((25, 45), (20, 55)):
        out.append(("sequence", "--name=central-delannoy", f"--count={count}"))
        out.append(("sequence", "--name=schroder", f"--count={count}"))
        out.append(("sequence", "--name=delannoy-row", f"--m={m}", f"--count={count}"))
    requests = [Request("cli", ("compute", *argv, _fmt(rng))) for argv in out]
    rng.shuffle(requests)
    return requests


# (alpha/n, beta/n) of the Jacobi-type requests, one per size: alpha and
# beta move the cost of these constructors by a third, so the seed only
# moves them by a few units.  Each pair keeps alpha + beta >= -n, so that no
# polynomial is identically zero.
JACOBI_SHAPES = ((-0.9, 0.0), (-0.5, -0.4), (0.0, -0.9), (0.05, 0.05), (-0.2, -0.7))


def _poly_requests(rng: random.Random) -> list[Request]:
    requests = []
    for family in sorted(cli.POLY_FAMILIES):
        # The five Jacobi-type families cost far more than the other four.
        heavy = family in ("jacobi", "shifted-jacobi", "romanovski", "legendre", "shifted-legendre")
        bases = (40, 50, 60, 80, 145) if heavy else (40, 55, 70, 90, 110, 130, 150)
        for k, n in enumerate(bases):
            if heavy:
                alpha_share, beta_share = JACOBI_SHAPES[k]
                alpha = min(10, max(-n, round(alpha_share * n) + rng.randint(-2, 2)))
                beta = min(10, max(-n - min(alpha, 0), round(beta_share * n) + rng.randint(-2, 2)))
            else:  # only laguerre-gen reads beta, which must be >= 0
                alpha, beta = rng.randint(-n, 10), rng.randint(0, 10)
            argv = ("compute", "poly", f"--family={family}", f"--n={n}",
                    f"--alpha={alpha}", f"--beta={beta}", _fmt(rng))
            requests.append(Request("cli", argv))
    # Each shape once in each orientation: a DP's cost depends on which side
    # is longer, and (22, 26) sits at the p90, which moved by a fifth between
    # seeds that drew its slower side twice and those that drew it never.
    for m, n in ((8, 10), (12, 12), (15, 18), (20, 16), (22, 26), (10, 24)):
        requests += [Request("delannoy_weighted", (m, n)), Request("delannoy_weighted", (n, m))]
    for m, n in ((20, 25), (30, 35), (45, 40), (60, 55), (35, 60), (50, 20)):
        requests += [Request("delannoy_closed", (m, n)), Request("delannoy_closed", (n, m))]
    for n in 2 * (10, 15, 20, 25, 30, 38):
        requests.append(Request("schroder_weighted", (n,)))
    for n in 2 * (30, 45, 60, 80, 95, 110):
        requests.append(Request("cayley", (n,)))
    rng.shuffle(requests)
    return requests


def execute(request: Request, config=identities.DEFAULT_CONFIG) -> str:
    """Run one operation and return its output as text.

    Library functions are looked up on their module at call time, so that a
    Tracer's wrappers are the ones called.
    """
    kind, args = request.kind, request.args
    if kind == "entry":
        report = identities.run_identity(args[0], config)
        return f"{report.status} {report.cases_run}"
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return out.getvalue() if code == 0 else f"exit {code}: {err.getvalue()}"
    if kind == "cayley":
        poly = families.narayana(args[0]).cayley(args[0])
    else:
        poly = getattr(paths, kind)(*args, POLY_WEIGHTS)
    return " ".join(str(c) for c in poly.coeffs)


def digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()[:16]


@dataclass
class PassResult:
    cold_ns: list[int]          # per operation, caches empty as the workload defines
    warm_ns: list[int]          # per operation, repeated with the caches left warm
    cold_task_ns: list[float]   # mean speed.task time during each cold operation
    warm_task_ns: list[float]   # the same for the warm repeats
    outputs: list[tuple[int, str]]  # (operation index, output), cold and warm


def run_pass(workload: str, requests: list[Request], config=identities.DEFAULT_CONFIG,
             warm: bool = True) -> PassResult:
    """One cold pass over the operation list, and its warm repeat unless
    warm is false.

    verify-cold empties the caches once and runs the registry, then runs it
    again with the caches as the cold pass left them, as a fresh
    `verify --all` followed by a second one in the same process would.
    compute-* empties the caches before every request, as a one-shot CLI
    process starts, and repeats each request at once after it.

    Each operation is timed with a speed.Probe.
    """
    result = PassResult([], [], [], [], [])
    per_request = workload != "verify-cold"
    CACHES.clear()
    probe = speed.Probe()

    def timed(index, request, timings, task_times):
        output, elapsed, task_ns = probe.run(execute, request, config)
        timings.append(elapsed)
        task_times.append(task_ns)
        result.outputs.append((index, output))

    for index, request in enumerate(requests):
        if per_request:
            CACHES.clear()
        timed(index, request, result.cold_ns, result.cold_task_ns)
        if per_request and warm:
            timed(index, request, result.warm_ns, result.warm_task_ns)
    if warm and not per_request:
        for index, request in enumerate(requests):
            timed(index, request, result.warm_ns, result.warm_task_ns)
    return result


def entry_cold_ms(requests: list[Request]) -> dict[str, float]:
    """Each registry entry timed alone with every cache emptied before it, so
    that its time does not depend on which entries ran first; scaled by the
    speed task like the end-to-end times."""
    out = {}
    probe = speed.Probe()
    for request in requests:
        CACHES.clear()
        _, elapsed, task_ns = probe.run(execute, request)
        out[request.args[0]] = speed.scale(elapsed, task_ns) / 1e6
    return out
