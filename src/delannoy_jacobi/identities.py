"""Registry of named identity checks, run over finite parameter grids.

Every check compares exact rationals or exact polynomial coefficient
sequences; there is no tolerance anywhere.  A report records pass/fail, the
number of cases run, the first failing grid point (grids are iterated in
lexicographic parameter order, so a reported counterexample is minimal),
and optional free-form notes for observations that are recorded rather
than asserted.

Each entry's verifier is a generator.  It does the entry's setup (family
lists, weight triples, powers, functionals, and any value that several
cases share) and yields one case per grid point, in grid order: a case
(params, lhs, rhs), whose two sides are zero-argument callables, or a
claim (params, condition, text), a zero-argument condition with the text
of what must hold.  It returns the entry's note, if any.  run_identity is
the only loop that evaluates, counts and compares cases.  It calls a
case's sides before it resumes the verifier, so a side may read the
verifier's current loop variables; and iterating a verifier without
calling any side lists the entry's grid.  Shapes that several entries
repeat are written once: each swap pair (wcd-legendre, wd-jacobi and their
-swap forms) is one generator registered twice with its form as data, and
the three Gram-matrix checks yield their cases from _gram.

A check that only reduces a product to a number, a moment functional of
f*g or its weighted integral over [0, 1], never builds the product: it
hands the two factors to MomentFunctional.pair or inner_weighted, which
convolve their integer numerators.  The path entries read their weight
triples from one cache, _weight_points, which builds each config's 27
(u, v, w) triples, the 9 (u, x, w) triples of the v = x leg, and the
fixed (1, x, -1), unit and enumeration triples once: every entry hands the
DPs the same triple objects, so a DP cache hit across entries is an
identity hit, and emptying the cache makes the next run cold again.  Every
DP total they read comes from one Delannoy and one Schroeder table per
triple (paths.delannoy_table, schroder_table), sized by one rule for the
farthest cell any entry reads, so each triple's DPs run once.  The
weight-grid right sides are homogeneous forms b^n p(a/b), with (a, b)
computed once per point, each taken by one Poly.homogenized call.

Family constructors are reached through the config's `families` namespace,
which tests may replace with a corrupting wrapper to confirm that the
registry actually detects wrong coefficients.
"""

import math
import time
from collections.abc import Callable, Generator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, NamedTuple

from . import families as _families
from . import functionals as fn
from . import paths as lp
from .polynomial import CACHE_SIZE, Poly, X, binom, pochhammer, require_rational
from .render import format_poly, quoted


class UnknownIdentity(ValueError):
    """The requested id is not in the registry."""


@dataclass(frozen=True, eq=False)
class SuiteConfig:
    """Grid caps and seams for the identity suite.

    max_n clamps every entry's index range (None keeps the defaults, which
    are sized so the whole registry runs in seconds).  weight_grid supplies
    the rational substitution points for (u, v, w).  families is the
    namespace the verifiers build polynomial families from; tests swap in a
    fault-injecting wrapper to exercise the harness itself.

    The one check of the settings, the CLI's config file included: a
    negative max_n or an empty grid would run entries with no case, a zero
    weight divides by zero, and a float, which require_rational refuses,
    would enter as its binary expansion.  The grid is kept as Fractions,
    with each given Fraction itself; the entries' weight triples are built
    from it once per config (_weight_points).
    """

    max_n: int | None = None
    weight_grid: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(3))
    families: Any = _families

    def __post_init__(self):
        if self.max_n is not None and (type(self.max_n) is not int or self.max_n < 0):
            shown = quoted(repr(self.max_n))
            raise ValueError(f"max_n must be nonnegative (an int or None), got {shown}")
        grid = tuple(
            v if type(v) is Fraction else Fraction(require_rational(v)) for v in self.weight_grid
        )
        if not grid or 0 in grid:
            shown = quoted(", ".join(map(str, grid)))
            raise ValueError(f"weight_grid must list nonzero rationals, got {shown}")
        object.__setattr__(self, "weight_grid", grid)

    def cap(self, default: int) -> int:
        if self.max_n is None:
            return default
        return min(default, self.max_n)


DEFAULT_CONFIG = SuiteConfig()


@dataclass
class IdentityReport:
    id: str
    status: str  # "pass" | "fail"
    cases_run: int
    counterexample: dict | None
    millis: int
    notes: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


# A verifier yields one tuple per grid point, built by _case or _claim, and
# returns its note.  The tuples are plain, the cheapest kind to build: the
# default registry yields 10 524 of them.
Cases = Generator[tuple, None, str | None]


def _case(lhs: Callable[[], Any], rhs: Callable[[], Any], **params) -> tuple:
    """A grid point that holds when lhs() == rhs()."""
    return params, lhs, rhs


def _claim(condition: Callable[[], bool], text: str, **params) -> tuple:
    """A grid point that holds when condition() is true; text says what
    must hold."""
    return params, condition, text


def _labels(params: dict) -> dict:
    """A case's parameters as the report shows them: Fraction values (the
    weights) as "p/q" text.  Built only for a failing case, since most
    cases pass and their labels would never be read."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in params.items()}


def _show(value) -> str:
    if isinstance(value, Poly):
        return format_poly(value)
    return str(value)


def _failure(case: tuple) -> dict | None:
    """Evaluate one case, lhs before rhs, or one claim: its counterexample,
    or None if it holds."""
    params, first, second = case
    if isinstance(second, str):  # a claim: its condition and text
        return None if first() else {"params": _labels(params), "claim": second}
    lhs, rhs = first(), second()
    if lhs != rhs:
        return {"params": _labels(params), "lhs": _show(lhs), "rhs": _show(rhs)}
    return None


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    verifier: Callable[[SuiteConfig], Cases]


REGISTRY: dict[str, IdentityCheck] = {}


def _register(id: str, description: str):
    def wrap(fn_):
        REGISTRY[id] = IdentityCheck(id, description, fn_)
        return fn_

    return wrap


def lookup(id: str) -> IdentityCheck:
    """The registry entry with this id; UnknownIdentity if there is none."""
    try:
        return REGISTRY[id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownIdentity(f"unknown identity {quoted(id)}; known ids: {known}") from None


def run_identity(id: str, config: SuiteConfig = DEFAULT_CONFIG) -> IdentityReport:
    """Run one registry entry and report the outcome.

    This is the only loop over an entry's cases.  It evaluates each case
    before it resumes the verifier, so a side's lambda may read the
    verifier's current loop variables.  A case counts once both sides are
    evaluated; the run stops at the first case that does not hold, and an
    exception, in a side or in the verifier's own setup, fails the entry
    after the cases counted so far.  The verifier's return value is the
    report's note, which a failed run does not reach.
    """
    entry = lookup(id)
    cases, counterexample, notes = 0, None, None
    verifier = entry.verifier(config)
    start = time.perf_counter()
    try:
        while counterexample is None:
            try:
                case = next(verifier)
            except StopIteration as done:
                notes = done.value
                break
            counterexample = _failure(case)
            cases += 1
    except Exception as exc:  # a broken input should fail the entry, not the runner
        counterexample = {
            "params": {"after_cases": cases},
            "error": f"{type(exc).__name__}: {exc}",
        }
    millis = int((time.perf_counter() - start) * 1000)
    return IdentityReport(
        id=id,
        status="fail" if counterexample is not None else "pass",
        cases_run=cases,
        counterexample=counterexample,
        millis=millis,
        notes=notes,
    )


def run_all(config: SuiteConfig = DEFAULT_CONFIG) -> list[IdentityReport]:
    """Run every registry entry; reports are sorted by id."""
    return [run_identity(id, config) for id in sorted(REGISTRY)]


class _WeightPoints(NamedTuple):
    """The weight triples of one config, with their weights.  uvw holds
    (u, v, w, triple) for every (u, v, w) of the grid, in grid order, and uxw
    holds (u, w, triple) for the v = x leg's (u, x, w).  poly_x is the
    triple (1, x, -1), whose totals are the shifted Jacobi and Schroeder
    polynomials, unit is (1, 1, 1), whose totals are the plain counts, and
    enumeration holds (u, v, w, triple) for the enumeration leg's three
    fixed points, unit first."""

    uvw: tuple
    uxw: tuple
    poly_x: lp.WeightTriple
    unit: lp.WeightTriple
    enumeration: tuple


@lru_cache(maxsize=CACHE_SIZE)
def _weight_points(cfg: SuiteConfig) -> _WeightPoints:
    """The weight triples of cfg, built once and read by every entry that
    runs on them.  So all of them pass the DPs the same triple objects: a
    DP cache hit across entries is an identity hit, each triple hashes and
    clears its weights once, and a cold run stays cold, since emptying this
    cache builds new triples, the fixed (1, x, -1) and enumeration triples
    among them.  SuiteConfig compares by identity and refuses a zero
    weight, so two configs never share a triple, and every grid point may
    divide by w or by uv."""
    grid = cfg.weight_grid
    one = Fraction(1)
    unit = lp.WeightTriple.of(one, one, one)
    return _WeightPoints(
        tuple((u, v, w, lp.WeightTriple.of(u, v, w)) for u in grid for v in grid for w in grid),
        tuple((u, w, lp.WeightTriple.of(u, X, w)) for u in grid for w in grid),
        lp.WeightTriple.of(1, X, -1),
        unit,
        # Unit, positive, and rational of mixed sign.
        ((one, one, one, unit),)
        + tuple((u, v, w, lp.WeightTriple.of(u, v, w))
                for u, v, w in [(Fraction(2), Fraction(3), Fraction(5)),
                                (Fraction(1, 2), Fraction(-1, 3), Fraction(7))]),
    )


# The farthest cells that any entry reads, whatever the config: every
# Delannoy total lies within (n + alpha, n) of dp1, alpha <= 5 and
# n <= cap(8), and every Schroeder total within the (n, n) of schroder,
# n <= cap(10) and n <= 4 on its enumeration leg.  cap never raises a
# default, so cap(6) <= cap(8) <= cap(10) under any max_n.
def _delannoy_table(cfg: SuiteConfig, wt: lp.WeightTriple) -> lp.PackedTable:
    """Every Delannoy total the registry reads at the triple wt, from one DP run."""
    return lp.delannoy_table(cfg.cap(8) + 5, cfg.cap(8), wt)


def _schroder_table(cfg: SuiteConfig, wt: lp.WeightTriple) -> lp.PackedTable:
    """Every Schroeder total the registry reads at the triple wt, from one DP run."""
    return lp.schroder_table(max(cfg.cap(10), 4), wt)


def _powers(base: Fraction, lo: int, hi: int) -> dict[int, Fraction]:
    """base^k for lo <= k <= hi, keyed by k: the powers a weight-grid entry
    reads at one point, computed once per point rather than once per case."""
    return {k: base ** k for k in range(lo, hi + 1)}


def _swap_form(swapped: bool) -> tuple[int, int]:
    """(s, t) for one of the two forms of a weighted Delannoy total,
    (s w)^n p(s uv/w + t): (-1, 0) for the P~(-uv/w) form, (1, 1) for the
    swapped P~(uv/w + 1) form.  x -> 1 - x maps one form to the other.  As
    a homogeneous form b^n p(a/b) it has a = uv + s t w and b = s w."""
    return (1, 1) if swapped else (-1, 0)


def _gram(inner: Callable[[int, int], Fraction], size: int, positive: str | None = None,
          **params) -> Cases:
    """The cases of a size x size Gram matrix, in (m, n) order: inner(m, n)
    == 0 off the diagonal and, when positive gives the claim's text,
    inner(n, n) > 0 on it.  params lead each case's own m and n."""
    for m in range(size):
        for n in range(size):
            if m != n:
                yield _case(lambda: inner(m, n), lambda: Fraction(0), **params, m=m, n=n)
            elif positive is not None:
                yield _claim(lambda: inner(n, n) > 0, positive, **params, n=n)


# --------------------------------------------------------------------------
# Weighted Delannoy counts
# --------------------------------------------------------------------------


@_register(
    "wd-closed-vs-dp-vs-enum",
    "Closed binomial sum, DP recursion, and explicit path enumeration give "
    "the same weighted Delannoy totals",
)
def _wd_closed_vs_dp_vs_enum(cfg: SuiteConfig) -> Cases:
    top = cfg.cap(6)
    weights = _weight_points(cfg)
    points = [(u, v, w, wt, _delannoy_table(cfg, wt)) for u, v, w, wt in weights.uvw]
    poly_x = weights.poly_x
    poly_table = _delannoy_table(cfg, poly_x)
    enumeration = [(u, v, w, _delannoy_table(cfg, wt)) for u, v, w, wt in weights.enumeration]
    for m in range(top + 1):
        for n in range(top + 1):
            for u, v, w, wt, table in points:
                yield _case(lambda: table[m, n],
                            lambda: lp.delannoy_closed(m, n, wt),
                            m=m, n=n, u=u, v=v, w=w)
            # Polynomial weights exercise the same code path symbolically.
            yield _case(lambda: poly_table[m, n],
                        lambda: lp.delannoy_closed(m, n, poly_x),
                        m=m, n=n, weights="(1, x, -1)")
    for m in range(top + 1):
        for n in range(top + 1):
            if m + n > 8:
                continue
            # Every enumerated path with d northeast steps weighs
            # u^(m-d) v^(n-d) w^d, so the paths are summed by that count.
            tally = lp.diagonal_tally(m, n)
            for u, v, w, table in enumeration:
                yield _case(lambda: Poly.constant(sum(npaths * u ** (m - d) * v ** (n - d) * w ** d
                                                      for d, npaths in enumerate(tally))),
                            lambda: table[m, n],
                            m=m, n=n, u=u, v=v, w=w, route="enumeration")


def _wcd_legendre(cfg: SuiteConfig, swapped: bool) -> Cases:
    F = cfg.families
    s, t = _swap_form(swapped)
    weights = _weight_points(cfg)
    points = [(u, v, w, _delannoy_table(cfg, wt), u * v + s * t * w, s * w)
              for u, v, w, wt in weights.uvw]
    # The v = x leg: each (u, w) pair of the grid with the triple (u, x, w).
    x_points = [(u, w, _delannoy_table(cfg, wt), s * w, s * u / w) for u, w, wt in weights.uxw]
    for n in range(cfg.cap(6) + 1):
        p = F.shifted_legendre(n)
        for u, v, w, table, a, b in points:
            yield _case(lambda: table[n, n].constant_value(),
                        lambda: p.homogenized(n, a, b),
                        n=n, u=u, v=v, w=w)
        for u, w, table, base, slope in x_points:
            yield _case(lambda: table[n, n],
                        lambda: base ** n * p.compose_affine(slope, t),
                        n=n, u=u, w=w, v="x")


_register(
    "wcd-legendre",
    "Diagonal weighted Delannoy totals match the shifted Legendre value "
    "(-w)^n P~_n(-uv/w)",
)(partial(_wcd_legendre, swapped=False))

_register(
    "wcd-legendre-swap",
    "Diagonal weighted Delannoy totals match the swapped form "
    "w^n P~_n(uv/w + 1)",
)(partial(_wcd_legendre, swapped=True))


def _wd_jacobi(cfg: SuiteConfig, swapped: bool) -> Cases:
    F = cfg.families
    top = cfg.cap(6)
    s, t = _swap_form(swapped)
    points = [
        (u, v, w, _delannoy_table(cfg, wt), u * v + s * t * w, s * w, _powers(u, -top, 4))
        for u, v, w, wt in _weight_points(cfg).uvw
    ]
    for n in range(top + 1):
        for beta in range(-n, 5):
            p = F.shifted_jacobi(n, beta, 0) if swapped else F.shifted_jacobi(n, 0, beta)
            for u, v, w, table, a, b, u_pow in points:
                yield _case(lambda: table[n + beta, n].constant_value(),
                            lambda: u_pow[beta] * p.homogenized(n, a, b),
                            n=n, beta=beta, u=u, v=v, w=w)


_register(
    "wd-jacobi",
    "Weighted Delannoy totals to (n+beta, n) match "
    "u^beta (-w)^n P~_n^(0,beta)(-uv/w)",
)(partial(_wd_jacobi, swapped=False))

_register(
    "wd-jacobi-swap",
    "Weighted Delannoy totals to (n+beta, n) match the swapped form "
    "u^beta w^n P~_n^(beta,0)(uv/w + 1)",
)(partial(_wd_jacobi, swapped=True))


@_register(
    "dp1",
    "Plain Delannoy numbers equal Jacobi values at 3: "
    "d_{n+alpha,n} = P_n^(alpha,0)(3), negative alpha included",
)
def _dp1(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    table = _delannoy_table(cfg, _weight_points(cfg).unit)
    for n in range(cfg.cap(8) + 1):
        for alpha in range(-n, 6):
            yield _case(lambda: table[n + alpha, n].constant_value(),
                        lambda: F.jacobi(n, alpha, 0)(3),
                        n=n, alpha=alpha)


@_register(
    "llp",
    "Shifted Jacobi polynomials are the weighted path totals at "
    "(u,v,w) = (1, x, -1), as exact polynomials",
)
def _llp(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    table = _delannoy_table(cfg, _weight_points(cfg).poly_x)
    for n in range(cfg.cap(6) + 1):
        for beta in range(-n, 5):
            yield _case(lambda: F.shifted_jacobi(n, 0, beta),
                        lambda: table[n + beta, n],
                        n=n, beta=beta)


@_register(
    "modified-delannoy",
    "Strictly-upward lattice path counts equal Jacobi values at 3: "
    "d~_{n+beta,n} = P_n^(0,beta)(3)",
)
def _modified_delannoy(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n in range(cfg.cap(6) + 1):
        for beta in range(5):
            yield _case(lambda: Fraction(lp.modified_delannoy(n + beta, n)),
                        lambda: F.jacobi(n, 0, beta)(3),
                        n=n, beta=beta)


# --------------------------------------------------------------------------
# Orthogonality
# --------------------------------------------------------------------------


@_register(
    "orth-0beta",
    "Monomials of lower order are orthogonal to P~_n^(0,beta) under the "
    "x^beta weight on [0,1]",
)
def _orth_0beta(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for beta in range(5):
        for n in range(cfg.cap(6) + 1):
            p = F.shifted_jacobi(n, 0, beta)
            for m in range(n):
                yield _case(lambda: fn.inner_weighted(Poly.monomial(m), p, 0, beta),
                            lambda: Fraction(0),
                            beta=beta, n=n, m=m)


@_register(
    "orth-full",
    "Gram matrices of the shifted Jacobi families under the "
    "(1-x)^alpha x^beta weight on [0,1] are diagonal with positive diagonal",
)
def _orth_full(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = cfg.cap(6)
    for alpha in range(4):
        for beta in range(4):
            polys = [F.shifted_jacobi(n, alpha, beta) for n in range(top + 1)]
            yield from _gram(lambda m, n: fn.inner_weighted(polys[m], polys[n], alpha, beta),
                             top + 1, "diagonal Gram entry must be positive",
                             alpha=alpha, beta=beta)


@_register(
    "epl",
    "The weighted-integral and factorial-sum sides of the pair-counting "
    "identity agree, vanish for m < n, and match the brute-force signed "
    "pair enumeration where the cap allows",
)
def _epl(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = cfg.cap(5)
    for n in range(top + 1):
        for m in range(top + 1):
            for beta in range(top + 1):
                rhs = sum(
                    (-1) ** k
                    * binom(n + beta, k)
                    * binom(n, k)
                    * math.factorial(k)
                    * math.factorial(n + m + beta - k)
                    for k in range(n + 1)
                )
                yield _case(lambda: math.factorial(n + m + beta + 1) * fn.inner_weighted(
                                Poly.monomial(m), F.shifted_jacobi(n, 0, beta), 0, beta),
                            lambda: Fraction(rhs),
                            n=n, m=m, beta=beta)
                if m < n:
                    yield _case(lambda: Fraction(rhs),
                                lambda: Fraction(0),
                                n=n, m=m, beta=beta, claim="vanishes below the diagonal")
                if n + m + beta + 1 <= 8:
                    yield _case(lambda: Fraction(lp.valid_pair_signed_sum(n, m, beta)),
                                lambda: Fraction(rhs),
                                n=n, m=m, beta=beta, route="pair enumeration")


@_register(
    "abdec",
    "(x-1)^alpha P~_n^(alpha,beta) decomposes as the alternating sum of "
    "x^(alpha-i) P~_n^(0,alpha+beta-i)",
)
def _abdec(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for alpha in range(5):
        shift = (X - 1) ** alpha
        # term i of the sum is binom(alpha, i) (-1)^i x^(alpha-i) P~_n^(0,alpha+beta-i)
        scaled = [Poly.monomial(alpha - i, binom(alpha, i) * (-1) ** i) for i in range(alpha + 1)]
        for beta in range(4):
            for n in range(cfg.cap(6) + 1):
                yield _case(lambda: shift * F.shifted_jacobi(n, alpha, beta),
                            lambda: sum((monomial * F.shifted_jacobi(n, 0, alpha + beta - i)
                                         for i, monomial in enumerate(scaled)), Poly()),
                            alpha=alpha, beta=beta, n=n)


@_register(
    "laguerre-orth",
    "The factorial functional annihilates off-diagonal Laguerre products, "
    "plain and x^beta-weighted; the integral and factorial sides of the "
    "monomial bridge agree; diagonal values are recorded, not asserted",
)
def _laguerre_orth(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = cfg.cap(6)
    functional = fn.factorial_functional(2 * top + 6)
    yield from _gram(lambda m, n: functional.pair(F.laguerre(m), F.laguerre(n)), top + 1)
    for beta in range(5):
        weighted = [Poly.monomial(beta) * F.laguerre_gen(m, beta) for m in range(top + 1)]
        yield from _gram(lambda m, n: functional.pair(weighted[m], F.laguerre_gen(n, beta)),
                         top + 1, beta=beta)
    bridge_top = cfg.cap(5)
    for n in range(bridge_top + 1):
        for m in range(bridge_top + 1):
            monomial = Poly.monomial(m)
            yield _case(lambda: math.factorial(n + m + 1) * fn.inner_weighted(
                            monomial, F.shifted_legendre(n)),
                        lambda: functional.pair(monomial, F.laguerre(n)),
                        n=n, m=m, form="plain")
            for beta in range(bridge_top + 1):
                yield _case(lambda: math.factorial(n + m + beta + 1) * fn.inner_weighted(
                                monomial, F.shifted_jacobi(n, 0, beta), 0, beta),
                            lambda: functional.pair(Poly.monomial(m + beta),
                                                    F.laguerre_gen(n, beta)),
                            n=n, m=m, beta=beta, form="weighted")
    diag = [str(functional.pair(F.laguerre(n), F.laguerre(n))) for n in range(top + 1)]
    return (
        "diagonal values L(l_n^2) for n = 0.. are "
        + ", ".join(diag)
        + " = (n!)^2; the often-quoted normalization delta_{m,n} n! does not "
        "match this computation, so the diagonal is recorded, not asserted"
    )


# --------------------------------------------------------------------------
# Negative second parameter and Romanovski sequences
# --------------------------------------------------------------------------


@_register(
    "bneg",
    "Above the symmetry band the negative-parameter polynomials are monomial "
    "multiples: P~_n^(0,-beta) = x^beta P~_{n-beta}^(0,beta)",
)
def _bneg(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for beta in range(7):
        for n in range(beta, cfg.cap(10) + 1):
            yield _case(lambda: F.shifted_jacobi(n, 0, -beta),
                        lambda: Poly.monomial(beta) * F.shifted_jacobi(n - beta, 0, beta),
                        beta=beta, n=n)
    return (
        "right-hand side carries the (0, beta) parameter pair; the plain "
        "shifted Legendre variant fails already at n=2, beta=1"
    )


@_register(
    "bneg-symmetry",
    "The first beta entries of the negative-parameter sequence are "
    "symmetric: index n matches index beta-1-n, in both the 2x+1 and 2x-1 "
    "transformed forms",
)
def _bneg_symmetry(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for beta in range(1, 13):
        for n in range(beta):
            yield _case(lambda: F.romanovski(n, 0, -beta),
                        lambda: F.romanovski(beta - 1 - n, 0, -beta),
                        beta=beta, n=n, form="2x+1")
            yield _case(lambda: F.shifted_jacobi(n, 0, -beta),
                        lambda: F.shifted_jacobi(beta - 1 - n, 0, -beta),
                        beta=beta, n=n, form="2x-1")


_TABLE_BETA6 = (
    Poly((1,)),
    Poly((5, -4)),
    Poly((10, -12, 3)),
    Poly((10, -12, 3)),
    Poly((5, -4)),
    Poly((1,)),
    Poly.monomial(6),
)


@_register(
    "bneg-table1",
    "The seven lowest-index shifted polynomials with second parameter -6 "
    "match the reference table exactly",
)
def _bneg_table1(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n, expected in enumerate(_TABLE_BETA6):
        yield _case(lambda: F.shifted_jacobi(n, 0, -6), lambda: expected, n=n)


@_register(
    "romanovski-orth",
    "The finite Romanovski sequences are orthogonal under the finite moment "
    "functional; for odd beta the extra boundary polynomial joins the "
    "sequence and the extended Hankel matrix is positive definite",
)
def _romanovski_orth(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for beta in range(4, 13):
        functional = fn.lbeta_functional(beta)
        top = (beta - 2) // 2
        polys = [F.romanovski(n, 0, -beta) for n in range(top + 1)]
        yield from _gram(lambda m, n: functional.pair(polys[m], polys[n]), top + 1,
                         "diagonal entry must be positive", beta=beta)
    for beta in range(3, 12, 2):
        functional = fn.lbeta_functional(beta)
        boundary = (beta - 1) // 2
        extra = F.romanovski(boundary, 0, -beta)
        for m in range(boundary):
            yield _case(lambda: functional.pair(F.romanovski(m, 0, -beta), extra),
                        lambda: Fraction(0),
                        beta=beta, m=m, n=boundary, claim="extension orthogonality")
        threshold = fn.lbeta_extension_threshold(beta)
        if beta == 3:
            yield _case(lambda: threshold, lambda: Fraction(1, 2), beta=3, claim="threshold value")
        matrix = fn.hankel_mbeta(beta, threshold + 1)
        for k, minor in enumerate(fn.leading_principal_minors(matrix), start=1):
            yield _claim(lambda: minor > 0, "leading principal minor must be positive",
                         beta=beta, order=k)
        yield _case(lambda: fn.det_exact(fn.hankel_mbeta(beta, threshold)),
                    lambda: Fraction(0),
                    beta=beta, claim="determinant vanishes at the threshold")


@_register(
    "borth2",
    "The alternating triple-binomial sum vanishes below the diagonal "
    "(the multiset-cancellation identity)",
)
def _borth2(cfg: SuiteConfig) -> Cases:
    for beta in range(4, 15):
        for n in range(1, (beta - 2) // 2 + 1):
            for m in range(n):
                yield _case(lambda: sum((-1) ** j * binom(n, j) * binom(m + j, m)
                                        * binom(beta - 2 - m - j, n - m - 1)
                                        for j in range(n + 1)),
                            lambda: 0,
                            beta=beta, n=n, m=m)


# --------------------------------------------------------------------------
# Schroeder numbers, antiderivatives, Narayana polynomials
# --------------------------------------------------------------------------


@_register(
    "schroder",
    "All Schroeder routes agree: path DP at (1,x,-1), the closed Catalan "
    "sum, the division form from the (1,-1) family, the weighted "
    "specializations, and the value 2/(n+1) P_n^(-1,1)(3)",
)
def _schroder(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    weights = _weight_points(cfg)
    unit, poly_x = _schroder_table(cfg, weights.unit), _schroder_table(cfg, weights.poly_x)
    for n, expected in enumerate((1, 2, 6, 22, 90)):
        yield _case(lambda: sum(1 for _ in lp.schroder_enumerate(n)),
                    lambda: expected,
                    n=n, route="enumeration")
        yield _case(lambda: unit[n, n].constant_value(),
                    lambda: Fraction(expected),
                    n=n, route="dp")
    for n in range(cfg.cap(8) + 1):
        sn = F.schroder_poly(n)
        yield _case(lambda: poly_x[n, n],
                    lambda: sn,
                    n=n, route="dp vs closed")
        if n >= 1:
            cleared = (X - 1) * F.shifted_jacobi(n, 1, -1)
            yield _case(lambda: cleared.coefficient(0),
                        lambda: Fraction(0),
                        n=n, claim="constant term vanishes before division")
            yield _case(lambda: sn,
                        lambda: Fraction(1, n + 1) * cleared.div_x(),
                        n=n, route="division form")
    for n in range(1, cfg.cap(10) + 1):
        yield _case(lambda: unit[n, n].constant_value(),
                    lambda: Fraction(2, n + 1) * F.jacobi(n, -1, 1)(3),
                    n=n, route="value at 3")
    # Each point with uv, uv + w and -w: (-w)^n p(-uv/w) is p's homogeneous
    # form at (uv, -w), and w^n p(uv/w + 1) at (uv + w, w); 1 + w/(uv) is
    # the factor of the (1,-1) and (-1,1) forms.
    points = [
        (u, v, w, _schroder_table(cfg, wt), u * v, u * v + w, -w, 1 + w / (u * v))
        for u, v, w, wt in weights.uvw
    ]
    for n in range(cfg.cap(6) + 1):
        sn_poly = F.schroder_poly(n)
        up_down = F.shifted_jacobi(n, 1, -1)
        down_up = F.shifted_jacobi(n, -1, 1)
        for u, v, w, table, uv, uv_w, minus_w, factor in points:
            sn = table[n, n].constant_value()
            yield _case(lambda: sn,
                        lambda: sn_poly.homogenized(n, uv, minus_w),
                        n=n, u=u, v=v, w=w, route="scaled value")
            if n >= 2:
                yield _case(lambda: sn,
                            lambda: factor / (n + 1) * up_down.homogenized(n, uv, minus_w),
                            n=n, u=u, v=v, w=w, route="(1,-1) form")
            if n >= 1:
                yield _case(lambda: sn,
                            lambda: factor / (n + 1) * down_up.homogenized(n, uv_w, w),
                            n=n, u=u, v=v, w=w, route="(-1,1) form")


@_register(
    "cdrec",
    "The last-diagonal-contact recursion ties diagonal Delannoy totals to "
    "Schroeder totals, and its exact polynomial consequences hold",
)
def _cdrec(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = cfg.cap(8)
    points = [(u, v, w, _delannoy_table(cfg, wt), _schroder_table(cfg, wt), 2 * u * v)
              for u, v, w, wt in _weight_points(cfg).uvw]
    for n in range(1, top + 1):
        for u, v, w, delannoy, schroder, two_uv in points:
            yield _case(lambda: delannoy[n, n].constant_value(),
                        lambda: two_uv * sum(
                            delannoy[k, k].constant_value()
                            * schroder[n - k - 1, n - k - 1].constant_value()
                            for k in range(n)
                        ) + w * delannoy[n - 1, n - 1].constant_value(),
                        n=n, u=u, v=v, w=w)
    for n in range(1, top + 1):
        lhs = F.shifted_legendre(n)
        yield _case(lambda: lhs,
                    lambda: 2 * X * sum(
                        (F.shifted_legendre(k) * F.schroder_poly(n - k - 1) for k in range(n)),
                        Poly(),
                    ) - F.shifted_legendre(n - 1),
                    n=n, form="shifted, Schroeder factors")
        yield _case(lambda: lhs,
                    lambda: 2 * sum(
                        (F.shifted_legendre(k) * (X - 1) * Fraction(1, n - k)
                         * F.shifted_jacobi(n - k - 1, 1, -1) for k in range(n - 1)),
                        Poly(),
                    ) + Poly((-1, 2)) * F.shifted_legendre(n - 1),
                    n=n, form="shifted, (1,-1) factors")
        yield _case(lambda: F.legendre(n),
                    lambda: sum(
                        (F.legendre(k) * (X - 1) * Fraction(1, n - k)
                         * F.jacobi(n - k - 1, 1, -1) for k in range(n - 1)),
                        Poly(),
                    ) + X * F.legendre(n - 1),
                    n=n, form="plain, (1,-1) factors")


@_register(
    "antideriv",
    "x S_n is the antiderivative of P~_n, and the alpha-fold antiderivative "
    "of P~_n equals (x-1)^alpha P~_n^(alpha,-alpha) / (n+1)_alpha for "
    "alpha <= n, with the out-of-range pairs verified to fail",
)
def _antideriv(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n in range(1, cfg.cap(10) + 1):
        yield _case(lambda: X * F.schroder_poly(n),
                    lambda: F.shifted_legendre(n).antiderivative(),
                    n=n, form="bridge")
    shifts = [(X - 1) ** alpha for alpha in range(5)]
    for n in range(1, cfg.cap(8) + 1):
        for alpha in range(1, 5):
            iterated = F.shifted_legendre(n)
            for _ in range(alpha):
                iterated = iterated.antiderivative()
            closed = (
                shifts[alpha]
                * F.shifted_jacobi(n, alpha, -alpha)
                * Fraction(1, pochhammer(n + 1, alpha))
            )
            if alpha <= n:
                yield _case(lambda: iterated, lambda: closed, n=n, alpha=alpha, form="iterated")
                yield _case(lambda: iterated,
                            lambda: sum(
                                (Fraction((-1) ** (n - j) * binom(n, j) * binom(n + j, n))
                                 / pochhammer(j + 1, alpha) * Poly.monomial(j + alpha)
                                 for j in range(n + 1)),
                                Poly(),
                            ),
                            n=n, alpha=alpha, form="expansion")
            else:
                yield _claim(lambda: iterated != closed,
                             "identity must fail when the antiderivative order exceeds n",
                             n=n, alpha=alpha)
    return (
        "the iterated-antiderivative identity requires order <= n: the "
        "intermediate polynomials (x-1)^a P~_n^(a,-a) have nonzero value at "
        "0 once a > n (first residual: constant 1/6 at n=1, a=2); the "
        "out-of-range pairs are checked to fail"
    )


@_register(
    "narayana",
    "Narayana polynomials come from the (1,-1) family through the x/(x-1) "
    "substitution, and from the antiderivative of P~_n the same way",
)
def _narayana(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n in range(1, cfg.cap(10) + 1):
        yield _case(lambda: (n + 1) * F.narayana(n),
                    lambda: F.shifted_jacobi(n, 1, -1).cayley(n),
                    n=n, form="cleared substitution")
        yield _case(lambda: F.narayana(n),
                    lambda: F.shifted_legendre(n).antiderivative().cayley(n + 1),
                    n=n, form="antiderivative route")


# --------------------------------------------------------------------------
# Dual routes, swap rules, three-term recurrences, Motzkin moments
# --------------------------------------------------------------------------


@_register(
    "sj-expansion",
    "The one-line product expansion agrees with (x-1)^alpha times the "
    "composed shifted Jacobi polynomial, and with the direct alpha = 0 sum",
)
def _sj_expansion(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    shifts = [(X - 1) ** alpha for alpha in range(5)]
    for n in range(cfg.cap(8) + 1):
        for alpha in range(5):
            for beta in range(-4, 5):
                yield _case(lambda: F.sj_product_expansion(n, alpha, beta),
                            lambda: shifts[alpha] * F.shifted_jacobi(n, alpha, beta),
                            n=n, alpha=alpha, beta=beta)


@_register(
    "swap-rules",
    "Parameter swaps hold as polynomial identities: reflecting x swaps "
    "(alpha, beta), for the plain, shifted, and Legendre forms",
)
def _swap_rules(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n in range(cfg.cap(8) + 1):
        yield _case(lambda: (-1) ** n * F.shifted_legendre(n).compose_affine(-1, 0),
                    lambda: F.shifted_legendre(n).compose_affine(1, 1),
                    n=n, rule="legendre shift")
        for alpha in range(-3, 4):
            for beta in range(-3, 4):
                yield _case(lambda: (-1) ** n * F.jacobi(n, alpha, beta).compose_affine(-1, 0),
                            lambda: F.jacobi(n, beta, alpha),
                            n=n, alpha=alpha, beta=beta, rule="plain")
                yield _case(lambda: (-1) ** n
                            * F.shifted_jacobi(n, alpha, beta).compose_affine(-1, 0),
                            lambda: F.shifted_jacobi(n, beta, alpha).compose_affine(1, 1),
                            n=n, alpha=alpha, beta=beta, rule="shifted")


@_register(
    "dual-routes",
    "Families defined twice agree: composition versus direct sum for the "
    "shifted Legendre and 2x+1-transformed families",
)
def _dual_routes(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    for n in range(cfg.cap(12) + 1):
        yield _case(lambda: F.shifted_legendre(n),
                    lambda: F.shifted_legendre_sum(n),
                    n=n, family="legendre")
        for alpha in range(-3, 4):
            for beta in range(-3, 4):
                yield _case(lambda: F.romanovski(n, alpha, beta),
                            lambda: F.jacobi(n, alpha, beta).compose_affine(2, 1),
                            n=n, alpha=alpha, beta=beta, family="2x+1 transform")


@_register(
    "favard-legendre",
    "The monic Legendre family fits the three-term recurrence with c = 0 "
    "and lambda = (n-1)^2/((2n-1)(2n-3)); the double-factorial variant "
    "satisfies its all-integer recurrence",
)
def _favard_legendre(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = cfg.cap(12)
    family = [F.monic_legendre(n) for n in range(top + 1)]
    fitted = fn.favard_fit(family)
    for n, (c, lam) in enumerate(fitted, start=1):
        yield _case(lambda: c, lambda: Fraction(0), n=n, coefficient="c")
        yield _case(lambda: lam,
                    lambda: Fraction(0) if n == 1 else Fraction(
                        (n - 1) ** 2, (2 * n - 1) * (2 * n - 3)),
                    n=n, coefficient="lambda")
    qs = [F.legendre_q(n) for n in range(top + 1)]
    for n, q in enumerate(qs):
        yield _claim(lambda: all(c.denominator == 1 for c in q.coeffs),
                     "coefficients must be integers",
                     n=n)
    for n in range(2, top + 1):
        yield _case(lambda: qs[n],
                    lambda: (2 * n - 1) * X * qs[n - 1] - (n - 1) ** 2 * qs[n - 2],
                    n=n, form="integer recurrence")


@_register(
    "favard-schroder",
    "The monic Schroeder-derived family fits the three-term recurrence with "
    "c = 1/2 and lambda = n(n-2)/(4(2n-1)(2n-3)), so lambda_2 = 0 and the "
    "induced moment functional is not quasi-definite",
)
def _favard_schroder(cfg: SuiteConfig) -> Cases:
    F = cfg.families
    top = max(cfg.cap(10), 2)
    family = [F.monic_schroder(n) for n in range(top + 1)]
    fitted = fn.favard_fit(family)
    for n in range(2, top + 1):
        c, lam = fitted[n - 1]
        yield _case(lambda: c, lambda: Fraction(1, 2), n=n, coefficient="c")
        yield _case(lambda: lam,
                    lambda: Fraction(n * (n - 2), 4 * (2 * n - 1) * (2 * n - 3)),
                    n=n, coefficient="lambda")
    return (
        "recurrence verified numerically on the grid; lambda_2 = 0 exactly, "
        "so no quasi-definite moment functional exists for this family"
    )


@_register(
    "motzkin-moments",
    "The height-weighted Motzkin path totals reproduce the flat moments: "
    "0 for odd length, 1/(n+1) for even length",
)
def _motzkin_moments(cfg: SuiteConfig) -> Cases:
    for n in range(cfg.cap(12) + 1):
        yield _case(lambda: lp.motzkin_legendre_moment(n),
                    lambda: Fraction(0) if n % 2 else Fraction(1, n + 1),
                    n=n)
    return (
        "extends a reported numerical experiment; the even-length value "
        "1/(n+1) is verified on this grid, not proved"
    )
