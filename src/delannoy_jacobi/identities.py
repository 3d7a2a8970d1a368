"""Registry of named identity checks, run over finite parameter grids.

Every check compares exact rationals or exact polynomial coefficient
sequences; there is no tolerance anywhere.  A report records pass/fail, the
number of cases run, the first failing grid point (grids are iterated in
lexicographic parameter order, so a reported counterexample is minimal),
and optional free-form notes for observations that are recorded rather
than asserted.

A check that only reduces a product to a number, a moment functional of
f*g or its weighted integral over [0, 1], never builds the product: it
hands the two factors to MomentFunctional.pair or inner_weighted, which
convolve their integer numerators.  The weight-grid entries compute each
point's evaluation point and powers, and each family polynomial, outside
their innermost loop.

Family constructors are reached through the config's `families` namespace,
which tests may replace with a corrupting wrapper to confirm that the
registry actually detects wrong coefficients.
"""

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Callable

from . import families as _families
from . import functionals as fn
from . import paths as lp
from .polynomial import Poly, X, binom, pochhammer
from .render import format_poly


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

    Values the CLI rejects raise here too: a negative max_n or an empty
    grid would run entries with no case, a zero weight divides by zero, and
    a float would enter as its binary expansion.
    """

    max_n: int | None = None
    weight_grid: tuple[Fraction, ...] = (Fraction(1), Fraction(2), Fraction(3))
    families: Any = _families

    def __post_init__(self):
        max_n = self.max_n
        if max_n is not None and (
            not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 0
        ):
            raise ValueError(f"max_n must be a nonnegative int or None, got {max_n!r}")
        for value in self.weight_grid:
            if not isinstance(value, (int, Fraction)) or isinstance(value, bool):
                raise TypeError(
                    f"weight_grid values must be ints or Fractions, got {value!r}"
                )
        if not self.weight_grid or 0 in self.weight_grid:
            raise ValueError(
                f"weight_grid must list nonzero rationals, got {self.weight_grid!r}"
            )

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


class _CaseFailed(Exception):
    pass


class _Recorder:
    """Counts cases and stops a verifier at its first failing grid point."""

    def __init__(self):
        self.cases = 0
        self.counterexample: dict | None = None
        self.notes: list[str] = []

    def check(self, lhs, rhs, **params) -> None:
        self.cases += 1
        if lhs != rhs:
            self.counterexample = {
                "params": _labels(params),
                "lhs": _show(lhs),
                "rhs": _show(rhs),
            }
            raise _CaseFailed

    def check_true(self, condition: bool, claim: str, **params) -> None:
        self.cases += 1
        if not condition:
            self.counterexample = {"params": _labels(params), "claim": claim}
            raise _CaseFailed

    def note(self, text: str) -> None:
        self.notes.append(text)


def _labels(params: dict) -> dict:
    """A case's parameters as the report shows them: Fraction values (the
    weights) as "p/q" text.  Built only for a failing case, since most
    cases pass and their labels would never be read."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in params.items()}


def _show(value) -> str:
    if isinstance(value, Poly):
        return format_poly(value)
    return str(value)


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    description: str
    grid: str  # human-readable summary of the default parameter grid
    verifier: Callable[[SuiteConfig, _Recorder], None]


REGISTRY: dict[str, IdentityCheck] = {}


def _register(id: str, description: str, grid: str):
    def wrap(fn_):
        REGISTRY[id] = IdentityCheck(id, description, grid, fn_)
        return fn_

    return wrap


def lookup(id: str) -> IdentityCheck:
    """The registry entry with this id; UnknownIdentity if there is none."""
    try:
        return REGISTRY[id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownIdentity(f"unknown identity {id!r}; known ids: {known}") from None


def run_identity(id: str, config: SuiteConfig = DEFAULT_CONFIG) -> IdentityReport:
    """Run one registry entry and report the outcome."""
    entry = lookup(id)
    rec = _Recorder()
    start = time.perf_counter()
    try:
        entry.verifier(config, rec)
    except _CaseFailed:
        pass
    except Exception as exc:  # a broken input should fail the entry, not the runner
        rec.counterexample = {
            "params": {"after_cases": rec.cases},
            "error": f"{type(exc).__name__}: {exc}",
        }
    millis = int((time.perf_counter() - start) * 1000)
    return IdentityReport(
        id=id,
        status="fail" if rec.counterexample is not None else "pass",
        cases_run=rec.cases,
        counterexample=rec.counterexample,
        millis=millis,
        notes="; ".join(rec.notes) if rec.notes else None,
    )


def run_all(config: SuiteConfig = DEFAULT_CONFIG) -> list[IdentityReport]:
    """Run every registry entry; reports are sorted by id."""
    return [run_identity(id, config) for id in sorted(REGISTRY)]


def _grid(cfg: SuiteConfig) -> tuple[Fraction, ...]:
    """The weight grid as Fractions.  Values that already are Fractions are
    kept, not copied, so the triples that different entries build share
    their coefficient objects, and a DP cache hit on another entry's triple
    compares them by identity."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in cfg.weight_grid)


def _weight_points(cfg: SuiteConfig):
    """The nonzero (u, v, w) points of the weight grid, in grid order, each
    with its WeightTriple; an entry builds this list once and reuses the
    triples, so its DP cache lookups hash the same objects."""
    grid = _grid(cfg)
    return [
        (u, v, w, lp.WeightTriple.of(u, v, w))
        for u in grid
        for v in grid
        for w in grid
        if u != 0 and v != 0 and w != 0
    ]


def _x_points(cfg: SuiteConfig):
    """The (u, w) pairs of the weight grid, each with the triple (u, x, w)."""
    grid = _grid(cfg)
    return [(u, w, lp.WeightTriple.of(u, X, w)) for u in grid for w in grid]


def _powers(base: Fraction, lo: int, hi: int) -> dict[int, Fraction]:
    """base^k for lo <= k <= hi, keyed by k: the powers a weight-grid entry
    reads at one point, computed once per point rather than once per case."""
    return {k: base ** k for k in range(lo, hi + 1)}


_POLY_X_WT = lp.WeightTriple.of(1, X, -1)

# The enumeration leg's weights: unit, positive, and rational of mixed sign.
_ENUMERATION_POINTS = [
    (u, v, w, lp.WeightTriple.of(u, v, w))
    for u, v, w in [(Fraction(1), Fraction(1), Fraction(1)),
                    (Fraction(2), Fraction(3), Fraction(5)),
                    (Fraction(1, 2), Fraction(-1, 3), Fraction(7))]
]


# --------------------------------------------------------------------------
# Weighted Delannoy counts
# --------------------------------------------------------------------------


@_register(
    "wd-closed-vs-dp-vs-enum",
    "Closed binomial sum, DP recursion, and explicit path enumeration give "
    "the same weighted Delannoy totals",
    "m,n <= 6 on the weight grid; enumeration leg for m+n <= 8",
)
def _wd_closed_vs_dp_vs_enum(cfg: SuiteConfig, rec: _Recorder) -> None:
    top = cfg.cap(6)
    points = _weight_points(cfg)
    for m in range(top + 1):
        for n in range(top + 1):
            for u, v, w, wt in points:
                rec.check(
                    lp.delannoy_weighted(m, n, wt),
                    lp.delannoy_closed(m, n, wt),
                    m=m, n=n, u=u, v=v, w=w,
                )
            # Polynomial weights exercise the same code path symbolically.
            rec.check(
                lp.delannoy_weighted(m, n, _POLY_X_WT),
                lp.delannoy_closed(m, n, _POLY_X_WT),
                m=m, n=n, weights="(1, x, -1)",
            )
    for m in range(top + 1):
        for n in range(top + 1):
            if m + n > 8:
                continue
            # Every enumerated path with d northeast steps weighs
            # u^(m-d) v^(n-d) w^d, so the paths are summed by that count.
            tally = lp.diagonal_tally(m, n)
            for u, v, w, wt in _ENUMERATION_POINTS:
                total = sum(
                    npaths * u ** (m - d) * v ** (n - d) * w ** d
                    for d, npaths in enumerate(tally)
                )
                rec.check(
                    Poly.constant(total), lp.delannoy_weighted(m, n, wt),
                    m=m, n=n, u=u, v=v, w=w, route="enumeration",
                )


@_register(
    "wcd-legendre",
    "Diagonal weighted Delannoy totals match the shifted Legendre value "
    "(-w)^n P~_n(-uv/w)",
    "n <= 6; (u,v,w) on the weight grid; plus the v = x polynomial form",
)
def _wcd_legendre(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    points = [(u, v, w, wt, -w, -u * v / w) for u, v, w, wt in _weight_points(cfg)]
    x_points = _x_points(cfg)
    for n in range(cfg.cap(6) + 1):
        p = F.shifted_legendre(n)
        for u, v, w, wt, minus_w, at in points:
            lhs = lp.delannoy_weighted(n, n, wt).constant_value()
            rec.check(lhs, minus_w ** n * p(at), n=n, u=u, v=v, w=w)
        for u, w, wt in x_points:
            lhs = lp.delannoy_weighted(n, n, wt)
            rhs = (-w) ** n * p.compose_affine(-u / w, 0)
            rec.check(lhs, rhs, n=n, u=u, w=w, v="x")


@_register(
    "wcd-legendre-swap",
    "Diagonal weighted Delannoy totals match the swapped form "
    "w^n P~_n(uv/w + 1)",
    "n <= 6; (u,v,w) on the weight grid; plus the v = x polynomial form",
)
def _wcd_legendre_swap(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    points = [(u, v, w, wt, u * v / w + 1) for u, v, w, wt in _weight_points(cfg)]
    x_points = _x_points(cfg)
    for n in range(cfg.cap(6) + 1):
        p = F.shifted_legendre(n)
        for u, v, w, wt, at in points:
            lhs = lp.delannoy_weighted(n, n, wt).constant_value()
            rec.check(lhs, w ** n * p(at), n=n, u=u, v=v, w=w)
        for u, w, wt in x_points:
            lhs = lp.delannoy_weighted(n, n, wt)
            rhs = w ** n * p.compose_affine(u / w, 1)
            rec.check(lhs, rhs, n=n, u=u, w=w, v="x")


@_register(
    "wd-jacobi",
    "Weighted Delannoy totals to (n+beta, n) match "
    "u^beta (-w)^n P~_n^(0,beta)(-uv/w)",
    "n <= 6, beta in [-n, 4], (u,v,w) on the weight grid",
)
def _wd_jacobi(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(6)
    points = [
        (u, v, w, wt, -u * v / w, _powers(u, -top, 4), _powers(-w, 0, top))
        for u, v, w, wt in _weight_points(cfg)
    ]
    for n in range(top + 1):
        for beta in range(-n, 5):
            p = F.shifted_jacobi(n, 0, beta)
            for u, v, w, wt, at, u_pow, w_pow in points:
                lhs = lp.delannoy_weighted(n + beta, n, wt).constant_value()
                rhs = u_pow[beta] * w_pow[n] * p(at)
                rec.check(lhs, rhs, n=n, beta=beta, u=u, v=v, w=w)


@_register(
    "wd-jacobi-swap",
    "Weighted Delannoy totals to (n+beta, n) match the swapped form "
    "u^beta w^n P~_n^(beta,0)(uv/w + 1)",
    "n <= 6, beta in [-n, 4], (u,v,w) on the weight grid",
)
def _wd_jacobi_swap(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(6)
    points = [
        (u, v, w, wt, u * v / w + 1, _powers(u, -top, 4), _powers(w, 0, top))
        for u, v, w, wt in _weight_points(cfg)
    ]
    for n in range(top + 1):
        for beta in range(-n, 5):
            p = F.shifted_jacobi(n, beta, 0)
            for u, v, w, wt, at, u_pow, w_pow in points:
                lhs = lp.delannoy_weighted(n + beta, n, wt).constant_value()
                rhs = u_pow[beta] * w_pow[n] * p(at)
                rec.check(lhs, rhs, n=n, beta=beta, u=u, v=v, w=w)


@_register(
    "dp1",
    "Plain Delannoy numbers equal Jacobi values at 3: "
    "d_{n+alpha,n} = P_n^(alpha,0)(3), negative alpha included",
    "n <= 8, alpha in [-n, 5]",
)
def _dp1(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(cfg.cap(8) + 1):
        for alpha in range(-n, 6):
            rec.check(
                lp.delannoy_weighted(n + alpha, n).constant_value(),
                F.jacobi(n, alpha, 0)(3),
                n=n, alpha=alpha,
            )


@_register(
    "llp",
    "Shifted Jacobi polynomials are the weighted path totals at "
    "(u,v,w) = (1, x, -1), as exact polynomials",
    "n <= 6, beta in [-n, 4]",
)
def _llp(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(cfg.cap(6) + 1):
        for beta in range(-n, 5):
            rec.check(
                F.shifted_jacobi(n, 0, beta),
                lp.delannoy_weighted(n + beta, n, _POLY_X_WT),
                n=n, beta=beta,
            )


@_register(
    "modified-delannoy",
    "Strictly-upward lattice path counts equal Jacobi values at 3: "
    "d~_{n+beta,n} = P_n^(0,beta)(3)",
    "n <= 6, beta in [0, 4]",
)
def _modified_delannoy(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(cfg.cap(6) + 1):
        for beta in range(5):
            rec.check(
                Fraction(lp.modified_delannoy(n + beta, n)),
                F.jacobi(n, 0, beta)(3),
                n=n, beta=beta,
            )


# --------------------------------------------------------------------------
# Orthogonality
# --------------------------------------------------------------------------


@_register(
    "orth-0beta",
    "Monomials of lower order are orthogonal to P~_n^(0,beta) under the "
    "x^beta weight on [0,1]",
    "m < n <= 6, beta in [0, 4]",
)
def _orth_0beta(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for beta in range(5):
        for n in range(cfg.cap(6) + 1):
            p = F.shifted_jacobi(n, 0, beta)
            for m in range(n):
                value = fn.inner_weighted(Poly.monomial(m), p, 0, beta)
                rec.check(value, Fraction(0), beta=beta, n=n, m=m)


@_register(
    "orth-full",
    "Gram matrices of the shifted Jacobi families under the "
    "(1-x)^alpha x^beta weight on [0,1] are diagonal with positive diagonal",
    "n <= 6, alpha and beta in [0, 3]",
)
def _orth_full(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(6)
    for alpha in range(4):
        for beta in range(4):
            polys = [F.shifted_jacobi(n, alpha, beta) for n in range(top + 1)]
            for m in range(top + 1):
                for n in range(top + 1):
                    value = fn.inner_weighted(polys[m], polys[n], alpha, beta)
                    if m != n:
                        rec.check(value, Fraction(0), alpha=alpha, beta=beta, m=m, n=n)
                    else:
                        rec.check_true(
                            value > 0, "diagonal Gram entry must be positive",
                            alpha=alpha, beta=beta, n=n,
                        )


@_register(
    "epl",
    "The weighted-integral and factorial-sum sides of the pair-counting "
    "identity agree, vanish for m < n, and match the brute-force signed "
    "pair enumeration where the cap allows",
    "n, m, beta <= 5; pair oracle up to 8 elements",
)
def _epl(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(5)
    for n in range(top + 1):
        for m in range(top + 1):
            for beta in range(top + 1):
                lhs = math.factorial(n + m + beta + 1) * fn.inner_weighted(
                    Poly.monomial(m), F.shifted_jacobi(n, 0, beta), 0, beta
                )
                rhs = sum(
                    (-1) ** k
                    * binom(n + beta, k)
                    * binom(n, k)
                    * math.factorial(k)
                    * math.factorial(n + m + beta - k)
                    for k in range(n + 1)
                )
                rec.check(lhs, Fraction(rhs), n=n, m=m, beta=beta)
                if m < n:
                    rec.check(Fraction(rhs), Fraction(0), n=n, m=m, beta=beta,
                              claim="vanishes below the diagonal")
                if n + m + beta + 1 <= 8:
                    rec.check(
                        Fraction(lp.valid_pair_signed_sum(n, m, beta)),
                        Fraction(rhs),
                        n=n, m=m, beta=beta, route="pair enumeration",
                    )


@_register(
    "abdec",
    "(x-1)^alpha P~_n^(alpha,beta) decomposes as the alternating sum of "
    "x^(alpha-i) P~_n^(0,alpha+beta-i)",
    "n <= 6, alpha in [0, 4], beta in [0, 3]",
)
def _abdec(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for alpha in range(5):
        shift = (X - 1) ** alpha
        # term i of the sum is binom(alpha, i) (-1)^i x^(alpha-i) P~_n^(0,alpha+beta-i)
        scaled = [Poly.monomial(alpha - i, binom(alpha, i) * (-1) ** i) for i in range(alpha + 1)]
        for beta in range(4):
            for n in range(cfg.cap(6) + 1):
                lhs = shift * F.shifted_jacobi(n, alpha, beta)
                rhs = sum(
                    (
                        monomial * F.shifted_jacobi(n, 0, alpha + beta - i)
                        for i, monomial in enumerate(scaled)
                    ),
                    Poly(),
                )
                rec.check(lhs, rhs, alpha=alpha, beta=beta, n=n)


@_register(
    "laguerre-orth",
    "The factorial functional annihilates off-diagonal Laguerre products, "
    "plain and x^beta-weighted; the integral and factorial sides of the "
    "monomial bridge agree; diagonal values are recorded, not asserted",
    "m, n <= 6 off-diagonal; bridge for n, m, beta <= 5",
)
def _laguerre_orth(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(6)
    functional = fn.factorial_functional(2 * top + 6)
    for m in range(top + 1):
        for n in range(top + 1):
            if m != n:
                rec.check(
                    functional.pair(F.laguerre(m), F.laguerre(n)), Fraction(0), m=m, n=n
                )
    for beta in range(5):
        for m in range(top + 1):
            weighted = Poly.monomial(beta) * F.laguerre_gen(m, beta)
            for n in range(top + 1):
                if m != n:
                    rec.check(
                        functional.pair(weighted, F.laguerre_gen(n, beta)),
                        Fraction(0),
                        beta=beta, m=m, n=n,
                    )
    bridge_top = cfg.cap(5)
    for n in range(bridge_top + 1):
        for m in range(bridge_top + 1):
            monomial = Poly.monomial(m)
            lhs = math.factorial(n + m + 1) * fn.inner_weighted(monomial, F.shifted_legendre(n))
            rec.check(
                lhs, functional.pair(monomial, F.laguerre(n)), n=n, m=m, form="plain"
            )
            for beta in range(bridge_top + 1):
                lhs = math.factorial(n + m + beta + 1) * fn.inner_weighted(
                    monomial, F.shifted_jacobi(n, 0, beta), 0, beta
                )
                rec.check(
                    lhs,
                    functional.pair(Poly.monomial(m + beta), F.laguerre_gen(n, beta)),
                    n=n, m=m, beta=beta, form="weighted",
                )
    diag = [str(functional.pair(F.laguerre(n), F.laguerre(n))) for n in range(top + 1)]
    rec.note(
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
    "beta <= 6, beta <= n <= 10",
)
def _bneg(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for beta in range(7):
        for n in range(beta, cfg.cap(10) + 1):
            rec.check(
                F.shifted_jacobi(n, 0, -beta),
                Poly.monomial(beta) * F.shifted_jacobi(n - beta, 0, beta),
                beta=beta, n=n,
            )
    rec.note(
        "right-hand side carries the (0, beta) parameter pair; the plain "
        "shifted Legendre variant fails already at n=2, beta=1"
    )


@_register(
    "bneg-symmetry",
    "The first beta entries of the negative-parameter sequence are "
    "symmetric: index n matches index beta-1-n, in both the 2x+1 and 2x-1 "
    "transformed forms",
    "beta <= 12, 0 <= n <= beta-1",
)
def _bneg_symmetry(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for beta in range(1, 13):
        for n in range(beta):
            rec.check(
                F.romanovski(n, 0, -beta),
                F.romanovski(beta - 1 - n, 0, -beta),
                beta=beta, n=n, form="2x+1",
            )
            rec.check(
                F.shifted_jacobi(n, 0, -beta),
                F.shifted_jacobi(beta - 1 - n, 0, -beta),
                beta=beta, n=n, form="2x-1",
            )


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
    "n = 0..6 at beta = -6",
)
def _bneg_table1(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n, expected in enumerate(_TABLE_BETA6):
        rec.check(F.shifted_jacobi(n, 0, -6), expected, n=n)


@_register(
    "romanovski-orth",
    "The finite Romanovski sequences are orthogonal under the finite moment "
    "functional; for odd beta the extra boundary polynomial joins the "
    "sequence and the extended Hankel matrix is positive definite",
    "beta = 4..12 even part; odd beta = 3..11 extension with top moment t*+1",
)
def _romanovski_orth(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for beta in range(4, 13):
        functional = fn.lbeta_functional(beta)
        top = (beta - 2) // 2
        polys = [F.romanovski(n, 0, -beta) for n in range(top + 1)]
        for m in range(top + 1):
            for n in range(top + 1):
                value = functional.pair(polys[m], polys[n])
                if m != n:
                    rec.check(value, Fraction(0), beta=beta, m=m, n=n)
                else:
                    rec.check_true(
                        value > 0, "diagonal entry must be positive",
                        beta=beta, n=n,
                    )
    for beta in range(3, 12, 2):
        functional = fn.lbeta_functional(beta)
        boundary = (beta - 1) // 2
        extra = F.romanovski(boundary, 0, -beta)
        for m in range(boundary):
            rec.check(
                functional.pair(F.romanovski(m, 0, -beta), extra),
                Fraction(0),
                beta=beta, m=m, n=boundary, claim="extension orthogonality",
            )
        threshold = fn.lbeta_extension_threshold(beta)
        if beta == 3:
            rec.check(threshold, Fraction(1, 2), beta=3, claim="threshold value")
        matrix = fn.hankel_mbeta(beta, threshold + 1)
        for k, minor in enumerate(fn.leading_principal_minors(matrix), start=1):
            rec.check_true(
                minor > 0, "leading principal minor must be positive",
                beta=beta, order=k,
            )
        rec.check(fn.det_exact(fn.hankel_mbeta(beta, threshold)), Fraction(0),
                  beta=beta, claim="determinant vanishes at the threshold")


@_register(
    "borth2",
    "The alternating triple-binomial sum vanishes below the diagonal "
    "(the multiset-cancellation identity)",
    "beta <= 14, m < n <= (beta-2)/2",
)
def _borth2(cfg: SuiteConfig, rec: _Recorder) -> None:
    for beta in range(4, 15):
        for n in range(1, (beta - 2) // 2 + 1):
            for m in range(n):
                total = sum(
                    (-1) ** j
                    * binom(n, j)
                    * binom(m + j, m)
                    * binom(beta - 2 - m - j, n - m - 1)
                    for j in range(n + 1)
                )
                rec.check(total, 0, beta=beta, n=n, m=m)


# --------------------------------------------------------------------------
# Schroeder numbers, antiderivatives, Narayana polynomials
# --------------------------------------------------------------------------


@_register(
    "schroder",
    "All Schroeder routes agree: path DP at (1,x,-1), the closed Catalan "
    "sum, the division form from the (1,-1) family, the weighted "
    "specializations, and the value 2/(n+1) P_n^(-1,1)(3)",
    "n <= 8 polynomial forms; n <= 6 weight grid; n <= 10 value form",
)
def _schroder(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n, expected in enumerate((1, 2, 6, 22, 90)):
        count = sum(1 for _ in lp.schroder_enumerate(n))
        rec.check(count, expected, n=n, route="enumeration")
        rec.check(
            lp.schroder_weighted(n).constant_value(), Fraction(expected),
            n=n, route="dp",
        )
    for n in range(cfg.cap(8) + 1):
        sn = F.schroder_poly(n)
        rec.check(lp.schroder_weighted(n, _POLY_X_WT), sn, n=n, route="dp vs closed")
        if n >= 1:
            cleared = (X - 1) * F.shifted_jacobi(n, 1, -1)
            rec.check(cleared.coefficient(0), Fraction(0), n=n,
                      claim="constant term vanishes before division")
            rec.check(
                sn, Fraction(1, n + 1) * cleared.div_x(), n=n, route="division form",
            )
    for n in range(1, cfg.cap(10) + 1):
        rec.check(
            lp.schroder_weighted(n).constant_value(),
            Fraction(2, n + 1) * F.jacobi(n, -1, 1)(3),
            n=n, route="value at 3",
        )
    # Each point with -w, its two evaluation points -uv/w and uv/w + 1, and
    # the factor 1 + w/(uv) of the (1,-1) and (-1,1) forms.
    points = [
        (u, v, w, wt, -w, -u * v / w, u * v / w + 1, 1 + w / (u * v))
        for u, v, w, wt in _weight_points(cfg)
    ]
    for n in range(cfg.cap(6) + 1):
        sn_poly = F.schroder_poly(n)
        up_down = F.shifted_jacobi(n, 1, -1)
        down_up = F.shifted_jacobi(n, -1, 1)
        for u, v, w, wt, minus_w, at, swapped_at, factor in points:
            sn = lp.schroder_weighted(n, wt).constant_value()
            scale = minus_w ** n
            rec.check(
                sn, scale * sn_poly(at), n=n, u=u, v=v, w=w, route="scaled value",
            )
            if n >= 2:
                rec.check(
                    sn,
                    scale / (n + 1) * factor * up_down(at),
                    n=n, u=u, v=v, w=w, route="(1,-1) form",
                )
            if n >= 1:
                rec.check(
                    sn,
                    w ** n / (n + 1) * factor * down_up(swapped_at),
                    n=n, u=u, v=v, w=w, route="(-1,1) form",
                )


@_register(
    "cdrec",
    "The last-diagonal-contact recursion ties diagonal Delannoy totals to "
    "Schroeder totals, and its exact polynomial consequences hold",
    "n <= 8 on the weight grid; polynomial forms for n <= 8",
)
def _cdrec(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(8)
    points = [(u, v, w, wt, 2 * u * v) for u, v, w, wt in _weight_points(cfg)]
    for n in range(1, top + 1):
        for u, v, w, wt, two_uv in points:
            lhs = lp.delannoy_weighted(n, n, wt).constant_value()
            rhs = two_uv * sum(
                lp.delannoy_weighted(k, k, wt).constant_value()
                * lp.schroder_weighted(n - k - 1, wt).constant_value()
                for k in range(n)
            ) + w * lp.delannoy_weighted(n - 1, n - 1, wt).constant_value()
            rec.check(lhs, rhs, n=n, u=u, v=v, w=w)
    for n in range(1, top + 1):
        lhs = F.shifted_legendre(n)
        rhs = 2 * X * sum(
            (F.shifted_legendre(k) * F.schroder_poly(n - k - 1) for k in range(n)),
            Poly(),
        ) - F.shifted_legendre(n - 1)
        rec.check(lhs, rhs, n=n, form="shifted, Schroeder factors")
        rhs = 2 * sum(
            (
                F.shifted_legendre(k)
                * (X - 1)
                * Fraction(1, n - k)
                * F.shifted_jacobi(n - k - 1, 1, -1)
                for k in range(n - 1)
            ),
            Poly(),
        ) + Poly((-1, 2)) * F.shifted_legendre(n - 1)
        rec.check(lhs, rhs, n=n, form="shifted, (1,-1) factors")
        rhs = sum(
            (
                F.legendre(k)
                * (X - 1)
                * Fraction(1, n - k)
                * F.jacobi(n - k - 1, 1, -1)
                for k in range(n - 1)
            ),
            Poly(),
        ) + X * F.legendre(n - 1)
        rec.check(F.legendre(n), rhs, n=n, form="plain, (1,-1) factors")


@_register(
    "antideriv",
    "x S_n is the antiderivative of P~_n, and the alpha-fold antiderivative "
    "of P~_n equals (x-1)^alpha P~_n^(alpha,-alpha) / (n+1)_alpha for "
    "alpha <= n, with the out-of-range pairs verified to fail",
    "n <= 10 for the bridge; n <= 8, 1 <= alpha <= 4 for the iterated form",
)
def _antideriv(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(1, cfg.cap(10) + 1):
        rec.check(
            X * F.schroder_poly(n),
            F.shifted_legendre(n).antiderivative(),
            n=n, form="bridge",
        )
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
                rec.check(iterated, closed, n=n, alpha=alpha, form="iterated")
                expansion = sum(
                    (
                        Fraction((-1) ** (n - j) * binom(n, j) * binom(n + j, n))
                        / pochhammer(j + 1, alpha)
                        * Poly.monomial(j + alpha)
                        for j in range(n + 1)
                    ),
                    Poly(),
                )
                rec.check(iterated, expansion, n=n, alpha=alpha, form="expansion")
            else:
                rec.check_true(
                    iterated != closed,
                    "identity must fail when the antiderivative order exceeds n",
                    n=n, alpha=alpha,
                )
    rec.note(
        "the iterated-antiderivative identity requires order <= n: the "
        "intermediate polynomials (x-1)^a P~_n^(a,-a) have nonzero value at "
        "0 once a > n (first residual: constant 1/6 at n=1, a=2); the "
        "out-of-range pairs are checked to fail"
    )


@_register(
    "narayana",
    "Narayana polynomials come from the (1,-1) family through the x/(x-1) "
    "substitution, and from the antiderivative of P~_n the same way",
    "n = 1..10",
)
def _narayana(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(1, cfg.cap(10) + 1):
        rec.check(
            (n + 1) * F.narayana(n),
            F.shifted_jacobi(n, 1, -1).cayley(n),
            n=n, form="cleared substitution",
        )
        rec.check(
            F.narayana(n),
            F.shifted_legendre(n).antiderivative().cayley(n + 1),
            n=n, form="antiderivative route",
        )


# --------------------------------------------------------------------------
# Dual routes, swap rules, three-term recurrences, Motzkin moments
# --------------------------------------------------------------------------


@_register(
    "sj-expansion",
    "The one-line product expansion agrees with (x-1)^alpha times the "
    "composed shifted Jacobi polynomial, and with the direct alpha = 0 sum",
    "n <= 8, alpha in [0, 4], beta in [-4, 4]",
)
def _sj_expansion(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    shifts = [(X - 1) ** alpha for alpha in range(5)]
    for n in range(cfg.cap(8) + 1):
        for alpha in range(5):
            for beta in range(-4, 5):
                rec.check(
                    F.sj_product_expansion(n, alpha, beta),
                    shifts[alpha] * F.shifted_jacobi(n, alpha, beta),
                    n=n, alpha=alpha, beta=beta,
                )


def _reflected(p: Poly, n: int) -> Poly:
    """(-1)^n p(-x), with the sign applied by negation, not by a product."""
    p = p.compose_affine(-1, 0)
    return -p if n % 2 else p


@_register(
    "swap-rules",
    "Parameter swaps hold as polynomial identities: reflecting x swaps "
    "(alpha, beta), for the plain, shifted, and Legendre forms",
    "n <= 8, alpha and beta in [-3, 3]",
)
def _swap_rules(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(cfg.cap(8) + 1):
        rec.check(
            _reflected(F.shifted_legendre(n), n),
            F.shifted_legendre(n).compose_affine(1, 1),
            n=n, rule="legendre shift",
        )
        for alpha in range(-3, 4):
            for beta in range(-3, 4):
                rec.check(
                    _reflected(F.jacobi(n, alpha, beta), n),
                    F.jacobi(n, beta, alpha),
                    n=n, alpha=alpha, beta=beta, rule="plain",
                )
                rec.check(
                    _reflected(F.shifted_jacobi(n, alpha, beta), n),
                    F.shifted_jacobi(n, beta, alpha).compose_affine(1, 1),
                    n=n, alpha=alpha, beta=beta, rule="shifted",
                )


@_register(
    "dual-routes",
    "Families defined twice agree: composition versus direct sum for the "
    "shifted Legendre and 2x+1-transformed families",
    "n <= 12; transformed parameters in [-3, 3]",
)
def _dual_routes(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    for n in range(cfg.cap(12) + 1):
        rec.check(
            F.shifted_legendre(n), F.shifted_legendre_sum(n), n=n, family="legendre"
        )
        for alpha in range(-3, 4):
            for beta in range(-3, 4):
                rec.check(
                    F.romanovski(n, alpha, beta),
                    F.jacobi(n, alpha, beta).compose_affine(2, 1),
                    n=n, alpha=alpha, beta=beta, family="2x+1 transform",
                )


@_register(
    "favard-legendre",
    "The monic Legendre family fits the three-term recurrence with c = 0 "
    "and lambda = (n-1)^2/((2n-1)(2n-3)); the double-factorial variant "
    "satisfies its all-integer recurrence",
    "n <= 12",
)
def _favard_legendre(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = cfg.cap(12)
    family = [F.monic_legendre(n) for n in range(top + 1)]
    fitted = fn.favard_fit(family)
    for n, (c, lam) in enumerate(fitted, start=1):
        rec.check(c, Fraction(0), n=n, coefficient="c")
        expected = Fraction(0) if n == 1 else Fraction(
            (n - 1) ** 2, (2 * n - 1) * (2 * n - 3)
        )
        rec.check(lam, expected, n=n, coefficient="lambda")
    qs = [F.legendre_q(n) for n in range(top + 1)]
    for n, q in enumerate(qs):
        rec.check_true(
            all(c.denominator == 1 for c in q.coeffs),
            "coefficients must be integers",
            n=n,
        )
    for n in range(2, top + 1):
        rec.check(
            qs[n],
            (2 * n - 1) * X * qs[n - 1] - (n - 1) ** 2 * qs[n - 2],
            n=n, form="integer recurrence",
        )


@_register(
    "favard-schroder",
    "The monic Schroeder-derived family fits the three-term recurrence with "
    "c = 1/2 and lambda = n(n-2)/(4(2n-1)(2n-3)), so lambda_2 = 0 and the "
    "induced moment functional is not quasi-definite",
    "2 <= n <= 10",
)
def _favard_schroder(cfg: SuiteConfig, rec: _Recorder) -> None:
    F = cfg.families
    top = max(cfg.cap(10), 2)
    family = [F.monic_schroder(n) for n in range(top + 1)]
    fitted = fn.favard_fit(family)
    for n in range(2, top + 1):
        c, lam = fitted[n - 1]
        rec.check(c, Fraction(1, 2), n=n, coefficient="c")
        rec.check(
            lam,
            Fraction(n * (n - 2), 4 * (2 * n - 1) * (2 * n - 3)),
            n=n, coefficient="lambda",
        )
    rec.note(
        "recurrence verified numerically on the grid; lambda_2 = 0 exactly, "
        "so no quasi-definite moment functional exists for this family"
    )


@_register(
    "motzkin-moments",
    "The height-weighted Motzkin path totals reproduce the flat moments: "
    "0 for odd length, 1/(n+1) for even length",
    "n <= 12",
)
def _motzkin_moments(cfg: SuiteConfig, rec: _Recorder) -> None:
    for n in range(cfg.cap(12) + 1):
        expected = Fraction(0) if n % 2 else Fraction(1, n + 1)
        rec.check(lp.motzkin_legendre_moment(n), expected, n=n)
    rec.note(
        "extends a reported numerical experiment; the even-length value "
        "1/(n+1) is verified on this grid, not proved"
    )
