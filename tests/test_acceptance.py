"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line (visible under pytest -s).
Criterion 10 is expected to fail as stated: the iterated-antiderivative
closed form provably requires the order to be at most the polynomial index,
and the stated grid includes pairs beyond that bound; the strict xfail pins
the failure, and the companion test verifies the identity on its actual
domain together with the exact residuals outside it.  Details are asserted
in test_criterion_10_restricted_domain_and_boundary below.
"""

import functools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from oracles import gram_matrix, is_diagonal

from delannoy_jacobi import families as fam
from delannoy_jacobi import functionals as fn
from delannoy_jacobi import paths as lp
from delannoy_jacobi.cli import main as cli_main
from delannoy_jacobi.identities import REGISTRY, SuiteConfig, run_all, run_identity
from delannoy_jacobi.polynomial import Poly, X, binom, pochhammer
from delannoy_jacobi.paths import WeightTriple

GRID3 = [(F(u), F(v), F(w)) for u in (1, 2, 3) for v in (1, 2, 3) for w in (1, 2, 3)]

CENTRAL_DELANNOY = [1, 3, 13, 63, 321, 1683, 8989]
SCHRODER_NUMBERS = [1, 2, 6, 22, 90]


def criterion(number: int, description: str):
    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {description}")
                raise
            print(f"criterion {number:2d}: PASS - {description}")

        return run

    return wrap


@criterion(1, "central Delannoy 1..8989 by sequence command, enumeration, DP, closed form")
def test_criterion_1_central_delannoy(capsys):
    code = cli_main(["compute", "sequence", "--name", "central-delannoy", "--count", "7"])
    printed = capsys.readouterr().out.strip()
    with capsys.disabled():
        assert code == 0
        assert printed == ", ".join(str(v) for v in CENTRAL_DELANNOY)
        for n, expected in enumerate(CENTRAL_DELANNOY):
            assert lp.delannoy_weighted(n, n).constant_value() == expected
            assert lp.delannoy_closed(n, n).constant_value() == expected
            if n <= 5:
                assert sum(1 for _ in lp.delannoy_enumerate(n, n)) == expected


@criterion(2, "d(n,n) equals the Legendre value at 3 for n <= 12")
def test_criterion_2_central_values():
    for n in range(13):
        assert lp.delannoy_weighted(n, n).constant_value() == fam.legendre(n)(3)


@criterion(3, "d(n+alpha,n) equals the Jacobi value at 3, alpha down to -n, n <= 8")
def test_criterion_3_jacobi_values():
    for n in range(9):
        for alpha in range(-n, 6):
            assert lp.delannoy_weighted(n + alpha, n).constant_value() == fam.jacobi(
                n, alpha, 0
            )(3), (n, alpha)


@criterion(4, "weighted Delannoy identities on the full {1,2,3}^3 grid, n <= 6, beta in [-n,4]")
def test_criterion_4_weighted_identities():
    for n in range(7):
        for beta in range(-n, 5):
            for u, v, w in GRID3:
                value = lp.delannoy_weighted(n + beta, n, WeightTriple.of(u, v, w)).constant_value()
                assert value == u ** beta * (-w) ** n * fam.shifted_jacobi(n, 0, beta)(
                    -u * v / w
                ), (n, beta, u, v, w)
                assert value == u ** beta * w ** n * fam.shifted_jacobi(n, beta, 0)(
                    u * v / w + 1
                ), (n, beta, u, v, w)


@criterion(5, "the seven beta = -6 table rows reproduce exactly")
def test_criterion_5_table_rows():
    expected = [
        Poly((1,)),
        Poly((5, -4)),
        Poly((10, -12, 3)),
        Poly((10, -12, 3)),
        Poly((5, -4)),
        Poly((1,)),
        Poly.monomial(6),
    ]
    assert [fam.shifted_jacobi(n, 0, -6) for n in range(7)] == expected


@criterion(6, "Gram matrices diagonal with positive diagonal, alpha, beta <= 3, n <= 6")
def test_criterion_6_gram_diagonal():
    for alpha in range(4):
        for beta in range(4):
            polys = [fam.shifted_jacobi(n, alpha, beta) for n in range(7)]
            grams = gram_matrix(
                polys, lambda p, q: fn.inner_weighted(p, q, alpha, beta)
            )
            assert is_diagonal(grams), (alpha, beta)
            assert all(grams[n][n] > 0 for n in range(7)), (alpha, beta)


@criterion(7, "integral and factorial sides of the pair identity agree; oracle matches to 8 elements")
def test_criterion_7_pair_identity():
    for n in range(6):
        for m in range(6):
            for beta in range(6):
                lhs = math.factorial(n + m + beta + 1) * (
                    X ** (m + beta) * fam.shifted_jacobi(n, 0, beta)
                ).integrate(0, 1)
                rhs = sum(
                    (-1) ** k * binom(n + beta, k) * binom(n, k)
                    * math.factorial(k) * math.factorial(n + m + beta - k)
                    for k in range(n + 1)
                )
                assert lhs == rhs, (n, m, beta)
                if m < n:
                    assert rhs == 0, (n, m, beta)
                if n + m + beta + 1 <= 8:
                    assert lp.valid_pair_signed_sum(n, m, beta) == rhs, (n, m, beta)


@criterion(8, "finite Romanovski orthogonality, odd-beta extension, positive minors, t*(3) = 1/2")
def test_criterion_8_romanovski():
    for beta in range(4, 13):
        functional = fn.lbeta_functional(beta)
        top = (beta - 2) // 2
        polys = [fam.romanovski(n, 0, -beta) for n in range(top + 1)]
        grams = gram_matrix(polys, lambda p, q: functional(p * q))
        assert is_diagonal(grams), beta
        assert all(grams[n][n] != 0 for n in range(top + 1)), beta
    assert fn.lbeta_extension_threshold(3) == F(1, 2)
    for beta in (3, 5, 7, 9, 11):
        functional = fn.lbeta_functional(beta)
        boundary = (beta - 1) // 2
        extra = fam.romanovski(boundary, 0, -beta)
        for m in range(boundary):
            assert functional(fam.romanovski(m, 0, -beta) * extra) == 0, (beta, m)
        threshold = fn.lbeta_extension_threshold(beta)
        minors = fn.leading_principal_minors(fn.hankel_mbeta(beta, threshold + 1))
        assert all(minor > 0 for minor in minors), beta


@criterion(9, "Schroeder counts by three routes, the value identity to n = 10, and the recursion grid")
def test_criterion_9_schroder():
    for n, expected in enumerate(SCHRODER_NUMBERS):
        assert sum(1 for _ in lp.schroder_enumerate(n)) == expected
        assert lp.schroder_weighted(n).constant_value() == expected
        assert (-1) ** n * fam.schroder_poly(n)(-1) == expected
    for n in range(1, 11):
        assert lp.schroder_weighted(n).constant_value() == F(2, n + 1) * fam.jacobi(
            n, -1, 1
        )(3), n
    for n in range(1, 9):
        for u, v, w in GRID3:
            wt = WeightTriple.of(u, v, w)
            lhs = lp.delannoy_weighted(n, n, wt).constant_value()
            rhs = 2 * u * v * sum(
                lp.delannoy_weighted(k, k, wt).constant_value()
                * lp.schroder_weighted(n - k - 1, wt).constant_value()
                for k in range(n)
            ) + w * lp.delannoy_weighted(n - 1, n - 1, wt).constant_value()
            assert lhs == rhs, (n, u, v, w)


def _iterated_antiderivative(n: int, alpha: int) -> Poly:
    p = fam.shifted_legendre(n)
    for _ in range(alpha):
        p = p.antiderivative()
    return p


def _antiderivative_closed_form(n: int, alpha: int) -> Poly:
    return (
        (X - 1) ** alpha
        * fam.shifted_jacobi(n, alpha, -alpha)
        * F(1, pochhammer(n + 1, alpha))
    )


@pytest.mark.xfail(
    strict=True,
    reason="the closed form for the iterated antiderivative requires the "
    "order to be at most n; the stated grid includes pairs with order > n "
    "where both sides provably differ (first at n=1, order 2, residual 1/6)",
)
@criterion(10, "iterated antiderivative closed form over the full stated grid "
               "(EXPECTED FAIL: holds only for order <= n; see the companion "
               "restricted-domain criterion and the notes above)")
def test_criterion_10_antiderivative_closed_form_as_stated():
    for n in range(1, 9):
        for alpha in range(1, 5):
            assert _iterated_antiderivative(n, alpha) == _antiderivative_closed_form(
                n, alpha
            ), (n, alpha)


@criterion(10, "iterated antiderivative closed form on its domain (order <= n), "
               "with exact residuals verified outside it")
def test_criterion_10_restricted_domain_and_boundary():
    for n in range(1, 9):
        for alpha in range(1, 5):
            lhs = _iterated_antiderivative(n, alpha)
            rhs = _antiderivative_closed_form(n, alpha)
            if alpha <= n:
                assert lhs == rhs, (n, alpha)
            else:
                assert lhs != rhs, (n, alpha)
    # Frozen residual at the first out-of-domain pair: the closed form
    # exceeds the true double antiderivative of 2x - 1 by the constant 1/6.
    assert _antiderivative_closed_form(1, 2) - _iterated_antiderivative(1, 2) == Poly((F(1, 6),))


@criterion(11, "Narayana polynomials from the cleared x/(x-1) substitution, n <= 10")
def test_criterion_11_narayana():
    assert fam.shifted_jacobi(2, 1, -1).cayley(2) == 3 * fam.narayana(2)
    for n in range(1, 11):
        assert fam.shifted_jacobi(n, 1, -1).cayley(n) == (n + 1) * fam.narayana(n), n


@criterion(12, "three-term recurrence coefficients: monic Legendre, integer q-variant, monic Schroeder")
def test_criterion_12_favard():
    legendre_fit = fn.favard_fit([fam.monic_legendre(n) for n in range(13)])
    for n, (c, lam) in enumerate(legendre_fit, start=1):
        assert c == 0, n
        expected = F(0) if n == 1 else F((n - 1) ** 2, (2 * n - 1) * (2 * n - 3))
        assert lam == expected, n
    qs = [fam.legendre_q(n) for n in range(13)]
    for q in qs:
        assert all(coeff.denominator == 1 for coeff in q.coeffs)
    for n in range(2, 13):
        assert qs[n] == (2 * n - 1) * X * qs[n - 1] - (n - 1) ** 2 * qs[n - 2], n
    schroder_fit = fn.favard_fit([fam.monic_schroder(n) for n in range(11)])
    assert schroder_fit[1] == (F(1, 2), F(0))  # lambda_2 = 0 exactly
    for n in range(2, 11):
        c, lam = schroder_fit[n - 1]
        assert c == F(1, 2), n
        assert lam == F(n * (n - 2), 4 * (2 * n - 1) * (2 * n - 3)), n


@criterion(13, "weighted Motzkin totals are 0 (odd) and 1/(n+1) (even) for n <= 12")
def test_criterion_13_motzkin():
    for n in range(13):
        expected = F(0) if n % 2 else F(1, n + 1)
        assert lp.motzkin_legendre_moment(n) == expected, n


@criterion(14, "factorial functional annihilates off-diagonal Laguerre products; diagonal recorded, not asserted")
def test_criterion_14_laguerre_bridge():
    functional = fn.factorial_functional(24)
    for m in range(7):
        for n in range(7):
            if m != n:
                assert functional(fam.laguerre(m) * fam.laguerre(n)) == 0, (m, n)
                for beta in range(5):
                    assert functional(
                        X ** beta * fam.laguerre_gen(m, beta) * fam.laguerre_gen(n, beta)
                    ) == 0, (m, n, beta)
    # The diagonal is recorded by the registry entry and flagged against the
    # often-quoted delta n! normalization; the suite never asserts either
    # diagonal constant, and the recorded values are the computed (n!)^2.
    report = run_identity("laguerre-orth")
    assert report.status == "pass"
    assert "(n!)^2" in report.notes and "not asserted" in report.notes
    diagonal = [functional(fam.laguerre(n) ** 2) for n in range(7)]
    assert diagonal == [math.factorial(n) ** 2 for n in range(7)]
    assert str(diagonal[2]) in report.notes  # the recorded value 4 appears


@criterion(15, "any single flipped family coefficient trips at least one registry identity")
def test_criterion_15_fault_injection():
    from faults import FAULT_TARGETS, CorruptingFamilies

    for family in sorted(FAULT_TARGETS):
        # A representative coefficient index: 3 for every family but one.
        representative = {"sj_product_expansion": 4}.get(family, 3)
        for index in range(representative + 1):
            config = SuiteConfig(max_n=4, families=CorruptingFamilies(family, index))
            reports = [run_identity(id, config) for id in FAULT_TARGETS[family]]
            failing = [r for r in reports if r.status == "fail"]
            assert failing, (family, index)
            assert all(r.counterexample is not None for r in failing)
    # Minimality spot check: the corrupted table constructor must be caught
    # at the lexicographically first grid point.
    config = SuiteConfig(families=CorruptingFamilies("shifted_jacobi", 0))
    report = run_identity("bneg-table1", config)
    assert report.status == "fail"
    assert report.cases_run == 1 and report.counterexample["params"] == {"n": 0}


# Cases each entry runs at the default grids, 10 524 in all, as the
# benchmark's reference records them: a faster run must come from faster
# code, never from a smaller grid.
DEFAULT_CASE_COUNTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)["cases"]


@criterion(0, "whole registry passes with default grids")
def test_criterion_0_full_registry():
    reports = run_all()
    assert len(reports) == len(REGISTRY)
    failures = [r.id for r in reports if r.status != "pass"]
    assert not failures, failures
    assert {r.id: r.cases_run for r in reports} == DEFAULT_CASE_COUNTS
    assert sum(DEFAULT_CASE_COUNTS.values()) == 10524
