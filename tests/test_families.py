"""Tests for the polynomial family constructors and their cross-relations."""

import math
from fractions import Fraction as F

import pytest
from faults import clear_caches
from hypothesis import given, settings
from hypothesis import strategies as st

from delannoy_jacobi import families as fam
from delannoy_jacobi import identities, paths
from delannoy_jacobi.families import InvalidIndex
from delannoy_jacobi.polynomial import ONE, Poly, X, ZERO, binom


def _jacobi_by_poly_sum(n, alpha, beta):
    """The former body of jacobi: the sum as a loop of Poly multiplies and adds."""
    half = Poly((F(-1, 2), F(1, 2)))  # (x-1)/2
    total = ZERO
    power = ONE
    for j in range(n + 1):
        coeff = binom(n + alpha + beta + j, j) * binom(n + alpha, n - j)
        if coeff:
            total = total + coeff * power
        power = power * half
    return total


class TestJacobi:
    def test_degree_one_is_x(self):
        assert fam.jacobi(1) == X

    def test_value_at_three(self):
        assert fam.jacobi(2)(3) == 13
        assert fam.jacobi(1, 1, 0)(3) == 5

    def test_degree_for_nonnegative_parameters(self):
        for n in range(8):
            for alpha in range(4):
                for beta in range(4):
                    assert fam.jacobi(n, alpha, beta).degree == n

    def test_degree_can_drop_for_negative_beta(self):
        assert fam.shifted_jacobi(5, 0, -6) == ONE

    def test_rejects_negative_index(self):
        with pytest.raises(InvalidIndex):
            fam.jacobi(-1)

    # The full grid n <= 30, alpha and beta in [-n-2, 6] costs about 30 s of
    # oracle time (Python 3.11, 2 vCPUs), so it runs exhaustively up to
    # n = 12, at its corners for larger n, and by random draws over the rest.
    def test_matches_poly_sum_on_small_grid(self):
        for n in range(13):
            for alpha in range(-n - 2, 7):
                for beta in range(-n - 2, 7):
                    assert fam.jacobi(n, alpha, beta) == _jacobi_by_poly_sum(n, alpha, beta), (
                        n, alpha, beta,
                    )

    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_matches_poly_sum_at_grid_corners(self, n):
        # These pairs give full degree, dropped degree, the zero polynomial
        # and alpha + beta < -n.
        edges = (-n - 2, -n - 1, -n, -n // 2, -1, 0, 6)
        for alpha in edges:
            for beta in edges:
                assert fam.jacobi(n, alpha, beta) == _jacobi_by_poly_sum(n, alpha, beta), (
                    alpha, beta,
                )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_poly_sum_on_full_grid(self, data):
        n = data.draw(st.integers(min_value=13, max_value=30))
        alpha = data.draw(st.integers(min_value=-n - 2, max_value=6))
        beta = data.draw(st.integers(min_value=-n - 2, max_value=6))
        assert fam.jacobi(n, alpha, beta) == _jacobi_by_poly_sum(n, alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(0, 0), (3, -7), (-40, 6), (6, -145), (-150, 2)])
    def test_round_trip_to_romanovski_sum_at_n_145(self, alpha, beta):
        p = fam.jacobi(145, alpha, beta)
        assert p.compose_affine(2, 1) == fam.romanovski_sum(145, alpha, beta)


def _cold_compose_calls(monkeypatch, constructor, *args):
    """The value of one family call made with empty family caches, and the
    number of Poly.compose_affine calls it took."""
    calls = []
    compose = Poly.compose_affine

    def counted(self, a, b):
        calls.append((a, b))
        return compose(self, a, b)

    for value in vars(fam).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    monkeypatch.setattr(Poly, "compose_affine", counted)
    value = constructor(*args)
    monkeypatch.undo()
    return value, len(calls)


class TestOneStepConstruction:
    """Each Jacobi-type family is one Taylor shift, or none, of the
    Romanovski coefficients; the former two-shift chain is the oracle."""

    def test_romanovski_shifts_nothing(self, monkeypatch):
        value, calls = _cold_compose_calls(monkeypatch, fam.romanovski, 6, 1, -4)
        assert (value, calls) == (fam.romanovski_sum(6, 1, -4), 0)

    def test_shifted_jacobi_shifts_once(self, monkeypatch):
        value, calls = _cold_compose_calls(monkeypatch, fam.shifted_jacobi, 6, 1, -4)
        assert calls == 1
        assert value == fam.jacobi(6, 1, -4).compose_affine(2, -1)

    def test_monic_schroder_shifts_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("monic_schroder called shifted_jacobi")

        monkeypatch.setattr(fam, "shifted_jacobi", forbidden)
        value, calls = _cold_compose_calls(monkeypatch, fam.monic_schroder, 7)
        assert calls == 0
        assert value.degree == 7 and value.leading == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shifted_jacobi_matches_the_two_shift_chain(self, data):
        n = data.draw(st.integers(min_value=0, max_value=30))
        alpha = data.draw(st.integers(min_value=-n - 3, max_value=10))
        beta = data.draw(st.integers(min_value=-n - 3, max_value=10))
        expected = fam.jacobi(n, alpha, beta).compose_affine(2, -1)
        assert fam.shifted_jacobi(n, alpha, beta) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_romanovski_matches_the_two_shift_chain(self, data):
        n = data.draw(st.integers(min_value=0, max_value=30))
        alpha = data.draw(st.integers(min_value=-n - 3, max_value=10))
        beta = data.draw(st.integers(min_value=-n - 3, max_value=10))
        expected = fam.jacobi(n, alpha, beta).compose_affine(2, 1)
        assert fam.romanovski(n, alpha, beta) == expected

    @pytest.mark.parametrize("alpha, beta", [(0, 0), (3, -7), (-40, 6), (6, -145), (-150, 2)])
    def test_both_match_the_two_shift_chain_at_n_145(self, alpha, beta):
        p = fam.jacobi(145, alpha, beta)
        assert fam.shifted_jacobi(145, alpha, beta) == p.compose_affine(2, -1)
        assert fam.romanovski(145, alpha, beta) == p.compose_affine(2, 1)

    def test_monic_schroder_matches_the_division_form(self):
        for n in range(1, 41):
            cleared = (X - 1) * fam.shifted_jacobi(n, 1, -1)
            expected = F(1, binom(2 * n, n)) * cleared.div_x()
            assert fam.monic_schroder(n) == expected, n

    @pytest.mark.parametrize("constructor", [
        fam.shifted_jacobi, fam.romanovski, fam.monic_schroder,
    ])
    def test_negative_index_is_invalid(self, constructor):
        with pytest.raises(InvalidIndex):
            constructor(-1)


class TestShiftedJacobi:
    def test_examples(self):
        assert fam.shifted_jacobi(1, 0, 0) == Poly((-1, 2))
        assert fam.shifted_jacobi(1, 0, 1) == Poly((-2, 3))
        assert fam.shifted_jacobi(2, 0, -6) == Poly((10, -12, 3))

    def test_beta_minus_six_table(self):
        expected = [
            ONE,
            Poly((5, -4)),
            Poly((10, -12, 3)),
            Poly((10, -12, 3)),
            Poly((5, -4)),
            ONE,
            Poly.monomial(6),
        ]
        assert [fam.shifted_jacobi(n, 0, -6) for n in range(7)] == expected


class TestRomanovski:
    def test_examples(self):
        assert fam.romanovski(1, 0, -6) == Poly((1, -4))
        assert fam.romanovski(0, 2, 5) == ONE

    def test_relates_to_shifted_by_unit_translation(self):
        # R(x - 1) recovers the 2x-1 transform
        assert fam.romanovski(2, 0, -6).compose_affine(1, -1) == Poly((10, -12, 3))

    def test_sum_route_agrees(self):
        for n in range(13):
            for alpha in range(-3, 4):
                for beta in range(-3, 4):
                    assert fam.romanovski(n, alpha, beta) == fam.romanovski_sum(n, alpha, beta)


class TestJacobiSymmetric:
    """Szego's symmetric sum, the independent route that dual-routes
    checks jacobi against."""

    def test_examples(self):
        assert fam.jacobi_symmetric(0, 4, -7) == ONE
        assert fam.jacobi_symmetric(1) == X
        assert fam.jacobi_symmetric(2) == Poly((F(-1, 2), 0, F(3, 2)))
        assert fam.jacobi_symmetric(1, 1, 0) == Poly((F(1, 2), F(3, 2)))
        assert fam.jacobi_symmetric(2)(3) == 13

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidIndex):
            fam.jacobi_symmetric(-1, 0, 0)

    @settings(max_examples=150)
    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=-10, max_value=10),
           st.integers(min_value=-10, max_value=10))
    def test_matches_jacobi(self, n, alpha, beta):
        assert fam.jacobi_symmetric(n, alpha, beta) == fam.jacobi(n, alpha, beta)

    def test_reads_neither_romanovski_sum_nor_compose_affine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("not an independent route")

        expected = [fam.jacobi(n, -2, 3) for n in range(8)]
        monkeypatch.setattr(fam, "romanovski_sum", refuse)
        monkeypatch.setattr(Poly, "compose_affine", refuse)
        assert [fam.jacobi_symmetric(n, -2, 3) for n in range(8)] == expected

    def test_wrong_romanovski_sum_fails_dual_routes(self, monkeypatch):
        # 1 added to the x coefficient of every Romanovski sum except at
        # (alpha, beta) = (0, 0), which the legendre leg reads.  Jacobi is
        # built from that sum, so only the symmetric-sum leg can catch it.
        real = fam.romanovski_sum

        def faulty(n, alpha=0, beta=0):
            p = real(n, alpha, beta)
            if (alpha, beta) == (0, 0):
                return p
            return p + X

        monkeypatch.setattr(fam, "romanovski_sum", faulty)
        clear_caches(fam, paths, identities)
        try:
            report = identities.run_identity("dual-routes")
        finally:
            monkeypatch.undo()
            clear_caches(fam, paths, identities)
        assert report.status == "fail"
        assert report.counterexample["params"]["family"] == "jacobi symmetric sum"


class TestLegendre:
    def test_examples(self):
        assert fam.legendre(1) == X
        assert fam.shifted_legendre(0) == ONE
        assert fam.shifted_legendre(2) == Poly((1, -6, 6))

    def test_sum_route_agrees(self):
        for n in range(13):
            assert fam.shifted_legendre(n) == fam.shifted_legendre_sum(n)


class TestLaguerre:
    def test_examples(self):
        assert fam.laguerre(2) == Poly((2, -4, 1))
        assert fam.laguerre_gen(1, 1) == Poly((-2, 1))
        assert fam.laguerre(0) == ONE

    def test_zero_beta_matches_plain(self):
        for n in range(7):
            assert fam.laguerre_gen(n, 0) == fam.laguerre(n)

    def test_monic_of_degree_n(self):
        for n in range(7):
            p = fam.laguerre(n)
            assert p.degree == n and p.leading == 1

    def test_matches_the_fraction_formula(self):
        # Built on ints, checked against the sum taken on Fractions.
        for beta in (0, 1, 3):
            for n in range(41):
                coeffs = [F(0)] * (n + 1)
                for k in range(n + 1):
                    coeffs[n - k] = F((-1) ** k * binom(n + beta, k) * binom(n, k)) * math.factorial(k)
                assert fam.laguerre_gen(n, beta) == Poly(coeffs), (n, beta)


class TestSjProductExpansion:
    def test_examples(self):
        assert fam.sj_product_expansion(2, 1, -1) == Poly((0, 3, -9, 6))
        assert fam.sj_product_expansion(1, 0, 1) == Poly((-2, 3))
        assert fam.sj_product_expansion(0, 0, 0) == ONE

    def test_agrees_with_product(self):
        for n in range(9):
            for alpha in range(5):
                for beta in range(-4, 5):
                    assert fam.sj_product_expansion(n, alpha, beta) == (
                        (X - 1) ** alpha * fam.shifted_jacobi(n, alpha, beta)
                    )

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            fam.sj_product_expansion(2, -1, 0)


class TestSchroderPoly:
    def test_examples(self):
        assert fam.schroder_poly(2) == Poly((1, -3, 2))
        assert fam.schroder_poly(0) == ONE

    def test_scaled_value_gives_plain_count(self):
        # (-1)^n S_n(-1) recovers the unweighted total
        assert fam.schroder_poly(2)(-1) * (-1) ** 2 == 6


class TestNarayana:
    def test_examples(self):
        assert fam.narayana(2) == Poly((0, 1, 1))
        assert fam.narayana(1) == X
        assert fam.narayana(3) == Poly((0, 1, 3, 1))

    def test_rejects_index_zero(self):
        with pytest.raises(InvalidIndex):
            fam.narayana(0)

    def test_integer_coefficients(self):
        for n in range(1, 11):
            assert all(c.denominator == 1 for c in fam.narayana(n).coeffs)

    def test_matches_the_fraction_formula(self):
        # Exact division by n, checked against (1/n) C(n,k-1) C(n,k) taken
        # as a Fraction.
        for n in range(1, 41):
            coeffs = [F(0)] + [F(binom(n, k - 1) * binom(n, k), n) for k in range(1, n + 1)]
            assert fam.narayana(n) == Poly(coeffs), n


@pytest.mark.parametrize("constructor, args", [(fam.narayana, (12,)), (fam.laguerre_gen, (9, 2))])
def test_integer_families_are_born_in_integer_form(constructor, args):
    # Their coefficients are integers, so no Fraction is built until the
    # coefficients are read.
    fam.narayana.cache_clear()
    fam.laguerre_gen.cache_clear()
    p = constructor(*args)
    assert p._coeffs is None and p._numerators()[1] == 1
    assert all(type(c) is F and c.denominator == 1 for c in p.coeffs)


class TestSwapRules:
    def test_plain(self):
        for n in range(9):
            for alpha in range(-3, 4):
                for beta in range(-3, 4):
                    lhs = (-1) ** n * fam.jacobi(n, alpha, beta).compose_affine(-1, 0)
                    assert lhs == fam.jacobi(n, beta, alpha)

    def test_shifted(self):
        for n in range(9):
            for alpha in range(-3, 4):
                for beta in range(-3, 4):
                    lhs = (-1) ** n * fam.shifted_jacobi(n, alpha, beta).compose_affine(-1, 0)
                    assert lhs == fam.shifted_jacobi(n, beta, alpha).compose_affine(1, 1)


class TestMonicVariants:
    def test_monic_legendre(self):
        for n in range(10):
            p = fam.monic_legendre(n)
            assert p.degree == n and p.leading == 1
        assert fam.monic_legendre(2) == Poly((F(-1, 3), 0, 1))

    def test_legendre_q_integer_coefficients(self):
        for n in range(13):
            assert all(c.denominator == 1 for c in fam.legendre_q(n).coeffs)
        assert fam.legendre_q(2) == Poly((-1, 0, 3))

    def test_monic_schroder(self):
        assert fam.monic_schroder(0) == ONE
        assert fam.monic_schroder(1) == Poly((-1, 1))
        assert fam.monic_schroder(2) == Poly((F(1, 2), F(-3, 2), 1))
        for n in range(9):
            p = fam.monic_schroder(n)
            assert p.degree == n and p.leading == 1
