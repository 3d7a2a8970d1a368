"""Tests for moment functionals, exact matrices, and recurrence fitting."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from faults import cold_failures
from oracles import gram_matrix, integrate_by_antiderivative, is_diagonal

from delannoy_jacobi import families as fam
from delannoy_jacobi import functionals
from delannoy_jacobi.polynomial import ONE, Poly, X
from delannoy_jacobi.functionals import (
    DegreeOutOfRange,
    MomentFunctional,
    NotInRecurrence,
    det_exact,
    factorial_functional,
    favard_fit,
    hankel_mbeta,
    inner_weighted,
    lbeta_extension_threshold,
    lbeta_functional,
    leading_principal_minors,
)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=8)
small_polys = st.lists(rationals, max_size=6).map(Poly)

# Square matrices of order 1 to 5, of ints or of ints and Fractions,
# each in one of the shapes that send the elimination down another
# branch: a zero leading pivot (a row swap unless the column is zero),
# a repeated row and a zero column (determinant 0).
matrix_entries = st.one_of(st.integers(min_value=-9, max_value=9), rationals)
shaped_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.one_of(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                     min_size=n, max_size=n),
            st.lists(st.lists(matrix_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        ),
        st.sampled_from(["plain", "zero pivot", "repeated row", "zero column"]),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
)


def functional_by_fractions(functional, p):
    """The former body of MomentFunctional.__call__: one Fraction product
    per coefficient."""
    return sum((c * functional.moments[k] for k, c in enumerate(p.coeffs)), F(0))


def inner_by_fractions(f, g, alpha, beta):
    """The former body of inner_weighted: one Beta-integral Fraction per
    coefficient of f*g."""
    fact = math.factorial
    return sum(
        (
            c * F(fact(k + beta) * fact(alpha), fact(k + beta + alpha + 1))
            for k, c in enumerate((f * g).coeffs)
        ),
        F(0),
    )


class TestFactorialFunctional:
    def test_examples(self):
        L = factorial_functional(6)
        assert L(fam.laguerre(1) * fam.laguerre(2)) == 0
        assert L(ONE) == 1
        assert L(fam.laguerre(2) ** 2) == 4

    def test_moments_are_factorials(self):
        L = factorial_functional(5)
        for k in range(6):
            assert L(Poly.monomial(k)) == math.factorial(k)

    def test_degree_guard(self):
        with pytest.raises(DegreeOutOfRange):
            factorial_functional(3)(Poly.monomial(4))

    @given(small_polys)
    def test_matches_fraction_sum(self, p):
        L = factorial_functional(5)
        assert L(p) == functional_by_fractions(L, p)


class TestLbetaFunctional:
    def test_moments(self):
        L6 = lbeta_functional(6)
        assert L6.moment(0) == F(1, 5)
        assert L6.moment(1) == F(1, 20)
        assert lbeta_functional(3).moment(1) == F(1, 2)

    def test_max_degree_is_beta_minus_two(self):
        assert lbeta_functional(6).max_degree == 4

    def test_fails_loudly_past_the_boundary(self):
        L = lbeta_functional(4)
        with pytest.raises(DegreeOutOfRange):
            L(Poly.monomial(3))

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError):
            lbeta_functional(1)

    def test_equality_hash_and_repr_read_the_moments_alone(self):
        # The held integer form is derived from the moments, and none of
        # the three reads it.
        L = lbeta_functional(4)
        twin = MomentFunctional((F(1, 3), F(1, 6), F(1, 3)))
        assert L == twin and hash(L) == hash(twin)
        assert L != MomentFunctional((F(1, 3), F(1, 6)))
        assert repr(L) == "MomentFunctional(moments=(Fraction(1, 3), Fraction(1, 6), Fraction(1, 3)))"
        assert L.moments == twin.moments == (F(1, 3), F(1, 6), F(1, 3))

    @given(small_polys, st.integers(min_value=7, max_value=12))
    def test_matches_fraction_sum(self, p, beta):
        L = lbeta_functional(beta)
        assert L(p) == functional_by_fractions(L, p)
        extended = MomentFunctional(L.moments + (F(-7, 3), F(5, 11)))
        q = p * Poly.monomial(beta - p.degree) if p else p  # reaches both extra moments
        assert extended(q) == functional_by_fractions(extended, q)


class TestInnerWeighted:
    def test_examples(self):
        assert inner_weighted(fam.shifted_legendre(1), fam.shifted_legendre(2)) == 0
        assert inner_weighted(ONE, ONE) == 1
        assert (X * fam.shifted_jacobi(1, 0, 1)).integrate(0, 1) == 0

    def test_diagonal_shifted_legendre(self):
        for n in range(5):
            p = fam.shifted_legendre(n)
            assert inner_weighted(p, p) == F(1, 2 * n + 1)

    @settings(max_examples=80)
    @given(
        st.lists(rationals, max_size=6).map(Poly),
        st.lists(rationals, max_size=6).map(Poly),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_matches_integrated_weight(self, f, g, alpha, beta):
        # Multiply the weight out and integrate over [0, 1], by the integer
        # route and by the Fraction antiderivative route.
        integrand = f * g * Poly((1, -1)) ** alpha * X ** beta
        expected = integrate_by_antiderivative(integrand, 0, 1)
        assert inner_weighted(f, g, alpha, beta) == expected == integrand.integrate(0, 1)

    def test_grid_matches_integrated_weight(self):
        f, g = fam.shifted_jacobi(3, 1, 2), Poly((F(-1, 2), 3, F(2, 7)))
        for alpha in range(5):
            for beta in range(5):
                integrand = f * g * Poly((1, -1)) ** alpha * X ** beta
                expected = integrate_by_antiderivative(integrand, 0, 1)
                assert inner_weighted(f, g, alpha, beta) == expected == integrand.integrate(0, 1)

    # Zero, constant, small and large-denominator factors: the integer
    # route convolves numerators over the product of two denominators.
    factors = st.one_of(
        st.just(Poly()),
        rationals.map(Poly.constant),
        small_polys,
        st.lists(
            st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**40),
            max_size=5,
        ).map(Poly),
    )

    @settings(max_examples=150)
    @given(factors, factors, st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=6))
    def test_matches_fraction_sum(self, f, g, alpha, beta):
        assert inner_weighted(f, g, alpha, beta) == inner_by_fractions(f, g, alpha, beta)

    def test_zero_constant_and_large_denominator_factors(self):
        big = Poly((F(1, 3**40), F(-7, 2**61 - 1), F(5, 10**30 + 1)))
        for f in (Poly(), Poly.constant(F(-3, 7)), big, fam.shifted_jacobi(4, 2, 1)):
            for g in (Poly(), ONE, big, X):
                for alpha, beta in ((0, 0), (2, 5), (6, 1)):
                    expected = inner_by_fractions(f, g, alpha, beta)
                    assert inner_weighted(f, g, alpha, beta) == expected
                    assert inner_weighted(g, f, alpha, beta) == expected
        assert inner_weighted(Poly(), big, 3, 2) == 0

    @pytest.mark.parametrize("alpha, beta", [(-1, 0), (0, -1), (-2, -3)])
    @pytest.mark.parametrize("f", [X, Poly()])
    def test_negative_parameters_raise(self, f, alpha, beta):
        with pytest.raises(ValueError):
            inner_weighted(f, ONE, alpha, beta)


class TestPair:
    """MomentFunctional.pair(f, g) against the functional of the Poly
    product f*g, and inner_weighted with a monomial factor against the
    integral of the product Poly: the product routes are the oracles."""

    # Rational coefficients with zero, negative and p/q values, and the zero
    # polynomial.
    factors = st.one_of(st.just(Poly()), st.lists(rationals, max_size=7).map(Poly))
    # Degree bounds from 0 up, so that many products land past the last
    # defined moment.
    functionals = st.one_of(
        st.integers(min_value=0, max_value=12).map(factorial_functional),
        st.integers(min_value=2, max_value=14).map(lbeta_functional),
    )

    def test_examples(self):
        L = factorial_functional(6)
        assert L.pair(fam.laguerre(1), fam.laguerre(2)) == 0
        assert L.pair(fam.laguerre(2), fam.laguerre(2)) == 4
        assert L.pair(Poly(), Poly.monomial(9)) == 0
        message = r"^degree 3 exceeds defined moments \(max 2\)$"
        with pytest.raises(DegreeOutOfRange, match=message):
            lbeta_functional(4).pair(X, X ** 2)

    @settings(max_examples=300)
    @given(functionals, factors, factors)
    def test_matches_the_functional_of_the_product(self, functional, f, g):
        try:
            expected = functional(f * g)
        except DegreeOutOfRange as exc:
            with pytest.raises(DegreeOutOfRange) as info:
                functional.pair(f, g)
            assert str(info.value) == str(exc)
        else:
            assert functional.pair(f, g) == expected

    @settings(max_examples=150)
    @given(st.integers(min_value=0, max_value=6), factors, st.integers(min_value=0, max_value=6))
    def test_monomial_factor_matches_the_integral_of_the_product(self, m, p, beta):
        expected = (Poly.monomial(m + beta) * p).integrate(0, 1)
        assert inner_weighted(Poly.monomial(m), p, 0, beta) == expected


class TestGramMatrix:
    def test_shifted_legendre_diagonal(self):
        grams = gram_matrix(
            [fam.shifted_legendre(n) for n in range(3)],
            lambda p, q: (p * q).integrate(0, 1),
        )
        assert grams == [[1, 0, 0], [0, F(1, 3), 0], [0, 0, F(1, 5)]]
        assert is_diagonal(grams)

    def test_romanovski_diagonal_under_lbeta(self):
        L = lbeta_functional(6)
        grams = gram_matrix(
            [fam.romanovski(n, 0, -6) for n in range(3)],
            lambda p, q: L(p * q),
        )
        assert is_diagonal(grams)
        assert all(grams[i][i] > 0 for i in range(3))

    def test_empty_family(self):
        assert gram_matrix([], lambda p, q: 0) == []


class TestDeterminant:
    def test_examples(self):
        assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
        assert det_exact([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]) == 0
        assert det_exact(hankel_mbeta(3, F(3, 2))) == F(1, 2)

    def test_empty_matrix(self):
        assert det_exact([]) == 1

    @staticmethod
    def _leibniz(matrix):
        n = len(matrix)
        total = F(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = F(1)
            for i in range(n):
                prod *= matrix[i][perm[i]]
            total += sign * prod
        return total

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_matches_leibniz_3x3(self, matrix):
        assert det_exact(matrix) == self._leibniz(matrix)

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=30)
    def test_matches_leibniz_4x4(self, matrix):
        assert det_exact(matrix) == self._leibniz(matrix)

    @staticmethod
    def _shaped(matrix, shape, i, j):
        matrix = [list(row) for row in matrix]
        if shape == "zero pivot":
            matrix[0][0] = 0
        elif shape == "repeated row" and i != j:
            matrix[i] = list(matrix[j])
        elif shape == "zero column":
            for row in matrix:
                row[j] = 0
        return matrix

    @settings(max_examples=200)
    @given(shaped_matrices)
    def test_matches_leibniz_up_to_5x5(self, drawn):
        matrix = self._shaped(*drawn)
        det = det_exact(matrix)
        assert type(det) is F
        assert det == self._leibniz(matrix)

    @settings(max_examples=100)
    @given(shaped_matrices)
    def test_leading_principal_minors_match_leibniz(self, drawn):
        matrix = self._shaped(*drawn)
        expected = [self._leibniz([row[:k] for row in matrix[:k]])
                    for k in range(1, len(matrix) + 1)]
        assert leading_principal_minors(matrix) == expected

    def test_row_swaps(self):
        # A zero pivot at step 0, and one that appears only at step 1:
        # 1*4 - 2*2 = 0 in the second row after the first elimination.
        assert det_exact([[0, 1], [1, 0]]) == -1
        assert det_exact([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        matrix = [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
        assert det_exact(matrix) == self._leibniz(matrix) == -1
        scaled = [[F(v, 3 + i) for v in row] for i, row in enumerate(matrix)]
        assert det_exact(scaled) == F(-1, 3 * 4 * 5)
        assert det_exact([[0, 1], [0, 2]]) == 0

    def test_builds_at_most_one_fraction_per_call(self, monkeypatch):
        # Every Fraction that functionals constructs goes through the
        # module's name; Fraction arithmetic inside fractions does not.
        built = []

        class Counted(F):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        matrix = [[F(1, 2), 3, F(-5, 7), 1], [1, 6, F(1, 3), 2],
                  [F(2, 9), 0, 4, F(1, 5)], [7, F(-1, 4), 2, 0]]
        singular = [[0, 1, 2], [0, F(1, 2), 3], [0, 5, F(7, 3)]]
        hankel = hankel_mbeta(11, F(3, 2))
        functional = lbeta_functional(12)
        f, g = Poly((F(1, 2), F(-3, 4), 2)), fam.romanovski(3, 0, -12)
        expected = (det_exact(matrix), det_exact(singular), det_exact(hankel),
                    functional.pair(f, g), functional(f))
        monkeypatch.setattr(functionals, "Fraction", Counted)
        for compute, value in zip(
            (lambda: det_exact(matrix), lambda: det_exact(singular),
             lambda: det_exact(hankel), lambda: functional.pair(f, g),
             lambda: functional(f)),
            expected,
        ):
            built.clear()
            assert compute() == value
            assert len(built) <= 1


class TestFunctionalFaults:
    """A wrong functional fails a cold registry run, in exactly the entries
    that read it: the moment numerators feed every pair and call, and the
    integer determinant feeds det_exact and everything built on it."""

    @staticmethod
    def failing(monkeypatch, name, value, owner=functionals):
        monkeypatch.setattr(owner, name, value)
        return cold_failures(monkeypatch)

    def test_wrong_moment_numerator(self, monkeypatch):
        # 1 added to the integer numerator of moment 1 of every functional;
        # the public Fraction moments stay right.
        real = MomentFunctional.__post_init__

        def faulty(self):
            real(self)
            nums, scale = self._integer_form
            if len(nums) > 1:
                nums = (nums[0], nums[1] + 1) + nums[2:]
            object.__setattr__(self, "_integer_form", (nums, scale))

        failing = self.failing(monkeypatch, "__post_init__", faulty, owner=MomentFunctional)
        assert failing == {"laguerre-orth", "romanovski-orth"}

    def test_wrong_integer_determinant(self, monkeypatch):
        # 1 added to the integer determinant before the division by the
        # row scales.
        real = functionals._bareiss
        failing = self.failing(monkeypatch, "_bareiss", lambda rows: real(rows) + 1)
        assert failing == {"romanovski-orth"}


class TestHankelThreshold:
    def test_hankel_shape_and_entries(self):
        m = hankel_mbeta(3, F(1, 2))
        assert m == [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]]

    def test_rejects_even_beta(self):
        with pytest.raises(ValueError):
            hankel_mbeta(4, 1)

    def test_threshold_beta3(self):
        assert lbeta_extension_threshold(3) == F(1, 2)

    def test_threshold_beta5(self):
        # hand value via the 3x3 moment matrix of 1/4, 1/12, 1/12, 1/4
        assert lbeta_extension_threshold(5) == F(11, 12)

    def test_threshold_characterization(self):
        for beta in (3, 5, 7):
            t = lbeta_extension_threshold(beta)
            assert det_exact(hankel_mbeta(beta, t)) == 0
            assert det_exact(hankel_mbeta(beta, t + 1)) > 0
            assert det_exact(hankel_mbeta(beta, t - 1)) < 0
            minors = leading_principal_minors(hankel_mbeta(beta, t + 1))
            assert all(minor > 0 for minor in minors)


class TestFavardFit:
    def test_monic_legendre_coefficients(self):
        fits = favard_fit([fam.monic_legendre(n) for n in range(4)])
        assert fits[1] == (0, F(1, 3))
        assert fits[0] == (0, 0)

    def test_two_member_family_reports_free_lambda_as_zero(self):
        assert favard_fit([ONE, X]) == [(0, 0)]

    def test_rejects_non_recurrent_family(self):
        with pytest.raises(NotInRecurrence) as info:
            favard_fit([ONE, X, X ** 2, X ** 3 + 1])
        assert info.value.index == 3

    def test_rejects_non_monic_input(self):
        with pytest.raises(ValueError):
            favard_fit([ONE, 2 * X])
        with pytest.raises(ValueError):
            favard_fit([X])

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_reconstruction_round_trip(self, pairs):
        family = [ONE]
        for i, (c, lam) in enumerate(pairs, start=1):
            prev2 = family[i - 2] if i >= 2 else Poly()
            family.append((X - c) * family[i - 1] - lam * prev2)
        fitted = favard_fit(family)
        for i, (c, lam) in enumerate(pairs, start=1):
            expected_lam = F(0) if i == 1 else lam
            assert fitted[i - 1] == (c, expected_lam)
