"""Tests for exact polynomial arithmetic and its transforms."""

import math
from fractions import Fraction as F

import pytest
from faults import clear_caches
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import antiderivative_by_fractions, integrate_by_antiderivative, scaled_by_fractions

from delannoy_jacobi import families, identities, paths
from delannoy_jacobi.functionals import factorial_functional, inner_weighted, lbeta_functional
from delannoy_jacobi.polynomial import (
    ONE,
    DegreeTooLarge,
    NonzeroConstantTerm,
    Poly,
    X,
    ZERO,
    binom,
    pochhammer,
)
from delannoy_jacobi.render import format_poly

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.builds(Poly, st.lists(rationals, max_size=8))
small_ints = st.integers(min_value=-8, max_value=8)


class TestBinom:
    def test_known_values(self):
        assert binom(5, 2) == 10
        assert binom(-1, 3) == -1
        assert binom(4, 7) == 0
        assert binom(7, 0) == 1
        assert binom(-2, 2) == 3
        assert binom(3, -1) == 0

    @given(st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12))
    def test_pascal(self, r, k):
        assert binom(r, k) == binom(r - 1, k) + binom(r - 1, k - 1)

    @given(st.integers(min_value=-15, max_value=-1), st.integers(min_value=0, max_value=10))
    def test_negative_top_reflection(self, r, k):
        assert binom(r, k) == (-1) ** k * binom(k - r - 1, k)


class TestPochhammer:
    def test_known_values(self):
        assert pochhammer(2, 3) == 24
        assert pochhammer(F(1, 2), 2) == F(3, 4)
        assert pochhammer(5, 0) == 1
        assert pochhammer(0, 3) == 0

    @given(rationals, st.integers(min_value=0, max_value=8))
    def test_recursion(self, a, n):
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def expected_hash(coeffs):
    """The hash of a Poly with these coefficients: that of its value for a
    constant, which compares equal to it, and that of the tuple otherwise."""
    if len(coeffs) <= 1:
        return hash(coeffs[0] if coeffs else 0)
    return hash(coeffs)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert Poly((1, 2, 0, 0)) == Poly((1, 2))
        assert Poly((0, 0)) == ZERO

    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert Poly((0, 0, 3)).degree == 2

    def test_coefficient_beyond_degree(self):
        assert X.coefficient(5) == 0

    def test_leading(self):
        assert ZERO.leading == 0 and Poly().leading == 0
        assert Poly((1, 0, F(-2, 3))).leading == F(-2, 3)

    def test_monomial(self):
        assert Poly.monomial(3, 2) == Poly((0, 0, 0, 2))
        assert Poly.monomial(0) == ONE
        for k in (-1, -2):
            with pytest.raises(ValueError):
                Poly.monomial(k)

    def test_constant_value(self):
        assert Poly.constant(F(2, 3)).constant_value() == F(2, 3)
        assert ZERO.constant_value() == 0
        with pytest.raises(ValueError):
            X.constant_value()

    def test_coefficients_are_fractions(self):
        half = F(1, 2)
        for coeffs in [(1, -2, 3), (True, False, True), (half, F(-3), F(0, 5)), (2, True, half)]:
            p = Poly(coeffs)
            assert all(type(c) is F for c in p.coeffs), coeffs
        assert Poly((half,)).coeffs[0] is half  # a Fraction is kept, not re-wrapped
        assert Poly((True, 2)).coeffs == (F(1), F(2))

    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=8))
    def test_equality_and_hash_do_not_depend_on_input_type(self, ints):
        by_int = Poly(ints)
        by_fraction = Poly(F(c) for c in ints)
        by_bool = Poly(bool(c) for c in ints)
        assert by_int == by_fraction
        assert hash(by_int) == hash(by_fraction) == expected_hash(tuple(F(c) for c in by_int.coeffs))
        assert by_bool == Poly(1 if c else 0 for c in ints)
        assert hash(by_bool) == hash(Poly(F(1 if c else 0) for c in ints))

    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
           st.lists(st.fractions(max_denominator=9), max_size=6))
    def test_cached_hash_is_the_hash_of_coeffs(self, ints, fractions):
        for p, q in [(Poly(ints), Poly(F(c) for c in ints)),
                     (Poly(fractions), Poly(F(c.numerator, c.denominator) for c in fractions))]:
            for _ in range(2):  # computed once, then read back from the slot
                assert hash(p) == expected_hash(p.coeffs) == hash(q) == expected_hash(q.coeffs)
        # A key hashed from one input type is found from the other.
        assert {Poly(ints): 1}.get(Poly(F(c) for c in ints)) == 1

    @given(st.one_of(st.integers(min_value=-50, max_value=50), rationals))
    def test_a_constant_hashes_like_its_value(self, value):
        # Poly.constant(c) == c, so the two must hash alike and find each
        # other as dict keys, whether c is an int or a Fraction.
        for c in (value, F(value)):
            p = Poly.constant(c)
            assert p == c and c == p
            assert hash(p) == hash(c)
            assert {c: "a"}.get(p) == "a"
            assert {p: "a"}.get(c) == "a"
        assert hash(ZERO) == hash(Poly(())) == hash(0)
        assert {0: "zero"}.get(ZERO) == "zero"
        assert {3: "a"}.get(Poly.constant(3)) == "a"


class TestIntegerForm:
    """Poly._numerators() is computed once and kept on the polynomial."""

    @staticmethod
    def fresh(p):
        d = math.lcm(*(c.denominator for c in p.coeffs))
        return tuple(c.numerator * (d // c.denominator) for c in p.coeffs), d

    @given(polys, rationals, rationals)
    @settings(deadline=None)
    def test_kept_form_survives_every_caller(self, p, a, b):
        assert p._numerators() == self.fresh(p)
        form = p._numerators()
        assert type(form[0]) is tuple
        assert p._numerators() is form  # kept, not rebuilt
        functional = factorial_functional(max(p.degree, 0))
        for _ in range(2):  # once filling the memo of p, once reading it
            twin = Poly(p.coeffs)  # an equal Poly with no memo
            assert p(a) == twin(a)
            assert p.compose_affine(a, b) == twin.compose_affine(a, b)
            assert p.integrate(a, b) == twin.integrate(a, b)
            assert inner_weighted(p, p, 2, 1) == inner_weighted(twin, twin, 2, 1)
            assert functional(p) == functional(twin)
            assert p._numerators() == self.fresh(p) == self.fresh(twin)

    @given(polys)
    def test_memo_takes_no_part_in_equality_or_hash(self, p):
        p._numerators()
        hash(p)
        twin = Poly(p.coeffs)
        assert p == twin and twin == p
        assert hash(p) == hash(twin)
        assert {p: 1}.get(twin) == 1

    def test_examples(self):
        assert Poly((F(1, 2), F(-2, 3), 3))._numerators() == ((3, -4, 18), 6)
        assert Poly()._numerators() == ((), 1)
        assert X._numerators() == ((0, 1), 1)


int_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
# Constants to scale by: zero, an int of either sign, or a Fraction.
scalars = st.sampled_from([0, F(0)]) | st.integers(min_value=-50, max_value=50) | rationals
# Poly(ints) alone (a is None), or composed with a*x + b: the two makers
# that build a Poly in integer form.
integer_form_args = st.tuples(int_lists, st.none() | rationals, rationals)


def integer_form(ints, a, b):
    p = Poly(ints)
    return p if a is None else p.compose_affine(a, b)


def two_forms(args):
    """A fresh Poly in integer form only, and its twin built from the
    Fraction coefficients, which has the Fraction form only (a zero
    Fraction makes the zero twin)."""
    p = integer_form(*args)
    twin = Poly(integer_form(*args).coeffs or (F(0),))
    assert (p._coeffs is None or p is ZERO) and twin._nums is None
    return p, twin


def assert_equality_agrees(args, other_args, k):
    """== and != across the two forms, against each other, against another
    polynomial in either form, against the same numerators over k times
    the denominator, and against int and Fraction constants."""
    for p, q in [two_forms(args), two_forms(args)[::-1]]:
        assert p == q and q == p and not p != q and not q != p
    p, twin = two_forms(args)
    q, q_twin = two_forms(other_args)
    same = twin == q_twin  # both sides Fraction tuples
    for left, right in [(p, q), (p, q_twin), (twin, q), (q, p), (q_twin, p), (q, twin)]:
        assert (left == right) is same and (left != right) is not same
    # The same numerators over another denominator: a different
    # polynomial unless zero.
    scaled = Poly(c / k for c in twin.coeffs)
    for left, right in [(p, scaled), (scaled, p)]:
        assert (left == right) is (not p) and (left != right) is bool(p)
    for c in (0, 1, -3, F(1, 2), *args[0][:1], *twin.coeffs[:1]):
        expected = twin == c
        for form in two_forms(args):
            assert (form == c) is expected and (c == form) is expected
            assert (form != c) is not expected and (c != form) is not expected


# x against x/2: equal numerators over different denominators.
X_AGAINST_HALF_X = ([0, 1], None, F(0)), ([0, 1], F(1, 2), F(0)), 2


class TestCrossForm:
    """A Poly born in integer form and its Fraction-form twin agree on
    every method and operator, in both operand orders.  Each check takes a
    fresh integer-form Poly, since reading the coefficients keeps them."""

    @given(integer_form_args, integer_form_args, st.integers(min_value=2, max_value=9))
    @example(*X_AGAINST_HALF_X)
    def test_equality(self, args, other_args, k):
        assert_equality_agrees(args, other_args, k)

    @given(integer_form_args)
    def test_hash_and_dict_lookup(self, args):
        p, twin = two_forms(args)
        assert hash(p) == hash(twin)
        assert {p: 1}.get(twin) == 1
        p, twin = two_forms(args)
        assert {twin: 1}.get(p) == 1
        if twin.is_constant():
            value = twin.constant_value()
            assert {value: 1}.get(two_forms(args)[0]) == 1
            assert {two_forms(args)[0]: 1}.get(value) == 1

    @given(integer_form_args)
    def test_reads(self, args):
        def agree(read):
            p, twin = two_forms(args)
            assert read(p) == read(twin)

        p, twin = two_forms(args)
        assert all(type(c) is F for c in p.coeffs)
        assert p.coeffs == twin.coeffs
        for read in (
            lambda p: p.degree, lambda p: p.leading, bool, lambda p: p.is_constant(),
            repr, format_poly,
        ):
            agree(read)
        for k in range(-1, twin.degree + 3):
            agree(lambda p: p.coefficient(k))
        if twin.is_constant():
            agree(lambda p: p.constant_value())
        else:
            for p in two_forms(args):
                with pytest.raises(ValueError):
                    p.constant_value()

    @settings(deadline=None)
    @given(integer_form_args, integer_form_args, rationals, rationals, rationals)
    def test_transforms(self, args, other_args, x, a, b):
        def agree(apply):
            p, twin = two_forms(args)
            assert apply(p) == apply(twin)

        agree(lambda p: p(x))
        agree(lambda p: p.compose_affine(a, b))
        agree(lambda p: p.integrate(x, a))
        agree(lambda p: p.antiderivative())
        agree(lambda p: -p)
        f_twin, g_twin = two_forms(args)[1], two_forms(other_args)[1]
        if f_twin.coefficient(0) == 0:
            agree(lambda p: p.div_x())
        else:
            for p in two_forms(args):
                with pytest.raises(NonzeroConstantTerm):
                    p.div_x()

        # The functionals read the integer form only, so f and g stay
        # without coefficients throughout.
        functional, moments = factorial_functional(16), lbeta_functional(20)
        product = f_twin * g_twin
        for f in two_forms(args):
            assert functional(f) == functional(f_twin)
            for g in two_forms(other_args):
                for left, right in [(f, g), (g, f)]:
                    assert inner_weighted(left, right, 2, 1) == inner_weighted(f_twin, g_twin, 2, 1)
                    assert functional.pair(left, right) == functional(product)
                    assert moments.pair(left, right) == moments.pair(f_twin, g_twin)

        # The ring operations read the coefficients, so each gets fresh
        # operands, in every mix of forms.
        def operands():
            f, g = integer_form(*args), integer_form(*other_args)
            return [(f, g), (integer_form(*args), g_twin), (f_twin, integer_form(*other_args))]

        for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
            for f, g in operands():
                assert op(f, g) == op(f_twin, g_twin)
            for f, g in operands():
                assert op(g, f) == op(g_twin, f_twin)

    @staticmethod
    def assert_no_fraction_until_coeffs_are_read(monkeypatch, make):
        """make() builds no Fraction; reading its results' coefficients
        builds them once, and they are kept.  Returns the results."""
        built = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", counted)
        outs = make()
        assert built == []
        coeffs = [out.coeffs for out in outs]
        assert built  # the coefficients are built on first read ...
        count = len(built)
        assert [out.coeffs for out in outs] == coeffs and len(built) == count  # ... and kept
        monkeypatch.undo()
        return outs

    def test_compose_affine_builds_no_fraction_until_coeffs_are_read(self, monkeypatch):
        p = Poly((3, -1, 4, 1, -5))
        points = [(F(1, 2), F(-1, 2)), (2, -1), (1, 1)]
        two_thirds = F(2, 3)
        outs = self.assert_no_fraction_until_coeffs_are_read(monkeypatch, lambda: [
            *(p.compose_affine(a, b) for a, b in points), ZERO.compose_affine(two_thirds, 1)])
        for out, (a, b) in zip(outs, points):
            assert out == TestComposeAffine._horner_over_poly(p, a, b)

    def test_scaling_antiderivative_and_div_x_build_no_fraction_until_coeffs_are_read(
            self, monkeypatch):
        p = Poly((0, -1, 4, 1, -5)).compose_affine(F(2, 3), 0)
        half, c = F(1, 2), F(-7, 3)
        outs = self.assert_no_fraction_until_coeffs_are_read(monkeypatch, lambda: [
            c * p, p * c, 3 * p, -p, half * ZERO, p.antiderivative(), p.div_x(),
            p.antiderivative().antiderivative(), ZERO.antiderivative(), ZERO.div_x()])
        twin = Poly(p.coeffs)
        anti = antiderivative_by_fractions(twin)
        assert outs == [
            scaled_by_fractions(c, twin), scaled_by_fractions(c, twin),
            scaled_by_fractions(3, twin), scaled_by_fractions(-1, twin), ZERO, anti,
            Poly(twin.coeffs[1:]), antiderivative_by_fractions(anti), ZERO, ZERO]


class TestArithmetic:
    @given(polys, polys, rationals)
    def test_add_is_pointwise(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)

    @given(polys, polys, rationals)
    def test_mul_is_pointwise(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(polys, polys, polys)
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys, st.integers(min_value=0, max_value=4))
    def test_pow(self, p, k):
        expected = ONE
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected

    def test_pow_squares_no_further_than_the_top_bit(self, monkeypatch):
        products = []
        multiply = Poly.__mul__

        def counted(self, other):
            products.append(other)
            return multiply(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)

        def count(p, n):
            products.clear()
            out = p ** n
            return out, len(products)

        assert count(X, 64) == (Poly.monomial(64), 6)
        assert count(X - 1, 1) == (X - 1, 0)
        assert count(X - 1, 0) == (ONE, 0)
        # floor(log2 n) squarings and one product per further set bit.
        for n in range(1, 40):
            assert count(X, n) == (Poly.monomial(n), n.bit_length() + bin(n).count("1") - 2)

    def test_scalar_mixing(self):
        assert 2 * X + 1 == Poly((1, 2))
        assert (X - 1) * (X + 1) == Poly((-1, 0, 1))
        assert 3 - X == Poly((3, -1))
        assert F(1, 2) - 2 * X == Poly((F(1, 2), -2))

    @given(polys, scalars)
    def test_reflected_subtraction(self, p, c):
        assert c - p == Poly.constant(c) - p == -(p - c)

    @given(integer_form_args, scalars)
    def test_scaling_matches_the_fraction_oracle(self, args, c):
        # An integer-form operand is scaled on its numerators, a
        # Fraction-only one by the product with a constant; both orders.
        expected = scaled_by_fractions(c, two_forms(args)[1])
        for make in (lambda p: c * p, lambda p: p * c, lambda p: Poly.constant(c) * p):
            for p in two_forms(args):
                assert make(p) == expected
        p = two_forms(args)[0]
        assert (c * p)._numerators() == TestIntegerForm.fresh(expected)


class TestEval:
    def test_examples(self):
        assert Poly((-1, 2))(2) == 3
        legendre2 = Poly((F(-1, 2), 0, F(3, 2)))
        assert legendre2(3) == 13
        assert ZERO(7) == 0

    @staticmethod
    def _fraction_horner(p, x):
        """The former body: Horner on Fractions, a gcd per step."""
        x = F(x)
        acc = F(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    @settings(max_examples=200)
    @given(
        st.one_of(
            st.just(ZERO),
            st.builds(Poly.constant, rationals),
            polys,
            st.builds(Poly, st.lists(st.fractions(max_denominator=10**6), max_size=12)),
        ),
        st.one_of(
            st.just(0),
            st.integers(min_value=-10**6, max_value=10**6),
            st.fractions(max_denominator=10**6),
        ),
    )
    def test_matches_fraction_horner(self, p, x):
        out = p(x)
        assert isinstance(out, F)
        assert out == self._fraction_horner(p, x)


class TestComposeAffine:
    def test_examples(self):
        assert (X ** 2).compose_affine(2, -1) == Poly((1, -4, 4))
        assert X.compose_affine(1, 0) == X
        assert X.compose_affine(2, -1) == Poly((-1, 2))

    @given(polys, rationals, rationals, rationals)
    def test_matches_pointwise(self, p, a, b, x):
        assert p.compose_affine(a, b)(x) == p(a * x + b)

    @given(polys)
    def test_shift_round_trip(self, p):
        assert p.compose_affine(1, 1).compose_affine(1, -1) == p

    @staticmethod
    def _horner_over_poly(p, a, b):
        """The former body: Horner with Poly arithmetic, a gcd per term."""
        inner = Poly((b, a))
        acc = ZERO
        for c in reversed(p.coeffs):
            acc = acc * inner + c
        return acc

    @settings(max_examples=200)
    @given(
        st.one_of(st.just(ZERO), polys),
        st.one_of(st.just(F(0)), rationals),
        st.one_of(st.just(F(0)), rationals),
    )
    def test_matches_horner_over_poly(self, p, a, b):
        out = p.compose_affine(a, b)
        assert out == self._horner_over_poly(p, a, b)
        assert all(isinstance(c, F) for c in out.coeffs)
        assert hash(out) == hash(Poly(out.coeffs))

    @given(polys, small_ints, small_ints)
    def test_matches_horner_over_poly_int_arguments(self, p, a, b):
        assert p.compose_affine(a, b) == self._horner_over_poly(p, a, b)

    def test_degenerate_arguments(self):
        p = Poly((F(1, 3), F(-2, 5), F(7, 2)))
        assert p.compose_affine(0, 0) == Poly.constant(F(1, 3))
        assert p.compose_affine(0, F(1, 2)) == Poly.constant(p(F(1, 2)))
        assert ZERO.compose_affine(F(2, 3), -1) == ZERO
        assert Poly.constant(F(-5, 7)).compose_affine(3, 4) == Poly.constant(F(-5, 7))


def derivative(p):
    """p', coefficient by coefficient: the package has no derivative, so
    this oracle checks antiderivative by inverting it."""
    return Poly(k * c for k, c in enumerate(p.coeffs) if k >= 1)


class TestCalculus:
    def test_examples(self):
        assert Poly((-1, 2)).antiderivative() == Poly((0, -1, 1))
        assert ZERO.antiderivative() == ZERO

    @given(integer_form_args)
    def test_antiderivative_matches_the_fraction_oracle(self, args):
        expected = antiderivative_by_fractions(two_forms(args)[1])
        for p in two_forms(args):
            out = p.antiderivative()
            assert out == expected
            assert out._numerators() == TestIntegerForm.fresh(expected)
        p = two_forms(args)[0]
        assert p.antiderivative().antiderivative() == antiderivative_by_fractions(expected)

    @given(polys)
    def test_derivative_inverts_antiderivative(self, p):
        assert derivative(p.antiderivative()) == p

    @given(polys)
    def test_antiderivative_vanishes_at_zero(self, p):
        assert p.antiderivative()(0) == 0

    def test_integrate_examples(self):
        assert X.integrate(0, 1) == F(1, 2)
        assert ONE.integrate(-1, 1) == 2
        shifted1 = Poly((-1, 2))
        shifted2 = Poly((1, -6, 6))
        assert (shifted1 * shifted2).integrate(0, 1) == 0

    @given(polys, polys, rationals, rationals)
    def test_integrate_additive_in_integrand(self, p, q, lo, hi):
        assert (p + q).integrate(lo, hi) == p.integrate(lo, hi) + q.integrate(lo, hi)

    @given(polys, rationals, rationals, rationals)
    def test_integrate_chains_over_intervals(self, p, a, b, c):
        assert p.integrate(a, b) + p.integrate(b, c) == p.integrate(a, c)

    @given(polys, rationals, rationals)
    def test_integrate_matches_antiderivative_route(self, p, lo, hi):
        assert p.integrate(lo, hi) == integrate_by_antiderivative(p, lo, hi)
        assert p.integrate(lo, lo) == 0
        assert p.integrate(hi, lo) == -p.integrate(lo, hi)

    @given(rationals, small_ints, small_ints)
    def test_integrate_constants_and_zero(self, c, lo, hi):
        assert Poly.constant(c).integrate(lo, hi) == c * (hi - lo)
        assert Poly.constant(c).integrate(lo, hi) == integrate_by_antiderivative(Poly.constant(c), lo, hi)
        assert ZERO.integrate(lo, hi) == 0
        assert type(ZERO.integrate(lo, hi)) is F

    def test_integrate_integer_and_fraction_bounds(self):
        p = Poly((F(1, 3), F(-2, 5), F(7, 2), 1, F(-11, 6)))
        for lo, hi in [(0, 1), (-1, 1), (F(-1, 2), F(3, 7)), (2, 2), (5, -3), (F(9, 4), 0)]:
            value = p.integrate(lo, hi)
            assert type(value) is F
            assert value == integrate_by_antiderivative(p, lo, hi), (lo, hi)


class TestDivX:
    def test_examples(self):
        assert Poly((0, -1, 1)).div_x() == Poly((-1, 1))
        assert Poly((0, 3, -9, 6)).div_x() == Poly((3, -9, 6))

    def test_rejects_nonzero_constant(self):
        with pytest.raises(NonzeroConstantTerm):
            Poly((1, 0, 1)).div_x()

    @given(polys)
    def test_inverts_multiplication_by_x(self, p):
        assert (X * p).div_x() == p


class TestCayley:
    def test_examples(self):
        assert X.cayley(1) == X
        assert Poly((-1, 2)).cayley(1) == Poly((1, 1))
        assert Poly((0, -3, 6)).cayley(2) == Poly((0, 3, 3))

    def test_degree_guard(self):
        with pytest.raises(DegreeTooLarge):
            (X ** 3).cayley(2)

    @given(polys, st.integers(min_value=0, max_value=10))
    @settings(max_examples=60)
    def test_by_rational_sampling(self, p, extra):
        assert_cayley_by_sampling(p, extra)


def assert_cayley_by_sampling(p, extra):
    """eval(cayley(p, n), x0) == (x0 - 1)^n * p(x0 / (x0 - 1)) away from
    x0 = 1, at more sample points than the result's degree."""
    n = max(p.degree, 0) + extra
    image = p.cayley(n)
    for k in range(n + 2):
        x0 = F(k + 2)  # 2, 3, ... avoids the pole at 1
        assert image(x0) == (x0 - 1) ** n * p(x0 / (x0 - 1))


def _top_plus_one(p):
    """p with 1 added to the top numerator of its integer form."""
    nums, d = p._numerators()
    return Poly._from_numerators([*nums[:-1], nums[-1] + 1], d) if nums else p


def _cold_failures():
    """The ids of the registry entries that fail a run_all() from empty
    family and path caches."""
    clear_caches(families, paths)
    return {r.id for r in identities.run_all() if r.status == "fail"}


class TestIntegerFormFaults:
    """A fault in the integer-form route fails a cold registry run, or,
    where no entry can see it, the cross-form tests."""

    @pytest.fixture
    def faulty(self, monkeypatch):
        """monkeypatch, with the family and path caches emptied once the
        fault is undone, so nothing built under it outlives the test."""
        yield monkeypatch
        monkeypatch.undo()
        clear_caches(families, paths)

    def test_constructor_that_leaves_the_denominator_unreduced(self, faulty):
        def content_only(cls, nums, d):
            while nums and not nums[-1]:
                nums.pop()
            g = math.gcd(*nums) or 1
            p = object.__new__(cls)
            p._coeffs = None
            p._nums = tuple(n // g for n in nums), d
            return p

        faulty.setattr(Poly, "_from_numerators", classmethod(content_only))
        failed = _cold_failures()
        # swap-rules builds both of its sides by compose_affine, so an entry
        # that compares with Poly(ints) must see the fault.
        assert "dual-routes" in failed
        assert len(failed) >= 10

    def test_equality_that_ignores_the_denominator(self, faulty):
        equal = Poly.__eq__

        def numerators_only(self, other):
            if isinstance(other, Poly) and (self._coeffs is None or other._coeffs is None):
                return self._numerators()[0] == other._numerators()[0]
            return equal(self, other)

        faulty.setattr(Poly, "__eq__", numerators_only)
        assert X == X.compose_affine(F(1, 2), 0)  # the fault is in place
        # No registry entry compares two polynomials that differ only in
        # the denominator, so the cross-form tests are the guard.
        with pytest.raises(AssertionError):
            assert_equality_agrees(*X_AGAINST_HALF_X)

    def test_compose_affine_with_a_wrong_top_numerator(self, faulty):
        compose = Poly.compose_affine
        faulty.setattr(Poly, "compose_affine", lambda self, a, b: _top_plus_one(compose(self, a, b)))
        failed = _cold_failures()
        assert {"dual-routes", "swap-rules", "sj-expansion"} <= failed
        assert len(failed) >= 15

    # The entries that a wrong top numerator of each integer route FAILs.
    @pytest.mark.parametrize("method, failing", [
        ("antiderivative", {"antideriv", "narayana"}),
        ("div_x", {"schroder"}),
    ])
    def test_transform_with_a_wrong_top_numerator(self, faulty, method, failing):
        route = getattr(Poly, method)
        faulty.setattr(Poly, method, lambda self: _top_plus_one(route(self)))
        assert _cold_failures() == failing

    def test_scaling_with_a_wrong_top_numerator(self, faulty):
        multiply = Poly.__mul__

        def scaled_top_plus_one(self, other):
            out = multiply(self, other)
            # Only a constant times an integer form takes the scaling route.
            if self._nums is not None and isinstance(other, (int, F)):
                out = _top_plus_one(out)
            return out

        faulty.setattr(Poly, "__mul__", scaled_top_plus_one)
        faulty.setattr(Poly, "__rmul__", scaled_top_plus_one)
        # Negating an integer form scales it by -1, so subtraction and the
        # swap rules' (-1)^n are on this route too.
        assert _cold_failures() == {
            "abdec", "antideriv", "cdrec", "favard-legendre", "favard-schroder", "narayana",
            "schroder", "sj-expansion", "swap-rules", "wcd-legendre", "wcd-legendre-swap",
            "wd-closed-vs-dp-vs-enum",
        }

    # Poly x Poly products and sums still run on Fraction coefficients.
    # The entries that a wrong top numerator of a product FAILs, where
    # the other factor is a Poly (a constant factor takes the scaling
    # route above).
    PRODUCT_FAILING = {
        "abdec", "antideriv", "bneg", "cdrec", "favard-legendre", "favard-schroder",
        "laguerre-orth", "narayana", "schroder", "sj-expansion", "wd-closed-vs-dp-vs-enum",
    }

    def test_product_with_a_wrong_top_numerator(self, faulty):
        multiply = Poly.__mul__

        def product_top_plus_one(self, other):
            out = multiply(self, other)
            return _top_plus_one(out) if isinstance(other, Poly) else out

        faulty.setattr(Poly, "__mul__", product_top_plus_one)
        faulty.setattr(Poly, "__rmul__", product_top_plus_one)
        assert _cold_failures() == self.PRODUCT_FAILING

    # A wrong sum passes bneg and laguerre-orth, which a wrong product fails.
    @pytest.mark.parametrize("methods, failing", [
        (("__add__", "__radd__"), PRODUCT_FAILING - {"bneg", "laguerre-orth"}),
        (("__pow__",), {"abdec", "antideriv", "narayana", "sj-expansion",
                        "wd-closed-vs-dp-vs-enum"}),
        (("cayley",), {"narayana"}),
    ])
    def test_fraction_route_with_a_wrong_top_numerator(self, faulty, methods, failing):
        for method in methods:
            route = getattr(Poly, method)
            faulty.setattr(Poly, method,
                           lambda self, arg, route=route: _top_plus_one(route(self, arg)))
        assert _cold_failures() == failing

    def test_cayley_fault_fails_the_sampling_check(self, faulty):
        # narayana is the one entry that sees a wrong cayley, so the
        # sampling property is its second guard.
        cayley = Poly.cayley
        faulty.setattr(Poly, "cayley", lambda self, n: _top_plus_one(cayley(self, n)))
        with pytest.raises(AssertionError):
            assert_cayley_by_sampling(X, 0)
