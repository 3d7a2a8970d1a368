"""Tests for exact polynomial arithmetic and its transforms."""

import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from faults import clear_caches
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    antiderivative_by_fractions,
    compose_affine_by_lists,
    integrate_by_antiderivative,
    scaled_by_fractions,
)

import delannoy_jacobi
from delannoy_jacobi import families, identities, paths
from delannoy_jacobi.functionals import factorial_functional, inner_weighted, lbeta_functional
from delannoy_jacobi.polynomial import (
    ONE,
    DegreeTooLarge,
    NonzeroConstantTerm,
    Poly,
    X,
    ZERO,
    _packed,
    _unpacked,
    binom,
    pochhammer,
)
from delannoy_jacobi.render import format_poly, parse_poly

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
    """The hash of a Poly with these Fraction coefficients: that of its
    value for a constant, which compares equal to it, and otherwise that of
    its integer form, the numerators over the lcm of the denominators."""
    if len(coeffs) <= 1:
        return hash(coeffs[0] if coeffs else 0)
    d = math.lcm(*(c.denominator for c in coeffs))
    return hash((tuple(int(c * d) for c in coeffs), d))


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
    """Poly._numerators() is the integer form every Poly holds from birth,
    one tuple that every caller shares."""

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
        for _ in range(2):  # a caller that changed the shared form shows in round two
            twin = Poly(p.coeffs)  # an equal Poly, built afresh
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
    """A fresh Poly born from integers, which has no Fraction view yet, and
    its twin built from the Fraction coefficients, which keeps that tuple
    (a zero Fraction makes the zero twin).  Both hold the same canonical
    integer form from birth."""
    p = integer_form(*args)
    twin = Poly(integer_form(*args).coeffs or (F(0),))
    assert p._coeffs is None or p is ZERO
    assert type(twin._coeffs) is tuple and twin._nums == p._nums
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


STORED_FORMS = {"_coeffs", "_nums"}


def stored_form_reads(path: Path) -> list[tuple[int, str]]:
    """(line, attribute) of every read of a Poly's stored forms in path."""
    return [
        (node.lineno, node.attr) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in STORED_FORMS
    ]


class TestFormBoundary:
    """Only polynomial.py touches the two stored forms; every other module
    reads a Poly through coeffs and _numerators(), so the stored forms can
    change in one module."""

    def test_no_other_module_reads_a_stored_form(self):
        package = Path(delannoy_jacobi.__file__).parent
        modules = {path.name: path for path in package.glob("*.py")}
        assert stored_form_reads(modules.pop("polynomial.py"))  # the scan finds reads
        assert {name: reads for name, path in modules.items()
                if (reads := stored_form_reads(path))} == {}


def integer_form_writers(path: Path) -> list[str]:
    """The qualified names of the functions in path that assign an _nums
    attribute ("<module>" for code outside any function)."""
    writers = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Attribute) and t.attr == "_nums"
               for target in targets for t in ast.walk(target)):
            writers.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return writers


class TestIntegerFormAtBirth:
    """Only the two constructors set a Poly's integer form, so every Poly
    holds it from birth and no read builds it."""

    def test_only_the_constructors_assign_the_integer_form(self, tmp_path):
        # The scan finds a lazy build, a chained or augmented assignment,
        # and one outside any function.
        source = tmp_path / "lazy.py"
        source.write_text("class Poly:\n    def _numerators(self):\n"
                          "        nums = self._nums = (), 1\n        return nums\n"
                          "def shift(p):\n    p._nums += ()\nZERO._nums = (), 1\n")
        assert integer_form_writers(source) == ["Poly._numerators", "shift", "<module>"]
        package = Path(delannoy_jacobi.__file__).parent
        assert sorted(set(integer_form_writers(package / "polynomial.py"))) == [
            "Poly.__init__", "Poly._from_numerators"]

    @staticmethod
    def assert_canonical(p):
        nums, d = p._numerators()
        assert type(nums) is tuple and all(type(n) is int for n in nums)
        assert type(d) is int and d > 0
        assert not nums or nums[-1] != 0
        assert math.gcd(d, *nums) == 1

    @settings(deadline=None)
    @given(int_lists, polys, polys, scalars, st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=3), rationals, rationals)
    def test_every_maker_returns_the_canonical_form(self, ints, p, q, c, k, extra, a, b):
        outs = [
            Poly(ints), Poly(F(n, 6) for n in ints), p + q, p + c, c + p, p - q, c - p,
            c * p, p * c, p * q, p ** k, p.cayley(max(p.degree, 0) + extra),
            p.compose_affine(a, b), p.antiderivative(), (X * p).div_x(),
            parse_poly(format_poly(p)),
        ]
        for out in outs:
            self.assert_canonical(out)


def cached_property_uses(path: Path) -> list[int]:
    """The lines of path that name functools.cached_property."""
    return [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "cached_property" for alias in node.names))
    ]


class TestNoMemoOnValues:
    """No module keeps a cached_property: a per-object memo on a value type
    outlives every cache clear and takes no part in equality, so a fault in
    it survives a cold run.  What a route derives from a value it derives
    per call, or keeps in a bounded cache keyed by the value."""

    def test_no_module_uses_cached_property(self, tmp_path):
        # The scan finds the import and the attribute spelling.
        source = tmp_path / "memo.py"
        source.write_text("import functools\nfrom functools import cached_property as memo\n"
                          "class A:\n    @functools.cached_property\n    def x(self): ...\n")
        assert cached_property_uses(source) == [2, 4]
        package = Path(delannoy_jacobi.__file__).parent
        assert {path.name: uses for path in package.glob("*.py")
                if (uses := cached_property_uses(path))} == {}


class TestCrossForm:
    """A Poly born from integers and its twin born from Fractions agree on
    every method and operator, in both operand orders.  Each check takes a
    fresh Poly born from integers, since reading the coefficients keeps
    them."""

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

        # A product reads the coefficients, so each operation gets fresh
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

    def test_sums_build_no_fraction_until_coeffs_are_read(self, monkeypatch):
        p = Poly((0, -1, 4, 1, -5)).compose_affine(F(2, 3), 0)
        q = Poly((7, 0, -2)).compose_affine(F(1, 5), F(1, 2))
        outs = self.assert_no_fraction_until_coeffs_are_read(monkeypatch, lambda: [
            p + q, q + p, p - q, 3 - p, p + 2, p - p, ZERO + q])

        def by_fractions(f, g, sign=1):
            """The sum f + sign * g of two coefficient tuples, as a Poly."""
            n = max(len(f), len(g))
            f, g = f + (0,) * (n - len(f)), g + (0,) * (n - len(g))
            return Poly(x + sign * y for x, y in zip(f, g))

        pc, qc = p.coeffs, q.coeffs
        assert outs == [by_fractions(pc, qc), by_fractions(qc, pc), by_fractions(pc, qc, -1),
                        by_fractions((3,), pc, -1), by_fractions(pc, (2,)), ZERO, Poly(qc)]


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
        # Either twin is scaled on its numerators, and Poly.constant(c)
        # takes the product; both orders.
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


class TestHomogenized:
    """p.homogenized(n, a, b) = sum c_k a^k b^(n-k), which is b^n p(a/b)
    for b != 0."""

    def test_examples(self):
        legendre2 = Poly((1, -6, 6))
        # b = 0 leaves the top term c_n a^n, and nothing when n > deg(p).
        assert legendre2.homogenized(2, 3, 0) == 6 * 9
        assert legendre2.homogenized(3, 3, 0) == 0
        assert legendre2.homogenized(2, F(3, 4), F(-1, 2)) == F(1, 4) * legendre2(F(-3, 2))
        assert legendre2.homogenized(4, 1, 2) == 16 * legendre2(F(1, 2))
        # Below the degree, as a fault-injected family can be: 1 + x at
        # n = 0 and (a, b) = (1/4, -1/2) is 1 + a/b.
        assert Poly((1, 1)).homogenized(0, F(1, 4), F(-1, 2)) == F(1, 2)
        assert Poly((1, 1)).homogenized(0, 1, -1) == 0

    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("a, b", [(0, 0), (3, 0), (F(-2, 3), F(5, 7)), (0, 1)])
    def test_zero_polynomial(self, n, a, b):
        out = ZERO.homogenized(n, a, b)
        assert out == 0 and isinstance(out, F)

    @given(st.one_of(st.just(ZERO), polys), st.integers(min_value=0, max_value=12),
           st.one_of(st.just(0), rationals), st.one_of(st.just(0), rationals))
    def test_matches_scaled_evaluation(self, p, n, a, b):
        if b == 0 and n < p.degree:
            # The terms above n divide by a power of b.
            with pytest.raises(ZeroDivisionError):
                p.homogenized(n, a, b)
            return
        out = p.homogenized(n, a, b)
        assert isinstance(out, F)
        if b == 0:
            assert out == p.coefficient(n) * F(a) ** n
        else:
            assert out == b ** n * p(F(a) / b)
        if n >= p.degree:
            assert out == sum((c * F(a) ** k * F(b) ** (n - k) for k, c in enumerate(p.coeffs)),
                              F(0))

    @given(polys, st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                            st.fractions(max_denominator=10**6)))
    def test_evaluation_is_the_form_of_the_degree_at_b_one(self, p, x):
        assert p.homogenized(max(p.degree, 0), x, 1) == p(x)

    @pytest.mark.parametrize("value", [0.5, X, Poly.constant(2), "1/3"])
    def test_refuses_what_is_not_rational(self, value):
        for args in ((value, 1), (1, value)):
            with pytest.raises(TypeError):
                X.homogenized(2, *args)

    def test_refuses_a_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            X.homogenized(-1, 1, 2)


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


class TestComposeAffineAgainstListHorner:
    """The one-integer Taylor shift against the list Horner of
    tests/oracles.py, which packs no digits: from the registry's sizes to
    the benchmark's, and at the cases that reach the digit bound."""

    # Jacobi-type (n, alpha, beta) at the benchmark's largest sizes: the
    # compute-poly shapes (perfbench/workloads.py JACOBI_SHAPES) at
    # n = 145 and 150, with numerators of 80 to 580 bits on either side.
    BENCHMARK_SHAPES = [
        (145, -130, 0), (145, -72, -58), (145, 0, -130), (145, 7, 7), (145, -29, -102),
        (150, -135, 0), (150, -75, -60), (150, 0, -135), (150, 8, 8), (150, -30, -105),
    ]
    SHIFTS = [(1, -1), (F(1, 2), F(-1, 2)), (2, 1), (-1, 0), (1, 1)]

    def test_every_call_of_a_cold_registry_run(self, monkeypatch):
        calls = []
        compose = Poly.compose_affine

        def recorded(self, a, b):
            out = compose(self, a, b)
            calls.append((self, a, b, out))
            return out

        clear_caches(families, paths, identities)
        monkeypatch.setattr(Poly, "compose_affine", recorded)
        try:
            identities.run_all()
        finally:
            monkeypatch.undo()
            clear_caches(families, paths, identities)
        assert len(calls) > 1000
        for p, a, b, out in calls:
            assert out == compose_affine_by_lists(p, a, b), (p, a, b)

    @pytest.mark.parametrize("n, alpha, beta", BENCHMARK_SHAPES)
    def test_benchmark_sizes(self, n, alpha, beta):
        p = families.romanovski_sum(n, alpha, beta)
        assert p.degree == n
        for a, b in self.SHIFTS:
            assert p.compose_affine(a, b) == compose_affine_by_lists(p, a, b), (a, b)

    @pytest.mark.parametrize("a, b", [
        (0, 0), (0, F(-7, 3)), (F(5, 2), 0), (-1, 3), (F(-7, 9), F(2, 5)), (-3, -5),
        (F(1, 10**30), F(-1, 10**30 - 1)), (F(-(10**25) - 3, 7**40), F(11**30, 13**20)),
    ])
    def test_zero_negative_and_large_denominator_arguments(self, a, b):
        for p in (Poly((F(1, 3), F(-2, 5), F(7, 2))), families.romanovski_sum(30, -12, 4),
                  Poly([F((-1) ** k * (k + 1) ** 9, 10**12 + k) for k in range(40)])):
            assert p.compose_affine(a, b) == compose_affine_by_lists(p, a, b)

    @pytest.mark.parametrize("degree", [0, 1, 2, 7, 64, 150])
    @pytest.mark.parametrize("bits", [1, 40, 470])
    def test_digit_bound_worst_cases(self, degree, bits):
        # Equal signs after the shift: every coefficient of p(x + 1) for an
        # all-positive p, and of p(-x - 1) for an alternating one, adds up
        # its terms with no cancellation, as the bound assumes.  At a = 0 and
        # b = 1 (b = -1) the constant p(1) (p(-1)) = |N|_1 meets the bound.
        top = (1 << bits) - 1
        positive = Poly([top] * (degree + 1))
        alternating = Poly([(-1) ** k * top for k in range(degree + 1)])
        for p, (a, b) in ((positive, (1, 1)), (alternating, (-1, -1)),
                          (positive, (F(1, 3), F(2, 3))), (alternating, (F(-1, 2), F(-1, 2))),
                          (positive, (0, 1)), (alternating, (0, -1))):
            out = p.compose_affine(a, b)
            assert out == compose_affine_by_lists(p, a, b)
            assert out(1) == p(a + b)


def derivative(p):
    """p', coefficient by coefficient: the package has no derivative, so
    this oracle checks antiderivative by inverting it."""
    return Poly(k * c for k, c in enumerate(p.coeffs) if k >= 1)


@st.composite
def digit_words(draw):
    """(coefficients, K): K >= 2 and signed integer coefficients that each
    fit a balanced K-bit digit, |c| < 2^(K-1)."""
    k = draw(st.integers(min_value=2, max_value=70))
    top = (1 << (k - 1)) - 1
    return tuple(draw(st.lists(st.integers(min_value=-top, max_value=top), max_size=10))), k


class TestKroneckerPair:
    """_packed evaluates integer coefficients at x = 2^K, and _unpacked
    reads them back as balanced base-2^K digits over a denominator."""

    @given(digit_words(), st.integers(min_value=1, max_value=30))
    def test_round_trip(self, word, d):
        coeffs, k = word
        packed = _packed(coeffs, k)
        assert packed == sum(c << (k * i) for i, c in enumerate(coeffs))  # the defining sum
        assert _unpacked(packed, k, 1) == Poly(coeffs)
        assert _unpacked(packed, k, d) == Poly(F(c, d) for c in coeffs)

    def test_digit_width_below_two_fails_at_once(self):
        # At K = 1 the balanced digits are -1 and 0, so 1 = -1 + 2 * 1
        # would be read forever; the call refuses the width instead.
        for k in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2 bits"):
                _unpacked(1, k, 1)


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
    family, path and registry caches."""
    clear_caches(families, paths, identities)
    return {r.id for r in identities.run_all() if r.status == "fail"}


class TestIntegerFormFaults:
    """A fault in the integer-form route fails a cold registry run, or,
    where no entry can see it, the cross-form tests."""

    @pytest.fixture
    def faulty(self, monkeypatch):
        """monkeypatch, with the family, path and registry caches emptied
        once the fault is undone, so nothing built under it outlives the
        test."""
        yield monkeypatch
        monkeypatch.undo()
        clear_caches(families, paths, identities)

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
            return _top_plus_one(out) if isinstance(other, (int, F)) else out

        faulty.setattr(Poly, "__mul__", scaled_top_plus_one)
        faulty.setattr(Poly, "__rmul__", scaled_top_plus_one)
        # The swap rules' (-1)^n is on this route; negation, and so
        # subtraction, has its own (below).
        assert _cold_failures() == {
            "antideriv", "cdrec", "favard-legendre", "favard-schroder", "narayana", "schroder",
            "swap-rules", "wcd-legendre", "wcd-legendre-swap", "wd-closed-vs-dp-vs-enum",
        }

    def test_negation_with_a_wrong_top_numerator(self, faulty):
        negate = Poly.__neg__
        faulty.setattr(Poly, "__neg__", lambda self: _top_plus_one(negate(self)))
        # Subtraction adds the negated right side, so every entry with a
        # difference of polynomials is on this route.
        assert _cold_failures() == {
            "abdec", "antideriv", "cdrec", "favard-legendre", "favard-schroder", "schroder",
            "sj-expansion",
        }

    # Poly x Poly products still run on Fraction coefficients.  The
    # entries that a wrong top numerator of a product FAILs, where the
    # other factor is a Poly (a constant factor takes the scaling route
    # above).
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

    def test_sum_with_a_wrong_top_numerator(self, faulty):
        for method in ("__add__", "__radd__"):
            route = getattr(Poly, method)
            faulty.setattr(Poly, method,
                           lambda self, other, route=route: _top_plus_one(route(self, other)))
        # A wrong sum passes bneg and laguerre-orth, which a wrong product
        # fails.
        assert _cold_failures() == self.PRODUCT_FAILING - {"bneg", "laguerre-orth"}

    # Powers and cayley multiply polynomials too, by the product above.
    @pytest.mark.parametrize("methods, failing", [
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
