"""Exact univariate polynomial arithmetic over the rationals.

A polynomial is a dense tuple of Fraction coefficients, index k holding the
coefficient of x**k.  The zero polynomial is the empty tuple and has degree
-1.  Trailing zero coefficients are stripped on construction, so equality is
plain coefficient comparison and instances are safely hashable.

Everything is immutable and exact: no floats, no rounding, ever.  The
transforms every other module leans on live here: affine composition,
derivative and zero-based antiderivative, definite integration, division by
x, and the denominator-clearing substitution x -> x/(x-1).

Since a Poly never changes, two derived values are kept on it once computed:
its hash and its integer form (integer numerators over one denominator,
see Poly._numerators), which evaluation, affine composition, integration
and the functionals run on.  A cached family polynomial therefore clears
its denominators once, however often it is evaluated.  Neither memo takes
part in equality or hashing.
"""

import math
from collections.abc import Sequence
from fractions import Fraction

Scalar = int | Fraction

# Bound of every lru_cache on the family constructors and path DPs, so a
# long-lived process cannot grow them without limit.  A default
# `verify --all` fills the largest (delannoy_weighted) to 1 937 entries, so
# its warm repeat evicts nothing.
CACHE_SIZE = 4096


class NonzeroConstantTerm(ValueError):
    """Division by x was requested for a polynomial with p(0) != 0."""


class DegreeTooLarge(ValueError):
    """A substitution was requested with a clearing exponent below deg(p)."""


def binom(r: int, k: int) -> int:
    """Generalized binomial coefficient C(r, k) = r(r-1)...(r-k+1)/k!.

    Defined for any integer r; k < 0 yields 0 (the usual summation
    convention).  For negative r this is (-1)**k * C(k-r-1, k), always an
    integer.
    """
    if k < 0:
        return 0
    if r >= 0:
        return math.comb(r, k)
    return (-1) ** k * math.comb(k - r - 1, k)


def pochhammer(a: Scalar, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    out = Fraction(1)
    a = Fraction(a)
    for i in range(n):
        out *= a + i
    return out


class Poly:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs", "_hash", "_nums")

    def __init__(self, coeffs=()):
        # A Fraction is already normalised, so it is kept rather than re-wrapped.
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1) -> "Poly":
        """coeff * x**k, for k >= 0."""
        if k < 0:
            raise ValueError(f"monomial exponent must be nonnegative, got {k}")
        return cls((0,) * k + (coeff,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (0 beyond the stored degree)."""
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self._coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self!r}")
        return self._coeffs[0] if self._coeffs else Fraction(0)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == Poly.constant(other)._coeffs
        return NotImplemented

    def __hash__(self):
        # Hashing a Fraction is costly and the DP caches hash their weight
        # polynomials on every lookup, so the hash is kept once computed.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._coeffs)
            return self._hash

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self._coeffs)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return ONE
        # Square up to the lowest set bit, start from there, and square no
        # further than the top bit: x^64 takes 6 products, p^1 none.
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    # -- evaluation and transforms ------------------------------------------

    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """Integer numerators N_k and one denominator D with p = sum N_k x^k / D.

        Kept once computed, like the hash, as an immutable tuple that every
        caller shares.
        """
        try:
            return self._nums
        except AttributeError:
            d = math.lcm(*(c.denominator for c in self._coeffs))
            self._nums = tuple(c.numerator * (d // c.denominator) for c in self._coeffs), d
            return self._nums

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation at a rational point, on integers.

        With p = sum N_k x^k / D and x = a/b in lowest terms,
        p(x) = sum N_k a^k b^(d-k) / (D b^d), d = deg(p).  Horner runs on
        the integer numerators and one Fraction is built at the end, so a
        single gcd is taken per evaluation.
        """
        if not self._coeffs:
            return Fraction(0)
        x = Fraction(x)
        nums, d = self._numerators()
        a, b = x.numerator, x.denominator
        return Fraction(_horner(nums, a, b), d * b ** self.degree)

    def compose_affine(self, a: Scalar, b: Scalar) -> "Poly":
        """Expand p(a*x + b) exactly, by a Taylor shift on integers.

        With p = sum N_k x^k / D and a = A/E, b = B/E over common
        denominators, p(a*x + b) = sum N_k E^(d-k) (A x + B)^k / (D E^d),
        d = deg(p).  Horner runs on the integer numerators and the result
        is divided by D E^d once per coefficient, so no gcd is taken inside
        the loop.
        """
        if not self._coeffs:
            return ZERO
        a, b = Fraction(a), Fraction(b)
        e = math.lcm(a.denominator, b.denominator)
        big_a, big_b = a.numerator * (e // a.denominator), b.numerator * (e // b.denominator)
        nums, d = self._numerators()
        acc: list[int] = []
        e_pow = 1
        for n in reversed(nums):
            term = n * e_pow
            if acc:
                acc = (
                    [big_b * acc[0] + term]
                    + [big_a * lo + big_b * hi for lo, hi in zip(acc, acc[1:])]
                    + [big_a * acc[-1]]
                )
            else:
                acc = [term]
            e_pow *= e
        denominator = d * e ** self.degree
        return Poly(Fraction(n, denominator) for n in acc)

    def antiderivative(self) -> "Poly":
        """The antiderivative vanishing at 0, i.e. x |-> integral from 0 to x."""
        return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self._coeffs)])

    def integrate(self, lo: Scalar, hi: Scalar) -> Fraction:
        """Exact value of the definite integral over [lo, hi], on integers.

        With p = sum N_k x^k / D and L = lcm(1..d+1), d = deg(p), the
        antiderivative is sum (L/(k+1)) N_k x^(k+1) / (L D), whose numerators
        are integers.  Horner runs on them at both bounds, lo = a/b and
        hi = c/e, and one Fraction is built from the difference over
        L D (b e)^(d+1).
        """
        if not self._coeffs:
            return Fraction(0)
        lo, hi = Fraction(lo), Fraction(hi)
        nums, d = self._numerators()
        top = len(nums)
        big_l = math.lcm(*range(1, top + 1))
        anti = [0] + [n * (big_l // k) for k, n in enumerate(nums, start=1)]
        b, e = lo.denominator, hi.denominator
        difference = (
            _horner(anti, hi.numerator, e) * b ** top - _horner(anti, lo.numerator, b) * e ** top
        )
        return Fraction(difference, big_l * d * (b * e) ** top)

    def div_x(self) -> "Poly":
        """Return q with x*q = p; p must have zero constant term."""
        if self._coeffs and self._coeffs[0] != 0:
            raise NonzeroConstantTerm(f"constant term is {self._coeffs[0]}, not 0")
        return Poly(self._coeffs[1:])

    def cayley(self, n: int) -> "Poly":
        """Clear denominators in p(x/(x-1)): return (x-1)**n * p(x/(x-1)).

        Requires n >= deg(p) so the result is a genuine polynomial; built
        from the substitution pair (x, x-1), never from rational functions.
        """
        if self.degree > n:
            raise DegreeTooLarge(f"degree {self.degree} exceeds clearing exponent {n}")
        shift = Poly((-1, 1))
        pows = [ONE]
        for _ in range(n):
            pows.append(pows[-1] * shift)
        total = ZERO
        for k, c in enumerate(self._coeffs):
            if c != 0:
                total = total + c * X ** k * pows[n - k]
        return total

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self._coeffs]})"


def _horner(nums: Sequence[int], a: int, b: int) -> int:
    """sum N_k a^k b^(d-k), d = len(nums) - 1: the numerator of
    sum N_k (a/b)^k over b^d, by Horner on integers."""
    acc = 0
    b_pow = 1
    for n in reversed(nums):
        acc = acc * a + n * b_pow
        b_pow *= b
    return acc


def _coerce(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return NotImplemented


def as_poly(value) -> Poly:
    """Coerce an int, Fraction, or Poly to a Poly."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return out


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))
