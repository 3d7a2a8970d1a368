"""Exact univariate polynomial arithmetic over the rationals.

A polynomial p = sum c_k x^k is held in its integer form
(Poly._numerators): integer numerators N_k and one denominator D > 0 with
c_k = N_k / D, where D is the lcm of the denominators of the c_k.  Then
gcd(N_0, ..., N_d, D) = 1, and that condition fixes N and D, so this form
is canonical.  Every Poly holds it from construction.  Its coefficients, a
dense tuple of Fractions with index k holding c_k (Poly.coeffs), are a
read-only view: kept as given when a Poly is built from Fractions, and
otherwise built on first read and kept, like the hash.

The zero polynomial has no coefficients, D = 1 and degree -1.  Trailing
zero coefficients are stripped on construction.  Since the integer form
is canonical, two polynomials are equal exactly when their (N, D) pairs
are, a polynomial hashes as that pair, and a constant hashes like its
value.  Sums, scaling by a constant, negation, evaluation, composition,
calculus and the functionals run on the integer form too and build no
Fraction per coefficient; only the product of two polynomials, and so
powers and cayley, runs on the Fraction view.

Everything is immutable and exact: no floats, no rounding, ever.  The
transforms every other module leans on live here: affine composition,
zero-based antiderivative, definite integration, division by x, the
denominator-clearing substitution x -> x/(x-1), and the homogeneous form
b^n p(a/b) at rational (a, b), one integer Horner loop that evaluation
reads at (x, 1), so the registry's weighted right sides take one Fraction
each.  One private pair does
Kronecker substitution: _packed evaluates integer coefficients at x = 2^K
by Horner's rule, for the path DPs, and _unpacked reads balanced base-2^K
digits back into a Poly, for the DPs and affine composition.
"""

import math
from fractions import Fraction

Scalar = int | Fraction

# Bound of every lru_cache, so a long-lived process cannot grow them without
# limit: six family constructors, the path tallies and closed sums, and the
# registry's weight points and DP tables.  A default `verify --all` fills the
# largest (delannoy_closed) to 1 372 entries, and romanovski, which both
# Jacobi shifts read, to 916, so its warm repeat evicts nothing.
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


def require_rational(value) -> Scalar:
    """Return value if it is an int or a Fraction; raise TypeError otherwise.

    The check of every entry point that takes a rational, so that a float
    (0.1 would be 3602879701896397/2**55) or a string never enters
    silently.  Hot callers call it only when type(value) is neither.
    """
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an int or a Fraction, got {value!r}")


def pochhammer(a: Scalar, n: int) -> Fraction:
    """Rising factorial (a)_n = a(a+1)...(a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer requires n >= 0")
    out = Fraction(1)
    a = Fraction(require_rational(a))
    for i in range(n):
        out *= a + i
    return out


class Poly:
    """Dense univariate polynomial with exact rational coefficients,
    held in its canonical integer form; `coeffs` reads Fractions.
    """

    __slots__ = ("_coeffs", "_hash", "_nums")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            # Integers over D = 1, which is canonical as it stands.
            while cs and not cs[-1]:
                cs.pop()
            self._coeffs = None
            self._nums = tuple(cs), 1
            return
        # A Fraction is already normalised, so it is kept rather than re-wrapped.
        cs = [c if type(c) is Fraction else Fraction(require_rational(c)) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        d = math.lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (d // c.denominator) for c in cs), d

    @classmethod
    def _from_numerators(cls, nums: list[int], d: int) -> "Poly":
        """The Poly sum nums[k] x^k / d, for d > 0, in canonical integer
        form: trailing zeros stripped and one gcd of the content with d
        divided out of both.  No Fraction is built."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(d, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            d //= g
        p = object.__new__(cls)
        p._coeffs = None
        p._nums = tuple(nums), d
        return p

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
        """The coefficients as Fractions: those the Poly was built from, or
        else built from the integer form on first read and kept."""
        cs = self._coeffs
        if cs is None:
            nums, d = self._nums
            cs = self._coeffs = tuple(Fraction(n, d) for n in nums)
        return cs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums[0]) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self else Fraction(0)

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (0 beyond the stored degree)."""
        cs = self.coeffs
        if 0 <= k < len(cs):
            return cs[k]
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self._nums[0]) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self!r}")
        # Through the Fraction view, which is kept: a cached DP total is
        # read many times.
        cs = self.coeffs
        return cs[0] if cs else Fraction(0)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return self.degree >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            # Both integer forms are canonical, so they are equal exactly
            # when the polynomials are.
            return self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            a, b = other.as_integer_ratio()
            return self._nums == ((a,) if a else (), b)
        return NotImplemented

    def __hash__(self):
        # The DP caches hash their weight polynomials on every lookup, so
        # the hash is kept once computed.  A constant hashes like its value,
        # which it compares equal to.
        try:
            return self._hash
        except AttributeError:
            nums, d = self._nums
            self._hash = hash((nums, d) if len(nums) > 1 else Fraction(nums[0] if nums else 0, d))
            return self._hash

    def __neg__(self) -> "Poly":
        nums, d = self._nums
        return Poly._from_numerators([-n for n in nums], d)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # sum (N_k L/D + M_k L/E) x^k / L over L = lcm(D, E).
        (a, d), (b, e) = self._nums, other._nums
        big_l = math.lcm(d, e)
        a_scale, b_scale = big_l // d, big_l // e
        if len(a) < len(b):
            a, b, a_scale, b_scale = b, a, b_scale, a_scale
        out = [n * a_scale for n in a]
        for i, n in enumerate(b):
            out[i] += n * b_scale
        return Poly._from_numerators(out, big_l)

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
        if isinstance(other, (int, Fraction)):
            # c = a/b scales the integer form to sum (a N_k) x^k / (b D).
            a, b = other.as_integer_ratio()
            nums, d = self._nums
            return Poly._from_numerators([a * n for n in nums], b * d)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
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
        """The integer form: numerators N_k and the denominator D with
        p = sum N_k x^k / D, D the lcm of the coefficients' denominators,
        held from construction as an immutable tuple that every caller
        shares.
        """
        return self._nums

    def __call__(self, x: Scalar) -> Fraction:
        """Exact evaluation at a rational point: the homogeneous form of
        p's own degree at (x, 1), one Horner loop on the integer numerators
        (see homogenized)."""
        return self.homogenized(max(self.degree, 0), x, 1)

    def homogenized(self, n: int, a: Scalar, b: Scalar) -> Fraction:
        """sum c_k a^k b^(n-k), the degree-n homogeneous form of p at (a, b),
        for rationals a and b: b^n p(a/b) when b != 0.

        With p = sum N_k x^k / D, a = a1/a2 and b = b1/b2, it is
        sum N_k A^k B^(n-k) / (D (a2 b2)^n) for A = a1 b2 and B = a2 b1, so
        Horner's rule runs once on the integers (A, B) and one Fraction is
        built.  b = 0 leaves c_n a^n.  n may lie below deg(p), where the
        terms k > n divide by a power of b, so b must then be nonzero
        (ZeroDivisionError otherwise); n < 0 is refused.
        """
        if n < 0:
            raise ValueError(f"homogeneous degree must be nonnegative, got {n}")
        for value in (a, b):
            if type(value) is not int and type(value) is not Fraction:
                require_rational(value)
        nums, d = self._nums
        if not nums:
            return Fraction(0)
        (a1, a2), (b1, b2) = a.as_integer_ratio(), b.as_integer_ratio()
        big_a, big_b = a1 * b2, a2 * b1
        total, b_pow = 0, 1
        for num in reversed(nums):  # total = sum N_k A^k B^(deg(p)-k)
            total = total * big_a + num * b_pow
            b_pow *= big_b
        den = d * (a2 * b2) ** n
        extra = n - (len(nums) - 1)
        if extra < 0:
            return Fraction(total, den * big_b ** -extra)
        return Fraction(total * big_b ** extra, den)

    def compose_affine(self, a: Scalar, b: Scalar) -> "Poly":
        """Expand p(a*x + b) exactly, by a Taylor shift on one integer.

        With p = sum N_k x^k / D, a = A/E and b = B/E, p(a*x + b) =
        sum N_k E^(d-k) (A x + B)^k / (D E^d), d = deg(p), whose numerators
        are at most |N|_1 * max(E, |A| + |B|)^d in absolute value (p(1) at
        a = 0, b = 1 attains it when every N_k >= 0).  With K two bits past
        that bound's bit length, one integer Horner at A 2^K + B (each step
        a shift and two small products) yields them as the balanced
        base-2^K digits that _unpacked reads over D E^d (Kronecker
        substitution); no Fraction is built.
        """
        for value in (a, b):
            if type(value) is not int and type(value) is not Fraction:
                require_rational(value)
        nums, d = self._nums
        if not nums:
            return ZERO
        (a_num, a_den), (b_num, b_den) = a.as_integer_ratio(), b.as_integer_ratio()
        e = math.lcm(a_den, b_den)
        big_a, big_b = a_num * (e // a_den), b_num * (e // b_den)
        degree = len(nums) - 1
        k = (sum(map(abs, nums)) * max(e, abs(big_a) + abs(big_b)) ** degree).bit_length() + 2
        acc = 0
        e_pow = 1
        for n in reversed(nums):
            acc = (acc * big_a << k) + acc * big_b + n * e_pow
            e_pow *= e
        return _unpacked(acc, k, d * e ** degree)

    def antiderivative(self) -> "Poly":
        """The antiderivative vanishing at 0, i.e. x |-> integral from 0 to x.

        With p = sum N_k x^k / D and L = lcm(1..d+1), d = deg(p), it is the
        integer form sum (L/(k+1)) N_k x^(k+1) / (L D), reduced by one gcd.
        """
        nums, d = self._nums
        big_l = math.lcm(*range(1, len(nums) + 1))
        anti = [0] + [n * (big_l // k) for k, n in enumerate(nums, start=1)]
        return Poly._from_numerators(anti, big_l * d)

    def integrate(self, lo: Scalar, hi: Scalar) -> Fraction:
        """Exact value of the definite integral over [lo, hi]: the
        antiderivative evaluated at both bounds, each by integer Horner."""
        anti = self.antiderivative()
        return anti(hi) - anti(lo)

    def div_x(self) -> "Poly":
        """Return q with x*q = p, p(0) = 0, by dropping N_0 from the integer form."""
        nums, d = self._nums
        if nums and nums[0]:
            raise NonzeroConstantTerm(f"constant term is {Fraction(nums[0], d)}, not 0")
        return Poly._from_numerators(list(nums[1:]), d)

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
        for k, c in enumerate(self.coeffs):
            if c != 0:
                total = total + c * X ** k * pows[n - k]
        return total

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


def _packed(coeffs: tuple[int, ...], k: int) -> int:
    """sum c_i 2^(K i): the integer coefficients c_i evaluated at x = 2^K,
    by Horner's rule, so a constant packs in one step."""
    value = 0
    for c in reversed(coeffs):
        value = (value << k) + c
    return value


def _unpacked(value: int, k: int, d: int) -> Poly:
    """The Poly sum c_i x^i / d in integer form, c_i the balanced base-2^K
    digits of value; it inverts _packed when every |c_i| < 2^(K-1).

    K >= 2: at K = 1 the digit range [-1, 0] cannot hold a positive
    remainder, and the loop would never end."""
    if k < 2:
        raise ValueError(f"digit width must be at least 2 bits, got {k}")
    digits = []
    half, mask = 1 << (k - 1), (1 << k) - 1
    while value:
        digit = ((value & mask) ^ half) - half  # the low K bits, sign-extended
        digits.append(digit)
        value = (value - digit) >> k
    return Poly._from_numerators(digits, d)


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
