"""Moment functionals, exact inner products, Hankel moment matrices with
their exact determinants, and three-term recurrence fitting.

A moment functional is represented by its finite moment sequence and fails
loudly when applied past its last defined moment: the finite functionals
here are only defined up to a degree bound, and silent extrapolation would
hide exactly the boundary effects the Hankel-extension machinery probes.

Both inner products here, a functional applied to a product
(MomentFunctional.pair) and the weighted integral over [0, 1]
(inner_weighted), take the two factors rather than their product: one
helper, _convolve, multiplies the factors' integer numerators, and the
result is summed against the moments on integers, so no product Poly and
no Fraction per coefficient is built.

A functional holds its moments from construction in integer form too:
numerators over their one common denominator, so applying it is one
integer dot product and one Fraction.

Matrices are plain lists of rational rows (ints or Fractions).  det_exact
clears each row's denominators once and runs fraction-free (Bareiss)
elimination on the integer rows, where every division is exact, so no
intermediate is a Fraction; the determinant is the integer one over the
product of the row scales.
"""

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .polynomial import Poly, Scalar, X, require_rational


class DegreeOutOfRange(ValueError):
    """A functional was applied to a polynomial past its defined moments."""


class NonpositiveCofactor(ArithmeticError):
    """The leading principal minor that should certify positivity is not
    positive; indicates an internal inconsistency, not a user error."""


class NotInRecurrence(ValueError):
    """No exact (c, lambda) pair reproduces the polynomial at this index."""

    def __init__(self, index: int):
        super().__init__(f"family member {index} does not satisfy a three-term recurrence")
        self.index = index


Matrix = list[list[Scalar]]


@dataclass(frozen=True)
class MomentFunctional:
    """Linear functional on polynomials, given by moments[k] = value on x^k.

    From construction it also holds the moments' integer form: numerators
    M_k over one common denominator L, the lcm of the moments'
    denominators, with moments[k] = M_k / L.  Equality, hashing and repr
    read the moments alone.
    """

    moments: tuple[Fraction, ...]
    _integer_form: tuple[tuple[int, ...], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        nums, scale = _cleared(self.moments)
        object.__setattr__(self, "_integer_form", (tuple(nums), scale))

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    def moment(self, k: int) -> Fraction:
        if not 0 <= k <= self.max_degree:
            raise DegreeOutOfRange(f"moment {k} undefined (max degree {self.max_degree})")
        return self.moments[k]

    def __call__(self, p: Poly) -> Fraction:
        """The value on p = sum N_k x^k / D, which is sum N_k m_k / D."""
        nums, d = p._numerators()
        return self._apply(nums, d)

    def pair(self, f: Poly, g: Poly) -> Fraction:
        """The value on f*g, from the convolution of the integer numerators
        of f and g (see _convolve); the product f*g is never built.  Raises
        DegreeOutOfRange exactly when, and as, self(f * g) does."""
        f_nums, f_den = f._numerators()
        g_nums, g_den = g._numerators()
        return self._apply(_convolve(f_nums, g_nums), f_den * g_den)

    def _apply(self, nums: Sequence[int], d: int) -> Fraction:
        """sum N_k m_k / D = sum N_k M_k / (D L): one integer dot product
        with the held moment numerators and one Fraction per call."""
        degree = len(nums) - 1
        if degree > self.max_degree:
            raise DegreeOutOfRange(
                f"degree {degree} exceeds defined moments (max {self.max_degree})"
            )
        moment_nums, scale = self._integer_form
        return Fraction(sum(map(operator.mul, nums, moment_nums)), d * scale)


def _cleared(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """Integer numerators N_k and the lcm L of the denominators of the
    rationals v_k, with v_k = N_k / L."""
    ratios = [require_rational(v).as_integer_ratio() for v in values]
    scale = math.lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def factorial_functional(max_degree: int) -> MomentFunctional:
    """The functional with k-th moment k!; on polynomials it agrees with
    integration against exp(-x) over the positive half-line."""
    return MomentFunctional(
        tuple(Fraction(math.factorial(k)) for k in range(max_degree + 1))
    )


def lbeta_functional(beta: int) -> MomentFunctional:
    """Moments k! (beta-2-k)! / (beta-1)! for k <= beta-2.

    These are the moments of the weight (1+x)^(-beta) on the positive
    half-line, which only has finite moments up to degree beta-2.
    """
    if beta < 2:
        raise ValueError("beta must be at least 2")
    top = math.factorial(beta - 1)
    return MomentFunctional(
        tuple(
            Fraction(math.factorial(k) * math.factorial(beta - 2 - k), top)
            for k in range(beta - 1)
        )
    )


def _convolve(f_nums: Sequence[int], g_nums: Sequence[int]) -> list[int]:
    """The integer numerators of f*g from those of f and g: N_k = sum F_i G_j
    over i+j = k.  A nonzero f and g give a nonzero top term, so the result
    has exactly deg(f*g) + 1 entries, and none when f or g is zero."""
    nums = [0] * (len(f_nums) + len(g_nums) - 1) if f_nums and g_nums else []
    for i, a in enumerate(f_nums):
        if a:
            for j, b in enumerate(g_nums, start=i):
                nums[j] += a * b
    return nums


def inner_weighted(f: Poly, g: Poly, alpha: int = 0, beta: int = 0) -> Fraction:
    """Exact integral of f*g*(1-x)^alpha*x^beta over [0, 1].

    Term by term this is the Beta integral: x^k contributes
    (k+beta)! alpha! / (k+beta+alpha+1)!.  With f = sum F_i x^i / D_f and
    g = sum G_j x^j / D_g, the integer numerators of f*g are the
    convolution N_k = sum F_i G_j (i+j = k, see _convolve) over
    D = D_f D_g; with T = deg(f*g) + beta + alpha + 1, the terms are summed
    on integers over the common denominator D T!, so one Fraction is built
    per call.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    f_nums, f_den = f._numerators()
    g_nums, g_den = g._numerators()
    nums = _convolve(f_nums, g_nums)
    fact = math.factorial
    top = len(nums) + beta + alpha
    lower = fact(beta)  # (k+beta)!
    upper = fact(top) // fact(beta + alpha + 1)  # T! / (k+beta+alpha+1)!
    total = 0
    for k, n in enumerate(nums):
        total += n * lower * upper
        lower *= k + beta + 1
        upper //= k + beta + alpha + 2
    return Fraction(total * fact(alpha), f_den * g_den * fact(top))


def hankel_mbeta(beta: int, top: Scalar) -> Matrix:
    """The (beta+1)/2 square Hankel matrix of lbeta moments, with the one
    out-of-range moment (on x^(beta-1), the bottom-right corner) set to `top`."""
    if beta < 3 or beta % 2 == 0:
        raise ValueError("beta must be an odd integer >= 3")
    functional = lbeta_functional(beta)
    size = (beta + 1) // 2
    top = Fraction(require_rational(top))
    return [
        [
            top if i + j == beta - 1 else functional.moment(i + j)
            for j in range(size)
        ]
        for i in range(size)
    ]


def det_exact(matrix: Matrix) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions.

    Each row is scaled once by the lcm of its denominators, which
    multiplies the determinant by that lcm; _bareiss takes the integer
    determinant of the scaled rows, and the result is it over the product
    of the row scales, the one Fraction built per call.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    rows = []
    scale = 1
    for row in matrix:
        nums, d = _cleared(row)
        rows.append(nums)
        scale *= d
    return Fraction(_bareiss(rows), scale)


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in place: step k replaces each entry below and right of
    the pivot by the 2x2 cross-product with the pivot row, divided by the
    previous pivot.  Every such division is exact (Bareiss, Math. Comp. 22,
    1968), so every entry stays an integer; the last pivot is the
    determinant.  A zero pivot is swapped with the first nonzero entry
    below it, flipping the sign; a column with none gives 0."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[i], rows[k] = rows[k], rows[i]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def leading_principal_minors(matrix: Matrix) -> list[Fraction]:
    """Determinants of the upper-left k x k blocks, k = 1..n."""
    return [
        det_exact([row[:k] for row in matrix[:k]]) for k in range(1, len(matrix) + 1)
    ]


def lbeta_extension_threshold(beta: int) -> Fraction:
    """The exact value t* with det(M_beta(t)) > 0 iff t > t*.

    The determinant is linear in the corner moment t; its coefficient is
    the largest proper leading principal minor, which must be positive
    because the functional restricted below the boundary degree is positive
    definite.  The threshold is then read off the linear function.
    """
    size = (beta + 1) // 2
    base = hankel_mbeta(beta, 0)
    cofactor = det_exact([row[: size - 1] for row in base[: size - 1]])
    if cofactor <= 0:
        raise NonpositiveCofactor(
            f"leading principal minor {cofactor} of the moment matrix is not positive"
        )
    at_zero = det_exact(base)
    return -at_zero / cofactor


def favard_fit(family) -> list[tuple[Fraction, Fraction]]:
    """Fit the three-term recurrence p_n = (x - c_n) p_{n-1} - lambda_n p_{n-2}.

    The family must be monic with deg(p_n) = n and p_0 = 1.  Each (c, lambda)
    pair is confirmed by full polynomial identity, not just two coefficients;
    lambda_1 is reported as 0 (p_{-1} = 0 leaves it unconstrained).
    """
    family = list(family)
    if not family or family[0] != Poly((1,)):
        raise ValueError("family must start with the constant polynomial 1")
    for i, p in enumerate(family):
        if p.degree != i or p.leading != 1:
            raise ValueError(f"family member {i} is not monic of degree {i}")
    out: list[tuple[Fraction, Fraction]] = []
    for i in range(1, len(family)):
        residual = X * family[i - 1] - family[i]  # equals c*p_{i-1} + lambda*p_{i-2}
        c = residual.coefficient(i - 1)
        residual = residual - c * family[i - 1]
        if i == 1:
            lam = Fraction(0)
        else:
            lam = residual.coefficient(i - 2)
            residual = residual - lam * family[i - 2]
        if residual:
            raise NotInRecurrence(i)
        out.append((c, lam))
    return out
