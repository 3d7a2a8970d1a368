"""Brute-force oracles that only the tests call.

Each is the explicit-enumeration or by-definition twin of a library route:
path_weight sums a path's step weights for the path DPs, the two
*_enumerate functions count what modified_delannoy and
motzkin_legendre_moment compute by DP, modified_delannoy_by_blocks is the
block-sum DP that modified_delannoy runs with running sums, gram_matrix
with is_diagonal checks orthogonality entry by entry, and the *_by_fractions functions run
on Fraction coefficients what Poly runs on its integer form: scaling by a
constant and the antiderivative, which integrate_by_antiderivative
evaluates for Poly.integrate; compose_affine_by_lists is the list Horner
of the Taylor shift that Poly.compose_affine runs as one integer Horner.
"""

import math
from fractions import Fraction

from delannoy_jacobi.functionals import Matrix
from delannoy_jacobi.paths import (
    UNIT_WEIGHTS,
    CapExceeded,
    Step,
    WeightTriple,
    _legendre_down,
    _require_quadrant,
    _require_steps,
)
from delannoy_jacobi.polynomial import Poly, as_poly


def path_weight(path: tuple[Step, ...], wt: WeightTriple = UNIT_WEIGHTS) -> Poly:
    """Product of the step weights along a path.

    Constant weights are multiplied as Fractions and wrapped once.
    """
    weights = dict(zip((Step.EAST, Step.NORTH, Step.DIAG), wt.values()))
    out = 1
    for step in path:
        out = out * weights[step]
    return as_poly(out)


def modified_delannoy_enumerate(m: int, n: int) -> int:
    """Brute-force count of the paths modified_delannoy counts, by recursion
    over the first step, for m + n <= 8."""
    _require_quadrant(m, n)
    if m + n > 8:
        raise CapExceeded(f"enumeration of modified Delannoy ({m},{n}) exceeds m + n = 8")

    def count_to(i: int, j: int) -> int:
        if i == 0 and j == 0:
            return 1
        total = 0
        for a in range(i + 1):
            for b in range(1, j + 1):
                total += count_to(i - a, j - b)
        return total

    return count_to(m, n + 1)


def modified_delannoy_by_blocks(m: int, n: int) -> list[list[int]]:
    """The table T(i, j), i <= m and j <= n+1, of the paths modified_delannoy
    counts (T(i, j+1) is its count at (i, j)), by the DP over the landing
    point of the last step: each cell sums its whole lower-left block
    afresh, O(m^2 n^2) additions with no running sum to get wrong."""
    _require_quadrant(m, n)
    height = n + 1
    table = [[0] * (height + 1) for _ in range(m + 1)]
    table[0][0] = 1
    for i in range(m + 1):
        for j in range(height + 1):
            if i == 0 and j == 0:
                continue
            table[i][j] = sum(
                table[ip][jp] for ip in range(i + 1) for jp in range(j)
            )
    return table


def motzkin_legendre_moment_enumerate(n: int) -> Fraction:
    """The total of motzkin_legendre_moment by explicit enumeration of the
    Motzkin paths of length n (fewer than 3^n; level steps included,
    contributing zero weight)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _require_steps(n)

    def rec(remaining: int, height: int, weight: Fraction) -> Fraction:
        if height > remaining:
            return Fraction(0)
        if remaining == 0:
            return weight
        total = rec(remaining - 1, height + 1, weight)
        total += rec(remaining - 1, height, weight * 0)
        if height > 0:
            total += rec(remaining - 1, height - 1, weight * _legendre_down(height))
        return total

    return rec(n, 0, Fraction(1))


def gram_matrix(family, inner) -> Matrix:
    """G[i][j] = inner(family[i], family[j]), computed exactly."""
    family = list(family)
    return [[inner(p, q) for q in family] for p in family]


def is_diagonal(matrix: Matrix) -> bool:
    return all(
        matrix[i][j] == 0
        for i in range(len(matrix))
        for j in range(len(matrix))
        if i != j
    )


def scaled_by_fractions(c, p: Poly) -> Poly:
    """c * p, each Fraction coefficient multiplied by c."""
    return Poly([c * k for k in p.coeffs])


def antiderivative_by_fractions(p: Poly) -> Poly:
    """The antiderivative vanishing at 0, each Fraction coefficient divided
    by its new exponent."""
    return Poly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(p.coeffs)])


def integrate_by_antiderivative(p: Poly, lo, hi) -> Fraction:
    """The integral of p over [lo, hi]: the Fraction antiderivative
    evaluated at both bounds."""
    anti = antiderivative_by_fractions(p)
    return anti(hi) - anti(lo)


def compose_affine_by_lists(p: Poly, a, b) -> Poly:
    """p(a*x + b) = sum N_k E^(d-k) (A x + B)^k / (D E^d), a = A/E and
    b = B/E, by Horner on the integer form with each step a new list of
    numerators: no digit packing, so no digit bound to get wrong."""
    nums, d = p._numerators()
    if not nums:
        return Poly()
    (a_num, a_den), (b_num, b_den) = a.as_integer_ratio(), b.as_integer_ratio()
    e = math.lcm(a_den, b_den)
    big_a, big_b = a_num * (e // a_den), b_num * (e // b_den)
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
    return Poly._from_numerators(acc, d * e ** (len(nums) - 1))
