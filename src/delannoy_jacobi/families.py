"""Constructors for the classical polynomial families, via explicit sums.

All parameters are integers (negative values allowed where noted), so every
coefficient comes out of generalized binomials and stays an exact rational.
The Jacobi-type families are the integer sequence R = romanovski_sum
shifted once or not at all: romanovski is R, jacobi is R((x-1)/2) and
shifted_jacobi is R(x-1).  Both shifts read R through the cached
romanovski, so each (n, alpha, beta) sums its binomials once however many
of the three families ask for it.  The path DP checks jacobi in the dp1,
modified-delannoy and schroder entries and shifted_jacobi in llp, wd-jacobi
and wd-jacobi-swap.  dual-routes checks jacobi against jacobi_symmetric,
Szego's symmetric sum, which reads neither romanovski_sum nor
compose_affine, and the shifted Legendre family against a second binomial
sum.
"""

from fractions import Fraction
from functools import lru_cache

from .polynomial import CACHE_SIZE, Poly, _unpacked, binom


class InvalidIndex(ValueError):
    """The family is not defined at the requested index."""


@lru_cache(maxsize=CACHE_SIZE)
def jacobi(n: int, alpha: int = 0, beta: int = 0) -> Poly:
    """Jacobi polynomial P_n^(alpha,beta), extended to all integer parameters.

    Defined by the explicit sum
        sum_j C(n+alpha+beta+j, j) C(n+alpha, n-j) ((x-1)/2)^j,
    which agrees with the classical polynomials for alpha, beta > -1.  For
    negative integer parameters the degree may drop below n.  It is
    R((x-1)/2) for R = romanovski, one integer Taylor shift of the cached
    Romanovski coefficients.
    """
    return romanovski(n, alpha, beta).compose_affine(Fraction(1, 2), Fraction(-1, 2))


@lru_cache(maxsize=CACHE_SIZE)
def shifted_jacobi(n: int, alpha: int = 0, beta: int = 0) -> Poly:
    """Shifted Jacobi polynomial: the Jacobi polynomial composed with 2x-1,
    which is R(x-1) for R = romanovski, one integer Taylor shift of the
    cached Romanovski coefficients."""
    return romanovski(n, alpha, beta).compose_affine(1, -1)


@lru_cache(maxsize=CACHE_SIZE)
def romanovski(n: int, alpha: int = 0, beta: int = 0) -> Poly:
    """Romanovski-Jacobi polynomial: the Jacobi polynomial composed with 2x+1,
    which is R((2x+1-1)/2) = R(x), romanovski_sum itself.

    For alpha = 0 and negative integer second parameter these form finite
    orthogonal sequences; the definition itself is valid for all n.
    """
    return romanovski_sum(n, alpha, beta)


def romanovski_sum(n: int, alpha: int = 0, beta: int = 0) -> Poly:
    """Direct sum: sum_j C(n+alpha+beta+j, j) C(n+alpha, n-j) x^j.

    The Romanovski coefficients, from which each Jacobi-type family is built.
    """
    if n < 0:
        raise InvalidIndex("n must be nonnegative")
    return Poly(
        binom(n + alpha + beta + j, j) * binom(n + alpha, n - j)
        for j in range(n + 1)
    )


def jacobi_symmetric(n: int, alpha: int = 0, beta: int = 0) -> Poly:
    """Independent route to jacobi: Szego's symmetric sum (Orthogonal
    Polynomials, eq. 4.3.2)

        sum_s C(n+alpha, n-s) C(n+beta, s) ((x-1)/2)^s ((x+1)/2)^(n-s).

    Both sums are polynomials in alpha and beta and agree for alpha,
    beta > -1, so they agree at every integer parameter.  2^n times the sum
    is Q = sum_s c_s (x-1)^s (x+1)^(n-s), with integer coefficients at most
    2^n sum |c_s| in absolute value.  With K two bits past that bound's bit
    length, one integer Horner of the homogeneous form at (2^K - 1, 2^K + 1)
    gives Q(2^K), whose balanced base-2^K digits _unpacked reads over 2^n
    (Kronecker substitution).
    """
    if n < 0:
        raise InvalidIndex("n must be nonnegative")
    cs = [binom(n + alpha, n - s) * binom(n + beta, s) for s in range(n + 1)]
    k = (sum(map(abs, cs)) << n).bit_length() + 2
    a, b = (1 << k) - 1, (1 << k) + 1
    acc, b_pow = 0, 1
    for c in reversed(cs):  # acc = sum c_s a^s b^(n-s)
        acc = acc * a + c * b_pow
        b_pow *= b
    return _unpacked(acc, k, 1 << n)


def legendre(n: int) -> Poly:
    """Legendre polynomial P_n, the (0,0) Jacobi polynomial."""
    return jacobi(n, 0, 0)


def shifted_legendre(n: int) -> Poly:
    """Shifted Legendre polynomial: P_n composed with 2x-1."""
    return shifted_jacobi(n, 0, 0)


def shifted_legendre_sum(n: int) -> Poly:
    """Independent route: sum_k (-1)^(n-k) C(n,k) C(n+k,k) x^k."""
    if n < 0:
        raise InvalidIndex("n must be nonnegative")
    return Poly(
        (-1) ** (n - k) * binom(n, k) * binom(n + k, k) for k in range(n + 1)
    )


def laguerre(n: int) -> Poly:
    """Rook-normalized Laguerre polynomial sum_k (-1)^k C(n,k)^2 k! x^(n-k).

    This is the rook polynomial of the full n x n board; it equals
    (-1)^n n! times the conventionally normalized Laguerre polynomial.
    """
    return laguerre_gen(n, 0)


@lru_cache(maxsize=CACHE_SIZE)
def laguerre_gen(n: int, beta: int = 0) -> Poly:
    """Generalized Laguerre sum_k (-1)^k C(n+beta,k) C(n,k) k! x^(n-k),
    the rook polynomial of the (n+beta) x n rectangular board."""
    if n < 0 or beta < 0:
        raise InvalidIndex("n and beta must be nonnegative")
    coeffs = [0] * (n + 1)
    fact = 1
    for k in range(n + 1):
        coeffs[n - k] = (-1) ** k * binom(n + beta, k) * binom(n, k) * fact
        fact *= k + 1
    return Poly(coeffs)


def sj_product_expansion(n: int, alpha: int, beta: int) -> Poly:
    """(x-1)^alpha times the shifted Jacobi polynomial, as one direct sum:

        sum_k (-1)^(n+alpha-k) x^k C(n+alpha, k) C(n+beta+k, n),

    valid for natural alpha and any integer beta.
    """
    if n < 0:
        raise InvalidIndex("n must be nonnegative")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    return Poly(
        (-1) ** (n + alpha - k) * binom(n + alpha, k) * binom(n + beta + k, n)
        for k in range(n + alpha + 1)
    )


@lru_cache(maxsize=CACHE_SIZE)
def schroder_poly(n: int) -> Poly:
    """Schroeder polynomial S_n: the weighted Schroeder total at (1, x, -1).

    Closed form: sum_j (-1)^(n-j) C(2j,j)/(j+1) C(n+j,n-j) x^j, the j-east
    arrangements below the diagonal being counted by the Catalan number
    C(2j,j)/(j+1), so every coefficient is an integer.
    """
    if n < 0:
        raise InvalidIndex("n must be nonnegative")
    return Poly(
        (-1) ** (n - j) * (binom(2 * j, j) // (j + 1)) * binom(n + j, n - j)
        for j in range(n + 1)
    )


@lru_cache(maxsize=CACHE_SIZE)
def narayana(n: int) -> Poly:
    """Narayana polynomial N_n(x) = sum_{k=1..n} (1/n) C(n,k-1) C(n,k) x^k.

    Indexed from n = 1; the coefficients are the (integer) Narayana numbers.
    """
    if n < 1:
        raise InvalidIndex("Narayana polynomials are indexed from n = 1")
    coeffs = [0] * (n + 1)
    for k in range(1, n + 1):
        coeffs[k] = binom(n, k - 1) * binom(n, k) // n
    return Poly(coeffs)


def monic_legendre(n: int) -> Poly:
    """Monic Legendre variant 2^n P_n / C(2n, n)."""
    return Fraction(2 ** n, binom(2 * n, n)) * legendre(n)


def legendre_q(n: int) -> Poly:
    """The non-monic variant 2^n (2n-1)!! P_n / C(2n, n); its three-term
    recurrence has integer connecting coefficients."""
    dfact = 1
    for odd in range(1, 2 * n, 2):
        dfact *= odd
    return Fraction(2 ** n * dfact, binom(2 * n, n)) * legendre(n)


def monic_schroder(n: int) -> Poly:
    """Monic family (n+1) S_n / C(2n,n) of the Schroeder polynomials; it
    equals (1/C(2n,n)) ((x-1)/x) times the (1,-1) shifted Jacobi polynomial
    (the schroder entry checks S_n against that division form)."""
    sn = schroder_poly(n)  # raises InvalidIndex for n < 0, before C(2n, n) = 0
    return Fraction(n + 1, binom(2 * n, n)) * sn
