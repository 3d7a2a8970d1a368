"""Lattice path enumeration and weighted counting.

Delannoy paths go from (0,0) to (m,n) by east (1,0), north (0,1), and
northeast (1,1) steps; a path's weight is the product of its step weights
(u for east, v for north, w for northeast).  Schroeder paths are the
Delannoy paths to (n,n) that never rise above the diagonal y = x.

Each quantity is computed two ways wherever feasible: explicit enumeration
(the ground-truth oracle) and dynamic programming or a closed binomial sum.
There are two production routes for the weighted totals.  The DPs
(delannoy_table, schroder_table) take polynomial weights too, and are the
lattice-path side of the identity registry; enumeration (the
`*_enumerate` functions and diagonal_tally) and the multinomial closed sum
(delannoy_closed) are their oracles.  For constant weights, as the CLI's
`compute delannoy` and `compute schroder` take them, delannoy_sum and
schroder_sum add up the min(m,n)+1 terms of the paper's shifted Jacobi and
Schroeder sums, each term from the previous one by its integer ratio; the
DPs and delannoy_closed are their oracles in the tests.  Enumeration runs
up to fixed bounds, ENUMERATION_CAP = 16 steps per path and PAIR_CAP = 9
elements per path/bijection pair, and raises CapExceeded beyond them; the
polynomial-time DPs and closed sums have no bound.  Enumeration is one
depth-first walk with an explicit stack: it needs no recursion, yields every
path exactly once, in the lexicographic order east < north < northeast, as
its steps or (for diagonal_tally, which counts the paths to one endpoint by
northeast steps) as its northeast count, and never uses the closed sum's
choice of step positions, whose oracle it is.  The closed sum is one Horner
loop, run on integers for constant weights, clearing the
denominators itself, and on Poly for polynomial weights.  Neither the walk
nor the closed sum reads the weights the DPs clear and pack, so a fault
there cannot make an oracle agree with its DP.  The Legendre Motzkin
moments and the modified Delannoy numbers, too, run as DPs, the latter on
running block sums; the oracles that only the tests read (path weights
step by step, these two counts by enumeration, and the block sums summed
afresh per cell) live with the tests.  Weights may be rational constants
or polynomials in a single variable, so substituting v = x turns the same
DP into a polynomial-family constructor.  Each DP run clears the
weights' denominators and evaluates them at a power of two large enough to
hold every coefficient (Kronecker substitution, by polynomial's pair
_packed and _unpacked), so constant and polynomial weights alike run on
plain ints, and a total becomes a Poly in integer form with no Fraction
built.  Each lattice has one weighted DP, run row by row.  A table runs it
once to a far corner and keeps its packed cells, and a PackedTable reads
each total off its digits when it is first asked for, so a caller that
needs many totals at one weight triple runs one DP.  delannoy_weighted and
schroder_weighted, like the sequence helpers on plain ints, keep only the
previous row and read their total off the last one, so a library call
builds no table.  This module caches no table (the registry keeps the ones
it rereads).  A weight triple is a plain value: it keeps nothing that its
three polynomials do not, so the DPs and the closed sum each derive what
they run on from the weights themselves.
"""

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .polynomial import CACHE_SIZE, Poly, _packed, _unpacked, as_poly, require_rational

ENUMERATION_CAP = 16  # max total steps for explicit path enumeration
PAIR_CAP = 9          # max element count for bijection enumeration


class CapExceeded(ValueError):
    """The instance is too large for explicit enumeration."""


class Step(Enum):
    EAST = (1, 0)
    NORTH = (0, 1)
    DIAG = (1, 1)


@dataclass(frozen=True)
class WeightTriple:
    """Step weights (u east, v north, w northeast), each a polynomial.

    A frozen value of its three polynomials and nothing else: it compares
    and hashes as they do, each of which keeps its own hash, so a cached
    lookup hashes no coefficient.  The DPs clear its denominators per run
    (_packed_weights) and delannoy_closed reads its weights' integer forms,
    so neither route reads anything the other computed.
    """

    u: Poly
    v: Poly
    w: Poly

    @classmethod
    def of(cls, u, v, w) -> "WeightTriple":
        return cls(as_poly(u), as_poly(v), as_poly(w))

    def is_constant(self) -> bool:
        return self.u.is_constant() and self.v.is_constant() and self.w.is_constant()

    def values(self):
        """The three weights, as Fractions when all are constant."""
        if self.is_constant():
            return (
                self.u.constant_value(),
                self.v.constant_value(),
                self.w.constant_value(),
            )
        return (self.u, self.v, self.w)


# The DPs' default weights, which the plain counts take.
UNIT_WEIGHTS = WeightTriple.of(1, 1, 1)

# A path's state in _depth_first: its steps, or its number of northeast steps.
_AS_STEPS = {step: (step,) for step in Step}
_NORTHEAST_COUNT = {Step.EAST: 0, Step.NORTH: 0, Step.DIAG: 1}


def delannoy_enumerate(m: int, n: int) -> Iterator[tuple[Step, ...]]:
    """Yield every Delannoy path from (0,0) to (m,n) exactly once."""
    _require_quadrant(m, n)
    _require_steps(m + n)
    return _depth_first((m, n), (), _AS_STEPS)


def schroder_enumerate(n: int) -> Iterator[tuple[Step, ...]]:
    """Yield every Schroeder path to (n,n): Delannoy paths with y <= x throughout."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _require_steps(2 * n)
    return _depth_first((n, n), (), _AS_STEPS, below_diagonal=True)


@lru_cache(maxsize=CACHE_SIZE)
def diagonal_tally(m: int, n: int) -> tuple[int, ...]:
    """(N_0, .., N_min(m,n)): N_d paths to (m, n) take d northeast steps.

    Counted by walking every Delannoy path (_depth_first), never from
    binomials, so it stays an oracle of the closed sum and of the DPs.  A
    path with d northeast steps takes m-d east and n-d north steps, so any
    sum over paths that depends only on their step counts reads this tally
    instead of walking the paths again.  An lru_cache stores no exception,
    so the enumeration's bound is checked on every call.
    """
    _require_quadrant(m, n)
    _require_steps(m + n)
    counts = [0] * (min(m, n) + 1)
    for diag in _depth_first((m, n), 0, _NORTHEAST_COUNT):
        counts[diag] += 1
    return tuple(counts)


def _depth_first(end: tuple[int, int], start, delta: dict, below_diagonal=False) -> Iterator:
    """Yield the state of every Delannoy path from (0,0) to `end`, depth
    first, in the order east < north < northeast; with below_diagonal, only
    the paths with j <= i at every point (i, j).

    A path's state is start + delta[s] for its steps s in turn (a tuple of
    steps, or a count), so the walk never asks which one it builds.  A stack
    entry is a point with the state of the steps that reach it.  From the
    line i = m the path goes on all north, from j = n all east, so it ends
    there.  Short of both lines, east and northeast steps stay in the box and
    below the diagonal; only a north step from j = i would cross it.
    """
    m, n = end
    east, north, diag = (delta[step] for step in Step)
    stack = [(0, 0, start)]
    pop, push = stack.pop, stack.append
    while stack:
        i, j, state = pop()
        if i == m or j == n:
            yield state + (north * (n - j) if i == m else east * (m - i))
            continue
        # Pushed last, popped first: east before north before northeast.
        push((i + 1, j + 1, state + diag))
        if not below_diagonal or j < i:
            push((i, j + 1, state + north))
        push((i + 1, j, state + east))


class PackedTable:
    """The totals of one packed DP run, keyed by their endpoint (i, j).

    Each is kept as the integer the DP left, and read off its base-2^K
    digits over q^(i+j) on its first read, then kept as a Poly.  That read
    holds for every cell, since a cell of i+j steps obeys the digit bound of
    the run's far corner (see _packed_weights).  An endpoint the run did not
    reach raises KeyError.
    """

    __slots__ = ("_packed", "_q", "_k", "_read")

    def __init__(self, packed: dict[tuple[int, int], int], q: int, k: int):
        self._packed, self._q, self._k = packed, q, k
        self._read: dict[tuple[int, int], Poly] = {}

    def __getitem__(self, end: tuple[int, int]) -> Poly:
        total = self._read.get(end)
        if total is None:
            i, j = end
            total = self._read[end] = _unpacked(self._packed[end], self._k, self._q ** (i + j))
        return total


def delannoy_table(m: int, n: int, wt: WeightTriple = UNIT_WEIGHTS) -> PackedTable:
    """Every weighted Delannoy total to (i, j), i <= m and j <= n, from one
    DP run."""
    _require_quadrant(m, n)
    q, k, u, v, w = _packed_weights(wt, m + n)
    packed = {(i, j): cell for i, row in enumerate(_delannoy_rows(m, n, u, v, w))
              for j, cell in enumerate(row)}
    return PackedTable(packed, q, k)


def delannoy_weighted(m: int, n: int, wt: WeightTriple = UNIT_WEIGHTS) -> Poly:
    """Weighted Delannoy total by dynamic programming: the far corner of
    the DP's last row, read off its digits, so the call keeps one row at a
    time and builds no table."""
    _require_quadrant(m, n)
    q, k, u, v, w = _packed_weights(wt, m + n)
    return _unpacked(_last(_delannoy_rows(m, n, u, v, w))[n], k, q ** (m + n))


@lru_cache(maxsize=CACHE_SIZE)
def delannoy_closed(m: int, n: int, wt: WeightTriple = UNIT_WEIGHTS) -> Poly:
    """Weighted Delannoy total by the closed binomial sum.

    sum_k C_k u^(m-k) v^(n-k) w^k, C_k = C(m+n-k, k) C(m+n-2k, n-k) for k
    up to K = min(m,n); a path with k northeast steps has m-k east and n-k
    north steps, and the steps interleave in C_k ways.  The sum is
    u^(m-K) v^(n-K) times the homogeneous sum_k C_k (uv)^(K-k) w^k, which
    _closed_sum builds by Horner's rule.  Polynomial weights run it on Poly.
    For constant weights u = a/b, v = c/d, w = e/f, multiplying by
    b^m d^n f^K turns (uv, w) into the integers (acf, bde), so the loop
    runs on ints and one Fraction is made at the end; a/b is u's integer
    form (N_0, D), which is its value in lowest terms.  Neither route
    clears or packs the weights as the DPs do, so the sum stays their
    independent oracle.

    The cache never hits within one cold `verify --all`, which asks for each
    total once; it serves repeated requests in one process, such as the
    benchmark's warm repeat of each compute-poly request, where a
    polynomial-weight total of 40 to 60 steps costs milliseconds.
    """
    _require_quadrant(m, n)
    top = min(m, n)
    if wt.is_constant():
        # A constant's numerators are () for zero and (N_0,) otherwise.
        (a, b), (c, d), (e, f) = ((sum(nums), den) for nums, den in
                                  (x._numerators() for x in (wt.u, wt.v, wt.w)))
        total = _closed_sum(m, n, a * c * f, b * d * e) * a ** (m - top) * c ** (n - top)
        return Poly.constant(Fraction(total, b ** m * d ** n * f ** top))
    u, v, w = wt.values()
    return u ** (m - top) * v ** (n - top) * _closed_sum(m, n, u * v, w)


def _closed_sum(m: int, n: int, low, high):
    """sum_k C_k low^(K-k) high^k for K = min(m,n), on ints or Polys, from
    C_0 = C(m+n, n) and C_(k+1) = C_k (m-k)(n-k) / ((k+1)(m+n-k))."""
    coeff = total = math.comb(m + n, n)
    high_power = 1
    for k in range(min(m, n)):
        coeff = coeff * (m - k) * (n - k) // ((k + 1) * (m + n - k))
        high_power *= high
        total = total * low + coeff * high_power
    return total


def schroder_table(n: int, wt: WeightTriple = UNIT_WEIGHTS) -> PackedTable:
    """Every weighted Schroeder total to (i, i), i <= n, from one DP run:
    the row ends, as schroder_numbers reads them."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, k, u, v, w = _packed_weights(wt, 2 * n)
    packed = {(i, i): row[-1] for i, row in enumerate(_schroder_rows(n, u, v, w))}
    return PackedTable(packed, q, k)


def schroder_weighted(n: int, wt: WeightTriple = UNIT_WEIGHTS) -> Poly:
    """Weighted Schroeder total by DP restricted to cells with j <= i: the
    end of the DP's last row, so the call keeps one row at a time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, k, u, v, w = _packed_weights(wt, 2 * n)
    return _unpacked(_last(_schroder_rows(n, u, v, w))[-1], k, q ** (2 * n))


def delannoy_sum(m: int, n: int, u: Fraction = Fraction(1), v: Fraction = Fraction(1),
                 w: Fraction = Fraction(1)) -> Fraction:
    """Weighted Delannoy total for constant weights, by the shifted Jacobi
    sum.

    sum_k C(m,k) C(n,k) u^(m-k) v^(n-k) (uv+w)^k for k up to K = min(m,n),
    the expansion of u^beta (-w)^n P~_n^(0,beta)(-uv/w).  For uv != 0 it is
    u^m v^n sum_k C(m,k) C(n,k) t^k with t = (uv+w)/(uv) = r/s in lowest
    terms.  With u = a/b, v = c/d, w = e/f, t = (acf + bde)/(acf), and
    sum_k C(m,k) C(n,k) r^k s^(K-k) runs on ints: each term is the previous
    one times its ratio (m-k)(n-k) r / ((k+1)^2 s), an exact integer
    division, and one Fraction is made at the end.  For uv = 0 only the
    term k = K can be nonzero.
    """
    _require_quadrant(m, n)
    top = min(m, n)
    (a, b), (c, d), (e, f) = (require_rational(x).as_integer_ratio() for x in (u, v, w))
    low = a * c * f
    if low == 0:
        coeff = math.comb(m, top) * math.comb(n, top)
        return Fraction(coeff * a ** (m - top) * c ** (n - top) * e ** top,
                        b ** (m - top) * d ** (n - top) * f ** top)
    r, s = _lowest_terms(low + b * d * e, low)
    term = total = s ** top
    for k in range(top):
        term = term * ((m - k) * (n - k) * r) // ((k + 1) ** 2 * s)
        total += term
    return Fraction(a ** m * c ** n * total, b ** m * d ** n * s ** top)


def schroder_sum(n: int, u: Fraction = Fraction(1), v: Fraction = Fraction(1),
                 w: Fraction = Fraction(1)) -> Fraction:
    """Weighted Schroeder total for constant weights, by the binomial sum.

    sum_k C(2n-k,k) Cat(n-k) (uv)^(n-k) w^k, which is (-w)^n S_n(-uv/w).
    For uv != 0 it is (uv)^n sum_k C(2n-k,k) Cat(n-k) t^k with
    t = w/(uv) = r/s in lowest terms (bde/(acf) for u = a/b, v = c/d,
    w = e/f).  On ints, each term of sum_k C(2n-k,k) Cat(n-k) r^k s^(n-k)
    is the previous one times (n-k)(n-k+1) r / ((2n-k)(k+1) s), from
    Cat(n) s^n, and one Fraction is made at the end.  For uv = 0 only the
    term w^n can be nonzero.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    (a, b), (c, d), (e, f) = (require_rational(x).as_integer_ratio() for x in (u, v, w))
    low = a * c * f
    if low == 0:
        return Fraction(e ** n, f ** n)
    r, s = _lowest_terms(b * d * e, low)
    term = total = math.comb(2 * n, n) // (n + 1) * s ** n
    for k in range(n):
        term = term * ((n - k) * (n - k + 1) * r) // ((2 * n - k) * (k + 1) * s)
        total += term
    return Fraction((a * c) ** n * total, (b * d * s) ** n)


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def central_delannoy(count: int) -> list[int]:
    """Central Delannoy numbers d(k,k) for k < count: the diagonal of one DP."""
    _require_count(count)
    rows = _delannoy_rows(count - 1, count - 1, 1, 1, 1) if count else ()
    return [row[k] for k, row in enumerate(rows)]


def delannoy_row(m: int, count: int) -> list[int]:
    """Delannoy numbers d(m,k) for k < count: the last row of one DP."""
    _require_quadrant(m, 0)
    _require_count(count)
    return _last(_delannoy_rows(m, count - 1, 1, 1, 1)) if count else []


def schroder_numbers(count: int) -> list[int]:
    """Large Schroeder numbers r_k for k < count: the row ends of one DP."""
    _require_count(count)
    return [row[-1] for row in _schroder_rows(count - 1, 1, 1, 1)]


def _packed_weights(wt: WeightTriple, steps: int) -> tuple[int, int, int, int, int]:
    """(q, K, U(2^K), V(2^K), W(2^K)) for DPs of at most `steps` steps.

    q is the lcm of the denominators of u, v and w, and U = q*u, V = q*v,
    W = q^2*w are the cleared weights, integer polynomials.  East and north
    steps gain a factor q and diagonal steps q^2, so every path to (i,j)
    gains q^(i+j).  With S = max(1, |U|_1 + |V|_1 + |W|_1), every DP
    cell obeys |D(i,j)|_1 <= S^(i+j) by induction, so each of its signed
    coefficients fits in a K-bit digit for K = steps * bitlength(S) + 2 (a
    sign bit to spare, and K >= 2 even for the empty path).  Evaluating the
    cleared weights at x = 2^K (Kronecker substitution, polynomial's
    _packed) then lets the DP run on plain ints and read D(i,j) off the
    digits of one integer (its twin _unpacked), with no gcd in any cell;
    constant weights are the degree-0 case.
    """
    q = math.lcm(*(p._numerators()[1] for p in (wt.u, wt.v, wt.w)))
    u, v, w = _scaled(wt.u, q), _scaled(wt.v, q), _scaled(wt.w, q * q)
    k = steps * max(1, sum(abs(c) for c in (*u, *v, *w))).bit_length() + 2
    return q, k, _packed(u, k), _packed(v, k), _packed(w, k)


def _scaled(p: Poly, scale: int) -> tuple[int, ...]:
    """The integer coefficients of scale * p; scale is a multiple of its denominator."""
    nums, d = p._numerators()
    return tuple(n * (scale // d) for n in nums)


def _delannoy_rows(m: int, n: int, u, v, w) -> Iterator[list]:
    """Yield the rows i = 0..m of the DP table D(i, 0..n).

    D(0,0) = 1 and D(i,j) = u D(i-1,j) + v D(i,j-1) + w D(i-1,j-1), terms
    outside the quadrant dropped.  Only the previous row is kept.
    """
    row = [1]
    for j in range(n):
        row.append(v * row[j])
    yield row
    for _ in range(m):
        prev, row = row, [u * row[0]]
        for j in range(1, n + 1):
            row.append(u * prev[j] + v * row[j - 1] + w * prev[j - 1])
        yield row


def _schroder_rows(n: int, u, v, w) -> Iterator[list]:
    """Yield the rows i = 0..n of the same DP restricted to the cells j <= i.

    Row i holds D(i, 0..i); its last entry is the total at (i,i).  Only the
    previous row is kept.
    """
    if n < 0:
        return
    row = [1]
    yield row
    for i in range(1, n + 1):
        prev, row = row, [u * row[0]]
        for j in range(1, i):
            row.append(u * prev[j] + v * row[j - 1] + w * prev[j - 1])
        row.append(v * row[i - 1] + w * prev[i - 1])
        yield row


def _last(rows: Iterator[list]) -> list:
    for row in rows:
        pass
    return row


def modified_delannoy(m: int, n: int) -> int:
    """Count lattice paths from (0,0) to (m, n+1) with steps from N x P.

    Every step (a,b) has a >= 0 and b >= 1, so the paths to (i, j), j >= 1,
    are T(i, j) = S(i, j-1), the paths to every point of the block
    i' <= i, j' <= j-1; T(0, 0) = 1 and T(i, 0) = 0 for i > 0.  The block
    sums obey S(i, j) = S(i, j-1) + sum_{i' <= i} T(i', j), so one running
    sum per height keeps the row S(0..m, j) in O(mn) additions.
    """
    _require_quadrant(m, n)
    block = [1] * (m + 1)  # S(i, 0): the one path that is still at (0, 0)
    for _ in range(n):
        running = 0
        for i, paths_here in enumerate(block):  # T(i, j) = S(i, j-1)
            running += paths_here
            block[i] += running
    return block[m]  # T(m, n+1) = S(m, n)


def motzkin_legendre_moment(n: int) -> Fraction:
    """Total weight of Motzkin paths of length n under the Legendre weights.

    Up steps weigh 1, level steps weigh 0, and a down step starting at
    height k weighs k^2/(4k^2 - 1).  Computed by a DP over the height after
    each step (a transfer matrix), O(n^2) Fraction operations; level steps
    add nothing, since they weigh 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    heights = [Fraction(1)]  # heights[k]: total weight of the prefixes ending at height k
    for remaining in range(n, 0, -1):
        # A prefix ending above the steps that remain cannot return to 0.
        top = min(len(heights), remaining - 1)
        heights = [
            (heights[k - 1] if k else 0)
            + (heights[k + 1] * _legendre_down(k + 1) if k + 1 < len(heights) else 0)
            for k in range(top + 1)
        ]
    return heights[0]


def _legendre_down(height: int) -> Fraction:
    return Fraction(height * height, 4 * height * height - 1)


def valid_pair_signed_sum(n: int, m: int, beta: int) -> int:
    """Signed count of valid path/bijection pairs, by brute force.

    A pair is a Delannoy path L to (n+beta, n) together with a bijection
    sigma from {r, a_1..a_{n+beta}, b_1..b_m} onto {1..m+n+beta+1} such that
    sigma(r) < sigma(a_i) whenever L has an east step crossing column i, and
    sigma(r) < sigma(b_j) for every j.  The weight of a pair is
    (-1)**(number of northeast steps of L).

    Paths are enumerated explicitly (through diagonal_tally, so the path
    also has at most ENUMERATION_CAP steps); the bijections of a path depend
    only on how many elements are constrained to exceed sigma(r), and are
    counted in closed form once per class (the permutation walk that checks
    that count lives in the tests).
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    total_items = n + m + beta + 1
    if total_items > PAIR_CAP:
        raise CapExceeded(
            f"pair enumeration needs {total_items} elements, the bound is {PAIR_CAP}"
        )
    if n + beta < 0:
        raise ValueError("path endpoint (n+beta, n) leaves the quadrant")

    total = 0
    for diag, npaths in enumerate(diagonal_tally(n + beta, n)):
        east = n + beta - diag
        total += (-1) ** diag * npaths * _count_leader_orders(total_items, east + m)
    return total


def _count_leader_orders(total: int, constrained: int) -> int:
    """Orders of `total` items in which item 0 comes before each of items
    1..constrained: item 0 must be the least of its constrained+1 group,
    which holds in total!/(constrained+1) of the orders."""
    return math.factorial(total) // (constrained + 1)


def _require_steps(steps: int) -> None:
    if steps > ENUMERATION_CAP:
        raise CapExceeded(f"enumeration of {steps} steps exceeds the bound of {ENUMERATION_CAP}")


def _require_quadrant(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("lattice endpoints must be in the first quadrant")


def _require_count(count: int) -> None:
    if count < 0:
        raise ValueError("count must be nonnegative")
