"""Tests for path enumeration, DP counts, and the brute-force oracles."""

import importlib
import itertools
import math
import pkgutil
import tracemalloc
from fractions import Fraction as F

import pytest
from faults import CACHES, cold, cold_failures, empty_caches
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    modified_delannoy_by_blocks,
    modified_delannoy_enumerate,
    motzkin_legendre_moment_enumerate,
    path_weight,
)

import delannoy_jacobi
from delannoy_jacobi import families, identities, paths, polynomial
from delannoy_jacobi.polynomial import CACHE_SIZE, Poly, X, as_poly, binom
from delannoy_jacobi.paths import (
    ENUMERATION_CAP,
    PAIR_CAP,
    CapExceeded,
    Step,
    WeightTriple,
    central_delannoy,
    delannoy_closed,
    delannoy_enumerate,
    delannoy_row,
    delannoy_sum,
    delannoy_weighted,
    diagonal_tally,
    modified_delannoy,
    motzkin_legendre_moment,
    schroder_enumerate,
    schroder_numbers,
    schroder_sum,
    schroder_weighted,
    valid_pair_signed_sum,
    _count_leader_orders,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
triples = st.tuples(rationals, rationals, rationals)

# Denominators up to 20, so that the cleared DP scales by a large lcm; zero
# is drawn on its own as well, since hypothesis rarely lands on it.
wide_rationals = st.one_of(
    st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=20)
)
wide_triples = st.tuples(wide_rationals, wide_rationals, wide_rationals)
# Polynomial weights with rational coefficients, against the same oracles.
poly_weights = st.lists(wide_rationals, min_size=1, max_size=3).map(Poly)
poly_triples = st.tuples(poly_weights, poly_weights, poly_weights)

ONES = WeightTriple.of(1, 1, 1)
POLY_WT = WeightTriple.of(1, X, -1)
RATIONAL_POLY_WT = WeightTriple.of(Poly((F(1, 2), F(-2, 3))), X, F(-1, 4))


def enumerated_total(paths, wt):
    return sum((path_weight(p, wt) for p in paths), Poly())


def _closed_by_fractions(m, n, wt):
    """The former body of delannoy_closed: the closed sum on Fractions or Poly."""
    u, v, w = wt.values()
    total = 0 * u
    for k in range(min(m, n) + 1):
        coeff = binom(m + n - k, k) * binom(m + n - 2 * k, n - k)
        total = total + coeff * u ** (m - k) * v ** (n - k) * w ** k
    return as_poly(total)


def recursive_delannoy(m, n):
    """The former recursive enumerator of the Delannoy paths to (m, n)."""

    def rec(i, j, prefix):
        if i == m and j == n:
            yield tuple(prefix)
            return
        if i < m:
            yield from rec(i + 1, j, prefix + [Step.EAST])
        if j < n:
            yield from rec(i, j + 1, prefix + [Step.NORTH])
        if i < m and j < n:
            yield from rec(i + 1, j + 1, prefix + [Step.DIAG])

    return list(rec(0, 0, []))


def recursive_schroder(n):
    """The former recursive enumerator of the Schroeder paths to (n, n)."""

    def rec(i, j, prefix):
        if i == n and j == n:
            yield tuple(prefix)
            return
        if i < n:
            yield from rec(i + 1, j, prefix + [Step.EAST])
        if j < i:
            yield from rec(i, j + 1, prefix + [Step.NORTH])
        if i < n and j < i + 1:
            yield from rec(i + 1, j + 1, prefix + [Step.DIAG])

    return list(rec(0, 0, []))


class TestDelannoyEnumerate:
    def test_smallest_nontrivial(self):
        paths = set(delannoy_enumerate(1, 1))
        assert paths == {
            (Step.EAST, Step.NORTH),
            (Step.NORTH, Step.EAST),
            (Step.DIAG,),
        }

    def test_central_count(self):
        assert sum(1 for _ in delannoy_enumerate(2, 2)) == 13

    def test_single_axis(self):
        for n in range(5):
            assert sum(1 for _ in delannoy_enumerate(0, n)) == 1

    def test_paths_are_distinct_and_end_correctly(self):
        seen = set()
        for path in delannoy_enumerate(3, 2):
            assert path not in seen
            seen.add(path)
            assert sum(s.value[0] for s in path) == 3
            assert sum(s.value[1] for s in path) == 2

    def test_cap(self):
        assert ENUMERATION_CAP == 16
        for _ in range(2):
            assert list(delannoy_enumerate(16, 0)) == [(Step.EAST,) * 16]
            assert len(list(delannoy_enumerate(15, 1))) == 31
            with pytest.raises(CapExceeded):  # on the call, before any iteration
                delannoy_enumerate(10, 7)
            with pytest.raises(CapExceeded):
                delannoy_enumerate(0, 17)

    def test_same_paths_in_the_same_order_as_recursion(self):
        # The stack walk must reproduce the recursive order east < north < northeast.
        for m in range(11):
            for n in range(11 - m):
                assert list(delannoy_enumerate(m, n)) == recursive_delannoy(m, n), (m, n)
        for n in range(6):
            assert list(schroder_enumerate(n)) == recursive_schroder(n), n


class TestDiagonalTally:
    def test_matches_per_path_classification(self):
        # Each enumerated path classed by its own step counts.
        for m in range(11):
            for n in range(11 - m):
                by_path = [0] * (min(m, n) + 1)
                for path in delannoy_enumerate(m, n):
                    east, north, diag = (path.count(s) for s in Step)
                    assert (east, north) == (m - diag, n - diag)
                    by_path[diag] += 1
                assert diagonal_tally(m, n) == tuple(by_path), (m, n)

    def test_totals_are_delannoy_numbers(self):
        for m in range(6):
            for n in range(6):
                tally = diagonal_tally(m, n)
                assert sum(tally) == delannoy_weighted(m, n).constant_value()
                assert delannoy_weighted(m, n, WeightTriple.of(1, 1, X)) == Poly(tally)

    def test_cap_is_checked_on_every_call(self):
        diagonal_tally.cache_clear()
        for _ in range(2):  # the tallies are cached, the failures are not
            assert diagonal_tally(3, 3) == (20, 30, 12, 1)
            assert diagonal_tally(16, 0) == (1,)
            assert diagonal_tally(15, 1) == (16, 15)
            with pytest.raises(CapExceeded):
                diagonal_tally(0, 17)
            with pytest.raises(CapExceeded):
                diagonal_tally(9, 8)
            with pytest.raises(ValueError):
                diagonal_tally(-1, 2)
        assert diagonal_tally.cache_info().currsize == 3

    def test_counting_walk_follows_the_enumeration(self):
        # The tally's walk gives one northeast count per path, in
        # delannoy_enumerate's order.
        for m in range(13):
            for n in range(13 - m):
                expected = [p.count(Step.DIAG) for p in delannoy_enumerate(m, n)]
                walk = paths._depth_first((m, n), 0, paths._NORTHEAST_COUNT)
                assert list(walk) == expected, (m, n)

    def test_counting_walk_cap(self):
        for m in range(18):
            with pytest.raises(CapExceeded):
                diagonal_tally(m, 17 - m)
        assert sum(diagonal_tally(8, 8)) == 265729
        with pytest.raises(ValueError):
            diagonal_tally(2, -1)


class TestPathWeight:
    @staticmethod
    def _poly_product(path, wt):
        """The former body: a Poly product along the path for every weight."""
        by_step = {Step.EAST: wt.u, Step.NORTH: wt.v, Step.DIAG: wt.w}
        out = Poly((1,))
        for step in path:
            out = out * by_step[step]
        return out

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
           st.one_of(wide_triples, poly_triples))
    def test_matches_poly_product(self, m, n, weights):
        wt = WeightTriple.of(*weights)
        for path in delannoy_enumerate(m, n):
            out = path_weight(path, wt)
            assert isinstance(out, Poly)
            assert out == self._poly_product(path, wt)

    def test_empty_path(self):
        assert path_weight((), WeightTriple.of(F(1, 2), 0, -3)) == 1
        assert path_weight((), POLY_WT) == 1


class TestDelannoyWeighted:
    def test_unit_weights(self):
        assert delannoy_weighted(1, 1) == 3

    def test_rational_weights(self):
        assert delannoy_weighted(1, 1, WeightTriple.of(2, 3, 5)) == 17

    def test_polynomial_weights(self):
        assert delannoy_weighted(2, 1, POLY_WT) == Poly((-2, 3))

    def test_table_invariants(self):
        def cell(i, j):
            return delannoy_weighted(i, j, POLY_WT)

        assert cell(0, 0) == 1
        u, v, w = POLY_WT.u, POLY_WT.v, POLY_WT.w
        for i in range(1, 4):
            for j in range(1, 4):
                assert cell(i, j) == u * cell(i - 1, j) + v * cell(i, j - 1) + w * cell(i - 1, j - 1)
        assert cell(3, 3) == delannoy_closed(3, 3, POLY_WT)

    def test_closed_examples(self):
        assert delannoy_closed(2, 1) == 5
        assert delannoy_closed(3, 3) == 63
        assert delannoy_closed(0, 0, WeightTriple.of(7, -2, F(1, 3))) == 1

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4), triples)
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        by_dp = delannoy_weighted(m, n, wt)
        by_closed = delannoy_closed(m, n, wt)
        by_enum = sum((path_weight(p, wt) for p in delannoy_enumerate(m, n)), Poly())
        assert by_dp == by_closed == by_enum

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5), triples)
    @settings(max_examples=40, deadline=None)
    def test_axis_swap_symmetry(self, m, n, uvw):
        u, v, w = uvw
        assert delannoy_weighted(m, n, WeightTriple.of(u, v, w)) == delannoy_weighted(
            n, m, WeightTriple.of(v, u, w)
        )

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
           st.one_of(wide_triples, poly_triples))
    @settings(max_examples=60, deadline=None)
    def test_cleared_dp_matches_closed_and_enumeration(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        by_dp = delannoy_weighted(m, n, wt)
        assert by_dp == delannoy_closed(m, n, wt)
        assert by_dp == enumerated_total(delannoy_enumerate(m, n), wt)

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
           st.one_of(wide_triples, poly_triples))
    @settings(max_examples=30, deadline=None)
    def test_table_matches_closed_at_every_cell(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        for i in range(m + 1):
            for j in range(n + 1):
                value = delannoy_weighted(i, j, wt)
                assert isinstance(value, Poly)
                assert value == delannoy_closed(i, j, wt)

    def test_rational_polynomial_weights(self):
        for m in range(5):
            for n in range(5):
                expected = delannoy_closed(m, n, RATIONAL_POLY_WT)
                assert delannoy_weighted(m, n, RATIONAL_POLY_WT) == expected
        assert delannoy_weighted(1, 1, RATIONAL_POLY_WT) == Poly((F(-1, 4), 1, F(-4, 3)))

    def test_zero_weights(self):
        assert delannoy_weighted(0, 0, WeightTriple.of(0, 0, 0)) == 1
        assert delannoy_weighted(3, 2, WeightTriple.of(0, 0, 0)) == 0
        assert delannoy_weighted(2, 2, WeightTriple.of(0, 0, F(3, 5))) == F(9, 25)

    def test_unit_specialization_satisfies_recursion(self):
        d = delannoy_weighted
        for i in range(1, 6):
            for j in range(1, 6):
                assert d(i, j) == d(i - 1, j) + d(i, j - 1) + d(i - 1, j - 1)


class TestSchroder:
    def test_counts(self):
        assert [sum(1 for _ in schroder_enumerate(n)) for n in range(5)] == [1, 2, 6, 22, 90]

    def test_never_above_diagonal(self):
        for path in schroder_enumerate(3):
            x = y = 0
            for step in path:
                dx, dy = step.value
                x, y = x + dx, y + dy
                assert y <= x

    def test_weighted_examples(self):
        assert schroder_weighted(2, POLY_WT) == Poly((1, -3, 2))
        assert schroder_weighted(2) == 6
        assert schroder_weighted(1, WeightTriple.of(2, 3, 5)) == 11

    @given(st.integers(min_value=0, max_value=4), triples)
    @settings(max_examples=30, deadline=None)
    def test_dp_matches_enumeration(self, n, uvw):
        wt = WeightTriple.of(*uvw)
        by_enum = sum((path_weight(p, wt) for p in schroder_enumerate(n)), Poly())
        assert schroder_weighted(n, wt) == by_enum

    @given(st.integers(min_value=0, max_value=4), st.one_of(wide_triples, poly_triples))
    @settings(max_examples=60, deadline=None)
    def test_cleared_dp_matches_enumeration(self, n, uvw):
        wt = WeightTriple.of(*uvw)
        assert schroder_weighted(n, wt) == enumerated_total(schroder_enumerate(n), wt)

    def test_rational_polynomial_weights(self):
        for n in range(5):
            by_enum = enumerated_total(schroder_enumerate(n), RATIONAL_POLY_WT)
            assert schroder_weighted(n, RATIONAL_POLY_WT) == by_enum

    @given(st.integers(min_value=0, max_value=4),
           st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
    @settings(max_examples=30, deadline=None)
    def test_dominated_by_delannoy_for_nonnegative_weights(self, n, uvw):
        wt = WeightTriple.of(*uvw)
        assert schroder_weighted(n, wt).constant_value() <= delannoy_weighted(n, n, wt).constant_value()

    def test_cap(self):
        # Schroeder paths have an even number of steps: 16 at n = 8, 18 at n = 9.
        for _ in range(2):
            assert next(schroder_enumerate(8)) == (Step.EAST,) * 8 + (Step.NORTH,) * 8
            with pytest.raises(CapExceeded):  # on the call, before any iteration
                schroder_enumerate(9)


class TestPackedDP:
    """The DPs run on the weights evaluated at x = 2^K: every signed
    coefficient of every cell must fit in one K-bit digit.  These cases sit
    on the bound |D(i,j)|_1 <= S^(i+j), or far from small coefficients."""

    # S = A is one below a power of two, where S^steps is closest to 2^(K-2).
    big = st.one_of(
        st.integers(min_value=2, max_value=200).map(lambda b: 2 ** b - 1),
        st.integers(min_value=1, max_value=2 ** 100),
    )

    @given(big, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=12),
           st.integers(min_value=1, max_value=9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_single_monomial_weight_reaches_the_bound(self, a, d, m, q, on_north_axis):
        # -a/q x^d on one axis: the cleared weight has |U|_1 = S = a, and the
        # only path to (m,0) or (0,m) weighs exactly (-a)^m x^(dm) / q^m.
        weight = Poly.monomial(d, F(-a, q))
        zero = Poly()
        if on_north_axis:
            wt, corner = WeightTriple(zero, weight, zero), (0, m)
        else:
            wt, corner = WeightTriple(weight, zero, zero), (m, 0)
        total = delannoy_weighted(*corner, wt)
        assert total == Poly.monomial(d * m, F(-a, q) ** m)
        assert abs(total.coefficient(d * m)) * q ** m == a ** m  # cleared: S^steps
        # A path off the axis needs the other two steps, which weigh 0.
        assert delannoy_weighted(m + 1, 1, wt) == 0
        if on_north_axis:
            assert schroder_weighted(m, wt) == (1 if m == 0 else 0)

    def test_alternating_digits_at_the_bound(self):
        # (a/2)^m (x - 1)^m has coefficients of both signs whose magnitudes
        # add up to exactly S^m, S = 2a the 1-norm of the cleared weight.
        a = 2 ** 40 - 1
        weight = Poly((F(-a, 2), F(a, 2)))
        wt = WeightTriple.of(weight, 0, 0)
        for m in range(13):
            total = delannoy_weighted(m, 0, wt)
            assert total == weight ** m
            assert sum(abs(c) for c in total.coeffs) * 2 ** m == (2 * a) ** m

    big_coeffs = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
    big_polys = st.lists(big_coeffs, min_size=0, max_size=7).map(Poly)

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10),
           st.tuples(big_polys, big_polys, big_polys))
    @settings(max_examples=15, deadline=None)
    def test_large_mixed_sign_weights_match_closed(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        assert delannoy_weighted(m, n, wt) == delannoy_closed(m, n, wt)

    def test_large_mixed_sign_weights_at_the_corner(self):
        # Degree 6 with alternating signs of size 2^40, and a rational w, so
        # that q > 1 and the signed digits cancel in many cells.
        u = Poly([(-1) ** k * (2 ** 40 - 3 * k) for k in range(7)])
        v = Poly([(-1) ** (k // 2) * (2 ** 40 + 5 * k) for k in range(7)])
        w = Poly([F(2 ** 40 - k, 7) * (-1) ** k for k in range(7)])
        wt = WeightTriple.of(u, v, w)
        assert delannoy_weighted(10, 10, wt) == delannoy_closed(10, 10, wt)
        for i in range(7):
            for j in range(7):
                assert delannoy_weighted(i, j, wt) == delannoy_closed(i, j, wt)

    @given(st.integers(min_value=0, max_value=12), st.one_of(wide_triples, poly_triples))
    @settings(max_examples=40, deadline=None)
    def test_axes(self, k, uvw):
        wt = WeightTriple.of(*uvw)
        assert delannoy_weighted(k, 0, wt) == wt.u ** k
        assert delannoy_weighted(0, k, wt) == wt.v ** k
        for i in range(k + 1):
            assert delannoy_weighted(i, 0, wt) == wt.u ** i
            assert delannoy_weighted(0, i, wt) == wt.v ** i
        assert schroder_weighted(0, wt) == 1

    def test_all_zero_weights(self):
        for zeros in (WeightTriple.of(0, 0, 0), WeightTriple(Poly(), Poly(), Poly())):
            for i in range(4):
                for j in range(3):
                    assert delannoy_weighted(i, j, zeros) == (1 if i == j == 0 else 0)
            assert delannoy_weighted(0, 0, zeros) == 1
            assert delannoy_weighted(4, 7, zeros) == 0
            assert schroder_weighted(0, zeros) == 1
            assert schroder_weighted(5, zeros) == 0

    def test_schroder_polynomials(self):
        # (1, x, -1) gives S_n; the benchmark's largest Schroeder size is 38.
        for n in range(41):
            assert schroder_weighted(n, POLY_WT) == families.schroder_poly(n)


class TestPackedTables:
    """delannoy_table and schroder_table read every total off one packed DP
    run, sized for its far corner; each total must equal the one that a DP
    run to its own endpoint computes."""

    @staticmethod
    def assert_tables_match_their_runs(m, n, wt):
        table = paths.delannoy_table(m, n, wt)
        for i in range(m + 1):
            for j in range(n + 1):
                assert table[i, j] == delannoy_weighted(i, j, wt), (i, j)
                assert table[i, j] is table[i, j]  # read once, then kept
        top = max(m, n)
        schroder = paths.schroder_table(top, wt)
        for i in range(top + 1):
            assert schroder[i, i] == schroder_weighted(i, wt), i

    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8),
           st.one_of(wide_triples, poly_triples))
    @settings(max_examples=60, deadline=None)
    def test_every_cell_matches_its_own_run(self, m, n, uvw):
        self.assert_tables_match_their_runs(m, n, WeightTriple.of(*uvw))

    @pytest.mark.parametrize("uvw", [
        (0, 0, 0), (0, 1, 1), (1, 0, F(-2, 3)), (F(1, 2), F(-1, 3), 0), (-1, -1, -1),
        (F(-5, 4), F(3, 7), F(-9, 2)), (1, X, -1),
        (RATIONAL_POLY_WT.u, RATIONAL_POLY_WT.v, RATIONAL_POLY_WT.w),
    ])
    def test_zero_negative_rational_and_polynomial_weights(self, uvw):
        self.assert_tables_match_their_runs(9, 8, WeightTriple.of(*uvw))

    @given(TestPackedDP.big, st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=9),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_far_corner_at_the_digit_bound(self, a, d, m, q, on_north_axis):
        # TestPackedDP's single monomial weight: the corner's only path
        # weighs exactly S^m once cleared, the largest digit the bound allows.
        weight = Poly.monomial(d, F(-a, q))
        zero = Poly()
        if on_north_axis:
            wt, corner = WeightTriple(zero, weight, zero), (0, m)
        else:
            wt, corner = WeightTriple(weight, zero, zero), (m, 0)
        assert paths.delannoy_table(*corner, wt)[corner] == Poly.monomial(d * m, F(-a, q) ** m)
        self.assert_tables_match_their_runs(*corner, wt)

    def test_far_corner_of_alternating_and_mixed_sign_digits(self):
        a = 2 ** 40 - 1
        alternating = Poly((F(-a, 2), F(a, 2)))
        self.assert_tables_match_their_runs(12, 0, WeightTriple.of(alternating, 0, 0))
        assert paths.delannoy_table(12, 0, WeightTriple.of(alternating, 0, 0))[12, 0] == (
            alternating ** 12
        )
        u = Poly([(-1) ** k * (2 ** 40 - 3 * k) for k in range(7)])
        v = Poly([(-1) ** (k // 2) * (2 ** 40 + 5 * k) for k in range(7)])
        w = Poly([F(2 ** 40 - k, 7) * (-1) ** k for k in range(7)])
        self.assert_tables_match_their_runs(8, 7, WeightTriple.of(u, v, w))

    def test_one_dp_run_per_table(self, monkeypatch):
        runs = []

        def counting(rows):
            def run(*args):
                runs.append(rows.__name__)
                return rows(*args)

            return run

        for name in ("_delannoy_rows", "_schroder_rows"):
            monkeypatch.setattr(paths, name, counting(getattr(paths, name)))
        wt = WeightTriple.of(F(1, 2), F(-1, 3), 7)
        delannoy, schroder = paths.delannoy_table(6, 5, wt), paths.schroder_table(6, wt)
        cells = [delannoy[i, j] for i in range(7) for j in range(6)]
        totals = [schroder[i, i] for i in range(7)]
        assert runs == ["_delannoy_rows", "_schroder_rows"]
        assert cells == [delannoy_closed(i, j, wt) for i in range(7) for j in range(6)]
        assert totals == [schroder_sum(i, F(1, 2), F(-1, 3), 7) for i in range(7)]

    def test_cells_outside_the_run_and_invalid_sizes(self):
        delannoy, schroder = paths.delannoy_table(3, 2, ONES), paths.schroder_table(3, ONES)
        for end in ((4, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(KeyError):
                delannoy[end]
        for end in ((4, 4), (2, 1), (-1, -1)):
            with pytest.raises(KeyError):
                schroder[end]
        with pytest.raises(ValueError):
            paths.delannoy_table(-1, 2, ONES)
        with pytest.raises(ValueError):
            paths.schroder_table(-1, ONES)


class TestClosedSum:
    """delannoy_closed runs constant weights on integers and polynomial
    weights on Poly; both must equal the former Fraction sum and the DP."""

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12),
           wide_triples)
    @settings(max_examples=150, deadline=None)
    def test_integer_route_matches_fractions_and_dp(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        by_closed = delannoy_closed(m, n, wt)
        assert by_closed == _closed_by_fractions(m, n, wt)
        assert by_closed == delannoy_weighted(m, n, wt)
        assert by_closed.is_constant()

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6),
           poly_triples)
    @settings(max_examples=30, deadline=None)
    def test_polynomial_route_matches_fractions_and_dp(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        assert delannoy_closed(m, n, wt) == _closed_by_fractions(m, n, wt)
        assert delannoy_closed(m, n, wt) == delannoy_weighted(m, n, wt)

    @pytest.mark.parametrize("uvw", [
        (0, 0, 0), (0, 1, 1), (1, 0, F(-2, 3)), (F(1, 2), F(-1, 3), 0),
        (F(1, 2), F(-1, 3), 7), (-1, -1, -1), (F(-5, 4), F(3, 7), F(-9, 2)),
        (RATIONAL_POLY_WT.u, RATIONAL_POLY_WT.v, RATIONAL_POLY_WT.w),
    ])
    def test_zero_negative_and_rational_corners(self, uvw):
        wt = WeightTriple.of(*uvw)
        for m in range(13):
            for n in range(13):
                assert delannoy_closed(m, n, wt) == _closed_by_fractions(m, n, wt), (m, n)

    @pytest.mark.parametrize("m, n", [
        (20, 25), (30, 35), (45, 40), (60, 55), (35, 60), (50, 20),
    ])
    def test_polynomial_route_at_benchmark_sizes(self, m, n):
        # At (1, x, -1) the total to (n+beta, n) is P~_n^(0,beta), built by
        # the families' own product expansion, in both orientations.
        for m, n in ((m, n), (n, m)):
            assert delannoy_closed(m, n, POLY_WT) == families.sj_product_expansion(n, 0, m - n)

    def test_independent_of_the_dp_weights(self, monkeypatch):
        # The oracles never clear or pack weights as the DPs do, and never
        # pack or read digits by the Kronecker pair that polynomial owns and
        # the DPs and Poly.compose_affine share: refused in both modules.
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle read the DPs' weights")

        for name in ("_packed_weights", "_scaled"):
            monkeypatch.setattr(paths, name, refuse)
        for module in (polynomial, paths):
            for name in ("_packed", "_unpacked"):
                monkeypatch.setattr(module, name, refuse)
        with cold(monkeypatch):
            assert delannoy_closed(6, 6, WeightTriple.of(F(1, 2), F(-1, 3), 7)) == (
                _closed_by_fractions(6, 6, WeightTriple.of(F(1, 2), F(-1, 3), 7))
            )
            assert delannoy_closed(3, 2, POLY_WT) == _closed_by_fractions(3, 2, POLY_WT)
            assert diagonal_tally(4, 3) == (35, 60, 30, 4)

    def test_dps_never_run_the_closed_sum(self, monkeypatch):
        # The other direction: no DP calls delannoy_closed or its Horner
        # loop, so a fault there cannot make a DP agree with it.
        def refuse(*args, **kwargs):
            raise AssertionError("a DP ran the closed sum")

        wt = WeightTriple.of(F(1, 2), F(-1, 3), 7)
        expected = [_closed_by_fractions(6, 6, wt), _closed_by_fractions(3, 2, POLY_WT)]
        for name in ("delannoy_closed", "_closed_sum"):
            monkeypatch.setattr(paths, name, refuse)
        assert [delannoy_weighted(6, 6, wt), delannoy_weighted(3, 2, POLY_WT)] == expected
        assert [paths.delannoy_table(6, 6, wt)[6, 6], paths.schroder_table(4, wt)[4, 4]] == [
            expected[0], schroder_sum(4, F(1, 2), F(-1, 3), 7)]
        assert schroder_weighted(4, wt) == schroder_sum(4, F(1, 2), F(-1, 3), 7)
        assert schroder_weighted(4, POLY_WT) == families.schroder_poly(4)

    @given(st.one_of(wide_triples, poly_triples))
    def test_equal_triples_built_apart_compare_and_hash_equal(self, uvw):
        # A triple is the value of its three polynomials: it equals, and
        # hashes like, a twin built from the Fraction coefficients of its
        # weights.
        wt = WeightTriple.of(*uvw)
        twin = WeightTriple(*(Poly(as_poly(x).coeffs) for x in uvw))
        assert twin is not wt and twin.u is not wt.u
        assert wt == twin and twin == wt
        assert {wt: 1}.get(twin) == 1
        assert hash(twin) == hash(wt) == hash((wt.u, wt.v, wt.w))


def _schroder_by_family(n, wt):
    """(-w)^n S_n(-uv/w), the paper's form of the weighted Schroeder total;
    at w = 0 only the term Cat(n) (uv)^n is left."""
    u, v, w = wt.values()
    if w == 0:
        return F(binom(2 * n, n), n + 1) * (u * v) ** n
    return (-w) ** n * families.schroder_poly(n)(-u * v / w)


# Zero weights, u = 0, v = 0, w = 0, uv + w = 0 and negative p/q weights.
SUM_CORNERS = [
    (0, 0, 0), (0, F(2, 3), -1), (F(-1, 2), 0, 3), (F(1, 2), F(-1, 3), 0),
    (F(1, 2), F(-1, 3), F(1, 6)), (2, 3, -6), (-1, -1, -1), (F(-5, 4), F(3, 7), F(-9, 2)),
]


class TestBinomialSums:
    """delannoy_sum and schroder_sum, the CLI's constant-weight routes,
    against the DPs, the multinomial closed sum and the Schroeder family."""

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12),
           wide_triples)
    @settings(max_examples=150, deadline=None)
    def test_delannoy_sum_matches_dp_and_closed(self, m, n, uvw):
        wt = WeightTriple.of(*uvw)
        total = delannoy_sum(m, n, *uvw)
        assert type(total) is F
        assert total == delannoy_weighted(m, n, wt).constant_value()
        assert total == delannoy_closed(m, n, wt).constant_value()

    @given(st.integers(min_value=0, max_value=12), wide_triples)
    @settings(max_examples=150, deadline=None)
    def test_schroder_sum_matches_dp_and_family(self, n, uvw):
        wt = WeightTriple.of(*uvw)
        total = schroder_sum(n, *uvw)
        assert type(total) is F
        assert total == schroder_weighted(n, wt).constant_value()
        assert total == _schroder_by_family(n, wt)

    @pytest.mark.parametrize("uvw", SUM_CORNERS)
    def test_zero_negative_and_rational_corners(self, uvw):
        wt = WeightTriple.of(*uvw)
        for m in range(13):
            for n in range(13):
                expected = delannoy_closed(m, n, wt).constant_value()
                assert delannoy_sum(m, n, *uvw) == expected, (m, n)
                assert expected == delannoy_weighted(m, n, wt).constant_value(), (m, n)
            assert schroder_sum(m, *uvw) == schroder_weighted(m, wt).constant_value(), m
            assert schroder_sum(m, *uvw) == _schroder_by_family(m, wt), m

    def test_empty_path_and_zero_weights(self):
        assert delannoy_sum(0, 0, 0, 0, 0) == schroder_sum(0, 0, 0, 0) == 1
        for k in range(1, 6):
            assert delannoy_sum(k, 0, 0, 0, 0) == delannoy_sum(0, k, 0, 0, 0) == 0
            assert delannoy_sum(k, k, 0, 0, 0) == schroder_sum(k, 0, 0, 0) == 0
        powers = [1, F(-2, 3), F(4, 9), F(-8, 27)]
        assert [delannoy_sum(k, 0, F(-2, 3), 5) for k in range(4)] == powers
        assert [delannoy_sum(0, k) for k in range(4)] == [1, 1, 1, 1]
        assert [schroder_sum(k) for k in range(6)] == [1, 2, 6, 22, 90, 394]

    def test_large_delannoy_against_closed(self):
        uvw = (F(-5, 7), F(11, 9), F(-13, 8))
        expected = delannoy_closed(2000, 2000, WeightTriple.of(*uvw)).constant_value()
        assert delannoy_sum(2000, 2000, *uvw) == expected

    def test_large_schroder_against_family(self):
        uvw = (F(-5, 7), F(11, 9), F(-13, 8))
        assert schroder_sum(400, *uvw) == _schroder_by_family(400, WeightTriple.of(*uvw))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            delannoy_sum(-1, 2)
        with pytest.raises(ValueError):
            delannoy_sum(2, -1)
        with pytest.raises(ValueError):
            schroder_sum(-1)

    def test_independent_of_the_closed_sum_and_the_dps(self, monkeypatch):
        # The sums read only their weights' integer ratios and call no other
        # route, so the DPs and delannoy_closed stay their oracles here, and
        # delannoy_closed the gate of the CLI's outputs in the benchmark.
        def refuse(*args, **kwargs):
            raise AssertionError("a binomial sum ran another route")

        uvw = (F(1, 2), F(-1, 3), 7)
        wt = WeightTriple.of(*uvw)
        expected = [delannoy_closed(6, 4, wt), schroder_weighted(5, wt)]
        for name in ("delannoy_closed", "_closed_sum", "delannoy_weighted", "schroder_weighted",
                     "_packed_weights", "_delannoy_rows", "_schroder_rows"):
            monkeypatch.setattr(paths, name, refuse)
        assert [delannoy_sum(6, 4, *uvw), schroder_sum(5, *uvw)] == [
            total.constant_value() for total in expected
        ]


class TestClearedWeights:
    """_packed_weights clears a triple's denominators on every DP run, and
    one triple serves DPs of every step count."""

    STEPS = (0, 1, 7)

    @staticmethod
    def cleared(wt):
        """(q, U, V, W), cleared afresh from the Fraction coefficients."""
        q = math.lcm(*(c.denominator for p in (wt.u, wt.v, wt.w) for c in p.coeffs))
        return q, *(
            tuple(c.numerator * (scale // c.denominator) for c in p.coeffs)
            for p, scale in ((wt.u, q), (wt.v, q), (wt.w, q * q))
        )

    @classmethod
    def fresh(cls, wt, steps):
        """_packed_weights(wt, steps), packed by a sum of shifted digits
        rather than by Horner's rule."""
        q, *cleared = cls.cleared(wt)
        k = steps * max(1, sum(abs(c) for cs in cleared for c in cs)).bit_length() + 2
        return q, k, *(sum(c << (k * i) for i, c in enumerate(cs)) for cs in cleared)

    @given(st.one_of(wide_triples, poly_triples))
    def test_packed_weights_match_a_fresh_clearing(self, uvw):
        wt, twin = WeightTriple.of(*uvw), WeightTriple.of(*uvw)
        before = hash(wt)
        for steps in self.STEPS:
            assert paths._packed_weights(wt, steps) == self.fresh(wt, steps)
        q, u, v, w = self.cleared(wt)
        assert Poly(F(c, q) for c in u) == wt.u
        assert Poly(F(c, q) for c in v) == wt.v
        assert Poly(F(c, q * q) for c in w) == wt.w
        assert wt == twin and hash(wt) == before == hash(twin)
        assert {wt: 1}.get(twin) == 1
        assert repr(wt) == repr(twin)

    @given(st.one_of(wide_triples, poly_triples))
    @settings(max_examples=40, deadline=None)
    def test_one_triple_serves_every_size(self, uvw):
        wt = WeightTriple.of(*uvw)
        for m, n in ((0, 0), (3, 1), (1, 4), (5, 5), (2, 0), (0, 6)):
            assert delannoy_weighted(m, n, wt) == delannoy_closed(m, n, WeightTriple.of(*uvw))
        for n in range(4):
            assert schroder_weighted(n, wt) == enumerated_total(schroder_enumerate(n), wt)

    @pytest.mark.parametrize("uvw", [
        (F(-1, 2), F(2, 3), -3),
        (-2, F(-5, 7), F(1, 9)),
        (Poly((F(-1, 2), F(1, 3))), X, F(-5, 7)),
        (Poly((3, 0, F(-2, 5))), Poly((F(1, 4), -1)), Poly((0, F(-7, 3)))),
    ])
    def test_negative_and_rational_triples(self, uvw):
        wt = WeightTriple.of(*uvw)
        for m in range(6):
            for n in range(6):
                assert delannoy_weighted(m, n, wt) == delannoy_closed(m, n, wt)
        for steps in self.STEPS:
            assert paths._packed_weights(wt, steps) == self.fresh(WeightTriple.of(*uvw), steps)


class TestSequences:
    """The one-table sequences against the per-index routes and against the
    P-recursive three-term recurrences (Petkovsek-Wilf-Zeilberger, A=B)."""

    COUNT = 40

    def test_central_delannoy_matches_per_index(self):
        values = central_delannoy(self.COUNT)
        assert len(values) == self.COUNT
        for k, value in enumerate(values):
            assert type(value) is int
            assert value == delannoy_weighted(k, k) == delannoy_closed(k, k)

    def test_central_delannoy_recurrence(self):
        d = central_delannoy(self.COUNT)
        assert d[:2] == [1, 3]
        for n in range(2, self.COUNT):
            assert n * d[n] == 3 * (2 * n - 1) * d[n - 1] - (n - 1) * d[n - 2]

    def test_schroder_numbers_match_per_index(self):
        values = schroder_numbers(self.COUNT)
        assert len(values) == self.COUNT
        for k, value in enumerate(values):
            assert type(value) is int
            assert value == schroder_weighted(k)
        assert values[:5] == [sum(1 for _ in schroder_enumerate(k)) for k in range(5)]

    def test_schroder_recurrence(self):
        r = schroder_numbers(self.COUNT)
        assert r[:2] == [1, 2]
        for n in range(2, self.COUNT):
            assert (n + 1) * r[n] == 3 * (2 * n - 1) * r[n - 1] - (n - 2) * r[n - 2]

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 25])
    def test_delannoy_row_matches_per_index(self, m):
        values = delannoy_row(m, 30)
        assert len(values) == 30
        for k, value in enumerate(values):
            assert type(value) is int
            assert value == delannoy_weighted(m, k) == delannoy_closed(m, k)

    def test_small_counts(self):
        assert central_delannoy(0) == [] and central_delannoy(1) == [1]
        assert central_delannoy(2) == [1, 3]
        assert schroder_numbers(0) == [] and schroder_numbers(1) == [1]
        assert schroder_numbers(2) == [1, 2]
        assert delannoy_row(3, 0) == [] and delannoy_row(3, 1) == [1]
        assert delannoy_row(3, 2) == [1, 7]
        assert delannoy_row(0, 4) == [1, 1, 1, 1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            delannoy_row(-1, 3)
        with pytest.raises(ValueError):
            delannoy_row(-1, 0)
        for helper in (central_delannoy, schroder_numbers):
            with pytest.raises(ValueError):
                helper(-1)
        with pytest.raises(ValueError):
            delannoy_row(2, -1)


class TestModifiedDelannoy:
    def test_examples(self):
        assert modified_delannoy(1, 1) == 3
        assert modified_delannoy(0, 0) == 1
        # both routes give 4, which is also the Jacobi value P_1^(0,1)(3)
        assert modified_delannoy(2, 1) == 4
        assert modified_delannoy_enumerate(2, 1) == 4

    def test_dp_matches_enumeration(self):
        for m in range(4):
            for n in range(4):
                assert modified_delannoy(m, n) == modified_delannoy_enumerate(m, n)

    def test_running_sums_match_the_block_sums(self):
        # The block-sum DP's one table holds every count up to (20, 20).
        table = modified_delannoy_by_blocks(20, 20)
        for m in range(21):
            for n in range(21):
                assert modified_delannoy(m, n) == table[m][n + 1], (m, n)
        assert modified_delannoy(20, 20) == 260543813797441

    def test_single_column(self):
        # only one step (m, 1) can reach height 1
        for m in range(5):
            assert modified_delannoy(m, 0) == 1

    def test_cap(self):
        # The DP has none: d~_{n,n} = P_n(3) well past 16 steps.  The
        # enumeration stops at m + n = 8.
        assert modified_delannoy(20, 20) == families.legendre(20)(3)
        assert modified_delannoy_enumerate(8, 0) == modified_delannoy(8, 0)
        for _ in range(2):
            with pytest.raises(CapExceeded):
                modified_delannoy_enumerate(5, 4)


class TestMotzkinMoments:
    def test_examples(self):
        assert motzkin_legendre_moment(2) == F(1, 3)
        assert motzkin_legendre_moment(3) == 0
        assert motzkin_legendre_moment(4) == F(1, 5)

    def test_odd_lengths_vanish(self):
        for k in range(7):
            assert motzkin_legendre_moment(2 * k + 1) == 0

    def test_empty_path(self):
        assert motzkin_legendre_moment(0) == 1

    def test_cap(self):
        # The DP has none (see test_even_lengths_beyond_the_enumeration);
        # it still rejects a negative length.
        with pytest.raises(ValueError):
            motzkin_legendre_moment(-1)

    def test_dp_matches_enumeration(self):
        for n in range(13):
            assert motzkin_legendre_moment(n) == motzkin_legendre_moment_enumerate(n), n

    def test_enumeration_examples_and_cap(self):
        assert motzkin_legendre_moment_enumerate(0) == 1
        assert motzkin_legendre_moment_enumerate(2) == F(1, 3)
        assert motzkin_legendre_moment_enumerate(4) == F(1, 5)
        for _ in range(2):
            with pytest.raises(CapExceeded):
                motzkin_legendre_moment_enumerate(17)
        with pytest.raises(ValueError):
            motzkin_legendre_moment_enumerate(-1)

    def test_even_lengths_beyond_the_enumeration(self):
        # The DP reaches lengths the 3^n enumeration cannot.
        for n in range(40):
            assert motzkin_legendre_moment(n) == (0 if n % 2 else F(1, n + 1)), n


class TestValidPairs:
    def test_examples(self):
        assert valid_pair_signed_sum(0, 0, 0) == 1
        assert valid_pair_signed_sum(1, 0, 0) == 0
        assert valid_pair_signed_sum(1, 1, 0) == 1

    def test_cap(self):
        assert PAIR_CAP == 9
        for _ in range(2):  # raised before the cached path tally, on every call
            assert valid_pair_signed_sum(0, 8, 0) == self._factorial_sum(0, 8, 0)
            assert valid_pair_signed_sum(1, 6, 1) == self._factorial_sum(1, 6, 1)
            with pytest.raises(CapExceeded):
                valid_pair_signed_sum(0, 9, 0)
            with pytest.raises(CapExceeded):
                valid_pair_signed_sum(9, 0, 0)

    def test_path_is_capped_by_the_enumeration(self):
        # At most 9 elements, but the path to (n+beta, n) has 2n+beta > 16
        # steps, so the path tally's cap applies.  In (n, m, beta) order the
        # first such input is (9, 0, -1) (its sum is 40320), the last (18, 8, -18).
        for _ in range(2):
            for n, m, beta in [(9, 0, -1), (10, 0, -2), (17, 8, -17), (18, 8, -18)]:
                with pytest.raises(CapExceeded):
                    valid_pair_signed_sum(n, m, beta)
        assert valid_pair_signed_sum(16, 0, -16) == 1  # the single north path

    @staticmethod
    def _factorial_sum(n, m, beta):
        return sum(
            (-1) ** k * binom(n + beta, k) * binom(n, k)
            * math.factorial(k) * math.factorial(n + m + beta - k)
            for k in range(n + 1)
        )

    def test_matches_factorial_sum(self):
        for n in range(4):
            for m in range(4):
                for beta in range(3):
                    if n + m + beta + 1 <= 7:
                        assert valid_pair_signed_sum(n, m, beta) == self._factorial_sum(n, m, beta)

    def test_vanishes_below_diagonal(self):
        for n in range(1, 4):
            for m in range(n):
                for beta in range(3):
                    if n + m + beta + 1 <= 7:
                        assert valid_pair_signed_sum(n, m, beta) == 0

    @staticmethod
    def _fully_literal(n, m, beta):
        """Second, even more literal oracle: iterate every (path, bijection)
        pair and test the defining conditions directly."""
        total_items = n + m + beta + 1
        signed = 0
        for path in delannoy_enumerate(n + beta, n):
            east_columns = set()
            x = 0
            for step in path:
                if step is Step.EAST:
                    east_columns.add(x + 1)
                x += step.value[0]
            diag = sum(1 for s in path if s is Step.DIAG)
            # element order: r, a_1..a_{n+beta}, b_1..b_m
            for sigma in itertools.permutations(range(1, total_items + 1)):
                r_val = sigma[0]
                if any(r_val >= sigma[i] for i in east_columns):
                    continue
                if any(r_val >= sigma[n + beta + j] for j in range(1, m + 1)):
                    continue
                signed += (-1) ** diag
        return signed

    @staticmethod
    def _leader_orders_by_walk(total, constrained):
        """The former body: walk every permutation."""
        return sum(
            1
            for perm in itertools.permutations(range(total))
            if all(perm[0] < perm[i] for i in range(1, constrained + 1))
        )

    def test_leader_orders_match_permutation_walk(self):
        for total in range(1, 9):
            for constrained in range(total):
                expected = self._leader_orders_by_walk(total, constrained)
                assert _count_leader_orders(total, constrained) == expected, (total, constrained)

    def test_matches_fully_literal_oracle(self):
        for n, m, beta in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (1, 0, 1),
                           (2, 0, 1), (1, 1, 1), (2, 2, 0), (0, 2, 1)]:
            assert valid_pair_signed_sum(n, m, beta) == self._fully_literal(n, m, beta), (n, m, beta)


class TestDPRowFaults:
    """A wrong cell in either DP recurrence fails a cold registry run, in
    exactly the entries that read that DP's totals."""

    @staticmethod
    def with_wrong_cell(rows):
        """The row generator with 1 added to its cell (1, 1).  The generator
        computes the next row from the list it yielded, so the error spreads
        to every later cell, as a wrong step of the recurrence would."""

        def faulty(*args):
            for i, row in enumerate(rows(*args)):
                if i == 1 and len(row) > 1:
                    row[1] += 1
                yield row

        return faulty

    @pytest.mark.parametrize("rows, failing", [
        ("_delannoy_rows", {"cdrec", "dp1", "llp", "wcd-legendre", "wcd-legendre-swap",
                            "wd-closed-vs-dp-vs-enum", "wd-jacobi", "wd-jacobi-swap"}),
        ("_schroder_rows", {"cdrec", "schroder"}),
    ])
    def test_wrong_cell_fails_exactly_its_readers(self, monkeypatch, rows, failing):
        monkeypatch.setattr(paths, rows, self.with_wrong_cell(getattr(paths, rows)))
        assert cold_failures(monkeypatch) == failing

    def test_wrong_closed_sum_fails_exactly_its_reader(self, monkeypatch):
        # The DPs' oracle: delannoy_closed's sum off by one at (1, 1), at
        # every weight triple, fails the one entry that compares it with
        # the DP tables, wherever the registry keeps them.
        real = paths._closed_sum

        def faulty(m, n, low, high):
            total = real(m, n, low, high)
            return total + 1 if (m, n) == (1, 1) else total

        monkeypatch.setattr(paths, "_closed_sum", faulty)
        failing = cold_failures(monkeypatch)
        assert failing == {"wd-closed-vs-dp-vs-enum"}


class TestCacheBound:
    # Every cache of the package, by module and function name.
    PINNED = [
        ("families", "jacobi"), ("families", "laguerre_gen"), ("families", "romanovski_sum"),
        ("families", "shifted_jacobi"), ("identities", "_kept_table"),
        ("identities", "_weight_points"), ("paths", "delannoy_closed"),
        ("paths", "diagonal_tally"),
    ]

    @staticmethod
    def module_caches():
        """The caches defined at the top level of the package's modules,
        found independently of the tests' cold-run helper."""
        modules = [
            importlib.import_module(f"delannoy_jacobi.{info.name}")
            for info in pkgutil.iter_modules(delannoy_jacobi.__path__)
        ]
        assert {families, paths} <= set(modules)
        return {
            (module.__name__.rpartition(".")[2], value.__name__): value
            for module in modules for value in vars(module).values()
            if hasattr(value, "cache_info") and value.__module__ == module.__name__
        }

    def test_every_cache_is_bounded(self):
        caches = self.module_caches()
        assert sorted(caches) == self.PINNED
        assert all(cache.cache_info().maxsize == CACHE_SIZE for cache in caches.values())

    def test_empty_caches_reaches_exactly_the_pinned_caches(self):
        # A cache added in any module is both pinned above and emptied by
        # every cold run.
        pinned = self.module_caches().values()
        assert {id(cache) for cache in CACHES} == {id(cache) for cache in pinned}

    def test_empty_caches_empties_a_warm_process(self):
        caches = self.module_caches().values()
        identities.run_all()
        assert all(cache.cache_info().currsize > 0 for cache in caches)
        empty_caches()
        assert all(cache.cache_info().currsize == 0 for cache in caches)

    def test_distinct_calls_stay_within_bound(self):
        # The registry's table cache, driven through its sizing rule; at
        # max_n = 0 each table is a DP of 5 steps.
        config, kept = identities.SuiteConfig(max_n=0), identities._kept_table
        kept.cache_clear()
        try:
            for k in range(CACHE_SIZE + 500):
                identities._delannoy_table(config, WeightTriple.of(k, 1, 1))
                assert kept.cache_info().currsize <= CACHE_SIZE
            assert kept.cache_info().currsize == CACHE_SIZE
        finally:
            kept.cache_clear()

    def test_tables_run_their_dp_on_every_call_and_keep_nothing(self, monkeypatch):
        # paths caches no table: the registry keeps the tables it rereads,
        # so two equal library calls run two DPs and fill no cache.
        runs = []
        real = paths._delannoy_rows

        def counting(*args):
            runs.append(args[:2])
            return real(*args)

        monkeypatch.setattr(paths, "_delannoy_rows", counting)
        empty_caches()
        for _ in range(2):
            assert paths.delannoy_table(3, 3, ONES)[3, 3] == 63
        assert runs == [(3, 3), (3, 3)]
        assert all(
            value.cache_info().currsize == 0
            for module in (paths, identities) for value in vars(module).values()
            if hasattr(value, "cache_info")
        )

    def test_a_weighted_total_keeps_no_table(self):
        # A library call keeps only its total, not the Θ(mn) packed cells of
        # its DP run (several MB at (60, 60)), which no cache bounds in bytes;
        # nor does it build them on the way: it holds two rows at a time.
        wt = WeightTriple.of(1, X, -1)
        empty_caches()
        tracemalloc.start()
        try:
            total = delannoy_weighted(60, 60, wt)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            empty_caches()
        assert total.degree == 60
        assert kept < 500_000
        assert peak < 1_000_000
