"""Tests for polynomial text rendering and the matching parser."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import format_poly_by_fractions

from delannoy_jacobi.polynomial import Poly, X
from delannoy_jacobi.render import (
    MAX_PARSED_DEGREE,
    TooManyDigits,
    format_poly,
    parse_integer,
    parse_poly,
    parse_rational,
    quoted,
)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def test_format_examples():
    assert format_poly(Poly((10, -12, 3))) == "3x^2 - 12x + 10"
    assert format_poly(Poly((5, -4))) == "-4x + 5"
    assert format_poly(Poly()) == "0"
    assert format_poly(X) == "x"
    assert format_poly(-X) == "-x"
    assert format_poly(Poly((0, 0, 1))) == "x^2"
    assert format_poly(Poly((F(1, 2), 0, F(-3, 4)))) == "-3/4x^2 + 1/2"


def test_parse_examples():
    assert parse_poly("3x^2 - 12x + 10") == Poly((10, -12, 3))
    assert parse_poly("0") == Poly()
    assert parse_poly("x") == X
    assert parse_poly("-x^3") == Poly((0, 0, 0, -1))
    assert parse_poly("1/2x - 1/3") == Poly((F(-1, 3), F(1, 2)))


def test_parse_rejects_garbage():
    for bad in ["", "x +", "2y", "x^", "1.5x", "x^2 + x^2"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(st.lists(st.one_of(rationals, st.fractions()), max_size=9))
def test_round_trip(coeffs):
    poly = Poly(coeffs)
    assert parse_poly(format_poly(poly)) == poly


# Polynomials of degree -1 to 40 that reach every branch of the renderer:
# zero coefficients (skipped), +-1 (dropped before x), other integers and
# p/q values, built from Fractions or straight from an integer form (N, D),
# where D may divide some N_k but not others.
special = st.sampled_from([0, 1, -1, F(1, 2), F(-1, 2), F(1), F(-1)])
from_fractions = st.lists(st.one_of(special, rationals, st.fractions()), max_size=41).map(Poly)
from_numerators = st.builds(
    Poly._from_numerators,
    st.lists(st.one_of(st.sampled_from([0, 1, -1, 6, -6]), st.integers()), max_size=41),
    st.one_of(st.sampled_from([1, 2, 3, 6]), st.integers(min_value=1)),
)


@given(st.one_of(from_fractions, from_numerators))
@example(Poly())
@example(Poly((F(-1, 2), 0, F(1))))
def test_texts_match_the_fraction_view(poly):
    texts, rendered, printed = poly.coefficient_texts(), format_poly(poly), repr(poly)
    by_fractions = [str(c) for c in poly.coeffs]
    assert texts == by_fractions
    assert rendered == format_poly_by_fractions(poly)
    assert printed == f"Poly({by_fractions})"


def test_parse_rational():
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("-7") == -7
    assert parse_rational(" 5/10 ") == F(1, 2)
    for bad in ["1.5", "2/", "/3", "a", "1e3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_integer():
    assert parse_integer("-12") == -12
    assert parse_integer("007") == 7
    for bad in ["", "-", "+3", "3_0", " 3", "1/2", "1.0", "\u0663"]:
        with pytest.raises(ValueError, match="invalid int value"):
            parse_integer(bad)


@pytest.fixture
def set_digit_limit():
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def test_digit_limit_error_names_the_limit(set_digit_limit):
    long = "7" * 5000
    set_digit_limit(4300)
    for parse, text in [
        (parse_integer, long), (parse_rational, long), (parse_rational, f"1/{long}"),
        (parse_poly, f"x^{long}"),
    ]:
        with pytest.raises(TooManyDigits, match=r"from text \(limit: 4300 digits\)") as info:
            parse(text)
        assert "set_int_max_str_digits" not in str(info.value)
    set_digit_limit(0)  # no limit
    assert parse_integer(long) == parse_rational(long) == int(long)
    assert parse_rational(f"-1/{long}") == F(-1, int(long))


def test_digit_limit_on_a_numerator_or_a_denominator(set_digit_limit):
    """Each coefficient's text converts its numerator and its denominator
    apart; either one past the limit raises the ValueError of int-to-text
    conversion, which the CLI reports as its own error line."""
    big = 10 ** 700
    set_digit_limit(640)
    for poly in [Poly((F(1, big), 1)), Poly((1, F(big, 3))), Poly((1, 0, -big))]:
        for render in (Poly.coefficient_texts, format_poly, repr):
            with pytest.raises(ValueError):
                render(poly)


def test_non_ascii_digits_are_rejected():
    # Arabic-Indic and fullwidth digits match \d and are read by int() and
    # Fraction(), but the literal grammar is ASCII.
    for bad in ["\u0663", "-\u0661/2", "1/\u0662", "\uff17"]:
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(bad)
    for bad in ["\u0663x^\u0662 + 1", "3x^\u0662 + 1", "\u0663x + 1", "x + \u0661"]:
        with pytest.raises(ValueError, match="malformed term"):
            parse_poly(bad)
    assert parse_poly("3x^2 + 1") == Poly((1, 0, 3))


def test_parse_rational_zero_denominator():
    for bad in ["1/0", "-3/00", " 0/0 "]:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_poly("1/0x + 1")


def test_parse_poly_degree_bound():
    assert parse_poly(f"x^{MAX_PARSED_DEGREE}").degree == MAX_PARSED_DEGREE
    for bad in [f"x^{MAX_PARSED_DEGREE + 1}", "2x^99999999999 + 1", "x^" + "9" * 5000]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_long_literals_are_quoted_cut():
    # Up to 40 characters a literal is quoted whole, past that cut with its length.
    assert quoted("0.5") == "'0.5'"
    assert quoted("7" * 40) == repr("7" * 40)
    assert quoted("7" * 41) == f"{'7' * 40!r}... (41 characters)"
    long = "1/2x + " + "x" * 5000
    for parse, text in [(parse_integer, "0." + "5" * 5000), (parse_rational, "5" * 5000 + "."),
                        (parse_poly, long), (parse_poly, long + " + 1 + 1")]:
        with pytest.raises(ValueError) as info:
            parse(text)
        assert len(str(info.value)) < 200


# Text near the grammar (digits, signs, slashes, x, ^, spaces) as well as
# arbitrary text, so that both the regexes and the Fraction calls behind them
# are reached.
grammar_text = st.text(alphabet="0123456789/+-x^ ", max_size=16)
any_text = st.one_of(grammar_text, st.text(max_size=16))


@given(any_text)
def test_parse_rational_fuzz(text):
    try:
        value = parse_rational(text)
    except ValueError:
        return
    assert isinstance(value, F)


@given(any_text)
def test_parse_poly_fuzz(text):
    try:
        value = parse_poly(text)
    except ValueError:
        return
    assert isinstance(value, Poly)
