"""Tests for polynomial text rendering and the matching parser."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delannoy_jacobi.polynomial import Poly, X
from delannoy_jacobi.render import MAX_PARSED_DEGREE, format_poly, parse_poly, parse_rational

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


def test_parse_rational():
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("-7") == -7
    assert parse_rational(" 5/10 ") == F(1, 2)
    for bad in ["1.5", "2/", "/3", "a", "1e3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


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
