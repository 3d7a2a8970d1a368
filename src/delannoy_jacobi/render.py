"""Text rendering and parsing for polynomials and rational literals.

Polynomials are printed in descending powers with explicit signs and x^k
syntax, e.g. "3x^2 - 12x + 10" or "1/2x^3 - x + 2/3".  parse_poly accepts
exactly the emitted format, so render/parse round-trips coefficient
sequences unchanged.  format_poly reads each coefficient's text from the
integer form (Poly.coefficient_texts), not from the Fraction view, which
the Poly product, cayley, constant_value, coefficient and leading still read.

Rational literals are "p/q" or integer strings in ASCII digits; decimals
are rejected to keep the exactness contract visible at the boundary.
The CLI reads every literal here; one past the interpreter's digit limit
(sys.get_int_max_str_digits(), 0 for none) raises TooManyDigits.  An error
message quotes a rejected literal through quoted, cut to its first
QUOTED_CHARS characters.
"""

import re
import sys
from fractions import Fraction

from .polynomial import Poly

# A Poly is dense, so "x^N" costs N+1 coefficients: powers beyond this bound
# are rejected as text rather than allocated.
MAX_PARSED_DEGREE = 100_000

QUOTED_CHARS = 40  # of a literal an error message shows


# [0-9], not \d: int(), Fraction() and \d also take non-ASCII digits such as "٣".
INTEGER_LITERAL = re.compile(r"-?[0-9]+")
RATIONAL_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class TooManyDigits(ValueError):
    """A literal with more digits than the interpreter converts from text."""


def quoted(text: str) -> str:
    """repr(text), or for a longer text the repr of its first QUOTED_CHARS
    characters and its length, so an error message stays one short line."""
    if len(text) <= QUOTED_CHARS:
        return repr(text)
    return f"{text[:QUOTED_CHARS]!r}... ({len(text)} characters)"


def _convert(kind, text: str):
    """kind(text) for text in the grammar, whose one ValueError is the digit limit."""
    try:
        return kind(text)
    except ValueError:
        raise TooManyDigits(
            "the literal has more digits than the interpreter converts from text "
            f"(limit: {sys.get_int_max_str_digits()} digits)"
        ) from None


def parse_integer(text: str) -> int:
    """An integer literal: ASCII digits with an optional leading "-"."""
    if not INTEGER_LITERAL.fullmatch(text):
        raise ValueError(f"invalid int value: {quoted(text)}")
    return _convert(int, text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; no decimal forms."""
    text = text.strip()
    if not RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal (use p/q or an integer): {quoted(text)}")
    try:
        return _convert(Fraction, text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {quoted(text)}") from None


def format_poly(p: Poly) -> str:
    """Render in descending powers with explicit signs: each nonzero
    coefficient's text as a sign and a magnitude, a magnitude 1 dropped
    before x."""
    parts = []
    texts = p.coefficient_texts()
    for k in range(len(texts) - 1, -1, -1):
        mag = texts[k]
        if mag == "0":
            continue
        sign = " + "
        if mag[0] == "-":
            sign, mag = " - ", mag[1:]
        if k:
            xpart = "x" if k == 1 else f"x^{k}"
            mag = xpart if mag == "1" else mag + xpart
        parts += sign, mag
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


_TERM = re.compile(
    r"^(?P<coeff>[0-9]+(?:/[0-9]+)?)?(?P<x>x(?:\^(?P<power>[0-9]+))?)?$"
)


def parse_poly(text: str) -> Poly:
    """Parse the format emitted by format_poly back to a Poly."""
    text = text.strip()
    if text == "0":
        return Poly()
    if not text:
        raise ValueError("empty polynomial text")
    # Normalize to a signed term list: leading sign optional, inner terms
    # separated by " + " / " - ".
    tokens = re.split(r"\s*([+-])\s*", text)
    if tokens[0] == "":
        tokens = tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2 != 0:
        raise ValueError(f"malformed polynomial text: {quoted(text)}")
    coeffs: dict[int, Fraction] = {}
    for sign, term in zip(tokens[0::2], tokens[1::2]):
        m = _TERM.fullmatch(term)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise ValueError(f"malformed term {quoted(term)} in {quoted(text)}")
        coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if sign == "-":
            coeff = -coeff
        if m.group("x") is None:
            power = 0
        else:
            power = parse_integer(m.group("power")) if m.group("power") else 1
        if power > MAX_PARSED_DEGREE:
            raise ValueError(f"power {power} exceeds {MAX_PARSED_DEGREE} in {quoted(text)}")
        if power in coeffs:
            raise ValueError(f"repeated power {power} in {quoted(text)}")
        coeffs[power] = coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, coeff in coeffs.items():
        out[power] = coeff
    return Poly(out)
