"""Text rendering and parsing for polynomials and rational literals.

Polynomials are printed in descending powers with explicit signs and x^k
syntax, e.g. "3x^2 - 12x + 10" or "1/2x^3 - x + 2/3".  parse_poly accepts
exactly the emitted format, so render/parse round-trips coefficient
sequences unchanged.

Rational literals are "p/q" or integer strings in ASCII digits; decimals
are rejected to keep the exactness contract visible at the boundary.
"""

import re
from fractions import Fraction

from .polynomial import Poly

# A Poly is dense, so "x^N" costs N+1 coefficients: powers beyond this bound
# are rejected as text rather than allocated.
MAX_PARSED_DEGREE = 100_000


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or an integer literal; no decimal forms."""
    text = text.strip()
    # [0-9], not \d: \d also matches non-ASCII decimal digits such as "٣".
    match = re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", text)
    if not match:
        raise ValueError(f"not a rational literal (use p/q or an integer): {text!r}")
    if match.group(1) and int(match.group(1)) == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(text)


def _format_term(coeff: Fraction, power: int) -> str:
    mag = abs(coeff)
    if power == 0:
        return str(mag)
    xpart = "x" if power == 1 else f"x^{power}"
    if mag == 1:
        return xpart
    return f"{mag}{xpart}"


def format_poly(p: Poly) -> str:
    """Render in descending powers with explicit signs."""
    if not p:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}{_format_term(c, k)}")
        else:
            sign = "-" if c < 0 else "+"
            parts.append(f" {sign} {_format_term(c, k)}")
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
        raise ValueError(f"malformed polynomial text: {text!r}")
    coeffs: dict[int, Fraction] = {}
    for sign, term in zip(tokens[0::2], tokens[1::2]):
        m = _TERM.fullmatch(term)
        if not m or (m.group("coeff") is None and m.group("x") is None):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        coeff = parse_rational(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if sign == "-":
            coeff = -coeff
        if m.group("x") is None:
            power = 0
        else:
            power = int(m.group("power")) if m.group("power") else 1
        if power > MAX_PARSED_DEGREE:
            raise ValueError(f"power {power} exceeds {MAX_PARSED_DEGREE} in {text!r}")
        if power in coeffs:
            raise ValueError(f"repeated power {power} in {text!r}")
        coeffs[power] = coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, coeff in coeffs.items():
        out[power] = coeff
    return Poly(out)
