"""Correctness gates, applied to every output outside the timed region.

verify-cold: every registry entry must pass and run exactly the number of
cases recorded in reference.json, so that no speed can come from a shrunken
grid or a lowered cap.

compute-*: every output is compared with an independent route the library
exposes (closed sum against the DP, the direct-sum families against the
composed ones, Schroeder polynomials against the Schroeder DP).  The rook
Laguerre and Narayana polynomials have no second route in the library; they
are checked against their coefficient formulas written out here, and the
default seed's outputs also against digests recorded in reference.json.
"""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

from delannoy_jacobi import families, paths
from delannoy_jacobi.polynomial import Poly
from delannoy_jacobi.render import parse_poly

from workloads import POLY_WEIGHTS, digest

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check(request, output: str) -> bool:
    """True when the output of one operation is correct."""
    try:
        if request.kind == "entry":
            return output == f"pass {REFERENCE['cases'][request.args[0]]}"
        if request.kind == "cli":
            return _check_cli(request, output)
        return _check_library(request.kind, request.args, _parse_coeffs(output))
    except (ValueError, LookupError, TypeError, ZeroDivisionError):
        # A malformed output (or an error message in its place) is a failure.
        return False


def _flags(argv) -> dict[str, str]:
    return dict(a[2:].split("=", 1) for a in argv if a.startswith("--"))


def _check_cli(request, output: str) -> bool:
    what, flags = request.args[1], _flags(request.args)
    fmt = flags.get("format", "text")
    if what == "poly":
        ok = _parse_poly_output(fmt, output) == _family_expected(flags)
        known = REFERENCE["digests"].get(request.label)
        return ok and (known is None or known == digest(output))
    if what == "sequence":
        return _parse_sequence(fmt, output) == _sequence_expected(flags)
    n = int(flags["n"])
    u, v, w = (Fraction(flags[f]) for f in "uvw")
    if what == "delannoy":
        expected = paths.delannoy_closed(int(flags["m"]), n, paths.WeightTriple.of(u, v, w))
        expected = expected.constant_value()
    else:
        expected = (-w) ** n * families.schroder_poly(n)(-u * v / w)
    return _parse_scalar(fmt, output) == expected


def _csv_rows(output: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(output)))[1:]


def _parse_scalar(fmt: str, output: str) -> Fraction:
    if fmt == "json":
        return Fraction(json.loads(output)["value"])
    if fmt == "csv":
        (row,) = _csv_rows(output)
        return Fraction(row[-1])
    return Fraction(output.strip())


def _parse_sequence(fmt: str, output: str) -> list[int]:
    if fmt == "json":
        return [int(v) for v in json.loads(output)["values"]]
    if fmt == "csv":
        return [int(value) for _, value in _csv_rows(output)]
    return [int(v) for v in output.split(",")] if output.strip() else []


def _parse_poly_output(fmt: str, output: str) -> Poly:
    if fmt == "json":
        record = json.loads(output)
        poly = Poly(Fraction(c) for c in record["coefficients"])
        if parse_poly(record["text"]) != poly:
            raise ValueError("the text and the coefficients of the record disagree")
        return poly
    if fmt == "csv":
        rows = _csv_rows(output)
        if [int(power) for power, _ in rows] != list(range(len(rows))):
            raise ValueError("csv powers are not 0, 1, 2, ...")
        return Poly(Fraction(c) for _, c in rows)
    return parse_poly(output)


def _parse_coeffs(output: str) -> Poly:
    return Poly(Fraction(c) for c in output.split())


def _sequence_expected(flags: dict[str, str]) -> list[int]:
    count, name = int(flags["count"]), flags["name"]
    if name == "central-delannoy":
        values = (paths.delannoy_closed(k, k).constant_value() for k in range(count))
    elif name == "schroder":
        values = ((-1) ** k * families.schroder_poly(k)(-1) for k in range(count))
    else:
        m = int(flags["m"])
        values = (paths.delannoy_closed(m, k).constant_value() for k in range(count))
    return [int(v) for v in values]


def _family_expected(flags: dict[str, str]) -> Poly:
    family = flags["family"]
    n, alpha, beta = int(flags["n"]), int(flags["alpha"]), int(flags["beta"])
    half = Fraction(1, 2)
    if family == "romanovski":
        return families.romanovski_sum(n, alpha, beta)
    if family == "jacobi":  # P(x) = R((x - 1)/2), R the 2x+1 transform
        return families.romanovski_sum(n, alpha, beta).compose_affine(half, -half)
    if family == "shifted-jacobi":  # P~(x) = R(x - 1)
        if alpha == 0:
            return families.sj_product_expansion(n, 0, beta)
        return families.romanovski_sum(n, alpha, beta).compose_affine(1, -1)
    if family == "shifted-legendre":
        return families.shifted_legendre_sum(n)
    if family == "legendre":  # P(x) = P~((x + 1)/2)
        return families.shifted_legendre_sum(n).compose_affine(half, half)
    if family == "schroder":  # (n+1) S_n = ((x-1) P~_n^(1,-1)) / x
        return Fraction(1, n + 1) * families.sj_product_expansion(n, 1, -1).div_x()
    if family == "narayana":
        coeffs = [0] + [Fraction(math.comb(n, k - 1) * math.comb(n, k), n) for k in range(1, n + 1)]
        return Poly(coeffs)
    rect = n + (beta if family == "laguerre-gen" else 0)  # rook polynomial of a rect x n board
    coeffs = [0] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = (-1) ** k * math.comb(rect, k) * math.comb(n, k) * math.factorial(k)
    return Poly(coeffs)


def _check_library(kind: str, args: tuple, got: Poly) -> bool:
    if kind == "delannoy_weighted":
        return got == paths.delannoy_closed(*args, POLY_WEIGHTS)
    if kind == "delannoy_closed":  # P~_n^(0,beta) is the (1,x,-1) total to (n+beta, n)
        m, n = args
        return got == families.sj_product_expansion(n, 0, m - n)
    if kind == "schroder_weighted":
        return got == families.schroder_poly(*args)
    if kind == "cayley":  # (t-1)^n N_n(t/(t-1)) at one point, without the substitution code
        n, t = args[0], Fraction(7, 3)
        return got(t) == (t - 1) ** n * families.narayana(n)(t / (t - 1))
    raise ValueError(f"unknown library call {kind!r}")
