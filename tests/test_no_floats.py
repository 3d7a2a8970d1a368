"""No floats anywhere: every entry point that takes a rational refuses a
float or a string, and no module of the package holds a float literal or
calls float."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import delannoy_jacobi
from delannoy_jacobi import paths
from delannoy_jacobi.functionals import MomentFunctional, det_exact, hankel_mbeta
from delannoy_jacobi.paths import WeightTriple
from delannoy_jacobi.polynomial import Poly, X, as_poly, pochhammer

# Each entry point, called with one argument replaced by the value.
ENTRY_POINTS = {
    "Poly": lambda value: Poly([value]),
    "Poly-mixed": lambda value: Poly([F(1, 2), value, 3]),
    "Poly.constant": lambda value: Poly.constant(value),
    "Poly.monomial": lambda value: Poly.monomial(2, value),
    "call": lambda value: X(value),
    "call-zero": lambda value: Poly()(value),
    "homogenized-a": lambda value: X.homogenized(2, value, 1),
    "homogenized-b": lambda value: X.homogenized(2, 1, value),
    "compose_affine-a": lambda value: X.compose_affine(value, 0),
    "compose_affine-b": lambda value: X.compose_affine(1, value),
    "integrate-lo": lambda value: X.integrate(value, 1),
    "integrate-hi": lambda value: X.integrate(0, value),
    "mul": lambda value: X * value,
    "rmul": lambda value: value * X,
    "add": lambda value: X + value,
    "as_poly": as_poly,
    "pochhammer": lambda value: pochhammer(value, 2),
    "WeightTriple.of": lambda value: WeightTriple.of(value, 1, 1),
    "delannoy_sum-u": lambda value: paths.delannoy_sum(2, 2, value, 1, 1),
    "delannoy_sum-w": lambda value: paths.delannoy_sum(2, 2, 1, 1, value),
    "schroder_sum-v": lambda value: paths.schroder_sum(2, 1, value),
    "schroder_sum-w": lambda value: paths.schroder_sum(2, 1, 1, value),
    "hankel_mbeta-top": lambda value: hankel_mbeta(3, value),
    "det_exact": lambda value: det_exact([[value]]),
    "MomentFunctional": lambda value: MomentFunctional((1, value)),
}


@pytest.mark.parametrize("value", [0.1, 0.5, "1/3"])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_entry_point_refuses_floats_and_strings(entry, value):
    with pytest.raises(TypeError):
        entry(value)


@pytest.mark.parametrize("value", [1, F(1, 2), True])
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_entry_point_takes_ints_and_fractions(entry, value):
    entry(value)


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, text) of every float or complex literal and every call to
    float in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
    return found


def test_the_scan_finds_literals_and_calls():
    source = 'a = 0.5\nb = 1e3\nc = float(x)\nd = 2j\ne = "0.5"\nf = Fraction(1, 2)\n'
    assert float_uses(source) == [(1, "0.5"), (2, "1000.0"), (3, "float(...)"), (4, "2j")]


MODULES = sorted(Path(delannoy_jacobi.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_has_no_float(path):
    assert float_uses(path.read_text()) == []
