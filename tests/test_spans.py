"""The benchmark's tracer (perfbench/spans.py) wraps package functions and
Poly methods by name, so a rename must fail here rather than only in a
traced benchmark run."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import delannoy_jacobi
from delannoy_jacobi.polynomial import Poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

MODULES = {m.__name__.rpartition(".")[2]: m for m in spans.package_modules(delannoy_jacobi)}
TRACED = [
    (module, name)
    for table in (spans.FUNCTIONS, spans.ITERATORS)
    for module, names in table.items()
    for name in names
] + list(spans.RENAMED)
POLY_ATTRS = [attr for attrs in spans.POLY_METHODS.values() for attr in attrs]


@pytest.mark.parametrize("module,name", TRACED, ids=lambda x: x)
def test_traced_function_exists(module, name):
    assert callable(getattr(MODULES[module], name, None)), f"{module}.{name}"


@pytest.mark.parametrize("attr", POLY_ATTRS)
def test_traced_poly_method_is_defined_on_poly(attr):
    # The tracer replaces the entry in Poly's own namespace, not an inherited one.
    assert callable(vars(Poly).get(attr))


def test_tracer_counts_a_cli_request():
    tracer = spans.Tracer(delannoy_jacobi)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = delannoy_jacobi.cli.main(
                ["compute", "poly", "--family", "narayana", "--n", "3", "--format", "json"]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    stats = tracer.snapshot()
    assert stats["cli.main.calls"] == 1
    assert stats["families.narayana.calls"] == 1
    assert stats["render.format_poly.calls"] == 1
