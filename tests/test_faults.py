"""Tests of the cold-run helpers in faults.py, and the scan that keeps them
the one place where tests empty caches."""

import ast
import re
from pathlib import Path

import pytest
from faults import cold_failures

from delannoy_jacobi import functionals, identities, paths

TESTS = Path(__file__).resolve().parent

# Tests of one cache's own behaviour, which empty that cache themselves.
CACHE_BEHAVIOUR_TESTS = {
    "test_paths.py::TestDiagonalTally::test_cap_is_checked_on_every_call",
    "test_paths.py::TestCacheBound::test_distinct_calls_stay_within_bound",
}

# A function named like clear_caches or empty_caches.
EMPTYING_NAME = re.compile(r"(clear|empty)\w*cache|cache\w*(clear|empty)")


def cache_emptiers(path: Path) -> list[str]:
    """The qualified names of the functions in path ("<module>" for code
    outside any function) that empty caches themselves: they read a
    cache_clear attribute, by name or through getattr or hasattr, or pass
    arguments (such as the modules whose caches to empty) to a function
    named like empty_caches."""
    found = {}

    def empties(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "cache_clear"
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("getattr", "hasattr"):
            return any(isinstance(arg, ast.Constant) and arg.value == "cache_clear"
                       for arg in node.args)
        return bool(EMPTYING_NAME.search(name) and (node.args or node.keywords))

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if empties(node):
            found[scope or "<module>"] = None
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return list(found)


class TestOneDefinitionOfCold:
    def test_the_scan_finds_each_spelling(self, tmp_path):
        source = tmp_path / "sample.py"
        source.write_text(
            "def cold():\n    clear_caches(families, paths)\n"
            "class TestTally:\n    def test_cap(self):\n        diagonal_tally.cache_clear()\n"
            "def walk(module):\n    for value in vars(module).values():\n"
            "        if hasattr(value, 'cache_clear'):\n            empty(value)\n"
            "empty_caches(modules=[paths])\nempty_caches()\n"
        )
        assert cache_emptiers(source) == ["cold", "TestTally.test_cap", "walk", "<module>"]

    def test_only_faults_empties_caches(self):
        found = {
            f"{path.name}::{scope.replace('.', '::')}"
            for path in sorted(TESTS.glob("*.py")) if path.name != "faults.py"
            for scope in cache_emptiers(path)
        }
        assert found - CACHE_BEHAVIOUR_TESTS == set()
        assert CACHE_BEHAVIOUR_TESTS <= found  # the allow-list names live tests


class TestWarmProcess:
    """A fault pin run in a process whose caches are warm fails the entries
    it fails cold, and leaves nothing built under the fault behind."""

    @pytest.fixture(autouse=True)
    def warm(self):
        assert all(r.status == "pass" for r in identities.run_all())
        yield
        assert all(r.status == "pass" for r in identities.run_all())

    def test_wrong_integer_determinant(self, monkeypatch):
        real = functionals._bareiss
        monkeypatch.setattr(functionals, "_bareiss", lambda rows: real(rows) + 1)
        assert cold_failures(monkeypatch) == {"romanovski-orth"}

    def test_wrong_closed_sum(self, monkeypatch):
        # A warm delannoy_closed cache would hide this fault.
        real = paths._closed_sum

        def faulty(m, n, low, high):
            total = real(m, n, low, high)
            return total + 1 if (m, n) == (1, 1) else total

        monkeypatch.setattr(paths, "_closed_sum", faulty)
        assert cold_failures(monkeypatch) == {"wd-closed-vs-dp-vs-enum"}
