"""Shared test helpers: a family namespace that corrupts one constructor,
and the one definition of a cold run.

A cold run starts with every functools cache of the package empty: the
caches that perfbench/spans.py finds for the benchmark's cold passes, so
the tests and the benchmark mean the same thing by "cold".  Other test
modules empty no cache themselves, except in tests of one cache's own
behaviour; test_faults.py scans for that.
"""

import contextlib
import sys
from fractions import Fraction
from pathlib import Path

import delannoy_jacobi
from delannoy_jacobi import families, identities
from delannoy_jacobi.polynomial import Poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# Found once, at import, so that a fault patched over a cached function
# cannot hide its cache.
CACHES = spans.find_caches(spans.package_modules(delannoy_jacobi))

# For each family constructor, registry identities known to consume it
# directly (used to keep fault-injection sweeps fast).
FAULT_TARGETS = {
    "jacobi": ["dp1", "swap-rules"],
    "shifted_jacobi": ["llp", "bneg-table1"],
    "romanovski": ["bneg-symmetry", "romanovski-orth"],
    "legendre": ["cdrec"],
    "shifted_legendre": ["wcd-legendre", "antideriv"],
    "laguerre": ["laguerre-orth"],
    "laguerre_gen": ["laguerre-orth"],
    "schroder_poly": ["schroder", "antideriv"],
    "narayana": ["narayana"],
    "sj_product_expansion": ["sj-expansion"],
    "monic_legendre": ["favard-legendre"],
    "legendre_q": ["favard-legendre"],
    "monic_schroder": ["favard-schroder"],
    "shifted_legendre_sum": ["dual-routes"],
    "jacobi_symmetric": ["dual-routes"],
}


class CorruptingFamilies:
    """Family namespace that flips one coefficient of one constructor's output."""

    def __init__(self, target: str, index: int):
        self._target = target
        self._index = index

    def __getattr__(self, name):
        real = getattr(families, name)
        if name != self._target or not callable(real):
            return real

        def corrupted(*args, **kwargs):
            poly = real(*args, **kwargs)
            coeffs = list(poly.coeffs)
            while len(coeffs) <= self._index:
                coeffs.append(Fraction(0))
            coeffs[self._index] += 1
            return Poly(coeffs)

        return corrupted


def empty_caches():
    """Empty every functools cache of the package."""
    for cache in CACHES:
        cache.cache_clear()


@contextlib.contextmanager
def cold(monkeypatch):
    """A cold run under the faults set on monkeypatch: every cache is empty
    on entry, and on exit the faults are undone and every cache is emptied
    again, so nothing built under a fault outlives it."""
    empty_caches()
    try:
        yield
    finally:
        monkeypatch.undo()
        empty_caches()


def cold_failures(monkeypatch):
    """The ids of the registry entries that fail a cold run_all() under the
    faults set on monkeypatch, which are undone on return."""
    with cold(monkeypatch):
        return {r.id for r in identities.run_all() if r.status == "fail"}
