"""Shared test helpers: a family namespace that corrupts one constructor,
and the emptying of module caches before and after a fault."""

from fractions import Fraction

from delannoy_jacobi import families
from delannoy_jacobi.polynomial import Poly

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


def clear_caches(*modules):
    """Empty every lru_cache defined at the top level of the modules."""
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
