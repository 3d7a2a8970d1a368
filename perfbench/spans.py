"""Per-layer tracing of the delannoy_jacobi package, from outside it.

A Tracer wraps the public functions and methods that the package's modules
call into, in every module namespace that binds them, and outside any
lru_cache so that cache hits are counted too.  Each wrapped call is a span;
its self time is its duration minus the time covered by the spans it
encloses.  Spans are added up in memory per name and read out once, after
the measured pass, so tracing does no I/O while the workload runs.
"""

import functools
import importlib
import pkgutil
import time

from delannoy_jacobi.polynomial import Poly

# Layer functions looked up in their home module, traced as "<module>.<name>".
FUNCTIONS = {
    "paths": (
        "delannoy_weighted", "delannoy_closed", "schroder_weighted",
        "motzkin_legendre_moment", "valid_pair_signed_sum",
    ),
    "families": (
        "jacobi", "shifted_jacobi", "romanovski", "shifted_legendre",
        "laguerre_gen", "schroder_poly", "narayana", "sj_product_expansion",
    ),
    "functionals": ("det_exact", "inner_weighted", "favard_fit"),
    "render": ("format_poly",),
    "cli": ("main",),
}
# Functions that return an iterator: the work happens in each next() call.
ITERATORS = {"paths": ("delannoy_enumerate",)}
# Spans whose name differs from the function they wrap.
RENAMED = {("identities", "run_identity"): "identities.runner"}
# Poly methods, by span name; __mul__ and __rmul__ are separate slots.
POLY_METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "compose_affine": ("compose_affine",),
    "eval": ("__call__",),
    "cayley": ("cayley",),
    "integrate": ("integrate",),
}


def package_modules(package) -> list:
    """The package itself and every module in it, imported."""
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


def find_caches(modules) -> list:
    """Every functools cache reachable from a module or class namespace of
    the given modules, found by walking for cache_clear (through __wrapped__
    chains, so a Tracer's wrappers do not hide them)."""
    seen: dict[int, object] = {}
    for module in modules:
        namespaces = [vars(module)] + [
            vars(v) for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        for namespace in namespaces:
            for value in namespace.values():
                while value is not None:
                    if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                        seen[id(value)] = value
                    value = getattr(value, "__wrapped__", None)
    return list(seen.values())


class Caches:
    """Every functools cache of a package, emptied together.

    cache_clear() also zeroes a cache's hit and miss counters, so the
    counters are added up here before each clear.
    """

    def __init__(self, package):
        self.caches = find_caches(package_modules(package))
        self._cleared: dict[str, list[int]] = {}

    def clear(self) -> None:
        """Empty every cache; fail loudly if one does not report itself empty."""
        for cache in self.caches:
            info = cache.cache_info()
            totals = self._cleared.setdefault(cache.__module__, [0, 0])
            totals[0] += info.hits
            totals[1] += info.misses
            cache.cache_clear()
            if cache.cache_info().currsize != 0:
                raise RuntimeError(f"{cache.__qualname__} is not empty after cache_clear()")

    def hits_and_misses(self, module: str) -> tuple[int, int]:
        """Hits and misses so far of the caches defined in one module."""
        hits, misses = self._cleared.get(module, (0, 0))
        for cache in self.caches:
            if cache.__module__ == module:
                info = cache.cache_info()
                hits += info.hits
                misses += info.misses
        return hits, misses


class Stat:
    __slots__ = ("calls", "self_ns", "items")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.items = 0


class Tracer:
    """Installs span wrappers into the package and adds up their spans."""

    def __init__(self, package):
        self.modules = package_modules(package)
        self.stats: dict[str, Stat] = {}
        self.max_degree = 0
        self.max_coeff_bits = 0
        self._stack: list[int] = []  # time covered by child spans, per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        by_module = {m.__name__.rpartition(".")[2]: m for m in self.modules}
        for table, make in ((FUNCTIONS, self._span), (ITERATORS, self._iter_span)):
            for module_name, names in table.items():
                for name in names:
                    original = getattr(by_module[module_name], name)
                    self._rebind(original, f"{module_name}.{name}", make)
        for (module_name, name), span_name in RENAMED.items():
            self._rebind(getattr(by_module[module_name], name), span_name, self._span)
        for span_name, attrs in POLY_METHODS.items():
            for attr in attrs:
                original = vars(Poly)[attr]
                self._undo.append((Poly, attr, original))
                setattr(Poly, attr, self._span(f"polynomial.{span_name}", original, sizes=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, original, span_name: str, make) -> None:
        """Replace `original` by one wrapper in every module namespace binding it."""
        wrapper = make(span_name, original)
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- spans -----------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _span(self, name: str, fn, sizes: bool = False):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stat.self_ns += end - start - stack.pop()
                stat.calls += 1
                if sizes:
                    self._record_sizes(args[0], result)
                # The parent also skips the size bookkeeping above.
                if stack:
                    stack[-1] += clock() - start

        return traced

    def _iter_span(self, name: str, fn):
        stat = self._stat(name)
        call = self._span(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._steps(stat, call(*args, **kwargs))

        return traced

    def _steps(self, stat: Stat, iterator):
        stack = self._stack
        clock = time.perf_counter_ns
        while True:
            stack.append(0)
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                end = clock()
                stat.self_ns += end - start - stack.pop()
                if stack:
                    stack[-1] += end - start
            stat.items += 1
            yield item

    def _record_sizes(self, *values) -> None:
        for value in values:
            if isinstance(value, Poly) and value.coeffs:
                self.max_degree = max(self.max_degree, value.degree)
                bits = max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in value.coeffs
                )
                self.max_coeff_bits = max(self.max_coeff_bits, bits)

    # -- read-out --------------------------------------------------------------

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = stat.self_ns = stat.items = 0
        self.max_degree = self.max_coeff_bits = 0

    def snapshot(self) -> dict[str, float]:
        """Counts and self times of the spans since the last reset."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_ns / 1e9
        out["paths.enumerated_paths"] = self.stats["paths.delannoy_enumerate"].items
        out["polynomial.max_degree"] = self.max_degree
        out["polynomial.max_coeff_bits"] = self.max_coeff_bits
        return out

