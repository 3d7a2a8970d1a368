"""Tests for the identity registry runner, reports, and fault detection."""

import dataclasses
import itertools
import json
from fractions import Fraction

import golden_reports
import pytest
from faults import FAULT_TARGETS, CorruptingFamilies, clear_caches

from delannoy_jacobi import families, identities, paths
from delannoy_jacobi.identities import (
    REGISTRY,
    SuiteConfig,
    UnknownIdentity,
    run_all,
    run_identity,
)
from delannoy_jacobi.polynomial import Poly, X

SMALL = SuiteConfig(max_n=2)


def test_run_identity_passes():
    report = run_identity("dp1")
    assert report.status == "pass"
    assert report.counterexample is None
    assert report.cases_run == 90


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_identity("no-such-identity")


def test_table_entry_runs_seven_cases():
    report = run_identity("bneg-table1")
    assert report.status == "pass"
    assert report.cases_run == 7


def test_run_all_default_passes():
    reports = run_all(SuiteConfig(max_n=3))
    assert len(reports) == len(REGISTRY)
    assert [r.id for r in reports] == sorted(REGISTRY)
    assert all(r.status == "pass" for r in reports)


def test_max_n_clamp_reduces_cases():
    full = run_identity("swap-rules")
    clamped = run_identity("swap-rules", SMALL)
    assert clamped.status == "pass"
    assert 0 < clamped.cases_run < full.cases_run


def test_max_n_leaves_exactly_the_documented_grids_fixed():
    # SuiteConfig, `verify --max-n` and the README name these four.
    default = {r.id: r.cases_run for r in run_all()}
    zero = {r.id: r.cases_run for r in run_all(SuiteConfig(max_n=0))}
    assert {id for id in default if zero[id] == default[id]} == {
        "bneg-symmetry", "bneg-table1", "borth2", "romanovski-orth",
    }


def test_reports_are_deterministic():
    first = run_identity("epl", SMALL)
    second = run_identity("epl", SMALL)
    assert (first.status, first.cases_run, first.counterexample) == (
        second.status,
        second.cases_run,
        second.counterexample,
    )


def test_report_serialization_schema():
    record = run_identity("narayana", SMALL).to_dict()
    assert set(record) == {"id", "status", "cases_run", "counterexample", "millis", "notes"}


def test_notes_record_observations():
    assert "(n!)^2" in run_identity("laguerre-orth", SMALL).notes
    assert "order <= n" in run_identity("antideriv", SMALL).notes
    assert "lambda_2 = 0" in run_identity("favard-schroder", SMALL).notes
    assert "experiment" in run_identity("motzkin-moments", SMALL).notes


@pytest.mark.parametrize("family", sorted(FAULT_TARGETS))
@pytest.mark.parametrize("index", [0, 1, 2])
def test_fault_injection_is_detected(family, index):
    config = SuiteConfig(max_n=4, families=CorruptingFamilies(family, index))
    reports = [run_identity(id, config) for id in FAULT_TARGETS[family]]
    failed = [r for r in reports if r.status == "fail"]
    assert failed, f"no identity caught a corrupted {family} coefficient {index}"
    for report in failed:
        assert report.counterexample is not None


def test_fault_injection_whole_registry():
    config = SuiteConfig(max_n=3, families=CorruptingFamilies("shifted_jacobi", 0))
    reports = run_all(config)
    assert any(r.status == "fail" for r in reports)


class _RecordingFamilies:
    """Family namespace that records the name of every attribute looked up."""

    def __init__(self):
        self.looked_up = set()

    def __getattr__(self, name):
        self.looked_up.add(name)
        return getattr(families, name)


@pytest.mark.parametrize("id", sorted({id for ids in FAULT_TARGETS.values() for id in ids}))
def test_fault_targets_look_up_their_family(id):
    # The fault sweep corrupts a family only in its listed entries, so each
    # listed entry must really reach that family through the namespace.
    recording = _RecordingFamilies()
    report = run_identity(id, SuiteConfig(max_n=2, families=recording))
    assert report.status == "pass"
    expected = {family for family, ids in FAULT_TARGETS.items() if id in ids}
    assert expected <= recording.looked_up


def test_every_family_the_registry_looks_up_is_a_fault_target():
    # A family that no FAULT_TARGETS key names is never corrupted by the
    # fault sweep, so nothing pins that the registry catches it.
    recording = _RecordingFamilies()
    assert all(r.status == "pass" for r in run_all(SuiteConfig(families=recording)))
    assert recording.looked_up <= set(FAULT_TARGETS)


@pytest.mark.parametrize("settings", [
    {"max_n": -1},
    {"max_n": 1.5},
    {"max_n": "3"},
    {"max_n": True},
    {"weight_grid": ()},
    {"weight_grid": (0, 1)},
    {"weight_grid": (Fraction(1), Fraction(0))},
])
def test_suite_config_rejects_what_the_cli_rejects(settings):
    # A negative max_n ran most entries with no case, an empty grid passed
    # the weight-grid entries with none, and a zero weight divided by zero.
    with pytest.raises(ValueError):
        SuiteConfig(**settings)


@pytest.mark.parametrize("grid", [(0.1,), (1, "2"), (Fraction(1), 2.0)])
def test_suite_config_rejects_grid_values_that_are_not_rational(grid):
    # A float entered as its binary expansion, 0.1 as 3602879701896397/2^55.
    with pytest.raises(TypeError):
        SuiteConfig(weight_grid=grid)


def test_suite_config_accepts_ints_fractions_and_no_max_n():
    half = Fraction(-1, 2)
    config = SuiteConfig(max_n=0, weight_grid=[1, half, True])
    assert (config.max_n, config.weight_grid) == (0, (1, half, 1))
    # Stored as a tuple of Fractions, with a given Fraction kept, not copied;
    # True is the int 1, as require_rational and WeightTriple.of take it.
    assert all(type(v) is Fraction for v in config.weight_grid)
    assert config.weight_grid[1] is half
    assert SuiteConfig().max_n is None


def test_counterexample_is_lexicographically_first():
    # A corrupted shifted_jacobi breaks the beta = -6 table at its first row.
    config = SuiteConfig(families=CorruptingFamilies("shifted_jacobi", 0))
    report = run_identity("bneg-table1", config)
    assert report.status == "fail"
    assert report.cases_run == 1
    assert report.counterexample["params"] == {"n": 0}

    # dp1 iterates n ascending then alpha ascending from -n: the first grid
    # point is (n=0, alpha=0), where the corrupted constant already differs.
    report = run_identity("dp1", SuiteConfig(families=CorruptingFamilies("jacobi", 0)))
    assert report.status == "fail"
    assert report.counterexample["params"] == {"n": 0, "alpha": 0}
    assert report.cases_run == 1


def test_corruption_error_paths_are_reported_not_raised():
    # Corrupting the constant coefficient of the (1,-1) family breaks the
    # divisibility precondition inside the schroder entry; the report must
    # fail gracefully rather than propagate.
    config = SuiteConfig(max_n=3, families=CorruptingFamilies("shifted_jacobi", 0))
    report = run_identity("schroder", config)
    assert report.status == "fail"
    assert report.counterexample is not None


@pytest.mark.parametrize("off_axes, wd_at, epl_at", [
    (False, {"m": 0, "n": 0}, {"n": 0, "m": 0, "beta": 0}),
    (True, {"m": 1, "n": 1}, {"n": 1, "m": 0, "beta": 0}),
])
def test_dropped_enumerated_path_fails_both_path_oracles(monkeypatch, off_axes, wd_at, epl_at):
    # Both path oracles read one cached step tally per endpoint, counted by
    # the path walk; a walk that loses its first path (at every endpoint, or
    # only where both coordinates are positive) must fail each entry at its
    # first enumeration case that sees the loss, whatever the cache held
    # before.
    walk = paths._depth_first

    def one_path_short(end, *args, **kwargs):
        found = walk(end, *args, **kwargs)
        return found if off_axes and 0 in end else itertools.islice(found, 1, None)

    clear_caches(paths)
    monkeypatch.setattr(paths, "_depth_first", one_path_short)
    try:
        report = run_identity("wd-closed-vs-dp-vs-enum")
        assert report.status == "fail"
        assert report.counterexample["params"] == {
            **wd_at, "u": "1", "v": "1", "w": "1", "route": "enumeration",
        }
        report = run_identity("epl")
        assert report.status == "fail"
        assert report.counterexample["params"] == {**epl_at, "route": "pair enumeration"}
    finally:
        monkeypatch.undo()
        clear_caches(paths)
    assert run_identity("wd-closed-vs-dp-vs-enum").status == "pass"
    assert run_identity("epl").status == "pass"


def _products_from_cold_caches(monkeypatch, id):
    """The operands of every Poly x Poly product one entry takes, run with
    empty path, family and registry caches.  __rmul__ is patched too, so
    that no product escapes the count; a scalar times a Poly scales its
    numerators and is not a product."""
    products = []
    multiply = Poly.__mul__

    def counted(self, other):
        if isinstance(other, Poly):
            products.append((self, other))
        return multiply(self, other)

    clear_caches(paths, families, identities)
    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    report = run_identity(id)
    monkeypatch.undo()
    assert report.status == "pass"
    return products


@pytest.mark.parametrize("id", [
    "swap-rules", "epl", "orth-0beta", "romanovski-orth", "wcd-legendre", "wcd-legendre-swap",
])
def test_checks_that_reduce_products_to_numbers_build_none(monkeypatch, id):
    # Functionals and [0, 1] integrals take both factors, (-1)^n is a
    # negation, and the constant (-w)^n or w^n of the v = x legs scales the
    # numerators, so none of these entries multiplies two polynomials.
    assert _products_from_cold_caches(monkeypatch, id) == []


def test_laguerre_orth_builds_only_the_weighted_laguerre_factors(monkeypatch):
    # x^beta L_m^(beta) is a factor of every weighted off-diagonal pair, so
    # it alone is built, once per (beta, m).
    expected = [
        (Poly.monomial(beta), families.laguerre_gen(m, beta))
        for beta in range(5)
        for m in range(7)
    ]
    assert _products_from_cold_caches(monkeypatch, "laguerre-orth") == expected


def _counting_sides(verifier, calls):
    """The verifier, with every side of every case it yields (a claim's
    condition too) counting its calls: calls gets one list of call counts
    per case."""

    def counted(counts, side):
        counts.append(0)
        i = len(counts) - 1

        def call():
            counts[i] += 1
            return side()

        return call

    def wrapped(config):
        for params, *sides in verifier(config):
            counts = []
            calls.append(counts)
            yield params, *(counted(counts, s) if callable(s) else s for s in sides)

    return wrapped


@pytest.mark.parametrize("max_n", [None, 0, 1, 2, 3, 4, 5])
def test_the_grid_is_data(monkeypatch, max_n):
    # Listing an entry's cases calls no side and gives as many cases as a
    # full run, and the runner calls every side of every case exactly once.
    config = SuiteConfig(max_n=max_n)
    for id, entry in REGISTRY.items():
        listed, ran = [], []
        for _ in _counting_sides(entry.verifier, listed)(config):
            pass
        monkeypatch.setitem(
            REGISTRY, id, dataclasses.replace(entry, verifier=_counting_sides(entry.verifier, ran))
        )
        report = run_identity(id, config)
        assert report.status == "pass", id
        assert len(listed) == report.cases_run == len(ran), id
        assert all(set(counts) == {0} for counts in listed), id
        assert all(set(counts) == {1} for counts in ran), id


GOLDEN = json.loads(golden_reports.GOLDEN.read_text())


def test_golden_file_holds_every_configuration():
    assert sorted(GOLDEN) == sorted(golden_reports.configurations())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_reports_match_the_golden_file(label):
    # Counts, statuses, notes and first counterexamples, fixed per
    # configuration; tests/golden_reports.py regenerates the file.
    assert golden_reports.reports(label) == GOLDEN[label]


def _clear_every_cache():
    clear_caches(families, paths, identities)


def test_each_entry_alone_reports_as_inside_run_all():
    # Caches and weight triples shared across entries only save work: an
    # entry run alone from empty caches gives the report it gives inside a
    # cold run_all(), in every field but its timing.
    def fields(report):
        return {k: v for k, v in report.to_dict().items() if k != "millis"}

    _clear_every_cache()
    together = {report.id: fields(report) for report in run_all()}
    assert sorted(together) == sorted(REGISTRY)
    for id in sorted(REGISTRY):
        _clear_every_cache()
        assert fields(run_identity(id)) == together[id], id


WEIGHT_GRID_ENTRIES = [
    "cdrec", "schroder", "wcd-legendre", "wcd-legendre-swap", "wd-closed-vs-dp-vs-enum",
    "wd-jacobi", "wd-jacobi-swap",
]


def _grid_triples(monkeypatch, config):
    """Per weight-grid entry, the WeightTriples on config's grid, (u, v, w)
    and (u, x, w), that it passes the registry's table readers."""
    grid = config.weight_grid
    on_grid = {paths.WeightTriple.of(u, v, w) for u in grid for v in (*grid, X) for w in grid}
    passed = {id: [] for id in WEIGHT_GRID_ENTRIES}
    current = []

    def recording(dp):
        def call(*args):
            current.extend(a for a in args if a in on_grid)
            return dp(*args)

        return call

    for name in ("_delannoy_table", "_schroder_table"):
        monkeypatch.setattr(identities, name, recording(getattr(identities, name)))
    for id in WEIGHT_GRID_ENTRIES:
        current = passed[id]
        assert run_identity(id, config).status == "pass", id
    monkeypatch.undo()
    return passed, on_grid


def test_cold_run_all_runs_each_grid_triples_dps_once(monkeypatch):
    # The weight-grid entries read their constant-weight totals from one
    # Delannoy and one Schroeder table per grid point, so a cold run_all()
    # runs each grid triple's DPs once, sized for the farthest cells any
    # entry reads: to (13, 8), 21 steps, the (n + 5, n) of dp1, and to
    # (10, 10), 20 steps, the (n, n) of schroder.
    packed = []
    real = paths._packed_weights

    def recording(wt, steps):
        packed.append((wt, steps))
        return real(wt, steps)

    monkeypatch.setattr(paths, "_packed_weights", recording)
    _clear_every_cache()
    assert all(r.status == "pass" for r in run_all())
    grid = identities._weight_points(identities.DEFAULT_CONFIG.weight_grid).uvw
    assert len(grid) == 27
    for *_, wt in grid:
        assert sorted(steps for seen, steps in packed if seen is wt) == [20, 21], wt


def test_cold_run_all_runs_one_dp_per_triple(monkeypatch):
    # Every DP total the registry reads, on the grid's (u, v, w) and
    # (u, x, w) triples, (1, x, -1), the unit triple and the enumeration
    # leg's, comes from one Delannoy and one Schroeder table per triple, and
    # equal triples share a table: a cold run_all() runs each lattice's DP at
    # most once per triple value, so at most once per triple object.
    packing, runs = [], []
    real = paths._packed_weights

    def recording_packing(wt, steps):
        packing.append(wt)
        return real(wt, steps)

    def recording(name):
        rows = getattr(paths, name)

        def run(*args):
            runs.append((name, packing[-1]))
            return rows(*args)

        return run

    monkeypatch.setattr(paths, "_packed_weights", recording_packing)
    for name in ("_delannoy_rows", "_schroder_rows"):
        monkeypatch.setattr(paths, name, recording(name))
    _clear_every_cache()
    assert all(r.status == "pass" for r in run_all())
    weights = identities._weight_points(identities.DEFAULT_CONFIG.weight_grid)
    delannoy = [wt for name, wt in runs if name == "_delannoy_rows"]
    schroder = [wt for name, wt in runs if name == "_schroder_rows"]
    assert len(delannoy) == len(set(delannoy)) == 39
    assert len(schroder) == len(set(schroder)) == 28
    on_grid = {wt for *_, wt in weights.uvw}
    assert set(delannoy) == on_grid | {wt for *_, wt in (*weights.uxw, *weights.enumeration)} | {
        weights.poly_x, weights.unit}
    assert set(schroder) == on_grid | {weights.poly_x, weights.unit}


def test_weight_grid_entries_of_one_config_share_triples(monkeypatch):
    # Every weight-grid entry of one config passes the table readers the
    # same triple object for each grid point, and a second config with an
    # equal grid shares the first one's triples, since the weight points are
    # keyed by the grid's value.  The grid leaves out 1, which the
    # enumeration leg's own triples use.
    grid = (Fraction(-1, 3), 2, Fraction(5, 2))
    first, second = SuiteConfig(max_n=3, weight_grid=grid), SuiteConfig(max_n=3, weight_grid=grid)
    _clear_every_cache()
    objects = []
    for config in (first, second):
        passed, on_grid = _grid_triples(monkeypatch, config)
        assert all(passed.values()), [entry for entry, seen in passed.items() if not seen]
        by_value = {}
        for seen in passed.values():
            for wt in seen:
                by_value.setdefault(wt, set()).add(id(wt))
        assert set(by_value) == on_grid  # 27 (u, v, w) and 9 (u, x, w) points
        assert all(len(ids) == 1 for ids in by_value.values())
        objects.append(set().union(*by_value.values()))
    assert objects[0] == objects[1]
