import numpy as np
import pytest

from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    BoxSpace,
    FiniteSpace,
    TableFuzzyMetric,
    TGrid,
    UsageError,
    check_fm_axioms,
    induced_exponential,
    induced_standard,
)

GRID = TGrid.default()
NORMS = [MINIMUM, PRODUCT, LUKASIEWICZ]


@pytest.mark.parametrize("op", NORMS)
@pytest.mark.parametrize("make", [induced_standard, induced_exponential])
def test_stock_metrics_satisfy_axioms(make, op):
    fm = make(BoxSpace([-10.0], [10.0]))
    report = check_fm_axioms(fm, op, 300, GRID, seed=42)
    assert report.passed, report.violations[:3]


def test_multidimensional_and_max_metric():
    fm = induced_standard(BoxSpace([-5.0, -5.0], [5.0, 5.0], crisp_metric="max"))
    report = check_fm_axioms(fm, MINIMUM, 200, GRID, seed=3)
    assert report.passed


def test_unbounded_carrier_needs_window():
    fm = induced_standard(BoxSpace([-np.inf], [np.inf]))
    with pytest.raises(UsageError):
        check_fm_axioms(fm, PRODUCT, 10, GRID, seed=0)
    report = check_fm_axioms(fm, PRODUCT, 50, GRID, seed=0, window=([-10.0], [10.0]))
    assert report.passed


def _table_metric(diag_00=1.0, asym=False):
    fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
    v = np.ones((2, 2, len(GRID)))
    v[0, 1, :] = 0.5
    v[1, 0, :] = 0.45 if asym else 0.5
    v[0, 0, :] = diag_00
    return TableFuzzyMetric(fs, GRID, v)


def test_broken_identity_table_yields_exactly_that_violation():
    fm = _table_metric(diag_00=0.9)
    report = check_fm_axioms(fm, PRODUCT, 200, GRID, seed=11)
    assert not report.passed
    assert {v.axiom for v in report.violations} == {"identity"}
    # every witness names the planted point 0
    assert all(v.witness[0] == 0 for v in report.violations)


def test_asymmetric_table_detected():
    fm = _table_metric(asym=True)
    report = check_fm_axioms(fm, PRODUCT, 200, GRID, seed=11)
    assert "symmetry" in {v.axiom for v in report.violations}


def test_triangle_violation_detected():
    fs = FiniteSpace(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    )
    v = np.full((3, 3, len(GRID)), 0.9)
    for i in range(3):
        v[i, i, :] = 1.0
    v[0, 2, :] = v[2, 0, :] = 0.2  # min(0.9, 0.9) = 0.9 > 0.2
    fm = TableFuzzyMetric(fs, GRID, v)
    report = check_fm_axioms(fm, MINIMUM, 300, GRID, seed=5)
    assert "triangle" in {v.axiom for v in report.violations}


def test_reports_are_deterministic():
    fm = induced_standard(BoxSpace([-10.0], [10.0]))
    r1 = check_fm_axioms(fm, PRODUCT, 100, GRID, seed=9)
    r2 = check_fm_axioms(fm, PRODUCT, 100, GRID, seed=9)
    assert r1.checks == r2.checks
    assert r1.violation_count == r2.violation_count


def test_finite_carrier_sampling():
    fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
    v = np.ones((2, 2, len(GRID)))
    v[0, 1, :] = v[1, 0, :] = 0.5
    fm = TableFuzzyMetric(fs, GRID, v)
    report = check_fm_axioms(fm, PRODUCT, 100, GRID, seed=1)
    assert report.passed
