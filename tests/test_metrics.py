import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyfp import (
    BoxSpace,
    DomainError,
    FiniteSpace,
    TableFuzzyMetric,
    TGrid,
    induced_exponential,
    induced_standard,
)


class TestTGrid:
    def test_default_is_17_log_points(self):
        grid = TGrid.default()
        assert len(grid) == 17
        assert grid.t_min == pytest.approx(1e-2)
        assert grid.t_max == pytest.approx(1e2)
        assert np.all(np.diff(grid.values) > 0)

    def test_invalid_grids_rejected(self):
        with pytest.raises(DomainError):
            TGrid([])
        with pytest.raises(DomainError):
            TGrid([0.0, 1.0])
        with pytest.raises(DomainError):
            TGrid([1.0, 1.0])
        with pytest.raises(DomainError):
            TGrid([2.0, 1.0])

    @pytest.mark.parametrize(
        "t_min,t_max", [(-1.0, 100.0), (0.0, 100.0), (0.01, -5.0), (math.nan, 1.0)]
    )
    def test_logspace_names_bad_bounds(self, t_min, t_max):
        with pytest.raises(DomainError, match="t_min and t_max must be positive"):
            TGrid.logspace(t_min, t_max, 17)
        with pytest.raises(DomainError, match="t_min and t_max"):
            TGrid.logspace(t_min, t_max, 1)

    def test_with_t_max(self):
        grid = TGrid.default().with_t_max(1e4)
        assert len(grid) == 17
        assert grid.t_max == pytest.approx(1e4)
        assert grid.t_min == pytest.approx(1e-2)


class TestInducedStandard:
    def setup_method(self):
        self.box = BoxSpace([-100.0], [100.0])
        self.fm = induced_standard(self.box)

    def test_identity_is_exactly_one(self):
        x = np.array([3.7])
        for t in (0.01, 1.0, 50.0):
            assert self.fm.mu(x, x, t) == 1.0

    def test_hand_values(self):
        # d = 1, t = 1 -> 1/2;  d = 2, t = 1 -> 1/3 (direct formula)
        a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
        assert self.fm.mu(a, b, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert self.fm.mu(a, c, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetry_bit_identical(self):
        a, b = np.array([1.234]), np.array([-9.87])
        for t in TGrid.default():
            assert self.fm.mu(a, b, float(t)) == self.fm.mu(b, a, float(t))

    def test_t_must_be_positive(self):
        a, b = np.array([0.0]), np.array([1.0])
        with pytest.raises(DomainError):
            self.fm.mu(a, b, 0.0)
        with pytest.raises(DomainError):
            self.fm.mu(a, b, -1.0)

    def test_mu_grid_matches_scalar(self):
        a, b = np.array([0.3]), np.array([-4.0])
        grid = TGrid.default()
        row = self.fm.mu_grid(a, b, grid.values)
        for k, t in enumerate(grid):
            assert row[k] == self.fm.mu(a, b, float(t))

    def test_pairwise_matches_scalar(self):
        pts = [np.array([v]) for v in (-1.0, 0.0, 2.5)]
        grid = TGrid([0.5, 2.0])
        cube = self.fm.pairwise(pts, pts, grid.values)
        for i in range(3):
            for j in range(3):
                for k, t in enumerate(grid):
                    assert cube[i, j, k] == self.fm.mu(pts[i], pts[j], float(t))


class TestInducedExponential:
    def setup_method(self):
        self.fm = induced_exponential(BoxSpace([-100.0], [100.0]))

    def test_identity_is_one(self):
        x = np.array([5.0])
        assert self.fm.mu(x, x, 0.7) == 1.0

    def test_hand_value(self):
        a, b = np.array([0.0]), np.array([1.0])
        assert self.fm.mu(a, b, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monotone_in_t(self):
        a, b = np.array([0.0]), np.array([1.0])
        assert self.fm.mu(a, b, 2.0) > self.fm.mu(a, b, 1.0)

    def test_underflow_stays_positive(self):
        a, b = np.array([-100.0]), np.array([100.0])
        v = self.fm.mu(a, b, 1e-2)  # exp(-20000) underflows to 0
        assert v > 0.0


@given(
    d=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    t=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    eps=st.floats(min_value=1e-9, max_value=0.999),
)
def test_standard_equivalence_mu_vs_distance(d, t, eps):
    """mu >= 1 - eps iff d <= eps * t / (1 - eps), up to float rounding."""
    mu = t / (t + d)
    bound = eps * t / (1.0 - eps)
    if mu >= 1.0 - eps:
        assert d <= bound * (1 + 1e-9) + 1e-300
    else:
        assert d >= bound * (1 - 1e-9)


class TestTableFuzzyMetric:
    def setup_method(self):
        self.fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
        self.grid = TGrid([1.0, 10.0])

    def _values(self, pair01):
        v = np.ones((2, 2, 2))
        v[0, 1] = v[1, 0] = pair01
        return v

    def test_exact_at_grid_nodes(self):
        fm = TableFuzzyMetric(self.fs, self.grid, self._values([0.5, 0.9]))
        assert fm.mu(0, 1, 1.0) == 0.5
        assert fm.mu(0, 1, 10.0) == 0.9

    def test_log_linear_interpolation(self):
        fm = TableFuzzyMetric(self.fs, self.grid, self._values([0.5, 0.9]))
        mid = math.sqrt(10.0)  # log midpoint of [1, 10]
        assert fm.mu(0, 1, mid) == pytest.approx(0.7, abs=1e-12)

    def test_clamped_extrapolation(self):
        fm = TableFuzzyMetric(self.fs, self.grid, self._values([0.5, 0.9]))
        assert fm.mu(0, 1, 0.01) == 0.5
        assert fm.mu(0, 1, 500.0) == 0.9

    def test_structural_validation(self):
        bad = np.ones((2, 2, 2))
        bad[0, 1, 0] = 0.0
        with pytest.raises(DomainError):
            TableFuzzyMetric(self.fs, self.grid, bad)
        with pytest.raises(DomainError):
            TableFuzzyMetric(self.fs, self.grid, np.ones((2, 2, 3)))

    def test_broken_identity_is_constructible(self):
        # the axiom checker, not the constructor, must catch mu(x, x, t) < 1
        v = self._values([0.5, 0.5])
        v[0, 0] = 0.9
        fm = TableFuzzyMetric(self.fs, self.grid, v)
        assert fm.mu(0, 0, 1.0) == 0.9
