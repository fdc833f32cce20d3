import math

import numpy as np
import pytest
from hypothesis import given, settings
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

    @pytest.mark.parametrize("grid", [TGrid([2.0]), TGrid.logspace(0.5, 2.0, 1)])
    def test_with_t_max_rejects_a_one_point_grid(self, grid):
        with pytest.raises(DomainError, match="one point has no t_max"):
            grid.with_t_max(1e3)


class TestInducedStandard:
    def setup_method(self):
        self.box = BoxSpace([-100.0], [100.0])
        self.fm = induced_standard(self.box)

    def test_identity_is_exactly_one(self):
        x = np.array([3.7])
        for t in (0.01, 1.0, 50.0):
            assert self.fm.mu_grid(x, x, t) == 1.0

    def test_hand_values(self):
        # d = 1, t = 1 -> 1/2;  d = 2, t = 1 -> 1/3 (direct formula)
        a, b, c = np.array([0.0]), np.array([1.0]), np.array([2.0])
        assert self.fm.mu_grid(a, b, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert self.fm.mu_grid(a, c, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetry_bit_identical(self):
        a, b = np.array([1.234]), np.array([-9.87])
        for t in TGrid.default():
            assert self.fm.mu_grid(a, b, float(t)) == self.fm.mu_grid(b, a, float(t))

    def test_t_must_be_positive(self):
        a, b = np.array([0.0]), np.array([1.0])
        with pytest.raises(DomainError):
            self.fm.mu_grid(a, b, 0.0)
        with pytest.raises(DomainError):
            self.fm.mu_grid(a, b, -1.0)

    def test_mu_grid_matches_scalar(self):
        a, b = np.array([0.3]), np.array([-4.0])
        grid = TGrid.default()
        row = self.fm.mu_grid(a, b, grid.values)
        for k, t in enumerate(grid):
            assert row[k] == self.fm.mu_grid(a, b, float(t))

    def test_pairwise_matches_scalar(self):
        pts = [np.array([v]) for v in (-1.0, 0.0, 2.5)]
        grid = TGrid([0.5, 2.0])
        a = np.array(pts)
        cube = self.fm.mu_batch(a[:, None], a[None], grid.values)
        for i in range(3):
            for j in range(3):
                for k, t in enumerate(grid):
                    assert cube[i, j, k] == self.fm.mu_grid(pts[i], pts[j], float(t))


class TestInducedExponential:
    def setup_method(self):
        self.fm = induced_exponential(BoxSpace([-100.0], [100.0]))

    def test_identity_is_one(self):
        x = np.array([5.0])
        assert self.fm.mu_grid(x, x, 0.7) == 1.0

    def test_hand_value(self):
        a, b = np.array([0.0]), np.array([1.0])
        assert self.fm.mu_grid(a, b, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monotone_in_t(self):
        a, b = np.array([0.0]), np.array([1.0])
        assert self.fm.mu_grid(a, b, 2.0) > self.fm.mu_grid(a, b, 1.0)

    def test_underflow_stays_positive(self):
        a, b = np.array([-100.0]), np.array([100.0])
        v = self.fm.mu_grid(a, b, 1e-2)  # exp(-20000) underflows to 0
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
        assert fm.mu_grid(0, 1, 1.0) == 0.5
        assert fm.mu_grid(0, 1, 10.0) == 0.9

    def test_log_linear_interpolation(self):
        fm = TableFuzzyMetric(self.fs, self.grid, self._values([0.5, 0.9]))
        mid = math.sqrt(10.0)  # log midpoint of [1, 10]
        assert fm.mu_grid(0, 1, mid) == pytest.approx(0.7, abs=1e-12)

    def test_clamped_extrapolation(self):
        fm = TableFuzzyMetric(self.fs, self.grid, self._values([0.5, 0.9]))
        assert fm.mu_grid(0, 1, 0.01) == 0.5
        assert fm.mu_grid(0, 1, 500.0) == 0.9

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
        assert fm.mu_grid(0, 0, 1.0) == 0.9


@st.composite
def tables_and_scales(draw):
    """A table nearness on up to 4 points and up to 6 grid scales, and
    scales on the grid points, between them and outside the grid."""
    n = draw(st.integers(1, 4))
    logs = sorted(draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True)))
    grid = TGrid(np.exp(np.array(logs) / 4.0))
    values = draw(st.lists(st.floats(1e-3, 1.0), min_size=n * n * len(grid), max_size=n * n * len(grid)))
    fm = TableFuzzyMetric(FiniteSpace(1.0 - np.eye(n)), grid, np.reshape(values, (n, n, len(grid))))
    g = grid.values
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=len(g) - 1, max_size=len(g) - 1))
    between = g[:-1] + np.array(fractions) * (g[1:] - g[:-1])
    outside = [g[0] / 3.0, g[-1] * 3.0, *draw(st.lists(st.floats(1e-4, 1e4), max_size=4))]
    return fm, np.concatenate([g, between, outside])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=tables_and_scales())
def test_table_rows_interpolate_like_np_interp(case):
    """All rows in one interpolation give np.interp's value on each row, bit for bit."""
    fm, ts = case
    n = fm.carrier.size
    a, b = np.divmod(np.arange(n * n), n)
    ref = np.array([np.interp(np.log(ts), fm._log_grid, fm.values[i, j]) for i, j in zip(a, b)])
    assert fm.mu_batch(a, b, ts).tobytes() == ref.tobytes()
    out = np.empty((n, n, len(ts)))
    assert fm.mu_batch(a.reshape(n, n), b.reshape(n, n), ts, out) is out
    assert out.tobytes() == ref.tobytes()
    square = np.add.outer(ts[:5], ts[:5])  # the shape of scales the triangle check uses
    ref = np.array([np.interp(np.log(square), fm._log_grid, fm.values[i, j]) for i, j in zip(a, b)])
    assert fm.mu_batch(a, b, square).tobytes() == ref.tobytes()
