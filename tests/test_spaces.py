import math
import warnings

import numpy as np
import pytest

from fuzzyfp import BoxSpace, DomainError, FiniteSpace, SplitMix64, UsageError


class TestBoxSpace:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(DomainError):
            BoxSpace([1.0], [1.0])
        with pytest.raises(DomainError):
            BoxSpace([2.0, 0.0], [1.0, 1.0])

    def test_euclidean_distance(self):
        box = BoxSpace([-10, -10], [10, 10])
        assert box.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_euclidean_distance_of_far_points_is_finite(self):
        """Squares of 1e200 overflow; only those rows are recomputed, scaled,
        and every other row keeps the unscaled value bit for bit."""
        box = BoxSpace([-np.inf] * 3, [np.inf] * 3)
        far = np.array([[3e200, -4e200, 1.2e201], [1.5, -2.0, 6.0], [1e200, 0.0, 0.0]])
        near = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1e200, 0.0, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = box.distances(far, near)
            one = box.distance(far[0], near[0])
        assert got[0] == pytest.approx(math.hypot(3e200, 4e200, 1.2e201), rel=1e-15)
        assert one == got[0] and np.isfinite(one)
        assert got[1] == np.sqrt(np.vecdot(far[1], far[1]))
        assert got[2] == np.inf  # an infinite coordinate stays inf

    def test_max_distance(self):
        box = BoxSpace([-10, -10], [10, 10], crisp_metric="max")
        assert box.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 4.0

    def test_contains_and_validate(self):
        box = BoxSpace([0.0], [1.0])
        assert box.contains(np.array([0.5]))
        assert not box.contains(np.array([1.5]))
        assert not box.contains(np.array([np.nan]))
        with pytest.raises(DomainError):
            box.validate_point([2.0])
        with pytest.raises(DomainError):
            box.validate_point([0.5, 0.5])

    def test_unbounded_box(self):
        line = BoxSpace([-np.inf], [np.inf])
        assert not line.is_bounded
        assert line.contains(np.array([1e12]))
        with pytest.raises(UsageError):
            line.sample(SplitMix64(0), 3)
        pts = line.sample(SplitMix64(0), 3, window=([-1.0], [1.0]))
        assert all(-1.0 <= p[0] <= 1.0 for p in pts)

    def test_sampling_is_deterministic_and_inside(self):
        box = BoxSpace([-2.0, 0.0], [2.0, 4.0])
        a = box.sample(SplitMix64(5), 10)
        b = box.sample(SplitMix64(5), 10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert all(box.contains(p) for p in a)

    def test_points_are_read_only(self):
        box = BoxSpace([0.0], [1.0])
        p = box.validate_point([0.5])
        with pytest.raises(ValueError):
            p[0] = 0.9


class TestFiniteSpace:
    def test_valid_table(self):
        fs = FiniteSpace([[0.0, 1.0], [1.0, 0.0]])
        assert fs.size == 2
        assert fs.distance(0, 1) == 1.0
        assert fs.contains(1) and not fs.contains(2)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            FiniteSpace([[0.5, 1.0], [1.0, 0.0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            FiniteSpace([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(DomainError):
            FiniteSpace(
                [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
            )

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(DomainError):
            FiniteSpace([[0.0, 0.0], [0.0, 0.0]])

    def test_sample(self):
        fs = FiniteSpace([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        pts = fs.sample(SplitMix64(1), 20)
        assert set(pts) <= {0, 1, 2}
