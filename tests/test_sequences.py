"""Sequence traces: the shape of a trace's nearness rows, and the iterated
triangle bound along a chain of points."""

from functools import reduce

import numpy as np
import pytest

from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    BoxSpace,
    SequenceTrace,
    SplitMix64,
    TGrid,
    UsageError,
    induced_exponential,
    induced_standard,
    solve,
)

GRID = TGrid.default()
BOX = BoxSpace([-100.0], [100.0])


class TestTraceConstruction:
    def test_shape_invariant(self, linear_pair, line_mu):
        res = solve(linear_pair, line_mu, line_mu, np.array([0.0]))
        for tr in (res.trace_x, res.trace_y):
            assert tr.nearness.shape == (len(tr.points) - 1, len(tr.grid))
            assert np.all(tr.nearness > 0.0) and np.all(tr.nearness <= 1.0)

    def test_rows_that_do_not_pair_consecutive_points_rejected(self):
        points = (np.array([0.0]), np.array([1.0]), np.array([2.0]))
        assert len(SequenceTrace(points=points, nearness=np.ones((2, len(GRID))), grid=GRID)) == 3
        for shape in ((3, len(GRID)), (2, len(GRID) - 1), (0, len(GRID))):
            with pytest.raises(UsageError, match="nearness rows must pair consecutive points"):
                SequenceTrace(points=points, nearness=np.ones(shape), grid=GRID)


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@pytest.mark.parametrize("make", [induced_standard, induced_exponential])
def test_chained_triangle_bound(make, op):
    """mu(x_0, x_p, t) >= op-fold of consecutive nearness at t/p."""
    fm = make(BOX)
    rng = SplitMix64(2024)
    for _ in range(50):
        pts = BOX.sample(rng, rng.next_u64() % 5 + 2)
        t = rng.uniform(0.01, 100.0)
        direct = fm.mu_grid(pts[0], pts[-1], t)
        t1 = t / (len(pts) - 1)
        bound = reduce(op, (fm.mu_grid(a, b, t1) for a, b in zip(pts, pts[1:])))
        assert direct >= bound - 1e-12
