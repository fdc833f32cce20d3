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

    def test_nearness_rows_pair_consecutive_points(self):
        """One constructor: the rows are mu_batch of consecutive points,
        made when first read, then kept; the trace's column is read-only,
        the caller's array keeps its flags, and a tuple of points is taken
        as well."""
        fm = induced_standard(BOX)
        for n in (0, 1, 3):
            column = np.arange(n, dtype=float).reshape(n, 1)
            trace = SequenceTrace(column, fm, GRID)
            assert len(trace) == n and not trace.column.flags.writeable and column.flags.writeable
            assert SequenceTrace(tuple(column), fm, GRID).column.tobytes() == column.tobytes()
            assert trace.nearness.shape == (max(n - 1, 0), len(GRID))
            assert trace.nearness is trace.nearness
            assert trace.nearness.tobytes() == fm.mu_batch(column[:-1], column[1:], GRID).tobytes()
            assert [p.tolist() for p in trace.points] == column.tolist()


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
