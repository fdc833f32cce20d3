"""Oracle-checked tests for the contraction-hypothesis evaluators.

The oracles run in exact rational arithmetic (fractions.Fraction) over the
same tuple sets, independently of the float/numpy implementation path.
"""

import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    ComposedMap,
    ConstantMap,
    EmptySampleError,
    MapPair,
    MapQuadruple,
    SampleSet,
    SplitMix64,
    TGrid,
    UsageError,
    estimate_k,
    estimate_k_pair,
    estimate_k_pair_dual,
    estimate_k_quad,
    estimate_k_self_quad,
    induced_standard,
    solve,
)
from fuzzyfp import config
from fuzzyfp.cli import _ratio_rows
from fuzzyfp.solver import SolveConfig
from fuzzyfp.spaces import validate_points
from oracles import (
    check_recurrence_pair,
    check_recurrence_quad,
    pair_inequality_terms,
    pair_inequality_terms_dual,
    quad_denominator,
    quad_numerator_dual,
    quad_numerator_primal,
    self_quad_denominator,
    self_quad_numerator_dual,
    self_quad_numerator_primal,
)

ROOT = Path(__file__).resolve().parent.parent
LINE = BoxSpace([-np.inf], [np.inf])
MU = induced_standard(LINE)
NU = induced_standard(LINE)


class Dumped(list):
    """A dump for the estimators that keeps (label, cell, ratio) per admitted
    cell, in the order given; cell holds the sample indices and the grid
    index."""

    def __call__(self, label, cells, ratios):
        self.extend((label, tuple(c), r) for c, r in zip(cells.tolist(), ratios.tolist()))


def pts(*vals):
    return tuple(np.array([v], dtype=float) for v in vals)


def mu_exact(a, b, t):
    """Exact standard nearness on the line for rational inputs."""
    d = abs(Fr(a) - Fr(b))
    t = Fr(t)
    return t / (t + d)


# ---------------------------------------------------------------------------
# pair inequality terms
# ---------------------------------------------------------------------------


class TestPairTerms:
    def test_constant_maps_hand_value(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        lhs, rhs = pair_inequality_terms(pair, MU, NU, np.array([0.0]), np.array([1.0]), 1.0)
        assert lhs == 1.0
        # min{1/2, 1/3, 1/2, 1} = 1/3, term by term
        assert rhs == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_diagonal_collapse(self, linear_pair):
        x = np.array([0.7])
        lhs, rhs = pair_inequality_terms(linear_pair, MU, NU, x, x, 1.0)
        assert lhs == 1.0
        assert rhs == MU.mu_grid(x, ComposedMap(linear_pair.S, linear_pair.T)(x), 1.0)

    def test_at_fixed_point_all_terms_one(self, linear_pair):
        z = np.array([1.6])
        lhs, rhs = pair_inequality_terms(linear_pair, MU, NU, z, z, 1.0)
        assert lhs == 1.0
        assert rhs >= 1.0 - 1e-12

    def test_symmetry_under_swap(self, linear_pair):
        rng = SplitMix64(31)
        for _ in range(25):
            x = np.array([rng.uniform(-5, 5)])
            x2 = np.array([rng.uniform(-5, 5)])
            t = rng.uniform(0.01, 100.0)
            a = pair_inequality_terms(linear_pair, MU, NU, x, x2, t)
            b = pair_inequality_terms(linear_pair, MU, NU, x2, x, t)
            assert a == b

    def test_dual_equals_primal_of_swapped_pair(self, linear_pair):
        swapped = MapPair(T=linear_pair.S, S=linear_pair.T)
        rng = SplitMix64(13)
        for _ in range(25):
            y = np.array([rng.uniform(-5, 5)])
            y2 = np.array([rng.uniform(-5, 5)])
            t = rng.uniform(0.01, 100.0)
            assert pair_inequality_terms_dual(
                linear_pair, MU, NU, y, y2, t
            ) == pair_inequality_terms(swapped, NU, MU, y, y2, t)


# ---------------------------------------------------------------------------
# k-hat estimation, pair
# ---------------------------------------------------------------------------


def _oracle_k_pair(points, grid, st, tmap):
    """Exhaustive exact-rational enumeration over ordered distinct pairs."""
    best = None
    witness = None
    for x in points:
        for x2 in points:
            if x == x2:
                continue
            for t in grid:
                lhs = mu_exact(st(x), st(x2), t)
                rhs = min(
                    mu_exact(x, x2, t),
                    mu_exact(x, st(x), t),
                    mu_exact(x2, st(x2), t),
                    mu_exact(tmap(x), tmap(x2), t),
                )
                ratio = rhs / lhs
                if best is None or ratio > best:
                    best, witness = ratio, (x, x2, t)
    return best, witness


class TestEstimateKPair:
    GRID = TGrid([0.5, 1.0, 2.0])
    POINTS = pts(0.0, 0.5, 1.0, 1.5, 2.0)

    def test_linear_pair_against_exact_oracle(self, linear_pair):
        samples = SampleSet(points_x=self.POINTS, grid=self.GRID)
        report = estimate_k_pair(linear_pair, MU, NU, samples)

        oracle_pts = [Fr(0), Fr(1, 2), Fr(1), Fr(3, 2), Fr(2)]
        oracle_grid = [Fr(1, 2), Fr(1), Fr(2)]
        best, witness = _oracle_k_pair(
            oracle_pts,
            oracle_grid,
            st=lambda x: x / 6 + Fr(4, 3),
            tmap=lambda x: x / 2 + 1,
        )
        assert best == Fr(5, 6)  # oracle sanity: exact closed form
        assert report.k_hat == pytest.approx(float(best), abs=1e-12)
        # frozen regression baseline from the exhaustive 20 x 3 enumeration
        assert report.k_hat == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert report.holds
        wx, wx2, wt = report.witness
        assert (float(wx[0]), float(wx2[0]), wt) == (1.0, 1.5, 2.0)
        assert (float(witness[0]), float(witness[1]), float(witness[2])) == (1.0, 1.5, 2.0)
        assert report.evaluated_count == 60  # 20 ordered pairs x 3 scales
        assert report.skipped_count == 15  # 5 diagonal pairs x 3 scales

    def test_expansive_pair_witness_ratio(self, expansive_pair):
        samples = SampleSet(points_x=pts(0.0, 0.5), grid=TGrid([2.0]))
        report = estimate_k_pair(expansive_pair, MU, NU, samples)
        # min{0.8, 1, 4/7, 2/3} / 0.5 = (4/7)/0.5 = 8/7, term by term
        assert report.k_hat == pytest.approx(8.0 / 7.0, abs=1e-12)
        assert not report.holds
        wx, wx2, wt = report.witness
        assert (float(wx[0]), float(wx2[0]), wt) == (0.0, 0.5, 2.0)

    def test_constant_maps_lhs_is_one(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        samples = SampleSet(points_x=pts(0.0, 1.0), grid=TGrid([1.0]))
        report = estimate_k_pair(pair, MU, NU, samples)
        # lhs = 1 for constant ST, so k_hat = max rhs = mu(0, 2, 1) = 1/3
        assert report.k_hat == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_witness_reproduces_k_hat(self, linear_pair):
        samples = SampleSet(points_x=self.POINTS, grid=self.GRID)
        report = estimate_k_pair(linear_pair, MU, NU, samples)
        wx, wx2, wt = report.witness
        lhs, rhs = pair_inequality_terms(linear_pair, MU, NU, wx, wx2, wt)
        assert abs(rhs / lhs - report.k_hat) <= 1e-12

    def test_monotone_in_sample(self, linear_pair):
        small = SampleSet(points_x=pts(0.0, 2.0), grid=self.GRID)
        big = SampleSet(points_x=self.POINTS, grid=self.GRID)
        k_small = estimate_k_pair(linear_pair, MU, NU, small).k_hat
        k_big = estimate_k_pair(linear_pair, MU, NU, big).k_hat
        assert k_big >= k_small

    def test_include_diagonal_changes_skip_counts(self, linear_pair):
        excl = SampleSet(points_x=self.POINTS, grid=self.GRID)
        incl = SampleSet(points_x=self.POINTS, grid=self.GRID, exclude_diagonal=False)
        r_excl = estimate_k_pair(linear_pair, MU, NU, excl)
        r_incl = estimate_k_pair(linear_pair, MU, NU, incl)
        assert r_incl.skipped_count == 0
        assert r_incl.evaluated_count == r_excl.evaluated_count + r_excl.skipped_count

    def test_all_skipped_raises(self, linear_pair):
        samples = SampleSet(points_x=pts(1.0, 1.0), grid=self.GRID)
        with pytest.raises(EmptySampleError):
            estimate_k_pair(linear_pair, MU, NU, samples)
        with pytest.raises(EmptySampleError):
            estimate_k_pair(linear_pair, MU, NU, SampleSet(points_x=(), grid=self.GRID))

    def test_stacked_samples_must_share_size_grid_and_diagonal_rule(self, linear_pair):
        """A stacked call evaluates every pair on one grid with one diagonal
        rule, so samples that differ in either are refused, as samples of
        two sizes are; samples alike in all three give each pair's report
        alone, also on equal grids built apart."""
        points = self.POINTS + pts(3.0)
        first = SampleSet(points_x=points, grid=TGrid.default())
        other = SampleSet(points_x=points[::-1], grid=TGrid.logspace(1.0, 2.0, 3), exclude_diagonal=False)
        refused = [
            other,
            SampleSet(points_x=points, grid=TGrid.logspace(1.0, 2.0, 3)),
            SampleSet(points_x=points, grid=TGrid.default(), exclude_diagonal=False),
            SampleSet(points_x=self.POINTS, grid=TGrid.default()),
        ]
        for second in refused:
            with pytest.raises(UsageError):
                estimate_k_pair([linear_pair, linear_pair], MU, NU, [first, second])
        alone = estimate_k_pair(linear_pair, MU, NU, other)
        assert (alone.evaluated_count, len(alone.grid)) == (108, 3)  # 6 x 6 cells on 3 scales
        second = SampleSet(points_x=points[::-1], grid=TGrid.default())
        stacked = estimate_k_pair([linear_pair, linear_pair], MU, NU, [first, second])
        for report, sample in zip(stacked, (first, second)):
            one = estimate_k_pair(linear_pair, MU, NU, sample)
            assert (report.k_hat, report.evaluated_count, report.witness[2]) == (one.k_hat, one.evaluated_count, one.witness[2])

    def test_dual_estimate(self, linear_pair):
        samples = SampleSet(points_x=pts(0.0), grid=self.GRID, points_y=pts(0.0, 1.0, 2.0))
        report = estimate_k_pair_dual(linear_pair, MU, NU, samples)
        assert report.label == "pair-dual"
        assert report.k_hat is not None and report.k_hat < 1.0
        wy, wy2, wt = report.witness
        lhs, rhs = pair_inequality_terms_dual(linear_pair, MU, NU, wy, wy2, wt)
        assert abs(rhs / lhs - report.k_hat) <= 1e-12

    def test_pair_linear_k_hat_is_the_ratio_at_t_max_and_climbs_toward_1(self):
        """configs/pair_linear.json's maps, ST x = x/6 + 4/3 with fixed
        point z = 1.6, on the sample {z - e, z + e}: the largest of the four
        distances is F = d(x, x') = 2e and D = d(STx, STx') = e/3, so the
        ratio (t + D) / (t + F) grows with t.  k_hat is the ratio at t_max,
        from the points' own distances, at the first cell in C order; it
        climbs toward 1 as the sample closes in on z, whether or not the
        maps contract (ROADMAP direction P)."""
        doc = config.load_config(ROOT / "configs" / "pair_linear.json")
        grid = config.build_grid(doc)
        carrier, _, mu, nu = config.build_spaces(doc, grid)
        _, pair = config.build_problem(doc, carrier, carrier)
        z, t = 1.6, grid.t_max
        k_hats = []
        for e in (0.5, 1e-4):
            x, x2 = np.array([z - e]), np.array([z + e])
            report = estimate_k_pair(pair, mu, nu, SampleSet(points_x=(x, x2), grid=grid))
            far, near = float(carrier.distances(x, x2)), float(carrier.distances(pair.S(pair.T(x)), pair.S(pair.T(x2))))
            assert (far, near) == (pytest.approx(2 * e), pytest.approx(e / 3))
            assert report.k_hat == (t / (t + far)) / (t / (t + near))
            assert [float(p[0]) for p in report.witness[:2]] + [report.witness[2]] == [z - e, z + e, t]
            k_hats.append(report.k_hat)
        assert k_hats[0] == 0.9917491749174917
        assert k_hats[0] < k_hats[1] < 1.0 and 1.0 - k_hats[1] < 1e-5


# ---------------------------------------------------------------------------
# quadruple numerators / denominator
# ---------------------------------------------------------------------------


def _quad_exact_fgh(amap, bmap, smap, tmap, x, x2, y, y2, t):
    ax, bx2 = amap(x), bmap(x2)
    sy, ty2 = smap(y), tmap(y2)
    f = min(
        mu_exact(x, x2, t) * mu_exact(ax, bx2, t),
        mu_exact(x, x2, t) * mu_exact(sy, ty2, t),
        mu_exact(x, ty2, t) * mu_exact(ax, amap(tmap(y2)), t),
        mu_exact(x2, sy, t) * mu_exact(bx2, bmap(smap(y)), t),
    )
    g = min(
        mu_exact(y, y2, t) * mu_exact(sy, ty2, t),
        mu_exact(y, y2, t) * mu_exact(ax, bx2, t),
        mu_exact(y, bx2, t) * mu_exact(sy, tmap(bmap(x2)), t),
        mu_exact(y2, ax, t) * mu_exact(ty2, smap(amap(x)), t),
    )
    h = min(
        mu_exact(ax, bx2, t),
        mu_exact(smap(amap(x)), tmap(bmap(x2)), t),
        mu_exact(sy, ty2, t),
        mu_exact(bmap(smap(y)), amap(tmap(y2)), t),
    )
    return f, g, h


class TestQuadTerms:
    def _linear_quad(self):
        return MapQuadruple(
            A=AffineMap([[0.5]], [0.0], LINE),
            B=AffineMap([[1.0 / 3.0]], [0.0], LINE),
            S=AffineMap([[0.25]], [0.0], LINE),
            T=AffineMap([[0.2]], [0.0], LINE),
        )

    def test_fgh_against_exact_oracle(self):
        quad = self._linear_quad()
        x, x2, y, y2 = np.array([1.0]), np.array([2.0]), np.array([1.0]), np.array([2.0])
        f = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, 1.0)
        g = quad_numerator_dual(quad, MU, NU, x, x2, y, y2, 1.0)
        h = quad_denominator(quad, MU, NU, x, x2, y, y2, 1.0)
        ef, eg, eh = _quad_exact_fgh(
            lambda v: v / 2,
            lambda v: v / 3,
            lambda v: v / 4,
            lambda v: v / 5,
            Fr(1),
            Fr(2),
            Fr(1),
            Fr(2),
            Fr(1),
        )
        # frozen hand values: f = 48/209, g = 16/51, h = 6/7
        assert ef == Fr(48, 209) and eg == Fr(16, 51) and eh == Fr(6, 7)
        assert f == pytest.approx(float(ef), abs=1e-12)
        assert g == pytest.approx(float(eg), abs=1e-12)
        assert h == pytest.approx(float(eh), abs=1e-12)

    def test_denominator_is_one_at_common_fixed_tuple(self, line):
        # A = B constant at w0, S = T constant at z0: the all-coincident
        # tuple has every h term equal to 1
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        assert quad_denominator(quad, MU, NU, z0, z0, w0, w0, 1.0) == 1.0

    def test_coincident_image_makes_unit_factor(self):
        quad = self._linear_quad()
        # A x = B x' when x/2 = x'/3, e.g. x = 2, x' = 3
        x, x2 = np.array([2.0]), np.array([3.0])
        y, y2 = np.array([1.0]), np.array([4.0])
        f = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, 1.0)
        assert f <= MU.mu_grid(x, x2, 1.0) + 1e-15


class TestEstimateKQuad:
    def _quad(self):
        return MapQuadruple(
            A=AffineMap([[0.5]], [0.0], LINE),
            B=AffineMap([[1.0 / 3.0]], [0.0], LINE),
            S=AffineMap([[0.25]], [0.0], LINE),
            T=AffineMap([[0.2]], [0.0], LINE),
        )

    def test_against_exact_exhaustive_oracle(self):
        quad = self._quad()
        xs = pts(1.0, 2.0)
        ys = pts(1.0, 3.0)
        grid = TGrid([1.0, 2.0])
        samples = SampleSet(points_x=xs, grid=grid, points_y=ys)
        primal, dual = estimate_k_quad(quad, MU, NU, samples)

        fr_maps = (lambda v: v / 2, lambda v: v / 3, lambda v: v / 4, lambda v: v / 5)
        fr_x = [Fr(1), Fr(2)]
        fr_y = [Fr(1), Fr(3)]
        fr_t = [Fr(1), Fr(2)]
        best5 = best6 = None
        n5 = n6 = 0
        amap, bmap, smap, tmap = fr_maps
        for x in fr_x:
            for x2 in fr_x:
                for y in fr_y:
                    for y2 in fr_y:
                        for t in fr_t:
                            f, g, h = _quad_exact_fgh(amap, bmap, smap, tmap, x, x2, y, y2, t)
                            if f < h < 1:
                                lhs = mu_exact(smap(amap(x)), tmap(bmap(x2)), t)
                                r = (f / h) / lhs
                                n5 += 1
                                best5 = r if best5 is None or r > best5 else best5
                            if g < h < 1:
                                lhs = mu_exact(bmap(smap(y)), amap(tmap(y2)), t)
                                r = (g / h) / lhs
                                n6 += 1
                                best6 = r if best6 is None or r > best6 else best6
        assert primal.evaluated_count == n5
        assert dual.evaluated_count == n6
        assert primal.k_hat == pytest.approx(float(best5), abs=1e-12)
        assert dual.k_hat == pytest.approx(float(best6), abs=1e-12)

    def test_all_coincident_sample_raises(self, line):
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        samples = SampleSet(points_x=(z0,), grid=TGrid([1.0]), points_y=(w0,))
        with pytest.raises(EmptySampleError):
            estimate_k_quad(quad, MU, NU, samples)

    def test_constant_maps_admit_no_tuple_at_h_one(self, line):
        """Constant maps give h = 1 at every tuple, so nothing is admitted,
        although f < h wherever x and x' differ."""
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        samples = SampleSet(points_x=pts(2.0, 3.0), grid=TGrid([0.5, 1.0]), points_y=pts(5.0, 6.0))
        with pytest.raises(EmptySampleError):
            estimate_k_quad(quad, MU, NU, samples)

    def test_witness_reproduces_k_hat(self):
        quad = self._quad()
        samples = SampleSet(
            points_x=pts(0.5, 1.0, 2.0), grid=TGrid([0.5, 1.0]), points_y=pts(1.0, 2.0)
        )
        primal, dual = estimate_k_quad(quad, MU, NU, samples)
        x, x2, y, y2, t = primal.witness
        f = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, t)
        h = quad_denominator(quad, MU, NU, x, x2, y, y2, t)
        lhs = MU.mu_grid(ComposedMap(quad.S, quad.A)(x), ComposedMap(quad.T, quad.B)(x2), t)
        assert abs((f / h) / lhs - primal.k_hat) <= 1e-12


# ---------------------------------------------------------------------------
# self-map quadruple
# ---------------------------------------------------------------------------


def _self_quad_exact_fgh(amap, bmap, smap, tmap, x, y, t):
    ax, by = amap(x), bmap(y)
    sx, ty = smap(x), tmap(y)
    f = min(
        mu_exact(sx, ty, t) * mu_exact(ax, bmap(smap(x)), t),
        mu_exact(sx, tmap(bmap(y)), t) * mu_exact(x, sx, t),
        mu_exact(x, y, t) * mu_exact(smap(amap(x)), ty, t),
        mu_exact(x, ty, t) * mu_exact(x, amap(tmap(y)), t),
    )
    g = min(
        mu_exact(x, sx, t) * mu_exact(x, y, t),
        mu_exact(y, tmap(bmap(y)), t) * mu_exact(y, ax, t),
        mu_exact(smap(amap(x)), ty, t) * mu_exact(ax, by, t),
        mu_exact(ax, amap(tmap(y)), t) * mu_exact(smap(amap(x)), sx, t),
    )
    h = min(
        mu_exact(ax, bmap(smap(x)), t),
        mu_exact(x, smap(amap(x)), t),
        mu_exact(sx, tmap(bmap(y)), t),
        mu_exact(by, amap(tmap(y)), t),
    )
    return f, g, h


class TestSelfQuad:
    def _quad(self):
        return MapQuadruple(
            A=AffineMap([[0.5]], [1.0], LINE),
            B=AffineMap([[0.25]], [1.0], LINE),
            S=AffineMap([[1.0 / 3.0]], [0.5], LINE),
            T=AffineMap([[0.2]], [0.5], LINE),
        )

    def test_terms_against_exact_oracle(self):
        quad = self._quad()
        x, y = np.array([1.0]), np.array([2.0])
        f = self_quad_numerator_primal(quad, MU, x, y, 1.0)
        g = self_quad_numerator_dual(quad, MU, x, y, 1.0)
        h = self_quad_denominator(quad, MU, x, y, 1.0)
        ef, eg, eh = _self_quad_exact_fgh(
            lambda v: v / 2 + 1,
            lambda v: v / 4 + 1,
            lambda v: v / 3 + Fr(1, 2),
            lambda v: v / 5 + Fr(1, 2),
            Fr(1),
            Fr(2),
            Fr(1),
        )
        assert f == pytest.approx(float(ef), abs=1e-12)
        assert g == pytest.approx(float(eg), abs=1e-12)
        assert h == pytest.approx(float(eh), abs=1e-12)

    def test_estimate_against_exhaustive_oracle(self):
        quad = self._quad()
        xs = pts(0.0, 1.0, 2.0)
        grid = TGrid([1.0, 2.0])
        samples = SampleSet(points_x=xs, grid=grid)
        primal, dual = estimate_k_self_quad(quad, MU, samples)

        fr_pts = [Fr(0), Fr(1), Fr(2)]
        fr_t = [Fr(1), Fr(2)]
        maps = (
            lambda v: v / 2 + 1,
            lambda v: v / 4 + 1,
            lambda v: v / 3 + Fr(1, 2),
            lambda v: v / 5 + Fr(1, 2),
        )
        best21 = best22 = None
        n21 = n22 = 0
        amap, bmap, smap, tmap = maps
        for x in fr_pts:
            for y in fr_pts:
                for t in fr_t:
                    f, g, h = _self_quad_exact_fgh(amap, bmap, smap, tmap, x, y, t)
                    if f < h < 1:
                        lhs = mu_exact(smap(amap(x)), tmap(bmap(y)), t)
                        r = (f / h) / lhs
                        n21 += 1
                        best21 = r if best21 is None or r > best21 else best21
                    if g < h < 1:
                        lhs = mu_exact(bmap(smap(x)), amap(tmap(y)), t)
                        r = (g / h) / lhs
                        n22 += 1
                        best22 = r if best22 is None or r > best22 else best22
        assert primal.evaluated_count == n21
        assert dual.evaluated_count == n22
        if best21 is not None:
            assert primal.k_hat == pytest.approx(float(best21), abs=1e-12)
        if best22 is not None:
            assert dual.k_hat == pytest.approx(float(best22), abs=1e-12)

    def test_identity_maps_reach_ratio_one(self, line):
        ident = AffineMap([[1.0]], [0.0], line)
        quad = MapQuadruple(A=ident, B=ident, S=ident, T=ident)
        samples = SampleSet(points_x=pts(0.0, 1.0, 3.0), grid=TGrid([1.0]))
        primal, dual = estimate_k_self_quad(quad, MU, samples)
        # for identity maps f = mu^2, h = mu, so every admissible ratio is 1
        assert primal.k_hat == pytest.approx(1.0, abs=1e-12)
        assert not primal.holds


# ---------------------------------------------------------------------------
# one entry point for all three schemes
# ---------------------------------------------------------------------------


def test_estimate_k_gives_each_scheme_the_reports_of_its_estimators(linear_pair):
    """A pair's dual only with points_y; a self-quadruple on mu alone."""
    grid = TGrid([0.5, 1.0, 2.0])
    xs, ys = pts(0.0, 1.0, 2.0), pts(0.5, 1.5, 3.0)
    with_y, without_y = SampleSet(points_x=xs, grid=grid, points_y=ys), SampleSet(points_x=xs, grid=grid)
    quad, self_quad = TestEstimateKQuad()._quad(), TestSelfQuad()._quad()
    cases = [
        ("pair", linear_pair, NU, without_y, [estimate_k_pair(linear_pair, MU, NU, without_y)]),
        (
            "pair",
            linear_pair,
            NU,
            with_y,
            [estimate_k_pair(linear_pair, MU, NU, with_y), estimate_k_pair_dual(linear_pair, MU, NU, with_y)],
        ),
        ("quadruple", quad, NU, with_y, estimate_k_quad(quad, MU, NU, with_y)),
        ("self-quadruple", self_quad, None, without_y, estimate_k_self_quad(self_quad, MU, without_y)),
    ]
    for scheme, problem, nu, samples, refs in cases:
        got = list(estimate_k(scheme, problem, MU, nu, samples))
        assert [(r.label, r.k_hat, r.evaluated_count, r.skipped_count) for r in got] == [
            (r.label, r.k_hat, r.evaluated_count, r.skipped_count) for r in refs
        ]


# ---------------------------------------------------------------------------
# dumped ratios of all three schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_ratio_dump_matches_scalar_oracle(scheme):
    """Every evaluated tuple is dumped, one label after the other and each in
    C order; k_hat is the largest dumped ratio of its label, and the scalar
    terms admit each dumped row and reproduce its ratio."""
    xs, ys = pts(0.5, 1.0, 2.0), pts(1.0, 2.0)
    grid = TGrid([0.5, 1.0])
    samples = SampleSet(points_x=xs, grid=grid, points_y=ys)
    rows = Dumped()
    if scheme == "pair":
        pair = MapPair(T=AffineMap([[0.5]], [1.0], LINE), S=AffineMap([[1.0 / 3.0]], [1.0], LINE))
        reports = [
            estimate_k_pair(pair, MU, NU, samples, dump=rows),
            estimate_k_pair_dual(pair, MU, NU, samples, dump=rows),
        ]

        def oracle(label, i, j, t):
            if label == "pair":
                lhs, rhs = pair_inequality_terms(pair, MU, NU, xs[i], xs[j], t)
            else:
                lhs, rhs = pair_inequality_terms_dual(pair, MU, NU, ys[i], ys[j], t)
            return i != j, rhs / lhs

    elif scheme == "quadruple":
        quad = TestEstimateKQuad()._quad()
        reports = estimate_k_quad(quad, MU, NU, samples, dump=rows)

        def oracle(label, i, j, k, l, t):
            x, x2, y, y2 = xs[i], xs[j], ys[k], ys[l]
            h = quad_denominator(quad, MU, NU, x, x2, y, y2, t)
            if label == "quad-primal":
                num = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, t)
                lhs = MU.mu_grid(ComposedMap(quad.S, quad.A)(x), ComposedMap(quad.T, quad.B)(x2), t)
            else:
                num = quad_numerator_dual(quad, MU, NU, x, x2, y, y2, t)
                lhs = NU.mu_grid(ComposedMap(quad.B, quad.S)(y), ComposedMap(quad.A, quad.T)(y2), t)
            return num < h < 1.0, (num / h) / lhs

    else:
        quad = TestSelfQuad()._quad()
        reports = estimate_k_self_quad(quad, MU, samples, dump=rows)

        def oracle(label, i, j, t):
            x, y = xs[i], ys[j]
            h = self_quad_denominator(quad, MU, x, y, t)
            if label == "self-quad-primal":
                num = self_quad_numerator_primal(quad, MU, x, y, t)
                lhs = MU.mu_grid(ComposedMap(quad.S, quad.A)(x), ComposedMap(quad.T, quad.B)(y), t)
            else:
                num = self_quad_numerator_dual(quad, MU, x, y, t)
                lhs = MU.mu_grid(ComposedMap(quad.B, quad.S)(x), ComposedMap(quad.A, quad.T)(y), t)
            return num < h < 1.0, (num / h) / lhs

    assert [label for label, _, _ in rows] == [r.label for r in reports for _ in range(r.evaluated_count)]
    for report in reports:
        kept = [(cell, r) for label, cell, r in rows if label == report.label]
        assert report.evaluated_count > 0
        assert [cell for cell, _ in kept] == sorted(cell for cell, _ in kept)
        assert report.k_hat == max(r for _, r in kept)
        for (*cell, t), r in kept:
            admitted, ratio = oracle(report.label, *cell, grid.values[t])
            assert admitted
            assert r == pytest.approx(ratio, rel=1e-12)


def _quotient_cells(scheme):
    """A hand-built quotient problem and sample that mix admitted cells
    (num < h < 1), ties num = h < 1 and cells with h = 1, with the sides'
    labels and, per side, the oracle's (num, h, lhs) at every cell in C
    order over the sample indices and the grid.

    Quadruple: A = B = x/2 + 1, S = 1 and T = y/2 + 1/2 share z = 1 and
    w = 3/2, so h = 1 where x = x' and y = y'.  Self-quadruple:
    A = x/2 + 1, B = 1 and S = T = 0; h = 1 where x = 0 and y = 2."""
    grid = TGrid([0.5, 2.0])
    if scheme == "quadruple":
        quad = MapQuadruple(
            A=AffineMap([[0.5]], [1.0], LINE),
            B=AffineMap([[0.5]], [1.0], LINE),
            S=ConstantMap([1.0], LINE),
            T=AffineMap([[0.5]], [0.5], LINE),
        )
        xs, ys = pts(0.0, 1.25, 3.0), pts(0.0, 1.0, 2.0)
        axes = (xs, xs, ys, ys)

        def terms(side, x, x2, y, y2, t):
            num = (quad_numerator_primal if side == 0 else quad_numerator_dual)(quad, MU, NU, x, x2, y, y2, t)
            if side == 0:
                lhs = MU.mu_grid(ComposedMap(quad.S, quad.A)(x), ComposedMap(quad.T, quad.B)(x2), t)
            else:
                lhs = NU.mu_grid(ComposedMap(quad.B, quad.S)(y), ComposedMap(quad.A, quad.T)(y2), t)
            return num, quad_denominator(quad, MU, NU, x, x2, y, y2, t), float(lhs)

        labels, estimate = ("quad-primal", "quad-dual"), lambda dump: estimate_k_quad(quad, MU, NU, samples, dump)
    else:
        quad = MapQuadruple(
            A=AffineMap([[0.5]], [1.0], LINE), B=ConstantMap([1.0], LINE), S=ConstantMap([0.0], LINE), T=ConstantMap([0.0], LINE)
        )
        xs = ys = pts(0.0, 1.25, 2.0, 3.0)
        axes = (xs, ys)

        def terms(side, x, y, t):
            num = (self_quad_numerator_primal if side == 0 else self_quad_numerator_dual)(quad, MU, x, y, t)
            if side == 0:
                lhs = MU.mu_grid(ComposedMap(quad.S, quad.A)(x), ComposedMap(quad.T, quad.B)(y), t)
            else:
                lhs = MU.mu_grid(ComposedMap(quad.B, quad.S)(x), ComposedMap(quad.A, quad.T)(y), t)
            return num, self_quad_denominator(quad, MU, x, y, t), float(lhs)

        labels, estimate = ("self-quad-primal", "self-quad-dual"), lambda dump: estimate_k_self_quad(quad, MU, samples, dump)
    samples = SampleSet(points_x=axes[0], grid=grid, points_y=axes[-1])
    shape = tuple(len(a) for a in axes) + (len(grid),)
    cells = list(np.ndindex(shape))
    sides = [
        np.array([terms(side, *(a[i] for a, i in zip(axes, cell)), grid.values[cell[-1]]) for cell in cells]).reshape(shape + (3,))
        for side in (0, 1)
    ]
    return labels, estimate, axes, grid, sides


@pytest.mark.parametrize("scheme", ["quadruple", "self-quadruple"])
def test_quotient_k_hat_is_taken_over_the_admitted_cells_only(scheme):
    """Each side's count, k_hat, witness and dumped cells are those of the
    cells the oracle admits (num < h < 1), on a sample where ties num = h
    and cells with h = 1 are skipped beside them: k_hat is the largest
    admitted ratio (num / h) / lhs, and the witness its first cell in C
    order."""
    labels, estimate, axes, grid, sides = _quotient_cells(scheme)
    rows = Dumped()
    reports = estimate(rows)
    ties = sum(int(((num == h) & (h < 1.0)).sum()) for num, h, _ in (np.moveaxis(side, -1, 0) for side in sides))
    assert ties > 0
    for label, report, side in zip(labels, reports, sides):
        num, h, lhs = np.moveaxis(side, -1, 0)
        admitted = (num < h) & (h < 1.0)
        assert admitted.any() and (h == 1.0).any() and not admitted.all()
        ratios = np.where(admitted, num / h / lhs, -np.inf)
        cell = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
        assert report.label == label
        assert (report.evaluated_count, report.skipped_count) == (int(admitted.sum()), int((~admitted).sum()))
        assert report.k_hat == ratios[cell]
        witness = [float(p[0]) for p in report.witness[:-1]] + [report.witness[-1]]
        assert witness == [float(a[i][0]) for a, i in zip(axes, cell)] + [grid.values[cell[-1]]]
        dumped = [(c, r) for lab, c, r in rows if lab == label]
        assert [c for c, _ in dumped] == [tuple(c) for c in np.argwhere(admitted).tolist()]
        assert [r for _, r in dumped] == ratios[admitted].tolist()


# ---------------------------------------------------------------------------
# recurrence validation
# ---------------------------------------------------------------------------


class TestRecurrencePair:
    def test_constant_maps_zero_violations_for_large_k(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        res = solve(pair, MU, NU, np.array([17.0]))
        grid = TGrid.default()
        # the only checked step needs k >= max_t mu(17, 2, t) = 100/115
        rhs_max = float(np.max(MU.mu_grid(np.array([17.0]), np.array([2.0]), grid.values)))
        rep = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, rhs_max + 1e-6, grid)
        assert rep.violation_count == 0
        rep_low = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, rhs_max / 2, grid)
        assert rep_low.violation_count >= 1

    def test_k_near_one_sanity(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        rep = check_recurrence_pair(
            res.trace_x, res.trace_y, MU, NU, 1.0 - 1e-12, TGrid.default()
        )
        assert rep.violation_count == 0

    def test_k_hat_from_trace_sample_gives_zero_violations(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        grid = TGrid.default()
        # diagonal inclusion keeps the near-coincident tail pairs in the
        # sample; their ratios are exactly what the recurrence cells need
        samples = SampleSet(points_x=tuple(res.trace_x), grid=grid, exclude_diagonal=False)
        k_hat = estimate_k_pair(linear_pair, MU, NU, samples).k_hat
        assert k_hat < 1.0
        rep = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat, grid)
        assert rep.violation_count == 0
        rep_half = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat / 2, grid)
        assert rep_half.violation_count >= 1
        assert rep_half.worst_witness is not None
        # the witness is reproducible
        rep_again = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, k_hat / 2, grid)
        assert rep_again.worst_witness == rep_half.worst_witness
        assert rep_again.worst_margin == rep_half.worst_margin


class TestRecurrenceQuad:
    def test_constant_quadruple(self, line):
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        res = solve(quad, MU, NU, np.array([17.0]))
        grid = TGrid.default()
        # the stationary tail has cells with lhs = rhs = 1, where any k < 1
        # fails by 1 - k; only k within the violation tolerance of 1 passes
        rep = check_recurrence_quad(res.trace_x, res.trace_y, quad, MU, NU, 1.0 - 1e-13, grid)
        assert rep.total_checks > 0
        assert rep.violation_count == 0
        rep_low = check_recurrence_quad(res.trace_x, res.trace_y, quad, MU, NU, 0.9, grid)
        assert rep_low.violation_count >= 1

    def test_self_consistent_k_from_trace(self):
        # consistent quadruple (A = B, S = T): the interleaved trace
        # converges, so the recurrences admit a constant below 1
        quad = MapQuadruple(
            A=AffineMap([[0.5]], [1.0], LINE),
            B=AffineMap([[0.5]], [1.0], LINE),
            S=AffineMap([[1.0 / 3.0]], [1.0], LINE),
            T=AffineMap([[1.0 / 3.0]], [1.0], LINE),
        )
        cfg = SolveConfig(max_iter=40)
        res = solve(quad, MU, NU, np.array([0.0]), cfg)
        grid = cfg.grid

        # recurrence-specific best constant, computed independently in a loop;
        # xs[i] is x_i and ys[i] is y_{i+1}
        xs, ys = res.trace_x, res.trace_y
        ts = grid.values

        def x(n):
            return xs[n]

        def y(n):
            return ys[n - 1]

        max_x = len(xs) - 1
        max_y = len(ys)
        need = 0.0
        for n in range(1, max_x // 2 + 2):
            if 2 * n + 1 <= max_x and 2 * n + 1 <= max_y:
                lhs = MU.mu_grid(x(2 * n), x(2 * n + 1), ts)
                rhs = np.minimum(
                    MU.mu_grid(x(2 * n - 1), x(2 * n), ts),
                    NU.mu_grid(y(2 * n), y(2 * n + 1), ts),
                )
                need = max(need, float(np.max(rhs / lhs)))
                lhs = NU.mu_grid(y(2 * n), y(2 * n + 1), ts)
                rhs = np.minimum(
                    MU.mu_grid(x(2 * n + 1), x(2 * n), ts),
                    NU.mu_grid(y(2 * n - 1), y(2 * n), ts),
                )
                need = max(need, float(np.max(rhs / lhs)))
            if 2 * n <= max_x and 2 * n <= max_y:
                lhs = MU.mu_grid(x(2 * n - 1), x(2 * n), ts)
                rhs = np.minimum(
                    MU.mu_grid(x(2 * n - 2), x(2 * n - 1), ts),
                    NU.mu_grid(y(2 * n - 1), y(2 * n), ts),
                )
                need = max(need, float(np.max(rhs / lhs)))
                if n >= 2:
                    lhs = NU.mu_grid(y(2 * n), y(2 * n - 1), ts)
                    rhs = np.minimum(
                        MU.mu_grid(x(2 * n), x(2 * n - 1), ts),
                        NU.mu_grid(y(2 * n - 2), y(2 * n - 1), ts),
                    )
                    need = max(need, float(np.max(rhs / lhs)))
        assert need < 1.0
        rep = check_recurrence_quad(res.trace_x, res.trace_y, quad, MU, NU, need, grid)
        assert rep.violation_count == 0
        rep_half = check_recurrence_quad(
            res.trace_x, res.trace_y, quad, MU, NU, need / 2, grid
        )
        assert rep_half.violation_count >= 1

    def test_two_cycle_trace_violates_any_k(self, mixed_quad):
        # for the two-cycle quadruple the hypotheses fail globally and the
        # validator reports violations even at k near 1 (diagnostic role)
        cfg = SolveConfig(max_iter=40)
        res = solve(mixed_quad, MU, NU, np.array([0.0]), cfg)
        rep = check_recurrence_quad(
            res.trace_x, res.trace_y, mixed_quad, MU, NU, 1.0 - 1e-12, cfg.grid
        )
        assert rep.violation_count >= 1


# ---------------------------------------------------------------------------
# memory of the quadruple estimator
# ---------------------------------------------------------------------------


def _quad_peak_mb(n):
    """tracemalloc peak of estimate_k_quad on n + n points of a 2-D box and
    the default 17-point grid, as in the hypotheses-wide benchmark."""
    box = BoxSpace([-10.0, -10.0], [10.0, 10.0])
    fm = induced_standard(box)
    rng = SplitMix64(n)
    maps = [
        AffineMap(box.sample(rng, 2, ([-0.25] * 2, [0.25] * 2)), box.sample(rng, 1, ([-2.0] * 2, [2.0] * 2))[0], box)
        for _ in "ABST"
    ]
    xs, ys = box.sample(rng, n), box.sample(rng, n)
    samples = SampleSet(points_x=tuple(xs), grid=TGrid.default(), points_y=tuple(ys))
    tracemalloc.start()
    try:
        primal, dual = estimate_k_quad(MapQuadruple(*maps), fm, fm, samples)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_quadruple_memory_is_bounded_by_the_block_budget():
    """Each (x, x', y, y', t) array is evaluated a block of (x, x') indices
    at a time, so 18 + 18 points (1.8 M cells a side) peak at 1.75 MB; the
    whole arrays took 70 MB, and blocks of whole x indices 6.84 MB."""
    assert _quad_peak_mb(18) <= 2.5


def test_quadruple_memory_grows_like_its_pairwise_matrices():
    """From 18 + 18 to 27 + 27 points the peak grows no faster than the
    (n, n, t) nearness matrices, by (27 / 18)^2 = 2.25 (1.75 -> 2.91 MB): a
    block holds as many cells at either size.  Blocks of one x index, which
    hold n^3 * t cells, grew it 3.3x (6.84 -> 22.40 MB)."""
    assert _quad_peak_mb(27) <= (27 / 18) ** 2 * _quad_peak_mb(18)


def test_quadruple_runs_at_32_points():
    """32 + 32 points: one whole (x, x', y, y', t) array would be 142 MB;
    the blocks keep the peak at 3.71 MB."""
    assert _quad_peak_mb(32) <= 6.0


def _pair_dump_peak_mb(n):
    """tracemalloc peak of estimate_k on an n-point pair of a 2-D box and a
    one-point grid, with the CLI's ratio dump writing every admitted cell to
    os.devnull.  Under the default block budget a block holds about 32 K
    cells at any sample size and grid length."""
    box = BoxSpace([-10.0, -10.0], [10.0, 10.0])
    fm = induced_standard(box)
    rng = SplitMix64(n)
    T, S = (
        AffineMap(box.sample(rng, 2, ([-0.25] * 2, [0.25] * 2)), box.sample(rng, 1, ([-2.0] * 2, [2.0] * 2))[0], box)
        for _ in "TS"
    )
    samples = SampleSet(points_x=tuple(box.sample(rng, n)), grid=TGrid([1.0]))
    with open(os.devnull, "w", newline="", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            (report,) = estimate_k("pair", MapPair(T=T, S=S), fm, fm, samples, _ratio_rows(fh, samples.grid))
            assert report.evaluated_count == n * (n - 1)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def test_ratio_dump_memory_does_not_grow_with_the_sample():
    """The dump is written a block at a time, so doubling the pair sample
    (4x the rows) leaves its peak nearly flat, where keeping every row as a
    tuple until the end grew with the row count."""
    assert _pair_dump_peak_mb(384) <= 1.5 * _pair_dump_peak_mb(192)


# ---------------------------------------------------------------------------
# stacked samples: one check of all their points
# ---------------------------------------------------------------------------

BOX2 = BoxSpace([-10.0, -10.0], [10.0, 10.0])
MU2 = induced_standard(BOX2)
GRID5 = TGrid.logspace(0.1, 10.0, 5)
PAIR2 = MapPair(T=AffineMap([[0.5, 0.0], [0.1, 0.5]], [1.0, 0.0], BOX2), S=AffineMap([[0.3, 0.1], [0.0, 0.4]], [0.0, -1.0], BOX2))
QUAD2 = MapQuadruple(
    A=AffineMap([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], BOX2),
    B=AffineMap([[0.2, 0.1], [0.0, 0.3]], [0.0, 1.0], BOX2),
    S=AffineMap([[0.4, 0.0], [0.1, 0.4]], [-1.0, 0.0], BOX2),
    T=AffineMap([[0.3, 0.0], [0.0, 0.6]], [0.0, 0.5], BOX2),
)


def _box_points(seed, n=5):
    return tuple(BOX2.sample(SplitMix64(seed), n))


def _spoiled(points, fault):
    """A copy of a sample's points with one fault: a NaN coordinate, a point
    outside the box, every point of the wrong dimension, or one short row."""
    pts = [list(p) for p in points]
    if fault == "nan":
        pts[2][0] = float("nan")
    elif fault == "outside":
        pts[1][1] = 20.0
    elif fault == "wrong-dimension":
        pts = [p + [0.0] for p in pts]
    else:
        pts[3] = pts[3][:1]
    return tuple(np.array(p) for p in pts)


def _stacked_call(scheme, samples):
    if scheme == "pair":
        return estimate_k_pair([PAIR2] * len(samples), MU2, MU2, samples)
    return estimate_k_quad([QUAD2] * len(samples), MU2, MU2, samples)


@pytest.mark.parametrize("fault", ["nan", "outside", "wrong-dimension", "ragged"])
@pytest.mark.parametrize("at", [1, 2])
@pytest.mark.parametrize("scheme,attr", [("pair", "points_x"), ("quadruple", "points_x"), ("quadruple", "points_y")])
def test_a_bad_point_of_a_stacked_sample_raises_as_the_per_sample_check(scheme, attr, at, fault):
    """Three samples, one of which holds a bad point: the one check of the
    stack falls back to the per-sample check, so the call raises the error
    that checking the samples one at a time raises first."""
    samples = [SampleSet(_box_points(s), GRID5, _box_points(10 + s) if scheme == "quadruple" else ()) for s in range(3)]
    samples[at] = replace(samples[at], **{attr: _spoiled(getattr(samples[at], attr), fault)})
    if at == 1:  # a later bad sample does not change the error of the first
        samples[2] = replace(samples[2], **{attr: _spoiled(getattr(samples[2], attr), "outside")})
    with pytest.raises(Exception) as per_sample:
        for sample in samples:
            validate_points(BOX2, getattr(sample, attr))
    with pytest.raises(type(per_sample.value)) as stacked:
        _stacked_call(scheme, samples)
    assert type(stacked.value) is type(per_sample.value) and str(stacked.value) == str(per_sample.value)


@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_samples_given_as_arrays_give_the_reports_of_tuples_of_points(scheme):
    tuples = [SampleSet(_box_points(s), GRID5, _box_points(10 + s) if scheme != "pair" else ()) for s in range(3)]
    arrays = [replace(s, points_x=np.array(s.points_x), points_y=np.array(s.points_y)) for s in tuples]
    if scheme == "self-quadruple":
        reports = [estimate_k_self_quad([QUAD2] * 3, MU2, samples) for samples in (tuples, arrays)]
        reports += [estimate_k_self_quad(QUAD2, MU2, samples[0]) for samples in (tuples, arrays)]
    else:
        reports = [_stacked_call(scheme, samples) for samples in (tuples, arrays)]
        reports += [estimate_k(scheme, PAIR2 if scheme == "pair" else QUAD2, MU2, MU2, samples[0]) for samples in (tuples, arrays)]
    assert repr(reports[0]) == repr(reports[1]) and repr(list(reports[2])) == repr(list(reports[3]))
    assert any(r.k_hat is not None for r in reports[0])
