"""Oracle-checked tests for the contraction-hypothesis evaluators.

The oracles run in exact rational arithmetic (fractions.Fraction) over the
same tuple sets, independently of the float/numpy implementation path.
"""

import tracemalloc
from fractions import Fraction as Fr

import numpy as np
import pytest

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    ConstantMap,
    DomainError,
    EmptySampleError,
    MapPair,
    MapQuadruple,
    SampleSet,
    SequenceTrace,
    SplitMix64,
    TGrid,
    check_recurrence_pair,
    check_recurrence_quad,
    estimate_k_pair,
    estimate_k_pair_dual,
    estimate_k_quad,
    estimate_k_self_quad,
    induced_standard,
    solve,
)
from fuzzyfp.solver import SolveConfig
from oracles import (
    pair_inequality_terms,
    pair_inequality_terms_dual,
    quad_denominator,
    quad_numerator_dual,
    quad_numerator_primal,
    self_quad_denominator,
    self_quad_numerator_dual,
    self_quad_numerator_primal,
)

LINE = BoxSpace([-np.inf], [np.inf])
MU = induced_standard(LINE)
NU = induced_standard(LINE)


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
        assert rhs == MU.mu(x, linear_pair.st(x), 1.0)

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

    def test_dual_estimate(self, linear_pair):
        samples = SampleSet(points_x=pts(0.0), grid=self.GRID, points_y=pts(0.0, 1.0, 2.0))
        report = estimate_k_pair_dual(linear_pair, MU, NU, samples)
        assert report.label == "pair-dual"
        assert report.k_hat is not None and report.k_hat < 1.0
        wy, wy2, wt = report.witness
        lhs, rhs = pair_inequality_terms_dual(linear_pair, MU, NU, wy, wy2, wt)
        assert abs(rhs / lhs - report.k_hat) <= 1e-12


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
        assert f <= MU.mu(x, x2, 1.0) + 1e-15


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

    def test_witness_reproduces_k_hat(self):
        quad = self._quad()
        samples = SampleSet(
            points_x=pts(0.5, 1.0, 2.0), grid=TGrid([0.5, 1.0]), points_y=pts(1.0, 2.0)
        )
        primal, dual = estimate_k_quad(quad, MU, NU, samples)
        x, x2, y, y2, t = primal.witness
        f = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, t)
        h = quad_denominator(quad, MU, NU, x, x2, y, y2, t)
        lhs = MU.mu(quad.sa(x), quad.tb(x2), t)
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
# kept ratios of all three schemes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_ratio_dump_matches_scalar_oracle(scheme):
    """Every evaluated tuple is kept in C order, k_hat is the largest kept
    ratio, and the scalar terms admit each kept row and reproduce its ratio."""
    xs, ys = pts(0.5, 1.0, 2.0), pts(1.0, 2.0)
    samples = SampleSet(points_x=xs, grid=TGrid([0.5, 1.0]), points_y=ys)
    if scheme == "pair":
        pair = MapPair(T=AffineMap([[0.5]], [1.0], LINE), S=AffineMap([[1.0 / 3.0]], [1.0], LINE))
        reports = [
            estimate_k_pair(pair, MU, NU, samples, keep_ratios=True),
            estimate_k_pair_dual(pair, MU, NU, samples, keep_ratios=True),
        ]

        def oracle(label, i, j, t):
            if label == "pair":
                lhs, rhs = pair_inequality_terms(pair, MU, NU, xs[i], xs[j], t)
            else:
                lhs, rhs = pair_inequality_terms_dual(pair, MU, NU, ys[i], ys[j], t)
            return i != j, rhs / lhs

    elif scheme == "quadruple":
        quad = TestEstimateKQuad()._quad()
        reports = estimate_k_quad(quad, MU, NU, samples, keep_ratios=True)

        def oracle(label, i, j, k, l, t):
            x, x2, y, y2 = xs[i], xs[j], ys[k], ys[l]
            h = quad_denominator(quad, MU, NU, x, x2, y, y2, t)
            if label == "quad-primal":
                num = quad_numerator_primal(quad, MU, NU, x, x2, y, y2, t)
                lhs = MU.mu(quad.sa(x), quad.tb(x2), t)
            else:
                num = quad_numerator_dual(quad, MU, NU, x, x2, y, y2, t)
                lhs = NU.mu(quad.bs(y), quad.at(y2), t)
            return num < h < 1.0, (num / h) / lhs

    else:
        quad = TestSelfQuad()._quad()
        reports = estimate_k_self_quad(quad, MU, samples, keep_ratios=True)

        def oracle(label, i, j, t):
            x, y = xs[i], ys[j]
            h = self_quad_denominator(quad, MU, x, y, t)
            if label == "self-quad-primal":
                num = self_quad_numerator_primal(quad, MU, x, y, t)
                lhs = MU.mu(quad.sa(x), quad.tb(y), t)
            else:
                num = self_quad_numerator_dual(quad, MU, x, y, t)
                lhs = MU.mu(quad.bs(x), quad.at(y), t)
            return num < h < 1.0, (num / h) / lhs

    for report in reports:
        assert len(report.ratios) == report.evaluated_count > 0
        assert [row[:-1] for row in report.ratios] == sorted(row[:-1] for row in report.ratios)
        assert report.k_hat == max(r for *_, r in report.ratios)
        for *cell, t, r in report.ratios:
            admitted, ratio = oracle(report.label, *cell, t)
            assert admitted
            assert r == pytest.approx(ratio, rel=1e-12)


# ---------------------------------------------------------------------------
# recurrence validation
# ---------------------------------------------------------------------------


class TestRecurrencePair:
    def test_constant_maps_zero_violations_for_large_k(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        res = solve(pair, MU, NU, np.array([17.0]))
        grid = res.trace_x.grid
        # the only checked step needs k >= max_t mu(17, 2, t) = 100/115
        rhs_max = float(np.max(MU.mu_grid(np.array([17.0]), np.array([2.0]), grid.values)))
        rep = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, rhs_max + 1e-6, grid)
        assert rep.violation_count == 0
        rep_low = check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, rhs_max / 2, grid)
        assert rep_low.violation_count >= 1

    def test_k_near_one_sanity(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        rep = check_recurrence_pair(
            res.trace_x, res.trace_y, MU, NU, 1.0 - 1e-12, res.trace_x.grid
        )
        assert rep.violation_count == 0

    def test_k_hat_from_trace_sample_gives_zero_violations(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        grid = res.trace_x.grid
        # diagonal inclusion keeps the near-coincident tail pairs in the
        # sample; their ratios are exactly what the recurrence cells need
        samples = SampleSet(
            points_x=res.trace_x.points, grid=grid, exclude_diagonal=False
        )
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

    def test_k_domain_checked(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        with pytest.raises(DomainError):
            check_recurrence_pair(res.trace_x, res.trace_y, MU, NU, 1.5, res.trace_x.grid)

    def test_short_trace_rejected(self, line):
        grid = TGrid([1.0])
        tx = SequenceTrace.from_points([np.array([0.0])], MU, grid)
        with pytest.raises(Exception):
            check_recurrence_pair(tx, tx, MU, NU, 0.5, grid)


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
        grid = res.trace_x.grid
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
        xs = res.trace_x.points
        ys = res.trace_y.points
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

    def test_foreign_trace_rejected(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        foreign = MapQuadruple(
            A=AffineMap([[0.1]], [7.0], LINE),
            B=AffineMap([[0.1]], [7.0], LINE),
            S=AffineMap([[0.1]], [0.0], LINE),
            T=AffineMap([[0.1]], [0.0], LINE),
        )
        with pytest.raises(Exception):
            check_recurrence_quad(
                res.trace_x, res.trace_y, foreign, MU, NU, 0.5, res.trace_x.grid
            )


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
    """Each (x, x', y, y', t) array is evaluated a block of x indices at a
    time, so 18 + 18 points (1.8 M cells a side) stay within 16 MB; the
    whole arrays took 70 MB."""
    assert _quad_peak_mb(18) <= 16.0


def test_quadruple_runs_at_32_points():
    """32 + 32 points: one whole (x, x', y, y', t) array would be 142 MB."""
    assert _quad_peak_mb(32) <= 256.0
