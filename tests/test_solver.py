from fractions import Fraction as Fr
from functools import reduce

import numpy as np
import pytest

import oracles
from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    AffineMap,
    BoxSpace,
    ComposedMap,
    ConstantMap,
    MapPair,
    MapQuadruple,
    SolveConfig,
    SplitMix64,
    TGrid,
    induced_exponential,
    induced_standard,
    solve,
    uniqueness_probe,
    verify_conclusions,
)
from fuzzyfp import solver
from fuzzyfp.errors import DomainError, UsageError
from fuzzyfp.harness import InstanceSpec, gen_instance

LINE = BoxSpace([-np.inf], [np.inf])
MU = induced_standard(LINE)
NU = induced_standard(LINE)
GRID = TGrid.default()


def step_nearness(fm, column):
    """The nearness rows over the default grid of a trace column's
    consecutive steps, as the trace writer computes them."""
    return fm.mu_batch(column[:-1], column[1:], GRID)


class TestSolveConfig:
    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.eps == 1e-9
        assert cfg.max_iter == 10000
        assert cfg.stall_window == 50
        assert cfg.p_max == 8
        assert len(cfg.grid) == 17

    def test_validation(self):
        with pytest.raises(DomainError):
            SolveConfig(eps=0.0)
        with pytest.raises(DomainError):
            SolveConfig(max_iter=0)
        with pytest.raises(DomainError):
            SolveConfig(stall_window=1)


class TestIteratePair:
    def test_constant_maps(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        res = solve(pair, MU, NU, np.array([17.0]))
        assert res.converged
        assert res.iterations <= 2
        assert res.z[0] == 2.0 and res.w[0] == 5.0
        assert all(c.residual == 1.0 for c in res.conclusion_checks)

    def test_linear_pair_closed_form(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        assert res.converged
        assert res.iterations <= 60
        # closed form: ST x = x/6 + 4/3 has fixed point (4/3)/(5/6) = 1.6
        assert res.z[0] == pytest.approx(1.6, abs=1e-9)
        assert res.w[0] == pytest.approx(1.8, abs=1e-9)
        assert res.conclusions_passed

    def test_linear_pair_matches_iteration_oracle(self, linear_pair):
        # independent plain-float loop, 60 steps
        x = 0.0
        for _ in range(60):
            x = (x / 2.0 + 1.0) / 3.0 + 1.0
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        assert res.z[0] == pytest.approx(x, abs=1e-9)

    def test_expansive_pair_diverges(self, expansive_pair):
        res = solve(expansive_pair, MU, NU, np.array([1.0]))
        assert res.status == "diverging"
        assert res.iterations <= 60
        # nearness at the smallest scale declines monotonically
        col = step_nearness(MU, res.trace_x)[1:, 0]
        assert np.all(np.diff(col) < 0)

    def test_trace_columns(self, linear_pair):
        """x_0..x_N and y_1..y_N, read-only, with step nearness in (0, 1]."""
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        assert len(res.trace_x) == res.iterations + 1 and len(res.trace_y) == res.iterations
        for column in (res.trace_x, res.trace_y):
            rows = step_nearness(MU, column)
            assert not column.flags.writeable and np.all(rows > 0.0) and np.all(rows <= 1.0)

    def test_trace_step_identity(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        xs, ys = res.trace_x, res.trace_y
        st = ComposedMap(linear_pair.S, linear_pair.T)
        for n in range(len(xs) - 1):
            assert np.array_equal(xs[n + 1], st(xs[n]))
            assert np.array_equal(ys[n], linear_pair.T(xs[n]))

    def test_y_trace_offset_convention(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        # trace_y[0] is y_1 = T(x_0)
        assert np.array_equal(res.trace_y[0], linear_pair.T(np.array([0.0])))

    def test_determinism(self, linear_pair):
        r1 = solve(linear_pair, MU, NU, np.array([0.0]))
        r2 = solve(linear_pair, MU, NU, np.array([0.0]))
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.trace_x, r2.trace_x) and np.array_equal(r1.trace_y, r2.trace_y)

    def test_stopping_implies_sampled_cauchy(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        # 6x contraction: an 8-step tail is within ~6^8 of the last step,
        # so every stride p <= 8 back from x_n is 1e-3-near x_n on the grid
        xs, ts = res.trace_x, GRID.values
        assert len(xs) > 8
        for p in range(1, 9):
            assert np.all(oracles.mu_grid(MU, xs[-1 - p], xs[-1], ts) >= 1.0 - 1e-3)


@pytest.mark.parametrize("op", [MINIMUM, PRODUCT, LUKASIEWICZ])
@pytest.mark.parametrize("make", [induced_standard, induced_exponential])
def test_chained_triangle_bound(make, op):
    """mu(x_0, x_p, t) >= op-fold of consecutive nearness at t/p, the bound
    behind the stride check above."""
    box = BoxSpace([-100.0], [100.0])
    fm = make(box)
    rng = SplitMix64(2024)
    for _ in range(50):
        pts = box.sample(rng, rng.next_u64() % 5 + 2)
        t = rng.uniform(0.01, 100.0)
        direct = fm.mu_grid(pts[0], pts[-1], t)
        t1 = t / (len(pts) - 1)
        bound = reduce(op, (fm.mu_grid(a, b, t1) for a, b in zip(pts, pts[1:])))
        assert direct >= bound - 1e-12


class TestVerifyConclusionsPair:
    def test_wrong_point_fails(self, linear_pair):
        grid = TGrid.default()
        checks = verify_conclusions(
            linear_pair, MU, NU, np.array([0.0]), np.array([0.0]), grid, tol=1e-6
        )
        by_name = {c.name: c for c in checks}
        # mu(ST 0, 0, t) = t/(t + 4/3) is far below 1 at small t
        assert not by_name["st_z_fixed"].passed
        assert by_name["st_z_fixed"].residual == pytest.approx(
            0.01 / (0.01 + 4.0 / 3.0), abs=1e-12
        )

    def test_exact_point_passes(self, linear_pair):
        grid = TGrid.default()
        checks = verify_conclusions(
            linear_pair, MU, NU, np.array([1.6]), np.array([1.8]), grid, tol=1e-6
        )
        assert all(c.passed for c in checks)


def test_solve_rejects_a_problem_it_cannot_solve(linear_pair):
    with pytest.raises(UsageError, match="cannot solve problem of type AffineMap"):
        solve(linear_pair.T, MU, NU, np.array([0.0]))


def test_verify_conclusions_rejects_a_problem_with_no_scheme(linear_pair):
    with pytest.raises(UsageError, match="cannot solve problem of type AffineMap"):
        verify_conclusions(linear_pair.T, MU, NU, np.array([0.0]), np.array([0.0]), TGrid.default(), 1e-6)


class TestIterateQuadruple:
    def test_constant_quadruple(self, line):
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        res = solve(quad, MU, NU, np.array([17.0]))
        assert res.converged
        assert res.iterations <= 4  # at most two cycles
        assert res.z[0] == 2.0 and res.w[0] == 5.0
        assert res.conclusions_passed

    def test_symmetric_linear_contraction_to_origin(self, line):
        half = AffineMap([[0.5]], [0.0], line)
        quad = MapQuadruple(A=half, B=half, S=half, T=half)
        res = solve(quad, MU, NU, np.array([1.0]))
        assert res.converged
        assert abs(res.z[0]) <= 1e-6 and abs(res.w[0]) <= 1e-6
        assert res.conclusions_passed

    def test_mixed_quadruple_two_cycle(self, mixed_quad):
        """SA and TB have different fixed points; the interleaved scheme
        oscillates between the even/odd subsequence limits."""
        cfg = SolveConfig(max_iter=300)
        res = solve(mixed_quad, MU, NU, np.array([0.0]), cfg)
        assert res.status == "max-iter"

        # exact oracle: even limit solves x = T(B(S(A(x)))), a 1-d affine
        # equation in rationals; odd limit is SA applied to it
        a = Fr(1, 120)
        b = Fr(77, 60)
        even = b / (1 - a)  # 22/17
        odd = even / 8 + Fr(5, 4)  # 24/17
        assert even == Fr(22, 17) and odd == Fr(24, 17)

        # float oracle: iterate the composed map 200 steps
        x = 0.0
        for _ in range(200):
            x = x / 120.0 + 77.0 / 60.0
        assert x == pytest.approx(float(even), abs=1e-12)

        xs = res.trace_x[:, 0].tolist()
        assert xs[-1] == pytest.approx(float(even), abs=1e-9) or xs[-1] == pytest.approx(
            float(odd), abs=1e-9
        )
        # even-index tail and odd-index tail approach their own limits
        assert xs[-2] == pytest.approx(float(odd if xs[-1] == pytest.approx(float(even), abs=1e-9) else even), abs=1e-9)
        ys = res.trace_y[:, 0].tolist()
        assert sorted([ys[-1], ys[-2]]) == pytest.approx(
            [25.0 / 17.0, 28.0 / 17.0], abs=1e-9
        )

    def test_interleave_identities(self, mixed_quad):
        cfg = SolveConfig(max_iter=20)
        res = solve(mixed_quad, MU, NU, np.array([0.0]), cfg)
        xs, ys = res.trace_x, res.trace_y  # ys[i] is y_{i+1}
        for n in range(1, len(ys) + 1):
            if n % 2 == 1:  # y_{2m-1} = A x_{2m-2}
                assert np.array_equal(ys[n - 1], mixed_quad.A(xs[n - 1]))
            else:  # y_{2m} = B x_{2m-1}
                assert np.array_equal(ys[n - 1], mixed_quad.B(xs[n - 1]))
        for n in range(1, len(xs)):
            if n % 2 == 1:  # x_{2m-1} = S y_{2m-1}
                assert np.array_equal(xs[n], mixed_quad.S(ys[n - 1]))
            else:  # x_{2m} = T y_{2m}
                assert np.array_equal(xs[n], mixed_quad.T(ys[n - 1]))


class TestVerifyConclusionsQuadruple:
    def test_constant_quadruple_all_ones(self, line):
        z0, w0 = np.array([2.0]), np.array([5.0])
        quad = MapQuadruple(
            A=ConstantMap(w0, line),
            B=ConstantMap(w0, line),
            S=ConstantMap(z0, line),
            T=ConstantMap(z0, line),
        )
        checks = verify_conclusions(quad, MU, NU, z0, w0, TGrid.default(), 1e-6)
        assert len(checks) == 8
        assert all(c.residual == 1.0 for c in checks)

    def test_names_cover_all_eight_relations(self, line):
        z0, w0 = np.array([0.0]), np.array([0.0])
        half = AffineMap([[0.5]], [0.0], line)
        quad = MapQuadruple(A=half, B=half, S=half, T=half)
        checks = verify_conclusions(quad, MU, NU, z0, w0, TGrid.default(), 1e-6)
        assert {c.name for c in checks} == {
            "sa_z_fixed",
            "tb_z_fixed",
            "bs_w_fixed",
            "at_w_fixed",
            "a_z_is_w",
            "b_z_is_w",
            "s_w_is_z",
            "t_w_is_z",
        }
        assert all(c.passed for c in checks)


class TestUniquenessProbe:
    def test_linear_pair_agrees_from_far_starts(self, linear_pair):
        starts = [np.array([v]) for v in (-10.0, 0.0, 3.0, 100.0)]
        rep = uniqueness_probe(linear_pair, MU, NU, starts)
        assert rep.conclusive and rep.passed
        assert rep.max_z_distance <= 1e-6
        batch = solver.solve_problems([linear_pair], MU, NU, starts, np.zeros(len(starts), np.intp))
        assert np.abs(batch.z[:, 0] - 1.6).max() <= 1e-6

    def test_constant_maps_identical(self, line):
        pair = MapPair(T=ConstantMap([5.0], line), S=ConstantMap([2.0], line))
        starts = [np.array([v]) for v in (0.0, 9.0)]
        rep = uniqueness_probe(pair, MU, NU, starts)
        assert rep.passed and rep.max_z_distance == 0.0

    def test_identity_maps_report_non_uniqueness(self, line):
        ident = AffineMap([[1.0]], [0.0], line)
        pair = MapPair(T=ident, S=ident)
        starts = [np.array([0.0]), np.array([5.0])]
        rep = uniqueness_probe(pair, MU, NU, starts)
        assert rep.conclusive
        assert rep.passed is False
        assert rep.max_z_distance == pytest.approx(5.0)

    def test_inconclusive_on_divergence(self, expansive_pair):
        starts = [np.array([1.0]), np.array([2.0])]
        rep = uniqueness_probe(expansive_pair, MU, NU, starts)
        assert not rep.conclusive
        assert rep.passed is None

    def test_needs_two_starts(self, linear_pair):
        with pytest.raises(UsageError):
            uniqueness_probe(linear_pair, MU, NU, [np.array([0.0])])

    def test_all_starts_run_in_one_batch(self, linear_pair, monkeypatch):
        starts = [np.array([v]) for v in (-10.0, 0.0, 3.0)]
        batches = []
        real_iterate = solver._iterate
        monkeypatch.setattr(
            solver, "_iterate", lambda *a, **k: batches.append((a[4], real_iterate(*a, **k))) or batches[-1][1]
        )
        rep = uniqueness_probe(linear_pair, MU, NU, starts)
        assert rep.conclusive and rep.passed
        ((batch_starts, batch),) = batches
        assert [s[0] for s in batch_starts] == [-10.0, 0.0, 3.0]
        results = [batch.result(i) for i in range(len(starts))]
        alone = [solve(linear_pair, MU, NU, s) for s in starts]
        assert [r.status for r in results] == [r.status for r in alone]
        assert [r.iterations for r in results] == [r.iterations for r in alone]
        # the report reads z and w alone: no start is traced or checked
        assert [(r.trace_x, r.trace_y, r.conclusion_checks) for r in results] == [(None, None, ())] * 3


class TestCollapseRule:
    """Nearness at t_min sits at the 1e-300 floor for any long step under the
    exponential form; only steps that do not shrink may count as collapse."""

    def test_shrinking_steps_at_the_floor_converge(self):
        spec = InstanceSpec(
            scheme="quadruple",
            dim=1,
            factor_lo=0.97,
            factor_hi=0.995,
            metric_form="exponential",
            seed=1281031832,
        )
        inst = gen_instance(spec)
        res = solver.solve(inst.problem, inst.mu, inst.nu, np.array([9.669]))
        assert res.status == "converged"
        assert res.conclusions_passed
        steps = np.abs(np.diff(res.trace_x[:, 0]))
        assert step_nearness(inst.mu, res.trace_x)[:60, 0].min() <= 1e-300  # the floor was reached
        assert steps[0] > steps[60]

    def test_expansive_exponential_pair_still_diverges(self, line):
        double = AffineMap([[2.0]], [0.0], line)
        mu = induced_exponential(line)
        res = solve(MapPair(T=double, S=double), mu, mu, np.array([1.0]))
        assert res.status == "diverging"
        assert step_nearness(mu, res.trace_x)[-1, -1] <= 1e-300
        assert res.iterations < 100  # stopped by the monitor, long before overflow

    def test_steps_at_the_floor_at_every_scale_converge(self, line):
        # from 1e8 every step is so long that nearness at t_max sits at the
        # floor too; the crisp step lengths show that the steps shrink
        shrink = AffineMap([[0.99]], [0.0], line)
        mu = induced_exponential(line)
        res = solve(MapPair(T=shrink, S=shrink), mu, mu, np.array([1e8]))
        assert (step_nearness(mu, res.trace_x)[:60] <= 1e-300).all()
        assert res.status == "converged"
        assert res.conclusions_passed

    def test_growing_steps_at_the_floor_at_every_scale_diverge(self, line):
        grow = AffineMap([[1.01]], [0.0], line)
        mu = induced_exponential(line)
        cfg = SolveConfig()
        res = solve(MapPair(T=grow, S=grow), mu, mu, np.array([1e8]), cfg)
        assert (step_nearness(mu, res.trace_x) <= 1e-300).all()
        assert res.status == "diverging"
        assert res.iterations <= cfg.stall_window + 1

    def test_expansive_exponential_quadruple_still_diverges(self):
        spec = InstanceSpec(
            scheme="quadruple",
            dim=2,
            factor_lo=1.5,
            factor_hi=2.0,
            metric_form="exponential",
            seed=3,
            expansive=True,
        )
        inst = gen_instance(spec)
        res = solver.solve(inst.problem, inst.mu, inst.nu, inst.x0)
        assert res.status == "diverging"
        assert res.iterations < 100

    @pytest.mark.parametrize("window", [50, 7])
    def test_alternating_shrinking_steps_at_the_floor_converge(self, window, line):
        # S∘A = -0.97 x takes long steps and T∘B = 0.99 x short ones; each
        # kind shrinks, but every long step is longer than the one before it
        ident = AffineMap([[1.0]], [0.0], line)
        flip, shrink = AffineMap([[-0.97]], [0.0], line), AffineMap([[0.99]], [0.0], line)
        quad = MapQuadruple(A=ident, B=ident, S=flip, T=shrink)
        mu = induced_exponential(line)
        cfg = SolveConfig(stall_window=window)
        res = solve(quad, mu, mu, np.array([30000.0]), cfg)
        assert (step_nearness(mu, res.trace_x)[:100, 0] <= 1e-300).all()
        assert res.status == "converged"
        assert res.conclusions_passed

    @pytest.mark.parametrize("window", [50, 7])
    def test_bounded_orbit_with_alternating_steps_diverges(self, window):
        # quarter turns about two centres: the x orbit has period four and
        # its step lengths go long, short, short, long, so nearness at
        # t_max rises every few steps although the steps never shrink
        plane = BoxSpace([-np.inf] * 2, [np.inf] * 2)
        turn = np.array([[0.0, -1.0], [1.0, 0.0]])
        ident = AffineMap(np.eye(2), [0.0, 0.0], plane)
        about = lambda c: AffineMap(turn, c - turn @ c, plane)  # noqa: E731
        quad = MapQuadruple(
            A=ident, B=ident, S=about(np.array([0.0, 0.0])), T=about(np.array([10.0, 0.0]))
        )
        mu = induced_exponential(plane)
        cfg = SolveConfig(stall_window=window)
        res = solve(quad, mu, mu, np.array([5.0, 3.0]), cfg)
        steps = np.linalg.norm(np.diff(res.trace_x[:5], axis=0), axis=1)
        assert len(set(np.round(steps, 6))) == 2
        assert res.status == "diverging"
        assert res.iterations <= window + 4


def test_conclusion_residuals_meet_declared_tolerance(linear_pair):
    cfg = SolveConfig(verify_tol=1e-6)
    res = solve(linear_pair, MU, NU, np.array([0.0]), cfg)
    assert res.converged
    assert all(c.residual >= 1.0 - 1e-6 for c in res.conclusion_checks)


class TestFiniteCarrierEndToEnd:
    def test_table_maps_solve_exactly(self):
        from fuzzyfp import FiniteSpace, TableMap

        space_x = FiniteSpace([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        space_y = FiniteSpace([[0.0, 1.5], [1.5, 0.0]])
        mu = induced_standard(space_x)
        nu = induced_standard(space_y)
        pair = MapPair(
            T=TableMap([0, 1, 1], space_y),
            S=TableMap([2, 2], space_x),
        )
        res = solve(pair, mu, nu, 0)
        assert res.converged
        assert res.z == 2 and res.w == 1
        assert all(c.residual == 1.0 for c in res.conclusion_checks)


class TestStopReason:
    """stop_reason says why a run stopped; status stays converged, max-iter or diverging."""

    def test_eps_reached(self, linear_pair):
        res = solve(linear_pair, MU, NU, np.array([0.0]))
        assert (res.stop_reason, res.status) == ("eps-reached", "converged")

    def test_max_iter(self, mixed_quad):
        res = solve(mixed_quad, MU, NU, np.array([0.0]), SolveConfig(max_iter=300))
        assert (res.stop_reason, res.status) == ("max-iter", "max-iter")

    def test_stall(self, expansive_pair):
        res = solve(expansive_pair, MU, NU, np.array([1.0]))
        assert (res.stop_reason, res.status) == ("stall", "diverging")

    def test_collapse(self, line):
        grow = AffineMap([[1.01]], [0.0], line)
        mu = induced_exponential(line)
        res = solve(MapPair(T=grow, S=grow), mu, mu, np.array([1e8]))
        assert (res.stop_reason, res.status) == ("collapse", "diverging")

    def test_codomain_escape(self):
        box = BoxSpace([-10.0], [10.0])
        double = AffineMap([[2.0]], [0.0], box)
        mu = induced_standard(box)
        res = solve(MapPair(T=double, S=double), mu, mu, np.array([1.0]))
        assert (res.stop_reason, res.status) == ("codomain-escape", "diverging")
        assert res.iterations == 1  # T(4) = 8 stays in, S(8) = 16 escapes

    def test_starts_of_one_batch_stop_for_different_reasons(self):
        # x_n = 2 x_{n-1} on [-1e6, 1e6] under exp(-d/t): from 0 nothing moves,
        # from 1e-6 the steps stay short and nearness at t_min falls every step,
        # from 10 every step sits at the floor at t_min and grows, and from 2e5
        # the orbit leaves the box in the third cycle
        box = BoxSpace([-1e6], [1e6])
        pair = MapPair(T=AffineMap([[2.0]], [0.0], box), S=AffineMap([[1.0]], [0.0], box))
        mu = induced_exponential(box)
        cfg = SolveConfig(stall_window=7)
        starts = [np.array([v]) for v in (0.0, 1e-6, 10.0, 2e5)]
        every = np.ones(len(starts), bool)
        batch = solver._iterate([pair], np.zeros(len(starts), np.intp), mu, mu, starts, cfg, every)
        results = [batch.result(i) for i in range(len(starts))]
        reasons = [r.stop_reason for r in results]
        assert reasons == ["eps-reached", "stall", "collapse", "codomain-escape"]
        for start, res in zip(starts, results):
            alone = solver.solve(pair, mu, mu, start, cfg)
            assert (alone.stop_reason, alone.iterations) == (res.stop_reason, res.iterations)
            assert np.array_equal(alone.trace_x, res.trace_x)
