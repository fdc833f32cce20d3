"""Scalar reference code for the batched layers and the k_hat estimators.

Each function here is the straightforward loop that the array code in
`fuzzyfp` replaces: one RNG draw, one point, one point pair, one map
evaluation, one triple, one iteration start or one recurrence step at a
time.  None of it calls the scalar forms of `fuzzyfp` (a map call, mu,
mu_grid, distance), which are wrappers over the array code.  The
equivalence tests compare the two bit for bit.  The inequality terms at the
end evaluate the contraction hypotheses at one tuple, the reference that
the estimators' ratio arrays are tested against.
"""

import math
from collections import deque

import numpy as np

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    ComposedMap,
    ConstantMap,
    FuzzyMetric,
    MapPair,
    RecurrenceReport,
    SplitMix64,
    TableFuzzyMetric,
    TNorm,
)
from fuzzyfp.axioms import _SLACK, AxiomReport
from fuzzyfp.errors import CodomainError, DomainError, UsageError
from fuzzyfp.sequences import SequenceTrace
from fuzzyfp.solver import _COLLAPSE, ConclusionCheck, FixedPointResult, SolveConfig
from fuzzyfp.spaces import DELTA_PT


def sample(carrier, rng, count, window=None):
    """Carrier.sample drawn one point (and one coordinate) at a time."""
    if not isinstance(carrier, BoxSpace):
        return [rng.randint(carrier.size) for _ in range(count)]
    lo, hi = (carrier.lo, carrier.hi) if window is None else map(np.asarray, window)
    pts = []
    for _ in range(count):
        p = np.array([rng.uniform(lo[i], hi[i]) for i in range(carrier.dimension)])
        p.setflags(write=False)
        pts.append(p)
    return pts


def distance(carrier, x, y):
    """The crisp distance of one point pair, as np.dot computes it; if the
    square overflows, scaled by the largest |d| first."""
    if not isinstance(carrier, BoxSpace):
        return float(carrier.table[int(x), int(y)])
    with np.errstate(over="ignore"):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        if carrier.crisp_metric != "euclidean":
            return float(np.max(np.abs(d)))
        square = float(np.dot(d, d))
        if math.isinf(square) and np.isfinite(d).all():
            scale = float(np.max(np.abs(d)))
            return scale * math.sqrt(float(np.dot(d / scale, d / scale)))
        return math.sqrt(square)


def distance_matrix(carrier, pts_a, pts_b):
    """distance() of every pair, one pair at a time."""
    return np.array([[distance(carrier, a, b) for b in pts_b] for a in pts_a])


def mu_grid(fm, x, y, ts):
    """Nearness of one point pair over the scales ts."""
    if isinstance(fm, TableFuzzyMetric):
        return np.interp(np.log(ts), fm._log_grid, fm.values[int(x), int(y)])
    return fm._from_d(distance(fm.carrier, x, y), ts)


def near(fm, x, y, t: float) -> float:
    """Nearness of one point pair at one scale."""
    return float(mu_grid(fm, x, y, t))


def contains(carrier, x) -> bool:
    """Carrier containment spelled out with every check on every call."""
    if not isinstance(carrier, BoxSpace):
        return isinstance(x, (int, np.integer)) and 0 <= int(x) < carrier.size
    x = np.asarray(x, dtype=float)
    if x.shape != carrier.lo.shape or not np.all(np.isfinite(x)):
        return False
    return bool(np.all(x >= carrier.lo - 1e-9) and np.all(x <= carrier.hi + 1e-9))


def apply(mapping, x):
    """The map at one point, evaluated directly, with the CodomainError a
    map call raises; a composed map names the inner or outer map that escaped."""
    if isinstance(mapping, ComposedMap):
        return apply(mapping.outer, apply(mapping.inner, x))
    if isinstance(mapping, AffineMap):
        out = mapping.matrix @ np.asarray(x, dtype=float) + mapping.offset
        out.setflags(write=False)
    elif isinstance(mapping, ConstantMap):
        out = mapping.value
    else:
        out = mapping.targets[int(x)]
    if not contains(mapping.codomain, out):
        raise CodomainError(f"{type(mapping).__name__} output {out!r} escaped its codomain")
    return out


def pairwise(fm, pts_a, pts_b, ts):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((len(pts_a), len(pts_b), ts.size))
    for i, a in enumerate(pts_a):
        for j, b in enumerate(pts_b):
            out[i, j] = mu_grid(fm, a, b, ts)
    return out


def triangle_witness(table):
    """First (i, j, k) in C order with t[i, k] > t[i, j] + t[j, k] + 1e-12."""
    t = np.asarray(table, dtype=float)
    n = t.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[i, k] > t[i, j] + t[j, k] + 1e-12:
                    return (i, j, k)
    return None


def _op_array(op, a, b):
    if isinstance(op, TNorm):
        return op.apply_array(a, b)
    return np.vectorize(op)(a, b)


def _wp(p):
    return tuple(np.asarray(p, dtype=float).tolist()) if np.ndim(p) else int(p)


def check_fm_axioms(fm, op, triple_count, grid, seed, window=None):
    """check_fm_axioms evaluated one triple at a time."""
    carrier = fm.carrier
    rng = SplitMix64(seed)
    report = AxiomReport(subject=f"fm:{fm.form}", samples=triple_count, seed=seed)
    ts = grid.values
    st_sum = ts[:, None] + ts[None, :]
    for _ in range(triple_count):
        x, y, z = sample(carrier, rng, 3, window)
        mxy = mu_grid(fm, x, y, ts)
        myx = mu_grid(fm, y, x, ts)
        myz = mu_grid(fm, y, z, ts)
        mxx = mu_grid(fm, x, x, ts)

        report.checks += 1
        for row in (mxy, myz):
            bad = row <= 0.0
            if np.any(bad):
                k = int(np.argmax(bad))
                report._record("positivity", (_wp(x), _wp(y), float(ts[k])), float(row[k]))
                break

        report.checks += 1
        if np.any(mxx != 1.0):
            k = int(np.argmax(mxx != 1.0))
            report._record("identity", (_wp(x), float(ts[k])), abs(1.0 - float(mxx[k])))
        if distance(carrier, x, y) > DELTA_PT and np.any(mxy == 1.0):
            k = int(np.argmax(mxy == 1.0))
            report._record(
                "identity", (_wp(x), _wp(y), float(ts[k])), float(distance(carrier, x, y))
            )

        report.checks += 1
        if np.any(mxy != myx):
            k = int(np.argmax(mxy != myx))
            report._record(
                "symmetry", (_wp(x), _wp(y), float(ts[k])), float(np.max(np.abs(mxy - myx)))
            )

        report.checks += 1
        excess = _op_array(op, mxy[:, None], myz[None, :]) - mu_grid(fm, x, z, st_sum)
        if np.any(excess > _SLACK):
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            report._record(
                "triangle",
                (_wp(x), _wp(y), _wp(z), float(ts[i]), float(ts[j])),
                float(excess[i, j]),
            )

        if fm.monotone_in_t and len(grid) > 1:
            report.checks += 1
            drops = -np.diff(mxy)
            if np.any(drops > _SLACK):
                k = int(np.argmax(drops))
                report._record(
                    "monotone_in_t", (_wp(x), _wp(y), float(ts[k])), float(drops[k])
                )
    return report


# ---------------------------------------------------------------------------
# the iteration schemes from one start
# ---------------------------------------------------------------------------


class _DivergenceMonitor:
    """The divergence rules of fuzzyfp.solver for one start, with deque tops
    and crisp lengths recomputed from the points at the collapse decision."""

    def __init__(self, window: int, carrier):
        self.window = window
        self.carrier = carrier
        self.prev = -np.inf
        self.tops = deque(maxlen=window + 1)
        self.decline_run = 0
        self.collapse_run = 0

    def push(self, row, xs):
        """Take the nearness row of the step xs[-2] -> xs[-1]; the stop reason or None."""
        value, top = float(row[0]), float(row[-1])
        self.decline_run = self.decline_run + 1 if value < self.prev else 0
        self.collapse_run = self.collapse_run + 1 if value <= _COLLAPSE else 0
        self.prev = value
        self.tops.append(top)
        if self.decline_run >= self.window:
            return "stall"
        if self.collapse_run < self.window:
            return None
        backs = [k for k in (self.window, self.window - 1) if k < len(self.tops)]
        back_tops = [self.tops[-k - 1] for k in backs]
        if top > min(back_tops):
            return None
        if max(back_tops) > _COLLAPSE:
            return "collapse"
        c = self.carrier
        grew = distance(c, xs[-2], xs[-1]) >= max(distance(c, xs[-k - 2], xs[-k - 1]) for k in backs)
        return "collapse" if grew else None


def solve(problem, mu, nu, x0, cfg=None):
    """The scheme run from one start, one map call and one mu_grid row per step."""
    cfg = cfg or SolveConfig()
    grid, eps = cfg.grid, cfg.eps
    if isinstance(problem, MapPair):
        cycle = ((problem.T, problem.S),)
    else:
        cycle = ((problem.A, problem.S), (problem.B, problem.T))
    xs = [mu.carrier.validate_point(x0)]
    ys, x_rows, y_rows = [], [], []
    monitor = _DivergenceMonitor(cfg.stall_window, mu.carrier)
    reason = "max-iter"
    x = xs[0]
    for cycle_no in range(cfg.max_iter):
        near = cycle_no > 0
        diverged = None
        try:
            for to_y, to_x in cycle:
                y = apply(to_y, x)
                if ys:
                    row = mu_grid(nu, ys[-1], y, grid.values)
                    y_rows.append(row)
                    near = near and bool((row >= 1.0 - eps).all())
                ys.append(y)
                x_prev, x = x, apply(to_x, y)
                xs.append(x)
                row = mu_grid(mu, x_prev, x, grid.values)
                x_rows.append(row)
                near = near and bool((row >= 1.0 - eps).all())
                diverged = diverged or monitor.push(row, xs)
        except CodomainError:
            reason = "codomain-escape"
            break
        if near:
            reason = "eps-reached"
            break
        if diverged:
            reason = diverged
            break

    z = xs[-1]
    w = ys[-1] if ys else None
    if isinstance(problem, MapPair):
        try:
            w = apply(problem.T, z)
        except CodomainError:
            pass
    checks = conclusions(problem, mu, nu, z, w, grid, cfg.verify_tol) if w is not None else ()
    return FixedPointResult(
        z=z,
        w=w,
        stop_reason=reason,
        iterations=len(xs) - 1,
        trace_x=_trace(xs, x_rows, grid),
        trace_y=_trace(ys, y_rows, grid),
        conclusion_checks=checks,
    )


def _trace(points, rows, grid):
    nearness = np.array(rows) if rows else np.empty((0, len(grid)))
    return SequenceTrace(points=tuple(points), nearness=nearness, grid=grid)


def conclusions(problem, mu, nu, z, w, grid, tol):
    """The conclusion checks of verify_conclusions_pair / _quadruple: the
    least nearness of each identity f(p) = q over the grid, 0.0 if f(p) escapes."""

    def check(name, fm, maps, p, q):
        try:
            for m in reversed(maps):
                p = apply(m, p)
            res = float(np.min(mu_grid(fm, p, q, grid.values)))
        except CodomainError:
            res = 0.0
        return ConclusionCheck(name=name, residual=res, passed=res >= 1.0 - tol)

    if isinstance(problem, MapPair):
        T, S = problem.T, problem.S
        return (
            check("st_z_fixed", mu, (S, T), z, z),
            check("ts_w_fixed", nu, (T, S), w, w),
            check("t_z_is_w", nu, (T,), z, w),
            check("s_w_is_z", mu, (S,), w, z),
        )
    A, B, S, T = problem.A, problem.B, problem.S, problem.T
    return (
        check("sa_z_fixed", mu, (S, A), z, z),
        check("tb_z_fixed", mu, (T, B), z, z),
        check("bs_w_fixed", nu, (B, S), w, w),
        check("at_w_fixed", nu, (A, T), w, w),
        check("a_z_is_w", nu, (A,), z, w),
        check("b_z_is_w", nu, (B,), z, w),
        check("s_w_is_z", mu, (S,), w, z),
        check("t_w_is_z", mu, (T,), w, z),
    )


# ---------------------------------------------------------------------------
# step recurrences along a trace, one step and one equation at a time
# ---------------------------------------------------------------------------


def _tally(report, equation, n, ts, lhs_row, rhs_row):
    margins = report.k * lhs_row - rhs_row
    report.total_checks += margins.size
    bad = margins < -1e-12
    count = int(np.count_nonzero(bad))
    if count:
        report.violation_count += count
        report.by_equation[equation] = report.by_equation.get(equation, 0) + count
    worst = int(np.argmin(margins))
    if margins[worst] < report.worst_margin:
        report.worst_margin = float(margins[worst])
        report.worst_witness = (equation, n, float(ts[worst]))


def _recurrence_start(trace_x, k):
    if not (0.0 < k < 1.0):
        raise DomainError("recurrence constant k must lie in (0, 1)")
    if len(trace_x) < 2:
        raise UsageError("trace too short for recurrence checks")
    return RecurrenceReport(k=k)


def check_recurrence_pair(trace_x, trace_y, mu, nu, k, grid):
    """check_recurrence_pair as one mu_grid row per term, n by n."""
    report = _recurrence_start(trace_x, k)
    xs = trace_x.points
    ys = trace_y.points  # ys[i] is y_{i+1}
    ts = grid.values

    def m(a, b):
        return mu_grid(mu, a, b, ts)

    def n_(a, b):
        return mu_grid(nu, a, b, ts)

    def y(n):
        return ys[n - 1]

    for n in range(1, min(len(xs) - 2, len(ys) - 1) + 1):
        rhs = np.minimum(m(xs[n - 1], xs[n]), n_(y(n), y(n + 1)))
        _tally(report, "x_step", n, ts, m(xs[n], xs[n + 1]), rhs)
    for n in range(2, len(ys)):
        rhs = np.minimum(n_(y(n - 1), y(n)), m(xs[n - 1], xs[n]))
        _tally(report, "y_step", n, ts, n_(y(n), y(n + 1)), rhs)
    return report


def check_recurrence_quad(trace_x, trace_y, quad, mu, nu, k, grid):
    """check_recurrence_quad as one mu_grid row per term: n by n, each n
    in the order x_even, x_odd, y_even, y_odd, until none applies."""
    report = _recurrence_start(trace_x, k)
    xs = trace_x.points
    ys = trace_y.points
    if ys and distance(nu.carrier, apply(quad.A, xs[0]), ys[0]) > DELTA_PT:
        raise UsageError("trace does not follow the interleaved scheme")
    ts = grid.values

    def m(a, b):
        return mu_grid(mu, xs[a], xs[b], ts)

    def n_(a, b):
        return mu_grid(nu, ys[a - 1], ys[b - 1], ts)

    def have(n):  # x_n and y_n exist
        return n < len(xs) and n <= len(ys)

    n = 1
    while have(2 * n):
        if have(2 * n + 1):
            rhs = np.minimum(m(2 * n - 1, 2 * n), n_(2 * n, 2 * n + 1))
            _tally(report, "x_even", n, ts, m(2 * n, 2 * n + 1), rhs)
        rhs = np.minimum(m(2 * n - 2, 2 * n - 1), n_(2 * n - 1, 2 * n))
        _tally(report, "x_odd", n, ts, m(2 * n - 1, 2 * n), rhs)
        if have(2 * n + 1):
            rhs = np.minimum(m(2 * n + 1, 2 * n), n_(2 * n - 1, 2 * n))
            _tally(report, "y_even", n, ts, n_(2 * n, 2 * n + 1), rhs)
        if n >= 2:
            rhs = np.minimum(m(2 * n, 2 * n - 1), n_(2 * n - 2, 2 * n - 1))
            _tally(report, "y_odd", n, ts, n_(2 * n, 2 * n - 1), rhs)
        n += 1
    return report


# ---------------------------------------------------------------------------
# contraction-hypothesis terms at one tuple
# ---------------------------------------------------------------------------


def pair_inequality_terms(pair, mu: FuzzyMetric, nu: FuzzyMetric, x, x2, t: float):
    """Return (lhs, rhs) of the pair inequality at one tuple.

    lhs = mu(STx, STx', t) without the k factor; rhs is the four-term
    minimum.  The inequality holds with constant k iff k * lhs >= rhs.
    """
    stx = apply(pair.S, apply(pair.T, x))
    stx2 = apply(pair.S, apply(pair.T, x2))
    lhs = near(mu, stx, stx2, t)
    rhs = min(
        near(mu, x, x2, t),
        near(mu, x, stx, t),
        near(mu, x2, stx2, t),
        near(nu, apply(pair.T, x), apply(pair.T, x2), t),
    )
    return lhs, rhs


def pair_inequality_terms_dual(pair, mu: FuzzyMetric, nu: FuzzyMetric, y, y2, t: float):
    """Mirror of pair_inequality_terms with (mu, ST) and (nu, TS) swapped."""
    tsy = apply(pair.T, apply(pair.S, y))
    tsy2 = apply(pair.T, apply(pair.S, y2))
    lhs = near(nu, tsy, tsy2, t)
    rhs = min(
        near(nu, y, y2, t),
        near(nu, y, tsy, t),
        near(nu, y2, tsy2, t),
        near(mu, apply(pair.S, y), apply(pair.S, y2), t),
    )
    return lhs, rhs


def quad_numerator_primal(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """min of the four nearness products on the primal side."""
    ax = apply(quad.A, x)
    bx2 = apply(quad.B, x2)
    sy = apply(quad.S, y)
    ty2 = apply(quad.T, y2)
    return min(
        near(mu, x, x2, t) * near(nu, ax, bx2, t),
        near(mu, x, x2, t) * near(mu, sy, ty2, t),
        near(mu, x, ty2, t) * near(nu, ax, apply(quad.A, apply(quad.T, y2)), t),
        near(mu, x2, sy, t) * near(nu, bx2, apply(quad.B, apply(quad.S, y)), t),
    )


def quad_numerator_dual(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """min of the four nearness products on the dual side."""
    ax = apply(quad.A, x)
    bx2 = apply(quad.B, x2)
    sy = apply(quad.S, y)
    ty2 = apply(quad.T, y2)
    return min(
        near(nu, y, y2, t) * near(mu, sy, ty2, t),
        near(nu, y, y2, t) * near(nu, ax, bx2, t),
        near(nu, y, bx2, t) * near(mu, sy, apply(quad.T, apply(quad.B, x2)), t),
        near(nu, y2, ax, t) * near(mu, ty2, apply(quad.S, apply(quad.A, x)), t),
    )


def quad_denominator(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """Shared denominator: min of four plain nearness values."""
    return min(
        near(nu, apply(quad.A, x), apply(quad.B, x2), t),
        near(mu, apply(quad.S, apply(quad.A, x)), apply(quad.T, apply(quad.B, x2)), t),
        near(mu, apply(quad.S, y), apply(quad.T, y2), t),
        near(nu, apply(quad.B, apply(quad.S, y)), apply(quad.A, apply(quad.T, y2)), t),
    )


def self_quad_numerator_primal(quad, fm, x, y, t: float) -> float:
    sx = apply(quad.S, x)
    ty = apply(quad.T, y)
    ax = apply(quad.A, x)
    return min(
        near(fm, sx, ty, t) * near(fm, ax, apply(quad.B, apply(quad.S, x)), t),
        near(fm, sx, apply(quad.T, apply(quad.B, y)), t) * near(fm, x, sx, t),
        near(fm, x, y, t) * near(fm, apply(quad.S, apply(quad.A, x)), ty, t),
        near(fm, x, ty, t) * near(fm, x, apply(quad.A, apply(quad.T, y)), t),
    )


def self_quad_numerator_dual(quad, fm, x, y, t: float) -> float:
    sx = apply(quad.S, x)
    ty = apply(quad.T, y)
    ax = apply(quad.A, x)
    return min(
        near(fm, x, sx, t) * near(fm, x, y, t),
        near(fm, y, apply(quad.T, apply(quad.B, y)), t) * near(fm, y, ax, t),
        near(fm, apply(quad.S, apply(quad.A, x)), ty, t) * near(fm, ax, apply(quad.B, y), t),
        near(fm, ax, apply(quad.A, apply(quad.T, y)), t) * near(fm, apply(quad.S, apply(quad.A, x)), sx, t),
    )


def self_quad_denominator(quad, fm, x, y, t: float) -> float:
    return min(
        near(fm, apply(quad.A, x), apply(quad.B, apply(quad.S, x)), t),
        near(fm, x, apply(quad.S, apply(quad.A, x)), t),
        near(fm, apply(quad.S, x), apply(quad.T, apply(quad.B, y)), t),
        near(fm, apply(quad.B, y), apply(quad.A, apply(quad.T, y)), t),
    )
