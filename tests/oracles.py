"""Scalar reference code for the batched layers and the k_hat estimators.

Each function here is the straightforward loop that the array code in
`fuzzyfp` replaces: one RNG draw, one point, one point pair, one map
evaluation, one t-norm sample, one triple, one generated instance, one
iteration start or one problem's uniqueness verdict at a time.  None of
it calls the scalar forms of `fuzzyfp` (a map or t-norm call, mu_grid,
distance), which are wrappers over the array code.  The
equivalence tests compare the two bit for bit.  The step-recurrence
checkers test the paper's recurrences along solver traces, one step at a
time.  The inequality terms evaluate the contraction hypotheses at one
tuple, the reference that the estimators' ratio arrays are tested against.
jsonable, at the end, is the reference for the CLI's JSON artifacts.
"""

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    ComposedMap,
    ConstantMap,
    FuzzyMetric,
    MapPair,
    MapQuadruple,
    SequenceTrace,
    SplitMix64,
    TableFuzzyMetric,
    TGrid,
    TNorm,
)
from fuzzyfp.axioms import _SLACK, AxiomReport
from fuzzyfp.errors import CodomainError, DomainError, UsageError
from fuzzyfp.harness import _SUITE_SALT, Instance, _kind_metrics
from fuzzyfp.rng import unit
from fuzzyfp.solver import _COLLAPSE, _UNIQUENESS_TOL, ConclusionCheck, FixedPointResult, SolveConfig, UniquenessReport
from fuzzyfp.spaces import DELTA_PT


def sample(carrier, rng, count, window=None):
    """Carrier.sample drawn one point (and one coordinate) at a time."""
    if not isinstance(carrier, BoxSpace):
        return [rng.next_u64() % carrier.size for _ in range(count)]
    lo, hi = (carrier.lo, carrier.hi) if window is None else map(np.asarray, window)
    pts = []
    for _ in range(count):
        p = np.array([rng.uniform(lo[i], hi[i]) for i in range(carrier.dimension)])
        p.setflags(write=False)
        pts.append(p)
    return pts


def suite_draws(spec, mu, nu, starts, n_rand):
    """One instance's suite stream drawn one value at a time with next_u64
    and unit: the axiom seeds, the random points of X, those of Y on a
    quadruple, and the starts - 1 probe starts."""
    rng = SplitMix64(spec.seed ^ _SUITE_SALT)
    lo, hi = gen_instance(spec).window

    def points(carrier, count):
        return [[lo[i] + (hi[i] - lo[i]) * unit(rng.next_u64()) for i in range(carrier.dimension)] for _ in range(count)]

    seeds = [rng.next_u64() for _ in dict.fromkeys((mu, nu))]
    random_x = points(mu.carrier, n_rand)
    random_y = points(nu.carrier, n_rand if spec.scheme == "quadruple" else 0)
    return seeds, random_x, random_y, points(mu.carrier, starts - 1)


# ---------------------------------------------------------------------------
# instance generation, one spec and one scalar draw at a time
# ---------------------------------------------------------------------------


def _matrix_with_inf_norm(rng, dim, norm):
    """Random matrix rescaled so its max-row-sum operator norm equals norm."""
    while True:
        m = np.array([[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)])
        current = float(np.max(np.sum(np.abs(m), axis=1)))
        if current > 1e-9:
            return m * (norm / current)


def _scaled_rotation(rng, dim, factor):
    """factor times an orthogonal matrix (a sign on the line)."""
    if dim == 1:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return np.array([[sign * factor]])
    g = np.array([[rng.normal() for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    return factor * q


def _interior_point(rng, dim, radius):
    return np.array([rng.uniform(-radius, radius) for _ in range(dim)])


def gen_instance(spec):
    """The instance of one spec, drawn from SplitMix64(spec.seed) one scalar
    at a time: pair maps that contract into the box (or constant ones), and
    quadruples anchored at a drawn target pair (z0, w0); expansive instances
    take scaled orthogonal matrices."""
    rng = SplitMix64(spec.seed)
    dim, w = spec.dim, spec.halfwidth
    mu, nu = _kind_metrics(spec)
    carrier_x, carrier_y = mu.carrier, nu.carrier

    def draw_factor():
        return rng.uniform(spec.factor_lo, spec.factor_hi)

    def is_constant():
        if spec.family == "constant":
            return True
        if spec.family == "mixed":
            return rng.uniform() < 0.5
        return False

    expected_z = expected_w = None
    if spec.scheme == "pair" and spec.expansive:
        f_t, f_s = draw_factor(), draw_factor()
        t_map = AffineMap(_scaled_rotation(rng, dim, f_t), _interior_point(rng, dim, w), carrier_y)
        s_map = AffineMap(_scaled_rotation(rng, dim, f_s), _interior_point(rng, dim, w), carrier_x)
        problem = MapPair(T=t_map, S=s_map)
    elif spec.scheme == "pair":
        t_const, s_const = is_constant(), is_constant()
        f_t, f_s = draw_factor(), draw_factor()

        def into_box(const, factor, codomain):
            if const:
                return ConstantMap(_interior_point(rng, dim, 0.9 * w), codomain)
            m = _matrix_with_inf_norm(rng, dim, factor)
            return AffineMap(m, _interior_point(rng, dim, (1.0 - factor) * w), codomain)

        t_map = into_box(t_const, f_t, carrier_y)
        s_map = into_box(s_const, f_s, carrier_x)
        problem = MapPair(T=t_map, S=s_map)
        m_t = t_map.matrix if isinstance(t_map, AffineMap) else np.zeros((dim, dim))
        b_t = t_map.offset if isinstance(t_map, AffineMap) else t_map.value
        m_s = s_map.matrix if isinstance(s_map, AffineMap) else np.zeros((dim, dim))
        b_s = s_map.offset if isinstance(s_map, AffineMap) else s_map.value
        expected_z = np.linalg.solve(np.eye(dim) - m_s @ m_t, m_s @ b_t + b_s)
        expected_w = m_t @ expected_z + b_t
    elif spec.expansive:
        maps = []
        for codomain in (carrier_y, carrier_y, carrier_x, carrier_x):
            maps.append(AffineMap(_scaled_rotation(rng, dim, draw_factor()), _interior_point(rng, dim, w), codomain))
        problem = MapQuadruple(*maps)
    else:
        factors = [draw_factor() for _ in range(4)]
        f_max = max(factors)
        radius = w * (1.0 - f_max) / (1.0 + f_max)
        z0 = _interior_point(rng, dim, radius)
        w0 = _interior_point(rng, dim, radius)
        if is_constant():
            a_map = b_map = ConstantMap(w0, carrier_y)
            s_map = t_map = ConstantMap(z0, carrier_x)
        else:
            zero = [spec.family == "mixed" and rng.uniform() < 0.5 for _ in range(4)]

            def anchored(i, src, dst, codomain):
                if zero[i]:
                    return ConstantMap(dst, codomain)
                m = _matrix_with_inf_norm(rng, dim, factors[i])
                return AffineMap(m, dst - m @ src, codomain)

            a_map = anchored(0, z0, w0, carrier_y)
            b_map = anchored(1, z0, w0, carrier_y)
            s_map = anchored(2, w0, z0, carrier_x)
            t_map = anchored(3, w0, z0, carrier_x)
        problem = MapQuadruple(A=a_map, B=b_map, S=s_map, T=t_map)
        expected_z, expected_w = z0, w0
    x0 = _interior_point(rng, dim, w)
    return Instance(spec=spec, problem=problem, mu=mu, nu=nu, x0=x0, expected_z=expected_z, expected_w=expected_w)


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
# t-norms, one pair of operands at a time
# ---------------------------------------------------------------------------


def minimum(a: float, b: float) -> float:
    return a if a <= b else b


def product(a: float, b: float) -> float:
    return a * b


def lukasiewicz(a: float, b: float) -> float:
    # Ordering the operands keeps the unit law a * 1 = a exact in floats:
    # with hi == 1.0 the value is lo + 0.0, never (a + 1) - 1.
    lo, hi = (a, b) if a <= b else (b, a)
    v = lo + (hi - 1.0)
    return v if v > 0.0 else 0.0


TNORMS = {"minimum": minimum, "product": product, "lukasiewicz": lukasiewicz}


def check_tnorm_axioms(op, sample_count, seed):
    """check_tnorm_axioms evaluated one sample at a time; a TNorm is applied
    by its scalar formula above."""
    rng = SplitMix64(seed)
    name = op.kind if isinstance(op, TNorm) else getattr(op, "__name__", "callable")
    if isinstance(op, TNorm):
        op = TNORMS[op.kind]
    report = AxiomReport(subject=f"tnorm:{name}", samples=sample_count, seed=seed)
    for _ in range(sample_count):
        a = rng.uniform()
        b = rng.uniform()
        c = rng.uniform()
        d = rng.uniform()

        report.checks += 1
        comm = abs(op(a, b) - op(b, a))
        if comm > _SLACK:
            report._record("commutativity", (a, b), comm)

        report.checks += 1
        assoc = abs(op(a, op(b, c)) - op(op(a, b), c))
        if assoc > _SLACK:
            report._record("associativity", (a, b, c), assoc)

        report.checks += 1
        unit = op(a, 1.0)
        if unit != a:
            report._record("unit", (a, 1.0), abs(unit - a))

        report.checks += 1
        lo_a, hi_a = min(a, c), max(a, c)
        lo_b, hi_b = min(b, d), max(b, d)
        gap = op(lo_a, lo_b) - op(hi_a, hi_b)
        if gap > _SLACK:
            report._record("monotonicity", (lo_a, lo_b, hi_a, hi_b), gap)
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


def _diameter(carrier, pts) -> float:
    """The largest crisp distance among one problem's points, from one
    carrier.distances call on those points alone."""
    p = np.asarray(pts)
    return float(carrier.distances(p[:, None], p[None]).max())


def compare_fixed_points(mu, nu, results):
    """The uniqueness verdict on the results of one problem's starts, made
    for that problem alone: conclusive iff every start converged, and then
    passed iff the largest distance among the z's and among the w's is at
    most the tolerance."""
    results = tuple(results)
    conclusive = all(r.status == "converged" for r in results)
    max_z = max_w = passed = None
    if conclusive:
        max_z = _diameter(mu.carrier, [r.z for r in results])
        max_w = _diameter(nu.carrier, [r.w for r in results])
        passed = max_z <= _UNIQUENESS_TOL and max_w <= _UNIQUENESS_TOL
    return UniquenessReport(conclusive, passed, max_z, max_w, results)


def full_grid_nearness(runs, fm, d, a, b):
    """The step nearness of fuzzyfp.solver's lock-step judge (_Runs._nearness)
    computed at every grid scale of every step: the columns of the smallest
    and the largest scale, and whether each step reaches 1 - eps on the
    whole grid."""
    rows = fm.mu_from_distances(d, a, b, runs.cfg.grid)
    return rows[..., [0, -1]], (rows >= 1.0 - runs.cfg.eps).all(axis=-1)


def _trace(points, rows, grid):
    nearness = np.array(rows) if rows else np.empty((0, len(grid)))
    return SequenceTrace(points=tuple(points), nearness=nearness, grid=grid)


def conclusions(problem, mu, nu, z, w, grid, tol):
    """The conclusion checks of verify_conclusions: the
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


@dataclass(eq=False)
class RecurrenceReport:
    """Tally of step-recurrence checks along a trace.

    A cell (n, t) violates when k * lhs < rhs - 1e-12.  Violations are
    expected when the contraction hypothesis fails globally.
    """

    k: float
    total_checks: int = 0
    violation_count: int = 0
    worst_margin: float = float("inf")
    worst_witness: tuple | None = None
    by_equation: dict = field(default_factory=dict)


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
    """The pair-scheme step recurrences along a solver trace, one mu_grid
    row per term, n by n.  trace_x holds x_0..x_N and trace_y y_1..y_N:

      x_step: k mu(x_n, x_n+1) >= min{mu(x_n-1, x_n), nu(y_n, y_n+1)}
      y_step: k nu(y_n, y_n+1) >= min{nu(y_n-1, y_n), mu(x_n-1, x_n)}
    """
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
    """The interleaved-scheme recurrences along a solver trace, one
    mu_grid row per term: n by n, each n in the order below, until none
    applies.  trace_x holds x_0..x_M and trace_y y_1..y_M:

      x_even: k mu(x_2n, x_2n+1) >= min{mu(x_2n-1, x_2n), nu(y_2n, y_2n+1)}
      x_odd:  k mu(x_2n-1, x_2n) >= min{mu(x_2n-2, x_2n-1), nu(y_2n-1, y_2n)}
      y_even: k nu(y_2n, y_2n+1) >= min{mu(x_2n+1, x_2n), nu(y_2n-1, y_2n)}
      y_odd:  k nu(y_2n, y_2n-1) >= min{mu(x_2n, x_2n-1), nu(y_2n-2, y_2n-1)}, n >= 2
    """
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


def jsonable(obj):
    """obj as the plain values json writes, in one recursive walk: a TGrid
    as its values, an ndarray as nested lists, a numpy scalar as its Python
    value, a dataclass as a dict of its fields, a tuple as a list; anything
    else is left as it is, for json to write or reject."""
    if isinstance(obj, TGrid):
        obj = obj.values
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj
