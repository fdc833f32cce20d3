"""Scalar reference code for the batched layers and the k_hat estimators.

Each function here is the straightforward loop that the array code in
`fuzzyfp` replaces: one RNG draw, one point, one point pair, one triple or
one iteration start at a time.  The equivalence tests compare the two bit
for bit.  The inequality terms at the end evaluate the contraction
hypotheses at one tuple, the reference that the estimators' ratio arrays
are tested against.
"""

import math
from collections import deque

import numpy as np

from fuzzyfp import BoxSpace, FuzzyMetric, MapPair, SplitMix64, TableFuzzyMetric, TNorm
from fuzzyfp.axioms import _SLACK, AxiomReport
from fuzzyfp.errors import CodomainError
from fuzzyfp.sequences import SequenceTrace
from fuzzyfp.solver import (
    _COLLAPSE,
    FixedPointResult,
    SolveConfig,
    verify_conclusions_pair,
    verify_conclusions_quadruple,
)
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
    """The crisp distance of one point pair, as np.dot computes it."""
    if not isinstance(carrier, BoxSpace):
        return float(carrier.table[int(x), int(y)])
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if carrier.crisp_metric == "euclidean":
        return math.sqrt(float(np.dot(d, d)))
    return float(np.max(np.abs(d)))


def distance_matrix(carrier, pts_a, pts_b):
    """distance() of every pair, one pair at a time."""
    return np.array([[distance(carrier, a, b) for b in pts_b] for a in pts_a])


def mu_grid(fm, x, y, ts):
    """Nearness of one point pair over the scales ts."""
    if isinstance(fm, TableFuzzyMetric):
        return np.interp(np.log(ts), fm._log_grid, fm.values[int(x), int(y)])
    return fm._from_d(distance(fm.carrier, x, y), ts)


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
        dist = self.carrier.distance
        grew = dist(xs[-2], xs[-1]) >= max(dist(xs[-k - 2], xs[-k - 1]) for k in backs)
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
                y = to_y(x)
                if ys:
                    row = nu.mu_grid(ys[-1], y, grid)
                    y_rows.append(row)
                    near = near and bool((row >= 1.0 - eps).all())
                ys.append(y)
                x_prev, x = x, to_x(y)
                xs.append(x)
                row = mu.mu_grid(x_prev, x, grid)
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
    if isinstance(problem, MapPair):
        try:
            w = problem.T(z)
        except CodomainError:
            w = ys[-1] if ys else None
        verify = verify_conclusions_pair
    else:
        w = ys[-1] if ys else None
        verify = verify_conclusions_quadruple
    checks = verify(problem, mu, nu, z, w, grid, cfg.verify_tol) if w is not None else ()
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


# ---------------------------------------------------------------------------
# contraction-hypothesis terms at one tuple
# ---------------------------------------------------------------------------


def pair_inequality_terms(pair, mu: FuzzyMetric, nu: FuzzyMetric, x, x2, t: float):
    """Return (lhs, rhs) of the pair inequality at one tuple.

    lhs = mu(STx, STx', t) without the k factor; rhs is the four-term
    minimum.  The inequality holds with constant k iff k * lhs >= rhs.
    """
    stx = pair.st(x)
    stx2 = pair.st(x2)
    lhs = mu.mu(stx, stx2, t)
    rhs = min(
        mu.mu(x, x2, t),
        mu.mu(x, stx, t),
        mu.mu(x2, stx2, t),
        nu.mu(pair.T(x), pair.T(x2), t),
    )
    return lhs, rhs


def pair_inequality_terms_dual(pair, mu: FuzzyMetric, nu: FuzzyMetric, y, y2, t: float):
    """Mirror of pair_inequality_terms with (mu, ST) and (nu, TS) swapped."""
    tsy = pair.ts(y)
    tsy2 = pair.ts(y2)
    lhs = nu.mu(tsy, tsy2, t)
    rhs = min(
        nu.mu(y, y2, t),
        nu.mu(y, tsy, t),
        nu.mu(y2, tsy2, t),
        mu.mu(pair.S(y), pair.S(y2), t),
    )
    return lhs, rhs


def quad_numerator_primal(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """min of the four nearness products on the primal side."""
    ax = quad.A(x)
    bx2 = quad.B(x2)
    sy = quad.S(y)
    ty2 = quad.T(y2)
    return min(
        mu.mu(x, x2, t) * nu.mu(ax, bx2, t),
        mu.mu(x, x2, t) * mu.mu(sy, ty2, t),
        mu.mu(x, ty2, t) * nu.mu(ax, quad.at(y2), t),
        mu.mu(x2, sy, t) * nu.mu(bx2, quad.bs(y), t),
    )


def quad_numerator_dual(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """min of the four nearness products on the dual side."""
    ax = quad.A(x)
    bx2 = quad.B(x2)
    sy = quad.S(y)
    ty2 = quad.T(y2)
    return min(
        nu.mu(y, y2, t) * mu.mu(sy, ty2, t),
        nu.mu(y, y2, t) * nu.mu(ax, bx2, t),
        nu.mu(y, bx2, t) * mu.mu(sy, quad.tb(x2), t),
        nu.mu(y2, ax, t) * mu.mu(ty2, quad.sa(x), t),
    )


def quad_denominator(quad, mu, nu, x, x2, y, y2, t: float) -> float:
    """Shared denominator: min of four plain nearness values."""
    return min(
        nu.mu(quad.A(x), quad.B(x2), t),
        mu.mu(quad.sa(x), quad.tb(x2), t),
        mu.mu(quad.S(y), quad.T(y2), t),
        nu.mu(quad.bs(y), quad.at(y2), t),
    )


def self_quad_numerator_primal(quad, fm, x, y, t: float) -> float:
    sx = quad.S(x)
    ty = quad.T(y)
    ax = quad.A(x)
    return min(
        fm.mu(sx, ty, t) * fm.mu(ax, quad.bs(x), t),
        fm.mu(sx, quad.tb(y), t) * fm.mu(x, sx, t),
        fm.mu(x, y, t) * fm.mu(quad.sa(x), ty, t),
        fm.mu(x, ty, t) * fm.mu(x, quad.at(y), t),
    )


def self_quad_numerator_dual(quad, fm, x, y, t: float) -> float:
    sx = quad.S(x)
    ty = quad.T(y)
    ax = quad.A(x)
    return min(
        fm.mu(x, sx, t) * fm.mu(x, y, t),
        fm.mu(y, quad.tb(y), t) * fm.mu(y, ax, t),
        fm.mu(quad.sa(x), ty, t) * fm.mu(ax, quad.B(y), t),
        fm.mu(ax, quad.at(y), t) * fm.mu(quad.sa(x), sx, t),
    )


def self_quad_denominator(quad, fm, x, y, t: float) -> float:
    return min(
        fm.mu(quad.A(x), quad.bs(x), t),
        fm.mu(x, quad.sa(x), t),
        fm.mu(quad.S(x), quad.tb(y), t),
        fm.mu(quad.B(y), quad.at(y), t),
    )
