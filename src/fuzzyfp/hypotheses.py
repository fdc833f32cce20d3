"""Contraction-hypothesis evaluation over sampled tuples.

Two problem shapes are covered:

* a pair (T: X -> Y, S: Y -> X) with the coupled inequality
  k * mu(STx, STx', t) >= min{mu(x, x', t), mu(x, STx, t),
  mu(x', STx', t), nu(Tx, Tx', t)} and its dual with the roles of the two
  spaces swapped;

* a quadruple (A, B: X -> Y, S, T: Y -> X) with quotient inequalities
  k * mu(SAx, TBx', t) >= f / h and k * nu(BSy, ATy', t) >= g / h where f,
  g are minima of nearness products and h a shared minimum of plain
  nearness values, admitted only where f < h < 1 (resp. g < h < 1).

k_hat is the largest right/left ratio over a finite sample and a bounded
t-grid; "the hypothesis holds on the sample with constant k" is exactly
k >= k_hat.  For nearness functions induced from a crisp metric, values
approach 1 as t grows, so k_hat itself climbs toward 1 as the grid's t_max
grows; reports therefore record their grid and sample provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptySampleError, UsageError
from .metrics import FuzzyMetric, TGrid
from .sequences import SequenceTrace
from .spaces import DELTA_PT

_VIOL_TOL = 1e-12


@dataclass(eq=False)
class SampleSet:
    """Finite stand-in for universally quantified points.

    points_y may be empty for single-space problems.  exclude_diagonal
    applies to the pair estimator, where tuples with x = x' (within the
    point-equality tolerance) are skipped by default: at such tuples the
    inequality degenerates to k >= mu(x, STx, t), unsatisfiable with k < 1
    at a fixed point.
    """

    points_x: tuple
    grid: TGrid
    points_y: tuple = ()
    exclude_diagonal: bool = True


@dataclass(eq=False)
class HypothesisReport:
    """Best contraction constant found on a sample, with provenance."""

    label: str
    k_hat: float | None
    witness: tuple | None
    evaluated_count: int
    skipped_count: int
    grid: TGrid
    sample_shape: tuple
    exclude_diagonal: bool
    ratios: list | None = None

    @property
    def holds(self) -> bool:
        return self.k_hat is not None and self.k_hat < 1.0


# ---------------------------------------------------------------------------
# pair scheme
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


def _max_with_witness(ratio: np.ndarray, valid: np.ndarray):
    """First-encountered argmax in C order over the valid entries."""
    if not np.any(valid):
        return None, None
    masked = np.where(valid, ratio, -np.inf)
    flat = int(np.argmax(masked))
    idx = np.unravel_index(flat, masked.shape)
    return float(masked[idx]), idx


def estimate_k_pair(
    pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
) -> HypothesisReport:
    """k_hat = max over ordered point pairs and grid scales of rhs / lhs.

    Iteration order for tie-breaking is (x index, x' index, grid index),
    row-major; ties keep the first tuple encountered.
    """
    xs = [mu.carrier.validate_point(p) for p in samples.points_x]
    n = len(xs)
    if n == 0:
        raise EmptySampleError("sample contains no points")
    ts = samples.grid.values
    st = [pair.st(x) for x in xs]
    tx = [pair.T(x) for x in xs]

    lhs = mu.pairwise(st, st, ts)
    m_xx = mu.pairwise(xs, xs, ts)
    m_self = mu.mu_batch(np.asarray(xs), np.asarray(st), ts)
    n_tt = nu.pairwise(tx, tx, ts)
    rhs = np.minimum(
        np.minimum(m_xx, m_self[:, None, :]),
        np.minimum(m_self[None, :, :], n_tt),
    )
    ratio = rhs / lhs

    valid = np.ones((n, n), dtype=bool)
    if samples.exclude_diagonal:
        pts = np.asarray(xs)
        valid = mu.carrier.distances(pts[:, None], pts[None]) > DELTA_PT
    valid3 = np.broadcast_to(valid[:, :, None], ratio.shape)

    k_hat, idx = _max_with_witness(ratio, valid3)
    if k_hat is None:
        raise EmptySampleError("every tuple of the sample was skipped")
    i, j, k = idx
    witness = (xs[i], xs[j], float(ts[k]))
    evaluated = int(np.count_nonzero(valid)) * ts.size
    skipped = (n * n - int(np.count_nonzero(valid))) * ts.size
    dump = None
    if keep_ratios:
        dump = [
            (a, b, float(ts[c]), float(ratio[a, b, c]))
            for a in range(n)
            for b in range(n)
            for c in range(ts.size)
            if valid[a, b]
        ]
    return HypothesisReport(
        label="pair",
        k_hat=k_hat,
        witness=witness,
        evaluated_count=evaluated,
        skipped_count=skipped,
        grid=samples.grid,
        sample_shape=(n,),
        exclude_diagonal=samples.exclude_diagonal,
        ratios=dump,
    )


def estimate_k_pair_dual(
    pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
) -> HypothesisReport:
    """Dual-side estimate over points_y, via the exact role swap
    (T, S, mu, nu) -> (S, T, nu, mu)."""
    from .mappings import MapPair

    swapped = MapPair(T=pair.S, S=pair.T)
    ysamples = SampleSet(
        points_x=tuple(samples.points_y),
        grid=samples.grid,
        exclude_diagonal=samples.exclude_diagonal,
    )
    report = estimate_k_pair(swapped, nu, mu, ysamples, keep_ratios)
    report.label = "pair-dual"
    return report


# ---------------------------------------------------------------------------
# quadruple scheme (two spaces)
# ---------------------------------------------------------------------------


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


def _quad_matrices(quad, mu, nu, xs, ys, ts):
    """Pairwise nearness matrices shared by the quadruple estimator."""
    ax = [quad.A(x) for x in xs]
    bx = [quad.B(x) for x in xs]
    sax = [quad.S(a) for a in ax]
    tbx = [quad.T(b) for b in bx]
    sy = [quad.S(y) for y in ys]
    ty = [quad.T(y) for y in ys]
    bsy = [quad.B(s) for s in sy]
    aty = [quad.A(t_) for t_ in ty]
    return {
        "mu_xx": mu.pairwise(xs, xs, ts),  # (i, j)
        "mu_sy_ty": mu.pairwise(sy, ty, ts),  # (k, l)
        "mu_x_ty": mu.pairwise(xs, ty, ts),  # (i, l)
        "mu_x_sy": mu.pairwise(xs, sy, ts),  # (j, k) indexed [x2, y]
        "mu_sax_tbx": mu.pairwise(sax, tbx, ts),  # (i, j)
        "mu_sy_tbx": mu.pairwise(sy, tbx, ts),  # (k, j)
        "mu_ty_sax": mu.pairwise(ty, sax, ts),  # (l, i)
        "nu_ax_bx": nu.pairwise(ax, bx, ts),  # (i, j)
        "nu_ax_aty": nu.pairwise(ax, aty, ts),  # (i, l)
        "nu_bx_bsy": nu.pairwise(bx, bsy, ts),  # (j, k)
        "nu_yy": nu.pairwise(ys, ys, ts),  # (k, l)
        "nu_y_bx": nu.pairwise(ys, bx, ts),  # (k, j)
        "nu_y_ax": nu.pairwise(ys, ax, ts),  # (l, i)
        "nu_bsy_aty": nu.pairwise(bsy, aty, ts),  # (k, l)
    }


def estimate_k_quad(
    quad, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
):
    """Estimate k_hat for both quotient inequalities of the quadruple.

    Tuples (x, x', y, y') x grid are admitted for the primal inequality only
    where f < h < 1 and for the dual only where g < h < 1; ties f = h are
    skipped.  Returns (primal report, dual report); a side with no
    admissible tuple gets k_hat = None.  Raises EmptySampleError when both
    sides are empty.
    """
    xs = [mu.carrier.validate_point(p) for p in samples.points_x]
    ys = [nu.carrier.validate_point(p) for p in samples.points_y]
    if not xs or not ys:
        raise EmptySampleError("quadruple sample needs points in both spaces")
    ts = samples.grid.values
    nx, ny, nt = len(xs), len(ys), ts.size
    m = _quad_matrices(quad, mu, nu, xs, ys, ts)

    def ij(a):  # (i, j, 1, 1, t)
        return a[:, :, None, None, :]

    def kl(a):  # (1, 1, k, l, t)
        return a[None, None, :, :, :]

    def il(a):  # (i, 1, 1, l, t)
        return a[:, None, None, :, :]

    def jk(a):  # (1, j, k, 1, t)  from an (x-index, y-index) matrix
        return a[None, :, :, None, :]

    def kj(a):  # (1, j, k, 1, t)  from a (y-index, x-index) matrix
        return a.transpose(1, 0, 2)[None, :, :, None, :]

    def li(a):  # (i, 1, 1, l, t)  from a (y-index, x-index) matrix
        return a.transpose(1, 0, 2)[:, None, None, :, :]

    f = np.minimum(
        np.minimum(ij(m["mu_xx"] * m["nu_ax_bx"]), ij(m["mu_xx"]) * kl(m["mu_sy_ty"])),
        np.minimum(il(m["mu_x_ty"] * m["nu_ax_aty"]), jk(m["mu_x_sy"] * m["nu_bx_bsy"])),
    )
    g = np.minimum(
        np.minimum(kl(m["nu_yy"] * m["mu_sy_ty"]), kl(m["nu_yy"]) * ij(m["nu_ax_bx"])),
        np.minimum(kj(m["nu_y_bx"] * m["mu_sy_tbx"]), li(m["nu_y_ax"] * m["mu_ty_sax"])),
    )
    h = np.minimum(
        np.minimum(ij(m["nu_ax_bx"]), ij(m["mu_sax_tbx"])),
        np.minimum(kl(m["mu_sy_ty"]), kl(m["nu_bsy_aty"])),
    )
    lhs_primal = np.broadcast_to(ij(m["mu_sax_tbx"]), h.shape)
    lhs_dual = np.broadcast_to(kl(m["nu_bsy_aty"]), h.shape)

    shape = (nx, nx, ny, ny, nt)
    f = np.broadcast_to(f, shape)
    g = np.broadcast_to(g, shape)
    h = np.broadcast_to(h, shape)

    def one_side(num, lhs, label):
        valid = (num < h) & (h < 1.0)
        ratio = np.where(valid, (num / h) / lhs, -np.inf)
        k_hat, idx = _max_with_witness(ratio, valid)
        evaluated = int(np.count_nonzero(valid))
        witness = None
        if idx is not None:
            i, j, k, l, c = idx
            witness = (xs[i], xs[j], ys[k], ys[l], float(ts[c]))
        dump = None
        if keep_ratios and evaluated:
            idxs = np.argwhere(valid)
            dump = [
                (int(a), int(b), int(c), int(d), float(ts[e]), float(ratio[a, b, c, d, e]))
                for a, b, c, d, e in idxs
            ]
        return HypothesisReport(
            label=label,
            k_hat=k_hat,
            witness=witness,
            evaluated_count=evaluated,
            skipped_count=int(np.prod(shape)) - evaluated,
            grid=samples.grid,
            sample_shape=(nx, ny),
            exclude_diagonal=samples.exclude_diagonal,
            ratios=dump,
        )

    primal = one_side(f, lhs_primal, "quad-primal")
    dual = one_side(g, lhs_dual, "quad-dual")
    if primal.k_hat is None and dual.k_hat is None:
        raise EmptySampleError("every quadruple tuple was skipped (no f,g < h < 1)")
    return primal, dual


# ---------------------------------------------------------------------------
# self-map quadruple (single space)
# ---------------------------------------------------------------------------


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


def estimate_k_self_quad(
    quad, fm: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
):
    """Single-space analogue of estimate_k_quad over ordered pairs (x, y).

    y-points default to the x-point list when points_y is empty.
    """
    xs = [fm.carrier.validate_point(p) for p in samples.points_x]
    ys = [fm.carrier.validate_point(p) for p in samples.points_y] or xs
    if not xs:
        raise EmptySampleError("sample contains no points")
    ts = samples.grid.values
    nx, ny, nt = len(xs), len(ys), ts.size

    ax = [quad.A(p) for p in xs]
    sx = [quad.S(p) for p in xs]
    sax = [quad.sa(p) for p in xs]
    bsx = [quad.bs(p) for p in xs]
    ty = [quad.T(p) for p in ys]
    by = [quad.B(p) for p in ys]
    tby = [quad.tb(p) for p in ys]
    aty = [quad.at(p) for p in ys]

    def vec(pa, pb):  # per-x or per-y aligned vector, shape (n, K)
        return fm.mu_batch(np.asarray(pa), np.asarray(pb), ts)

    mu_sx_ty = fm.pairwise(sx, ty, ts)  # (i, j)
    mu_ax_bsx = vec(ax, bsx)  # (i,)
    mu_sx_tby = fm.pairwise(sx, tby, ts)  # (i, j)
    mu_x_sx = vec(xs, sx)  # (i,)
    mu_xy = fm.pairwise(xs, ys, ts)  # (i, j)
    mu_sax_ty = fm.pairwise(sax, ty, ts)  # (i, j)
    mu_x_ty = fm.pairwise(xs, ty, ts)  # (i, j)
    mu_x_aty = fm.pairwise(xs, aty, ts)  # (i, j)
    mu_y_tby = vec(ys, tby)  # (j,)
    mu_y_ax = fm.pairwise(ys, ax, ts)  # (j, i)
    mu_ax_by = fm.pairwise(ax, by, ts)  # (i, j)
    mu_ax_aty = fm.pairwise(ax, aty, ts)  # (i, j)
    mu_sax_sx = vec(sax, sx)  # (i,)
    mu_x_sax = vec(xs, sax)  # (i,)
    mu_by_aty = vec(by, aty)  # (j,)
    mu_sax_tby = fm.pairwise(sax, tby, ts)  # (i, j)
    mu_bsx_aty = fm.pairwise(bsx, aty, ts)  # (i, j)

    def vi(a):  # (i, 1, t)
        return a[:, None, :]

    def vj(a):  # (1, j, t)
        return a[None, :, :]

    f = np.minimum(
        np.minimum(mu_sx_ty * vi(mu_ax_bsx), mu_sx_tby * vi(mu_x_sx)),
        np.minimum(mu_xy * mu_sax_ty, mu_x_ty * mu_x_aty),
    )
    g = np.minimum(
        np.minimum(vi(mu_x_sx) * mu_xy, vj(mu_y_tby) * mu_y_ax.transpose(1, 0, 2)),
        np.minimum(mu_sax_ty * mu_ax_by, mu_ax_aty * vi(mu_sax_sx)),
    )
    h = np.minimum(
        np.minimum(vi(mu_ax_bsx), vi(mu_x_sax)),
        np.minimum(mu_sx_tby, vj(mu_by_aty)),
    )

    def one_side(num, lhs, label):
        valid = (num < h) & (h < 1.0)
        ratio = np.where(valid, (num / h) / lhs, -np.inf)
        k_hat, idx = _max_with_witness(ratio, valid)
        evaluated = int(np.count_nonzero(valid))
        witness = None
        if idx is not None:
            i, j, c = idx
            witness = (xs[i], ys[j], float(ts[c]))
        dump = None
        if keep_ratios and evaluated:
            idxs = np.argwhere(valid)
            dump = [
                (int(a), int(b), float(ts[c]), float(ratio[a, b, c]))
                for a, b, c in idxs
            ]
        return HypothesisReport(
            label=label,
            k_hat=k_hat,
            witness=witness,
            evaluated_count=evaluated,
            skipped_count=nx * ny * nt - evaluated,
            grid=samples.grid,
            sample_shape=(nx, ny),
            exclude_diagonal=samples.exclude_diagonal,
            ratios=dump,
        )

    primal = one_side(f, mu_sax_tby, "self-quad-primal")
    dual = one_side(g, mu_bsx_aty, "self-quad-dual")
    if primal.k_hat is None and dual.k_hat is None:
        raise EmptySampleError("every self-quadruple tuple was skipped")
    return primal, dual


# ---------------------------------------------------------------------------
# trace recurrence validation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RecurrenceReport:
    """Diagnostic tally of step-recurrence checks along a trace.

    A cell (n, t) violates when k * lhs < rhs - 1e-12.  Violations are
    expected when the contraction hypothesis fails globally; this is a
    diagnostic, not an assertion.
    """

    k: float
    total_checks: int = 0
    violation_count: int = 0
    worst_margin: float = float("inf")
    worst_witness: tuple | None = None
    by_equation: dict = field(default_factory=dict)

    def _tally(self, equation: str, n: int, ts, lhs_row, rhs_row):
        margins = self.k * lhs_row - rhs_row
        self.total_checks += margins.size
        bad = margins < -_VIOL_TOL
        count = int(np.count_nonzero(bad))
        if count:
            self.violation_count += count
            self.by_equation[equation] = self.by_equation.get(equation, 0) + count
        worst = int(np.argmin(margins))
        if margins[worst] < self.worst_margin:
            self.worst_margin = float(margins[worst])
            self.worst_witness = (equation, n, float(ts[worst]))


def _check_k(k: float):
    if not (0.0 < k < 1.0):
        raise DomainError("recurrence constant k must lie in (0, 1)")


def check_recurrence_pair(
    trace_x: SequenceTrace,
    trace_y: SequenceTrace,
    mu: FuzzyMetric,
    nu: FuzzyMetric,
    k: float,
    grid: TGrid,
) -> RecurrenceReport:
    """Validate the pair-scheme step recurrences along a trace.

    trace_x holds x_0..x_N; trace_y holds y_1..y_N (index base 1, as the
    solver produces).  For each interior n:

      x_step: k * mu(x_n, x_{n+1}, t) >= min{mu(x_{n-1}, x_n, t),
              nu(y_n, y_{n+1}, t)}
      y_step: k * nu(y_n, y_{n+1}, t) >= min{nu(y_{n-1}, y_n, t),
              mu(x_{n-1}, x_n, t)}
    """
    _check_k(k)
    if len(trace_x) < 2:
        raise UsageError("trace too short for recurrence checks")
    xs = trace_x.points
    ys = trace_y.points  # ys[i] is y_{i+1}
    ts = grid.values
    report = RecurrenceReport(k=k)

    def y_at(n):  # y_n for n >= 1
        return ys[n - 1]

    max_n = min(len(xs) - 2, len(ys) - 1)
    for n in range(1, max_n + 1):
        lhs = mu.mu_grid(xs[n], xs[n + 1], ts)
        rhs = np.minimum(
            mu.mu_grid(xs[n - 1], xs[n], ts), nu.mu_grid(y_at(n), y_at(n + 1), ts)
        )
        report._tally("x_step", n, ts, lhs, rhs)
    for n in range(2, len(ys)):
        lhs = nu.mu_grid(y_at(n), y_at(n + 1), ts)
        rhs = np.minimum(
            nu.mu_grid(y_at(n - 1), y_at(n), ts), mu.mu_grid(xs[n - 1], xs[n], ts)
        )
        report._tally("y_step", n, ts, lhs, rhs)
    return report


def check_recurrence_quad(
    trace_x: SequenceTrace,
    trace_y: SequenceTrace,
    quad,
    mu: FuzzyMetric,
    nu: FuzzyMetric,
    k: float,
    grid: TGrid,
) -> RecurrenceReport:
    """Validate the four interleaved-scheme recurrences along a trace.

    Index conventions follow the solver: trace_x holds x_0..x_M and
    trace_y holds y_1..y_M.  The quadruple is used to confirm the trace
    actually follows the interleaved scheme before checking.
    """
    _check_k(k)
    if len(trace_x) < 2:
        raise UsageError("trace too short for recurrence checks")
    xs = trace_x.points
    ys = trace_y.points
    if len(ys) >= 1:
        probe = quad.A(xs[0])
        if nu.carrier.distance(probe, ys[0]) > DELTA_PT:
            raise UsageError("trace does not follow the interleaved scheme")
    ts = grid.values
    report = RecurrenceReport(k=k)

    def x(n):
        return xs[n]

    def y(n):
        return ys[n - 1]

    def have_x(n):
        return 0 <= n < len(xs)

    def have_y(n):
        return 1 <= n <= len(ys)

    n = 1
    while True:
        did_any = False
        # x_even: k mu(x_2n, x_2n+1) >= min{mu(x_2n-1, x_2n), nu(y_2n, y_2n+1)}
        if have_x(2 * n + 1) and have_y(2 * n + 1):
            lhs = mu.mu_grid(x(2 * n), x(2 * n + 1), ts)
            rhs = np.minimum(
                mu.mu_grid(x(2 * n - 1), x(2 * n), ts),
                nu.mu_grid(y(2 * n), y(2 * n + 1), ts),
            )
            report._tally("x_even", n, ts, lhs, rhs)
            did_any = True
        # x_odd: k mu(x_2n-1, x_2n) >= min{mu(x_2n-2, x_2n-1), nu(y_2n-1, y_2n)}
        if have_x(2 * n) and have_y(2 * n):
            lhs = mu.mu_grid(x(2 * n - 1), x(2 * n), ts)
            rhs = np.minimum(
                mu.mu_grid(x(2 * n - 2), x(2 * n - 1), ts),
                nu.mu_grid(y(2 * n - 1), y(2 * n), ts),
            )
            report._tally("x_odd", n, ts, lhs, rhs)
            did_any = True
        # y_even: k nu(y_2n, y_2n+1) >= min{mu(x_2n+1, x_2n), nu(y_2n-1, y_2n)}
        if have_x(2 * n + 1) and have_y(2 * n + 1):
            lhs = nu.mu_grid(y(2 * n), y(2 * n + 1), ts)
            rhs = np.minimum(
                mu.mu_grid(x(2 * n + 1), x(2 * n), ts),
                nu.mu_grid(y(2 * n - 1), y(2 * n), ts),
            )
            report._tally("y_even", n, ts, lhs, rhs)
            did_any = True
        # y_odd: k nu(y_2n, y_2n-1) >= min{mu(x_2n, x_2n-1), nu(y_2n-2, y_2n-1)}
        if n >= 2 and have_x(2 * n) and have_y(2 * n):
            lhs = nu.mu_grid(y(2 * n), y(2 * n - 1), ts)
            rhs = np.minimum(
                mu.mu_grid(x(2 * n), x(2 * n - 1), ts),
                nu.mu_grid(y(2 * n - 2), y(2 * n - 1), ts),
            )
            report._tally("y_odd", n, ts, lhs, rhs)
            did_any = True
        if not did_any:
            break
        n += 1
    return report
