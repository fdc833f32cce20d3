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


def _report(label, ratio, valid, axes, samples, sample_shape, keep_ratios) -> HypothesisReport:
    """The report of one inequality over an array of ratios.

    ratio's last axis is the grid and the others index the point lists in
    axes; valid broadcasts to ratio's shape.  k_hat is the largest valid
    ratio and its witness the first such cell in C order; the kept ratios
    list every valid cell in C order.  k_hat is None when no cell is valid.
    """
    ts = samples.grid.values
    valid = np.broadcast_to(valid, ratio.shape)
    evaluated = int(np.count_nonzero(valid))
    k_hat = witness = dump = None
    if evaluated:
        masked = np.where(valid, ratio, -np.inf)
        idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
        k_hat = float(masked[idx])
        witness = tuple(pts[i] for pts, i in zip(axes, idx)) + (float(ts[idx[-1]]),)
        if keep_ratios:
            t_list = ts.tolist()
            dump = [
                (*cell[:-1], t_list[cell[-1]], r)
                for cell, r in zip(np.argwhere(valid).tolist(), ratio[valid].tolist())
            ]
    return HypothesisReport(
        label=label,
        k_hat=k_hat,
        witness=witness,
        evaluated_count=evaluated,
        skipped_count=ratio.size - evaluated,
        grid=samples.grid,
        sample_shape=sample_shape,
        exclude_diagonal=samples.exclude_diagonal,
        ratios=dump,
    )


def _quotient_reports(prefix, f, g, h, lhs, axes, samples, keep_ratios, empty_message):
    """Primal and dual reports of k * lhs >= f / h and k * lhs' >= g / h over
    (x-sample, y-sample) tuples, each admitted only where num < h < 1
    (ties num = h are skipped)."""
    reports = tuple(
        _report(
            f"{prefix}-{side}",
            (num / h) / side_lhs,
            (num < h) & (h < 1.0),
            axes,
            samples,
            (len(axes[0]), len(axes[-1])),
            keep_ratios,
        )
        for side, num, side_lhs in zip(("primal", "dual"), (f, g), lhs)
    )
    if all(r.k_hat is None for r in reports):
        raise EmptySampleError(empty_message)
    return reports


# ---------------------------------------------------------------------------
# pair scheme
# ---------------------------------------------------------------------------


def estimate_k_pair(
    pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
) -> HypothesisReport:
    """k_hat = max over ordered point pairs and grid scales of rhs / lhs,
    where lhs = mu(STx, STx', t) and rhs is the four-term minimum.

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

    valid = True
    if samples.exclude_diagonal:
        pts = np.asarray(xs)
        valid = (mu.carrier.distances(pts[:, None], pts[None]) > DELTA_PT)[:, :, None]
    report = _report("pair", rhs / lhs, valid, (xs, xs), samples, (n,), keep_ratios)
    if report.k_hat is None:
        raise EmptySampleError("every tuple of the sample was skipped")
    return report


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
    return _quotient_reports(
        "quad",
        f,
        g,
        h,
        (ij(m["mu_sax_tbx"]), kl(m["nu_bsy_aty"])),
        (xs, xs, ys, ys),
        samples,
        keep_ratios,
        "every quadruple tuple was skipped (no f,g < h < 1)",
    )


# ---------------------------------------------------------------------------
# self-map quadruple (single space)
# ---------------------------------------------------------------------------


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

    return _quotient_reports(
        "self-quad",
        f,
        g,
        h,
        (mu_sax_tby, mu_bsx_aty),
        (xs, ys),
        samples,
        keep_ratios,
        "every self-quadruple tuple was skipped",
    )


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
