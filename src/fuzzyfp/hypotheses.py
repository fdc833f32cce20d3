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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptySampleError, UsageError
from .mappings import ComposedMap, MapPair
from .metrics import FuzzyMetric, TGrid
from .sequences import SequenceTrace
from .spaces import DELTA_PT, validate_points

_VIOL_TOL = 1e-12

# Bytes of one float array over a block of leading sample indices: the
# estimators hold about ten such arrays at a time.  Picked by timing
# hypotheses-wide; smaller blocks pay more per-block overhead, larger ones
# fall out of cache.
_BLOCK_BYTES = 1 << 18


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


@np.errstate(over="ignore")  # an image that overflows escapes, and the error says so
def _images(mapping, pts):
    """The mapping at each row of pts; if a row escapes the codomain, the
    call on the first such point raises its CodomainError."""
    out, escaped = mapping.rows(pts)
    if escaped is not None:
        mapping(pts[int(np.argmax(escaped))])
    return out


def _reports(labels, evaluate, axes, samples, sample_shape, keep_ratios):
    """One report per label, over tuples of the point arrays in axes and the grid.

    evaluate(s) gives one (ratio, valid) pair per label on the slice s of
    the leading index; valid broadcasts to ratio's shape.  The slices are
    blocks of about _BLOCK_BYTES per float array.  k_hat is the largest
    valid ratio and its witness the first such cell in C order (the first
    NaN if there is one, as np.argmax picks); the kept ratios list every
    valid cell in C order.  k_hat is None when no cell is valid.  A
    floating-point warning that several blocks raise is shown once.
    """
    ts = samples.grid.values
    t_list = ts.tolist()
    shape = tuple(len(a) for a in axes) + ts.shape
    step = max(1, _BLOCK_BYTES // (8 * math.prod(shape[1:])))
    best = [None] * len(labels)  # (ratio, cell) of each label
    evaluated = [0] * len(labels)
    dumps = [[] for _ in labels]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for start in range(0, shape[0], step):
            for side, (ratio, valid) in enumerate(evaluate(slice(start, start + step))):
                valid = np.broadcast_to(valid, ratio.shape)
                evaluated[side] += int(np.count_nonzero(valid))
                masked = np.where(valid, ratio, -np.inf)
                cell = np.unravel_index(int(np.argmax(masked)), masked.shape)
                r = masked[cell]
                if best[side] is None or not np.isnan(best[side][0]) and (np.isnan(r) or r > best[side][0]):
                    best[side] = (r, (start + cell[0],) + cell[1:])
                if keep_ratios:
                    cells = np.argwhere(valid)
                    cells[:, 0] += start
                    dumps[side] += [
                        (*c[:-1], t_list[c[-1]], v) for c, v in zip(cells.tolist(), ratio[valid].tolist())
                    ]
    registry = globals().setdefault("__warningregistry__", {})  # as warnings.warn uses it here
    for w in {(str(w.message), w.category, w.filename, w.lineno): w for w in caught}.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
    return tuple(
        HypothesisReport(
            label=label,
            k_hat=float(r) if count else None,
            witness=tuple(pts[i] for pts, i in zip(axes, cell)) + (float(ts[cell[-1]]),) if count else None,
            evaluated_count=count,
            skipped_count=math.prod(shape) - count,
            grid=samples.grid,
            sample_shape=sample_shape,
            exclude_diagonal=samples.exclude_diagonal,
            ratios=dump if count and keep_ratios else None,
        )
        for label, (r, cell), count, dump in zip(labels, best, evaluated, dumps)
    )


def _quotient_reports(prefix, terms, axes, samples, keep_ratios, empty_message):
    """Primal and dual reports of k * lhs >= f / h and k * lhs' >= g / h,
    where terms(s) gives (f, g, h, (lhs, lhs')) on the slice s of the
    leading index; each side is admitted only where num < h < 1 (ties
    num = h are skipped)."""

    def evaluate(s):
        f, g, h, lhs = terms(s)
        return [((num / h) / side_lhs, (num < h) & (h < 1.0)) for num, side_lhs in zip((f, g), lhs)]

    labels = (f"{prefix}-primal", f"{prefix}-dual")
    reports = _reports(labels, evaluate, axes, samples, (len(axes[0]), len(axes[-1])), keep_ratios)
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
    xs = validate_points(mu.carrier, samples.points_x)
    n = len(xs)
    if n == 0:
        raise EmptySampleError("sample contains no points")
    ts = samples.grid.values
    st = _images(ComposedMap(pair.S, pair.T), xs)
    tx = _images(pair.T, xs)
    m_self = mu.mu_batch(xs, st, ts)

    def evaluate(s):
        rhs = np.minimum(
            np.minimum(mu.pairwise(xs[s], xs, ts), m_self[s, None, :]),
            np.minimum(m_self[None, :, :], nu.pairwise(tx[s], tx, ts)),
        )
        valid = True
        if samples.exclude_diagonal:
            valid = (mu.carrier.distances(xs[s, None], xs[None]) > DELTA_PT)[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):  # x/0 = inf and 0/0 = NaN cells are kept
            return [(rhs / mu.pairwise(st[s], st, ts), valid)]

    (report,) = _reports(("pair",), evaluate, (xs, xs), samples, (n,), keep_ratios)
    if report.k_hat is None:
        raise EmptySampleError("every tuple of the sample was skipped")
    return report


def estimate_k_pair_dual(
    pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
) -> HypothesisReport:
    """Dual-side estimate over points_y, via the exact role swap
    (T, S, mu, nu) -> (S, T, nu, mu)."""
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
    ax = _images(quad.A, xs)
    bx = _images(quad.B, xs)
    sax = _images(quad.S, ax)
    tbx = _images(quad.T, bx)
    sy = _images(quad.S, ys)
    ty = _images(quad.T, ys)
    bsy = _images(quad.B, sy)
    aty = _images(quad.A, ty)
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
    xs = validate_points(mu.carrier, samples.points_x)
    ys = validate_points(nu.carrier, samples.points_y)
    if not len(xs) or not len(ys):
        raise EmptySampleError("quadruple sample needs points in both spaces")
    ts = samples.grid.values
    m = _quad_matrices(quad, mu, nu, xs, ys, ts)

    def kl(a):  # (1, 1, k, l, t)
        return a[None, None, :, :, :]

    def jk(a):  # (1, j, k, 1, t)  from an (x-index, y-index) matrix
        return a[None, :, :, None, :]

    def kj(a):  # (1, j, k, 1, t)  from a (y-index, x-index) matrix
        return a.transpose(1, 0, 2)[None, :, :, None, :]

    def terms(s):  # on the slice s of the x index i
        def ij(a):  # (i, j, 1, 1, t)
            return a[s, :, None, None, :]

        def il(a):  # (i, 1, 1, l, t)
            return a[s, None, None, :, :]

        def li(a):  # (i, 1, 1, l, t)  from a (y-index, x-index) matrix
            return a[:, s].transpose(1, 0, 2)[:, None, None, :, :]

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
        return f, g, h, (ij(m["mu_sax_tbx"]), kl(m["nu_bsy_aty"]))

    empty = "every quadruple tuple was skipped (no f,g < h < 1)"
    return _quotient_reports("quad", terms, (xs, xs, ys, ys), samples, keep_ratios, empty)


# ---------------------------------------------------------------------------
# self-map quadruple (single space)
# ---------------------------------------------------------------------------


def estimate_k_self_quad(
    quad, fm: FuzzyMetric, samples: SampleSet, keep_ratios: bool = False
):
    """Single-space analogue of estimate_k_quad over ordered pairs (x, y).

    y-points default to the x-point list when points_y is empty.
    """
    xs = validate_points(fm.carrier, samples.points_x)
    ys = validate_points(fm.carrier, samples.points_y) if len(samples.points_y) else xs
    if not len(xs):
        raise EmptySampleError("sample contains no points")
    ts = samples.grid.values

    ax = _images(quad.A, xs)
    sx = _images(quad.S, xs)
    sax = _images(quad.S, ax)
    bsx = _images(quad.B, sx)
    ty = _images(quad.T, ys)
    by = _images(quad.B, ys)
    tby = _images(quad.T, by)
    aty = _images(quad.A, ty)

    def vec(pa, pb):  # per-x or per-y aligned vector, shape (n, K)
        return fm.mu_batch(pa, pb, ts)

    mu_ax_bsx = vec(ax, bsx)  # (i,)
    mu_x_sx = vec(xs, sx)  # (i,)
    mu_y_tby = vec(ys, tby)  # (j,)
    mu_sax_sx = vec(sax, sx)  # (i,)
    mu_x_sax = vec(xs, sax)  # (i,)
    mu_by_aty = vec(by, aty)  # (j,)

    def terms(s):  # on the slice s of the x index i
        def ij(a, b):  # (i, j) pairwise matrix
            return fm.pairwise(a[s], b, ts)

        def vi(a):  # (i, 1, t)
            return a[s, None, :]

        def vj(a):  # (1, j, t)
            return a[None, :, :]

        mu_sx_tby = ij(sx, tby)
        mu_xy = ij(xs, ys)
        mu_sax_ty = ij(sax, ty)
        mu_ax_aty = ij(ax, aty)
        f = np.minimum(
            np.minimum(ij(sx, ty) * vi(mu_ax_bsx), mu_sx_tby * vi(mu_x_sx)),
            np.minimum(mu_xy * mu_sax_ty, ij(xs, ty) * ij(xs, aty)),
        )
        g = np.minimum(
            np.minimum(vi(mu_x_sx) * mu_xy, vj(mu_y_tby) * fm.pairwise(ys, ax[s], ts).transpose(1, 0, 2)),
            np.minimum(mu_sax_ty * ij(ax, by), mu_ax_aty * vi(mu_sax_sx)),
        )
        h = np.minimum(
            np.minimum(vi(mu_ax_bsx), vi(mu_x_sax)),
            np.minimum(mu_sx_tby, vj(mu_by_aty)),
        )
        return f, g, h, (ij(sax, tby), ij(bsx, aty))

    empty = "every self-quadruple tuple was skipped"
    return _quotient_reports("self-quad", terms, (xs, ys), samples, keep_ratios, empty)


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


def _check_args(k: float, trace_x: SequenceTrace):
    if not (0.0 < k < 1.0):
        raise DomainError("recurrence constant k must lie in (0, 1)")
    if len(trace_x) < 2:
        raise UsageError("trace too short for recurrence checks")


def _steps(fm: FuzzyMetric, pts, ts, backward=False) -> np.ndarray:
    """Row i: fm(p_i, p_{i+1}) over ts, or fm(p_{i+1}, p_i) if backward."""
    if len(pts) < 2:
        return np.empty((0, len(ts)))
    a, b = np.asarray(pts[:-1]), np.asarray(pts[1:])
    return fm.mu_batch(b, a, ts) if backward else fm.mu_batch(a, b, ts)


def _tally(k: float, ts, equations, n_major: bool) -> RecurrenceReport:
    """The report of k * lhs >= rhs over the rows of equations, a list of
    (name, ns, lhs, rhs) with one row per n.  Rows are visited equation by
    equation, or n by n with the equations in list order when n_major; the
    worst witness is the first cell of least margin in that order.  A row
    whose first least margin is NaN gives no witness."""
    report = RecurrenceReport(k=k)
    names = [name for name, *_ in equations]
    eq = np.repeat(np.arange(len(equations)), [len(ns) for _, ns, _, _ in equations])
    ns = np.concatenate([ns for _, ns, _, _ in equations])
    order = np.lexsort((eq, ns) if n_major else (ns, eq))
    lhs, rhs = (np.concatenate([e[i] for e in equations])[order] for i in (2, 3))
    eq, ns, margins = eq[order], ns[order], k * lhs - rhs
    if not len(margins):
        return report
    bad = np.count_nonzero(margins < -_VIOL_TOL, axis=1)
    report.total_checks = margins.size
    report.violation_count = int(bad.sum())
    counts = np.bincount(eq, weights=bad, minlength=len(names))
    hit = dict.fromkeys(eq[bad > 0].tolist())  # equations with a violation, in visiting order
    report.by_equation = {names[e]: int(counts[e]) for e in hit}
    cols = np.argmin(margins, axis=1)
    row_worst = margins[np.arange(len(margins)), cols]
    row_worst[np.isnan(row_worst)] = np.inf
    r = int(np.argmin(row_worst))
    if row_worst[r] < report.worst_margin:
        report.worst_margin = float(row_worst[r])
        report.worst_witness = (names[eq[r]], int(ns[r]), float(ts[cols[r]]))
    return report


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

    Rows are visited x_step for every n, then y_step for every n.
    """
    _check_args(k, trace_x)
    ts = grid.values
    mx = _steps(mu, trace_x.points, ts)  # row n: mu(x_n, x_{n+1})
    ny = _steps(nu, trace_y.points, ts)  # row n - 1: nu(y_n, y_{n+1})
    n_x = np.arange(1, min(len(mx) - 1, len(ny)) + 1)
    n_y = np.arange(2, len(ny) + 1)
    equations = [
        ("x_step", n_x, mx[n_x], np.minimum(mx[n_x - 1], ny[n_x - 1])),
        ("y_step", n_y, ny[n_y - 1], np.minimum(ny[n_y - 2], mx[n_y - 1])),
    ]
    return _tally(k, ts, equations, n_major=False)


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
    actually follows the interleaved scheme before checking.  For each n,
    as far as the trace reaches:

      x_even: k mu(x_2n, x_2n+1) >= min{mu(x_2n-1, x_2n), nu(y_2n, y_2n+1)}
      x_odd:  k mu(x_2n-1, x_2n) >= min{mu(x_2n-2, x_2n-1), nu(y_2n-1, y_2n)}
      y_even: k nu(y_2n, y_2n+1) >= min{mu(x_2n+1, x_2n), nu(y_2n-1, y_2n)}
      y_odd:  k nu(y_2n, y_2n-1) >= min{mu(x_2n, x_2n-1), nu(y_2n-2, y_2n-1)}, n >= 2

    Rows are visited n by n, each n in the order above.  The reversed terms
    are evaluated as written, so an asymmetric nearness table is honoured.
    """
    _check_args(k, trace_x)
    xs = trace_x.points
    ys = trace_y.points
    if len(ys) and nu.carrier.distance(quad.A(xs[0]), ys[0]) > DELTA_PT:
        raise UsageError("trace does not follow the interleaved scheme")
    ts = grid.values
    fx, bx = _steps(mu, xs, ts), _steps(mu, xs, ts, backward=True)  # row i: x_i, x_{i+1}
    fy, by = _steps(nu, ys, ts), _steps(nu, ys, ts, backward=True)  # row i: y_{i+1}, y_{i+2}
    n_even = np.arange(1, min(len(xs) - 2, len(ys) - 1) // 2 + 1)  # x_2n+1 and y_2n+1 exist
    n_odd = np.arange(1, min(len(xs) - 1, len(ys)) // 2 + 1)  # x_2n and y_2n exist
    e, o, o2 = 2 * n_even, 2 * n_odd, 2 * n_odd[1:]
    equations = [
        ("x_even", n_even, fx[e], np.minimum(fx[e - 1], fy[e - 1])),
        ("x_odd", n_odd, fx[o - 1], np.minimum(fx[o - 2], fy[o - 2])),
        ("y_even", n_even, fy[e - 1], np.minimum(bx[e], fy[e - 2])),
        ("y_odd", n_odd[1:], by[o2 - 2], np.minimum(bx[o2 - 1], fy[o2 - 3])),
    ]
    return _tally(k, ts, equations, n_major=True)
