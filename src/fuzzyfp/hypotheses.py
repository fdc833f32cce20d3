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
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError
from .mappings import ComposedMap, MapPair
from .metrics import FuzzyMetric, TGrid
from .spaces import DELTA_PT, validate_points

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


def _reports(labels, evaluate, axes, samples, sample_shape, dump):
    """One report per label, over tuples of the point arrays in axes and the grid.

    evaluate(s) gives one (ratio, valid) pair per label on the slice s of
    the leading index; valid broadcasts to ratio's shape.  The slices are
    blocks of about _BLOCK_BYTES per float array.  k_hat is the largest
    valid ratio and its witness the first such cell in C order (the first
    NaN if there is one, as np.argmax picks).  k_hat is None when no cell
    is valid.  dump, if not None, is called as dump(label, cells, ratios)
    with each block's valid cells in C order (np.argwhere indices with the
    block's offset added; the grid index is the last column) and their
    ratios.  Every block of a label is dumped before any of the next, so
    each label after the first takes one more pass over the blocks.  A
    floating-point warning that several blocks raise is shown once.
    """
    ts = samples.grid.values
    shape = tuple(len(a) for a in axes) + ts.shape
    step = max(1, _BLOCK_BYTES // (8 * math.prod(shape[1:])))
    best = [None] * len(labels)  # (ratio, cell) of each label
    evaluated = [0] * len(labels)

    def block(start):
        sides = evaluate(slice(start, start + step))
        return [(ratio, np.broadcast_to(valid, ratio.shape)) for ratio, valid in sides]

    def dump_block(side, start, ratio, valid):
        cells = np.argwhere(valid)
        cells[:, 0] += start
        dump(labels[side], cells, ratio[valid])

    starts = range(0, shape[0], step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for start in starts:
            for side, (ratio, valid) in enumerate(block(start)):
                evaluated[side] += int(np.count_nonzero(valid))
                masked = np.where(valid, ratio, -np.inf)
                cell = np.unravel_index(int(np.argmax(masked)), masked.shape)
                r = masked[cell]
                if best[side] is None or not np.isnan(best[side][0]) and (np.isnan(r) or r > best[side][0]):
                    best[side] = (r, (start + cell[0],) + cell[1:])
                if side == 0 and dump is not None:
                    dump_block(0, start, ratio, valid)
        if dump is not None:
            for side in range(1, len(labels)):
                for start in starts:
                    dump_block(side, start, *block(start)[side])
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
        )
        for label, (r, cell), count in zip(labels, best, evaluated)
    )


def _quotient_reports(prefix, terms, axes, samples, dump, empty_message):
    """Primal and dual reports of k * lhs >= f / h and k * lhs' >= g / h,
    where terms(s) gives (f, g, h, (lhs, lhs')) on the slice s of the
    leading index; each side is admitted only where num < h < 1 (ties
    num = h are skipped)."""

    def evaluate(s):
        f, g, h, lhs = terms(s)
        return [((num / h) / side_lhs, (num < h) & (h < 1.0)) for num, side_lhs in zip((f, g), lhs)]

    labels = (f"{prefix}-primal", f"{prefix}-dual")
    reports = _reports(labels, evaluate, axes, samples, (len(axes[0]), len(axes[-1])), dump)
    if all(r.k_hat is None for r in reports):
        raise EmptySampleError(empty_message)
    return reports


def estimate_k(scheme: str, problem, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None):
    """The reports of the scheme's inequalities on the sample, one at a time,
    so that a report made before a later one raises is kept: a pair gives its
    report, then the dual's if the sample has points_y; a quadruple gives
    both sides; a self-quadruple gives both sides on mu alone.  dump, if
    given, receives each report's admitted cells as _reports describes."""
    if scheme == "pair":
        yield estimate_k_pair(problem, mu, nu, samples, dump)
        if samples.points_y:
            yield estimate_k_pair_dual(problem, mu, nu, samples, dump)
    elif scheme == "quadruple":
        yield from estimate_k_quad(problem, mu, nu, samples, dump)
    else:
        yield from estimate_k_self_quad(problem, mu, samples, dump)


# ---------------------------------------------------------------------------
# pair scheme
# ---------------------------------------------------------------------------


def estimate_k_pair(pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None) -> HypothesisReport:
    """k_hat = max over ordered point pairs and grid scales of rhs / lhs,
    where lhs = mu(STx, STx', t) and rhs is the four-term minimum.

    Iteration order for tie-breaking is (x index, x' index, grid index),
    row-major; ties keep the first tuple encountered.
    """
    return _pair_report("pair", pair, mu, nu, samples, dump)


def estimate_k_pair_dual(pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None) -> HypothesisReport:
    """Dual-side estimate over points_y, via the exact role swap
    (T, S, mu, nu) -> (S, T, nu, mu)."""
    ysamples = SampleSet(
        points_x=tuple(samples.points_y),
        grid=samples.grid,
        exclude_diagonal=samples.exclude_diagonal,
    )
    return _pair_report("pair-dual", MapPair(T=pair.S, S=pair.T), nu, mu, ysamples, dump)


def _pair_report(label, pair, mu, nu, samples, dump):
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

    (report,) = _reports((label,), evaluate, (xs, xs), samples, (n,), dump)
    if report.k_hat is None:
        raise EmptySampleError("every tuple of the sample was skipped")
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


def estimate_k_quad(quad, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None):
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
    return _quotient_reports("quad", terms, (xs, xs, ys, ys), samples, dump, empty)


# ---------------------------------------------------------------------------
# self-map quadruple (single space)
# ---------------------------------------------------------------------------


def estimate_k_self_quad(quad, fm: FuzzyMetric, samples: SampleSet, dump=None):
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
    return _quotient_reports("self-quad", terms, (xs, ys), samples, dump, empty)
