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
k >= k_hat.  With the standard form on both spaces, the pair's minimum is
the nearness of the largest of its four crisp distances F (_pair_reports),
and a row (x, x') has the ratio (t + D) / (t + F), D = d(STx, STx'), which
is monotone in t.  So a call with no ratio dump on a grid of more than two
scales evaluates every row at t_min and t_max first, and the whole grid
only on the rows that can still hold k_hat: those within the rounding
margin gamma_5 of five IEEE operations of the best end ratio, and those
whose nearness leaves the normal float range at an end
(_end_scale_reports).  Dumps and the exponential, table and mixed forms
evaluate every cell.  For nearness functions induced from a crisp metric,
values approach 1 as t grows, so k_hat itself climbs toward 1 as the
grid's t_max grows; reports therefore record their grid and sample
provenance.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import EmptySampleError, UsageError
from .mappings import ComposedMap, MapPair, MapQuadruple, StackedMap
from .metrics import FuzzyMetric, GridTile, StandardFuzzyMetric, TGrid
from .spaces import DELTA_PT, validate_points

# Bytes of one float array over a block of sample indices (see _reports):
# the estimators hold up to five such arrays at a time.  Picked by timing
# hypotheses-wide; smaller blocks pay more per-block overhead, larger ones
# fall out of cache.
_BLOCK_BYTES = 1 << 18


@dataclass(eq=False)
class SampleSet:
    """Finite stand-in for universally quantified points.

    The points of each space may be a sequence of points or one array of
    them; points_y may be empty for single-space problems.
    exclude_diagonal applies to the pair estimator, where tuples with
    x = x' (within the point-equality tolerance) are skipped by default: at
    such tuples the inequality degenerates to k >= mu(x, STx, t),
    unsatisfiable with k < 1 at a fixed point.
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


class _Stack:
    """The problems of one estimator call and their samples, all of one
    size, grid and diagonal rule (else UsageError).  A call on one problem,
    not a sequence, is single: an image that escapes its codomain raises
    that point's CodomainError, and a sample whose every cell is skipped
    raises EmptySampleError.  A stacked call drops the problem instead: its
    reports have k_hat None and no counted cell."""

    def __init__(self, kind, problem, samples):
        self.single = isinstance(problem, kind)
        self.problems, self.samples = ([problem], [samples]) if self.single else (list(problem), list(samples))
        self.first = self.samples[0]
        kinds = {(len(s.points_x), len(s.points_y), s.exclude_diagonal, s.grid.values.tobytes()) for s in self.samples}
        if len(self.problems) != len(self.samples) or len(kinds) > 1:  # grid values are positive: bytes tell them apart
            raise UsageError("stacked problems need one sample each, all of one size, grid and diagonal rule")
        self.dropped = np.zeros(len(self.problems), dtype=bool)

    def points(self, carrier, attr: str) -> np.ndarray:
        """The samples' points_x or points_y as one read-only (problems, points, ...) array."""
        return validate_points(carrier, [getattr(s, attr) for s in self.samples], nested=True)

    @np.errstate(over="ignore", invalid="ignore")  # an image that overflows escapes, and rows past an escape map on
    def images(self, names: str, pts: np.ndarray) -> np.ndarray:
        """The composite of the maps named, outermost first, at each point of
        pts, each problem's by its own maps (StackedMap)."""
        count, n = pts.shape[:2]
        if count == 1:
            maps = [getattr(self.problems[0], c) for c in names]
        else:  # every problem's map of each name, taken by the owner of each row
            owner = np.repeat(np.arange(count), n)
            maps = [StackedMap([getattr(p, c) for p in self.problems]).take(owner) for c in names]
        f, flat = functools.reduce(ComposedMap, maps), pts.reshape((-1,) + pts.shape[2:])
        out, escaped = f.rows(flat)
        if escaped is not None and self.single:
            f(flat[int(np.argmax(escaped))])
        elif escaped is not None:
            self.dropped |= escaped.reshape(count, n).any(axis=1)
        return out.reshape((count, n) + out.shape[1:])

    def reports(self, labels, sample_shape: tuple, empty: str, kernel, *arrays) -> tuple:
        """Every problem's reports, one per label, as one flat tuple, from
        kernel(*arrays) on the problems not dropped (problems on the first
        axis of each array), which returns one tuple of reports per problem.
        A problem whose every report has k_hat None is dropped too, or
        raises EmptySampleError(empty) if single."""
        keep = ~self.dropped
        made = iter(kernel(*(a if keep.all() else a[keep] for a in arrays)) if keep.any() else ())
        first, out = self.first, []
        for dropped in self.dropped:
            own = None if dropped else next(made)
            if own is None or all(r.k_hat is None for r in own):
                if self.single:
                    raise EmptySampleError(empty)
                own = (HypothesisReport(label, None, None, 0, 0, first.grid, sample_shape, first.exclude_diagonal) for label in labels)
            out.extend(own)
        return tuple(out)


class _Points:
    """A point array of one estimator call (points on its leading axes) and
    a C-contiguous copy with the coordinate axis first, so that the block
    distances run over whole rows of a block, not a point's coordinates.
    The copy is None where it would not give the bits of carrier.distances:
    on a finite carrier, and on a euclidean box of more than 3 dimensions,
    where a strided BLAS dot product of 4 or more terms may add them in
    another order than the contiguous one."""

    __slots__ = ("carrier", "rows", "cols")

    def __init__(self, carrier, rows):
        by_coordinate = carrier.kind == "box" and (carrier.crisp_metric != "euclidean" or carrier.dimension <= 3)
        self.carrier, self.rows = carrier, rows
        self.cols = np.ascontiguousarray(np.moveaxis(rows, -1, 0)) if by_coordinate else None


def _block_distances(p, ia, q, ib):
    """carrier.distances(p.rows[ia], q.rows[ib]), bit for bit, for points of
    one carrier, where the index tuples ia and ib select arrays that
    broadcast, such as (i, None) and (None, j)."""
    if p.cols is None:
        return p.carrier.distances(p.rows[ia], q.rows[ib])
    return p.carrier.distances(p.cols[(slice(None),) + ia], q.cols[(slice(None),) + ib], axis=0)


def _block_nearness(fm, p, ia, q, ib, tile, out):
    """(d, fm's nearness over the grid tile, into out if fm can) of the
    points p.rows[ia] and q.rows[ib]."""
    d = _block_distances(p, ia, q, ib)
    return d, fm.mu_from_distances(d, p.rows[ia], q.rows[ib], tile, out)


def _skip(ratio, valid, admitted):
    """Set the cells of ratio that the mask valid (which broadcasts to it)
    does not admit to -inf, where admitted counts the true cells of valid:
    none if it admits all, whole grid rows by index if valid is constant
    along the grid, else through valid, inverted in place."""
    if admitted == np.size(valid):
        return
    if valid.shape == ratio.shape[:-1] + (1,):
        ratio[~valid[..., 0]] = -np.inf
    else:
        np.copyto(ratio, -np.inf, where=np.logical_not(valid, out=valid))


def _blocks(count, shape, arrays, budget):
    """The blocks (s, i, j) of a stack of count instances whose cells have
    the given shape (two sample indices, then the rest), for arrays float
    arrays of a block's size, each of about budget bytes at most, in the
    order _reports describes; and the cell count of the first, largest
    block."""
    row = 8 * math.prod(shape[2:])  # bytes of one index of the second axis
    step_s = max(1, budget // (arrays * row * shape[0] * shape[1]))
    step_i = max(1, budget // (row * shape[1]))
    step_j = shape[1] if row * shape[1] <= budget else max(1, budget // row)
    blocks = [
        (
            slice(s, min(s + step_s, count)),
            slice(i, min(i + step_i, shape[0])),
            slice(j, min(j + step_j, shape[1])),
        )
        for s in range(0, count, step_s)
        for i in range(0, shape[0], step_i)
        for j in range(0, shape[1], step_j)
    ]
    s, i, j = blocks[0]
    return blocks, (s.stop - s.start) * (i.stop - i.start) * (j.stop - j.start) * math.prod(shape[2:])


@contextmanager
def _each_warning_once():
    """Show a floating-point warning that the body raises, once however
    often it raises it (in several blocks, say)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    registry = globals().setdefault("__warningregistry__", {})  # as warnings.warn uses it here
    for w in {(str(w.message), w.category, w.filename, w.lineno): w for w in caught}.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)


def _made(labels, best, evaluated, axes, samples, sample_shape):
    """Per instance, the tuple of its reports, one per label, from the
    (ratio, cell) that best holds per label and instance and the counts of
    admitted cells in evaluated (k_hat None where none is)."""
    ts = samples.grid.values
    cells = math.prod(a.shape[1] for a in axes) * ts.size
    return [
        tuple(
            HypothesisReport(
                label=label,
                k_hat=float(r) if n else None,
                witness=tuple(pts[at][i] for pts, i in zip(axes, cell)) + (float(ts[cell[-1]]),) if n else None,
                evaluated_count=n,
                skipped_count=cells - n,
                grid=samples.grid,
                sample_shape=sample_shape,
                exclude_diagonal=samples.exclude_diagonal,
            )
            for label, (r, cell), n in zip(labels, (b[at] for b in best), (e[at] for e in evaluated))
        )
        for at in range(len(axes[0]))
    ]


def _reports(labels, evaluate, axes, samples, sample_shape, dump, scratch=0, tiled=False, flags=0):
    """One report per label for each instance of a stack, over tuples of
    the point arrays in axes and the grid; each array in axes holds one
    point array per instance, on its first axis, and samples gives the grid
    and the diagonal rule of all.

    The tuples are visited in blocks of about _BLOCK_BYTES per float array,
    in C order.  A block is a slice s of the instances, a slice i of the
    first sample index and a slice j of the second: s holds as many whole
    instances as fit the budget with all their arrays together, or else one;
    then i holds as many indices as fit, and j is the whole axis unless one
    index of the first is over the budget.  (Stacks that filled each array
    to the budget ran no faster, and their arrays, above malloc's 128 KiB
    mmap threshold, raised a 50-pair suite's peak RSS by 0.15-0.27 MB.)
    evaluate(s, i, j, out, tile) writes each label's ratios on the block,
    whose first axis is the instances s, into out[side] and returns one
    admission mask per label that broadcasts to the block of one instance,
    or, with the instance axis, to the block.  out holds one float array of the
    block's shape per label, then scratch more for evaluate's own use, then
    flags bool arrays of the block's shape; they are allocated once per
    call, since a fresh array of a block's size is page-faulted in anew on
    every block.  If tiled, tile is a GridTile of
    the grid over the first (largest) block, allocated once per call too,
    else None.  A cell a mask does not admit is set to -inf before the
    argmax (_skip).  Per instance, k_hat is the largest admitted ratio and
    its witness the first such cell in C order (the first NaN if there is
    one, as np.argmax picks).  k_hat is None when no cell is admitted.
    dump, if not None, takes a stack of one and is called as
    dump(label, cells, ratios) with each block's admitted cells in C order
    (np.argwhere indices with the block's offsets added; the grid index is
    the last column) and their ratios.  Every block of a label is dumped
    before any of the next, so each label after the first takes one more
    pass over the blocks.  A floating-point warning that several blocks
    raise is shown once.  Returns, per instance, the tuple of its reports.
    """
    count = len(axes[0])
    shape = tuple(a.shape[1] for a in axes) + samples.grid.values.shape  # the cells of one instance
    arrays = len(labels) + scratch
    blocks, cells = _blocks(count, shape, arrays, _BLOCK_BYTES)

    def block_shape(s, i, j):
        return (s.stop - s.start, i.stop - i.start, j.stop - j.start) + shape[2:]

    buffers = [np.empty(cells) for _ in range(arrays)] + [np.empty(cells, dtype=bool) for _ in range(flags)]
    tile = GridTile(samples.grid, cells // len(samples.grid)) if tiled else None
    best = [[None] * count for _ in labels]  # (ratio, cell) of each label and instance
    evaluated = [[0] * count for _ in labels]

    def block(s, i, j):
        size = block_shape(s, i, j)
        out = [b[: math.prod(size)].reshape(size) for b in buffers]
        return out, evaluate(s, i, j, out, tile)

    def dump_block(side, i, j, ratio, valid):
        valid = np.broadcast_to(valid, ratio.shape)
        cells = np.argwhere(valid)[:, 1:]  # of the one instance
        cells[:, :2] += (i.start, j.start)
        dump(labels[side], cells, ratio[valid])

    with _each_warning_once():
        for s, i, j in blocks:
            out, masks = block(s, i, j)
            for side, (ratio, valid) in enumerate(zip(out, masks)):
                if side == 0 and dump is not None:
                    dump_block(0, i, j, ratio, valid)
                own = np.ndim(valid) == ratio.ndim  # one mask per instance, else one for all
                counts = [int(np.count_nonzero(v)) for v in (valid if own else (valid,))]
                size = np.size(valid) // len(counts)  # of one instance's mask
                _skip(ratio, valid, sum(counts))
                for k, r_k in enumerate(ratio):
                    at = s.start + k
                    # a mask counts once per cell it broadcasts to
                    evaluated[side][at] += counts[k if own else 0] * (r_k.size // size)
                    cell = np.unravel_index(int(np.argmax(r_k)), r_k.shape)
                    r, old = r_k[cell], best[side][at]
                    if old is None or not np.isnan(old[0]) and (np.isnan(r) or r > old[0]):
                        best[side][at] = (r, (i.start + cell[0], j.start + cell[1]) + cell[2:])
        if dump is not None:
            for side in range(1, len(labels)):
                for s, i, j in blocks:
                    out, masks = block(s, i, j)
                    dump_block(side, i, j, out[side], masks[side])
    return _made(labels, best, evaluated, axes, samples, sample_shape)


def _quotient_reports(prefix, terms, axes, samples, dump, scratch=0, tiled=False):
    """Primal and dual reports of k * lhs >= f / h and k * lhs' >= g / h,
    per instance of axes (see _reports), where terms(s, i, j, out, tile)
    writes f, g and h on the block (s, i, j) into out[0], out[1] and
    out[2], may use the scratch arrays after them and the grid tile if
    tiled, and returns (lhs, lhs'); each side is admitted only where
    num < h < 1 (ties num = h are skipped), by a mask written into a bool
    array of the call."""

    def evaluate(s, i, j, out, tile):
        floats, masks, below_one = out[:-3], out[-3:-1], out[-1]
        lhs = terms(s, i, j, floats, tile)
        nums, h = floats[:2], floats[2]
        np.less(h, 1.0, out=below_one)
        for num, mask, side_lhs in zip(nums, masks, lhs):
            np.logical_and(np.less(num, h, out=mask), below_one, out=mask)
            np.divide(np.divide(num, h, out=num), side_lhs, out=num)  # (num / h) / lhs, as the ratio is defined
        return masks

    labels = (f"{prefix}-primal", f"{prefix}-dual")
    shape = (axes[0].shape[1], axes[-1].shape[1])
    return _reports(labels, evaluate, axes, samples, shape, dump, 1 + scratch, tiled, flags=3)


def estimate_k(scheme: str, problem, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None):
    """The reports of the scheme's inequalities on the sample, one at a time,
    so that a report made before a later one raises is kept: a pair gives its
    report, then the dual's if the sample has points_y; a quadruple gives
    both sides; a self-quadruple gives both sides on mu alone.  dump, if
    given, receives each report's admitted cells as _reports describes."""
    if scheme == "pair":
        yield estimate_k_pair(problem, mu, nu, samples, dump)
        if len(samples.points_y):
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

    pair and samples may also be equal-length sequences: of pairs of affine
    or constant maps on alike boxes, and of samples of one size, grid and
    diagonal rule (else UsageError).  Then the reports of all are made in
    one pass and come back as a tuple, one per pair, each the report of
    that pair alone; a pair whose images escape, or whose every tuple is
    skipped, gets a report with k_hat None and no counted cell (_Stack).
    """
    stack = _Stack(MapPair, pair, samples)
    reports = _pair_reports("pair", stack, mu, nu, dump)
    return reports[0] if stack.single else reports


def estimate_k_pair_dual(pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None) -> HypothesisReport:
    """Dual-side estimate over points_y, via the exact role swap
    (T, S, mu, nu) -> (S, T, nu, mu)."""
    ysamples = SampleSet(
        points_x=tuple(samples.points_y),
        grid=samples.grid,
        exclude_diagonal=samples.exclude_diagonal,
    )
    return _pair_reports("pair-dual", _Stack(MapPair, MapPair(T=pair.S, S=pair.T), ysamples), nu, mu, dump)[0]


def _pair_reports(label, stack, mu, nu, dump):
    """The report of each pair of the stack on its sample; see estimate_k_pair.

    When mu and nu are both standard, rhs is the nearness of the largest of
    the four crisp distances: IEEE addition and division round
    monotonically, so t / (t + d) does not grow as d grows, and a minimum
    of such values is the value at the largest d, with the same bits.  The
    other forms take the minimum of the four nearness arrays.  A standard
    pair on a grid of more than two scales with no dump is reported from
    its end scales first (_end_scale_reports)."""
    first = stack.first
    xs = stack.points(mu.carrier, "points_x")  # (pairs, n) + the shape of one point
    if not xs.shape[1]:
        raise EmptySampleError("sample contains no points")
    standard = isinstance(mu, StandardFuzzyMetric) and isinstance(nu, StandardFuzzyMetric)

    def kernel(xs, st, tx):
        if standard:
            d_self = mu.carrier.distances(xs, st)
        else:
            m_self = mu.mu_batch(xs, st, first.grid)
        x_pts, tx_pts, st_pts = _Points(mu.carrier, xs), _Points(nu.carrier, tx), _Points(mu.carrier, st)

        def nearness(at_i, at_j, ts, rhs, lhs):
            """The standard rhs and lhs of the rows (x at at_i, x' at at_j)
            over the scales ts (an array, TGrid or GridTile) into rhs and
            lhs; returns d(x, x')."""
            d = _block_distances(x_pts, at_i, x_pts, at_j)
            far = np.maximum(d, d_self[at_i])
            np.maximum(far, d_self[at_j], out=far)
            np.maximum(far, _block_distances(tx_pts, at_i, tx_pts, at_j), out=far)
            mu.mu_from_distances(far, None, None, ts, rhs)
            _block_nearness(mu, st_pts, at_i, st_pts, at_j, ts, lhs)
            return d

        def evaluate(s, i, j, out, tile):
            rhs, lhs = out
            at_i, at_j = (s, i, None), (s, None, j)
            if standard:
                d = nearness(at_i, at_j, tile, rhs, lhs)
            else:
                d, mu_xx = _block_nearness(mu, x_pts, at_i, x_pts, at_j, tile, rhs)
                np.minimum(mu_xx, m_self[s, i, None], out=rhs)
                np.minimum(rhs, m_self[s, None, j], out=rhs)
                np.minimum(rhs, _block_nearness(nu, tx_pts, at_i, tx_pts, at_j, tile, lhs)[1], out=rhs)
                _block_nearness(mu, st_pts, at_i, st_pts, at_j, tile, lhs)
            _pair_ratio(rhs, lhs)
            return [(d > DELTA_PT)[..., None] if first.exclude_diagonal else np.True_]

        if standard and dump is None and len(first.grid) > 2:
            return _end_scale_reports(label, nearness, xs, first)
        return _reports((label,), evaluate, (xs, xs), first, (xs.shape[1],), dump, scratch=1, tiled=True)

    st, tx = stack.images("ST", xs), stack.images("T", xs)
    return stack.reports((label,), (xs.shape[1],), "every tuple of the sample was skipped", kernel, xs, st, tx)


def _pair_ratio(rhs, lhs):
    """rhs / lhs, into rhs."""
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 = inf and 0/0 = NaN cells are kept
        return np.divide(rhs, lhs, out=rhs)


# With the standard form on both spaces, a row (x, x') of the pair has the
# ratio (t / (t + F)) / (t / (t + D)) = (t + D) / (t + F), D = d(STx, STx')
# and F the largest of the four crisp distances, which is monotone in t: its
# largest value over the grid is at t_min or t_max.  The computed ratio takes
# five correctly rounded operations, so it is the exact one times 1 + theta
# with |theta| <= gamma_5 = 5u / (1 - 5u), u = 2^-53, as long as no result
# leaves the normal range (Higham, Accuracy and Stability of Numerical
# Algorithms, Lemma 3.1).  So at any scale a row's ratio is at most
# e * (1 + gamma_5) / (1 - gamma_5) = e / (1 - 10u), e the larger of its two
# end ratios.  A row with e < M * (1 - 10u), M the best end ratio of the
# instance, stays below M on the whole grid.  The cut is M * _END_MARGIN,
# rounded: at most M * (1 - 16u) * (1 + u) < M * (1 - 10u) where that is
# normal, and below every ratio of a normal row (at least 2 * tiny) where
# not.
_END_MARGIN = 1.0 - 2.0**-49
# Nearness of a row at both end scales at least this, and its rhs, lhs and
# ratio are normal at every scale between: the exact nearness grows with t,
# and t_max + F, t_max + D did not overflow.
_END_NORMAL = 2 * float(np.finfo(float).tiny)


def _end_scale_reports(label, nearness, xs, samples):
    """The reports of _reports over the pairs of a stack of standard pairs
    (x, x' from xs), k_hat, witness and counts bit for bit, where
    nearness(at_i, at_j, ts, rhs, lhs) writes the rows' rhs and lhs.

    A first pass evaluates every row at t_min and t_max only, in blocks of
    half the budget per array (its rows hold about as many bytes again in
    distances and masks), and keeps each instance's best admitted end ratio
    M so far.  Only a row that it cannot exclude is evaluated on the whole grid:
    an admitted one whose larger end ratio is at least M * _END_MARGIN, and
    any whose nearness leaves the normal range at an end (0, subnormal, an
    overflowed t + F, NaN).  Since M only grows, the pending rows are cut
    again against it when they outgrow a block, and evaluated then if they
    still do, else after the last block; they come in C order, so the first
    best cell of each instance is the first in C order."""
    grid, count, n = samples.grid, len(xs), xs.shape[1]
    blocks, cells = _blocks(count, (n, n, 2), 1, _BLOCK_BYTES // 2)
    rhs_ends, lhs_ends = np.empty(cells), np.empty(cells)
    ends = grid.values[[0, -1]]
    top = np.zeros(count)  # M, or 0, below every admitted ratio
    evaluated = np.zeros(count, dtype=np.int64)
    best, where = np.full(count, -np.inf), np.zeros((count, 3), dtype=np.intp)
    limit = max(1, _BLOCK_BYTES // (8 * len(grid)))  # rows of a block of the whole grid
    pending = []  # (row indices in (count, n, n) C order, larger end ratio or inf if not normal)

    def whole_grid(rows):  # evaluate rows and keep each instance's first best cell
        for start in range(0, rows.size, limit):
            k, i, j = np.unravel_index(rows[start : start + limit], (count, n, n))
            rhs, lhs = np.empty((k.size, len(grid))), np.empty((k.size, len(grid)))
            d = nearness((k, i), (k, j), grid, rhs, lhs)
            ratio = _pair_ratio(rhs, lhs)
            if samples.exclude_diagonal:  # a row kept for its range only
                ratio[~(d > DELTA_PT)] = -np.inf
            at = np.argmax(ratio, axis=1)
            value = ratio[np.arange(k.size), at]
            starts = np.flatnonzero(np.diff(k, prepend=-1))  # each instance's first row
            peak = np.repeat(np.maximum.reduceat(value, starts), np.diff(starts, append=k.size))  # NaN wins, as in argmax
            row = np.minimum.reduceat(np.where((value == peak) | np.isnan(value), np.arange(k.size), k.size), starts)
            own, new = k[row], value[row]
            old = best[own]
            take = ~np.isnan(old) & ~(new <= old)  # later rows win only by a larger ratio or a NaN
            best[own[take]] = new[take]
            where[own[take]] = np.stack((i[row], j[row], at[row]), axis=1)[take]

    def settle(last):  # cut the pending rows against M; evaluate them if last or still over a block
        rows, key = (np.concatenate(a) for a in zip(*pending))
        keep = key >= top[rows // (n * n)] * _END_MARGIN
        pending[:] = [(rows[keep], key[keep])]
        if last or pending[0][0].size > limit:
            whole_grid(pending.pop()[0])

    with _each_warning_once():
        for s, i, j in blocks:
            shape = (s.stop - s.start, i.stop - i.start, j.stop - j.start)
            # scale-major, so that each pass over a block runs over whole rows of one end scale
            rhs, lhs = (b[: math.prod(shape) * 2].reshape((2,) + shape).transpose(1, 2, 3, 0) for b in (rhs_ends, lhs_ends))
            d = nearness((s, i, None), (s, None, j), ends, rhs, lhs)
            low = np.minimum(rhs[..., 0], rhs[..., 1])
            for end in (lhs[..., 0], lhs[..., 1]):
                np.minimum(low, end, out=low)
            normal = low >= _END_NORMAL
            ratio = _pair_ratio(rhs, lhs)
            high = np.maximum(ratio[..., 0], ratio[..., 1])
            if samples.exclude_diagonal:
                admitted = d > DELTA_PT
                high[~admitted] = -np.inf
                evaluated[s] += np.count_nonzero(admitted.reshape(shape[0], -1), axis=1) * len(grid)
            else:
                evaluated[s] += math.prod(shape[1:]) * len(grid)
            top[s] = np.fmax(top[s], np.fmax.reduce(high.reshape(shape[0], -1), axis=1))
            keep = ~normal | (high >= (top[s] * _END_MARGIN)[:, None, None])
            k, a, b = np.nonzero(keep)
            pending.append((((s.start + k) * n + i.start + a) * n + j.start + b, np.where(normal[keep], high[keep], np.inf)))
            if sum(rows.size for rows, _ in pending) > limit:
                settle(False)
        if pending:
            settle(True)
    best_cells = [(r, tuple(c)) for r, c in zip(best.tolist(), where.tolist())]
    return _made((label,), [best_cells], [evaluated.tolist()], (xs, xs), samples, (n,))


# ---------------------------------------------------------------------------
# quadruple scheme (two spaces)
# ---------------------------------------------------------------------------


def estimate_k_quad(quad, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None):
    """Estimate k_hat for both quotient inequalities of the quadruple.

    Tuples (x, x', y, y') x grid are admitted for the primal inequality only
    where f < h < 1 and for the dual only where g < h < 1; ties f = h are
    skipped.  Returns (primal report, dual report); a side with no
    admissible tuple gets k_hat = None.  Raises EmptySampleError when both
    sides are empty.

    quad and samples may also be sequences, as for estimate_k_pair; then
    the reports come back flat, primal then dual for each quadruple.
    """
    stack = _Stack(MapQuadruple, quad, samples)
    grid = stack.first.grid
    xs, ys = stack.points(mu.carrier, "points_x"), stack.points(nu.carrier, "points_y")
    if not xs.shape[1] or not ys.shape[1]:
        raise EmptySampleError("quadruple sample needs points in both spaces")

    def kernel(xs, ys, ax, bx, sax, tbx, sy, ty, bsy, aty):
        # The crisp distances of the operand pairs, of every quadruple at
        # once.  Their nearness, and the factors of f, g and h that depend on
        # one index pair only, are made when the blocks reach a quadruple,
        # so that the matrices of one are held at a time.
        pairs = [(fm, a[:, :, None], b[:, None]) for fm, a, b in (
            (mu, xs, xs), (mu, sy, ty), (mu, xs, ty), (mu, xs, sy), (mu, sax, tbx), (mu, sy, tbx), (mu, ty, sax),
            (nu, ax, bx), (nu, ax, aty), (nu, bx, bsy), (nu, ys, ys), (nu, ys, bx), (nu, ys, ax), (nu, bsy, aty),
        )]
        distances = [fm.carrier.distances(a, b) for fm, a, b in pairs]
        held = {}

        def factors(s):
            # Index pairs (i, j), (k, l), (i, l), (j, k) as [x2, y], (i, j), (k, j), (l, i); then (i, j), (i, l),
            # (j, k), (k, l), (k, j), (l, i), (k, l).  Minima are exact, so grouping (i, j) with (i, l) terms
            # before the 5-D broadcast gives the values of the four-term minima.
            m = [fm.mu_from_distances(d[s], a[s], b[s], grid) for (fm, a, b), d in zip(pairs, distances)]
            mu_xx, mu_sy_ty, mu_x_ty, mu_x_sy, mu_sax_tbx, mu_sy_tbx, mu_ty_sax = m[:7]
            nu_ax_bx, nu_ax_aty, nu_bx_bsy, nu_yy, nu_y_bx, nu_y_ax, nu_bsy_aty = m[7:]
            f_ij, f_il, f_jk = mu_xx * nu_ax_bx, mu_x_ty * nu_ax_aty, mu_x_sy * nu_bx_bsy
            g_jk, g_il = (nu_y_bx * mu_sy_tbx).swapaxes(-3, -2), (nu_y_ax * mu_ty_sax).swapaxes(-3, -2)
            kl = (mu_sy_ty, nu_yy, nu_yy * mu_sy_ty, np.minimum(mu_sy_ty, nu_bsy_aty), nu_bsy_aty)
            ij = (mu_xx, nu_ax_bx, f_ij, np.minimum(nu_ax_bx, mu_sax_tbx), mu_sax_tbx)
            return ij, f_il, f_jk, g_il, g_jk, [a[:, None, None] for a in kl]  # (k, l) as it broadcasts to a block

        def terms(s, i, j, out, tile):  # on the block of the x index pair, shaped (s, i, j, k, l, t)
            if held.get("s") != s:  # each slice of the instances is reached once, in turn
                held.update(s=s, factors=factors(s))
            ij, f_il, f_jk, g_il, g_jk, kl = held["factors"]
            mu_xx, nu_ax_bx, f_ij, h_ij, lhs = (a[:, i, j, None, None] for a in ij)
            mu_sy_ty, nu_yy, g_kl, h_kl, lhs_dual = kl
            f_il, g_il = f_il[:, i, None, None], g_il[:, i, None, None]
            f_jk, g_jk = f_jk[:, None, j, :, None], g_jk[:, None, j, :, None]
            f, g, h = out
            np.multiply(mu_xx, mu_sy_ty, out=f)
            np.minimum(f, np.minimum(f_ij, f_il), out=f)
            np.minimum(f, f_jk, out=f)
            np.multiply(nu_ax_bx, nu_yy, out=g)
            np.minimum(g, np.minimum(g_kl, g_il), out=g)
            np.minimum(g, g_jk, out=g)
            np.minimum(h_ij, h_kl, out=h)
            return lhs, lhs_dual

        return _quotient_reports("quad", terms, (xs, xs, ys, ys), stack.first, dump)

    ax, bx = stack.images("A", xs), stack.images("B", xs)
    sax, tbx = stack.images("S", ax), stack.images("T", bx)
    sy, ty = stack.images("S", ys), stack.images("T", ys)
    bsy, aty = stack.images("B", sy), stack.images("A", ty)
    empty = "every quadruple tuple was skipped (no f,g < h < 1)"
    shape = (xs.shape[1], ys.shape[1])
    return stack.reports(("quad-primal", "quad-dual"), shape, empty, kernel, xs, ys, ax, bx, sax, tbx, sy, ty, bsy, aty)


# ---------------------------------------------------------------------------
# self-map quadruple (single space)
# ---------------------------------------------------------------------------


def estimate_k_self_quad(quad, fm: FuzzyMetric, samples: SampleSet, dump=None):
    """Single-space analogue of estimate_k_quad over ordered pairs (x, y).

    y-points default to the x-point list when points_y is empty.  quad and
    samples may be sequences, as for estimate_k_quad.
    """
    stack = _Stack(MapQuadruple, quad, samples)
    grid = stack.first.grid
    xs = stack.points(fm.carrier, "points_x")
    ys = stack.points(fm.carrier, "points_y") if len(stack.first.points_y) else xs
    if not xs.shape[1]:
        raise EmptySampleError("sample contains no points")

    def kernel(xs, ys, ax, sx, sax, bsx, ty, by, tby, aty):
        def vec(pa, pb):  # per-x or per-y aligned vector, shape (instances, n, K)
            return fm.mu_batch(pa, pb, grid)

        mu_ax_bsx = vec(ax, bsx)  # (i,)
        mu_x_sx = vec(xs, sx)  # (i,)
        mu_y_tby = vec(ys, tby)  # (j,)
        mu_sax_sx = vec(sax, sx)  # (i,)
        mu_by_aty = vec(by, aty)  # (j,)
        h_i = np.minimum(mu_ax_bsx, vec(xs, sax))

        xs, ys, ax, sx, sax, bsx, ty, by, tby, aty = (
            _Points(fm.carrier, a) for a in (xs, ys, ax, sx, sax, bsx, ty, by, tby, aty)
        )

        def terms(s, i, j, out, tile):  # on the block (s, i, j) of the (x, y) index pair
            f, g, h, p, q = out  # p and q hold one pairwise matrix each, or a product of it

            def ij(a, b, out):  # (i, j) pairwise matrix
                return _block_nearness(fm, a, (s, i, None), b, (s, None, j), tile, out)[1]

            def vi(a):  # (i, 1, t)
                return a[s, i, None, :]

            mu_xy, mu_sax_ty = ij(xs, ys, p), ij(sax, ty, q)
            np.multiply(mu_xy, mu_sax_ty, out=f)
            np.multiply(mu_xy, vi(mu_x_sx), out=g)
            np.minimum(g, np.multiply(mu_sax_ty, ij(ax, by, p), out=p), out=g)
            np.minimum(f, np.multiply(ij(sx, ty, p), vi(mu_ax_bsx), out=p), out=f)
            np.minimum(f, np.multiply(ij(xs, ty, p), ij(xs, aty, q), out=p), out=f)
            np.minimum(g, np.multiply(ij(ax, aty, p), vi(mu_sax_sx), out=p), out=g)
            p_ji = p.reshape(p.shape[:-3] + (p.shape[-2], p.shape[-3], p.shape[-1]))  # p as a (j, i) block
            mu_y_ax = _block_nearness(fm, ys, (s, j, None), ax, (s, None, i), tile, p_ji)[1]
            np.minimum(g, np.multiply(mu_y_tby[s, j, None], mu_y_ax, out=mu_y_ax).swapaxes(-3, -2), out=g)
            mu_sx_tby = ij(sx, tby, q)
            np.minimum(f, np.multiply(mu_sx_tby, vi(mu_x_sx), out=p), out=f)
            np.minimum(np.minimum(mu_sx_tby, mu_by_aty[s, None, j], out=h), vi(h_i), out=h)
            return ij(sax, tby, p), ij(bsx, aty, q)

        return _quotient_reports("self-quad", terms, (xs.rows, ys.rows), stack.first, dump, scratch=2, tiled=True)

    ax, sx = stack.images("A", xs), stack.images("S", xs)
    sax, bsx = stack.images("S", ax), stack.images("B", sx)
    ty, by = stack.images("T", ys), stack.images("B", ys)
    tby, aty = stack.images("T", by), stack.images("A", ty)
    empty = "every self-quadruple tuple was skipped"
    shape = (xs.shape[1], ys.shape[1])
    arrays = (xs, ys, ax, sx, sax, bsx, ty, by, tby, aty)
    return stack.reports(("self-quad-primal", "self-quad-dual"), shape, empty, kernel, *arrays)
