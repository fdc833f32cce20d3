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
the nearness of the largest of its four crisp distances (_pair_reports).
For nearness functions induced from a crisp metric, values approach 1 as
t grows, so k_hat itself climbs toward 1 as the grid's t_max grows;
reports therefore record their grid and sample provenance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CodomainError, EmptySampleError, UsageError
from .mappings import ComposedMap, MapPair, StackedMap
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


@np.errstate(over="ignore")  # a distance beyond the float range is inf, as in BoxSpace.distances
def _block_distances(p, ia, q, ib):
    """carrier.distances(p.rows[ia], q.rows[ib]), bit for bit, for points of
    one carrier, where the index tuples ia and ib select arrays that
    broadcast, such as (i, None) and (None, j)."""
    a, b = p.rows[ia], q.rows[ib]
    if p.cols is None:
        return p.carrier.distances(a, b)
    diff = p.cols[(slice(None),) + ia] - q.cols[(slice(None),) + ib]
    if p.carrier.crisp_metric != "euclidean":
        return np.abs(diff, out=diff).max(axis=0)
    d = np.sqrt(np.vecdot(diff, diff, axis=0))
    over = np.isinf(d)
    if over.any():  # squares that overflow: BoxSpace.distances rescales these cells
        shape = d.shape + a.shape[-1:]
        d[over] = p.carrier.distances(np.broadcast_to(a, shape)[over], np.broadcast_to(b, shape)[over])
    return d


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
    mmap threshold, raised a 50-pair suite's peak RSS by 0.15-0.27 MB.)  A
    stack of one has no instance axis: s is 0 and the arrays are those of
    the one instance.  evaluate(s, i, j, out, tile) writes each label's
    ratios on the block into out[side] and returns one admission mask per
    label that broadcasts to the block of one instance, or, with the
    instance axis first, to the block.  out holds one float array of the
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
    ts = samples.grid.values
    count = len(axes[0])
    stacked = count > 1
    shape = tuple(a.shape[1] for a in axes) + ts.shape  # the cells of one instance
    row = 8 * math.prod(shape[2:])  # bytes of one index of the second axis
    arrays = len(labels) + scratch
    step_s = max(1, _BLOCK_BYTES // (arrays * row * shape[0] * shape[1]))
    step_i = max(1, _BLOCK_BYTES // (row * shape[1]))
    step_j = shape[1] if row * shape[1] <= _BLOCK_BYTES else max(1, _BLOCK_BYTES // row)
    blocks = [
        (
            slice(s, min(s + step_s, count)) if stacked else 0,
            slice(i, min(i + step_i, shape[0])),
            slice(j, min(j + step_j, shape[1])),
        )
        for s in range(0, count, step_s)
        for i in range(0, shape[0], step_i)
        for j in range(0, shape[1], step_j)
    ]

    def block_shape(s, i, j):
        return ((s.stop - s.start,) if stacked else ()) + (i.stop - i.start, j.stop - j.start) + shape[2:]

    cells = math.prod(block_shape(*blocks[0]))
    buffers = [np.empty(cells) for _ in range(arrays)] + [np.empty(cells, dtype=bool) for _ in range(flags)]
    tile = GridTile(samples.grid, math.prod(block_shape(*blocks[0])[:-1])) if tiled else None
    best = [[None] * count for _ in labels]  # (ratio, cell) of each label and instance
    evaluated = [[0] * count for _ in labels]

    def block(s, i, j):
        size = block_shape(s, i, j)
        out = [b[: math.prod(size)].reshape(size) for b in buffers]
        return out, evaluate(s, i, j, out, tile)

    def dump_block(side, i, j, ratio, valid):
        valid = np.broadcast_to(valid, ratio.shape)
        cells = np.argwhere(valid)
        cells[:, :2] += (i.start, j.start)
        dump(labels[side], cells, ratio[valid])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for s, i, j in blocks:
            out, masks = block(s, i, j)
            first = s.start if stacked else 0
            for side, (ratio, valid) in enumerate(zip(out, masks)):
                if side == 0 and dump is not None:
                    dump_block(0, i, j, ratio, valid)
                own = stacked and np.ndim(valid) == ratio.ndim  # one mask per instance, else one for all
                counts = [int(np.count_nonzero(v)) for v in (valid if own else (valid,))]
                size = np.size(valid) // len(counts)  # of one instance's mask
                _skip(ratio, valid, sum(counts))
                for k, r_k in enumerate(ratio if stacked else (ratio,)):
                    at = first + k
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
    registry = globals().setdefault("__warningregistry__", {})  # as warnings.warn uses it here
    for w in {(str(w.message), w.category, w.filename, w.lineno): w for w in caught}.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
    return [
        tuple(
            HypothesisReport(
                label=label,
                k_hat=float(r) if n else None,
                witness=tuple(pts[at][i] for pts, i in zip(axes, cell)) + (float(ts[cell[-1]]),) if n else None,
                evaluated_count=n,
                skipped_count=math.prod(shape) - n,
                grid=samples.grid,
                sample_shape=sample_shape,
                exclude_diagonal=samples.exclude_diagonal,
            )
            for label, (r, cell), n in zip(labels, (b[at] for b in best), (e[at] for e in evaluated))
        )
        for at in range(count)
    ]


def _quotient_reports(prefix, terms, axes, samples, dump, empty_message, scratch=0, tiled=False):
    """Primal and dual reports of k * lhs >= f / h and k * lhs' >= g / h,
    where terms(i, j, out, tile) writes f, g and h on the block (i, j) into
    out[0], out[1] and out[2], may use the scratch arrays after them and the
    grid tile if tiled, and returns (lhs, lhs'); each side is admitted only
    where num < h < 1 (ties num = h are skipped), by a mask written into a
    bool array of the call."""

    def evaluate(s, i, j, out, tile):  # a stack of one
        floats, masks, below_one = out[:-3], out[-3:-1], out[-1]
        lhs = terms(i, j, floats, tile)
        nums, h = floats[:2], floats[2]
        np.less(h, 1.0, out=below_one)
        for num, mask, side_lhs in zip(nums, masks, lhs):
            np.logical_and(np.less(num, h, out=mask), below_one, out=mask)
            np.divide(np.divide(num, h, out=num), side_lhs, out=num)  # (num / h) / lhs, as the ratio is defined
        return masks

    labels = (f"{prefix}-primal", f"{prefix}-dual")
    stack = tuple(a[None] for a in axes)
    shape = (len(axes[0]), len(axes[-1]))
    (reports,) = _reports(labels, evaluate, stack, samples, shape, dump, 1 + scratch, tiled, flags=3)
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

    pair and samples may also be equal-length sequences: of pairs of affine
    or constant maps on alike boxes, and of samples of one size, grid and
    diagonal rule (else UsageError).  Then the reports of all are made in
    one pass and come back as a tuple, one per pair, each the report of
    that pair alone; if any pair's sample is empty or its images escape,
    the call raises.
    """
    if isinstance(pair, MapPair):
        return _pair_reports("pair", [pair], mu, nu, [samples], dump)[0]
    return tuple(_pair_reports("pair", list(pair), mu, nu, list(samples), dump))


def estimate_k_pair_dual(pair, mu: FuzzyMetric, nu: FuzzyMetric, samples: SampleSet, dump=None) -> HypothesisReport:
    """Dual-side estimate over points_y, via the exact role swap
    (T, S, mu, nu) -> (S, T, nu, mu)."""
    ysamples = SampleSet(
        points_x=tuple(samples.points_y),
        grid=samples.grid,
        exclude_diagonal=samples.exclude_diagonal,
    )
    return _pair_reports("pair-dual", [MapPair(T=pair.S, S=pair.T)], nu, mu, [ysamples], dump)[0]


def _pair_reports(label, pairs, mu, nu, samples, dump):
    """The report of each pair on its sample; see estimate_k_pair.

    When mu and nu are both standard, rhs is the nearness of the largest of
    the four crisp distances: IEEE addition and division round
    monotonically, so t / (t + d) does not grow as d grows, and a minimum
    of such values is the value at the largest d, with the same bits.  The
    other forms take the minimum of the four nearness arrays."""
    first = samples[0]
    if len(pairs) != len(samples) or any(
        (len(s.points_x), s.exclude_diagonal) != (len(first.points_x), first.exclude_diagonal)
        or not np.array_equal(s.grid.values, first.grid.values)
        for s in samples
    ):
        raise UsageError("stacked pairs need one sample each, all of one size, grid and diagonal rule")
    n = len(first.points_x)
    if n == 0:
        raise EmptySampleError("sample contains no points")
    xs = np.stack([validate_points(mu.carrier, s.points_x) for s in samples])  # (pairs, n) + the shape of one point
    xs.setflags(write=False)
    flat = xs.reshape((-1,) + xs.shape[2:])
    if len(pairs) == 1:
        t_map, s_map, images = pairs[0].T, pairs[0].S, _images
    else:  # each pair maps its own sample's rows
        owner = np.repeat(np.arange(len(pairs)), n)
        t_map, s_map = (StackedMap([getattr(p, c) for p in pairs]).take(owner) for c in "TS")
        images = _stacked_images

    def stack(a):
        return a.reshape((len(pairs), n) + a.shape[1:])

    st, tx = stack(images(ComposedMap(s_map, t_map), flat)), stack(images(t_map, flat))
    standard = isinstance(mu, StandardFuzzyMetric) and isinstance(nu, StandardFuzzyMetric)
    if standard:
        d_self = mu.carrier.distances(xs, st)
    else:
        m_self = mu.mu_batch(xs, st, first.grid)
    x_pts, tx_pts, st_pts = _Points(mu.carrier, xs), _Points(nu.carrier, tx), _Points(mu.carrier, st)

    def evaluate(s, i, j, out, tile):
        rhs, scratch = out
        at_i, at_j = (s, i, None), (s, None, j)
        if standard:
            d = _block_distances(x_pts, at_i, x_pts, at_j)
            far = np.maximum(d, d_self[s, i, None])
            np.maximum(far, d_self[s, None, j], out=far)
            np.maximum(far, _block_distances(tx_pts, at_i, tx_pts, at_j), out=far)
            mu.mu_from_distances(far, None, None, tile, rhs)
        else:
            d, mu_xx = _block_nearness(mu, x_pts, at_i, x_pts, at_j, tile, rhs)
            np.minimum(mu_xx, m_self[s, i, None], out=rhs)
            np.minimum(rhs, m_self[s, None, j], out=rhs)
            np.minimum(rhs, _block_nearness(nu, tx_pts, at_i, tx_pts, at_j, tile, scratch)[1], out=rhs)
        with np.errstate(divide="ignore", invalid="ignore"):  # x/0 = inf and 0/0 = NaN cells are kept
            np.divide(rhs, _block_nearness(mu, st_pts, at_i, st_pts, at_j, tile, scratch)[1], out=rhs)
        return [(d > DELTA_PT)[..., None] if first.exclude_diagonal else np.True_]

    reports = [r for (r,) in _reports((label,), evaluate, (xs, xs), first, (n,), dump, scratch=1, tiled=True)]
    if any(r.k_hat is None for r in reports):
        raise EmptySampleError("every tuple of the sample was skipped")
    return reports


@np.errstate(over="ignore")  # an image that overflows escapes
def _stacked_images(mapping, pts):
    """_images of a map over stacked rows, which maps no single point."""
    out, escaped = mapping.rows(pts)
    if escaped is not None:
        raise CodomainError(f"the image of stacked point {int(np.argmax(escaped))} escaped its codomain")
    return out


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
    m = _quad_matrices(quad, mu, nu, xs, ys, samples.grid)
    # The factors of f, g and h that depend on one index pair only, once per
    # call.  Minima are exact, so grouping (i, j) with (i, l) terms before
    # the 5-D broadcast gives the values of the four-term minima.
    mu_xx, nu_ax_bx, mu_sy_ty, nu_yy = m["mu_xx"], m["nu_ax_bx"], m["mu_sy_ty"], m["nu_yy"]
    f_ij = mu_xx * nu_ax_bx
    f_il = m["mu_x_ty"] * m["nu_ax_aty"]
    f_jk = m["mu_x_sy"] * m["nu_bx_bsy"]
    g_kl = nu_yy * mu_sy_ty
    g_jk = (m["nu_y_bx"] * m["mu_sy_tbx"]).transpose(1, 0, 2)
    g_il = (m["nu_y_ax"] * m["mu_ty_sax"]).transpose(1, 0, 2)
    h_ij = np.minimum(nu_ax_bx, m["mu_sax_tbx"])
    h_kl = np.minimum(mu_sy_ty, m["nu_bsy_aty"])  # (k, l, t) matrices broadcast to (i, j, k, l, t) as they are

    def terms(i, j, out, tile):  # on the block (i, j) of the x index pair, shaped (i, j, k, l, t)
        def ij(a):
            return a[i, j, None, None, :]

        def il(a):
            return a[i, None, None, :, :]

        def jk(a):
            return a[None, j, :, None, :]

        f, g, h = out
        np.multiply(ij(mu_xx), mu_sy_ty, out=f)
        np.minimum(f, np.minimum(ij(f_ij), il(f_il)), out=f)
        np.minimum(f, jk(f_jk), out=f)
        np.multiply(ij(nu_ax_bx), nu_yy, out=g)
        np.minimum(g, np.minimum(g_kl, il(g_il)), out=g)
        np.minimum(g, jk(g_jk), out=g)
        np.minimum(ij(h_ij), h_kl, out=h)
        return ij(m["mu_sax_tbx"]), m["nu_bsy_aty"]

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
    grid = samples.grid

    ax = _images(quad.A, xs)
    sx = _images(quad.S, xs)
    sax = _images(quad.S, ax)
    bsx = _images(quad.B, sx)
    ty = _images(quad.T, ys)
    by = _images(quad.B, ys)
    tby = _images(quad.T, by)
    aty = _images(quad.A, ty)

    def vec(pa, pb):  # per-x or per-y aligned vector, shape (n, K)
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

    def terms(i, j, out, tile):  # on the block (i, j) of the (x, y) index pair
        f, g, h, p, q = out  # p and q hold one pairwise matrix each, or a product of it

        def ij(a, b, out):  # (i, j) pairwise matrix
            return _block_nearness(fm, a, (i, None), b, (None, j), tile, out)[1]

        def vi(a):  # (i, 1, t)
            return a[i, None, :]

        mu_xy, mu_sax_ty = ij(xs, ys, p), ij(sax, ty, q)
        np.multiply(mu_xy, mu_sax_ty, out=f)
        np.multiply(mu_xy, vi(mu_x_sx), out=g)
        np.minimum(g, np.multiply(mu_sax_ty, ij(ax, by, p), out=p), out=g)
        np.minimum(f, np.multiply(ij(sx, ty, p), vi(mu_ax_bsx), out=p), out=f)
        np.minimum(f, np.multiply(ij(xs, ty, p), ij(xs, aty, q), out=p), out=f)
        np.minimum(g, np.multiply(ij(ax, aty, p), vi(mu_sax_sx), out=p), out=g)
        mu_y_ax = _block_nearness(fm, ys, (j, None), ax, (None, i), tile, p.reshape(p.shape[1], p.shape[0], -1))[1]
        np.minimum(g, np.multiply(mu_y_tby[j, None], mu_y_ax, out=mu_y_ax).transpose(1, 0, 2), out=g)
        mu_sx_tby = ij(sx, tby, q)
        np.minimum(f, np.multiply(mu_sx_tby, vi(mu_x_sx), out=p), out=f)
        np.minimum(np.minimum(mu_sx_tby, mu_by_aty[j], out=h), vi(h_i), out=h)
        return ij(sax, tby, p), ij(bsx, aty, q)

    empty = "every self-quadruple tuple was skipped"
    return _quotient_reports("self-quad", terms, (xs.rows, ys.rows), samples, dump, empty, scratch=2, tiled=True)
