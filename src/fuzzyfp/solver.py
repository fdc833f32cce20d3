"""Constructive iteration schemes, conclusion verification, uniqueness probe.

Pair scheme: x_n = ST(x_{n-1}), y_n = T(x_{n-1}).  Quadruple scheme runs
full interleaved cycles y_{2n-1} = A(x_{2n-2}), x_{2n-1} = S(y_{2n-1}),
y_{2n} = B(x_{2n-1}), x_{2n} = T(y_{2n}).

One driver runs either scheme from any number of starts in lock step: each
step maps the stacked iterates of the starts still running at once, in
place into arrays allocated once per chunk of cycles (a 1-D affine step is
one product, see mappings._Affine), a chunk is judged at once after it is
mapped, and each start stops on its own, with the result that a run from
that start alone gives.  The judge computes step nearness at the grid's
two end scales, which the divergence flags read, and at every scale only
for steps whose ends reach 1 - eps (_Runs._nearness).

Stopping declares convergence on both sequences simultaneously: every
step-nearness value of the most recent steps must reach 1 - eps on the
whole grid.  The limit is the final iterate, no extrapolation.  A run is
flagged diverging when step nearness at the smallest grid scale strictly
decreases for stall_window consecutive steps, or stays at the 1e-300 floor
for stall_window steps that did not shrink (see _Runs._flags), and
when an iterate escapes its carrier; the schemes must terminate on any input.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UsageError
from .mappings import ComposedMap, MapPair, MapQuadruple, StackedMap
from .metrics import FuzzyMetric, TGrid
from .spaces import validate_points

_COLLAPSE = 1e-300

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iter"
STATUS_DIVERGING = "diverging"

# Why a run stopped; stall, collapse and codomain-escape all have status diverging.
STOP_EPS = "eps-reached"
STOP_MAX_ITER = "max-iter"
STOP_STALL = "stall"
STOP_COLLAPSE = "collapse"
STOP_ESCAPE = "codomain-escape"
_STATUS_OF = {STOP_EPS: STATUS_CONVERGED, STOP_MAX_ITER: STATUS_MAX_ITER}


@dataclass(frozen=True, eq=False)
class SolveConfig:
    eps: float = 1e-9
    max_iter: int = 10000
    grid: TGrid = field(default_factory=TGrid.default)
    stall_window: int = 50
    p_max: int = 8
    verify_tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise DomainError("eps must lie in (0, 1)")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.stall_window < 2:
            raise DomainError("stall_window must be >= 2")
        if self.p_max < 1:
            raise DomainError("p_max must be >= 1")
        if not (0.0 < self.verify_tol < 1.0):
            raise DomainError("verify_tol must lie in (0, 1)")


@dataclass(frozen=True)
class ConclusionCheck:
    name: str
    residual: float
    passed: bool


@dataclass(eq=False)
class FixedPointResult:
    z: object
    w: object
    stop_reason: str
    iterations: int
    # the read-only columns x_0..x_N and y_1..; None for a start of
    # solve_problems that is not a problem's first
    trace_x: np.ndarray | None
    trace_y: np.ndarray | None
    conclusion_checks: tuple[ConclusionCheck, ...]

    @property
    def status(self) -> str:
        return _STATUS_OF.get(self.stop_reason, STATUS_DIVERGING)

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    @property
    def conclusions_passed(self) -> bool:
        return bool(self.conclusion_checks) and all(
            c.passed for c in self.conclusion_checks
        )

    @property
    def min_residual(self) -> float:
        if not self.conclusion_checks:
            return float("nan")
        return min(c.residual for c in self.conclusion_checks)


# The conclusion identities f(p) = q of each scheme: (name, the names of
# the maps of f, outermost first, p, q).  An identity in X (q is z) is
# measured by mu, one in Y (q is w) by nu.
_PAIR_IDENTITIES = (
    ("st_z_fixed", "ST", "z", "z"),
    ("ts_w_fixed", "TS", "w", "w"),
    ("t_z_is_w", "T", "z", "w"),
    ("s_w_is_z", "S", "w", "z"),
)
_QUAD_IDENTITIES = (
    ("sa_z_fixed", "SA", "z", "z"),
    ("tb_z_fixed", "TB", "z", "z"),
    ("bs_w_fixed", "BS", "w", "w"),
    ("at_w_fixed", "AT", "w", "w"),
    ("a_z_is_w", "A", "z", "w"),
    ("b_z_is_w", "B", "z", "w"),
    ("s_w_is_z", "S", "w", "z"),
    ("t_w_is_z", "T", "w", "z"),
)


def _conclusions(identities, maps, mu, nu, z, w, grid, tol) -> list:
    """The checks of the identities at each row of the arrays z and w, by
    the maps named in maps (a problem's own, or StackedMaps with one row per
    row of z): one tuple of ConclusionChecks per row.  The residual of
    f(p) = q is min_t mu(f(p), q, t) over the grid; 0.0, failed, where f(p)
    escapes."""
    points = {"z": z, "w": w}
    columns = []
    for name, names, p, q in identities:
        f = functools.reduce(ComposedMap, [maps[c] for c in names])
        image, escaped = f.rows(points[p])
        target = points[q]
        if escaped is not None:  # measured at q itself, then failed
            image = np.where(escaped.reshape(escaped.shape + (1,) * (image.ndim - 1)), target, image)
        residuals = (mu if q == "z" else nu).mu_batch(image, target, grid).min(axis=-1)
        if escaped is not None:
            residuals[escaped] = 0.0
        columns.append([ConclusionCheck(name=name, residual=r, passed=r >= 1.0 - tol) for r in residuals.tolist()])
    return list(zip(*columns))


def verify_conclusions(
    problem, mu: FuzzyMetric, nu: FuzzyMetric, z, w, grid: TGrid, tol: float
) -> tuple[ConclusionCheck, ...]:
    """Nearness residuals of the conclusion identities of the problem's
    scheme at (z, w): ST z = z, TS w = w, T z = w, S w = z for a MapPair;
    SA z = z, TB z = z, BS w = w, AT w = w, A z = w, B z = w, S w = z,
    T w = z for a MapQuadruple."""
    identities = _scheme(problem)[2]
    maps = {c: getattr(problem, c) for names in identities for c in names[1]}
    return _conclusions(identities, maps, mu, nu, np.array([z]), np.array([w]), grid, tol)[0]


# Cycles mapped at most before their steps are judged.  Chunks grow from one
# cycle to this cap, so that a short run maps few cycles past its stop.  On
# suite-quad-slow, caps of 64 and 128 tie and 32 is slower (16 and 256 were
# slower still).
_CHUNK_CYCLES = 64


def _map_chunk(cycle, x: np.ndarray, cycles: int):
    """Map cycles cycles from the iterates x of the running starts: the
    stacked xs (x, then one per step), the stacked ys, each step written in
    place into arrays allocated once per chunk, and per start the number of
    maps it applied before its first escape, or None if no start escaped.
    Escaped rows are mapped on but never judged or traced; the first escape
    is found once per chunk, with one codomain check per map position of
    the cycle.  When every map is 1-D affine, each step is the one product
    of _Affine._raw_rows, made inline."""
    per, k = len(cycle), cycles * len(cycle)
    xs = np.empty((k + 1,) + x.shape, x.dtype)
    xs[0] = x
    y = cycle[0][0]._raw_rows(x)  # the shape and type of the y rows
    ys = np.empty((k,) + y.shape, y.dtype)
    x_at = list(xs)  # a view of each step's rows
    products = [(getattr(to_y, "_product", None), getattr(to_x, "_product", None)) for to_y, to_x in cycle]
    if None in itertools.chain.from_iterable(products):
        for (to_y, to_x), x_in, y_out, x_out in zip(itertools.cycle(cycle), x_at, ys, x_at[1:]):
            to_y._raw_rows(x_in, y_out)
            to_x._raw_rows(y_out, x_out)
    else:
        for ((a, b), (c, d)), x_in, y_out, x_out in zip(itertools.cycle(products), x_at, ys, x_at[1:]):
            np.add(np.multiply(a, x_in, y_out), b, y_out)
            np.add(np.multiply(c, y_out, x_out), d, x_out)
    escapes = None
    for i, maps in enumerate(cycle):
        for j, m in enumerate(maps):  # the rows of step i of each cycle, as (cycle, start) rows
            if isinstance(m, ComposedMap):  # its inputs, so that its inner codomain is checked too
                rows = ys[i::per] if j else xs[i:-1:per]
                escaped = m.rows(rows.reshape((-1,) + rows.shape[2:]))[1]
            else:
                escaped = m.codomain.escaped_rows(xs[i + 1 :: per] if j else ys[i::per])
            if escaped is not None:
                escaped = escaped.reshape(cycles, len(x))
                at = np.where(escaped.any(axis=0), 2 * (i + per * escaped.argmax(axis=0)) + j, 2 * k)
                escapes = at if escapes is None else np.minimum(escapes, at)
    for row in () if escapes is None else np.flatnonzero(escapes < 2 * k):  # judged, never kept; 0 indexes any finite carrier
        ys[(escapes[row] + 1) // 2 :, row] = 0
        xs[escapes[row] // 2 + 1 :, row] = 0
    return xs, ys, escapes


# Why a start stopped, by code; _Runs._flags gives the codes 1 and 2.
_REASONS = (STOP_EPS, STOP_STALL, STOP_COLLAPSE, STOP_ESCAPE, STOP_MAX_ITER)


class _Runs:
    """Which starts of a batch still run, and all that is kept of them: the
    last x and y of each running start, the x and y columns of the traced
    ones (trail, one entry per chunk in which any of them ran), and of the
    last stall_window x steps what _flags reads back (tail): nearness at
    the smallest and the largest grid scale and the crisp length.  A start
    that stops leaves, in arrays over every start, its reason code (an
    index into _REASONS), the number of maps it applied, its z and its last
    y.

    Step nearness is computed at those two end scales only (ends, a grid
    built once per run), and at every scale only for the steps whose two
    ends reach 1 - eps, which alone can be near on the whole grid."""

    def __init__(self, x0: np.ndarray, mu, nu, cfg: SolveConfig, traced: np.ndarray):
        n = len(x0)
        self.mu, self.nu, self.cfg, self.traced = mu, nu, cfg, traced
        self.ends = cfg.grid if len(cfg.grid) <= 2 else TGrid(cfg.grid.values[[0, -1]])
        self.ids, self.steps = np.arange(n), 0  # the running starts, and the x steps of each
        self.x, self.y, self.tail, self.trail = x0, None, np.empty((3, 0, n)), []
        self.code, self.maps = np.full(n, _REASONS.index(STOP_MAX_ITER)), np.zeros(n, np.intp)
        self.z, self.last_y = np.empty_like(x0), None

    def judge(self, xs, ys, escapes, cycles: int) -> None:
        """Take a chunk of cycles that _map_chunk mapped from the last
        iterates, and stop each start at its first stop in it: an escape at
        once, else at the end of a cycle, eps-reached before the first
        divergence flag of that cycle."""
        k, count, first = len(ys), len(self.ids), self.steps
        per = k // cycles  # steps per cycle
        lengths = self.mu.carrier.distances(xs[:-1], xs[1:])
        x_ends, near = self._nearness(self.mu, lengths, xs[:-1], xs[1:])
        y_all = ys if self.y is None else np.concatenate([self.y[None], ys])
        y_from, y_to = y_all[:-1], y_all[1:]
        y_near = self._nearness(self.nu, self.nu.carrier.distances(y_from, y_to), y_from, y_to)[1]
        near[k - len(y_near) :] &= y_near
        near = near.reshape(cycles, per, count).all(axis=1)
        near[0] &= first > 0  # the first cycle never counts
        steps = np.concatenate([self.tail, [x_ends[..., 0], x_ends[..., -1], lengths]], axis=1)
        flags = self._flags(*steps, k).reshape(cycles, per, count)
        flag = flags[:, 0]
        for j in range(1, per):  # the first flag of a cycle wins
            flag = np.where(flag > 0, flag, flags[:, j])
        ends = near | (flag > 0)
        ended = ends.any(axis=0)
        run_on = ~ended if escapes is None else ~ended & (escapes == 2 * k)
        traced = self.traced[self.ids]
        if traced.any():  # the first chunk's xs[0] is x0
            self.trail.append((self.ids[traced], xs[first > 0 :, traced], ys[:, traced]))
        if self.last_y is None:
            self.last_y = np.zeros((len(self.code),) + ys.shape[2:], ys.dtype)
        stop = np.flatnonzero(~run_on)
        if len(stop):  # each stop's reason code, maps, z and last y
            c = ends.argmax(axis=0)[stop]  # the cycle of each stop, 0 for an escape alone
            code, maps = np.where(near[c, stop], 0, flag[c, stop]), 2 * (first + (c + 1) * per)
            if escapes is not None:  # an escape before the end of the stop cycle wins
                escaped = ~ended[stop] | (c >= escapes[stop] // (2 * per))
                code[escaped] = _REASONS.index(STOP_ESCAPE)
                maps = np.where(escaped, 2 * first + escapes[stop], maps)
            ids, ny = self.ids[stop], (maps + 1) // 2
            self.code[ids], self.maps[ids], self.z[ids] = code, maps, xs[maps // 2 - first, stop]
            has = ny > 0  # a start that escaped at its first map has no y
            self.last_y[ids[has]] = y_all[ny[has] - 1 - max(first - 1, 0), stop[has]]
        self.steps += k
        self.ids = self.ids[run_on]
        self.x, self.y, self.tail = xs[-1, run_on], ys[-1, run_on], steps[:, -self.cfg.stall_window :, run_on]

    def _nearness(self, fm, d, a, b):
        """fm's nearness of the steps a -> b, of crisp lengths d, at the end
        scales, and per step whether it reaches 1 - eps at every grid scale.
        The steps whose ends reach it are computed again on the whole grid,
        which is exact for any form, monotone in t or not (a table)."""
        level = 1.0 - self.cfg.eps
        ends = fm.mu_from_distances(d, a, b, self.ends)
        near = (ends >= level).all(axis=-1)
        if self.ends is not self.cfg.grid and near.any():
            at = np.nonzero(near)
            near[at] = (fm.mu_from_distances(d[at], a[at], b[at], self.cfg.grid) >= level).all(axis=-1)
        return ends, near

    def _flags(self, low, top, length, k: int) -> np.ndarray:
        """Per step of the chunk of its last k steps and per running start:
        1 if the step flags a stall, 2 if it flags a collapse, else 0.  low,
        top and length hold the tail's steps and the chunk's.

        Step nearness at the smallest grid scale falling over stall_window
        steps in a row is a stall.  stall_window steps in a row at the
        collapse floor are a collapse only if nearness at the largest scale
        did not rise over them (a long but shrinking step underflows at
        t_min too under the exponential form).  The step is compared with
        the steps window - 1 and window back, so the quadruple scheme's
        alternating S∘A and T∘B steps always meet one of their kind.  When
        those sit at the floor at the largest scale as well, a rise cannot
        be seen there, and the crisp lengths decide instead.
        """
        window = self.cfg.stall_window
        if len(low) < window:  # no run of window steps ends in the chunk
            return np.zeros(low[-k:].shape, dtype=np.intp)
        at = np.arange(len(low) - k, len(low))  # the chunk's steps
        back = np.maximum(at - window + 1, 0)
        back2 = np.where(at >= window, at - window, back)

        def held(cond):  # cond at each of the window steps up to each step of the chunk
            counts = np.concatenate([np.zeros((1, cond.shape[1]), np.intp), np.cumsum(cond, axis=0)])
            return counts[at + 1] - counts[np.maximum(at + 1 - window, 0)] == window

        falls = np.zeros(low.shape, dtype=bool)
        falls[1:] = low[1:] < low[:-1]  # no run read here reaches back to falls[0] unless it is step 0
        stall = held(falls)
        collapse = (
            held(low <= _COLLAPSE)
            & ~(top[at] > np.minimum(top[back], top[back2]))
            & (
                (np.maximum(top[back], top[back2]) > _COLLAPSE)
                | (length[at] >= np.maximum(length[back], length[back2]))
            )
        )
        return np.where(stall, 1, 2 * collapse)

    def finish(self) -> None:
        """Stop the starts still running after every step at max_iter."""
        self.maps[self.ids] = 2 * self.steps
        self.z[self.ids], self.last_y[self.ids] = self.x, self.y

    def columns(self) -> dict:
        """Each traced start's x and y columns up to its stop, read-only, by start."""
        parts = {}
        for ids, xs, ys in self.trail:
            for i, x, y in zip(ids.tolist(), xs.swapaxes(0, 1), ys.swapaxes(0, 1)):
                parts.setdefault(i, []).append((x, y))
        columns = {}
        for i, chunks in parts.items():
            x, y = (np.concatenate(c) for c in zip(*chunks))
            columns[i] = x[: self.maps[i] // 2 + 1], y[: (self.maps[i] + 1) // 2]
            for column in columns[i]:
                column.setflags(write=False)
        return columns


def _point(arr: np.ndarray, i: int):
    """Row i of a read-only array, or on a finite carrier its int."""
    return arr[i].item() if arr.ndim == 1 else arr[i]


@dataclass(eq=False)
class BatchResults:
    """What a lock-step batch hands over, as arrays over its starts: the
    reason code of each stop (an index into _REASONS), the iterations, z
    and w, read-only (a row of w is read only where has_w holds), and by
    start the traces and conclusion checks of the starts that _iterate was
    asked to read.  result(i) makes start i's FixedPointResult."""

    reasons: np.ndarray
    iterations: np.ndarray
    z: np.ndarray
    w: np.ndarray
    has_w: np.ndarray
    traces: dict
    checks: dict

    def result(self, i: int) -> FixedPointResult:
        z, reason, iterations = _point(self.z, i), _REASONS[self.reasons[i]], int(self.iterations[i])
        w = _point(self.w, i) if self.has_w[i] else None
        return FixedPointResult(z, w, reason, iterations, *self.traces.get(i, (None, None)), self.checks.get(i, ()))


@np.errstate(over="ignore", invalid="ignore")  # an orbit that overflows escapes or diverges, and its status says so
def _iterate(problems, owner, mu, nu, starts, cfg, read: np.ndarray) -> BatchResults:
    """The one iteration loop, shared by both schemes, over the starts of
    one or more problems at once: start i belongs to problems[owner[i]],
    and the starts of a problem are adjacent.  read marks the starts whose
    traces and conclusion checks a caller reads.

    Each cycle lists the (to_y, to_x) steps of one cycle; max_iter bounds
    the number of cycles.  Each y is kept as soon as it is computed.  A
    start converges when every step row of a full cycle reaches 1 - eps,
    and the first cycle, which has one y row fewer, never counts.  A start
    whose image escapes a codomain stops at once; the others carry on.
    Only the maps run step by step: a chunk of cycles is mapped, through
    StackedMaps if there are several problems, then judged at once by mu
    and nu (_Runs.judge), and each start stops where a run of its own would
    have.  Then w is found for every start at once, and the conclusions at
    (z, w) are checked, each identity for every problem at once, at the
    read starts only.  Only the read starts' columns are kept whole; the
    batch hands over the others' z and w alone, in arrays.
    """
    cfg = cfg or SolveConfig()
    cycle, w_name, identities = _scheme(problems[0])
    names = {c for step in cycle for c in step}
    if len(problems) == 1:
        maps = {c: getattr(problems[0], c) for c in names}

        def at(rows):
            return maps

    else:  # every problem's map of each name stacked, taken by the owner of each row
        stacked = {c: StackedMap([getattr(p, c) for p in problems]) for c in names}

        def at(rows):
            return {c: m.take(owner[rows]) for c, m in stacked.items()}

    runs = _Runs(validate_points(mu.carrier, starts), mu, nu, cfg, read)
    done, size = 0, 1
    while len(runs.ids) and done < cfg.max_iter:
        size = min(size, cfg.max_iter - done)
        here = at(runs.ids)
        runs.judge(*_map_chunk([(here[a], here[b]) for a, b in cycle], runs.x, size), size)
        done += size
        size = min(2 * size, _CHUNK_CYCLES)
    runs.finish()

    z, w, has_w = runs.z, runs.last_y, runs.maps > 0  # a start that escaped at its first map has no y
    if w_name is not None:  # w = T(z), the y limit under a continuous T, unless T(z) escapes
        w, escaped = at(np.arange(len(z)))[w_name].rows(z)
        if escaped is None:
            has_w = np.ones(len(z), bool)
        else:
            w = np.where(escaped.reshape(escaped.shape + (1,) * (w.ndim - 1)), runs.last_y, w)
            has_w |= ~escaped
    for arr in (z, w):
        arr.setflags(write=False)
    heads = np.flatnonzero(read & has_w)
    checks = {}
    if len(heads):
        found = _conclusions(identities, at(heads), mu, nu, z[heads], w[heads], cfg.grid, cfg.verify_tol)
        checks = dict(zip(heads.tolist(), found))
    return BatchResults(runs.code, runs.maps // 2, z, w, has_w, runs.columns(), checks)


def _scheme(problem):
    """(cycle, w_name, identities) of the problem's scheme: the names of the
    (to_y, to_x) maps of each step of a cycle, the map whose image of z is w
    (None if w is the last y) and the conclusion identities; see _iterate."""
    if isinstance(problem, MapPair):
        return (("T", "S"),), "T", _PAIR_IDENTITIES
    if isinstance(problem, MapQuadruple):
        return (("A", "S"), ("B", "T")), None, _QUAD_IDENTITIES
    raise UsageError(f"cannot solve problem of type {type(problem).__name__}")


def solve_problems(problems, mu, nu, starts, owner, cfg: SolveConfig | None = None) -> BatchResults:
    """Several problems of one scheme in one lock-step batch, start i being
    one of problems[owner[i]]: their maps affine or constant, on boxes
    alike, with metrics alike to mu and nu.  Of the batch's results, only
    each problem's first start has traces and conclusion checks."""
    owner = np.asarray(owner)
    return _iterate(list(problems), owner, mu, nu, list(starts), cfg, np.r_[True, owner[1:] != owner[:-1]])


def solve(problem, mu, nu, x0, cfg: SolveConfig | None = None) -> FixedPointResult:
    """Run the problem's scheme from x0: a batch of one."""
    return solve_problems([problem], mu, nu, [x0], [0], cfg).result(0)


@dataclass(eq=False)
class UniquenessReport:
    conclusive: bool
    passed: bool | None
    max_z_distance: float | None
    max_w_distance: float | None


# Largest crisp distance between two starts' fixed points that still passes the probe.
_UNIQUENESS_TOL = 1e-6


def uniqueness_probe(
    problem,
    mu: FuzzyMetric,
    nu: FuzzyMetric,
    starts,
    cfg: SolveConfig | None = None,
) -> UniquenessReport:
    """Solve from several starts in one batch and compare the fixed points.

    Passes iff the largest pairwise crisp distance among the z's and among
    the w's is at most _UNIQUENESS_TOL.  Any non-converged run makes the probe
    inconclusive (passed = None).  The report reads z and w alone, so no
    start is traced or has its conclusions checked.
    """
    starts = list(starts)
    if len(starts) < 2:
        raise UsageError("uniqueness probe needs at least two starting points")
    n = len(starts)
    batch = _iterate([problem], np.zeros(n, np.intp), mu, nu, starts, cfg, np.zeros(n, bool))
    return compare_fixed_points(mu, nu, batch, n)[0]


def compare_fixed_points(mu: FuzzyMetric, nu: FuzzyMetric, batch: BatchResults, starts: int) -> tuple:
    """The uniqueness verdicts of a batch's problems, each of starts
    adjacent starts; see uniqueness_probe.  One distance pass per space
    over the conclusive problems' z and w, stacked (problems, starts[,
    dim]), coordinates last as in one problem's alone."""
    conclusive = (batch.reasons == _REASONS.index(STOP_EPS)).reshape(-1, starts).all(axis=1)
    far = []  # per space, the largest distance among each conclusive problem's fixed points
    for fm, p in ((mu, batch.z), (nu, batch.w)) if conclusive.any() else ():  # a converged start has a w
        p = p.reshape((-1, starts) + p.shape[1:])[conclusive]
        far.append(fm.carrier.distances(p[:, :, None], p[:, None]).max(axis=(1, 2)).tolist())
    distances = zip(*far)
    reports = []
    for c in conclusive.tolist():
        z, w = next(distances) if c else (None, None)
        reports.append(UniquenessReport(c, z <= _UNIQUENESS_TOL and w <= _UNIQUENESS_TOL if c else None, z, w))
    return tuple(reports)
