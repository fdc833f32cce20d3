"""Constructive iteration schemes, conclusion verification, uniqueness probe.

Pair scheme: x_n = ST(x_{n-1}), y_n = T(x_{n-1}).  Quadruple scheme runs
full interleaved cycles y_{2n-1} = A(x_{2n-2}), x_{2n-1} = S(y_{2n-1}),
y_{2n} = B(x_{2n-1}), x_{2n} = T(y_{2n}).

One driver runs either scheme from any number of starts in lock step: each
step maps the stacked iterates of the starts still running at once, a chunk
of cycles is judged at once after it is mapped, and each start stops on its
own, with the result that a run from that start alone gives.

Stopping declares convergence on both sequences simultaneously: every
step-nearness value of the most recent steps must reach 1 - eps on the
whole grid.  The limit is the final iterate, no extrapolation.  A run is
flagged diverging when step nearness at the smallest grid scale strictly
decreases for stall_window consecutive steps, or stays at the 1e-300 floor
for stall_window steps that did not shrink (see _Runs._flags), and
when an iterate escapes its carrier; the schemes must terminate on any input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CodomainError, DomainError, UsageError
from .mappings import MapPair, MapQuadruple, live_rows
from .metrics import FuzzyMetric, TGrid
from .sequences import SequenceTrace
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
    trace_x: SequenceTrace
    trace_y: SequenceTrace
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


def _residual(name: str, fm: FuzzyMetric, f, p, q, grid: TGrid, tol: float) -> ConclusionCheck:
    """min_t mu(f(p), q, t) for the identity f(p) = q; 0.0, failed, if f(p) escapes."""
    try:
        res = float(np.min(fm.mu_grid(f(p), q, grid)))
    except CodomainError:
        res = 0.0
    return ConclusionCheck(name=name, residual=res, passed=res >= 1.0 - tol)


def verify_conclusions_pair(
    pair: MapPair, mu: FuzzyMetric, nu: FuzzyMetric, z, w, grid: TGrid, tol: float
) -> tuple[ConclusionCheck, ...]:
    """Nearness residuals of the four pair-scheme conclusion identities:
    ST z = z, TS w = w, T z = w, S w = z."""
    return (
        _residual("st_z_fixed", mu, pair.st, z, z, grid, tol),
        _residual("ts_w_fixed", nu, pair.ts, w, w, grid, tol),
        _residual("t_z_is_w", nu, pair.T, z, w, grid, tol),
        _residual("s_w_is_z", mu, pair.S, w, z, grid, tol),
    )


def verify_conclusions_quadruple(
    quad: MapQuadruple, mu: FuzzyMetric, nu: FuzzyMetric, z, w, grid: TGrid, tol: float
) -> tuple[ConclusionCheck, ...]:
    """Residuals of the eight quadruple conclusions: SA z = z, TB z = z,
    BS w = w, AT w = w, A z = w, B z = w, S w = z, T w = z."""
    return (
        _residual("sa_z_fixed", mu, quad.sa, z, z, grid, tol),
        _residual("tb_z_fixed", mu, quad.tb, z, z, grid, tol),
        _residual("bs_w_fixed", nu, quad.bs, w, w, grid, tol),
        _residual("at_w_fixed", nu, quad.at, w, w, grid, tol),
        _residual("a_z_is_w", nu, quad.A, z, w, grid, tol),
        _residual("b_z_is_w", nu, quad.B, z, w, grid, tol),
        _residual("s_w_is_z", mu, quad.S, w, z, grid, tol),
        _residual("t_w_is_z", mu, quad.T, w, z, grid, tol),
    )


# Cycles mapped at most before their steps are judged.  Chunks grow from one
# cycle to this cap, so that a short run maps few cycles past its stop.  On
# suite-quad-slow, caps of 32 and 64 tie and 16, 128 and 256 are slower.
_CHUNK_CYCLES = 64


class _Steps:
    """One per-step array of every start of a batch, step-major: entry n
    holds the rows of the starts running at step n, each in its start's
    column, so a start's entries are the first ones of its column.  Once at
    most half the columns belong to running starts, the others are dropped,
    so that a start which runs long does not keep those that stopped early."""

    def __init__(self, count: int):
        self.cols = np.arange(count)  # the column of each start still kept
        self.buf = None
        self.n = 0

    def extend(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Append the entries rows[0], rows[1], ... of the starts ids as one slice."""
        if self.buf is None:
            self.buf = np.empty((16, len(ids)) + rows.shape[2:], dtype=rows.dtype)
            self.cols[ids] = np.arange(len(ids))
        end = self.n + len(rows)
        while end > len(self.buf):
            self.buf = np.concatenate([self.buf, np.empty_like(self.buf)])
        if len(ids) == self.buf.shape[1]:
            self.buf[self.n : end] = rows
        else:
            self.buf[self.n : end, self.cols[ids]] = rows
        self.n = end

    def since(self, ids: np.ndarray, n: int) -> np.ndarray:
        """Entries n onward of the starts ids."""
        return self.buf[n : self.n, self.cols[ids]]

    def column(self, i: int, n: int):
        """A copy of the first n entries of start i, or None if there are
        none; a copy, so that a result kept alone does not keep the batch."""
        return self.buf[:n, self.cols[i]].copy() if n else None

    def keep(self, ids: np.ndarray) -> None:
        """Drop the columns of the starts not in ids (ascending) once those
        in ids hold at most half of the columns."""
        if self.buf is not None and 2 * len(ids) <= self.buf.shape[1]:
            self.buf = self.buf[:, self.cols[ids]]
            self.cols[ids] = np.arange(len(ids))


def _map_chunk(cycle, x: np.ndarray, y, cycles: int):
    """Map cycles cycles from the iterates x of the running starts and their
    last y (None before the first): the stacked xs (x, then one per step),
    the stacked ys, and per start the number of maps it applied before its
    first escape, or -1.  A start that escapes is frozen at its last
    in-codomain iterates for the rest of the chunk, and no map sees it again."""
    k = cycles * len(cycle)
    xs, ys = np.empty((k + 1,) + x.shape, dtype=x.dtype), None
    escapes = np.full(len(x), -1)
    dead = None

    def step(m, v, hold, maps):
        nonlocal dead
        out, escaped = m.rows(v) if dead is None else live_rows(m, v, ~dead)
        if escaped is not None:
            escapes[escaped] = maps
            dead = escaped if dead is None else dead | escaped
        if dead is None:
            return out
        return np.where(dead.reshape((-1,) + (1,) * (out.ndim - 1)), hold, out)

    xs[0] = x
    for n in range(k):
        to_y, to_x = cycle[n % len(cycle)]
        y = step(to_y, x, 0 if y is None else y, 2 * n)  # 0: a placeholder no map sees
        if ys is None:
            ys = np.empty((k,) + y.shape, dtype=y.dtype)
        ys[n] = y
        x = xs[n + 1] = step(to_x, y, x, 2 * n + 1)
    return xs, ys, escapes


class _Runs:
    """Which starts of a batch still run, why the others stopped and their
    traces, and the iterates, nearness rows and crisp lengths of every step
    of the running starts."""

    def __init__(self, x0: np.ndarray, mu, nu, cfg: SolveConfig):
        n = len(x0)
        self.ids = np.arange(n)
        self.reasons = [STOP_MAX_ITER] * n
        self.mu, self.nu, self.cfg = mu, nu, cfg
        self.steps = [_Steps(n) for _ in range(5)]
        self.xs, self.ys, self.x_rows, self.y_rows, self.lengths = self.steps
        self.xs.extend(self.ids, x0[None])
        self.done = [None] * n  # each stopped start's (trace_x, trace_y)

    def judge(self, xs, ys, y_prev, escapes, cycles: int) -> np.ndarray:
        """Store a chunk of cycles from _map_chunk (y_prev: the y before it)
        and stop each start at its first stop in it: an escape at once, else
        at the end of a cycle, eps-reached before the first divergence flag
        of that cycle.  The mask of the starts that run on."""
        grid, level = self.cfg.grid, 1.0 - self.cfg.eps
        k, count = len(ys), len(self.ids)
        per = k // cycles  # steps per cycle
        first = self.x_rows.n  # the chunk's first step
        lengths = self.mu.carrier.distances(xs[:-1], xs[1:])
        x_rows = self.mu.mu_from_distances(lengths, xs[:-1], xs[1:], grid)
        y_all = ys if y_prev is None else np.concatenate([y_prev[None], ys])
        y_rows = self.nu.mu_batch(y_all[:-1], y_all[1:], grid)
        for steps, rows in zip(self.steps, (xs[1:], ys, x_rows, y_rows, lengths)):
            steps.extend(self.ids, rows)
        near = (x_rows >= level).all(axis=-1)
        near[k - len(y_rows) :] &= (y_rows >= level).all(axis=-1)
        near = near.reshape(cycles, per, count).all(axis=1)
        near[0] &= first > 0  # the first cycle never counts
        flags = self._flags(first, k).reshape(cycles, per, count)
        flag = flags[:, 0]
        for j in range(1, per):  # the first flag of a cycle wins
            flag = np.where(flag > 0, flag, flags[:, j])
        ends = near | (flag > 0)
        ended = ends.any(axis=0)
        run_on = ~ended & (escapes < 0)
        if run_on.all():
            return run_on
        end = np.where(ended, ends.argmax(axis=0), cycles)
        escape = np.where(escapes < 0, cycles, escapes // (2 * per))
        for row in np.flatnonzero(~run_on):
            c = end[row]
            if c < escape[row]:
                reason = STOP_EPS if near[c, row] else (STOP_STALL, STOP_COLLAPSE)[flag[c, row] - 1]
                maps = 2 * (first + (c + 1) * per)
            else:
                reason, maps = STOP_ESCAPE, 2 * first + escapes[row]
            i = int(self.ids[row])
            self.reasons[i], self.done[i] = reason, self._traces(i, maps)
        self.ids = self.ids[run_on]
        for steps in self.steps:
            steps.keep(self.ids)
        return run_on

    def _flags(self, first: int, k: int) -> np.ndarray:
        """Per step of the chunk of k steps from first on and per running
        start: 1 if the step flags a stall, 2 if it flags a collapse, else 0.

        Step nearness at the smallest grid scale falling over stall_window
        steps in a row is a stall.  stall_window steps in a row at the
        collapse floor are a collapse only if nearness at the largest scale
        did not rise over them (a long but shrinking step underflows at
        t_min too under the exponential form).  The step is compared with
        the steps window - 1 and window back, so the quadruple scheme's
        alternating S∘A and T∘B steps always meet one of their kind.  When
        those sit at the floor at the largest scale as well, a rise cannot
        be seen there, and the crisp lengths decide instead.  All of it is
        read back from the stored rows and lengths.
        """
        window = self.cfg.stall_window
        if first + k < window:  # no run of window steps ends in the chunk
            return np.zeros((k, len(self.ids)), dtype=np.intp)
        lo = max(first - window, 0)
        rows = self.x_rows.since(self.ids, lo)
        low, top = rows[..., 0], rows[..., -1]
        length = self.lengths.since(self.ids, lo)
        at = np.arange(first - lo, len(low))  # the chunk's steps
        back = np.maximum(at - window + 1, 0)
        back2 = np.where(at >= window, at - window, back)

        def held(cond):  # cond at each of the window steps up to each step of the chunk
            counts = np.concatenate([np.zeros((1, cond.shape[1]), np.intp), np.cumsum(cond, axis=0)])
            return counts[at + 1] - counts[np.maximum(at + 1 - window, 0)] == window

        falls = np.zeros(low.shape, dtype=bool)
        falls[1:] = low[1:] < low[:-1]  # no run read here reaches back to falls[0] unless lo is 0
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

    def _traces(self, i: int, maps: int):
        """(trace_x, trace_y) of start i after it applied maps maps."""
        nx, ny = maps // 2 + 1, (maps + 1) // 2
        counts = (nx, ny, nx - 1, max(ny - 1, 0))
        xs, ys, x_rows, y_rows = (s.column(i, n) for s, n in zip(self.steps, counts))
        return _trace(xs, x_rows, self.cfg.grid), _trace(ys, y_rows, self.cfg.grid)

    def traces(self, i: int):
        """(trace_x, trace_y) of start i."""
        return self.done[i] or self._traces(i, 2 * self.x_rows.n)


def _trace(points, rows, grid: TGrid) -> SequenceTrace:
    """A trace from one start's columns of the step arrays."""
    if points is None:
        points = ()
    elif points.ndim == 1:  # finite-carrier indices
        points = tuple(points.tolist())
    else:
        points.setflags(write=False)
        points = tuple(points)
    nearness = np.empty((0, len(grid))) if rows is None else rows
    return SequenceTrace(points=points, nearness=nearness, grid=grid)


@np.errstate(over="ignore", invalid="ignore")  # an orbit that overflows escapes or diverges, and its status says so
def _iterate(problem, cycle, w_of, verify, mu, nu, starts, cfg) -> list[FixedPointResult]:
    """The one iteration loop, shared by both schemes, over all starts at once.

    cycle lists the (to_y, to_x) steps of one cycle; max_iter bounds the
    number of cycles.  Each y is kept as soon as it is computed.  A start
    converges when every step row of a full cycle reaches 1 - eps, and the
    first cycle, which has one y row fewer, never counts.  A start whose
    image escapes a codomain stops at once; the others carry on.  Only the
    maps run step by step: a chunk of cycles is mapped, then judged at once
    (_Runs.judge), and each start stops where a run of its own would have.
    w_of(z, ys) gives w, and verify checks the conclusions at (z, w) of the
    first start only: the x0 of solve and of the suite's probe.
    """
    cfg = cfg or SolveConfig()
    x = validate_points(mu.carrier, starts)
    runs = _Runs(x, mu, nu, cfg)
    y, done, size = None, 0, 1
    while len(runs.ids) and done < cfg.max_iter:
        size = min(size, cfg.max_iter - done)
        xs, ys, escapes = _map_chunk(cycle, x, y, size)
        run_on = runs.judge(xs, ys, y, escapes, size)
        x, y = xs[-1][run_on], ys[-1][run_on]
        done += size
        size = min(2 * size, _CHUNK_CYCLES)

    results = []
    for i in range(len(starts)):
        trace_x, trace_y = runs.traces(i)
        z = trace_x.last
        w = w_of(z, trace_y.points)
        checks = ()
        if w is not None and i == 0:
            checks = verify(problem, mu, nu, z, w, cfg.grid, cfg.verify_tol)
        results.append(
            FixedPointResult(
                z=z,
                w=w,
                stop_reason=runs.reasons[i],
                iterations=len(trace_x) - 1,
                trace_x=trace_x,
                trace_y=trace_y,
                conclusion_checks=checks,
            )
        )
    return results


def _scheme(problem):
    """(cycle, w_of, verify) of the problem's scheme; see _iterate."""
    if isinstance(problem, MapPair):

        def w_of(z, ys):  # w = T(z), the y limit under a continuous T
            try:
                return problem.T(z)
            except CodomainError:
                return ys[-1] if ys else None

        return ((problem.T, problem.S),), w_of, verify_conclusions_pair
    if isinstance(problem, MapQuadruple):
        cycle = ((problem.A, problem.S), (problem.B, problem.T))
        return cycle, lambda z, ys: ys[-1] if ys else None, verify_conclusions_quadruple
    raise UsageError(f"cannot solve problem of type {type(problem).__name__}")


def solve_batch(problem, mu, nu, starts, cfg: SolveConfig | None = None) -> list:
    """Run the problem's scheme from every start in lock step: one
    FixedPointResult per start, each the one a run from that start alone
    gives, except that only the first start's conclusions are checked; the
    other results carry no checks."""
    starts = list(starts)
    if not starts:
        return []
    return _iterate(problem, *_scheme(problem), mu, nu, starts, cfg)


def solve(problem, mu, nu, x0, cfg: SolveConfig | None = None) -> FixedPointResult:
    """Run the problem's scheme from x0: a batch of one."""
    return solve_batch(problem, mu, nu, [x0], cfg)[0]


@dataclass(eq=False)
class UniquenessReport:
    conclusive: bool
    passed: bool | None
    max_z_distance: float | None
    max_w_distance: float | None
    statuses: tuple[str, ...]
    tol: float
    zs: tuple
    ws: tuple
    results: tuple


def _diameter(carrier, pts) -> float:
    p = np.asarray(pts)
    return float(carrier.distances(p[:, None], p[None]).max())


def uniqueness_probe(
    problem,
    mu: FuzzyMetric,
    nu: FuzzyMetric,
    starts,
    cfg: SolveConfig | None = None,
    tol: float = 1e-6,
) -> UniquenessReport:
    """Solve from several starts in one batch and compare the fixed points.

    Passes iff the largest pairwise crisp distance among the z's and among
    the w's is at most tol.  Any non-converged run makes the probe
    inconclusive (passed = None).  The report keeps every start's result;
    conclusions are checked only for the first start, by convention x0.
    """
    starts = list(starts)
    if len(starts) < 2:
        raise UsageError("uniqueness probe needs at least two starting points")
    results = tuple(solve_batch(problem, mu, nu, starts, cfg))
    statuses = tuple(r.status for r in results)
    zs = tuple(r.z for r in results)
    ws = tuple(r.w for r in results)
    conclusive = all(s == STATUS_CONVERGED for s in statuses)
    max_z = max_w = passed = None
    if conclusive:
        max_z, max_w = _diameter(mu.carrier, zs), _diameter(nu.carrier, ws)
        passed = max_z <= tol and max_w <= tol
    return UniquenessReport(
        conclusive=conclusive,
        passed=passed,
        max_z_distance=max_z,
        max_w_distance=max_w,
        statuses=statuses,
        tol=tol,
        zs=zs,
        ws=ws,
        results=results,
    )
