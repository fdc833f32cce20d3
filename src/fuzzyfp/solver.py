"""Constructive iteration schemes, conclusion verification, uniqueness probe.

Pair scheme: x_n = ST(x_{n-1}), y_n = T(x_{n-1}).  Quadruple scheme runs
full interleaved cycles y_{2n-1} = A(x_{2n-2}), x_{2n-1} = S(y_{2n-1}),
y_{2n} = B(x_{2n-1}), x_{2n} = T(y_{2n}).

One driver runs either scheme from any number of starts in lock step: each
step maps the stacked iterates of the starts still running at once, and
each start stops on its own, with the result that a run from that start
alone gives.

Stopping declares convergence on both sequences simultaneously: every
step-nearness value of the most recent steps must reach 1 - eps on the
whole grid.  The limit is the final iterate, no extrapolation.  A run is
flagged diverging when step nearness at the smallest grid scale strictly
decreases for stall_window consecutive steps, or stays at the 1e-300 floor
for stall_window steps that did not shrink (see _DivergenceMonitor), and
when an iterate escapes its carrier; the schemes must terminate on any input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CodomainError, DomainError, UsageError
from .mappings import MapPair, MapQuadruple
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


class _DivergenceMonitor:
    """Tracks, per start, step nearness at the smallest and the largest grid scale.

    window steps at the collapse floor flag divergence only if nearness at
    the largest scale did not rise over them (a long but shrinking step
    underflows at t_min too under the exponential form).  The last step is
    compared with the steps window - 1 and window back, so the quadruple
    scheme's alternating S∘A and T∘B steps always meet one of their kind.
    When the compared steps sit at the floor at the largest scale as well,
    a rise cannot be seen there, and their crisp lengths decide instead.
    Those lengths are kept with the tops, so the decision computes none.
    """

    def __init__(self, window: int, count: int):
        self.window = window
        self.prev = np.full(count, -np.inf)
        self.decline_run = np.zeros(count, dtype=np.intp)
        self.collapse_run = np.zeros(count, dtype=np.intp)
        # the tops and crisp lengths of each start's last window + 1 steps, in a ring
        self.tops = np.empty((count, window + 1))
        self.lengths = np.empty((count, window + 1))
        self.pushes = 0

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the starts in the mask rows."""
        self.prev, self.decline_run, self.collapse_run = (
            self.prev[rows], self.decline_run[rows], self.collapse_run[rows]
        )
        self.tops, self.lengths = self.tops[rows], self.lengths[rows]

    def push(self, rows: np.ndarray, lengths: np.ndarray) -> dict:
        """Take each start's nearness row and crisp length of its step xs[-2] -> xs[-1];
        return {row: stop reason} of the starts flagged diverging."""
        value = rows[:, 0]
        self.decline_run += 1
        self.decline_run *= value < self.prev
        self.collapse_run += 1
        self.collapse_run *= value <= _COLLAPSE
        self.prev = value
        size = self.window + 1
        slot = self.pushes % size
        self.tops[:, slot] = rows[:, -1]
        self.lengths[:, slot] = lengths
        self.pushes += 1
        if self.decline_run.max() < self.window and self.collapse_run.max() < self.window:
            return {}
        filled = min(self.pushes, size)
        backs = [(slot - k) % size for k in (self.window, self.window - 1) if k < filled]
        flagged = {}
        for i in np.flatnonzero(np.maximum(self.decline_run, self.collapse_run) >= self.window):
            if self.decline_run[i] >= self.window:
                flagged[i] = STOP_STALL
                continue
            back_tops = self.tops[i, backs]
            if self.tops[i, slot] > back_tops.min():
                continue
            if back_tops.max() > _COLLAPSE or self.lengths[i, slot] >= self.lengths[i, backs].max():
                flagged[i] = STOP_COLLAPSE
        return flagged


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

    def append(self, ids: np.ndarray, rows: np.ndarray) -> None:
        if self.buf is None:
            self.buf = np.empty((16, len(ids)) + rows.shape[1:], dtype=rows.dtype)
            self.cols[ids] = np.arange(len(ids))
        elif self.n == len(self.buf):
            self.buf = np.concatenate([self.buf, np.empty_like(self.buf)])
        if len(ids) == self.buf.shape[1]:
            self.buf[self.n] = rows
        else:
            self.buf[self.n, self.cols[ids]] = rows
        self.n += 1

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


class _Runs:
    """Which starts of a batch still run, why the others stopped and their
    traces, the divergence monitor, and the iterates and nearness rows of
    every step of the running starts."""

    def __init__(self, x0: np.ndarray, window: int, grid: TGrid):
        n = len(x0)
        self.ids = np.arange(n)
        self.reasons = [STOP_MAX_ITER] * n
        self.monitor = _DivergenceMonitor(window, n)
        self.grid = grid
        self.steps = [_Steps(n) for _ in range(4)]
        self.xs, self.ys, self.x_rows, self.y_rows = self.steps
        self.xs.append(self.ids, x0)
        self.done = [None] * n  # each stopped start's (trace_x, trace_y)

    def stop(self, reasons: dict, *arrays) -> list:
        """Stop the rows in reasons ({row: stop reason}); the per-row arrays
        without those rows (None stays None)."""
        keep = np.ones(len(self.ids), dtype=bool)
        for row, reason in reasons.items():
            i = int(self.ids[row])
            self.reasons[i], self.done[i] = reason, self._traces(i)
            keep[row] = False
        self.ids = self.ids[keep]
        self.monitor.keep(keep)
        for steps in self.steps:
            steps.keep(self.ids)
        return [None if a is None else a[keep] for a in arrays]

    def _traces(self, i: int):
        xs, ys, x_rows, y_rows = (s.column(i, s.n) for s in self.steps)
        return _trace(xs, x_rows, self.grid), _trace(ys, y_rows, self.grid)

    def traces(self, i: int):
        """(trace_x, trace_y) of start i."""
        return self.done[i] or self._traces(i)


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


@np.errstate(over="ignore")  # an orbit that overflows escapes or diverges, and its status says so
def _iterate(problem, cycle, w_of, verify, mu, nu, starts, cfg) -> list[FixedPointResult]:
    """The one iteration loop, shared by both schemes, over all starts at once.

    cycle lists the (to_y, to_x) steps of one cycle; max_iter bounds the
    number of cycles.  Each y is kept as soon as it is computed.  A start
    converges when every step row of a full cycle reaches 1 - eps, and the
    first cycle, which has one y row fewer, never counts.  A start whose
    image escapes a codomain stops at once; the others carry on.  w_of(z, ys)
    gives w, and verify checks the conclusions at (z, w) of the first start
    only: the x0 of solve and of the suite's probe.
    """
    cfg = cfg or SolveConfig()
    grid, near_level = cfg.grid, 1.0 - cfg.eps
    x = validate_points(mu.carrier, starts)
    runs = _Runs(x, cfg.stall_window, grid)
    y_prev = None
    for cycle_no in range(cfg.max_iter):
        near = np.full(len(x), cycle_no > 0)
        any_near = cycle_no > 0  # rows are tested only while some start may still be near
        flagged = {}  # start id: the first divergence flag of this cycle
        for to_y, to_x in cycle:
            y, escaped = to_y.rows(x)
            if escaped is not None:
                escapes = dict.fromkeys(np.flatnonzero(escaped), STOP_ESCAPE)
                x, y, y_prev, near = runs.stop(escapes, x, y, y_prev, near)
                if not len(x):
                    break
            if y_prev is not None:
                d = nu.carrier.distances(y_prev, y)
                row = nu.mu_from_distances(d, y_prev, y, grid)
                runs.y_rows.append(runs.ids, row)
                if any_near:
                    near &= (row >= near_level).all(axis=1)
                    any_near = near.any()
            runs.ys.append(runs.ids, y)
            y_prev = y
            x_next, escaped = to_x.rows(y)
            if escaped is not None:
                escapes = dict.fromkeys(np.flatnonzero(escaped), STOP_ESCAPE)
                x, x_next, y_prev, near = runs.stop(escapes, x, x_next, y_prev, near)
                if not len(x):
                    break
            d = mu.carrier.distances(x, x_next)
            row = mu.mu_from_distances(d, x, x_next, grid)
            runs.xs.append(runs.ids, x_next)
            runs.x_rows.append(runs.ids, row)
            if any_near:
                near &= (row >= near_level).all(axis=1)
                any_near = near.any()
            for r, reason in runs.monitor.push(row, d).items():
                flagged.setdefault(int(runs.ids[r]), reason)
            x = x_next
        if any_near or flagged:
            ids = runs.ids.tolist()
            stops = {
                r: STOP_EPS if near[r] else flagged[i]
                for r, i in enumerate(ids)
                if near[r] or i in flagged
            }
            if stops:
                x, y_prev = runs.stop(stops, x, y_prev)
        if not len(runs.ids):
            break

    results = []
    for i in range(len(starts)):
        trace_x, trace_y = runs.traces(i)
        z = trace_x.last
        w = w_of(z, trace_y.points)
        checks = ()
        if w is not None and i == 0:
            checks = verify(problem, mu, nu, z, w, grid, cfg.verify_tol)
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
