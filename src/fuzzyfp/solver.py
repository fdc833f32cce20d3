"""Constructive iteration schemes, conclusion verification, uniqueness probe.

Pair scheme: x_n = ST(x_{n-1}), y_n = T(x_{n-1}).  Quadruple scheme runs
full interleaved cycles y_{2n-1} = A(x_{2n-2}), x_{2n-1} = S(y_{2n-1}),
y_{2n} = B(x_{2n-1}), x_{2n} = T(y_{2n}).

Stopping declares convergence on both sequences simultaneously: every
step-nearness value of the most recent steps must reach 1 - eps on the
whole grid.  The limit is the final iterate, no extrapolation.  A run is
flagged diverging when step nearness at the smallest grid scale strictly
decreases for stall_window consecutive steps, or stays at the 1e-300 floor
for stall_window steps that did not shrink (see _DivergenceMonitor), and
when an iterate escapes its carrier; the schemes must terminate on any input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CodomainError, DomainError, UsageError
from .mappings import MapPair, MapQuadruple
from .metrics import FuzzyMetric, TGrid
from .sequences import SequenceTrace

_COLLAPSE = 1e-300

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iter"
STATUS_DIVERGING = "diverging"


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
    status: str
    iterations: int
    trace_x: SequenceTrace
    trace_y: SequenceTrace
    conclusion_checks: tuple[ConclusionCheck, ...]

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
    """Tracks step nearness at the smallest and the largest grid scale.

    window steps at the collapse floor flag divergence only if nearness at
    the largest scale did not rise over them (a long but shrinking step
    underflows at t_min too under the exponential form).  The last step is
    compared with the steps window - 1 and window back, so the quadruple
    scheme's alternating S∘A and T∘B steps always meet one of their kind.
    When the compared steps sit at the floor at the largest scale as well,
    a rise cannot be seen there, and their crisp lengths decide instead.
    """

    def __init__(self, window: int, carrier):
        self.window = window
        self.carrier = carrier
        self.prev = -np.inf
        self.tops: deque[float] = deque(maxlen=window + 1)
        self.decline_run = 0
        self.collapse_run = 0

    def push(self, row: np.ndarray, xs: list) -> bool:
        """Take the nearness row of the step xs[-2] -> xs[-1]."""
        value, top = float(row[0]), float(row[-1])
        self.decline_run = self.decline_run + 1 if value < self.prev else 0
        self.collapse_run = self.collapse_run + 1 if value <= _COLLAPSE else 0
        self.prev = value
        self.tops.append(top)
        if self.decline_run >= self.window:
            return True
        if self.collapse_run < self.window:
            return False
        backs = [k for k in (self.window, self.window - 1) if k < len(self.tops)]
        back_tops = [self.tops[-k - 1] for k in backs]
        if top > min(back_tops):
            return False
        if max(back_tops) > _COLLAPSE:
            return True
        dist = self.carrier.distance
        return dist(xs[-2], xs[-1]) >= max(dist(xs[-k - 2], xs[-k - 1]) for k in backs)


def _row_near(row: np.ndarray, eps: float) -> bool:
    return bool((row >= 1.0 - eps).all())


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


def _trace(points: list, rows: list, grid: TGrid) -> SequenceTrace:
    nearness = np.array(rows) if rows else np.empty((0, len(grid)))
    return SequenceTrace(points=tuple(points), nearness=nearness, grid=grid)


def _iterate(problem, cycle, w_of, verify, mu, nu, x0, cfg) -> FixedPointResult:
    """The one iteration loop, shared by both schemes.

    cycle lists the (to_y, to_x) steps of one cycle; max_iter bounds the
    number of cycles.  Each y is kept as soon as it is computed.  The run
    converges when every step row of a full cycle reaches 1 - eps, and the
    first cycle, which has one y row fewer, never counts.  w_of(z, ys) gives
    w, and verify checks the conclusions at (z, w).
    """
    cfg = cfg or SolveConfig()
    grid, eps = cfg.grid, cfg.eps
    xs = [mu.carrier.validate_point(x0)]
    ys = []
    x_rows: list[np.ndarray] = []
    y_rows: list[np.ndarray] = []
    monitor = _DivergenceMonitor(cfg.stall_window, mu.carrier)
    status = STATUS_MAX_ITER
    x = xs[0]
    for cycle_no in range(cfg.max_iter):
        near = cycle_no > 0
        diverged = False
        try:
            for to_y, to_x in cycle:
                y = to_y(x)
                if ys:
                    row = nu.mu_grid(ys[-1], y, grid)
                    y_rows.append(row)
                    near = near and _row_near(row, eps)
                ys.append(y)
                x_prev, x = x, to_x(y)
                xs.append(x)
                row = mu.mu_grid(x_prev, x, grid)
                x_rows.append(row)
                near = near and _row_near(row, eps)
                diverged = monitor.push(row, xs) or diverged
        except CodomainError:
            status = STATUS_DIVERGING
            break
        if near:
            status = STATUS_CONVERGED
            break
        if diverged:
            status = STATUS_DIVERGING
            break

    z = xs[-1]
    w = w_of(z, ys)
    checks = verify(problem, mu, nu, z, w, grid, cfg.verify_tol) if w is not None else ()
    return FixedPointResult(
        z=z,
        w=w,
        status=status,
        iterations=len(xs) - 1,
        trace_x=_trace(xs, x_rows, grid),
        trace_y=_trace(ys, y_rows, grid),
        conclusion_checks=checks,
    )


def iterate_pair(
    pair: MapPair, mu: FuzzyMetric, nu: FuzzyMetric, x0, cfg: SolveConfig | None = None
) -> FixedPointResult:
    """Run the pair scheme from x0 until both step sequences stabilize.

    Returns z = final x iterate and w = T(z) (the y limit under a
    continuous T).  A codomain escape mid-run is recorded as diverging.
    """

    def w_of(z, ys):
        try:
            return pair.T(z)
        except CodomainError:
            return ys[-1] if ys else None

    return _iterate(pair, ((pair.T, pair.S),), w_of, verify_conclusions_pair, mu, nu, x0, cfg)


def iterate_quadruple(
    quad: MapQuadruple,
    mu: FuzzyMetric,
    nu: FuzzyMetric,
    x0,
    cfg: SolveConfig | None = None,
) -> FixedPointResult:
    """Run the interleaved quadruple scheme from x0 for up to max_iter
    cycles (each cycle advances x and y twice).  Convergence requires all
    four step-nearness rows of the completed cycle to reach 1 - eps."""
    return _iterate(
        quad,
        ((quad.A, quad.S), (quad.B, quad.T)),
        lambda z, ys: ys[-1] if ys else None,
        verify_conclusions_quadruple,
        mu,
        nu,
        x0,
        cfg,
    )


def solve(problem, mu, nu, x0, cfg: SolveConfig | None = None) -> FixedPointResult:
    """Dispatch on the problem shape."""
    if isinstance(problem, MapPair):
        return iterate_pair(problem, mu, nu, x0, cfg)
    if isinstance(problem, MapQuadruple):
        return iterate_quadruple(problem, mu, nu, x0, cfg)
    raise UsageError(f"cannot solve problem of type {type(problem).__name__}")


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
    first: FixedPointResult | None = None,
) -> UniquenessReport:
    """Solve from several starts and compare the returned fixed points.

    Passes iff the largest pairwise crisp distance among the z's and among
    the w's is at most tol.  Any non-converged run makes the probe
    inconclusive (passed = None).  A caller that already solved from
    starts[0] with the same cfg passes that result as first; it is used
    instead of solving again.
    """
    starts = list(starts)
    if len(starts) < 2:
        raise UsageError("uniqueness probe needs at least two starting points")
    results = [first] if first is not None else [solve(problem, mu, nu, starts[0], cfg)]
    results += [solve(problem, mu, nu, s, cfg) for s in starts[1:]]
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
    )
