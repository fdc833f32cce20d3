"""Sequence traces and the sampled convergence / Cauchy predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .metrics import FuzzyMetric, TGrid


@dataclass(eq=False)
class SequenceTrace:
    """Points of a sequence plus consecutive-step nearness over a grid.

    A trace may be empty (a scheme can fail before producing any iterate);
    the predicates below reject empty traces explicitly.
    """

    points: tuple
    nearness: np.ndarray  # shape (max(len(points) - 1, 0), len(grid))
    grid: TGrid

    def __post_init__(self):
        n = len(self.points)
        if self.nearness.shape != (max(n - 1, 0), len(self.grid)):
            raise UsageError("nearness rows must pair consecutive points")

    @classmethod
    def from_points(cls, points, fm: FuzzyMetric, grid: TGrid) -> "SequenceTrace":
        pts = tuple(points)
        a, b = np.asarray(pts[:-1]), np.asarray(pts[1:])
        near = fm.mu_batch(a, b, grid.values) if len(pts) > 1 else np.empty((0, len(grid)))
        return cls(points=pts, nearness=near, grid=grid)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def last(self):
        return self.points[-1]


def is_convergent(trace: SequenceTrace, limit, fm: FuzzyMetric, grid: TGrid, eps: float) -> bool:
    """True iff the final point is (1 - eps)-near the limit at every grid t."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if len(trace) == 0:
        raise UsageError("empty trace")
    row = fm.mu_grid(trace.last, limit, grid.values)
    return bool(np.all(row >= 1.0 - eps))


def is_cauchy(trace: SequenceTrace, fm: FuzzyMetric, grid: TGrid, eps: float, p_max: int) -> bool:
    """True iff mu(x_n, x_{n+p}, t) >= 1 - eps at the final available n for
    every stride p <= p_max and every grid t."""
    if p_max < 1:
        raise UsageError("p_max must be >= 1")
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if len(trace) < p_max + 1:
        raise UsageError(f"trace of length {len(trace)} too short for p_max={p_max}")
    strides = np.asarray(trace.points[-p_max - 1 : -1])  # x_{n-p} for p = p_max, ..., 1
    return bool(np.all(fm.mu_batch(strides, trace.points[-1], grid.values) >= 1.0 - eps))


def chain_lower_bound(fm: FuzzyMetric, op, points, t: float) -> float:
    """Iterated-triangle lower bound for mu(first, last, t): the op-fold of
    consecutive nearness values at scale t / p over the p chain segments."""
    pts = tuple(points)
    p = len(pts) - 1
    if p < 1:
        raise UsageError("chain needs at least two points")
    t1 = t / p
    acc = fm.mu(pts[0], pts[1], t1)
    for i in range(1, p):
        acc = op(acc, fm.mu(pts[i], pts[i + 1], t1))
    return float(acc)
