"""Degree-of-nearness functions mu(x, y, t) over a carrier, and the t-grid.

The quantifier "for all t > 0" is replaced everywhere by a finite grid of
positive scales; the default is 17 log-spaced points in [1e-2, 1e2].  Every
report records the grid it was computed on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spaces import FiniteSpace

_TINY = float(np.finfo(float).tiny)
# Largest grid scale: the triangle axiom evaluates nearness at t + s.
_T_LIMIT = float(np.finfo(float).max) / 2

DEFAULT_T_MIN = 1e-2
DEFAULT_T_MAX = 1e2
DEFAULT_T_COUNT = 17


class TGrid:
    """Strictly increasing positive scales at which nearness is evaluated."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.atleast_1d(np.asarray(values, dtype=float))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("t-grid must be a non-empty vector")
        if not ((arr > 0.0) & (arr <= _T_LIMIT)).all():  # NaN fails both
            raise DomainError("t-grid values must be positive, with t + t finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise DomainError("t-grid values must be strictly increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        self.values = arr

    @classmethod
    def logspace(
        cls,
        t_min: float = DEFAULT_T_MIN,
        t_max: float = DEFAULT_T_MAX,
        count: int = DEFAULT_T_COUNT,
    ) -> "TGrid":
        if count < 1:
            raise DomainError("t-grid needs at least one point")
        if not (0 < t_min < math.inf and 0 < t_max < math.inf):
            raise DomainError(f"t_min and t_max must be positive and finite, got {t_min}, {t_max}")
        if count == 1:
            return cls([t_min])
        return cls(np.logspace(math.log10(t_min), math.log10(t_max), count))

    @classmethod
    def default(cls) -> "TGrid":
        return cls.logspace()

    def with_t_max(self, t_max: float) -> "TGrid":
        """Same point count and t_min, rebuilt log-spaced up to t_max."""
        if len(self) < 2:
            raise DomainError("a grid of one point has no t_max to move")
        return TGrid.logspace(self.t_min, t_max, len(self))

    @property
    def t_min(self) -> float:
        return float(self.values[0])

    @property
    def t_max(self) -> float:
        return float(self.values[-1])

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"TGrid({self.values.tolist()!r})"


class GridTile:
    """The values of a TGrid repeated over the point pairs of a block, as
    one read-only, C-contiguous array allocated for the largest block of an
    estimator call; a block of shape s takes the leading rows of it, as an
    array of shape s + (len(grid),).  The induced forms compute against it
    so that their passes over a block run on contiguous operands instead of
    broadcasting the grid as their innermost loop; its values are the
    grid's, so the bits are too."""

    __slots__ = ("grid", "_rows")

    def __init__(self, grid: TGrid, pairs: int):
        rows = np.tile(grid.values, (pairs, 1))
        rows.setflags(write=False)
        self.grid, self._rows = grid, rows

    def over(self, shape: tuple) -> np.ndarray:
        """The tile of a block of point pairs of the given shape."""
        return self._rows[: math.prod(shape)].reshape(shape + (len(self.grid),))


def _check_ts(ts) -> np.ndarray:
    """Scales as a float array.  A TGrid was validated when it was built."""
    if isinstance(ts, TGrid):
        return ts.values
    arr = np.asarray(ts, dtype=float)
    if not ((arr > 0.0) & (arr < np.inf)).all():  # one pass: NaN fails both
        raise DomainError("nearness scale t must be positive and finite")
    return arr


class FuzzyMetric:
    """Base type: mu(x, y, t) in (0, 1], symmetric, with mu(x, x, t) = 1."""

    form = "base"
    monotone_in_t = False

    def __init__(self, carrier):
        self.carrier = carrier

    def mu(self, x, y, t: float) -> float:
        return float(self.mu_grid(x, y, float(t)))

    def mu_grid(self, x, y, ts) -> np.ndarray:
        """mu_batch of one point pair over an array of scales or a TGrid."""
        return self.mu_batch(x, y, ts)

    def mu_batch(self, a, b, ts, out=None) -> np.ndarray:
        """mu_grid over points broadcast on leading axes; the scale axes of ts
        come last.  Like a ufunc, it may write the values into out, an array
        of the result's shape, and return it."""
        raise NotImplementedError

    def mu_from_distances(self, d, a, b, ts, out=None) -> np.ndarray:
        """mu_batch(a, b, ts) for a caller that already holds d = carrier.distances(a, b).
        ts may also be a GridTile, whose grid then gives the one scale axis."""
        return self.mu_batch(a, b, ts.grid if isinstance(ts, GridTile) else ts, out)

    def pairwise(self, pts_a, pts_b, ts, out=None) -> np.ndarray:
        """Array of shape (len(pts_a), len(pts_b), len(ts)), written into out if given."""
        a, b = np.asarray(pts_a), np.asarray(pts_b)
        return self.mu_batch(a[:, None], b[None], ts if isinstance(ts, TGrid) else np.atleast_1d(ts), out)


class _InducedFuzzyMetric(FuzzyMetric):
    """Nearness induced from the carrier's crisp metric."""

    monotone_in_t = True

    def _from_d(self, d, ts, out=None):
        raise NotImplementedError

    def mu_batch(self, a, b, ts, out=None) -> np.ndarray:
        return self.mu_from_distances(self.carrier.distances(a, b), a, b, ts, out)

    def mu_from_distances(self, d, a, b, ts, out=None) -> np.ndarray:
        if isinstance(ts, GridTile):
            return self._from_d(d[..., None], ts.over(d.shape), out)
        ts = _check_ts(ts)
        return self._from_d(d.reshape(d.shape + (1,) * ts.ndim), ts, out)


class StandardFuzzyMetric(_InducedFuzzyMetric):
    """mu(x, y, t) = t / (t + d(x, y))."""

    form = "standard"

    def _from_d(self, d, ts, out=None):
        return np.divide(ts, np.add(ts, d, out=out), out=out)


class ExponentialFuzzyMetric(_InducedFuzzyMetric):
    """mu(x, y, t) = exp(-d(x, y) / t), floored at the smallest normal float
    so that evaluations stay strictly positive even when exp underflows."""

    form = "exponential"

    def _from_d(self, d, ts, out=None):
        e = np.exp(np.negative(np.divide(d, ts, out=out), out=out), out=out)
        return np.maximum(e, _TINY, out=out)


class TableFuzzyMetric(FuzzyMetric):
    """Nearness stored per (pair, grid scale) on a finite carrier.

    Values are interpolated log-linearly in t between the stored grid points
    and clamped to the endpoint values outside the grid.  Only structural
    validity is enforced here; the nearness axioms are the job of
    check_fm_axioms, so deliberately broken tables can be constructed.
    """

    form = "table"

    def __init__(self, carrier: FiniteSpace, grid: TGrid, values):
        if not isinstance(carrier, FiniteSpace):
            raise DomainError("table-based nearness requires a finite carrier")
        super().__init__(carrier)
        vals = np.asarray(values, dtype=float)
        expect = (carrier.size, carrier.size, len(grid))
        if vals.shape != expect:
            raise DomainError(f"table values must have shape {expect}, got {vals.shape}")
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0) or np.any(vals > 1.0):
            raise DomainError("table values must lie in (0, 1]")
        vals = vals.copy()
        vals.setflags(write=False)
        self.grid = grid
        self.values = vals
        self._log_grid = np.log(grid.values)

    def mu_grid(self, x, y, ts) -> np.ndarray:
        # a bad index would wrap around or truncate in the table lookup
        return super().mu_grid(self.carrier.validate_point(x), self.carrier.validate_point(y), ts)

    def mu_batch(self, a, b, ts, out=None) -> np.ndarray:
        x = np.log(_check_ts(ts))
        rows = self.values[np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]
        xp = self._log_grid
        if len(xp) == 1:  # one stored scale: its value at every scale
            values = rows.reshape(rows.shape[:-1] + (1,) * x.ndim)
        else:  # np.interp(x, xp, row) for every row at once, with its segment, slope and rounding
            j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
            lo, hi = rows[..., j], rows[..., j + 1]
            # np.interp's NaN fallback cannot fire on finite values; a zero-width segment
            # (two scales with one log) is computed only where the ends replace it
            with np.errstate(divide="ignore", invalid="ignore"):
                values = (hi - lo) / (xp[j + 1] - xp[j]) * (x - xp[j]) + lo
            values = np.where(x >= xp[-1], hi, np.where((x < xp[0]) | (xp[j] == x), lo, values))
        if out is None:
            out = np.empty(rows.shape[:-1] + x.shape)
        out[...] = values
        return out


def induced_standard(carrier) -> StandardFuzzyMetric:
    return StandardFuzzyMetric(carrier)


def induced_exponential(carrier) -> ExponentialFuzzyMetric:
    return ExponentialFuzzyMetric(carrier)


__all__ = [
    "TGrid",
    "GridTile",
    "FuzzyMetric",
    "StandardFuzzyMetric",
    "ExponentialFuzzyMetric",
    "TableFuzzyMetric",
    "induced_standard",
    "induced_exponential",
    "DEFAULT_T_MIN",
    "DEFAULT_T_MAX",
    "DEFAULT_T_COUNT",
]
