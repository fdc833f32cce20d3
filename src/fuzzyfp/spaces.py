"""Carrier spaces: closed boxes in R^n and finite sets with a crisp metric.

Completeness of the carriers is assumed, not verified: closed boxes
(bounded or not) and finite sets are complete for the metrics offered here.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, UsageError
from .rng import unit

# Two points closer than this (in the carrier's crisp metric) are treated
# as equal.  Needed because box carriers live in floating point.
DELTA_PT = 1e-9

_CRISP_METRICS = ("euclidean", "max")

# Slack of BoxSpace.contains, added to the bounds once per box.
_CONTAINS_ATOL = 1e-9


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


class BoxSpace:
    """Axis-aligned closed box in R^n; bounds may be infinite (whole of R^n)."""

    kind = "box"

    def __init__(self, lo, hi, crisp_metric: str = "euclidean"):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise DomainError("box bounds must be equal-length non-empty vectors")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise DomainError("box bounds must not be NaN")
        if not np.all(lo < hi):
            raise DomainError("box bounds require lo < hi in every coordinate")
        if crisp_metric not in _CRISP_METRICS:
            raise DomainError(f"unknown crisp metric {crisp_metric!r}")
        self.lo = _freeze(lo)
        self.hi = _freeze(hi)
        self.crisp_metric = crisp_metric
        self.is_bounded = bool(np.isfinite(lo).all() and np.isfinite(hi).all())
        self._lo_tol = lo - _CONTAINS_ATOL
        self._hi_tol = hi + _CONTAINS_ATOL

    @property
    def dimension(self) -> int:
        return self.lo.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return x.shape == self.lo.shape and self.escaped_rows(x[None]) is None

    def escaped_rows(self, xs: np.ndarray):
        """None if every row of a (..., dim) float array lies in the box,
        within the slack and (on an unbounded box) finite, else the mask of
        the rows that do not; finite bounds already reject NaN and +-inf."""
        inside = (xs >= self._lo_tol) & (xs <= self._hi_tol)
        if not self.is_bounded:
            inside &= np.isfinite(xs)
        return None if inside.all() else ~inside.all(axis=-1)

    def validate_point(self, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.shape != self.lo.shape:
            raise DomainError(
                f"point of dimension {arr.size} in box of dimension {self.dimension}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("point coordinates must be finite")
        if not self.contains(arr):
            raise DomainError(f"point {arr.tolist()} outside box carrier")
        return _freeze(arr)

    def distance(self, x, y) -> float:
        return float(self.distances(x, y))

    @np.errstate(over="ignore")  # a distance beyond the float range is inf
    def distances(self, a, b, axis: int = -1) -> np.ndarray:
        """Crisp distances of points broadcast on the axes other than the
        coordinate axis.  np.vecdot (numpy >= 2.0) rounds like np.dot;
        (d * d).sum(-1) does not, since BLAS ddot fuses multiply-adds.
        Points whose squares overflow are recomputed scaled by their largest |d|."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.crisp_metric != "euclidean":
            return np.abs(d, out=d).max(axis=axis)
        out = np.sqrt(np.vecdot(d, d, axis=axis))
        if np.isinf(out).any():
            out, d = np.array(out), np.moveaxis(d, axis, -1)
            over = np.isinf(out) & np.isfinite(d).all(axis=-1)
            big = d[over]
            scale = np.abs(big).max(axis=-1, keepdims=True)
            out[over] = scale[:, 0] * np.sqrt(np.vecdot(big / scale, big / scale))
            out = out[()]
        return out

    def sample(self, rng, count: int, window=None) -> np.ndarray:
        """(count, dim) read-only array of uniform points from the box, or
        from an explicit (lo, hi) window."""
        pts = self.points(rng.block(count * self.dimension), window)
        pts.setflags(write=False)
        return pts

    def points(self, u, window=None) -> np.ndarray:
        """The uniform points of raw draws u (uint64, dim draws per point on
        the last axis) in the box or an explicit (lo, hi) window: shape
        (..., points, dim)."""
        if window is not None:
            lo = np.asarray(window[0], dtype=float)
            hi = np.asarray(window[1], dtype=float)
        else:
            lo, hi = self.lo, self.hi
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise UsageError("cannot sample an unbounded box; pass a finite window")
        return lo + (hi - lo) * unit(u).reshape(*u.shape[:-1], -1, self.dimension)


class FiniteSpace:
    """Finite carrier given by a symmetric distance table (a crisp metric)."""

    kind = "finite"

    def __init__(self, table):
        t = np.asarray(table, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
            raise DomainError("distance table must be square and non-empty")
        n = t.shape[0]
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise DomainError("distance table must be finite and nonnegative")
        if np.any(np.diagonal(t) != 0.0):
            raise DomainError("distance table must have a zero diagonal")
        if not np.array_equal(t, t.T):
            raise DomainError("distance table must be symmetric")
        off = t + np.eye(n)
        if np.any(off <= 0.0):
            raise DomainError("distinct points must have positive distance")
        for i in range(n):  # bad[j, k]: t[i, k] > t[i, j] + t[j, k], in O(n^2) memory
            bad = t[i, None, :] > t[i, :, None] + t + 1e-12
            if bad.any():
                j, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
                raise DomainError(f"triangle inequality fails at ({i}, {j}, {k})")
        self.table = _freeze(t)

    @property
    def size(self) -> int:
        return self.table.shape[0]

    def contains(self, i) -> bool:
        return isinstance(i, (int, np.integer)) and 0 <= int(i) < self.size

    def escaped_rows(self, idx: np.ndarray):
        """None if every entry of an integer index array is a point, else
        the mask of the entries that are not."""
        inside = (idx >= 0) & (idx < self.size)
        return None if inside.all() else ~inside

    def validate_point(self, i) -> int:
        if not self.contains(i):
            raise DomainError(f"index {i!r} not in finite carrier of size {self.size}")
        return int(i)

    def distance(self, i, j) -> float:
        return float(self.distances(i, j))

    def distances(self, a, b) -> np.ndarray:
        """Crisp distances of index arrays, broadcast."""
        return self.table[np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]

    def sample(self, rng, count: int, window=None) -> np.ndarray:
        """Read-only array of count uniform point indices."""
        pts = self.points(rng.block(count))
        pts.setflags(write=False)
        return pts

    def points(self, u, window=None) -> np.ndarray:
        """The uniform point indices of raw draws u (uint64), one per draw."""
        return (u % np.uint64(self.size)).astype(np.intp)


def validate_points(carrier, pts, nested: bool = False) -> np.ndarray:
    """validate_point over a sequence (of equal-length sequences if nested),
    checked as one read-only array; a bad point raises the error that
    validate_point gives for the first of them."""
    box = carrier.kind == "box"
    try:
        arr = np.array(pts, dtype=float if box else None)
    except (TypeError, ValueError):  # ragged points
        arr = np.empty(0)
    shape = (len(pts), len(pts[0])) if nested else (len(pts),)
    shape += (carrier.dimension,) if box else ()
    if arr.shape != shape or not (box or arr.dtype.kind in "iu") or carrier.escaped_rows(arr) is not None:
        arr = np.array([validate_points(carrier, p) if nested else carrier.validate_point(p) for p in pts])
    arr.setflags(write=False)
    return arr
