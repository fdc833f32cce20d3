"""Carrier spaces: closed boxes in R^n and finite sets with a crisp metric.

Completeness of the carriers is assumed, not verified: closed boxes
(bounded or not) and finite sets are complete for the metrics offered here.
"""

from __future__ import annotations

import math

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
        # finite bounds already reject NaN and +-inf in the comparisons below
        if x.shape != self.lo.shape or not (self.is_bounded or np.isfinite(x).all()):
            return False
        return bool((x >= self._lo_tol).all() and (x <= self._hi_tol).all())

    def escaped_rows(self, xs: np.ndarray):
        """None if contains() holds for every row of a (k, dim) float array,
        else the mask of the rows it fails for."""
        inside = (xs >= self._lo_tol) & (xs <= self._hi_tol)
        if not self.is_bounded:
            inside &= np.isfinite(xs)
        return None if inside.all() else ~inside.all(axis=1)

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
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        if self.crisp_metric == "euclidean":
            return math.sqrt(float(np.dot(d, d)))
        return float(np.max(np.abs(d)))

    def distances(self, a, b) -> np.ndarray:
        """distance() over points on leading axes, broadcast.  np.vecdot (numpy >= 2.0)
        rounds like np.dot; (d * d).sum(-1) does not, since BLAS ddot fuses multiply-adds."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.crisp_metric == "euclidean":
            return np.sqrt(np.vecdot(d, d))
        return np.abs(d).max(axis=-1)

    def sample(self, rng, count: int, window=None) -> list[np.ndarray]:
        """Uniform read-only points from the box, or from an explicit (lo, hi) window."""
        if window is not None:
            lo = np.asarray(window[0], dtype=float)
            hi = np.asarray(window[1], dtype=float)
        else:
            lo, hi = self.lo, self.hi
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise UsageError("cannot sample an unbounded box; pass a finite window")
        u = unit(rng.block(count * self.dimension)).reshape(count, self.dimension)
        pts = lo + (hi - lo) * u
        pts.setflags(write=False)
        return list(pts)


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
        return float(self.table[int(i), int(j)])

    def distances(self, a, b) -> np.ndarray:
        """distance() over index arrays, broadcast."""
        return self.table[np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)]

    def sample(self, rng, count: int, window=None) -> list[int]:
        return (rng.block(count) % np.uint64(self.size)).tolist()


def validate_points(carrier, pts) -> np.ndarray:
    """validate_point over a sequence, checked as one read-only array; a bad
    point raises the error validate_point gives for the first of them."""
    box = carrier.kind == "box"
    try:
        arr = np.array(pts, dtype=float if box else None)
    except (TypeError, ValueError):  # ragged points
        arr = np.empty(0)
    shape = (len(pts), carrier.dimension) if box else (len(pts),)
    if arr.shape != shape or not (box or arr.dtype.kind in "iu") or carrier.escaped_rows(arr) is not None:
        arr = np.array([carrier.validate_point(p) for p in pts])
    arr.setflags(write=False)
    return arr


def points_equal(carrier, a, b, tol: float = DELTA_PT) -> bool:
    """Tolerance-based point equality in the carrier's crisp metric."""
    return carrier.distance(a, b) <= tol
