"""Mappings between carriers, and the pair / quadruple problem bundles.

Every mapping declares its codomain and checks containment on each
evaluation; a point that escapes (including non-finite output) raises
CodomainError.  rows() maps a stack of points at once and reports which
outputs escaped instead of raising, so one escaping point does not stop
the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CodomainError, DomainError
from .spaces import BoxSpace, FiniteSpace, _freeze


class Mapping:
    """Base mapping with codomain containment enforced on every call."""

    def __init__(self, codomain):
        self.codomain = codomain

    def _raw(self, x):
        raise NotImplementedError

    def _raw_rows(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rows(self, xs: np.ndarray):
        """(outputs, escaped): the map at each row of xs, and None if every
        output lies in the codomain, else the mask of the rows that escaped."""
        out = self._raw_rows(xs)
        return out, self.codomain.escaped_rows(out)

    def __call__(self, x):
        out = self._raw(x)
        if not self.codomain.contains(out):
            raise CodomainError(
                f"{type(self).__name__} output {out!r} escaped its codomain"
            )
        return out


class AffineMap(Mapping):
    """x -> matrix @ x + offset into a box codomain."""

    form = "affine"

    def __init__(self, matrix, offset, codomain: BoxSpace):
        if not isinstance(codomain, BoxSpace):
            raise DomainError("affine maps require a box codomain")
        super().__init__(codomain)
        m = np.asarray(matrix, dtype=float)
        b = np.atleast_1d(np.asarray(offset, dtype=float))
        if m.ndim != 2 or b.ndim != 1 or m.shape[0] != b.size:
            raise DomainError("matrix rows must match offset length")
        if m.shape[0] != codomain.dimension:
            raise DomainError("matrix rows must match codomain dimension")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(b))):
            raise DomainError("affine coefficients must be finite")
        self.matrix = _freeze(m)
        self.offset = _freeze(b)

    def _raw(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.matrix @ x + self.offset  # a fresh array: freeze it in place
        out.setflags(write=False)
        return out

    def _raw_rows(self, xs):
        # the stacked matmul rounds each row like matrix @ x; xs @ matrix.T does not
        return np.matmul(self.matrix, xs[..., None])[..., 0] + self.offset


class ConstantMap(Mapping):
    """x -> value, for any carrier kinds."""

    form = "constant"

    def __init__(self, value, codomain):
        super().__init__(codomain)
        self.value = codomain.validate_point(value)

    def _raw(self, x):
        return self.value

    def _raw_rows(self, xs):
        return np.broadcast_to(self.value, (len(xs),) + np.shape(self.value))


class TableMap(Mapping):
    """index -> targets[index] between finite carriers."""

    form = "table"

    def __init__(self, targets, codomain: FiniteSpace):
        if not isinstance(codomain, FiniteSpace):
            raise DomainError("table maps require a finite codomain")
        super().__init__(codomain)
        tg = tuple(int(t) for t in targets)
        for t in tg:
            codomain.validate_point(t)
        self.targets = tg
        self._target_array = np.array(tg, dtype=np.intp)

    def _raw(self, x):
        i = int(x)
        if not (0 <= i < len(self.targets)):
            raise DomainError(f"index {i} outside table map domain")
        return self.targets[i]

    def _raw_rows(self, xs):
        if xs.size and not (0 <= xs.min() and xs.max() < len(self.targets)):
            raise DomainError(f"an index of {xs.tolist()} lies outside the table map domain")
        return self._target_array[xs]


class ComposedMap(Mapping):
    """x -> outer(inner(x)); inner's own codomain check still runs."""

    form = "composed"

    def __init__(self, outer: Mapping, inner: Mapping):
        super().__init__(outer.codomain)
        self.outer = outer
        self.inner = inner

    def _raw(self, x):
        return self.outer(self.inner(x))

    def rows(self, xs):
        mid, escaped = self.inner.rows(xs)
        if escaped is None:
            return self.outer.rows(mid)
        # rows that escaped the inner codomain are not mapped on
        ok = ~escaped
        kept, kept_escaped = self.outer.rows(mid[ok])
        out = np.zeros((len(xs),) + kept.shape[1:], dtype=kept.dtype)
        out[ok] = kept
        if kept_escaped is not None:
            escaped[ok] = kept_escaped
        return out, escaped


@dataclass(eq=False)
class MapPair:
    """T maps X into Y, S maps Y back into X."""

    T: Mapping
    S: Mapping

    def st(self, x):
        return self.S(self.T(x))

    def ts(self, y):
        return self.T(self.S(y))


@dataclass(eq=False)
class MapQuadruple:
    """A, B map X into Y; S, T map Y into X.  Self-map problems use X = Y."""

    A: Mapping
    B: Mapping
    S: Mapping
    T: Mapping

    def sa(self, x):
        return self.S(self.A(x))

    def tb(self, x):
        return self.T(self.B(x))

    def bs(self, y):
        return self.B(self.S(y))

    def at(self, y):
        return self.A(self.T(y))
