"""Mappings between carriers, and the pair / quadruple problem bundles.

Every mapping declares its codomain.  rows() maps a stack of points at once
and reports which outputs escaped it (including non-finite output), so one
escaping point does not stop the others.  Calling a mapping maps one point
through rows() and raises CodomainError if its output escapes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import CodomainError, DomainError
from .spaces import BoxSpace, FiniteSpace, _freeze


class Mapping:
    """Base mapping with codomain containment enforced on every call."""

    def __init__(self, codomain):
        self.codomain = codomain

    def _raw_rows(self, xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The map at each row of xs, with no codomain test, written into
        out (an array of the result's shape and dtype) if given."""
        raise NotImplementedError

    def rows(self, xs: np.ndarray):
        """(outputs, escaped): the map at each row of xs, and None if every
        output lies in the codomain, else the mask of the rows that escaped."""
        out = self._raw_rows(xs)
        return out, self.codomain.escaped_rows(out)

    def __call__(self, x):
        out, escaped = self.rows(np.asarray(x)[None])
        if escaped is not None:
            raise CodomainError(f"{type(self).__name__} output {out[0]!r} escaped its codomain")
        if out.ndim == 1:  # finite-carrier indices: a Python int, as validate_point gives
            return int(out[0])
        out.setflags(write=False)
        return out[0]


class _Affine(Mapping):
    """x -> matrix @ x + offset at each row, by one matrix and offset
    (AffineMap) or one per row (StackedMap), rounded per row as
    np.matmul(matrix, x) + offset rounds it.

    A 1 x 1 matrix maps by one product, m * x + (offset + 0.0).  np.matmul
    computes the sum 0 + m * x, which turns a -0 product into +0, and
    adding 0.0 does the same to a -0.0 offset, so the bits are the same.
    Larger matrices keep np.matmul, whose BLAS and FMA rounding no
    elementwise expression reproduces."""

    def _set(self, matrix: np.ndarray, offset: np.ndarray) -> None:
        self.matrix, self.offset = matrix, offset
        self._product = (matrix[..., 0], offset + 0.0) if matrix.shape[-2:] == (1, 1) else None

    def _raw_rows(self, xs, out=None):
        if xs.ndim == 1:  # 1-D points given as scalars
            xs = xs[:, None]
        if self._product is not None:
            scale, shift = self._product
            return np.add(np.multiply(scale, xs, out), shift, out)
        return np.add(np.matmul(self.matrix, xs[..., None])[..., 0], self.offset, out)


class AffineMap(_Affine):
    """x -> matrix @ x + offset into a box codomain."""

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
        self._set(_freeze(m), _freeze(b))

    @classmethod
    def _of_checked(cls, matrix: np.ndarray, offset: np.ndarray, codomain: BoxSpace) -> "AffineMap":
        """The map of a read-only, finite float matrix and offset that fit the
        box codomain, as they are: without __init__'s checks and copies."""
        out = cls.__new__(cls)
        Mapping.__init__(out, codomain)
        out._set(matrix, offset)
        return out


class ConstantMap(Mapping):
    """x -> value, for any carrier kinds."""

    def __init__(self, value, codomain):
        super().__init__(codomain)
        self.value = codomain.validate_point(value)

    def _raw_rows(self, xs, out=None):
        if out is None:
            return np.broadcast_to(self.value, (len(xs),) + np.shape(self.value))
        out[...] = self.value
        return out


class TableMap(Mapping):
    """index -> targets[index] between finite carriers."""

    def __init__(self, targets, codomain: FiniteSpace):
        if not isinstance(codomain, FiniteSpace):
            raise DomainError("table maps require a finite codomain")
        super().__init__(codomain)
        tg = tuple(int(t) for t in targets)
        for t in tg:
            codomain.validate_point(t)
        self.targets = tg
        self._target_array = np.array(tg, dtype=np.intp)

    def _raw_rows(self, xs, out=None):
        # an index outside the domain (a solver row past its escape) maps harmlessly
        return self._target_array.take(xs, mode="clip", out=out)

    def __call__(self, i):
        if not 0 <= i < len(self.targets):
            raise DomainError(f"index {i!r} lies outside the table map domain of size {len(self.targets)}")
        return super().__call__(i)


class ComposedMap(Mapping):
    """x -> outer(inner(x)); inner's codomain is checked too, so a call
    names the map whose output escaped."""

    def __init__(self, outer: Mapping, inner: Mapping):
        super().__init__(outer.codomain)
        self.outer = outer
        self.inner = inner

    def __call__(self, x):
        return self.outer(self.inner(x))

    def _raw_rows(self, xs, out=None):
        return self.outer._raw_rows(self.inner._raw_rows(xs), out)

    @np.errstate(over="ignore", invalid="ignore")  # rows that escaped inner are mapped on, and escape
    def rows(self, xs):
        mid, escaped = self.inner.rows(xs)
        out, outer_escaped = self.outer.rows(mid)
        if outer_escaped is not None:
            escaped = outer_escaped if escaped is None else escaped | outer_escaped
        return out, escaped


class StackedMap(_Affine):
    """The affine and constant maps of several problems, alike in their
    codomains, as one matrix and one offset per map (a constant map's matrix
    is 0, and 0 @ x + value is value on a finite x); take(rows) maps row r
    of a batch by maps[rows[r]], rounding it as that map's AffineMap would."""

    def __init__(self, maps):
        super().__init__(maps[0].codomain)
        zero = np.zeros((self.codomain.dimension,) * 2)
        matrix = np.array([m.matrix if isinstance(m, AffineMap) else zero for m in maps])
        self._set(matrix, np.array([m.offset if isinstance(m, AffineMap) else m.value for m in maps]))

    def take(self, rows: np.ndarray) -> "StackedMap":
        out = copy.copy(self)
        out._set(self.matrix[rows], self.offset[rows])
        return out


@dataclass(eq=False)
class MapPair:
    """T maps X into Y, S maps Y back into X."""

    T: Mapping
    S: Mapping


@dataclass(eq=False)
class MapQuadruple:
    """A, B map X into Y; S, T map Y into X.  Self-map problems use X = Y."""

    A: Mapping
    B: Mapping
    S: Mapping
    T: Mapping
