"""Triangular norms on [0, 1]: minimum, product, Lukasiewicz."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

TNORM_KINDS = ("minimum", "product", "lukasiewicz")


@dataclass(frozen=True)
class TNorm:
    """A named binary aggregation operator on [0, 1]."""

    kind: str

    def __post_init__(self):
        if self.kind not in TNORM_KINDS:
            raise DomainError(f"unknown t-norm kind {self.kind!r}")

    def __call__(self, a: float, b: float) -> float:
        """Apply the t-norm after checking both operands lie in [0, 1]."""
        for v in (a, b):
            if not (0.0 <= v <= 1.0):
                raise DomainError(f"t-norm operand {v!r} outside [0, 1]")
        return float(self.apply_array(a, b))

    def apply_array(self, a, b, out=None):
        """Elementwise application on numpy arrays.  Like a ufunc, it may
        write the values into out, an array of the broadcast shape, and
        return it; the bits are those of the fresh result."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "minimum":
            return np.minimum(a, b, out=out)
        if self.kind == "product":
            return np.multiply(a, b, out=out)
        # Ordering the operands keeps the unit law a * 1 = a exact in floats:
        # with hi == 1.0 the value is lo + 0.0, never (a + 1) - 1.
        hi = np.maximum(a, b) - 1.0
        return np.maximum(np.add(np.minimum(a, b, out=out), hi, out=out), 0.0, out=out)


MINIMUM = TNorm("minimum")
PRODUCT = TNorm("product")
LUKASIEWICZ = TNorm("lukasiewicz")

