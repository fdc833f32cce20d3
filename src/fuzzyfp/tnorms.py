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

    def apply_array(self, a, b):
        """Elementwise application on numpy arrays."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.kind == "minimum":
            return np.minimum(a, b)
        if self.kind == "product":
            return a * b
        # Ordering the operands keeps the unit law a * 1 = a exact in floats:
        # with hi == 1.0 the value is lo + 0.0, never (a + 1) - 1.
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return np.maximum(lo + (hi - 1.0), 0.0)


MINIMUM = TNorm("minimum")
PRODUCT = TNorm("product")
LUKASIEWICZ = TNorm("lukasiewicz")

