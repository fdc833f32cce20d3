"""Sampled axiom checkers for t-norms and nearness functions.

Checks are exact where the law is exact (unit law, identity, symmetry) and
carry a 1e-12 slack where floating point noise in products or sums could
produce spurious witnesses.  The full check is deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .metrics import TGrid
from .rng import SplitMix64
from .spaces import DELTA_PT, BoxSpace
from .tnorms import TNorm

_SLACK = 1e-12
MAX_WITNESSES = 25
_BLOCK_CELLS = 1 << 20  # (triple, s, t) cells per array pass: 8 MB per array


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    magnitude: float


@dataclass(eq=False)
class AxiomReport:
    subject: str
    samples: int
    seed: int
    checks: int = 0
    violation_count: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violation_count == 0

    def _record(self, axiom: str, witness: tuple, magnitude: float):
        self.violation_count += 1
        if len(self.violations) < MAX_WITNESSES:
            self.violations.append(Violation(axiom, witness, magnitude))

    def axiom_ids(self) -> set[str]:
        return {v.axiom for v in self.violations}


def _op_array(op, a, b):
    if isinstance(op, TNorm):
        return op.apply_array(a, b)
    return np.vectorize(op, otypes=[float])(a, b)


def check_tnorm_axioms(op, sample_count: int, seed: int) -> AxiomReport:
    """Sample (a, b, c, d) from [0,1]^4 and test the four t-norm laws.

    Commutativity and associativity are tested to 1e-12, monotonicity to the
    same slack, and the unit law a * 1 = a exactly.
    """
    if sample_count < 1:
        raise UsageError("sample_count must be >= 1")
    rng = SplitMix64(seed)
    name = op.kind if isinstance(op, TNorm) else getattr(op, "__name__", "callable")
    report = AxiomReport(subject=f"tnorm:{name}", samples=sample_count, seed=seed)
    for _ in range(sample_count):
        a = rng.uniform()
        b = rng.uniform()
        c = rng.uniform()
        d = rng.uniform()

        report.checks += 1
        comm = abs(op(a, b) - op(b, a))
        if comm > _SLACK:
            report._record("commutativity", (a, b), comm)

        report.checks += 1
        assoc = abs(op(a, op(b, c)) - op(op(a, b), c))
        if assoc > _SLACK:
            report._record("associativity", (a, b, c), assoc)

        report.checks += 1
        unit = op(a, 1.0)
        if unit != a:
            report._record("unit", (a, 1.0), abs(unit - a))

        report.checks += 1
        lo_a, hi_a = min(a, c), max(a, c)
        lo_b, hi_b = min(b, d), max(b, d)
        gap = op(lo_a, lo_b) - op(hi_a, hi_b)
        if gap > _SLACK:
            report._record("monotonicity", (lo_a, lo_b, hi_a, hi_b), gap)
    return report


def _witness_point(p):
    return tuple(np.asarray(p, dtype=float).tolist()) if np.ndim(p) else int(p)


def check_fm_axioms(
    fm, op, triple_count: int, grid: TGrid, seed: int, window=None
) -> AxiomReport:
    """Sample point triples and check the nearness axioms on the grid.

    Positivity, identity and symmetry are checked across the whole grid; the
    triangle law op(mu(x,y,s), mu(y,z,t)) <= mu(x,z,s+t) across all grid
    pairs (s, t).  Monotonicity in t stands in for continuity and is only
    asserted for induced forms; for table-based values it is not certifiable
    by sampling and is left unchecked.

    Triples are drawn as consecutive points x, y, z and checked as arrays,
    in blocks of at most _BLOCK_CELLS triangle cells; violations are recorded
    per triple, in sample order.
    """
    if triple_count < 1:
        raise UsageError("triple_count must be >= 1")
    carrier = fm.carrier
    if isinstance(carrier, BoxSpace) and not carrier.is_bounded and window is None:
        raise UsageError("sampling an unbounded box requires an explicit window")
    rng = SplitMix64(seed)
    report = AxiomReport(subject=f"fm:{fm.form}", samples=triple_count, seed=seed)
    monotone = fm.monotone_in_t and len(grid) > 1
    report.checks = triple_count * (5 if monotone else 4)
    block = max(1, _BLOCK_CELLS // len(grid) ** 2)
    for start in range(0, triple_count, block):
        pts = carrier.sample(rng, 3 * min(block, triple_count - start), window)
        _check_triples(report, fm, op, grid, pts, monotone)
    return report


def _check_triples(report, fm, op, grid, pts, monotone):
    x, y, z = xyz = pts.reshape(-1, 3, *pts.shape[1:]).swapaxes(0, 1)  # pts: x, y, z, x, ...
    ts, wp = grid.values, _witness_point
    mxy, myx, myz, mxx = fm.mu_batch(xyz[[0, 1, 1, 0]], xyz[[1, 0, 2, 0]], grid)
    dxy = fm.carrier.distances(x, y)
    lhs = _op_array(op, mxy[:, :, None], myz[:, None, :])
    excess = (lhs - fm.mu_batch(x, z, ts[:, None] + ts[None, :])).reshape(len(x), -1)
    drops = -np.diff(mxy, axis=1)
    pos_xy, pos_yz, sym = mxy <= 0.0, myz <= 0.0, mxy != myx

    def pos(i):
        row, bad = (mxy[i], pos_xy[i]) if pos_xy[i].any() else (myz[i], pos_yz[i])
        k = bad.argmax()
        return (wp(x[i]), wp(y[i]), float(ts[k])), float(row[k])

    def ident(i):
        k = (mxx[i] != 1.0).argmax()
        return (wp(x[i]), float(ts[k])), abs(1.0 - float(mxx[i, k]))

    def apart(i):
        return (wp(x[i]), wp(y[i]), float(ts[(mxy[i] == 1.0).argmax()])), float(dxy[i])

    def symm(i):
        gap = float(np.abs(mxy[i] - myx[i]).max())
        return (wp(x[i]), wp(y[i]), float(ts[sym[i].argmax()])), gap

    def tri(i):
        k = excess[i].argmax()
        a, b = divmod(int(k), ts.size)
        return (wp(x[i]), wp(y[i]), wp(z[i]), float(ts[a]), float(ts[b])), float(excess[i, k])

    def mono(i):
        k = drops[i].argmax()
        return (wp(x[i]), wp(y[i]), float(ts[k])), float(drops[i, k])

    # (axiom, triples that violate it, witness and magnitude of triple i), in record order
    checks = [
        ("positivity", (pos_xy | pos_yz).any(axis=1), pos),
        ("identity", (mxx != 1.0).any(axis=1), ident),
        ("identity", (dxy > DELTA_PT) & (mxy == 1.0).any(axis=1), apart),
        ("symmetry", sym.any(axis=1), symm),
        ("triangle", (excess > _SLACK).any(axis=1), tri),
    ]
    if monotone:
        checks.append(("monotone_in_t", (drops > _SLACK).any(axis=1), mono))
    for i in np.flatnonzero(np.logical_or.reduce([bad for _, bad, _ in checks])):
        for axiom, bad, witness in checks:
            if bad[i]:
                report._record(axiom, *witness(i))
