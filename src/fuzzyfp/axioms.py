"""Sampled axiom checkers for t-norms and nearness functions.

Checks are exact where the law is exact (unit law, identity, symmetry) and
carry a 1e-12 slack where floating point noise in products or sums could
produce spurious witnesses.  The full check is deterministic in its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .metrics import TGrid
from .rng import SplitMix64, draws, states, unit
from .spaces import DELTA_PT, BoxSpace
from .tnorms import TNorm

_SLACK = 1e-12
MAX_WITNESSES = 25
# (triple, s, t) cells per array pass: 256 KiB per float array, since one
# call may check thousands of triples (fm_triples).  On the default grid a
# block holds 113 triples, so a suite kind's 32 or 64 fit in one.  The arrays
# are allocated once per call (check_fm_axioms_batch).  A 3 200-triple call
# took 9.2 ms, against 11.6 ms with blocks of 128 KiB arrays (best of 200
# calls, median of 6 processes, 2-core VM); a 50-pair suite's peak RSS
# stayed at 36.3 MB.
_BLOCK_CELLS = 1 << 15
# Samples per array pass of check_tnorm_axioms.
_TNORM_BLOCK = 1 << 10


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


def _op_array(op, a, b, out=None):
    """op over arrays; a TNorm writes into out if given, a plain callable
    returns a fresh array."""
    if isinstance(op, TNorm):
        return op.apply_array(a, b, out)
    return np.vectorize(op, otypes=[float])(a, b)


def check_tnorm_axioms(op, sample_count: int, seed: int) -> AxiomReport:
    """Sample (a, b, c, d) from [0,1]^4 and test the four t-norm laws.

    Commutativity and associativity are tested to 1e-12, monotonicity to the
    same slack, and the unit law a * 1 = a exactly.  Samples are checked as
    arrays, in blocks of _TNORM_BLOCK samples; violations are recorded
    in sample order.
    """
    if sample_count < 1:
        raise UsageError("sample_count must be >= 1")
    rng = SplitMix64(seed)
    name = op.kind if isinstance(op, TNorm) else getattr(op, "__name__", "callable")
    report = AxiomReport(subject=f"tnorm:{name}", samples=sample_count, seed=seed)
    report.checks = 4 * sample_count
    block = _TNORM_BLOCK
    for start in range(0, sample_count, block):
        draws = unit(rng.block(4 * min(block, sample_count - start)))
        _check_tnorm_laws(report, op, *draws.reshape(-1, 4).T)
    return report


def _check_tnorm_laws(report, op, a, b, c, d):
    ab = _op_array(op, a, b)
    comm = np.abs(ab - _op_array(op, b, a))
    assoc = np.abs(_op_array(op, a, _op_array(op, b, c)) - _op_array(op, ab, c))
    one = _op_array(op, a, 1.0)
    lo_a, hi_a = np.minimum(a, c), np.maximum(a, c)
    lo_b, hi_b = np.minimum(b, d), np.maximum(b, d)
    gap = _op_array(op, lo_a, lo_b) - _op_array(op, hi_a, hi_b)

    def at(i, *cols):
        return tuple(float(col[i]) for col in cols)

    # (axiom, samples that violate it, witness and magnitude of sample i), in record order
    checks = [
        ("commutativity", comm > _SLACK, lambda i: (at(i, a, b), float(comm[i]))),
        ("associativity", assoc > _SLACK, lambda i: (at(i, a, b, c), float(assoc[i]))),
        ("unit", one != a, lambda i: ((float(a[i]), 1.0), float(abs(one[i] - a[i])))),
        ("monotonicity", gap > _SLACK, lambda i: (at(i, lo_a, lo_b, hi_a, hi_b), float(gap[i]))),
    ]
    _record_in_order(report, checks)


def _record_in_order(report, checks, lo=0, hi=None):
    """Record the violations of checks, (axiom, mask of the samples that
    violate it, witness and magnitude of sample i), among samples lo:hi:
    sample by sample, and within a sample in the order of checks."""
    masks = [bad[lo:hi] for _, bad, _ in checks]
    for i in lo + np.flatnonzero(np.logical_or.reduce(masks)):
        if len(report.violations) >= MAX_WITNESSES:  # the rest are only counted
            report.violation_count += sum(int(np.count_nonzero(bad[i - lo :])) for bad in masks)
            return
        for axiom, bad, witness in checks:
            if bad[i]:
                report._record(axiom, *witness(i))


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
    per triple, in sample order.  This is check_fm_axioms_batch of one seed.
    """
    return check_fm_axioms_batch(fm, op, triple_count, grid, [seed], window)[0]


def check_fm_axioms_batch(fm, op, triple_count: int, grid: TGrid, seeds, window=None) -> list[AxiomReport]:
    """check_fm_axioms for each of seeds, in one pass: each seed draws its
    triples from its own stream.  The triples of all seeds, seed by seed,
    are cut into blocks of _BLOCK_CELLS // len(grid)**2, so a block may span
    seeds; its points come from one counter-based draw over the streams of
    its rows, and each report gets the checks, counts and witnesses of its
    own seed's triples, in order.  The float arrays of a block are written
    into buffers sized to the first (largest) block and allocated once per
    call, since a fresh array of a block's size is page-faulted in anew on
    every block; each block's violations are recorded before the next block
    overwrites them."""
    if triple_count < 1:
        raise UsageError("triple_count must be >= 1")
    carrier = fm.carrier
    if isinstance(carrier, BoxSpace) and not carrier.is_bounded and window is None:
        raise UsageError("sampling an unbounded box requires an explicit window")
    monotone = fm.monotone_in_t and len(grid) > 1
    reports = [
        AxiomReport(subject=f"fm:{fm.form}", samples=triple_count, seed=seed, checks=triple_count * (5 if monotone else 4))
        for seed in seeds
    ]
    seed_states = states(seeds)
    width = 3 * (carrier.dimension if isinstance(carrier, BoxSpace) else 1)  # draws per triple
    offsets = np.arange(1, width + 1, dtype=np.uint64)
    block = max(1, _BLOCK_CELLS // len(grid) ** 2)
    total = len(reports) * triple_count
    cells = min(block, total) * len(grid)  # (triple, t) cells of the first, largest block
    buffers = (np.empty(cells * len(grid)), np.empty(cells * len(grid)), np.empty(4 * cells))
    for start in range(0, total, block):
        seed, triple = np.divmod(np.arange(start, min(start + block, total)), triple_count)
        u = draws(seed_states[seed, None], (triple * width).astype(np.uint64)[:, None] + offsets)
        pts = carrier.points(u.reshape(-1), window)  # x, y, z, x, ...
        checks = _check_triples(fm, op, grid, pts, monotone, buffers)
        if any(bad.any() for _, bad, _ in checks):
            for s in range(seed[0], seed[-1] + 1):
                lo = max(s * triple_count - start, 0)
                _record_in_order(reports[s], checks, lo, min((s + 1) * triple_count - start, len(seed)))
    return reports


def _check_triples(fm, op, grid, pts, monotone, buffers):
    """The checks of the triples in pts, (axiom, triples that violate it,
    witness and magnitude of triple i), in record order.  Their arrays are
    written into the leading cells of buffers, three flat float arrays of
    at least (triples, t, t), (triples, t, t) and (4, triples, t) cells, so
    they must be read before the next block is checked."""
    x, y, z = xyz = pts.reshape(-1, 3, *pts.shape[1:]).swapaxes(0, 1)  # pts: x, y, z, x, ...
    ts, wp = grid.values, _witness_point
    n, t = len(x), ts.size
    lhs, near, rows = (buf[: math.prod(shape)].reshape(shape) for buf, shape in zip(buffers, [(n, t, t), (n, t, t), (4, n, t)]))
    a, b = xyz[[0, 1, 1, 0, 0]], xyz[[1, 0, 2, 0, 2]]  # (x, y), (y, x), (y, z), (x, x), (x, z)
    d = fm.carrier.distances(a, b)
    mxy, myx, myz, mxx = fm.mu_from_distances(d[:4], a[:4], b[:4], grid, rows)
    dxy = d[0]
    lhs = _op_array(op, mxy[:, :, None], myz[:, None, :], lhs)
    near = fm.mu_from_distances(d[4], x, z, ts[:, None] + ts[None, :], near)
    excess = np.subtract(lhs, near, out=lhs).reshape(n, -1)
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

    checks = [
        ("positivity", (pos_xy | pos_yz).any(axis=1), pos),
        ("identity", (mxx != 1.0).any(axis=1), ident),
        ("identity", (dxy > DELTA_PT) & (mxy == 1.0).any(axis=1), apart),
        ("symmetry", sym.any(axis=1), symm),
        ("triangle", (excess > _SLACK).any(axis=1), tri),
    ]
    if monotone:
        checks.append(("monotone_in_t", (drops > _SLACK).any(axis=1), mono))
    return checks
