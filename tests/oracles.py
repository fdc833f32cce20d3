"""Scalar reference code for the batched sampling and distance layers.

Each function here is the straightforward loop that the array code in
`fuzzyfp` replaces: one RNG draw, one point, one point pair or one triple at
a time.  The equivalence tests compare the two bit for bit.
"""

import math

import numpy as np

from fuzzyfp import BoxSpace, SplitMix64, TableFuzzyMetric, TNorm
from fuzzyfp.axioms import _SLACK, AxiomReport
from fuzzyfp.spaces import DELTA_PT


def sample(carrier, rng, count, window=None):
    """Carrier.sample drawn one point (and one coordinate) at a time."""
    if not isinstance(carrier, BoxSpace):
        return [rng.randint(carrier.size) for _ in range(count)]
    lo, hi = (carrier.lo, carrier.hi) if window is None else map(np.asarray, window)
    pts = []
    for _ in range(count):
        p = np.array([rng.uniform(lo[i], hi[i]) for i in range(carrier.dimension)])
        p.setflags(write=False)
        pts.append(p)
    return pts


def distance(carrier, x, y):
    """The crisp distance of one point pair, as np.dot computes it."""
    if not isinstance(carrier, BoxSpace):
        return float(carrier.table[int(x), int(y)])
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if carrier.crisp_metric == "euclidean":
        return math.sqrt(float(np.dot(d, d)))
    return float(np.max(np.abs(d)))


def distance_matrix(carrier, pts_a, pts_b):
    """distance() of every pair, one pair at a time."""
    return np.array([[distance(carrier, a, b) for b in pts_b] for a in pts_a])


def mu_grid(fm, x, y, ts):
    """Nearness of one point pair over the scales ts."""
    if isinstance(fm, TableFuzzyMetric):
        return np.interp(np.log(ts), fm._log_grid, fm.values[int(x), int(y)])
    return fm._from_d(distance(fm.carrier, x, y), ts)


def pairwise(fm, pts_a, pts_b, ts):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((len(pts_a), len(pts_b), ts.size))
    for i, a in enumerate(pts_a):
        for j, b in enumerate(pts_b):
            out[i, j] = mu_grid(fm, a, b, ts)
    return out


def triangle_witness(table):
    """First (i, j, k) in C order with t[i, k] > t[i, j] + t[j, k] + 1e-12."""
    t = np.asarray(table, dtype=float)
    n = t.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if t[i, k] > t[i, j] + t[j, k] + 1e-12:
                    return (i, j, k)
    return None


def _op_array(op, a, b):
    if isinstance(op, TNorm):
        return op.apply_array(a, b)
    return np.vectorize(op)(a, b)


def _wp(p):
    return tuple(np.asarray(p, dtype=float).tolist()) if np.ndim(p) else int(p)


def check_fm_axioms(fm, op, triple_count, grid, seed, window=None):
    """check_fm_axioms evaluated one triple at a time."""
    carrier = fm.carrier
    rng = SplitMix64(seed)
    report = AxiomReport(subject=f"fm:{fm.form}", samples=triple_count, seed=seed)
    ts = grid.values
    st_sum = ts[:, None] + ts[None, :]
    for _ in range(triple_count):
        x, y, z = sample(carrier, rng, 3, window)
        mxy = mu_grid(fm, x, y, ts)
        myx = mu_grid(fm, y, x, ts)
        myz = mu_grid(fm, y, z, ts)
        mxx = mu_grid(fm, x, x, ts)

        report.checks += 1
        for row in (mxy, myz):
            bad = row <= 0.0
            if np.any(bad):
                k = int(np.argmax(bad))
                report._record("positivity", (_wp(x), _wp(y), float(ts[k])), float(row[k]))
                break

        report.checks += 1
        if np.any(mxx != 1.0):
            k = int(np.argmax(mxx != 1.0))
            report._record("identity", (_wp(x), float(ts[k])), abs(1.0 - float(mxx[k])))
        if distance(carrier, x, y) > DELTA_PT and np.any(mxy == 1.0):
            k = int(np.argmax(mxy == 1.0))
            report._record(
                "identity", (_wp(x), _wp(y), float(ts[k])), float(distance(carrier, x, y))
            )

        report.checks += 1
        if np.any(mxy != myx):
            k = int(np.argmax(mxy != myx))
            report._record(
                "symmetry", (_wp(x), _wp(y), float(ts[k])), float(np.max(np.abs(mxy - myx)))
            )

        report.checks += 1
        excess = _op_array(op, mxy[:, None], myz[None, :]) - mu_grid(fm, x, z, st_sum)
        if np.any(excess > _SLACK):
            i, j = np.unravel_index(int(np.argmax(excess)), excess.shape)
            report._record(
                "triangle",
                (_wp(x), _wp(y), _wp(z), float(ts[i]), float(ts[j])),
                float(excess[i, j]),
            )

        if fm.monotone_in_t and len(grid) > 1:
            report.checks += 1
            drops = -np.diff(mxy)
            if np.any(drops > _SLACK):
                k = int(np.argmax(drops))
                report._record(
                    "monotone_in_t", (_wp(x), _wp(y), float(ts[k])), float(drops[k])
                )
    return report
