"""Seeded generation of desk-scale problem instances and the full
axioms -> hypotheses -> solve -> conclusions -> uniqueness suite.

Contractive affine instances are generated so the required fixed-point
structure exists by construction: pair maps contract into their boxes, and
quadruple maps share a target pair (z0, w0) with A z0 = B z0 = w0 and
S w0 = T w0 = z0 (independent random quadruples generically have no common
fixed point at all).  Expansive diagnostic instances use scaled orthogonal
matrices, whose steps grow strictly, on unbounded carriers so divergence is
observable instead of aborting on a codomain escape.

Everything is drawn from the named splitmix64 generator; identical specs
reproduce bit-identical instances and verdicts.  The generator is
counter-based, so the instances of a suite's kind are made in one pass
(_generate): one draw array for all their streams, each read on from its
own counter, and the maps as stacked arrays, with the bits of the scalar
draws.  gen_instance is that pass on one spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .axioms import check_fm_axioms_batch
from .errors import ConfigError, UsageError
from .hypotheses import SampleSet, estimate_k_pair, estimate_k_quad, estimate_k_self_quad
from .mappings import AffineMap, ConstantMap, MapPair, MapQuadruple
from .metrics import INDUCED_FORMS, FuzzyMetric, TGrid
from .rng import GENERATOR_NAME, draws, normal, states, unit
from .solver import STATUS_CONVERGED, SolveConfig, compare_fixed_points, solve_problems
from .spaces import BoxSpace
from .tnorms import PRODUCT

SCHEMES = ("pair", "quadruple", "self-quadruple")
FAMILIES = ("affine", "constant", "mixed")
METRIC_FORMS = tuple(INDUCED_FORMS)

# Salt separating the suite's sampling stream from instance generation.
_SUITE_SALT = 0x517CC1B727220A95

# Nearness-axiom triples sampled per distinct metric of each suite kind.
_AXIOM_TRIPLES = 32


@dataclass(frozen=True, eq=False)
class InstanceSpec:
    scheme: str = "pair"
    dim: int = 2
    family: str = "affine"
    factor_lo: float = 0.3
    factor_hi: float = 0.9
    metric_form: str = "standard"
    grid: TGrid = field(default_factory=TGrid.default)
    seed: int = 0
    halfwidth: float = 10.0
    expansive: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown map family {self.family!r}")
        if self.metric_form not in METRIC_FORMS:
            raise ConfigError(f"unknown metric form {self.metric_form!r}")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if not 0 < 2 * self.halfwidth < np.inf:  # x0 is drawn from a box 2 * halfwidth wide
            raise ConfigError("halfwidth must be positive and 2 * halfwidth finite")
        if not (0 < self.factor_lo <= self.factor_hi):
            raise ConfigError("factor range must satisfy 0 < lo <= hi")
        if self.expansive:
            if self.factor_lo <= 1.0:
                raise ConfigError("expansive factor range must lie above 1")
        elif self.factor_hi >= 1.0:
            raise ConfigError("contractive factor range must lie inside (0, 1)")


@dataclass(eq=False)
class Instance:
    spec: InstanceSpec
    problem: MapPair | MapQuadruple
    mu: FuzzyMetric
    nu: FuzzyMetric
    x0: np.ndarray
    expected_z: np.ndarray | None = None
    expected_w: np.ndarray | None = None

    @property
    def window(self):
        w = self.spec.halfwidth
        d = self.spec.dim
        return (np.full(d, -w), np.full(d, w))


def _kind_metrics(spec: InstanceSpec) -> tuple[FuzzyMetric, FuzzyMetric]:
    """(mu, nu) of every instance of the spec's kind; see _kind."""
    dim, w = spec.dim, spec.halfwidth
    if spec.expansive:
        carrier_x = carrier_y = BoxSpace([-np.inf] * dim, [np.inf] * dim)
    else:
        carrier_x = BoxSpace([-w] * dim, [w] * dim)
        carrier_y = carrier_x if spec.scheme == "self-quadruple" else BoxSpace([-w] * dim, [w] * dim)
    form = INDUCED_FORMS[spec.metric_form]
    mu = form(carrier_x)
    nu = mu if spec.scheme == "self-quadruple" else form(carrier_y)
    return mu, nu


class _Streams:
    """The generation streams SplitMix64(seed) of many specs, drawn in one
    counter-based pass; each stream is read on from its own counter, so the
    streams whose draws are conditional read on where the scalar calls
    would."""

    def __init__(self, seeds, count: int):
        self.state = states(seeds)[:, None]
        self.u = draws(self.state, np.arange(1, count + 1, dtype=np.uint64))
        self.at = np.zeros(len(seeds), dtype=np.intp)

    def take(self, k: int, where=None) -> np.ndarray:
        """The next k draws of every stream as an (instances, k) array; the
        streams in the mask where (all if None) advance past them."""
        end = int(self.at.max()) + k
        if end > self.u.shape[1]:  # a redrawn matrix ran past the pass
            more = draws(self.state, np.arange(self.u.shape[1] + 1, end + 1, dtype=np.uint64))
            self.u = np.concatenate([self.u, more], axis=1)
        out = np.take_along_axis(self.u, self.at[:, None] + np.arange(k), axis=1)
        self.at += k if where is None else np.where(where, k, 0)
        return out

    def uniform(self, lo, hi, k: int = 1, where=None) -> np.ndarray:
        """SplitMix64.uniform(lo, hi) of the next k draws, lo and hi per stream."""
        return lo + (hi - lo) * unit(self.take(k, where))


def _generate(specs, mu, nu) -> list:
    """The instances of specs of one kind (_kind), each with the bits that
    SplitMix64(spec.seed) gives drawn one scalar at a time in this order:

    * pair: a coin per map (mixed family), the factors of T and S, then per
      map a constant in the box shrunk to 0.9, or a matrix of inf-norm equal
      to its factor (entries uniform in [-1, 1), redrawn while the norm is
      below 1e-9) and an offset that keeps the box mapped into itself;
    * quadruple and self-quadruple: four factors, a target pair (z0, w0)
      in the box shrunk by the largest, a coin for all four maps constant,
      else a coin per map (mixed family), and a matrix per affine map,
      anchored so that A z0 = B z0 = w0 and S w0 = T w0 = z0;
    * expansive: per map a factor, that factor times an orthogonal matrix
      (QR of a Gaussian matrix, or a sign on the line) and an offset;
    * then x0 in the box.

    Family and factor range are read per spec.  The Gaussian entries and
    the QR are per instance; all else is on stacked arrays."""
    n, dim, w = len(specs), specs[0].dim, specs[0].halfwidth
    pair, expansive = specs[0].scheme == "pair", specs[0].expansive
    lo, hi = (np.array([[getattr(s, f)] for s in specs]) for f in ("factor_lo", "factor_hi"))
    mixed = np.array([s.family == "mixed" for s in specs])
    constant = np.array([s.family == "constant" for s in specs])
    rotation = 1 if dim == 1 else 2 * dim * dim  # draws of one orthogonal matrix
    if expansive:
        count = (2 if pair else 4) * (1 + rotation + dim)
    else:
        count = 4 + 2 * (dim * dim + dim) if pair else 9 + 2 * dim + 4 * dim * dim
    streams = _Streams([s.seed for s in specs], count + dim)

    def coins(k, where):
        return unit(streams.take(k, where)) < 0.5

    def points(radius):  # radius is one float or one per stream, (instances, 1)
        return streams.uniform(-radius, radius, dim)

    def matrices(norm, where):  # zero where it is not drawn
        m = streams.uniform(-1.0, 1.0, dim * dim, where).reshape(n, dim, dim)
        current = np.abs(m).sum(axis=2).max(axis=1)
        while (redraw := where & ~(current > 1e-9)).any():
            m[redraw] = streams.uniform(-1.0, 1.0, dim * dim, redraw).reshape(n, dim, dim)[redraw]
            current = np.abs(m).sum(axis=2).max(axis=1)
        return m * np.divide(norm, current, out=np.zeros(n), where=where)[:, None, None]

    def rotations(factor):
        if dim == 1:
            return (np.where(coins(1, None), 1.0, -1.0) * factor[:, None])[..., None]
        out = np.empty((n, dim, dim))
        for k, (u, f) in enumerate(zip(streams.take(rotation).tolist(), factor.tolist())):
            q, r = np.linalg.qr(np.array([normal(a, b) for a, b in zip(u[::2], u[1::2])]).reshape(dim, dim))
            out[k] = f * (q * np.sign(np.diagonal(r)))
        return out

    def apply(m, x):  # m @ x per instance
        return np.matmul(m, x[..., None])[..., 0]

    carriers = (nu.carrier, mu.carrier) if pair else (nu.carrier, nu.carrier, mu.carrier, mu.carrier)
    columns = []  # per map: (matrices, offsets or constant values, constant mask)
    expected = ([None] * n,) * 2
    shared = np.zeros(n, dtype=bool)  # quadruples whose A is B and S is T, one constant map each way
    if expansive:
        factors = streams.uniform(lo, hi, 2) if pair else None  # a pair draws both factors first
        for i in range(len(carriers)):
            f = factors[:, i] if pair else streams.uniform(lo, hi)[:, 0]
            columns.append((rotations(f), points(w), shared))
    elif pair:
        const = [constant | mixed & coins(1, mixed)[:, 0] for _ in range(2)]
        factors = streams.uniform(lo, hi, 2)
        for f, c in zip(factors.T, const):
            m = matrices(f, ~c)
            columns.append((m, points(np.where(c, 0.9 * w, (1.0 - f) * w)[:, None]), c))
        (m_t, b_t, _), (m_s, b_s, _) = columns
        z = np.linalg.solve(np.eye(dim) - np.matmul(m_s, m_t), (apply(m_s, b_t) + b_s)[..., None])[..., 0]
        expected = (z, apply(m_t, z) + b_t)
    else:
        factors = streams.uniform(lo, hi, 4)
        f_max = factors.max(axis=1)
        radius = (w * (1.0 - f_max) / (1.0 + f_max))[:, None]
        z0, w0 = points(radius), points(radius)
        shared = constant | mixed & coins(1, mixed)[:, 0]
        zero = mixed & ~shared
        const = shared[:, None] | zero[:, None] & coins(4, zero)
        for f, c, (src, dst) in zip(factors.T, const.T, ((z0, w0), (z0, w0), (w0, z0), (w0, z0))):
            m = matrices(f, ~c)
            columns.append((m, np.where(c[:, None], dst, dst - apply(m, src)), c))
        expected = (z0, w0)
    x0 = points(w)

    for m, b, _ in columns:  # finite, and shaped for their carriers: each map keeps its rows
        m.setflags(write=False)
        b.setflags(write=False)
    insts = []
    for k, spec in enumerate(specs):
        maps = [
            ConstantMap(b[k], carrier) if c[k] else AffineMap._of_checked(m[k], b[k], carrier)
            for (m, b, c), carrier in zip(columns, carriers)
        ]
        if shared[k]:
            maps = [maps[0], maps[0], maps[2], maps[2]]
        problem = MapPair(*maps) if pair else MapQuadruple(*maps)
        insts.append(Instance(spec, problem, mu, nu, x0[k], expected[0][k], expected[1][k]))
    return insts


def gen_instance(spec: InstanceSpec) -> Instance:
    """Deterministically generate one problem instance from its spec: the
    kind generator _generate applied to the spec alone."""
    return _generate([spec], *_kind_metrics(spec))[0]


@dataclass(eq=False)
class InstanceVerdict:
    index: int
    seed: int
    scheme: str
    status: str
    iterations: int
    k_hat: float | None
    axiom_violations: int
    conclusions_passed: bool
    min_residual: float
    uniqueness_passed: bool | None
    uniqueness_max_distance: float | None


@dataclass(eq=False)
class SuiteVerdict:
    generator: str
    grid: TGrid
    eps: float
    max_iter: int
    starts: int
    rows: tuple[InstanceVerdict, ...]
    aggregates: dict


def _samples(traces, count: int, randoms) -> list:
    """Per trace, at most count of its points, evenly spread (one linspace
    for all), then its instance's random points, as a copy."""
    lens = np.array([len(t.column) for t in traces])
    long = lens > count
    spread = iter(np.linspace(0, lens[long] - 1, count, axis=1).astype(int))
    kept = (t.column[next(spread)] if cut else t.column for t, cut in zip(traces, long.tolist()))
    return [np.concatenate([pts, r]) for pts, r in zip(kept, randoms)]


def _kind(spec: InstanceSpec) -> tuple:
    """Specs of one kind have alike boxes and metrics: their instances share
    one (mu, nu), and every phase of a suite runs once per kind."""
    return (spec.scheme, spec.dim, spec.metric_form, spec.halfwidth, spec.expansive)


def _suite_draws(specs, mu, nu, starts: int, n_rand: int, window):
    """The suite stream SplitMix64(seed ^ _SUITE_SALT) of each spec, drawn
    for all of them at once as one (instances, draws) array and read in a
    fixed order: the axiom seeds (one per distinct metric, so one when nu is
    mu), the n_rand random points of X, those of Y (quadruples only, else
    none), then the starts - 1 probe starts after x0.  Returns the axiom
    seeds, as lists of ints (only the first instance's are checked, but all
    are drawn, so that later reads stay put), and read-only (instances,
    points, dim) arrays of the random points of X and of Y and of the probe
    starts."""
    n_seeds = len(dict.fromkeys((mu, nu)))
    dim = mu.carrier.dimension
    n_y = n_rand if specs[0].scheme == "quadruple" else 0
    x_end, y_end, end = n_seeds + np.cumsum([n_rand * dim, n_y * dim, (starts - 1) * dim])
    u = draws(states([spec.seed ^ _SUITE_SALT for spec in specs])[:, None], np.arange(1, end + 1, dtype=np.uint64))
    parts = [
        mu.carrier.points(u[:, n_seeds:x_end], window),
        nu.carrier.points(u[:, x_end:y_end], window),
        mu.carrier.points(u[:, y_end:], window),
    ]
    for pts in parts:
        pts.setflags(write=False)
    return u[:, :n_seeds].tolist(), *parts


def _run_kind(specs, cfg: SolveConfig, starts: int, n_traj: int, n_rand: int) -> list:
    """The rows of the instances of one kind, each phase over all of them at once."""
    scheme, (mu, nu) = specs[0].scheme, _kind_metrics(specs[0])
    insts = _generate(specs, mu, nu)
    window = insts[0].window  # every instance's window is alike
    seeds, randoms_x, randoms_y, probes = _suite_draws(specs, mu, nu, starts, n_rand, window)
    # the axioms are a property of the kind's space, so one call checks it, on the
    # first instance's seeds (mu and nu are alike), and every row carries its count
    violations = sum(r.violation_count for r in check_fm_axioms_batch(mu, PRODUCT, _AXIOM_TRIPLES, cfg.grid, seeds[0], window))

    probe_starts = [p for inst, probe in zip(insts, probes) for p in (inst.x0, *probe)]
    owner = np.repeat(np.arange(len(insts)), starts)
    batch = solve_problems([inst.problem for inst in insts], mu, nu, probe_starts, owner, cfg)
    verdicts = compare_fixed_points(mu, nu, batch, starts)
    heads = [batch.result(i) for i in range(0, len(owner), starts)]
    xs = _samples([r.trace_x for r in heads], n_traj, randoms_x)
    ys = _samples([r.trace_y for r in heads], n_traj, randoms_y) if scheme == "quadruple" else [()] * len(heads)
    samples = [SampleSet(points_x=x, grid=cfg.grid, points_y=y) for x, y in zip(xs, ys)]
    rows = [
        dict(
            seed=inst.spec.seed,
            scheme=inst.spec.scheme,
            status=result.status,
            iterations=result.iterations,
            k_hat=None,
            axiom_violations=violations,
            conclusions_passed=result.conclusions_passed,
            min_residual=result.min_residual,
            uniqueness_passed=verdict.passed,
            uniqueness_max_distance=max(verdict.max_z_distance, verdict.max_w_distance) if verdict.conclusive else None,
        )
        for inst, result, verdict in zip(insts, heads, verdicts)
    ]

    estimate = estimate_k_pair if scheme == "pair" else estimate_k_quad if scheme == "quadruple" else estimate_k_self_quad
    metrics = (mu,) if scheme == "self-quadruple" else (mu, nu)
    groups = {}  # one stacked estimate per sample size
    for i, sample in enumerate(samples):
        groups.setdefault((len(sample.points_x), len(sample.points_y)), []).append(i)
    for group in groups.values():
        reports = estimate([insts[i].problem for i in group], *metrics, [samples[i] for i in group])
        per = len(reports) // len(group)  # reports per instance
        for at, i in enumerate(group):
            ks = [r.k_hat for r in reports[at * per : (at + 1) * per] if r.k_hat is not None]
            rows[i]["k_hat"] = max(ks) if ks else None
    return rows


def run_suite(
    specs,
    cfg: SolveConfig | None = None,
    starts: int = 4,
    n_traj: int = 8,
    n_rand: int = 8,
    quad_n_traj: int = 4,
    quad_n_rand: int = 4,
) -> SuiteVerdict:
    """Run the full property pipeline on every instance spec.

    Quadruple hypothesis samples default to 4 + 4 points per space (instead
    of the pair default 8 + 8) because tuple enumeration is quartic in the
    sample size.  Rows are ordered by spec index; per-instance failures are
    recorded, never raised.  Each phase (generation, axioms, solve and
    conclusions, k_hat) runs once per kind of instance (_kind) over all the
    instances of that kind.  The axioms, a property of the kind's space and
    not of its maps, are sampled on its first instance's seeds alone: each
    row carries its kind's count, and axiom_violations_total sums the kinds'.
    """
    specs = list(specs)
    if not specs:
        raise UsageError("run_suite needs at least one instance spec")
    cfg = cfg or SolveConfig()
    kinds = {}
    for index, spec in enumerate(specs):
        kinds.setdefault(_kind(spec), []).append(index)
    rows = [None] * len(specs)
    for (scheme, *_), members in kinds.items():
        sizes = (n_traj, n_rand) if scheme == "pair" else (quad_n_traj, quad_n_rand)
        for index, row in zip(members, _run_kind([specs[i] for i in members], cfg, starts, *sizes)):
            rows[index] = InstanceVerdict(index=index, **row)

    aggregates = {
        "instances": len(rows),
        "converged": sum(1 for r in rows if r.status == STATUS_CONVERGED),
        "diverging": sum(1 for r in rows if r.status == "diverging"),
        "max_iter": sum(1 for r in rows if r.status == "max-iter"),
        "conclusions_passed": sum(1 for r in rows if r.conclusions_passed),
        "uniqueness_passed": sum(1 for r in rows if r.uniqueness_passed is True),
        "axiom_violations_total": sum(rows[members[0]].axiom_violations for members in kinds.values()),
    }
    return SuiteVerdict(
        generator=GENERATOR_NAME,
        grid=cfg.grid,
        eps=cfg.eps,
        max_iter=cfg.max_iter,
        starts=starts,
        rows=tuple(rows),
        aggregates=aggregates,
    )
