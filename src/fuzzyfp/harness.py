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
reproduce bit-identical instances and verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .axioms import check_fm_axioms_batch
from .errors import CodomainError, ConfigError, EmptySampleError, UsageError
from .hypotheses import SampleSet, estimate_k, estimate_k_pair
from .mappings import AffineMap, ConstantMap, MapPair, MapQuadruple
from .metrics import FuzzyMetric, TGrid, induced_exponential, induced_standard
from .rng import GENERATOR_NAME, SplitMix64, draws, states
from .solver import STATUS_CONVERGED, SolveConfig, compare_fixed_points, solve_problems
from .spaces import BoxSpace
from .tnorms import PRODUCT

SCHEMES = ("pair", "quadruple", "self-quadruple")
FAMILIES = ("affine", "constant", "mixed")
METRIC_FORMS = ("standard", "exponential")

# Salt separating the suite's sampling stream from instance generation.
_SUITE_SALT = 0x517CC1B727220A95

# Nearness-axiom triples sampled per space of each instance.
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


def _metric_for(form: str, carrier) -> FuzzyMetric:
    return induced_standard(carrier) if form == "standard" else induced_exponential(carrier)


def _matrix_with_inf_norm(rng: SplitMix64, dim: int, norm: float) -> np.ndarray:
    """Random matrix rescaled so its max-row-sum operator norm equals norm."""
    while True:
        m = np.array([[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(dim)])
        current = float(np.max(np.sum(np.abs(m), axis=1)))
        if current > 1e-9:
            return m * (norm / current)


def _scaled_rotation(rng: SplitMix64, dim: int, factor: float) -> np.ndarray:
    """factor times an orthogonal matrix: every step grows by exactly factor
    in the euclidean norm, so expansion is guaranteed, not just likely."""
    if dim == 1:
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return np.array([[sign * factor]])
    g = np.array([[rng.normal() for _ in range(dim)] for _ in range(dim)])
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))  # canonical sign, deterministic
    return factor * q


def _interior_point(rng: SplitMix64, dim: int, radius: float) -> np.ndarray:
    return np.array([rng.uniform(-radius, radius) for _ in range(dim)])


def _affine_into_box(rng, dim, factor, halfwidth, codomain) -> AffineMap:
    """Affine map with inf-norm <= factor and offset small enough that the
    centered box of the given halfwidth maps into itself."""
    m = _matrix_with_inf_norm(rng, dim, factor)
    b = _interior_point(rng, dim, (1.0 - factor) * halfwidth)
    return AffineMap(m, b, codomain)


def _anchored_affine(rng, dim, factor, radius, src, dst, codomain) -> AffineMap:
    """Affine map sending src to dst exactly, with inf-norm <= factor.
    With |src|, |dst| <= radius = W(1-f)/(1+f) it maps the box into itself."""
    m = _matrix_with_inf_norm(rng, dim, factor)
    return AffineMap(m, dst - m @ src, codomain)


def _kind_metrics(spec: InstanceSpec) -> tuple[FuzzyMetric, FuzzyMetric]:
    """(mu, nu) of every instance of the spec's kind; see _kind."""
    dim, w = spec.dim, spec.halfwidth
    if spec.expansive:
        carrier_x = carrier_y = BoxSpace([-np.inf] * dim, [np.inf] * dim)
    else:
        carrier_x = BoxSpace([-w] * dim, [w] * dim)
        carrier_y = carrier_x if spec.scheme == "self-quadruple" else BoxSpace([-w] * dim, [w] * dim)
    mu = _metric_for(spec.metric_form, carrier_x)
    nu = mu if spec.scheme == "self-quadruple" else _metric_for(spec.metric_form, carrier_y)
    return mu, nu


def gen_instance(spec: InstanceSpec, metrics=None) -> Instance:
    """Deterministically generate one problem instance from its spec.  A
    caller that generates many may pass the (mu, nu) of the spec's kind,
    built once for all of them; see _kind_metrics."""
    rng = SplitMix64(spec.seed)
    dim = spec.dim
    w = spec.halfwidth
    mu, nu = metrics or _kind_metrics(spec)
    carrier_x, carrier_y = mu.carrier, nu.carrier

    def draw_factor() -> float:
        return rng.uniform(spec.factor_lo, spec.factor_hi)

    def is_constant() -> bool:
        if spec.family == "constant":
            return True
        if spec.family == "mixed":
            return rng.uniform() < 0.5
        return False

    expected_z = expected_w = None
    if spec.scheme == "pair":
        if spec.expansive:
            f_t, f_s = draw_factor(), draw_factor()
            t_map = AffineMap(_scaled_rotation(rng, dim, f_t), _interior_point(rng, dim, w), carrier_y)
            s_map = AffineMap(_scaled_rotation(rng, dim, f_s), _interior_point(rng, dim, w), carrier_x)
            problem = MapPair(T=t_map, S=s_map)
        else:
            t_const, s_const = is_constant(), is_constant()
            f_t, f_s = draw_factor(), draw_factor()
            if t_const:
                t_map = ConstantMap(_interior_point(rng, dim, 0.9 * w), carrier_y)
            else:
                t_map = _affine_into_box(rng, dim, f_t, w, carrier_y)
            if s_const:
                s_map = ConstantMap(_interior_point(rng, dim, 0.9 * w), carrier_x)
            else:
                s_map = _affine_into_box(rng, dim, f_s, w, carrier_x)
            problem = MapPair(T=t_map, S=s_map)
            m_t = t_map.matrix if isinstance(t_map, AffineMap) else np.zeros((dim, dim))
            b_t = t_map.offset if isinstance(t_map, AffineMap) else t_map.value
            m_s = s_map.matrix if isinstance(s_map, AffineMap) else np.zeros((dim, dim))
            b_s = s_map.offset if isinstance(s_map, AffineMap) else s_map.value
            m_st = m_s @ m_t
            b_st = m_s @ b_t + b_s
            expected_z = np.linalg.solve(np.eye(dim) - m_st, b_st)
            expected_w = m_t @ expected_z + b_t
    else:
        if spec.expansive:
            maps = []
            for codomain in (carrier_y, carrier_y, carrier_x, carrier_x):
                maps.append(
                    AffineMap(
                        _scaled_rotation(rng, dim, draw_factor()),
                        _interior_point(rng, dim, w),
                        codomain,
                    )
                )
            problem = MapQuadruple(A=maps[0], B=maps[1], S=maps[2], T=maps[3])
        else:
            factors = [draw_factor() for _ in range(4)]
            f_max = max(factors)
            radius = w * (1.0 - f_max) / (1.0 + f_max)
            z0 = _interior_point(rng, dim, radius)
            w0 = _interior_point(rng, dim, radius)
            constant_all = is_constant()
            if constant_all:
                a_map = b_map = ConstantMap(w0, carrier_y)
                s_map = t_map = ConstantMap(z0, carrier_x)
            else:
                zero = [spec.family == "mixed" and rng.uniform() < 0.5 for _ in range(4)]

                def anchored(i, factor, src, dst, codomain):
                    if zero[i]:
                        return ConstantMap(dst, codomain)
                    return _anchored_affine(rng, dim, factor, radius, src, dst, codomain)

                a_map = anchored(0, factors[0], z0, w0, carrier_y)
                b_map = anchored(1, factors[1], z0, w0, carrier_y)
                s_map = anchored(2, factors[2], w0, z0, carrier_x)
                t_map = anchored(3, factors[3], w0, z0, carrier_x)
            problem = MapQuadruple(A=a_map, B=b_map, S=s_map, T=t_map)
            expected_z, expected_w = z0, w0

    x0 = _interior_point(rng, dim, w)
    return Instance(
        spec=spec,
        problem=problem,
        mu=mu,
        nu=nu,
        x0=x0,
        expected_z=expected_z,
        expected_w=expected_w,
    )


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


def _trajectory_sample(trace, count: int) -> list:
    """At most count points of the trace, evenly spread, as copies, so that
    the trace need not be kept."""
    pts = trace.points
    idx = range(len(pts)) if len(pts) <= count else np.linspace(0, len(pts) - 1, count).astype(int)
    return [np.array(pts[i]) for i in idx]


def _k_hat(inst: Instance, samples: SampleSet):
    """The largest k_hat of the instance's reports on its hypothesis sample,
    None if it has none or the sample's images leave the codomain."""
    try:
        ks = [r.k_hat for r in estimate_k(inst.spec.scheme, inst.problem, inst.mu, inst.nu, samples) if r.k_hat is not None]
    except (EmptySampleError, CodomainError):
        return None
    return max(ks) if ks else None


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
    seeds, as lists of ints, and read-only (instances, points, dim) arrays
    of the random points of X and of Y and of the probe starts."""
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
    metrics = mu, nu = _kind_metrics(specs[0])
    insts = [gen_instance(spec, metrics) for spec in specs]
    window = insts[0].window  # every instance's window is alike
    seeds, randoms_x, randoms_y, probes = _suite_draws(specs, mu, nu, starts, n_rand, window)
    # mu and nu are alike, so one pass checks the triples of every seed
    axioms = iter(check_fm_axioms_batch(mu, PRODUCT, _AXIOM_TRIPLES, cfg.grid, [s for ss in seeds for s in ss], window))
    violations = [sum(next(axioms).violation_count for _ in ss) for ss in seeds]

    probe_starts = [p for inst, probe in zip(insts, probes) for p in (inst.x0, *probe)]
    results = solve_problems(
        [inst.problem for inst in insts], mu, nu, probe_starts, np.repeat(np.arange(len(insts)), starts), cfg
    )
    rows, samples = [], []
    for inst, random_x, random_y, count in zip(insts, randoms_x, randoms_y, violations):  # one instance's traces at a time
        probe = compare_fixed_points(mu, nu, [next(results) for _ in range(starts)])
        result = probe.results[0]
        xs = _trajectory_sample(result.trace_x, n_traj) + list(random_x)
        ys = _trajectory_sample(result.trace_y, n_traj) + list(random_y) if specs[0].scheme == "quadruple" else ()
        samples.append(SampleSet(points_x=tuple(xs), grid=cfg.grid, points_y=tuple(ys)))
        rows.append(
            dict(
                seed=inst.spec.seed,
                scheme=inst.spec.scheme,
                status=result.status,
                iterations=result.iterations,
                k_hat=None,
                axiom_violations=count,
                conclusions_passed=result.conclusions_passed,
                min_residual=result.min_residual,
                uniqueness_passed=probe.passed,
                uniqueness_max_distance=max(probe.max_z_distance, probe.max_w_distance) if probe.conclusive else None,
            )
        )

    if specs[0].scheme == "pair":  # one stacked estimate per sample size
        sizes = {}
        for i, sample in enumerate(samples):
            sizes.setdefault(len(sample.points_x), []).append(i)
        for group in sizes.values():
            try:
                ks = [r.k_hat for r in estimate_k_pair([insts[i].problem for i in group], mu, nu, [samples[i] for i in group])]
            except (EmptySampleError, CodomainError):  # some sample fails: each pair alone
                ks = [_k_hat(insts[i], samples[i]) for i in group]
            for i, k_hat in zip(group, ks):
                rows[i]["k_hat"] = k_hat
    else:
        for row, inst, sample in zip(rows, insts, samples):
            row["k_hat"] = _k_hat(inst, sample)
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
    instances of that kind.
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
        "axiom_violations_total": sum(r.axiom_violations for r in rows),
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
