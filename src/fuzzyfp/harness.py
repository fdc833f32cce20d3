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

from dataclasses import asdict, dataclass, field

import numpy as np

from .axioms import check_fm_axioms
from .errors import CodomainError, ConfigError, EmptySampleError, UsageError
from .hypotheses import (
    SampleSet,
    estimate_k_pair,
    estimate_k_quad,
    estimate_k_self_quad,
)
from .mappings import AffineMap, ConstantMap, MapPair, MapQuadruple
from .metrics import FuzzyMetric, TGrid, induced_exponential, induced_standard
from .rng import GENERATOR_NAME, SplitMix64
from .solver import STATUS_CONVERGED, SolveConfig, uniqueness_probe
from .spaces import BoxSpace
from .tnorms import PRODUCT

SCHEMES = ("pair", "quadruple", "self-quadruple")
FAMILIES = ("affine", "constant", "mixed")
METRIC_FORMS = ("standard", "exponential")

# Salt separating the suite's sampling stream from instance generation.
_SUITE_SALT = 0x517CC1B727220A95


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


def gen_instance(spec: InstanceSpec) -> Instance:
    """Deterministically generate one problem instance from its spec."""
    rng = SplitMix64(spec.seed)
    dim = spec.dim
    w = spec.halfwidth
    if spec.expansive:
        full = BoxSpace([-np.inf] * dim, [np.inf] * dim)
        carrier_x = carrier_y = full
    else:
        carrier_x = BoxSpace([-w] * dim, [w] * dim)
        carrier_y = (
            carrier_x
            if spec.scheme == "self-quadruple"
            else BoxSpace([-w] * dim, [w] * dim)
        )
    mu = _metric_for(spec.metric_form, carrier_x)
    nu = mu if spec.scheme == "self-quadruple" else _metric_for(spec.metric_form, carrier_y)

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

    def to_jsonable(self) -> dict:
        return {
            "generator": self.generator,
            "grid": self.grid.values.tolist(),
            "eps": self.eps,
            "max_iter": self.max_iter,
            "starts": self.starts,
            "aggregates": dict(sorted(self.aggregates.items())),
            "rows": [asdict(r) for r in self.rows],
        }


def _trajectory_sample(trace, count: int) -> list:
    pts = list(trace.points)
    if len(pts) <= count:
        return pts
    idx = np.linspace(0, len(pts) - 1, count).astype(int)
    return [pts[i] for i in idx]


def _estimate_instance_k(inst: Instance, result, random_x, random_y, grid, n_traj):
    """Hypothesis sample: trajectory points plus the random carrier points drawn for it."""
    xs = _trajectory_sample(result.trace_x, n_traj) + list(random_x)
    if inst.spec.scheme == "pair":
        samples = SampleSet(points_x=tuple(xs), grid=grid)
        return estimate_k_pair(inst.problem, inst.mu, inst.nu, samples).k_hat
    if inst.spec.scheme == "quadruple":
        ys = _trajectory_sample(result.trace_y, n_traj) + list(random_y)
        samples = SampleSet(points_x=tuple(xs), grid=grid, points_y=tuple(ys))
        primal, dual = estimate_k_quad(inst.problem, inst.mu, inst.nu, samples)
        ks = [r.k_hat for r in (primal, dual) if r.k_hat is not None]
        return max(ks) if ks else None
    samples = SampleSet(points_x=tuple(xs), grid=grid)
    primal, dual = estimate_k_self_quad(inst.problem, inst.mu, samples)
    ks = [r.k_hat for r in (primal, dual) if r.k_hat is not None]
    return max(ks) if ks else None


def _probe(inst: Instance, starts, cfg, tol):
    """(x0 result, uniqueness passed, largest distance) of one batch solve
    from all starts; only the x0 result outlives the call."""
    probe = uniqueness_probe(inst.problem, inst.mu, inst.nu, starts, cfg, tol=tol)
    max_dist = max(probe.max_z_distance, probe.max_w_distance) if probe.conclusive else None
    return probe.results[0], probe.passed, max_dist


def run_suite(
    specs,
    cfg: SolveConfig | None = None,
    starts: int = 4,
    uniqueness_tol: float = 1e-6,
    axiom_triples: int = 32,
    n_traj: int = 8,
    n_rand: int = 8,
    quad_n_traj: int = 4,
    quad_n_rand: int = 4,
) -> SuiteVerdict:
    """Run the full property pipeline on every instance spec.

    Quadruple hypothesis samples default to 4 + 4 points per space (instead
    of the pair default 8 + 8) because tuple enumeration is quartic in the
    sample size.  Rows are ordered by spec index; per-instance failures are
    recorded, never raised.
    """
    specs = list(specs)
    if not specs:
        raise UsageError("run_suite needs at least one instance spec")
    cfg = cfg or SolveConfig()
    rows = []
    for index, spec in enumerate(specs):
        inst = gen_instance(spec)
        rng = SplitMix64(spec.seed ^ _SUITE_SALT)
        window = inst.window

        ax_report = check_fm_axioms(
            inst.mu, PRODUCT, axiom_triples, cfg.grid, seed=rng.next_u64(), window=window
        )
        violations = ax_report.violation_count
        if inst.nu is not inst.mu:
            nu_report = check_fm_axioms(
                inst.nu, PRODUCT, axiom_triples, cfg.grid, seed=rng.next_u64(), window=window
            )
            violations += nu_report.violation_count

        # every draw comes before the one batch solve, in a fixed order: the
        # k_hat sample's random points, then the probe's extra starts
        quad_like = inst.spec.scheme != "pair"
        n_rand_here = quad_n_rand if quad_like else n_rand
        random_x = inst.mu.carrier.sample(rng, n_rand_here, window)
        random_y = None
        if inst.spec.scheme == "quadruple":
            random_y = inst.nu.carrier.sample(rng, n_rand_here, window)
        probe_starts = [inst.x0, *inst.mu.carrier.sample(rng, starts - 1, window)]
        result, unique, max_dist = _probe(inst, probe_starts, cfg, uniqueness_tol)
        try:
            k_hat = _estimate_instance_k(
                inst, result, random_x, random_y, cfg.grid, quad_n_traj if quad_like else n_traj
            )
        except (EmptySampleError, CodomainError):  # the sample's images left the codomain
            k_hat = None

        rows.append(
            InstanceVerdict(
                index=index,
                seed=spec.seed,
                scheme=spec.scheme,
                status=result.status,
                iterations=result.iterations,
                k_hat=k_hat,
                axiom_violations=violations,
                conclusions_passed=result.conclusions_passed,
                min_residual=result.min_residual,
                uniqueness_passed=unique,
                uniqueness_max_distance=max_dist,
            )
        )

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
