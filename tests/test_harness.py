import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from fuzzyfp import (
    PRODUCT,
    AffineMap,
    BoxSpace,
    ConfigError,
    FiniteSpace,
    InstanceSpec,
    MapPair,
    SampleSet,
    SolveConfig,
    SplitMix64,
    TableMap,
    TGrid,
    UsageError,
    check_fm_axioms,
    estimate_k,
    estimate_k_pair,
    gen_instance,
    run_suite,
    solve,
    uniqueness_probe,
    verify_conclusions,
)
from fuzzyfp import cli, harness, metrics, solver
from fuzzyfp.cli import _jsonable
from fuzzyfp.errors import CodomainError, EmptySampleError
from fuzzyfp.harness import _SUITE_SALT, _generate, _kind, _kind_metrics, _suite_draws
from fuzzyfp.mappings import ConstantMap
from fuzzyfp.rng import _GAMMA, _MASK, unit


def _inf_norm(m):
    return float(np.max(np.sum(np.abs(m), axis=1)))


class TestGenInstance:
    def test_regeneration_is_bit_identical(self):
        spec = InstanceSpec(scheme="pair", dim=2, seed=1, factor_lo=0.3, factor_hi=0.3)
        a = gen_instance(spec)
        b = gen_instance(spec)
        assert a.problem.T.matrix.tobytes() == b.problem.T.matrix.tobytes()
        assert a.problem.S.offset.tobytes() == b.problem.S.offset.tobytes()
        assert np.array_equal(a.x0, b.x0)

    def test_operator_norm_bounded_by_factor(self):
        spec = InstanceSpec(scheme="pair", dim=2, seed=1, factor_lo=0.3, factor_hi=0.3)
        inst = gen_instance(spec)
        assert _inf_norm(inst.problem.T.matrix) <= 0.3 + 1e-12
        assert _inf_norm(inst.problem.S.matrix) <= 0.3 + 1e-12

    def test_many_seeds_distinct_and_contractive(self):
        seen = set()
        for seed in range(100):
            spec = InstanceSpec(
                scheme="pair", dim=2, seed=seed, factor_lo=0.05, factor_hi=0.9
            )
            inst = gen_instance(spec)
            m_t, m_s = inst.problem.T.matrix, inst.problem.S.matrix
            seen.add(m_t.tobytes())
            # composite contraction via norm sub-multiplicativity
            assert _inf_norm(m_s @ m_t) <= _inf_norm(m_s) * _inf_norm(m_t) + 1e-12
            assert _inf_norm(m_s) * _inf_norm(m_t) < 1.0
        assert len(seen) == 100

    def test_constant_family(self):
        spec = InstanceSpec(scheme="pair", family="constant", dim=2, seed=3)
        inst = gen_instance(spec)
        assert isinstance(inst.problem.T, ConstantMap)
        assert isinstance(inst.problem.S, ConstantMap)
        assert inst.mu.carrier.contains(inst.problem.S.value)

    def test_pair_expected_fixed_point_matches_solve(self):
        spec = InstanceSpec(scheme="pair", dim=2, seed=11)
        inst = gen_instance(spec)
        res = solve(inst.problem, inst.mu, inst.nu, inst.x0)
        assert res.converged
        # the linear-algebra oracle is independent of the iteration
        assert np.linalg.norm(res.z - inst.expected_z) <= 1e-8
        assert np.linalg.norm(res.w - inst.expected_w) <= 1e-8

    def test_quadruple_targets_shared_fixed_pair(self):
        spec = InstanceSpec(scheme="quadruple", dim=2, seed=5)
        inst = gen_instance(spec)
        q = inst.problem
        z0, w0 = inst.expected_z, inst.expected_w
        assert np.allclose(q.A(z0), w0, atol=1e-12)
        assert np.allclose(q.B(z0), w0, atol=1e-12)
        assert np.allclose(q.S(w0), z0, atol=1e-12)
        assert np.allclose(q.T(w0), z0, atol=1e-12)

    def test_self_quadruple_lives_on_one_carrier(self):
        spec = InstanceSpec(scheme="self-quadruple", dim=1, seed=9)
        inst = gen_instance(spec)
        assert inst.mu is inst.nu
        assert inst.problem.A.codomain is inst.mu.carrier

    def test_expansive_uses_unbounded_carrier(self):
        spec = InstanceSpec(
            scheme="pair", dim=2, seed=2, factor_lo=1.1, factor_hi=1.9, expansive=True
        )
        inst = gen_instance(spec)
        assert not inst.mu.carrier.is_bounded
        # scaled orthogonal matrices: singular values all equal the factor
        svals = np.linalg.svd(inst.problem.T.matrix, compute_uv=False)
        assert svals.max() == pytest.approx(svals.min(), rel=1e-12)
        assert svals.min() > 1.0

    def test_factor_range_validation(self):
        with pytest.raises(ConfigError):
            InstanceSpec(factor_lo=0.5, factor_hi=1.2)
        with pytest.raises(ConfigError):
            InstanceSpec(factor_lo=0.9, factor_hi=0.5)
        with pytest.raises(ConfigError):
            InstanceSpec(factor_lo=0.5, factor_hi=0.9, expansive=True)
        # NaN fails no plain comparison; 1e308 overflows the 2 * halfwidth x0 draw
        for halfwidth in (0.0, -1.0, float("nan"), 1e308, float("inf")):
            with pytest.raises(ConfigError):
                InstanceSpec(halfwidth=halfwidth)

    def test_mixed_family_is_deterministic(self):
        spec = InstanceSpec(scheme="quadruple", family="mixed", dim=2, seed=21)
        a = gen_instance(spec)
        b = gen_instance(spec)
        for name in "ABST":
            ma, mb = getattr(a.problem, name), getattr(b.problem, name)
            assert type(ma) is type(mb)


class TestRunSuite:
    def test_small_suite_all_pass(self):
        specs = [InstanceSpec(scheme="pair", dim=2, seed=i) for i in range(4)]
        specs += [InstanceSpec(scheme="quadruple", dim=2, seed=40 + i) for i in range(4)]
        specs += [InstanceSpec(scheme="self-quadruple", dim=1, seed=80 + i) for i in range(2)]
        verdict = run_suite(specs)
        agg = verdict.aggregates
        assert agg["instances"] == 10
        assert agg["converged"] == 10
        assert agg["conclusions_passed"] == 10
        assert agg["uniqueness_passed"] == 10
        assert agg["axiom_violations_total"] == 0

    def test_aggregates_match_rows(self):
        specs = [InstanceSpec(scheme="pair", dim=1, seed=i) for i in range(3)]
        verdict = run_suite(specs)
        agg = verdict.aggregates
        assert agg["instances"] == len(verdict.rows)
        assert agg["converged"] == sum(1 for r in verdict.rows if r.status == "converged")
        assert agg["conclusions_passed"] == sum(
            1 for r in verdict.rows if r.conclusions_passed
        )

    def test_expansive_instances_flagged(self):
        specs = [
            InstanceSpec(
                scheme="pair", dim=2, seed=i, factor_lo=1.1, factor_hi=1.9, expansive=True
            )
            for i in range(3)
        ]
        verdict = run_suite(specs)
        assert verdict.aggregates["diverging"] == 3
        assert all(r.status == "diverging" for r in verdict.rows)

    def test_verdict_serialization_reproducible(self):
        specs = [InstanceSpec(scheme="pair", dim=2, seed=i) for i in range(3)]
        a = json.dumps(run_suite(specs), default=_jsonable, sort_keys=True)
        b = json.dumps(run_suite(specs), default=_jsonable, sort_keys=True)
        assert a == b

    def test_empty_specs_rejected(self):
        with pytest.raises(UsageError):
            run_suite([])

    def test_rows_ordered_by_spec_index(self):
        specs = [InstanceSpec(scheme="pair", dim=1, seed=100 - i) for i in range(3)]
        verdict = run_suite(specs)
        assert [r.index for r in verdict.rows] == [0, 1, 2]
        assert [r.seed for r in verdict.rows] == [100, 99, 98]


def test_k_hat_nondecreasing_in_t_max():
    """Scaling the grid ceiling by 10x and 100x never lowers k_hat: induced
    nearness approaches 1 at large scales, the documented vacuity effect."""
    spec = InstanceSpec(scheme="pair", dim=2, seed=17)
    inst = gen_instance(spec)
    res = solve(inst.problem, inst.mu, inst.nu, inst.x0)
    pts = tuple(res.trace_x[:6]) + tuple(
        inst.mu.carrier.sample(__import__("fuzzyfp").SplitMix64(5), 4)
    )
    ks = []
    for t_max in (1e2, 1e3, 1e4):
        grid = TGrid.default().with_t_max(t_max)
        rep = estimate_k_pair(inst.problem, inst.mu, inst.nu, SampleSet(points_x=pts, grid=grid))
        ks.append(rep.k_hat)
        assert rep.grid.t_max == pytest.approx(t_max)
    assert ks[0] <= ks[1] <= ks[2]


def _row(row):
    """A suite row without its index, NaN residuals and None k_hat included."""
    fields = asdict(row)
    del fields["index"]
    return json.dumps(fields, sort_keys=True)


# Kinds of instance that a suite solves in one batch each, every kind with
# several families or seeds, and the escaping expansive pair of the golden
# suite_pair_escape config.
_MIXED_SPECS = [
    [dict(scheme="pair", dim=2, family=f) for f in ("affine", "mixed", "constant")],
    [dict(scheme="quadruple", dim=1, family=f, metric_form="exponential") for f in ("mixed", "affine", "constant")],
    [dict(scheme="self-quadruple", dim=2, family=f) for f in ("mixed", "affine")],
    [dict(scheme="pair", dim=3, factor_lo=1.5, factor_hi=1e8, expansive=True, seed=s) for s in (7, 8, 9, 10)],
    [dict(scheme="pair", dim=1, metric_form="exponential", factor_lo=1.1, factor_hi=2.0, expansive=True)] * 2,
    [dict(scheme="quadruple", dim=2, factor_lo=1.1, factor_hi=1.5, expansive=True)] * 2,
    [dict(scheme="pair", dim=1, metric_form="exponential", family=f) for f in ("mixed", "affine")],
]


def test_suite_equals_each_spec_alone():
    """Interleaved kinds of instance, each solved in one batch, give every
    row that a suite of that spec alone gives."""
    specs = []
    for i in range(4):  # round robin over the kinds, so that no kind is contiguous
        for j, kind in enumerate(_MIXED_SPECS):
            if i < len(kind):
                specs.append(InstanceSpec(**{"seed": 100 * j + i, **kind[i]}))
    cfg = SolveConfig(max_iter=60)
    verdict = run_suite(specs, cfg)
    alone = [run_suite([spec], cfg).rows[0] for spec in specs]
    assert [_row(r) for r in verdict.rows] == [_row(r) for r in alone]
    assert [r.index for r in verdict.rows] == list(range(len(specs)))
    for spec, row in zip(specs, verdict.rows):  # each row reads the x0 start, whose conclusions are checked
        inst = gen_instance(spec)
        with np.errstate(over="ignore", invalid="ignore"):  # the expansive orbits overflow
            x0 = oracles.solve(inst.problem, inst.mu, inst.nu, inst.x0, cfg)
        assert (row.status, row.iterations, row.conclusions_passed) == (x0.status, x0.iterations, x0.conclusions_passed)
        assert json.dumps(row.min_residual) == json.dumps(x0.min_residual)
    statuses = {r.status for r in verdict.rows}
    assert statuses == {"converged", "diverging", "max-iter"}
    assert any(r.k_hat is None for r in verdict.rows) and any(r.uniqueness_passed for r in verdict.rows)


def _axiom_seeds(spec) -> list:
    """The axiom seeds at the head of spec's suite stream, one per distinct metric."""
    inst = gen_instance(spec)
    rng = SplitMix64(spec.seed ^ _SUITE_SALT)
    return [rng.next_u64() for _ in dict.fromkeys((inst.mu, inst.nu))]


def _axiom_violations(spec, grid) -> int:
    """The violations that spec's axiom seeds find, each seed checked alone."""
    inst = gen_instance(spec)
    return sum(check_fm_axioms(fm, PRODUCT, 32, grid, s, inst.window).violation_count for fm, s in zip((inst.mu, inst.nu), _axiom_seeds(spec)))


def _suite_row(spec, cfg, starts=4, n_traj=8, n_rand=8, quad_n_traj=4, quad_n_rand=4, first=None):
    """The suite row of one spec from the public one-instance functions:
    the axiom count of first, the first spec of spec's kind in the suite
    (spec itself by default), whose seeds are each checked alone, each start
    solved alone, the conclusions verified at x0's (z, w) and k_hat
    estimated alone."""
    inst = gen_instance(spec)
    rng = SplitMix64(spec.seed ^ _SUITE_SALT)
    window = inst.window
    for _ in dict.fromkeys((inst.mu, inst.nu)):  # the axiom seeds, drawn though only first's are checked
        rng.next_u64()
    violations = _axiom_violations(first or spec, cfg.grid)
    if spec.scheme != "pair":
        n_traj, n_rand = quad_n_traj, quad_n_rand
    random_x = inst.mu.carrier.sample(rng, n_rand, window)
    random_y = inst.nu.carrier.sample(rng, n_rand, window) if spec.scheme == "quadruple" else None
    probe = uniqueness_probe(inst.problem, inst.mu, inst.nu, [inst.x0, *inst.mu.carrier.sample(rng, starts - 1, window)], cfg)
    x0 = solve(inst.problem, inst.mu, inst.nu, inst.x0, cfg)
    checks = () if x0.w is None else verify_conclusions(inst.problem, inst.mu, inst.nu, x0.z, x0.w, cfg.grid, cfg.verify_tol)

    def trajectory(column):
        idx = range(len(column)) if len(column) <= n_traj else np.linspace(0, len(column) - 1, n_traj).astype(int)
        return [column[i] for i in idx]

    xs = trajectory(x0.trace_x) + list(random_x)
    ys = () if random_y is None else trajectory(x0.trace_y) + list(random_y)
    try:
        reports = estimate_k(spec.scheme, inst.problem, inst.mu, inst.nu, SampleSet(tuple(xs), cfg.grid, tuple(ys)))
        ks = [r.k_hat for r in reports if r.k_hat is not None]
    except (EmptySampleError, CodomainError):
        ks = []
    return {
        "seed": spec.seed,
        "scheme": spec.scheme,
        "status": x0.status,
        "iterations": x0.iterations,
        "k_hat": max(ks) if ks else None,
        "axiom_violations": violations,
        "conclusions_passed": bool(checks) and all(c.passed for c in checks),
        "min_residual": min(c.residual for c in checks) if checks else float("nan"),
        "uniqueness_passed": probe.passed,
        "uniqueness_max_distance": max(probe.max_z_distance, probe.max_w_distance) if probe.conclusive else None,
    }


# A pair kind whose constant pairs' x0 runs keep fewer than 8 points, so
# that their k_hat samples are smaller than the affine pairs' of the kind
_SHORT_RUNS = [dict(scheme="pair", dim=2, family=f, seed=s) for f in ("constant", "affine") for s in (1, 2, 3)]


def test_suite_rows_equal_the_one_instance_functions():
    """Every phase of a suite runs once per kind; each row equals the row
    made from the public one-instance functions."""
    specs = [InstanceSpec(**{"seed": 100 * j + i, **kind[i]}) for j, kind in enumerate(_MIXED_SPECS) for i in range(len(kind))]
    specs += [InstanceSpec(**kw) for kw in _SHORT_RUNS]
    cfg = SolveConfig(max_iter=60)
    verdict = run_suite(specs, cfg)
    firsts = {}  # the first spec of each kind, whose axiom count every row of the kind carries
    with np.errstate(over="ignore", invalid="ignore"):  # the expansive orbits overflow
        alone = [_suite_row(spec, cfg, first=firsts.setdefault(_kind(spec), spec)) for spec in specs]
    assert [_row(r) for r in verdict.rows] == [json.dumps(r, sort_keys=True) for r in alone]
    short = [r.iterations for r, kw in zip(verdict.rows[-6:], _SHORT_RUNS) if kw["family"] == "constant"]
    assert max(short) + 1 < 8 and all(r.k_hat is not None for r in verdict.rows[-6:])
    assert any(r.k_hat is None for r in verdict.rows)


# Quadruple and self-quadruple kinds whose constant x0 runs keep 5 x points,
# fewer than quad_n_traj = 8, so that their k_hat samples are smaller than
# those of the kind's affine instances
_SHORT_QUAD_RUNS = [
    dict(scheme=scheme, dim=2, family=f, seed=s) for scheme in ("quadruple", "self-quadruple") for f in ("constant", "affine") for s in (1, 2)
]


def test_quadruple_rows_of_samples_of_several_sizes_equal_the_one_instance_functions():
    """A kind whose k_hat samples differ in size makes one stacked estimate
    per size; each row equals the row made from the one-instance functions."""
    specs = [InstanceSpec(**kw) for kw in _SHORT_QUAD_RUNS]
    cfg = SolveConfig(max_iter=60)
    verdict = run_suite(specs, cfg, quad_n_traj=8)
    firsts = {}
    alone = [_suite_row(spec, cfg, quad_n_traj=8, first=firsts.setdefault(_kind(spec), spec)) for spec in specs]
    assert [_row(r) for r in verdict.rows] == [json.dumps(r, sort_keys=True) for r in alone]
    short = {(r.scheme, r.iterations + 1 < 8) for r in verdict.rows}
    assert short == {(scheme, s) for scheme in ("quadruple", "self-quadruple") for s in (True, False)}
    assert any(r.k_hat is None for r in verdict.rows) and any(r.k_hat is not None for r in verdict.rows)


class _FarCubedExponential(metrics.ExponentialFuzzyMetric):
    """exp(-g(d)/t) with g(d) = d up to d = 1 and d**3 beyond: the
    exponential form near every fixed point, so the runs are unchanged, but
    far points break the triangle law."""

    def _from_d(self, d, ts, out=None):
        return super()._from_d(np.where(d > 1.0, d**3, d), ts, out)


def test_a_kind_that_breaks_the_triangle_law_counts_its_violations_once(monkeypatch, tmp_path, capsys):
    """The axioms are checked once per kind, on its first instance's seeds:
    every row of the broken kind carries that count, the sound kind's rows
    0, and the total is the sum over kinds, not over rows."""
    monkeypatch.setitem(metrics.INDUCED_FORMS, "exponential", _FarCubedExponential)
    broken = [InstanceSpec(scheme="pair", dim=1, metric_form="exponential", seed=s) for s in (1, 2, 3)]
    sound = [InstanceSpec(scheme="pair", dim=2, seed=s) for s in (4, 5)]
    verdict = run_suite([broken[0], sound[0], broken[1], sound[1], broken[2]])
    count = _axiom_violations(broken[0], verdict.grid)
    assert count > 0 and len({_axiom_violations(spec, verdict.grid) for spec in broken}) > 1  # each instance's own count differs
    assert [r.axiom_violations for r in verdict.rows] == [count, 0, count, 0, count]
    assert verdict.aggregates["axiom_violations_total"] == count
    assert all(r.status == "converged" and r.conclusions_passed and r.uniqueness_passed for r in verdict.rows)

    suite = {"count": 3, "scheme": "pair", "dim": 1, "metric_form": "exponential", "seed": 1}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"suite": suite}))
    assert cli.main(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    line = "suite: instances=3 converged=3 conclusions_passed=3 uniqueness_passed=3 axiom_violations_total={}"
    assert capsys.readouterr().out.strip() == line.format(count)


def test_a_suite_checks_the_axioms_once_per_kind(monkeypatch):
    """One check_fm_axioms_batch call per kind, on the axiom seeds of the
    kind's first instance: one per distinct metric."""
    calls = []
    batch = harness.check_fm_axioms_batch
    monkeypatch.setattr(harness, "check_fm_axioms_batch", lambda *a, **kw: calls.append(list(a[4])) or batch(*a, **kw))
    firsts = [InstanceSpec(**{"seed": 100 * j, **kind[0]}) for j, kind in enumerate(_MIXED_SPECS)]
    specs = [InstanceSpec(**{"seed": 100 * j + i, **kind[i]}) for j, kind in enumerate(_MIXED_SPECS) for i in range(len(kind))]
    run_suite(specs, SolveConfig(max_iter=60))
    assert calls == [_axiom_seeds(first) for first in firsts]
    assert [len(seeds) for seeds in calls] == [1 if first.scheme == "self-quadruple" else 2 for first in firsts]


@pytest.mark.parametrize("n_rand", [0, 8])
@pytest.mark.parametrize("starts", [2, 4])
@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_suite_draws_of_a_kind_equal_each_instance_stream(scheme, starts, n_rand):
    """The kind's one draw array gives each instance's suite stream bit for
    bit, read in its fixed order, also for seeds outside 64 bits."""
    specs = [InstanceSpec(scheme=scheme, dim=2, seed=seed) for seed in (-5, 0, 3, 2**64 - 1, 2**70)]
    mu, nu = _kind_metrics(specs[0])
    got = _suite_draws(specs, mu, nu, starts, n_rand, gen_instance(specs[0]).window)
    assert len(got[0]) == len(specs) and all(not part.flags.writeable for part in got[1:])
    for i, spec in enumerate(specs):
        seeds, random_x, random_y, probes = oracles.suite_draws(spec, mu, nu, starts, n_rand)
        assert got[0][i] == seeds
        for part, ref in zip(got[1:], (random_x, random_y, probes)):
            assert np.array_equal(part[i], np.array(ref, dtype=float).reshape(-1, 2))


def _map_bits(m):
    return type(m).__name__, [v.tobytes() for v in vars(m).values() if isinstance(v, np.ndarray)]


def assert_same_instance(got, ref):
    """got has ref's maps (types and array bits, and which maps are one
    object), x0 and expected fixed points, bit for bit."""
    maps, ref_maps = list(vars(got.problem).values()), list(vars(ref.problem).values())
    assert [_map_bits(m) for m in maps] == [_map_bits(m) for m in ref_maps]
    assert [[m is n for n in maps] for m in maps] == [[m is n for n in ref_maps] for m in ref_maps]
    assert got.x0.tobytes() == ref.x0.tobytes()
    for name in ("expected_z", "expected_w"):
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


# Seeds below 0 and at or above 2**64 give the stream of the seed mod 2**64.
_GEN_SEEDS = [-7, -1, 0, 1, 2, 3, 5, 8, 13, 2**63, 2**64 - 1, 2**64, 2**64 + 3, 2**70 + 11]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("expansive", [False, True])
@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_kind_generator_matches_the_scalar_generator(scheme, expansive, dim):
    """One kind whose specs mix families (all three, contractive kinds) and
    factor ranges gives each spec's instance of the scalar generator bit for
    bit, and so does gen_instance on each spec alone."""
    families = ["affine"] if expansive else ["affine", "constant", "mixed"]
    ranges = [(1.1, 1.9), (2.0, 2.0), (1.01, 40.0)] if expansive else [(0.3, 0.9), (0.05, 0.1), (0.97, 0.995)]
    specs = [
        InstanceSpec(
            scheme=scheme,
            dim=dim,
            expansive=expansive,
            seed=seed,
            family=families[k % len(families)],
            factor_lo=ranges[k % 3][0],
            factor_hi=ranges[k % 3][1],
        )
        for k, seed in enumerate(_GEN_SEEDS + [seed + 100 for seed in _GEN_SEEDS])
    ]
    insts = _generate(specs, *_kind_metrics(specs[0]))
    assert [inst.spec for inst in insts] == specs
    for spec, inst in zip(specs, insts):
        ref = oracles.gen_instance(spec)
        assert_same_instance(inst, ref)
        assert_same_instance(gen_instance(spec), ref)
    kinds = {type(m).__name__ for inst in insts for m in vars(inst.problem).values()}
    assert kinds == ({"AffineMap"} if expansive else {"AffineMap", "ConstantMap"})


def _unmix(z: int) -> int:
    """The inverse of SplitMix64's output mix."""

    def unshift(y, s):
        x, k = y, s
        while k < 64:
            x ^= y >> k
            k += s
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return unshift(z, 30)


def _seeds_drawing_a_zero_entry(counter):
    """Seeds whose draw number counter (from 1) maps to exactly 0 in
    [-1, 1): its top 53 bits are 2**52, so unit() gives 0.5."""
    for low in range(1 << 11):
        yield (_unmix((1 << 63) + low) - counter * _GAMMA) & _MASK


def test_a_matrix_of_norm_below_1e_9_is_redrawn_as_the_scalar_generator_does():
    """A 1-D matrix whose one entry is drawn as exactly 0 is redrawn, and
    only its own stream reads on: pair T (draw 3 of an affine pair, 5 of a
    mixed pair whose coins gave two affine maps, which runs past the kind's
    one pass) and quadruple A (draw 7 of an affine quadruple)."""
    mixed = next(s for s in _seeds_drawing_a_zero_entry(5) if all(unit(u) >= 0.5 for u in SplitMix64(s).block(2).tolist()))
    cases = [("pair", "affine", 3, next(_seeds_drawing_a_zero_entry(3))), ("pair", "mixed", 5, mixed)]
    cases.append(("quadruple", "affine", 7, next(_seeds_drawing_a_zero_entry(7))))
    for scheme, family, counter, seed in cases:
        assert -1.0 + 2.0 * unit(SplitMix64(seed).block(counter).tolist()[-1]) == 0.0
        specs = [InstanceSpec(scheme=scheme, dim=1, family=f, seed=s) for f, s in [(family, seed), ("mixed", 1), ("constant", 2)]]
        insts = _generate(specs, *_kind_metrics(specs[0]))
        for spec, inst in zip(specs, insts):
            assert_same_instance(inst, oracles.gen_instance(spec))
        redrawn = insts[0].problem.T if scheme == "pair" else insts[0].problem.A
        assert isinstance(redrawn, AffineMap) and 0.3 <= abs(redrawn.matrix[0, 0]) <= 0.9


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_of_slow_quadruples_keeps_memory_of_one():
    """Four slow quadruples (660 to 1 032 x steps) solved in one batch:
    the batch keeps no nearness rows, only each x0 start keeps its columns
    and the others their last iterates, and the flags read a tail of
    stall_window steps, so the traced peak, which the estimators' arrays
    set, stays near that of the largest instance alone."""
    specs = [
        InstanceSpec(scheme="quadruple", dim=1, factor_lo=0.97, factor_hi=0.995, metric_form="exponential", seed=s)
        for s in range(4)
    ]
    verdict = run_suite(specs)
    assert all(r.status == "converged" for r in verdict.rows)
    assert min(r.iterations for r in verdict.rows) >= 660
    alone = max(_traced_peak(lambda: run_suite([spec])) for spec in specs)
    assert _traced_peak(lambda: run_suite(specs)) <= 1.25 * alone


def test_a_suite_builds_one_solver_result_per_instance(monkeypatch):
    """The verdicts read the batch's z and w arrays, so of a 10-pair suite
    of 4 starts only the 10 x0 starts, whose rows are read, become results."""
    built = []

    class Counted(solver.FixedPointResult):
        def __init__(self, *fields):
            built.append(self)
            super().__init__(*fields)

    monkeypatch.setattr(solver, "FixedPointResult", Counted)
    verdict = run_suite([InstanceSpec(scheme="pair", dim=2, seed=s) for s in range(10)], starts=4)
    assert len(verdict.rows) == 10 and all(r.uniqueness_passed for r in verdict.rows)
    assert len(built) == 10


def _verdict_key(report):
    return (report.conclusive, report.passed, repr(report.max_z_distance), repr(report.max_w_distance))


def _oracle_verdicts(mu, nu, batch, starts):
    """The oracle's verdict on each problem's starts of a batch alone."""
    results = [batch.result(i) for i in range(len(batch.reasons))]
    return [oracles.compare_fixed_points(mu, nu, results[i : i + starts]) for i in range(0, len(results), starts)]


def _suite_uniqueness(specs, monkeypatch, cfg=None):
    """Run a suite of one kind with its kind-wide compare_fixed_points call
    watched; assert each instance's verdict, and its row, equals the
    oracle's verdict on that instance's starts alone.  Returns the
    verdicts."""
    calls, real = [], solver.compare_fixed_points

    def watched(mu, nu, batch, starts):
        calls.append((mu, nu, batch, starts))
        return real(mu, nu, batch, starts)

    monkeypatch.setattr(harness, "compare_fixed_points", watched)
    with np.errstate(over="ignore", invalid="ignore"):  # the expansive orbits overflow
        verdict = run_suite(specs, cfg)
    ((mu, nu, batch, starts),) = calls
    got = real(mu, nu, batch, starts)
    want = _oracle_verdicts(mu, nu, batch, starts)
    assert [_verdict_key(r) for r in got] == [_verdict_key(r) for r in want]
    rows = [(r.uniqueness_passed, repr(r.uniqueness_max_distance)) for r in verdict.rows]
    assert rows == [(w.passed, repr(max(w.max_z_distance, w.max_w_distance) if w.conclusive else None)) for w in want]
    return got


@pytest.mark.parametrize(
    "kind",
    [
        dict(scheme="pair", dim=2),
        dict(scheme="quadruple", dim=2),
        dict(scheme="self-quadruple", dim=1, metric_form="exponential"),
        dict(scheme="pair", dim=4),  # more than 3 coordinates: the sums keep the bits of one instance's call
        dict(scheme="quadruple", dim=5),
    ],
    ids=lambda kind: "-".join(map(str, kind.values())),
)
def test_kind_uniqueness_verdicts_equal_each_instance_alone(kind, monkeypatch):
    got = _suite_uniqueness([InstanceSpec(seed=s, **kind) for s in range(8)], monkeypatch)
    assert all(r.passed for r in got)
    assert any(r.max_z_distance > 0.0 for r in got)


def test_kind_uniqueness_verdicts_of_constant_maps_are_exactly_zero(monkeypatch):
    """A mixed-family kind: its constant maps' fixed points agree exactly."""
    got = _suite_uniqueness([InstanceSpec(family="mixed", seed=s) for s in range(5, 13)], monkeypatch)
    assert any(r.max_z_distance == r.max_w_distance == 0.0 for r in got)
    assert any(r.max_z_distance > 0.0 for r in got)


def test_kind_uniqueness_verdicts_of_an_expansive_kind_are_inconclusive(monkeypatch):
    specs = [InstanceSpec(expansive=True, factor_lo=1.5, factor_hi=3.0, seed=s) for s in range(4)]
    got = _suite_uniqueness(specs, monkeypatch, SolveConfig(max_iter=60))
    assert all(not r.conclusive and r.passed is None and r.max_z_distance is None for r in got)


def test_uniqueness_verdicts_with_a_start_that_escapes_before_its_first_y():
    """A start whose first image leaves Y keeps no y, so its w is None; its
    problem is inconclusive, and the problems around it are judged alone."""
    box = BoxSpace([-1.0], [1.0])
    mu = metrics.induced_standard(box)
    pairs = [
        MapPair(T=AffineMap([[2.0]], [0.0], box), S=AffineMap([[0.25]], [0.0], box)),
        MapPair(T=AffineMap([[0.5]], [0.1], box), S=AffineMap([[0.5]], [0.0], box)),
    ]
    starts = [np.array([v]) for v in (0.1, -0.2, 0.1, 0.9, 0.3, -0.7)]
    problems = [pairs[1], pairs[0], pairs[1]]
    batch = solver.solve_problems(problems, mu, mu, starts, np.repeat(np.arange(3), 2))
    assert batch.result(3).w is None and batch.result(3).status == "diverging"
    got = solver.compare_fixed_points(mu, mu, batch, 2)
    want = _oracle_verdicts(mu, mu, batch, 2)
    assert [_verdict_key(r) for r in got] == [_verdict_key(r) for r in want]
    assert [r.conclusive for r in got] == [True, False, True]


def test_uniqueness_probe_on_a_finite_carrier_equals_the_oracle():
    space_x = FiniteSpace([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    space_y = FiniteSpace([[0.0, 1.5], [1.5, 0.0]])
    mu, nu = metrics.induced_standard(space_x), metrics.induced_standard(space_y)
    for targets, passed in (([2, 2], True), ([0, 2], False)):  # S(0) = 0 makes 0 a second fixed point
        pair = MapPair(T=TableMap([0, 1, 1], space_y), S=TableMap(targets, space_x))
        probe = uniqueness_probe(pair, mu, nu, [0, 1, 2])
        (want,) = _oracle_verdicts(mu, nu, solver.solve_problems([pair], mu, nu, [0, 1, 2], np.zeros(3, np.intp)), 3)
        assert _verdict_key(probe) == _verdict_key(want) and probe.passed is passed


@pytest.mark.parametrize("dim", [3, 4, 7])
def test_uniqueness_verdicts_of_far_apart_fixed_points_keep_each_problem_alone(dim):
    """Identity pairs: every start is its own fixed point, so the distances
    carry full mantissas, whose sums of more than 3 squares round as the
    contiguous call on one problem's points rounds them."""
    box = BoxSpace([-10.0] * dim, [10.0] * dim)
    mu = metrics.induced_standard(box)
    ident = AffineMap(np.eye(dim), np.zeros(dim), box)
    starts = box.sample(SplitMix64(dim), 40)
    batch = solver.solve_problems([MapPair(T=ident, S=ident)] * 10, mu, mu, starts, np.repeat(np.arange(10), 4))
    got = solver.compare_fixed_points(mu, mu, batch, 4)
    want = _oracle_verdicts(mu, mu, batch, 4)
    assert [_verdict_key(r) for r in got] == [_verdict_key(r) for r in want]
    assert all(r.conclusive and r.passed is False for r in got)
