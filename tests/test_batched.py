"""The array code of the sampling, distance and solver layers agrees bit for
bit with the scalar loops it replaces (tests/oracles.py)."""

import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    AffineMap,
    BoxSpace,
    ComposedMap,
    ConstantMap,
    DomainError,
    FiniteSpace,
    MapPair,
    MapQuadruple,
    SolveConfig,
    SplitMix64,
    StandardFuzzyMetric,
    TableFuzzyMetric,
    TableMap,
    TGrid,
    check_fm_axioms,
    induced_exponential,
    induced_standard,
)
from fuzzyfp import hypotheses, solver
from fuzzyfp.axioms import MAX_WITNESSES
from fuzzyfp.errors import CodomainError, EmptySampleError, UsageError
from fuzzyfp.mappings import Mapping
from fuzzyfp.hypotheses import (
    SampleSet,
    check_recurrence_pair,
    check_recurrence_quad,
    estimate_k_pair,
    estimate_k_pair_dual,
    estimate_k_quad,
    estimate_k_self_quad,
)
from fuzzyfp.solver import _diameter, solve, solve_batch

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
SEEDS = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


def prob_sum(a, b):
    """Not a t-norm: a + b - ab exceeds both operands, so triangles fail."""
    return a + b - a * b


OPS = [MINIMUM, PRODUCT, LUKASIEWICZ, prob_sum]
OP_IDS = ["minimum", "product", "lukasiewicz", "prob_sum"]


def same_report(a, b):
    return (a.subject, a.samples, a.seed, a.checks, a.violation_count, a.violations) == (
        b.subject,
        b.samples,
        b.seed,
        b.checks,
        b.violation_count,
        b.violations,
    )


# -- RNG ----------------------------------------------------------------------


@SETTINGS
@given(seed=SEEDS, sizes=st.lists(st.integers(0, 40), max_size=6))
def test_block_draws_continue_the_scalar_stream(seed, sizes):
    """Blocks interleaved with scalar draws give the one scalar stream."""
    scalar, mixed = SplitMix64(seed), SplitMix64(seed)
    got = []
    for n in sizes:
        block = mixed.block(n)
        assert block.dtype == np.uint64 and block.shape == (n,)
        got += block.tolist()
        got.append(mixed.next_u64())
    assert got == [scalar.next_u64() for _ in got]
    assert mixed.uniform() == scalar.uniform()


def test_block_wraps_around_two_to_the_64():
    # the state passes 2**64 on the first step from 2**64 - 1
    ref = SplitMix64(2**64 - 1)
    assert SplitMix64(2**64 - 1).block(1000).tolist() == [ref.next_u64() for _ in range(1000)]


# -- sampling and distances ---------------------------------------------------


@st.composite
def boxes(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    lo = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim)))
    return BoxSpace(lo, hi, crisp_metric=draw(st.sampled_from(["euclidean", "max"])))


@st.composite
def finite_spaces(draw, max_size=5):
    """Distances |p_i - p_j| of distinct points on a line: always a metric."""
    n = draw(st.integers(1, max_size))
    coords = draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n, unique=True))
    c = np.array(coords)
    dist = np.abs(c[:, None] - c[None, :])
    if n > 1 and dist[~np.eye(n, dtype=bool)].min() <= 0.0:
        dist = 1.0 - np.eye(n)  # distinct floats may still subtract to 0: use the discrete metric
    return FiniteSpace(dist)


@SETTINGS
@given(carrier=st.one_of(boxes(), finite_spaces()), seed=SEEDS, count=st.integers(0, 30))
def test_sample_matches_point_by_point_draws(carrier, seed, count):
    got = carrier.sample(SplitMix64(seed), count)
    ref = oracles.sample(carrier, SplitMix64(seed), count)
    assert isinstance(got, np.ndarray) and not got.flags.writeable and len(got) == count
    if isinstance(carrier, BoxSpace):
        assert got.shape == (count, carrier.dimension)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    else:
        assert got.dtype == np.intp and got.tolist() == ref


@SETTINGS
@given(box=boxes(), seed=SEEDS, count=st.integers(1, 12))
def test_sample_from_a_window_matches(box, seed, count):
    window = ([-1.0] * box.dimension, [2.0] * box.dimension)
    got = box.sample(SplitMix64(seed), count, window)
    ref = oracles.sample(box, SplitMix64(seed), count, window)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@SETTINGS
@given(box=boxes(), seed=SEEDS, na=st.integers(1, 8), nb=st.integers(1, 8))
def test_box_distances_match_scalar_distance_bit_for_bit(box, seed, na, nb):
    rng = SplitMix64(seed)
    a, b = box.sample(rng, na), box.sample(rng, nb)
    got = box.distances(np.asarray(a)[:, None], np.asarray(b)[None])
    ref = oracles.distance_matrix(box, a, b)
    assert np.array_equal(got, ref)
    assert np.array_equal(box.distances(a, a), np.zeros(na))
    assert [box.distance(p, q) for p, q in zip(a, a[::-1])] == box.distances(a, a[::-1]).tolist()


@pytest.mark.parametrize("metric", ["euclidean", "max"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_distances_bitwise_on_many_pairs(dim, metric):
    box = BoxSpace([-10.0] * dim, [10.0] * dim, crisp_metric=metric)
    rng = SplitMix64(dim)
    a, b = box.sample(rng, 2000), box.sample(rng, 2000)
    ref = [oracles.distance(box, p, q) for p, q in zip(a, b)]
    assert box.distances(a, b).tolist() == ref


@SETTINGS
@given(space=finite_spaces(), seed=SEEDS)
def test_finite_distances_and_diameter(space, seed):
    pts = space.sample(SplitMix64(seed), 6)
    got = space.distances(np.asarray(pts)[:, None], np.asarray(pts)[None])
    assert np.array_equal(got, oracles.distance_matrix(space, pts, pts))
    assert _diameter(space, pts) == max(
        oracles.distance(space, p, q) for i, p in enumerate(pts) for q in pts[i + 1 :]
    )


@st.composite
def fuzzy_metrics(draw):
    """Induced metrics on boxes, or random (often broken) tables."""
    if draw(st.booleans()):
        make = draw(st.sampled_from([induced_standard, induced_exponential]))
        return make(draw(boxes(max_dim=3)))
    space = draw(finite_spaces(max_size=4))
    grid = TGrid.logspace(0.1, 10.0, draw(st.integers(1, 5)))
    n = space.size
    values = np.array(
        draw(st.lists(st.floats(0.01, 1.0), min_size=n * n * len(grid), max_size=n * n * len(grid)))
    ).reshape(n, n, len(grid))
    if draw(st.booleans()):  # a valid-looking table: symmetric, unit diagonal, monotone
        values = np.sort(np.minimum(values, values.transpose(1, 0, 2)), axis=-1)
        values[np.arange(n), np.arange(n)] = 1.0
    return TableFuzzyMetric(space, grid, values)


@SETTINGS
@given(fm=fuzzy_metrics(), seed=SEEDS, na=st.integers(1, 5), nb=st.integers(1, 5))
def test_pairwise_matches_pair_by_pair(fm, seed, na, nb):
    rng = SplitMix64(seed)
    a, b = fm.carrier.sample(rng, na), fm.carrier.sample(rng, nb)
    ts = TGrid.default().values
    assert np.array_equal(fm.pairwise(a, b, ts), oracles.pairwise(fm, a, b, ts))


# -- triangle check of FiniteSpace --------------------------------------------


@SETTINGS
@given(
    entries=st.lists(
        st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 5.0)), min_size=21, max_size=21
    ),
    n=st.integers(1, 6),
)
def test_finite_space_triangle_check_matches_the_loop(entries, n):
    """Random symmetric tables, many of them violating the triangle law."""
    t = np.zeros((n, n))
    t[np.triu_indices(n, 1)] = entries[: n * (n - 1) // 2]
    t = t + t.T
    witness = oracles.triangle_witness(t)
    if witness is None:
        assert FiniteSpace(t).size == n
    else:
        with pytest.raises(DomainError, match=re.escape(f"triangle inequality fails at {witness}")):
            FiniteSpace(t)


def test_finite_space_triangle_slack_is_kept():
    def table(d02):
        return [[0.0, 1.0, d02], [1.0, 0.0, 1.0], [d02, 1.0, 0.0]]

    # d(0, 2) exceeds d(0, 1) + d(1, 2) = 2 by less than the 1e-12 slack, then by more
    assert FiniteSpace(table(2.0 + 1e-13)).size == 3
    with pytest.raises(DomainError, match=r"\(0, 1, 2\)"):
        FiniteSpace(table(2.0 + 1e-11))


# -- check_fm_axioms ----------------------------------------------------------


@SETTINGS
@given(fm=fuzzy_metrics(), op=st.sampled_from(OPS), seed=SEEDS, triples=st.integers(1, 40))
def test_axiom_report_matches_triple_by_triple(fm, op, seed, triples):
    grid = getattr(fm, "grid", None) or TGrid.default()
    got = check_fm_axioms(fm, op, triples, grid, seed)
    ref = oracles.check_fm_axioms(fm, op, triples, grid, seed)
    assert same_report(got, ref)


class Wobbly(StandardFuzzyMetric):
    """Not monotone in t, and clipped to 1 for distinct points: the monotone,
    identity and triangle checks all fire."""

    form = "wobbly"

    def _from_d(self, d, ts):
        return np.minimum(1.0, ts / (ts + d) * (1.0 + 0.5 * np.sin(ts)))


class Vanishing(StandardFuzzyMetric):
    """Zero beyond distance 40: the positivity check fires on (x, y) or (y, z)."""

    form = "vanishing"

    def _from_d(self, d, ts):
        return np.where(d > 40.0, 0.0, ts / (ts + d))


METRICS = [induced_standard, induced_exponential, Wobbly, Vanishing]


@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
@pytest.mark.parametrize("make", METRICS, ids=["standard", "exponential", "wobbly", "vanishing"])
def test_axiom_report_matches_on_an_unbounded_box_window(make, op):
    fm = make(BoxSpace([-np.inf, -np.inf], [np.inf, np.inf]))
    window = ([-50.0, -1.0], [50.0, 1.0])
    grid = TGrid.default()
    got = check_fm_axioms(fm, op, 300, grid, 17, window)
    ref = oracles.check_fm_axioms(fm, op, 300, grid, 17, window)
    assert same_report(got, ref)


@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
def test_axiom_report_with_more_violations_than_witnesses(op):
    space = FiniteSpace(1.0 - np.eye(3))
    grid = TGrid([0.5, 1.0, 2.0])
    values = np.full((3, 3, 3), 0.3)
    values[0, 0] = 0.8  # identity fails at point 0
    values[1, 2] = 0.6  # symmetry fails between 1 and 2
    values[1, 1] = values[2, 2] = 1.0
    fm = TableFuzzyMetric(space, grid, values)
    got = check_fm_axioms(fm, op, 400, grid, 3)
    ref = oracles.check_fm_axioms(fm, op, 400, grid, 3)
    assert got.violation_count > 2 * MAX_WITNESSES
    assert len(got.violations) == MAX_WITNESSES
    assert same_report(got, ref)


def test_axiom_blocks_split_the_sample_like_one_pass(monkeypatch):
    """Blocks of triples continue one RNG stream and one witness order."""
    import fuzzyfp.axioms as axioms

    fm = induced_standard(BoxSpace([-3.0], [3.0]))
    grid = TGrid.default()
    whole = check_fm_axioms(fm, prob_sum, 50, grid, 8)
    monkeypatch.setattr(axioms, "_BLOCK_CELLS", 7 * len(grid) ** 2)  # blocks of 7 triples
    assert same_report(check_fm_axioms(fm, prob_sum, 50, grid, 8), whole)
    assert whole.violation_count > MAX_WITNESSES


# -- the lock-step solver against one start at a time ----------------------------


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_affine_rows_match_one_point_at_a_time(dim):
    box = BoxSpace([-np.inf] * dim, [np.inf] * dim)
    rng = SplitMix64(100 + dim)
    m = AffineMap(np.array(box.sample(rng, dim, ([-2.0] * dim, [2.0] * dim))), [0.5] * dim, box)
    xs = np.array(box.sample(rng, 20000, ([-1e3] * dim, [1e3] * dim)))
    out, escaped = m.rows(xs)
    ref = np.array([m.matrix @ x + m.offset for x in xs])
    assert escaped is None
    assert out.tobytes() == ref.tobytes()
    assert m(xs[-1]).tobytes() == ref[-1].tobytes()


def _same_point(a, b):
    if isinstance(b, int):
        return type(a) is int and a == b
    return not a.flags.writeable and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_trace(a, b):
    assert len(a.points) == len(b.points)
    assert all(_same_point(p, q) for p, q in zip(a.points, b.points))
    assert a.nearness.shape == b.nearness.shape
    assert a.nearness.tobytes() == np.ascontiguousarray(b.nearness).tobytes()


def _same_results(a, b):
    """Every FixedPointResult field, traces and conclusions included, bit for bit."""
    assert len(a) == len(b)
    for got, ref in zip(a, b):
        assert (got.stop_reason, got.iterations) == (ref.stop_reason, ref.iterations)
        assert _same_point(got.z, ref.z)
        assert (got.w is None and ref.w is None) or _same_point(got.w, ref.w)
        _same_trace(got.trace_x, ref.trace_x)
        _same_trace(got.trace_y, ref.trace_y)
        assert got.conclusion_checks == ref.conclusion_checks


def assert_same_results(problem, mu, nu, starts, cfg):
    """Every start's batched result is the one-start reference, bit for bit;
    only the first start's conclusions are checked."""
    results = solve_batch(problem, mu, nu, starts, cfg)
    refs = [oracles.solve(problem, mu, nu, start, cfg) for start in starts]
    _same_results(results, refs[:1] + [replace(r, conclusion_checks=()) for r in refs[1:]])
    return results


SCALES = [0.0, 0.3, 0.97, 1.0, 2.0, 3.0]


@st.composite
def box_maps(draw, domain, codomain, composed=True):
    """Affine (random or a signed identity plus a shift), constant or composed maps."""
    forms = ["affine", "affine", "shift", "constant"] + ["composed"] * composed
    form = draw(st.sampled_from(forms))
    d_in, d_out = domain.dimension, codomain.dimension
    if form == "shift" and d_in == d_out:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        offset = draw(st.lists(st.floats(-20, 20), min_size=d_out, max_size=d_out))
        return AffineMap(sign * np.eye(d_out), offset, codomain)
    if form in ("affine", "shift"):
        entries = st.lists(st.integers(-4, 4), min_size=d_in * d_out, max_size=d_in * d_out)
        m = np.array(draw(entries), dtype=float).reshape(d_out, d_in)
        norm = np.abs(m).sum(axis=1).max()
        m = m * (draw(st.sampled_from(SCALES)) / norm if norm > 0 else 0.0)
        offset = draw(st.lists(st.floats(-5, 5), min_size=d_out, max_size=d_out))
        return AffineMap(m, offset, codomain)
    if form == "constant":
        value = draw(st.lists(st.floats(-9, 9), min_size=d_out, max_size=d_out))
        return ConstantMap(value, codomain)
    via = draw(carriers_for_maps())
    inner = draw(box_maps(domain, via, composed=False))
    return ComposedMap(draw(box_maps(via, codomain, composed=False)), inner)


@st.composite
def carriers_for_maps(draw):
    """A box of dimension 1-3, [-10, 10] in every coordinate or unbounded."""
    dim = draw(st.integers(1, 3))
    half = draw(st.sampled_from([10.0, np.inf]))
    metric = draw(st.sampled_from(["euclidean", "max"]))
    return BoxSpace([-half] * dim, [half] * dim, crisp_metric=metric)


@st.composite
def finite_maps(draw, domain, codomain, composed=True):
    form = draw(st.sampled_from(["table", "table", "constant"] + ["composed"] * composed))
    if form == "table":
        index = st.integers(0, codomain.size - 1)
        targets = draw(st.lists(index, min_size=domain.size, max_size=domain.size))
        return TableMap(targets, codomain)
    if form == "constant":
        return ConstantMap(draw(st.integers(0, codomain.size - 1)), codomain)
    via = draw(finite_spaces(max_size=4))
    inner = draw(finite_maps(domain, via, composed=False))
    return ComposedMap(draw(finite_maps(via, codomain, composed=False)), inner)


@st.composite
def table_metric(draw, space, symmetric=True):
    """A nearness table with a unit diagonal, increasing in t, on its own
    grid; symmetric unless asked otherwise."""
    grid = TGrid.logspace(0.1, 10.0, 3)
    n = space.size
    cells = st.lists(st.floats(0.01, 1.0), min_size=n * n * 3, max_size=n * n * 3)
    values = np.array(draw(cells)).reshape(n, n, 3)
    if symmetric:
        values = np.minimum(values, values.transpose(1, 0, 2))
    values = np.sort(values, axis=-1)
    values[np.arange(n), np.arange(n)] = 1.0
    return TableFuzzyMetric(space, grid, values)


@st.composite
def solver_cases(draw, symmetric_tables=True):
    """(problem, mu, nu, starts, cfg): a pair or quadruple on boxes or finite carriers."""
    names = draw(st.sampled_from(["TS", "ABST"]))
    finite = draw(st.integers(0, 3)) == 0
    spaces = finite_spaces(max_size=5) if finite else carriers_for_maps()
    x_space = draw(spaces)
    y_space = x_space if draw(st.booleans()) else draw(spaces)
    maps = {}
    for name in names:
        into_y = name == "T" if names == "TS" else name in "AB"
        domain, codomain = (x_space, y_space) if into_y else (y_space, x_space)
        maps[name] = draw((finite_maps if finite else box_maps)(domain, codomain))
    problem = MapPair(**maps) if names == "TS" else MapQuadruple(**maps)
    forms = [induced_standard, induced_exponential] + [table_metric] * finite
    make = draw(st.sampled_from(forms))

    def metric(space):
        return draw(table_metric(space, symmetric_tables)) if make is table_metric else make(space)

    mu = metric(x_space)
    nu = mu if y_space is x_space else metric(y_space)
    count = draw(st.integers(1, 5))
    if finite:
        starts = draw(st.lists(st.integers(0, x_space.size - 1), min_size=count, max_size=count))
    else:
        reach = draw(st.sampled_from([1.0, 10.0] if x_space.is_bounded else [1.0, 1e4]))
        coord = st.floats(-reach, reach)
        starts = [
            np.array(draw(st.lists(coord, min_size=x_space.dimension, max_size=x_space.dimension)))
            for _ in range(count)
        ]
    cfg = SolveConfig(
        eps=draw(st.sampled_from([1e-9, 1e-3])),
        max_iter=draw(st.one_of(st.integers(1, 10), st.integers(50, 120))),
        stall_window=draw(st.sampled_from([7, 50])),
    )
    return problem, mu, nu, starts, cfg


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=solver_cases())
def test_lock_step_solve_matches_one_start_at_a_time(case):
    assert_same_results(*case)


@st.composite
def divergent_cases(draw):
    """Signed multiples of the identity on unbounded boxes, from starts of
    very different sizes: short growing steps stall, long ones collapse at
    the floor, and orbits that overflow escape."""
    dim = draw(st.integers(1, 3))
    metric = draw(st.sampled_from(["euclidean", "max"]))
    box = BoxSpace([-np.inf] * dim, [np.inf] * dim, crisp_metric=metric)
    names = draw(st.sampled_from(["TS", "ABST"]))
    maps = {}
    for name in names:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        factor = sign * draw(st.sampled_from([0.9, 1.0, 1.1, 2.0, 1e10]))
        maps[name] = AffineMap(factor * np.eye(dim), np.zeros(dim), box)
    problem = MapPair(**maps) if names == "TS" else MapQuadruple(**maps)
    mu = draw(st.sampled_from([induced_standard, induced_exponential]))(box)
    sizes = st.sampled_from([0.0, 1e-6, 1.0, 100.0, 1e8, 1e300])
    starts = [np.full(dim, draw(sizes)) for _ in range(draw(st.integers(1, 5)))]
    cfg = SolveConfig(
        max_iter=draw(st.integers(1, 120)), stall_window=draw(st.sampled_from([7, 50]))
    )
    return problem, mu, mu, starts, cfg


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=divergent_cases())
def test_lock_step_divergence_matches_one_start_at_a_time(case):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_results(*case)


def _line_problem(scheme, position):
    """Identity maps on [-10, 10], except 3x at one position; a composed
    position triples in its inner map or in its outer one."""
    box = BoxSpace([-10.0], [10.0])
    one, triple = AffineMap([[1.0]], [0.0], box), AffineMap([[3.0]], [0.0], box)
    names = "TS" if scheme == "pair" else "ABST"
    maps = dict.fromkeys(names, one)
    name, _, part = position.partition(".")
    composed = {"inner": ComposedMap(one, triple), "outer": ComposedMap(triple, one)}
    maps[name] = composed[part] if part else triple
    problem = MapPair(**maps) if scheme == "pair" else MapQuadruple(**maps)
    return problem, induced_standard(box)


ESCAPES = [("pair", p) for p in ("T", "S", "T.inner", "S.outer")] + [
    ("quadruple", p) for p in ("A", "B", "S", "T", "A.inner", "T.outer")
]


@pytest.mark.parametrize("scheme,position", ESCAPES, ids=[f"{s}-{p}" for s, p in ESCAPES])
def test_escape_at_each_map_position_while_other_starts_run(scheme, position):
    problem, mu = _line_problem(scheme, position)
    starts = [np.array([v]) for v in (0.0, 9.0, 1e-3, 3.0, -6.0)]
    cfg = SolveConfig(max_iter=40, stall_window=7)
    results = assert_same_results(problem, mu, mu, starts, cfg)
    # 0 is the fixed point; the others escape, each in its own cycle, or
    # (the pair from 1e-3) stall first
    reasons = [r.stop_reason for r in results]
    assert reasons[0] == "eps-reached" and reasons.count("codomain-escape") >= 3
    assert len({r.iterations for r in results[1:]}) > 1


@pytest.mark.parametrize("window", [7, 50])
def test_stall_and_collapse_in_one_batch(window):
    box = BoxSpace([-np.inf], [np.inf])
    grow = AffineMap([[1.1]], [0.0], box)
    mu = induced_exponential(box)
    starts = [np.array([v]) for v in (0.0, 1e-6, 100.0, 1e8)]
    results = assert_same_results(
        MapPair(T=grow, S=grow), mu, mu, starts, SolveConfig(stall_window=window)
    )
    assert [r.stop_reason for r in results] == ["eps-reached", "stall", "collapse", "collapse"]


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_starts_that_stop_early_do_not_keep_memory_for_a_long_one():
    """One start rotating to max_iter beside four that stop at once: the
    batch's traced peak stays near that of the long start alone (it was
    about 3.4 times as high while every stopped start kept its column)."""
    box = BoxSpace([-np.inf] * 3, [np.inf] * 3)
    c, s = np.cos(0.1), np.sin(0.1)
    turn = AffineMap([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [0.0] * 3, box)
    pair = MapPair(T=turn, S=AffineMap(np.eye(3), [0.0] * 3, box))
    mu = induced_standard(box)
    cfg = SolveConfig(max_iter=4000)
    starts = [np.array([1.0, 0.0, 0.0])] + [np.zeros(3)] * 4
    results = assert_same_results(pair, mu, mu, starts, cfg)
    assert [r.iterations for r in results] == [4000, 2, 2, 2, 2]
    alone = _traced_peak(lambda: solve_batch(pair, mu, mu, starts[:1], cfg))
    batch = _traced_peak(lambda: solve_batch(pair, mu, mu, starts, cfg))
    assert batch <= 1.25 * alone


# -- chunks of cycles judged at once -----------------------------------------


def assert_chunk_invariant(problem, mu, nu, starts, cfg):
    """Chunks of one cycle give every result of the default chunks."""
    results = solve_batch(problem, mu, nu, starts, cfg)
    with mock.patch.object(solver, "_CHUNK_CYCLES", 1):
        _same_results(solve_batch(problem, mu, nu, starts, cfg), results)
    return results


def _reasons(results):
    return [(r.stop_reason, r.iterations) for r in results]


LINE = BoxSpace([-np.inf], [np.inf])
GROW = AffineMap([[1.1]], [0.0], LINE)
SAME = AffineMap([[1.0]], [0.0], LINE)


def _escapes_and_a_stall():
    """On [-10, 10], T = 1.05 x: the starts escape in cycles 47 and 32 and
    stall in cycle 51, inside the chunk of cycles 31-62, while 0 converges."""
    box = BoxSpace([-10.0], [10.0])
    pair = MapPair(T=AffineMap([[1.05]], [0.0], box), S=AffineMap([[1.0]], [0.0], box))
    mu = induced_standard(box)
    starts = [np.array([v]) for v in (0.0, 1.0, 0.5, -2.0)]
    return (pair, mu, mu, starts, SolveConfig(max_iter=200)), [
        ("eps-reached", 2), ("codomain-escape", 47), ("stall", 51), ("codomain-escape", 32)
    ]


def _stall_and_collapse():
    mu = induced_exponential(LINE)
    starts = [np.array([v]) for v in (0.0, 1e-6, 100.0, 1e8)]
    return (MapPair(T=GROW, S=GROW), mu, mu, starts, SolveConfig()), [
        ("eps-reached", 2), ("stall", 51), ("collapse", 50), ("collapse", 50)
    ]


def _eps_and_stall_in_one_cycle(eps):
    """A quadruple whose x steps grow by 1.1 from 1e-13: with stall_window 2
    the stall is flagged in cycle 1, the first that counts, where every row
    of the start from 1e-12 is also 1e-9-near, so eps-reached wins."""
    mu = induced_standard(LINE)
    quad = MapQuadruple(A=GROW, B=GROW, S=SAME, T=SAME)
    starts = [np.array([1e-12]), np.array([1.0])]
    return quad, mu, mu, starts, SolveConfig(eps=eps, stall_window=2)


def _stall_then_collapse_in_one_cycle():
    """A quadruple whose x steps from 1 are 2, 6, 18 and 54 long: with
    stall_window 2 under the exponential form, step 2 flags a stall and
    step 3, the next in cycle 1, a collapse; the first flag wins."""
    mu = induced_exponential(LINE)
    triple = AffineMap([[3.0]], [0.0], LINE)
    quad = MapQuadruple(A=triple, B=triple, S=SAME, T=SAME)
    return (quad, mu, mu, [np.array([1.0]), np.array([0.0])], SolveConfig(stall_window=2)), [
        ("stall", 4), ("eps-reached", 4)
    ]


PINNED = [_escapes_and_a_stall(), _stall_and_collapse(), _stall_then_collapse_in_one_cycle()] + [
    (_eps_and_stall_in_one_cycle(eps), [(reason, 4), ("stall", 4)])
    for eps, reason in ((1e-9, "eps-reached"), (1e-12, "stall"))
]


@pytest.mark.parametrize("case,reasons", PINNED)
def test_stops_inside_a_chunk_match_chunks_of_one_cycle(case, reasons):
    assert _reasons(assert_same_results(*case)) == reasons
    assert_chunk_invariant(*case)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 63, 64, 100, 200])
def test_max_iter_counts_cycles_in_any_chunk(max_iter):
    """A rotation never stops early; max_iter cuts it wherever it falls in a
    chunk (100 is 63 cycles of growing chunks and 37 of a cut one)."""
    box = BoxSpace([-np.inf] * 2, [np.inf] * 2)
    c, s = np.cos(0.1), np.sin(0.1)
    turn = AffineMap([[c, -s], [s, c]], [0.0] * 2, box)
    quad = MapQuadruple(A=turn, B=turn, S=AffineMap(np.eye(2), [0.0] * 2, box), T=turn)
    mu = induced_standard(box)
    starts = [np.array([1.0, 0.0]), np.zeros(2)]
    results = assert_chunk_invariant(quad, mu, mu, starts, SolveConfig(max_iter=max_iter))
    assert results[0].stop_reason == "max-iter" and results[0].iterations == 2 * max_iter


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.one_of(solver_cases(), divergent_cases()))
def test_chunks_of_one_cycle_match_the_default_chunks(case):
    with np.errstate(over="ignore", invalid="ignore"):
        assert_chunk_invariant(*case)


class _Watched(Mapping):
    """m, failing if handed a point outside the domain it was given."""

    def __init__(self, m, domain):
        super().__init__(m.codomain)
        self.m, self.domain = m, domain

    def _raw_rows(self, xs):
        assert self.domain.escaped_rows(xs) is None, f"{xs.tolist()} left the domain"
        return self.m._raw_rows(xs)


class _LeakyTable(Mapping):
    """index -> targets[index], where a target may lie outside the codomain."""

    def __init__(self, targets, codomain):
        super().__init__(codomain)
        self.targets = tuple(targets)

    def _raw_rows(self, xs):
        return np.array(self.targets)[xs]


def test_escaped_starts_are_frozen_for_the_rest_of_a_chunk_on_a_composed_pair():
    """T = (2x, then x) through [-10, 10] escapes its inner codomain from 1
    in cycle 3, the first of the chunk of cycles 3-6, and from 1e-3 in
    cycle 13, inside the chunk of cycles 7-14; neither the outer map nor S
    is handed the escaped points afterwards."""
    box = BoxSpace([-10.0], [10.0])
    double, one = AffineMap([[2.0]], [0.0], box), AffineMap([[1.0]], [0.0], box)
    mu = induced_standard(box)
    rest = (mu, mu, [np.array([v]) for v in (0.0, 1.0, 1e-3)], SolveConfig())
    plain = MapPair(T=ComposedMap(one, double), S=one)
    results = assert_same_results(plain, *rest)
    assert _reasons(results) == [("eps-reached", 2), ("codomain-escape", 3), ("codomain-escape", 13)]
    watched = MapPair(T=ComposedMap(_Watched(one, box), _Watched(double, box)), S=_Watched(one, box))
    _same_results(assert_chunk_invariant(watched, *rest), results)


def test_escaped_starts_are_frozen_for_the_rest_of_a_chunk_on_a_table_pair():
    """T walks i -> i + 1 along 10 points and sends 9 out of the carrier;
    S, a table map, rejects any index outside it, and never sees one."""
    space = FiniteSpace(1.0 - np.eye(10))
    pair = MapPair(T=_LeakyTable([0, 2, 3, 4, 5, 6, 7, 8, 9, 10], space), S=TableMap(range(10), space))
    mu = induced_standard(space)
    case = (pair, mu, mu, [0, 1, 5], SolveConfig())
    assert _reasons(assert_same_results(*case)) == [
        ("eps-reached", 2), ("codomain-escape", 8), ("codomain-escape", 4)
    ]
    assert_chunk_invariant(*case)


# -- k_hat estimators in blocks of the leading sample index ----------------------

ONE_BLOCK = 1 << 62  # the whole sample in one block
ONE_INDEX = 1  # one leading index per block


def estimate(budget, estimator, *args):
    """What one estimator call gives under a block budget, as a comparable
    value: every field of each report, dump included, or the error raised,
    and every warning it showed.  repr keeps NaN, inf and -0.0 apart."""
    with mock.patch.object(hypotheses, "_BLOCK_BYTES", budget):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = estimator(*args, keep_ratios=True)
            except (EmptySampleError, CodomainError) as exc:
                return repr(exc), sorted((str(w.message), w.filename, w.lineno) for w in caught)
    reports = out if isinstance(out, tuple) else (out,)
    fields = [
        (
            r.label,
            r.k_hat,
            r.witness and [np.asarray(p).tolist() for p in r.witness],
            r.evaluated_count,
            r.skipped_count,
            r.grid.values.tolist(),
            r.sample_shape,
            r.exclude_diagonal,
            r.ratios,
        )
        for r in reports
    ]
    return repr(fields), sorted((str(w.message), w.filename, w.lineno) for w in caught)


@st.composite
def estimator_calls(draw):
    """An estimator, the problem and nearness of a solver case, and a sample:
    on an unbounded box its far-apart points make distances overflow, so
    nearness is 0 and ratios of 0/0 and x/0 occur."""
    problem, mu, nu, _, _ = draw(solver_cases())

    def points(space, count):
        if isinstance(space, FiniteSpace):
            return draw(st.lists(st.integers(0, space.size - 1), min_size=count, max_size=count))
        coord = st.floats(-10.0, 10.0)
        if not space.is_bounded:
            scale = draw(st.sampled_from([1.0, 1e154, 1e200]))
            coord = st.one_of(coord, st.sampled_from([-1.5, -1.0, 0.0, 1.0, 1.5])).map(lambda c: c * scale)
        dim = space.dimension
        return [np.array(draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(count)]

    samples = SampleSet(
        points_x=tuple(points(mu.carrier, draw(st.integers(1, 5)))),
        grid=TGrid(sorted(draw(st.sets(st.sampled_from([0.01, 0.5, 1.0, 4.0, 1e18]), min_size=1, max_size=3)))),
        points_y=tuple(points(nu.carrier, draw(st.integers(0, 4)))),
        exclude_diagonal=draw(st.booleans()),
    )
    if isinstance(problem, MapPair):
        return draw(st.sampled_from([estimate_k_pair, estimate_k_pair_dual])), problem, mu, nu, samples
    if nu is mu and draw(st.booleans()):
        return estimate_k_self_quad, problem, mu, samples
    return estimate_k_quad, problem, mu, nu, samples


# T = 0.8e308 x and S = 1.25 y on the line: nearness is 0 where two images
# lie further apart than the float range, as STx, STx' do for x = -1 and
# x' = 1 or 1.5, and Tx, Tx' for x = -1 and x' = 1.5 only.  Where rhs > 0
# the ratio is x/0 = inf; where rhs is 0 too it is 0/0 = NaN.  The dual
# swaps T and S, so it sees the same ratios over points_y.
FAR_LINE = BoxSpace([-np.inf], [np.inf])
FAR_MU = induced_standard(FAR_LINE)
FAR_T = AffineMap([[0.8e308]], [0.0], FAR_LINE)
FAR_S = AffineMap([[1.25]], [0.0], FAR_LINE)
FAR = tuple(np.array([v]) for v in (1.0, -1.0, 1.5))
FAR_SAMPLES = SampleSet(points_x=FAR, grid=TGrid([0.5, 2.0]), points_y=FAR)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(call=estimator_calls())
@example(call=(estimate_k_pair, MapPair(T=FAR_T, S=FAR_S), FAR_MU, FAR_MU, FAR_SAMPLES))
@example(call=(estimate_k_pair_dual, MapPair(T=FAR_S, S=FAR_T), FAR_MU, FAR_MU, FAR_SAMPLES))
def test_one_index_blocks_match_one_block(call):
    """Blocks of one leading index give every report field, the dump and the
    warnings of a single block: the running argmax keeps the first maximum
    in C order, or the first NaN, across blocks, and a warning that several
    blocks raise is shown once."""
    assert estimate(ONE_INDEX, *call) == estimate(ONE_BLOCK, *call)


def test_far_points_give_nan_and_inf_ratios():
    """The explicit examples above hold inf and NaN cells, without a
    RuntimeWarning, and the witness is the first NaN cell, which lies in the
    second block."""
    with mock.patch.object(hypotheses, "_BLOCK_BYTES", ONE_INDEX), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = estimate_k_pair(MapPair(T=FAR_T, S=FAR_S), FAR_MU, FAR_MU, FAR_SAMPLES, keep_ratios=True)
    ratios = [r for *_, r in report.ratios]
    assert np.isinf(ratios).any() and np.isnan(ratios).any()
    assert np.isnan(report.k_hat)
    assert [float(p[0]) for p in report.witness[:2]] == [-1.0, 1.5]


@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_ratio_dump_matches_scalar_oracle_in_one_index_blocks(scheme):
    import test_hypotheses

    with mock.patch.object(hypotheses, "_BLOCK_BYTES", ONE_INDEX):
        test_hypotheses.test_ratio_dump_matches_scalar_oracle(scheme)


# -- step recurrences along solver traces ---------------------------------------

# Nearness of i to j differs from that of j to i on this table, so a
# recurrence term read with its points swapped gives another value.
ASYM = TableFuzzyMetric(
    FiniteSpace(1.0 - np.eye(3)),
    TGrid.logspace(0.1, 10.0, 3),
    [
        [[1.0, 1.0, 1.0], [0.2, 0.3, 0.4], [0.5, 0.6, 0.7]],
        [[0.6, 0.7, 0.8], [1.0, 1.0, 1.0], [0.1, 0.2, 0.3]],
        [[0.3, 0.4, 0.9], [0.25, 0.5, 0.75], [1.0, 1.0, 1.0]],
    ],
)
ASYM_CFG = SolveConfig(max_iter=20)
ASYM_PAIR = (MapPair(T=TableMap([1, 2, 0], ASYM.carrier), S=TableMap([1, 2, 0], ASYM.carrier)), ASYM, ASYM, [0], ASYM_CFG)
ASYM_QUAD = (
    MapQuadruple(*(TableMap(t, ASYM.carrier) for t in ([1, 2, 0], [2, 0, 1], [0, 1, 2], [1, 2, 0]))),
    ASYM, ASYM, [0], ASYM_CFG,
)

# S escapes after T has mapped: the trace ends with as many y's as x's.
NARROW, WIDE = BoxSpace([-10.0], [10.0]), BoxSpace([-100.0], [100.0])
ESCAPING_PAIR = (
    MapPair(T=AffineMap([[2.0]], [0.0], WIDE), S=AffineMap([[1.5]], [0.0], NARROW)),
    induced_standard(NARROW), induced_standard(WIDE), [np.array([0.1])], ASYM_CFG,
)


def recurrence(check, *args):
    """Every field of a recurrence report, worst_margin bit for bit and
    by_equation in order, or the error raised."""
    try:
        r = check(*args)
    except (UsageError, DomainError) as exc:
        return repr(exc)
    return r.k, r.total_checks, r.violation_count, r.worst_margin.hex(), r.worst_witness, list(r.by_equation.items())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=solver_cases(symmetric_tables=False), k=st.sampled_from([0.05, 0.5, 0.9, 1.0 - 1e-12]))
@example(case=ASYM_PAIR, k=0.5)
@example(case=ASYM_QUAD, k=0.5)
@example(case=ESCAPING_PAIR, k=0.5)
def test_recurrence_checks_match_the_scalar_loops(case, k):
    """The array checkers give the scalar loops' report on solver traces,
    also where a table's nearness is not symmetric."""
    problem, mu, nu, starts, cfg = case
    res = solve(problem, mu, nu, starts[0], cfg)
    if isinstance(problem, MapPair):
        args = (res.trace_x, res.trace_y, mu, nu, k, cfg.grid)
        assert recurrence(check_recurrence_pair, *args) == recurrence(oracles.check_recurrence_pair, *args)
    else:
        args = (res.trace_x, res.trace_y, problem, mu, nu, k, cfg.grid)
        assert recurrence(check_recurrence_quad, *args) == recurrence(oracles.check_recurrence_quad, *args)


def test_asymmetric_recurrence_examples_reach_every_equation():
    """The pinned examples above check each equation and find violations."""
    for problem, mu, nu, starts, cfg in (ASYM_PAIR, ASYM_QUAD):
        res = solve(problem, mu, nu, starts[0], cfg)
        check = check_recurrence_pair if isinstance(problem, MapPair) else check_recurrence_quad
        args = (problem,) if isinstance(problem, MapQuadruple) else ()
        report = check(res.trace_x, res.trace_y, *args, mu, nu, 0.5, cfg.grid)
        names = ["x_step", "y_step"] if isinstance(problem, MapPair) else ["x_even", "x_odd", "y_even", "y_odd"]
        assert sorted(report.by_equation) == sorted(names)
