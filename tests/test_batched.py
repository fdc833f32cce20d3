"""The array code of the sampling, distance and solver layers agrees bit for
bit with the scalar loops it replaces (tests/oracles.py)."""

import importlib
import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path
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
    FuzzyMetric,
    InstanceSpec,
    MapPair,
    MapQuadruple,
    SolveConfig,
    SplitMix64,
    StandardFuzzyMetric,
    TableFuzzyMetric,
    TableMap,
    TGrid,
    check_fm_axioms,
    check_tnorm_axioms,
    gen_instance,
    induced_exponential,
    induced_standard,
)
from fuzzyfp import hypotheses, solver
from fuzzyfp.axioms import MAX_WITNESSES, check_fm_axioms_batch
from fuzzyfp.config import build_grid, build_problem, build_samples, build_spaces
from fuzzyfp.errors import CodomainError, EmptySampleError
from fuzzyfp.mappings import Mapping, StackedMap
from fuzzyfp.metrics import GridTile
from fuzzyfp.hypotheses import (
    SampleSet,
    estimate_k_pair,
    estimate_k_pair_dual,
    estimate_k_quad,
    estimate_k_self_quad,
)
from fuzzyfp.solver import compare_fixed_points, solve
from test_hypotheses import Dumped, pts

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
    """Finite distances, and the largest distance among the fixed points of
    one problem's starts, alone and stacked as two problems of three."""
    pts = space.sample(SplitMix64(seed), 6)
    got = space.distances(np.asarray(pts)[:, None], np.asarray(pts)[None])
    assert np.array_equal(got, oracles.distance_matrix(space, pts, pts))

    def diameter(group):
        return max(oracles.distance(space, p, q) for i, p in enumerate(group) for q in group[i + 1 :])

    fm = induced_standard(space)
    z = np.asarray(pts)
    batch = solver.BatchResults(np.zeros(6, np.intp), np.ones(6, np.intp), z, z[::-1], np.ones(6, bool), {}, {})
    (alone,) = compare_fixed_points(fm, fm, batch, 6)
    assert alone.max_z_distance == alone.max_w_distance == diameter(pts)
    stacked = compare_fixed_points(fm, fm, batch, 3)
    assert [r.max_z_distance for r in stacked] == [diameter(pts[:3]), diameter(pts[3:])]
    assert [r.max_w_distance for r in stacked] == [diameter(pts[::-1][:3]), diameter(pts[::-1][3:])]


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
    assert np.array_equal(fm.mu_batch(a[:, None], b[None], ts), oracles.pairwise(fm, a, b, ts))


@st.composite
def spans(draw, size):
    """A non-empty slice of range(size)."""
    start = draw(st.integers(0, size - 1))
    return slice(start, draw(st.integers(start + 1, size)))


@SETTINGS
@given(
    dim=st.integers(1, 5),
    metric=st.sampled_from(["euclidean", "max"]),
    make=st.sampled_from([induced_standard, induced_exponential]),
    data=st.data(),
)
def test_block_distances_and_nearness_match_the_carrier_bit_for_bit(dim, metric, make, data):
    """The estimators' block distances, taken coordinate-major where the box
    allows it, and their nearness over a leading slice of a grid tile give
    carrier.distances and mu_batch bit for bit: at repeated points (d = 0),
    at points near 1e200 whose squares overflow and are rescaled, at
    generic points in up to 5 dimensions, on a stack of point sets and on
    one."""
    box = BoxSpace([-np.inf] * dim, [np.inf] * dim, crisp_metric=metric)
    fm = make(box)
    lead, n = ((data.draw(st.integers(1, 3)),) if data.draw(st.booleans()) else ()), data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def points():
        if data.draw(st.booleans()):  # generic coordinates, whose sums of squares round
            pts = rng.uniform(-10.0, 10.0, lead + (n, dim)) * data.draw(st.sampled_from([1.0, 1e200]))
        else:
            sets = [data.draw(sample_points(box, n)) for _ in range(math.prod(lead))]
            pts = np.array(sets).reshape(lead + (n, dim))
        return hypotheses._Points(box, pts)

    p, q = points(), points()
    s = (data.draw(spans(lead[0])),) if lead else ()
    ia, ib = s + (data.draw(spans(n)), None), s + (None, data.draw(spans(n)))
    a, b = p.rows[ia], q.rows[ib]
    grid = data.draw(GRIDS)
    expect_d, expect_mu = box.distances(a, b), fm.mu_batch(a, b, grid.values)
    out = np.empty(expect_mu.shape)
    d, mu = hypotheses._block_nearness(fm, p, ia, q, ib, GridTile(grid, math.prod(lead) * n * n), out)
    assert d.tobytes() == np.ascontiguousarray(expect_d).tobytes()
    assert mu is out and mu.tobytes() == np.ascontiguousarray(expect_mu).tobytes()


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

    def _from_d(self, d, ts, out=None):
        return np.minimum(1.0, ts / (ts + d) * (1.0 + 0.5 * np.sin(ts)))


class Vanishing(StandardFuzzyMetric):
    """Zero beyond distance 40: the positivity check fires on (x, y) or (y, z)."""

    form = "vanishing"

    def _from_d(self, d, ts, out=None):
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


@SETTINGS
@given(
    make=st.sampled_from([induced_standard, induced_exponential, Wobbly]),
    seeds=st.lists(SEEDS, min_size=1, max_size=5),
    triples=st.one_of(st.integers(1, 60), st.integers(105, 120), st.integers(220, 240)),
)
def test_axiom_batch_equals_one_check_per_seed(make, seeds, triples):
    """On the default grid a block holds 113 triples: several seeds' triples
    share a block below 57 triples per seed, and one seed's triples span
    two or three blocks above 113.  Each report is the one its seed gives alone:
    checks, counts, witnesses in order and the witness cap.  Wobbly breaks
    identity and the triangle law on most triples."""
    fm = make(BoxSpace([-60.0, -1.0], [60.0, 1.0]))
    grid = TGrid.default()
    got = check_fm_axioms_batch(fm, PRODUCT, triples, grid, seeds)
    assert len(got) == len(seeds)
    for report, seed in zip(got, seeds):
        assert same_report(report, check_fm_axioms(fm, PRODUCT, triples, grid, seed))
    if make is Wobbly and triples > MAX_WITNESSES:
        assert all(len(r.violations) == MAX_WITNESSES < r.violation_count for r in got)


def test_axiom_batch_keeps_each_seeds_identity_and_triangle_witnesses():
    """Six seeds of 8 triples share one 48-triple block; seed 2 breaks the
    triangle law once, between identity breaks."""
    fm = Wobbly(BoxSpace([-60.0, -1.0], [60.0, 1.0]))
    grid = TGrid.default()
    got = check_fm_axioms_batch(fm, PRODUCT, 8, grid, range(6))
    assert all(same_report(r, check_fm_axioms(fm, PRODUCT, 8, grid, seed)) for seed, r in enumerate(got))
    assert [v.axiom for v in got[2].violations][:4] == ["identity", "identity", "triangle", "monotone_in_t"]


# Seeds outside 64 bits too: -1 is the state of 2**64 - 1, and 2**70 that of 0
_STRADDLE_SEEDS = [-1, 2**70, 3, 2**64 - 1, 11, 12, 5]


def _table_with_violations():
    """Identity fails at points 0 and 1, and symmetry between 1 and 2."""
    space = FiniteSpace(1.0 - np.eye(3))
    grid = TGrid([0.5, 1.0, 2.0])
    values = np.full((3, 3, 3), 0.3)
    values[0, 0] = values[1, 1] = 0.8
    values[1, 2] = 0.6
    values[2, 2] = 1.0
    return TableFuzzyMetric(space, grid, values)


@pytest.mark.parametrize(
    "fm, op",
    [
        (Wobbly(BoxSpace([-60.0, -1.0], [60.0, 1.0])), PRODUCT),
        (induced_standard(BoxSpace([-3.0], [3.0])), prob_sum),
        (_table_with_violations(), PRODUCT),
    ],
    ids=["wobbly-box", "prob-sum-box", "table"],
)
@pytest.mark.parametrize("triples", [5, 40])
def test_axiom_blocks_that_span_seeds(monkeypatch, fm, op, triples):
    """Blocks of 7 triples over seeds of 5 hold the tail of one seed, the
    whole of a second and the head of a third; over seeds of 40 some hold
    the tail of one and the head of the next.  Each report is the one its seed gives alone, from the default
    blocks and from the scalar oracle, with witnesses past the cap only
    counted."""
    import fuzzyfp.axioms as axioms

    grid = getattr(fm, "grid", None) or TGrid.default()
    alone = [check_fm_axioms(fm, op, triples, grid, seed) for seed in _STRADDLE_SEEDS]
    monkeypatch.setattr(axioms, "_BLOCK_CELLS", 7 * len(grid) ** 2)
    got = check_fm_axioms_batch(fm, op, triples, grid, _STRADDLE_SEEDS)
    assert [r.seed for r in got] == _STRADDLE_SEEDS
    for report, ref, seed in zip(got, alone, _STRADDLE_SEEDS):
        assert same_report(report, ref)
        assert same_report(report, oracles.check_fm_axioms(fm, op, triples, grid, seed))
    counts = [r.violation_count for r in got]
    assert len(set(counts)) > 1  # the seeds' reports differ, so a row under the wrong seed shows
    if triples == 40:
        assert all(len(r.violations) == MAX_WITNESSES < r.violation_count for r in got)


def _table_breaking_three_laws():
    """On six points at distance 1 of each other, nearness rising with t:
    identity fails at point 0 (at the smallest scale) and between the
    distinct points 4 and 5 (nearness 1 at the largest scale), symmetry
    between 1 and 3 at two scales, and the triangle law on x, 1, z wherever
    x and z are 0 and 2, or 2 and 0."""
    grid = TGrid.default()
    values = np.tile(np.linspace(0.7, 0.9, len(grid)), (6, 6, 1))
    values[range(6), range(6)] = 1.0
    values[0, 0, 0] = 0.9
    values[4, 5, -1] = values[5, 4, -1] = 1.0
    values[1, 3, :2] = 0.6
    values[0, 2] = values[2, 0] = np.linspace(0.1, 0.3, len(grid))
    return TableFuzzyMetric(FiniteSpace(1.0 - np.eye(6)), grid, values)


@pytest.mark.parametrize("block", [1, 7, "call", "default"])
@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
def test_axiom_buffers_match_the_unbuffered_pass_bit_for_bit(monkeypatch, op, block):
    """Blocks of 1 and 7 triples, one block for the whole call and the
    default blocks (113 triples here) reuse the call's buffers, and each
    report keeps its seed's counts, witnesses, magnitudes and their order,
    to the bit, as the triple-by-triple oracle gives them on fresh arrays:
    violations fall in consecutive blocks, and blocks span seeds of 40."""
    import fuzzyfp.axioms as axioms

    fm, triples = _table_breaking_three_laws(), 40
    cells = len(fm.grid) ** 2
    if block != "default":
        monkeypatch.setattr(axioms, "_BLOCK_CELLS", cells * (triples * len(_STRADDLE_SEEDS) if block == "call" else block))
    got = check_fm_axioms_batch(fm, op, triples, fm.grid, _STRADDLE_SEEDS)
    for report, seed in zip(got, _STRADDLE_SEEDS):
        ref = oracles.check_fm_axioms(fm, op, triples, fm.grid, seed)
        assert repr((report.checks, report.violation_count, report.violations)) == repr(
            (ref.checks, ref.violation_count, ref.violations)
        )
    assert {v.axiom for r in got for v in r.violations} == {"identity", "symmetry", "triangle"}
    assert len({r.violation_count for r in got}) > 1


def test_axiom_batch_memory_does_not_grow_with_its_seeds():
    """The buffers of a call are sized to its first block, not to its
    triples: 400 seeds of 64 triples (227 default blocks) peak within a
    small factor of one seed's 64 triples (a block of its own)."""
    fm = induced_standard(BoxSpace([-10.0, -10.0], [10.0, 10.0]))
    grid = TGrid.default()
    one = _traced_peak(lambda: check_fm_axioms_batch(fm, PRODUCT, 64, grid, [1]))
    many = _traced_peak(lambda: check_fm_axioms_batch(fm, PRODUCT, 64, grid, range(400)))
    assert many < 3 * one


# -- check_tnorm_axioms ---------------------------------------------------------


def breaks_unit_law(a, b):
    """Commutative and monotone, but a * 1 exceeds a by 0.1 below 0.9."""
    return min(a * b + 0.1, 1.0)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
@pytest.mark.parametrize("op", [*OPS, breaks_unit_law], ids=[*OP_IDS, "breaks_unit_law"])
def test_tnorm_report_matches_sample_by_sample(op, seed):
    got = check_tnorm_axioms(op, 300, seed)
    assert same_report(got, oracles.check_tnorm_axioms(op, 300, seed))
    assert got.checks == 4 * 300


def test_tnorm_blocks_split_the_sample_like_one_pass(monkeypatch):
    """Blocks of samples continue one RNG stream and one witness order."""
    import fuzzyfp.axioms as axioms

    whole = check_tnorm_axioms(breaks_unit_law, 50, 8)
    monkeypatch.setattr(axioms, "_TNORM_BLOCK", 7)
    assert same_report(check_tnorm_axioms(breaks_unit_law, 50, 8), whole)
    assert same_report(whole, oracles.check_tnorm_axioms(breaks_unit_law, 50, 8))
    assert whole.violation_count > MAX_WITNESSES


def right_projection(a, b):
    """a * b = b: neither commutative nor unital, so most samples break two laws."""
    return b


@pytest.mark.parametrize("block", [7, 1 << 16])
@pytest.mark.parametrize("op", [right_projection, breaks_unit_law, prob_sum])
def test_tnorm_witnesses_fill_partway_through_a_block_and_a_sample(monkeypatch, op, block):
    """Once MAX_WITNESSES are kept the rest are only counted.  The list fills
    inside a block, and for the right projection, which breaks two laws on
    every sample, between the two checks of sample 12 (from 0), in the block
    of samples 7-13 when blocks hold 7."""
    import fuzzyfp.axioms as axioms

    monkeypatch.setattr(axioms, "_TNORM_BLOCK", block)
    got = check_tnorm_axioms(op, 60, 4)
    assert same_report(got, oracles.check_tnorm_axioms(op, 60, 4))
    assert len(got.violations) == MAX_WITNESSES < got.violation_count
    if op is right_projection:
        assert got.violation_count == 2 * 60
        assert [v.axiom for v in got.violations[-3:]] == ["commutativity", "unit", "commutativity"]


def test_tnorm_check_memory_is_bounded_by_its_block():
    """2**18 samples are checked in blocks of 2**10: the traced peak stays
    near one block's arrays, not the whole sample's."""
    peak = _traced_peak(lambda: check_tnorm_axioms(LUKASIEWICZ, 1 << 18, 5))
    assert peak < 16 * 2**20


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


STACK_SPECS = [
    dict(scheme="pair", family="mixed"),
    dict(scheme="quadruple", family="mixed", factor_lo=0.97, factor_hi=0.995),
    dict(scheme="pair", expansive=True, factor_lo=1.5, factor_hi=1e8),
]


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("kind", STACK_SPECS, ids=["pair-mixed", "quadruple-mixed", "pair-expansive"])
def test_stacked_maps_match_each_problem_bit_for_bit(dim, kind):
    """A stacked matmul with one matrix per row rounds each row as the
    row's own AffineMap._raw_rows does on its problem's rows, and a zero
    matrix row gives exactly the value of its ConstantMap, on the maps and
    the points that gen_instance draws.  The suite's golden digests depend
    on it."""
    insts = [gen_instance(InstanceSpec(dim=dim, seed=40 * dim + s, **kind)) for s in range(30)]
    rng = SplitMix64(dim)
    owner = np.repeat(np.arange(len(insts)), 4)
    xs = np.array(insts[0].mu.carrier.sample(rng, len(owner), insts[0].window))
    constants = 0
    for name in sorted({c for step in solver._scheme(insts[0].problem)[0] for c in step}):
        maps = [getattr(inst.problem, name) for inst in insts]
        constants += sum(isinstance(m, ConstantMap) for m in maps)
        got = StackedMap(maps).take(owner)._raw_rows(xs)
        ref = np.concatenate([np.array(m._raw_rows(xs[owner == j])) for j, m in enumerate(maps)])
        assert got.tobytes() == ref.tobytes()
    assert constants > 0 or kind.get("expansive")


def test_zero_matrix_rows_give_the_constant_values_gen_instance_draws():
    insts = [gen_instance(InstanceSpec(dim=d, family="constant", seed=s)) for d in (1, 2, 5) for s in range(40)]
    for inst in insts:
        t_map = inst.problem.T
        xs = np.array(inst.mu.carrier.sample(SplitMix64(inst.spec.seed), 6, inst.window))
        stacked = StackedMap([t_map, t_map]).take(np.array([0, 0, 0, 1, 1, 1]))
        assert stacked._raw_rows(xs).tobytes() == np.ascontiguousarray(t_map._raw_rows(xs)).tobytes()


def _signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda p: p[0] * p[1])


# Coefficients from 1e-300 to 1e300, subnormals and signed zeros; points
# also inf and NaN, as rows mapped on past an escape hold.
COEFFICIENTS = st.one_of(
    _signed(st.floats(1e-300, 1e300)),
    _signed(st.floats(5e-324, 2.2250738585072014e-308, exclude_max=True)),
    st.sampled_from([0.0, -0.0]),
)
ORBIT_POINTS = COEFFICIENTS | st.sampled_from([np.inf, -np.inf, np.nan])


@settings(derandomize=True, max_examples=300, deadline=None)
@example(maps=[(1e300, -0.0), (-0.0, -0.0), (5e-324, 0.0)], points=[1e300, -0.0, 0.0, -5e-324, np.nan, np.inf])
@given(
    maps=st.lists(st.tuples(COEFFICIENTS, COEFFICIENTS), min_size=1, max_size=4),
    points=st.lists(ORBIT_POINTS, min_size=1, max_size=8),
)
def test_one_dimensional_affine_steps_match_the_stacked_matmul(maps, points):
    """The 1-D affine step m * x + (b + 0.0) gives the bits of
    np.matmul(M, x[..., None])[..., 0] + b, for AffineMap and for
    StackedMap.take, written into out or not: products that underflow,
    overflow to inf or are -0, -0.0 offsets, and inf and NaN points."""
    affine = [AffineMap([[m]], [b], LINE) for m, b in maps]
    xs = np.array(points).reshape(-1, 1)
    owner = np.arange(len(xs)) % len(affine)
    stacked = StackedMap(affine).take(owner)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in affine + [stacked]:
            ref = np.matmul(m.matrix, xs[..., None])[..., 0] + m.offset
            assert m._raw_rows(xs).tobytes() == ref.tobytes()
            out = np.empty_like(ref)
            assert m._raw_rows(xs, out) is out and out.tobytes() == ref.tobytes()


class PerStep(Mapping):
    """A map that _map_chunk calls through its _raw_rows at every step, as
    it maps any cycle that is not all 1-D affine."""

    def __init__(self, mapping):
        super().__init__(mapping.codomain)
        self.mapping = mapping

    def _raw_rows(self, xs, out=None):
        return self.mapping._raw_rows(xs, out)


@settings(derandomize=True, max_examples=300, deadline=None)
@example(
    per=2,
    maps=[[(1e300, -0.0)], [(-0.0, -0.0), (0.5, 0.0)], [(5e-324, -0.0)], [(-1.0, 3.0)]],
    constant=None,
    bounded=True,
    points=[9.0, -0.0, 0.0, -5e-324],
    cycles=3,
)
@given(
    per=st.integers(1, 2),
    maps=st.lists(st.lists(st.tuples(COEFFICIENTS, COEFFICIENTS), min_size=1, max_size=2), min_size=4, max_size=4),
    constant=st.sampled_from([None, 0, 1, 2, 3]),
    bounded=st.booleans(),
    points=st.lists(st.one_of(st.floats(-10, 10), COEFFICIENTS), min_size=1, max_size=6),
    cycles=st.sampled_from([1, 2, 5]),
)
def test_inline_one_dimensional_steps_match_the_raw_rows_loop(per, maps, constant, bounded, points, cycles):
    """A chunk of a cycle of 1-D affine maps (AffineMap, or StackedMap.take
    with one map per start) gives the xs, ys and escapes of the same chunk
    mapped through each map's _raw_rows, bit for bit: -0.0 offsets, rows
    that escape the box or overflow, and a cycle with a constant map, which
    is mapped through _raw_rows as well."""
    box = BoxSpace([-10.0], [10.0]) if bounded else LINE
    x = np.array(points).reshape(-1, 1)
    owner = np.arange(len(x)) % 2
    position = []
    for k, coefficients in enumerate(maps[: 2 * per]):
        affine = [AffineMap([[m]], [b], box) for m, b in coefficients]
        position.append(
            ConstantMap([1.5], box) if k == constant else affine[0] if len(affine) == 1 else StackedMap(affine).take(owner)
        )
    cycle = list(zip(position[::2], position[1::2]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = solver._map_chunk(cycle, x, cycles)
        ref = solver._map_chunk([(PerStep(a), PerStep(b)) for a, b in cycle], x, cycles)
    assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
    assert (got[2] is None and ref[2] is None) or np.array_equal(got[2], ref[2])


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


def results_of(batch):
    """The FixedPointResult of every start of a batch, in start order."""
    return [batch.result(i) for i in range(len(batch.reasons))]


def solve_batch(problem, mu, nu, starts, cfg):
    """Every start of one problem in one lock-step batch, each keeping its traces."""
    every = np.ones(len(starts), bool)
    return results_of(solver._iterate([problem], np.zeros(len(starts), np.intp), mu, nu, starts, cfg, every))


def assert_same_results(problem, mu, nu, starts, cfg):
    """Every start's batched result is the one-start reference, bit for bit;
    every start is read, so each has its conclusions checked."""
    results = solve_batch(problem, mu, nu, starts, cfg)
    refs = [oracles.solve(problem, mu, nu, start, cfg) for start in starts]
    _same_results(results, refs)
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
def table_metric(draw, space):
    """A symmetric nearness table with a unit diagonal, increasing in t, on
    its own grid."""
    grid = TGrid.logspace(0.1, 10.0, 3)
    n = space.size
    cells = st.lists(st.floats(0.01, 1.0), min_size=n * n * 3, max_size=n * n * 3)
    values = np.array(draw(cells)).reshape(n, n, 3)
    values = np.sort(np.minimum(values, values.transpose(1, 0, 2)), axis=-1)
    values[np.arange(n), np.arange(n)] = 1.0
    return TableFuzzyMetric(space, grid, values)


@st.composite
def solver_cases(draw):
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
        return draw(table_metric(space)) if make is table_metric else make(space)

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
    step history drops a stopped start's column in the chunk where it stops,
    so the batch's traced peak stays near that of the long start alone (it
    was about 3.4 times as high while every stopped start kept its column)."""
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


def test_untraced_starts_keep_memory_that_does_not_grow_with_the_iterations():
    """A problem's traced first start converges at once, and its four
    untraced starts rotate to max_iter: the batch keeps only their last
    iterates and the steps the divergence test reads back, so its traced
    peak does not grow with max_iter."""
    box = BoxSpace([-np.inf] * 3, [np.inf] * 3)
    c, s = np.cos(0.1), np.sin(0.1)
    turn = AffineMap([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], [0.0] * 3, box)
    pair = MapPair(T=turn, S=AffineMap(np.eye(3), [0.0] * 3, box))
    mu = induced_standard(box)
    starts = [np.zeros(3)] + [np.array(p) for p in ([1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [-3.0, 1.0, 0.0], [0.5, 0.5, 5.0])]
    owner = np.zeros(len(starts), np.intp)

    def run(max_iter):
        batch = solver.solve_problems([pair], mu, mu, starts, owner, SolveConfig(max_iter=max_iter))
        assert [r.iterations for r in map(batch.result, range(5))] == [2] + [max_iter] * 4

    short, long = _traced_peak(lambda: run(2000)), _traced_peak(lambda: run(8000))
    assert long <= 1.1 * short


def _flag_reads(monkeypatch):
    """Record, for each _flags call, the nearness at the smallest and the
    largest grid scale of the steps it reads, of the batch's first column."""
    reads, real = [], solver._Runs._flags

    def flags(runs, low, top, length, k):
        reads.append((low[:, 0].copy(), top[:, 0].copy()))
        return real(runs, low, top, length, k)

    monkeypatch.setattr(solver._Runs, "_flags", flags)
    return reads


@pytest.mark.parametrize("form", [induced_standard, induced_exponential])
@pytest.mark.parametrize("scheme", ["pair", "quadruple"])
def test_trace_nearness_is_mu_batch_of_its_points(monkeypatch, scheme, form):
    """The batch keeps no nearness rows and the judge computes most steps
    at the two end scales only: a trace's rows are mu_batch over its
    consecutive points, bit for bit, over runs of several chunks.  _flags
    reads the tail of the last stall_window steps and the chunk's: in
    chunks of one cycle, which end at the stop, the last read holds the end
    columns of the trace's last stall_window + 1 (pair) or + 2 rows."""
    inst = gen_instance(InstanceSpec(scheme=scheme, dim=1, factor_lo=0.97, factor_hi=0.995, seed=3))
    mu, nu = form(inst.mu.carrier), form(inst.nu.carrier)
    result = solve(inst.problem, mu, nu, inst.x0)
    assert result.converged and result.iterations > 2 * 127  # past the chunk of cycles 64-127
    for trace, fm in ((result.trace_x, mu), (result.trace_y, nu)):
        points = np.array(trace.points)
        rows = fm.mu_batch(points[:-1], points[1:], TGrid.default())
        assert trace.nearness.tobytes() == rows.tobytes()
    monkeypatch.setattr(solver, "_CHUNK_CYCLES", 1)
    reads = _flag_reads(monkeypatch)
    _same_results([solve(inst.problem, mu, nu, inst.x0)], [result])
    low, top = reads[-1]
    assert len(low) == SolveConfig().stall_window + (1 if scheme == "pair" else 2)
    rows = result.trace_x.nearness[-len(low) :]
    assert low.tobytes() == np.ascontiguousarray(rows[:, 0]).tobytes()
    assert top.tobytes() == np.ascontiguousarray(rows[:, -1]).tobytes()


# -- steps judged at the grid's two end scales ---------------------------------


def assert_judged_as_on_the_full_grid(run):
    """run() gives the results it gives with the full-grid reference judge."""
    results = list(run())
    with mock.patch.object(solver._Runs, "_nearness", oracles.full_grid_nearness):
        _same_results(results, list(run()))
    return results


def _swapping_table(scheme):
    """Two points that each step swaps, under a table nearness of 1 at the
    grid's two end scales and 0.5 at its middle scale: every step reaches
    1 - eps at both ends but not in the middle, so no start converges."""
    grid = TGrid([0.1, 1.0, 10.0])
    space = FiniteSpace(1.0 - np.eye(2))
    values = np.ones((2, 2, 3))
    values[0, 1, 1] = values[1, 0, 1] = 0.5
    mu = TableFuzzyMetric(space, grid, values)
    swap, same = TableMap([1, 0], space), TableMap([0, 1], space)
    problem = MapPair(T=swap, S=same) if scheme == "pair" else MapQuadruple(A=swap, B=swap, S=same, T=same)
    return problem, mu, mu, [0, 1], SolveConfig(grid=grid, max_iter=40)


@pytest.mark.parametrize("scheme", ["pair", "quadruple"])
def test_a_step_near_at_both_end_scales_only_is_not_near(scheme):
    case = _swapping_table(scheme)
    results = assert_judged_as_on_the_full_grid(lambda: solve_batch(*case))
    assert _reasons(results) == [("max-iter", 40 if scheme == "pair" else 80)] * 2
    assert_same_results(*case)


@pytest.mark.parametrize("grid", [TGrid([1.0]), TGrid([0.01, 100.0]), TGrid.default()], ids=["one", "two", "default"])
@pytest.mark.parametrize("form", ["exponential", "standard"])
def test_two_scale_judge_matches_the_full_grid_on_slow_quadruples(grid, form):
    """A batch of suite-quad-slow-like quadruples, 3 starts each, as the
    suite solves them."""
    specs = [
        InstanceSpec(scheme="quadruple", dim=1, factor_lo=0.97, factor_hi=0.995, metric_form=form, seed=s)
        for s in range(3)
    ]
    insts = [gen_instance(spec) for spec in specs]
    starts = [p for inst in insts for p in (inst.x0, -inst.x0, 2.0 * inst.x0)]
    owner = np.repeat(np.arange(len(insts)), 3)
    cfg = SolveConfig(grid=grid)
    mu, nu = insts[0].mu, insts[0].nu

    def run():  # every start traced
        every = np.ones(len(starts), bool)
        return results_of(solver._iterate([inst.problem for inst in insts], owner, mu, nu, starts, cfg, every))

    results = assert_judged_as_on_the_full_grid(run)
    assert all(r.converged for r in results) and min(r.iterations for r in results) > 2 * 127


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


def _columns_that_stop_out_of_order():
    """The line of _escapes_and_a_stall cut at 40 cycles: 9.9 escapes in the
    first chunk, of one cycle; the last start converges in the second chunk;
    -2 escapes in the last chunk while the columns in front of it run on;
    1 and 0.5 reach max-iter as the first and second of the columns kept."""
    (pair, mu, _, _, _), _ = _escapes_and_a_stall()
    starts = [np.array([v]) for v in (1.0, 9.9, 0.5, -2.0, 0.0)]
    return (pair, mu, mu, starts, SolveConfig(max_iter=40)), [
        ("max-iter", 40), ("codomain-escape", 0), ("max-iter", 40), ("codomain-escape", 32), ("eps-reached", 2)
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
] + [_columns_that_stop_out_of_order()]


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


class _LeakyTable(Mapping):
    """index -> targets[index], where a target may lie outside the codomain."""

    def __init__(self, targets, codomain):
        super().__init__(codomain)
        self.targets = tuple(targets)

    def _raw_rows(self, xs, out=None):
        return np.take(np.array(self.targets), xs, out=out)


class _Recorded(Mapping):
    """m, keeping every stack of raw outputs it gives."""

    def __init__(self, m):
        super().__init__(m.codomain)
        self.m, self.outputs = m, []

    def _raw_rows(self, xs, out=None):
        out = self.m._raw_rows(xs, out)
        self.outputs.append(out.copy())  # the solver may write over out later
        return out


def test_escaped_starts_stop_at_their_escape_on_a_composed_pair():
    """T = (2x, then x) through [-10, 10] escapes its inner codomain from 1
    in cycle 3, the first of the chunk of cycles 3-6, and from 1e-3 in
    cycle 13, inside the chunk of cycles 7-14.  The rows mapped on past an
    escape are never judged or traced."""
    box = BoxSpace([-10.0], [10.0])
    double, one = AffineMap([[2.0]], [0.0], box), AffineMap([[1.0]], [0.0], box)
    mu = induced_standard(box)
    case = (MapPair(T=ComposedMap(one, double), S=one), mu, mu, [np.array([v]) for v in (0.0, 1.0, 1e-3)], SolveConfig())
    assert _reasons(assert_same_results(*case)) == [
        ("eps-reached", 2), ("codomain-escape", 3), ("codomain-escape", 13)
    ]
    assert_chunk_invariant(*case)


def test_escaped_starts_stop_at_their_escape_on_a_table_pair():
    """T walks i -> i + 1 along 10 points and sends 9 out of the carrier;
    S, a table map, maps the index past that escape harmlessly."""
    space = FiniteSpace(1.0 - np.eye(10))
    pair = MapPair(T=_LeakyTable([0, 2, 3, 4, 5, 6, 7, 8, 9, 10], space), S=TableMap(range(10), space))
    mu = induced_standard(space)
    case = (pair, mu, mu, [0, 1, 5], SolveConfig())
    assert _reasons(assert_same_results(*case)) == [
        ("eps-reached", 2), ("codomain-escape", 8), ("codomain-escape", 4)
    ]
    assert_chunk_invariant(*case)


QUAD_ORDER = "ASBT"  # the maps of a quadruple cycle, in the order they run


@pytest.mark.parametrize(
    "position,bound",
    [(p, 10.5) for p in QUAD_ORDER] + [("A", 63.5), ("T", 126.5)],
)
def test_escape_at_each_quadruple_position_and_chunk_end(position, bound):
    """Identities on [-bound, bound], except x + 1 at one position.  From 0
    the shift escapes in cycle floor(bound): cycle 10 lies inside the chunk
    of cycles 7-14, and cycles 63 and 126 are the first and last of the
    first 64-cycle chunk, so A escapes at its first step and T at its last.
    From bound - 0.25 the shift escapes in cycle 0; from -bound it runs to
    max_iter."""
    box = BoxSpace([-bound], [bound])
    one = AffineMap([[1.0]], [0.0], box)
    maps = dict.fromkeys(QUAD_ORDER, one)
    maps[position] = AffineMap([[1.0]], [1.0], box)
    mu = induced_standard(box)
    cfg = SolveConfig(max_iter=int(bound) + 3)
    case = (MapQuadruple(**maps), mu, mu, [np.array([v]) for v in (0.0, bound - 0.25, -bound)], cfg)
    results = assert_same_results(*case)
    assert_chunk_invariant(*case)
    at = QUAD_ORDER.index(position)  # maps applied before the escape, in cycle 0
    expect = [(4 * int(bound) + at) // 2, at // 2, 2 * cfg.max_iter]
    assert _reasons(results) == [("codomain-escape", expect[0]), ("codomain-escape", expect[1]), ("max-iter", expect[2])]
    assert [len(r.trace_y) for r in results[:2]] == [(4 * int(bound) + at + 1) // 2, (at + 1) // 2]


def test_escape_inside_a_composed_map_in_the_cycle():
    """S = (x + 1 into [-3.5, 3.5], then x into [-10, 10]) escapes only its
    inner codomain: from 0 in cycle 3, from 3 in cycle 0 and from -3 in
    cycle 6, inside the chunk of cycles 3-6."""
    box, via = BoxSpace([-10.0], [10.0]), BoxSpace([-3.5], [3.5])
    one = AffineMap([[1.0]], [0.0], box)
    S = ComposedMap(AffineMap([[1.0]], [0.0], box), AffineMap([[1.0]], [1.0], via))
    mu = induced_standard(box)
    case = (MapQuadruple(A=one, B=one, S=S, T=one), mu, mu, [np.array([v]) for v in (0.0, 3.0, -3.0)], SolveConfig())
    assert _reasons(assert_same_results(*case)) == [
        ("codomain-escape", 6), ("codomain-escape", 0), ("codomain-escape", 12)
    ]
    assert_chunk_invariant(*case)
    with pytest.raises(CodomainError, match=re.escape("AffineMap output array([4.]) escaped")):
        S(np.array([3.0]))


def test_a_start_that_escapes_then_overflows_warns_nothing():
    """T = 2x on the plane escapes by overflow from (1e305, 1) in cycle 10,
    inside the chunk of cycles 7-14; the rows mapped on past it hold inf and
    NaN (0 * inf in the matrix product), and no RuntimeWarning is shown.
    The one-start reference overflows too, so it runs under np.errstate;
    the batch does not."""
    plane = BoxSpace([-np.inf] * 2, [np.inf] * 2)
    T = AffineMap(2.0 * np.eye(2), [0.0] * 2, plane)
    S = AffineMap(np.eye(2), [0.0] * 2, plane)
    mu = induced_standard(plane)
    starts, cfg = [np.zeros(2), np.array([1e305, 1.0])], SolveConfig()
    with np.errstate(over="ignore"):
        refs = [oracles.solve(MapPair(T=T, S=S), mu, mu, x0, cfg) for x0 in starts]
    recorded = _Recorded(T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = solve_batch(MapPair(T=recorded, S=S), mu, mu, starts, cfg)
    _same_results(results, refs)
    assert _reasons(results) == [("eps-reached", 2), ("codomain-escape", 10)]
    outputs = np.concatenate(recorded.outputs)
    assert np.isinf(outputs).any() and np.isnan(outputs).any()


def test_images_of_a_composed_map_name_an_inner_escape_to_inf():
    """The images ST x of a pair estimate raise the inner map's
    CodomainError when T overflows to inf, with no RuntimeWarning from S,
    which is handed inf (0 * inf is NaN)."""
    line = BoxSpace([-np.inf], [np.inf])
    pair = MapPair(T=AffineMap([[1e300]], [0.0], line), S=AffineMap([[0.0]], [1.0], line))
    samples = SampleSet(points_x=(np.array([1.0]), np.array([1e10])), grid=TGrid([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CodomainError, match=re.escape("AffineMap output array([inf]) escaped")):
            estimate_k_pair(pair, induced_standard(line), induced_standard(line), samples)


# -- k_hat estimators in blocks of the two leading sample indices --------------

ONE_BLOCK = 1 << 62  # the whole sample in one block
ONE_INDEX = 1  # one (x, x') index pair per block


def x2_budget(step, grid_len, y_pairs=1):
    """A block budget of one x index and `step` x' indices, where one x'
    index holds grid_len * y_pairs cells (y_pairs counts a quadruple's
    (y, y') pairs).  If the whole x' axis fits, blocks take x indices."""
    return 8 * step * grid_len * y_pairs


def estimate(budget, estimator, *args):
    """What one estimator call gives under a block budget, as a comparable
    value: every field of each report or the error raised, the dumped rows
    (none for stacked pairs or an Undumped estimator, which take no dump),
    and every warning it showed.  repr keeps NaN, inf and -0.0 apart."""
    rows = Dumped()
    with mock.patch.object(hypotheses, "_BLOCK_BYTES", budget):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = estimator(*args, dump=None if isinstance(args[-1], tuple) else rows)
            except (EmptySampleError, CodomainError) as exc:
                return repr(exc), repr(rows), sorted((str(w.message), w.filename, w.lineno) for w in caught)
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
        )
        for r in reports
    ]
    return repr(fields), repr(rows), sorted((str(w.message), w.filename, w.lineno) for w in caught)


@st.composite
def sample_points(draw, space, count):
    """count points of the space: on an unbounded box, far apart ones (at a
    scale of 1e154 or 1e200, where squares overflow) among them; repeated
    ones, at distance 0, are common."""
    if isinstance(space, FiniteSpace):
        return draw(st.lists(st.integers(0, space.size - 1), min_size=count, max_size=count))
    coord = st.floats(-10.0, 10.0)
    if not space.is_bounded:
        scale = draw(st.sampled_from([1.0, 1e154, 1e200]))
        coord = st.one_of(coord, st.sampled_from([-1.5, -1.0, 0.0, 1.0, 1.5])).map(lambda c: c * scale)
    dim = space.dimension
    return [np.array(draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(count)]


GRIDS = st.sets(st.sampled_from([0.01, 0.5, 1.0, 4.0, 1e18]), min_size=1, max_size=3).map(lambda ts: TGrid(sorted(ts)))


@st.composite
def estimator_calls(draw):
    """An estimator, the problem and nearness of a solver case, and a sample:
    on an unbounded box its far-apart points make distances overflow, so
    nearness is 0 and ratios of 0/0 and x/0 occur."""
    problem, mu, nu, _, _ = draw(solver_cases())
    samples = SampleSet(
        points_x=tuple(draw(sample_points(mu.carrier, draw(st.integers(1, 5))))),
        grid=draw(GRIDS),
        points_y=tuple(draw(sample_points(nu.carrier, draw(st.integers(0, 4))))),
        exclude_diagonal=draw(st.booleans()),
    )
    if isinstance(problem, MapPair):
        return draw(st.sampled_from([estimate_k_pair, estimate_k_pair_dual])), problem, mu, nu, samples
    if nu is mu and draw(st.booleans()):
        return estimate_k_self_quad, problem, mu, samples
    return estimate_k_quad, problem, mu, nu, samples


@st.composite
def stacked_pair_calls(draw):
    """estimate_k_pair over 2 or 3 stacked pairs of affine or constant maps
    on one pair of boxes of one dimension, each pair with its own sample of
    one size."""
    x_space = draw(carriers_for_maps())
    y_space = draw(carriers_for_maps().filter(lambda box: box.dimension == x_space.dimension))
    pairs = tuple(
        MapPair(T=draw(box_maps(x_space, y_space, composed=False)), S=draw(box_maps(y_space, x_space, composed=False)))
        for _ in range(draw(st.integers(2, 3)))
    )
    make = draw(st.sampled_from([induced_standard, induced_exponential]))
    n, grid, exclude = draw(st.integers(1, 5)), draw(GRIDS), draw(st.booleans())
    samples = tuple(
        SampleSet(points_x=tuple(draw(sample_points(x_space, n))), grid=grid, exclude_diagonal=exclude) for _ in pairs
    )
    return estimate_k_pair, pairs, make(x_space), make(y_space), samples


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


@st.composite
def stacked_quotient_calls(draw):
    """estimate_k_quad or estimate_k_self_quad on a tuple of 1 to 3
    quadruples, each with its own sample of one size: affine or constant
    maps on boxes of dimension 1-3 (one dimension for both spaces of a
    stack, as StackedMap needs) with standard or exponential nearness; on a
    stack of one, composed maps too, or table maps on finite carriers with
    standard or table nearness."""
    self_map, count = draw(st.booleans()), draw(st.integers(1, 3))
    finite = count == 1 and draw(st.integers(0, 2)) == 0
    spaces = finite_spaces(max_size=4) if finite else carriers_for_maps()
    x_space = draw(spaces)
    if count > 1:
        spaces = spaces.filter(lambda box: box.dimension == x_space.dimension)
    y_space = x_space if self_map or draw(st.booleans()) else draw(spaces)

    def maps(domain, codomain):
        return draw(finite_maps(domain, codomain) if finite else box_maps(domain, codomain, composed=count == 1))

    quads = tuple(
        MapQuadruple(A=maps(x_space, y_space), B=maps(x_space, y_space), S=maps(y_space, x_space), T=maps(y_space, x_space))
        for _ in range(count)
    )
    make = draw(st.sampled_from([induced_standard, table_metric] if finite else [induced_standard, induced_exponential]))

    def metric(space):
        return draw(table_metric(space)) if make is table_metric else make(space)

    mu = metric(x_space)
    nu = mu if y_space is x_space else metric(y_space)
    nx, ny, grid = draw(st.integers(1, 4)), draw(st.integers(0 if self_map else 1, 3)), draw(GRIDS)
    samples = tuple(
        SampleSet(points_x=tuple(draw(sample_points(x_space, nx))), grid=grid, points_y=tuple(draw(sample_points(y_space, ny))))
        for _ in quads
    )
    if self_map:
        return estimate_k_self_quad, quads, mu, samples
    return estimate_k_quad, quads, mu, nu, samples


# Stacks of four quadruples on [-10, 10] whose middle two are dropped: one
# whose S maps out of the box (its images escape), and one whose maps are
# constant at its sample points, where every nearness is 1, so h = 1 and
# every cell is skipped.
BOX = BoxSpace([-10.0], [10.0])
BOX_MU = induced_standard(BOX)


def _affine_quad(s_offset):
    return MapQuadruple(
        A=AffineMap([[0.5]], [1.0], BOX),
        B=AffineMap([[0.25]], [1.5], BOX),
        S=AffineMap([[0.5]], [s_offset], BOX),
        T=AffineMap([[-0.5]], [2.0], BOX),
    )


def _constant_quad():
    return MapQuadruple(*(ConstantMap([v], BOX) for v in (1.0, 1.0, 2.0, 2.0)))


def _box_sample(xs, ys):
    return SampleSet(points_x=pts(*xs), grid=TGrid([0.5, 2.0, 8.0]), points_y=pts(*ys))


STACK_QUADS = (_affine_quad(0.5), _affine_quad(50.0), _constant_quad(), _affine_quad(-0.0))
STACK_SAMPLES = (
    _box_sample((0.5, 1.0, -3.0), (2.0, -1.0)),
    _box_sample((0.0, 1.0, 2.0), (1.0, 4.0)),
    _box_sample((2.0, 2.0, 2.0), (1.0, 1.0)),
    _box_sample((-7.0, 3.0, 9.5), (0.0, 0.25)),
)
SELF_QUADS = (_affine_quad(0.5), _affine_quad(50.0), MapQuadruple(*(ConstantMap([2.0], BOX) for _ in "ABST")), _affine_quad(-0.0))
SELF_SAMPLES = tuple(_box_sample(xs, ()) for xs in ((0.5, 1.0, -3.0), (0.0, 1.0, 2.0), (2.0, 2.0, 2.0), (-7.0, 3.0, 9.5)))


def _report_fields(reports):
    """Each report's label, k_hat (by repr, which keeps NaN, inf and -0.0
    apart), witness and counts."""
    return [
        (r.label, repr(r.k_hat), r.witness and repr([np.asarray(p).tolist() for p in r.witness]), r.evaluated_count, r.skipped_count)
        for r in reports
    ]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(call=stacked_quotient_calls())
@example(call=(estimate_k_quad, STACK_QUADS, BOX_MU, BOX_MU, STACK_SAMPLES))
@example(call=(estimate_k_self_quad, SELF_QUADS, BOX_MU, SELF_SAMPLES))
def test_stacked_quotient_reports_equal_each_quadruple_alone(call):
    """A stacked quadruple or self-quadruple estimate gives, primal then
    dual for each quadruple, the reports of that quadruple alone bit for
    bit; a quadruple whose lone call raises, because its images escape or
    every cell of both sides is skipped, gets two reports with k_hat None,
    no witness and no counted cell."""
    estimator, quads, *metrics, samples = call
    labels = ("quad-primal", "quad-dual") if estimator is estimate_k_quad else ("self-quad-primal", "self-quad-dual")
    alone = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflowing quotients, shown once per call
        stacked = estimator(quads, *metrics, samples)
        for quad, sample in zip(quads, samples):
            try:
                alone += _report_fields(estimator(quad, *metrics, sample))
            except (EmptySampleError, CodomainError):
                alone += [(label, "None", None, 0, 0) for label in labels]
    assert _report_fields(stacked) == alone
    assert all(r.sample_shape == (len(samples[0].points_x), len(samples[0].points_y) or len(samples[0].points_x)) for r in stacked)
    if quads in (STACK_QUADS, SELF_QUADS):  # the escaping and the all-skipped quadruples are dropped
        dropped = [r.k_hat is None and r.evaluated_count + r.skipped_count == 0 for r in stacked]
        assert dropped == [False] * 2 + [True] * 4 + [False] * 2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(call=st.one_of(estimator_calls(), stacked_pair_calls(), stacked_quotient_calls()))
@example(call=(estimate_k_pair, MapPair(T=FAR_T, S=FAR_S), FAR_MU, FAR_MU, FAR_SAMPLES))
@example(call=(estimate_k_pair_dual, MapPair(T=FAR_S, S=FAR_T), FAR_MU, FAR_MU, FAR_SAMPLES))
def test_one_index_blocks_match_one_block(call):
    """Blocks of one (x, x') pair, and blocks of 3 x' indices (which split
    4 or 5 x' points unevenly), give every report field, the dumped rows (a
    quotient's dual side from its second pass over the blocks included) and
    the warnings of a single block: the running argmax keeps the first
    maximum in C order, or the first NaN, across blocks, and a warning that
    several blocks raise is shown once.  Stacked pairs also run in blocks of
    2 whole pairs, which split 3 pairs unevenly, and stacked quadruples in
    blocks of parts of one or of several whole quadruples; each block takes
    the leading rows of the call's grid tile."""
    estimator, *_, samples = call
    stacked = isinstance(samples, tuple)
    one = samples[0] if stacked else samples
    y_pairs = len(one.points_y) ** 2 if estimator is estimate_k_quad else 1
    whole = estimate(ONE_BLOCK, *call)
    assert estimate(ONE_INDEX, *call) == whole
    assert estimate(x2_budget(3, len(one.grid), y_pairs), *call) == whole
    if stacked:  # 2 pairs of n * n cells a block, in a ratio and a scratch array
        n = len(one.points_x)
        assert estimate(2 * 2 * 8 * n * n * len(one.grid), *call) == whole


def test_far_points_give_nan_and_inf_ratios():
    """The explicit examples above hold inf and NaN cells, without a
    RuntimeWarning, and the witness is the first NaN cell, which lies in the
    second block."""
    with mock.patch.object(hypotheses, "_BLOCK_BYTES", ONE_INDEX), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = Dumped()
        report = estimate_k_pair(MapPair(T=FAR_T, S=FAR_S), FAR_MU, FAR_MU, FAR_SAMPLES, dump=rows)
    ratios = [r for *_, r in rows]
    assert np.isinf(ratios).any() and np.isnan(ratios).any()
    assert np.isnan(report.k_hat)
    assert [float(p[0]) for p in report.witness[:2]] == [-1.0, 1.5]


@pytest.mark.parametrize("scheme", ["pair", "quadruple", "self-quadruple"])
def test_ratio_dump_matches_scalar_oracle_in_one_index_blocks(scheme):
    """The oracle test's sample (3 x points, 2 y points, a 2-point grid) in
    blocks of one (x, x') pair, and of two x' indices, which split the 3 x'
    points of a pair and a quadruple unevenly."""
    import test_hypotheses

    for budget in (ONE_INDEX, x2_budget(2, 2, 4 if scheme == "quadruple" else 1)):
        with mock.patch.object(hypotheses, "_BLOCK_BYTES", budget):
            test_hypotheses.test_ratio_dump_matches_scalar_oracle(scheme)



# ---------------------------------------------------------------------------
# the standard-form pair rule: rhs from the largest distance
# ---------------------------------------------------------------------------


class MinimumPath(FuzzyMetric):
    """A metric's nearness under a type that the pair estimator does not
    take for the standard form, so it takes the minimum of the four
    nearness arrays."""

    def __init__(self, fm):
        super().__init__(fm.carrier)
        self.fm = fm

    def mu_batch(self, a, b, ts, out=None):
        return self.fm.mu_batch(a, b, ts, out)

    def mu_from_distances(self, d, a, b, ts, out=None):
        return self.fm.mu_from_distances(d, a, b, ts, out)


# Coordinates at distances of 0 (repeated points), subnormal, about 1 and
# about 1e308, and (between 1e308 and -1e308) beyond the float range, inf.
EXTREME = [0.0, 5e-324, -5e-324, 1e-310, 1.0, -2.5, 8e307, 1e308, -1e308]
WIDE_GRIDS = st.sets(st.sampled_from([1e-300, 1e-10, 0.01, 1.0, 100.0, 1e10, 1e300]), min_size=1, max_size=4)


@st.composite
def extreme_maps(draw, space):
    """Constant maps, and diagonal affine maps whose images of EXTREME
    points, and of those images, stay finite."""
    dim = space.dimension
    offset = draw(st.lists(st.sampled_from([0.0, 1.0, -3.0, 5e-324]), min_size=dim, max_size=dim))
    if draw(st.integers(0, 3)) == 0:
        return ConstantMap(offset, space)
    diagonal = draw(st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]), min_size=dim, max_size=dim))
    return AffineMap(np.diag(diagonal), offset, space)


class Undumped:
    """An estimator called with no dump, whatever dump it is given, so that
    a call on one problem takes the path of a stacked call."""

    def __init__(self, estimator):
        self.estimator = estimator

    def __call__(self, *args, dump=None):
        return self.estimator(*args)

    def __repr__(self):
        return f"Undumped({self.estimator.__name__})"


# Points whose images under flip_pairs stay finite; at t_min the row
# (0.25, -0.25) has a larger ratio than (1, -2.5), at t_max a smaller one.
FLIP_POINTS = [0.0, 5e-324, 1e-310, 0.25, -0.25, 1.0, -2.5]


@st.composite
def flip_pairs(draw, x_space, y_space):
    """T = S = c D, D a diagonal of signs and c 1 or 3.  With c = 1, ST is
    the identity and every admitted row ties at the ratio 1 (D = F bit for
    bit); with c = 3, ST stretches distances 9-fold, past the other three
    distances of rows far apart for their size, so that the row's ratio
    falls with t and is largest at t_min."""
    dim = x_space.dimension
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim))
    m = np.diag(signs) * draw(st.sampled_from([1.0, 3.0]))
    return MapPair(T=AffineMap(m, [0.0] * dim, y_space), S=AffineMap(m, [0.0] * dim, x_space))


@st.composite
def standard_pair_calls(draw):
    """estimate_k_pair or its dual on one pair, with or without a dump, or
    estimate_k_pair on 2 or 3 stacked pairs, with standard nearness on
    unbounded boxes of dimension 1 or 2, samples of up to 8 points drawn
    from EXTREME, and a grid of up to 4 scales between 1e-300 and 1e300 or
    of 17 (which has interior scales).  A third of the calls take
    flip_pairs, whose rows all tie or have their largest ratio at t_min,
    on FLIP_POINTS."""
    dim = draw(st.integers(1, 2))
    x_space, y_space = (BoxSpace([-np.inf] * dim, [np.inf] * dim, draw(st.sampled_from(["euclidean", "max"]))) for _ in "xy")
    flips = draw(st.integers(0, 2)) == 0
    point = st.lists(st.sampled_from(FLIP_POINTS if flips else EXTREME), min_size=dim, max_size=dim).map(np.array)
    grids = st.one_of(WIDE_GRIDS.map(lambda ts: TGrid(sorted(ts))), st.sampled_from([TGrid.default(), TGrid.logspace(1e-300, 1e300)]))
    n, grid, exclude = draw(st.integers(1, 8)), draw(grids), draw(st.booleans())

    def pair():
        if flips:
            return draw(flip_pairs(x_space, y_space))
        return MapPair(T=draw(extreme_maps(y_space)), S=draw(extreme_maps(x_space)))

    pairs = tuple(pair() for _ in range(draw(st.integers(1, 3))))
    samples = tuple(
        SampleSet(
            points_x=tuple(draw(st.lists(point, min_size=n, max_size=n))),
            grid=grid,
            points_y=tuple(draw(st.lists(point.map(lambda p: p * 0.5), min_size=n, max_size=n))),
            exclude_diagonal=exclude,
        )
        for _ in pairs
    )
    mu, nu = induced_standard(x_space), induced_standard(y_space)
    if len(pairs) > 1:
        return estimate_k_pair, pairs, mu, nu, samples
    estimator = draw(st.sampled_from([estimate_k_pair, estimate_k_pair_dual]))
    return (Undumped(estimator) if draw(st.booleans()) else estimator), pairs[0], mu, nu, samples[0]


@SETTINGS
@given(call=standard_pair_calls())
@example(call=(estimate_k_pair, MapPair(T=FAR_T, S=FAR_S), FAR_MU, FAR_MU, FAR_SAMPLES))
@example(call=(estimate_k_pair_dual, MapPair(T=FAR_S, S=FAR_T), FAR_MU, FAR_MU, FAR_SAMPLES))
def test_standard_pair_rhs_of_the_largest_distance_is_the_minimum(call):
    """With standard mu and nu and no dump (a stack, or an Undumped call),
    the pair estimator takes rhs as the nearness of the largest of the four
    distances from the grid's end scales; the reports (k_hat, witness,
    counts, by repr, which keeps NaN, inf and -0.0 apart) and the warnings
    equal those of the minimum of the four nearness arrays on every cell,
    on grids of 1 to 4 scales and of 17, in one block and in blocks of one
    (x, x') pair.  A dumped call takes that minimum itself, so there the
    comparison holds by construction."""
    estimator, problem, mu, nu, samples = call
    for budget in (ONE_BLOCK, ONE_INDEX):
        assert estimate(budget, *call) == estimate(budget, estimator, problem, MinimumPath(mu), MinimumPath(nu), samples)


def _table_pair():
    """A pair on a 3-point finite space whose table nearness is not a
    function of the crisp distance: points 0 and 2, the furthest apart, are
    the nearest."""
    space = FiniteSpace([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    values = np.ones((3, 3, 2))
    values[0, 1] = values[1, 0] = [0.2, 0.3]
    values[1, 2] = values[2, 1] = [0.5, 0.6]
    values[0, 2] = values[2, 0] = [0.8, 0.9]
    mu = TableFuzzyMetric(space, TGrid([1.0, 10.0]), values)
    return MapPair(T=TableMap([1, 2, 0], space), S=TableMap([2, 0, 1], space)), mu, mu, (0, 1, 2)


def _line_pair(mu_form, nu_form):
    pair = MapPair(T=AffineMap([[0.5]], [1.0], FAR_LINE), S=AffineMap([[-2.0]], [0.5], FAR_LINE))
    return pair, mu_form(FAR_LINE), nu_form(FAR_LINE), pts(-3.0, 0.0, 0.25, 2.0, 7.0)


PAIR_CONFIGS = {
    "standard": lambda: _line_pair(induced_standard, induced_standard),
    "exponential": lambda: _line_pair(induced_exponential, induced_exponential),
    "standard-exponential": lambda: _line_pair(induced_standard, induced_exponential),
    "exponential-standard": lambda: _line_pair(induced_exponential, induced_standard),
    "table": _table_pair,
}


@pytest.mark.parametrize("config", list(PAIR_CONFIGS))
def test_only_standard_pairs_skip_the_nearness_minimum(monkeypatch, config):
    """Exponential, table and mixed standard/exponential configs still take
    the minimum of four nearness arrays (nu's nearness of Tx and Tx' is
    computed as an array); standard ones take distances only, besides lhs,
    unless a dump is given, and then take the minimum as well.  Either way
    k_hat, the witness and the count are the scalar oracle's."""
    pair, mu, nu, xs = PAIR_CONFIGS[config]()
    grid = mu.grid if isinstance(mu, TableFuzzyMetric) else TGrid([0.5, 2.0, 30.0])
    calls = []
    block_nearness = hypotheses._block_nearness
    monkeypatch.setattr(hypotheses, "_block_nearness", lambda fm, *a: calls.append(fm) or block_nearness(fm, *a))
    report = estimate_k_pair(pair, mu, nu, SampleSet(points_x=xs, grid=grid))
    ratios = np.full((len(xs), len(xs), len(grid)), -np.inf)
    for (i, x), (j, x2), (k, t) in itertools.product(enumerate(xs), enumerate(xs), enumerate(grid.values)):
        if oracles.distance(mu.carrier, x, x2) > oracles.DELTA_PT:
            lhs, rhs = oracles.pair_inequality_terms(pair, mu, nu, x, x2, t)
            ratios[i, j, k] = rhs / lhs
    cell = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    assert (report.k_hat, report.evaluated_count) == (ratios[cell], int(np.isfinite(ratios).sum()))
    witness = [np.asarray(xs[cell[0]]).tolist(), np.asarray(xs[cell[1]]).tolist(), grid.values[cell[2]]]
    assert [np.asarray(p).tolist() for p in report.witness] == witness
    standard = config == "standard"
    assert set(calls) == ({mu} if standard else {mu, nu})
    # one block: lhs, and unless standard, x's and Tx's nearness; a standard pair takes lhs
    # at the two end scales, then on the whole grid for the rows that may hold k_hat
    assert len(calls) == (2 if standard else 3)
    if standard:  # with a dump, the standard pair takes the four-term minimum too
        calls.clear()
        dumped = estimate_k_pair(pair, mu, nu, SampleSet(points_x=xs, grid=grid), dump=Dumped())
        assert set(calls) == {mu, nu} and len(calls) == 3
        assert _report_fields([dumped]) == _report_fields([report])


@pytest.mark.parametrize("grid", [TGrid([0.5]), TGrid([0.5, 2.0]), TGrid.default()], ids=["1", "2", "17"])
def test_every_undumped_standard_pair_call_takes_the_end_scales(monkeypatch, grid):
    """A standard pair's call without a dump, on one pair, on its dual and
    on a stack, goes through _end_scale_reports and never enters _reports,
    whatever the grid's length."""
    pair, mu, nu, xs = _line_pair(induced_standard, induced_standard)
    samples = SampleSet(points_x=xs, grid=grid, points_y=xs)
    ends, end_scale_reports = [], hypotheses._end_scale_reports

    def whole_grid(*args, **kwargs):
        raise AssertionError("_reports entered")

    monkeypatch.setattr(hypotheses, "_reports", whole_grid)
    monkeypatch.setattr(hypotheses, "_end_scale_reports", lambda *a: ends.append(a) or end_scale_reports(*a))
    estimate_k_pair(pair, mu, nu, samples)
    estimate_k_pair_dual(pair, mu, nu, samples)
    estimate_k_pair((pair, pair), mu, nu, (samples, samples))
    assert len(ends) == 3


def test_rows_that_round_above_their_end_ratios_keep_the_whole_grid_witness():
    """ST x = c x with c = 1 - 2^-51 and T the identity: each row's exact
    ratio (t + D) / (t + F) lies a few ulps below 1, and rounding lifts some
    interior cells to 1.0 while both end cells of their row stay below it.
    The end-scale pass keeps every row within its rounding margin of the
    best end ratio, so k_hat and its first cell in C order, at an interior
    scale, are those of the whole grid (the dump path); with no margin the
    witness moved to a later row."""
    line = BoxSpace([-np.inf], [np.inf])
    mu = induced_standard(line)
    c = float.fromhex("0x1.ffffffffffffcp-1")
    pair = MapPair(T=AffineMap([[1.0]], [0.0], line), S=AffineMap([[c]], [0.0], line))
    hexes = ("-0x1.9f292a8ec4626p+2", "0x1.d0de782272496p+2", "0x1.a89019e8e252cp-1", "-0x1.005e685f9916bp+2", "-0x1.8bd767ca60f7cp+0")
    samples = SampleSet(points_x=pts(*map(float.fromhex, hexes)), grid=TGrid.default())
    full = estimate_k_pair(pair, mu, mu, samples, dump=Dumped())
    assert full.k_hat == 1.0 and full.witness[2] not in (samples.grid.t_min, samples.grid.t_max)
    assert _report_fields([estimate_k_pair(pair, mu, mu, samples)]) == _report_fields([full])


def test_a_ratio_that_falls_with_t_keeps_its_t_min_witness():
    """T = S = 3x: ST stretches (x, x') = (0.25, -0.25) to 4.5 against a
    largest distance F = 2, so the row's ratio (t + D) / (t + F) falls with
    t, and at t_min it beats (1, -2.5), whose ratio is the larger at t_max.
    k_hat and its witness at t_min are those of the whole grid."""
    line = BoxSpace([-np.inf], [np.inf])
    mu = induced_standard(line)
    stretch = AffineMap([[3.0]], [0.0], line)
    pair = MapPair(T=stretch, S=stretch)
    samples = SampleSet(points_x=pts(1.0, -2.5, 0.25, -0.25), grid=TGrid.default())
    full = estimate_k_pair(pair, mu, mu, samples, dump=Dumped())
    assert [float(p[0]) for p in full.witness[:2]] + [full.witness[2]] == [0.25, -0.25, samples.grid.t_min]
    assert _report_fields([estimate_k_pair(pair, mu, mu, samples)]) == _report_fields([full])


def _hypotheses_wide_pair(monkeypatch, seed, block):
    """The pair problem, nearness and sample of a hypotheses-wide benchmark
    block (192 points of a 2-D box, the default 17-point grid)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    (doc,) = [inv.config for inv in workloads.block("hypotheses-wide", seed, block).invocations if inv.name == "pair"]
    grid = build_grid(doc)
    carrier_x, carrier_y, mu, nu = build_spaces(doc, grid)
    _, pair = build_problem(doc, carrier_x, carrier_y)
    return pair, mu, nu, build_samples(doc, grid, carrier_x, carrier_y, include_diagonal=False)


def test_standard_pair_evaluates_few_rows_on_the_whole_grid(monkeypatch):
    """On the seed-1 hypotheses-wide pair (626 688 cells, several blocks
    of end scales) fewer than 1 % of the cells are evaluated on the whole
    grid, and the report is the one the dump path, which evaluates every
    cell, gives."""
    pair, mu, nu, samples = _hypotheses_wide_pair(monkeypatch, 1, 0)
    whole = []
    block_nearness = hypotheses._block_nearness

    def counted(fm, p, ia, q, ib, ts, out):  # lhs, once per evaluation
        if out.shape[-1] == len(samples.grid):
            whole.append(out.size)
        return block_nearness(fm, p, ia, q, ib, ts, out)

    with monkeypatch.context() as patched:
        patched.setattr(hypotheses, "_block_nearness", counted)
        report = estimate_k_pair(pair, mu, nu, samples)
    cells = report.evaluated_count + report.skipped_count
    assert cells == 192 * 192 * 17 and 0 < sum(whole) < cells // 100
    assert _report_fields([report]) == _report_fields([estimate_k_pair(pair, mu, nu, samples, dump=lambda *cells: None)])
