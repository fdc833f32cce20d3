"""The array code of the sampling and distance layers agrees bit for bit with
the scalar loops it replaces (tests/oracles.py)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fuzzyfp import (
    LUKASIEWICZ,
    MINIMUM,
    PRODUCT,
    BoxSpace,
    DomainError,
    FiniteSpace,
    SplitMix64,
    StandardFuzzyMetric,
    TableFuzzyMetric,
    TGrid,
    check_fm_axioms,
    induced_exponential,
    induced_standard,
)
from fuzzyfp.axioms import MAX_WITNESSES
from fuzzyfp.solver import _diameter

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
    assert isinstance(got, list) and len(got) == count
    if isinstance(carrier, BoxSpace):
        assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(got, ref))
    else:
        assert got == ref and all(type(i) is int for i in got)


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
