"""The per-step fast paths agree with the straightforward checks they replace."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyfp import BoxSpace, DomainError, TGrid
from fuzzyfp.metrics import _check_ts
from oracles import contains as reference_contains

ATOL = 1e-9  # the containment slack of BoxSpace
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def _coordinate(lo, hi):
    edges = [lo, hi, lo - ATOL, hi + ATOL]
    edges += [math.nextafter(e, sign * math.inf) for e in edges[2:] for sign in (-1, 1)]
    return st.one_of(
        st.sampled_from(edges + [math.nan, math.inf, -math.inf, 0.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    )


@st.composite
def box_and_point(draw):
    dim = draw(st.integers(1, 3))
    lo = draw(st.lists(st.floats(-100, 100), min_size=dim, max_size=dim))
    hi = [a + draw(st.floats(1e-3, 100)) for a in lo]
    shape = draw(st.sampled_from(["bounded", "unbounded", "half"]))
    if shape == "unbounded":
        lo, hi = [-math.inf] * dim, [math.inf] * dim
    elif shape == "half":
        side = draw(st.sampled_from([lo, hi]))
        side[draw(st.integers(0, dim - 1))] = math.inf if side is hi else -math.inf
    size = draw(st.sampled_from([dim, dim, dim, dim + 1, None]))
    if size is None:  # a scalar: wrong shape for every box
        point = draw(_coordinate(lo[0], hi[0]))
    else:
        point = [draw(_coordinate(lo[i % dim], hi[i % dim])) for i in range(size)]
    return BoxSpace(lo, hi), point


@SETTINGS
@given(box_and_point())
def test_box_contains_matches_reference(case):
    box, point = case
    assert box.contains(point) == reference_contains(box, point)


def test_box_contains_edges():
    box = BoxSpace([0.0, -1.0], [1.0, 1.0])
    assert box.contains([1.0 + 1e-9, -1.0 - 1e-9])
    assert not box.contains([math.nextafter(1.0 + 1e-9, 2.0), 0.0])
    assert not box.contains([math.nan, 0.0])
    assert not box.contains([math.inf, 0.0])
    assert not box.contains([0.5])
    line = BoxSpace([-math.inf], [math.inf])
    assert line.contains([1e300])
    assert not line.contains([math.inf])
    assert not line.contains([-math.inf])


@SETTINGS
@given(
    st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=6),
    st.integers(0, 5),
    st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.inf, math.nan]),
)
def test_check_ts_rejects_bad_scales(good, index, bad):
    assert np.array_equal(_check_ts(good), np.asarray(good, dtype=float))
    scales = list(good)
    scales[index % len(scales)] = bad
    with pytest.raises(DomainError):
        _check_ts(scales)
    with pytest.raises(DomainError):
        _check_ts(bad)


def test_check_ts_returns_grid_values_unchecked():
    grid = TGrid.default()
    assert _check_ts(grid) is grid.values
