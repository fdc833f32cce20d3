from pathlib import Path

import numpy as np
import pytest

from fuzzyfp import (
    AffineMap,
    BoxSpace,
    MapPair,
    MapQuadruple,
    TGrid,
    induced_standard,
)

SOURCES = Path(__file__).resolve().parent.parent / "src" / "fuzzyfp"


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    """The line count of the package sources, as wc -l counts it, after the
    slowest durations: the size that each change is measured by."""
    lines = sum(path.read_bytes().count(b"\n") for path in SOURCES.glob("*.py"))
    terminalreporter.write_sep("=", f"src/fuzzyfp/*.py: {lines} lines")


@pytest.fixture
def line():
    """The whole real line as an unbounded box carrier."""
    return BoxSpace([-np.inf], [np.inf])


@pytest.fixture
def line_mu(line):
    return induced_standard(line)


@pytest.fixture
def linear_pair(line):
    """T x = x/2 + 1, S y = y/3 + 1; ST has fixed point 1.6, TS has 1.8."""
    return MapPair(
        T=AffineMap([[0.5]], [1.0], line),
        S=AffineMap([[1.0 / 3.0]], [1.0], line),
    )


@pytest.fixture
def expansive_pair(line):
    """T x = 2x, S y = 2y; the composite quadruples distances per step."""
    return MapPair(
        T=AffineMap([[2.0]], [0.0], line),
        S=AffineMap([[2.0]], [0.0], line),
    )


@pytest.fixture
def mixed_quad(line):
    """A x = x/2 + 1, B x = x/3 + 1, S y = y/4 + 1, T y = y/5 + 1.

    SA and TB have different fixed points, so the interleaved iteration
    settles into a two-cycle instead of converging.
    """
    return MapQuadruple(
        A=AffineMap([[0.5]], [1.0], line),
        B=AffineMap([[1.0 / 3.0]], [1.0], line),
        S=AffineMap([[0.25]], [1.0], line),
        T=AffineMap([[0.2]], [1.0], line),
    )


@pytest.fixture
def small_grid():
    return TGrid([0.5, 1.0, 2.0])


def pt(*coords):
    return np.array(coords, dtype=float)
