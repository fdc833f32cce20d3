"""Deterministic 64-bit generator used for every sampled quantity.

SplitMix64: the state advances by the golden-gamma increment and the output
is a bijective mix of the state.  Chosen over library defaults so that every
report can name the generator and seed, making results reproducible across
languages and library versions.  The generator is counter-based (draw i is
mix(seed + i * gamma)), so draws() makes the draws of many streams in one
array operation, with the bits next_u64() gives one at a time.
"""

from __future__ import annotations

import math

import numpy as np

GENERATOR_NAME = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """The output mix of a state (an int or a uint64 array).  uint64
    arithmetic wraps by itself; int arithmetic is masked after each product
    to wrap as it does."""
    if isinstance(z, int):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    else:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream with explicit integer seeding."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def block(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array."""
        out = draws(self._state, np.arange(1, n + 1, dtype=np.uint64))
        self._state = (self._state + n * _GAMMA) & _MASK
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) with 53 random bits."""
        return lo + (hi - lo) * unit(self.next_u64())

    def normal(self) -> float:
        """Standard normal of the next two draws; see normal()."""
        return normal(self.next_u64(), self.next_u64())


def states(seeds) -> np.ndarray:
    """The uint64 states of the streams SplitMix64(seed) for each of seeds,
    which may be negative or 2**64 or more, as the class's seeds may."""
    return np.array([int(seed) & _MASK for seed in seeds], dtype=np.uint64)


def draws(state, counter) -> np.ndarray:
    """Draw number counter (from 1) of the stream in state, that is
    mix(state + counter * gamma), over uint64 arrays (or a state below
    2**64), broadcast; uint64 arithmetic wraps as the state's does."""
    return _mix(np.asarray(state, dtype=np.uint64) + np.asarray(counter, dtype=np.uint64) * np.uint64(_GAMMA))


def normal(a: int, b: int) -> float:
    """Standard normal of two draws via Box-Muller; offsetting the first
    keeps log() finite."""
    u1 = ((a >> 11) + 1) * 2.0**-53
    u2 = (b >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def unit(u):
    """The top 53 bits of a draw (an int or a uint64 array) as doubles in [0, 1)."""
    return (u >> 11) * 2.0**-53
