"""The generator is a named algorithm; verify it against an independent
re-implementation rather than frozen magic numbers."""

import numpy as np
import pytest

from fuzzyfp import SplitMix64
from fuzzyfp.rng import GENERATOR_NAME, draws, states

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
# -1 and 2**64 - 1 are one state; 2**70 masks to 0; at 2**64 - 1 the state wraps on the first draw
SEEDS = (-1, 0, 2**64 - 1, 2**70)


def reference_stream(seed, count):
    """Straight transcription of the splitmix64 reference algorithm."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


def test_matches_reference_algorithm():
    for seed in (0, 1, 42, 2**63 + 11):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(8)] == reference_stream(seed, 8)


def test_known_first_output_seed_zero():
    # widely published first output of splitmix64 from state 0
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_streams_are_reproducible():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    vals = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    lo_hi = [SplitMix64(7).uniform(-3.0, 5.0) for _ in range(3)]
    assert lo_hi[0] == lo_hi[1] == lo_hi[2]
    assert all(-3.0 <= v < 5.0 for v in lo_hi)


def test_generator_is_named():
    assert GENERATOR_NAME == "splitmix64"


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_are_the_successive_scalar_draws(seed):
    rng = SplitMix64(seed)
    got = draws(states([seed])[0], np.arange(1, 301, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [rng.next_u64() for _ in range(300)]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_at_counters_past_two_to_the_64_over_gamma(seed):
    """Draw c of a stream is the next draw after c - 1 steps of gamma, and
    counter * gamma wraps past 2**64 for every counter here."""
    counters = [2**20, 2**40 + 3, 2**63 + 1, 2**64 - 1]
    got = draws(states([seed])[0], np.array(counters, dtype=np.uint64))
    assert got.tolist() == [SplitMix64(seed + (c - 1) * GAMMA).next_u64() for c in counters]


def test_draws_of_many_streams_in_one_array():
    """States on one axis and counters on the other give each seed's stream."""
    got = draws(states(SEEDS)[:, None], np.arange(1, 41, dtype=np.uint64))
    assert got.shape == (len(SEEDS), 40)
    for row, seed in zip(got.tolist(), SEEDS):
        rng = SplitMix64(seed)
        assert row == [rng.next_u64() for _ in range(40)]


def test_states_mask_seeds_to_64_bits():
    assert states([-1, 2**64, 2**70 + 5, 7]).tolist() == [MASK, 0, 5, 7]
