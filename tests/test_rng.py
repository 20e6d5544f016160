"""Per-trial random streams: the bulk Philox draw must reproduce each
trial's own numpy generator bit for bit, so a (seed, trial) pair names
the same numbers on either path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from stokesim.rng import trial_rng, trial_uniforms

SEEDS = [0, 1, 2**63, 2**64 - 1]
#: (start, count): a plain range, one crossing 2^32, one crossing 2^63
RANGES = [(0, 5), (2**32 - 3, 6), (2**63 - 2, 4)]


def _reference(seed: int, start: int, count: int, n: int) -> np.ndarray:
    return np.array([trial_rng(seed, i).random(n) for i in range(start, start + count)]).reshape(count, n)


def _assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, count", RANGES)
def test_trial_uniforms_match_each_trial_generator(seed, start, count):
    # n = 1..9 covers one, two and three Philox blocks of four words
    for n in range(1, 10):
        _assert_bits_equal(trial_uniforms(seed, start, count, n), _reference(seed, start, count, n))


@settings(max_examples=60, deadline=None)
@given(
    hs.integers(0, 2**64 - 1),
    hs.integers(0, 2**64 - 1 - 8),
    hs.integers(1, 8),
    hs.integers(1, 9),
)
def test_trial_uniforms_match_each_trial_generator_anywhere(seed, start, count, n):
    _assert_bits_equal(trial_uniforms(seed, start, count, n), _reference(seed, start, count, n))


def test_trial_uniforms_rows_do_not_depend_on_the_range():
    whole = trial_uniforms(9, 100, 50, 3)
    _assert_bits_equal(np.vstack([trial_uniforms(9, 100, 13, 3), trial_uniforms(9, 113, 37, 3)]), whole)
    # a longer draw extends each row without changing its first words
    _assert_bits_equal(trial_uniforms(9, 100, 50, 7)[:, :3], whole)


def test_trial_rng_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(OverflowError):
            trial_rng(seed, 0)
