"""Reproducible per-trial random streams.

Each trial draws from its own counter-based Philox stream keyed by
(master seed, trial index).  Streams are independent of execution order,
so trials can run serially or split across workers and produce identical
results.

`trial_rng` builds the stream of one trial as a numpy `Generator`.
`trial_uniforms` computes the first uniforms of many consecutive streams
at once, bit for bit equal to `trial_rng(seed, i).random(n)`: Philox is
counter-based (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11), so word j of stream (seed, i) is word j % 4 of Philox4x64-10
applied to counter (j // 4 + 1, 0, 0, 0) under key (seed, i), the layout
numpy's `Philox` uses, and no generator object is needed.
"""

from __future__ import annotations

import numpy as np

#: Philox4x64 round multipliers and Weyl key increments, stacked so one
#: array operation handles both halves of the counter; shape (2, 1, 1)
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_M_LO, _M_HI = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
_ROUNDS = 10


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Return the generator for one trial of a run seeded with `seed`,
    an integer in [0, 2^64)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products `_PHILOX_M * b`,
    the high word assembled from 32-bit halves."""
    b_lo, b_hi = b & 0xFFFFFFFF, b >> 32
    lo_hi, hi_lo = b_lo * _M_HI, b_hi * _M_LO
    mid = (b_lo * _M_LO >> 32) + (lo_hi & 0xFFFFFFFF) + (hi_lo & 0xFFFFFFFF)
    hi = b_hi * _M_HI + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32)
    return hi, b * _PHILOX_M


def trial_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """The first `n` uniforms of the streams of trials [start, start+count)
    as a (count, n) float64 array: row k equals
    `trial_rng(seed, start + k).random(n)` bit for bit."""
    blocks = -(-n // 4)
    trials = np.uint64(start) + np.arange(count, dtype=np.uint64)
    # counter words (c0, c2) and (c1, c3), shape (2, count, blocks)
    even = np.zeros((2, count, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    key = np.stack([np.full(count, seed, dtype=np.uint64), trials])[:, :, None]
    for _ in range(_ROUNDS):
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key = key + _PHILOX_W
    words = np.stack([even[0], odd[0], even[1], odd[1]], axis=-1).reshape(count, 4 * blocks)[:, :n]
    return (words >> 11) * 2.0**-53
