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

`binomial_steps` lets those words stand in for `Generator.binomial` too:
for small n numpy draws a binomial by inversion from one uniform, so a
table of the draw's steps in that uniform maps whole arrays of words.
"""

from __future__ import annotations

import math

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


def binomial_draw(n: int, p: float, u: float) -> int:
    """`Generator.binomial(n, p)` for n >= 1 and 0 < p < 1 when the next
    word of the stream is the uniform `u`: numpy's inversion sampler on
    r = min(p, 1 - p), with the same floating-point operations in the same
    order.  -1 where numpy reads more words than that one: the inversion
    discards `u` and draws again, or n * r > 30 selects BTPE."""
    r = p if p <= 0.5 else 1.0 - p
    q = 1.0 - r
    mean = n * r
    if mean > 30.0:
        return -1
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = math.exp(n * math.log1p(-r))
    x = 0
    while u > px:
        x += 1
        if x > bound:
            return -1
        u -= px
        px = ((n - x + 1) * r * px) / (x * q)
    return x if p <= 0.5 else n - x


def binomial_steps(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """`binomial_draw(n, p, u)` as a step function: `(edges, values)` with
    `values[np.searchsorted(edges, u, side="right")]` equal to the draw
    for every uniform u = m * 2^-53.  Each value holds on one interval of
    m, so bisection finds where the next one starts."""
    top = 2**53 - 1
    edges: list[int] = []
    values = [binomial_draw(n, p, 0.0)]
    while binomial_draw(n, p, top * 2.0**-53) != values[-1]:
        lo, hi = edges[-1] if edges else 0, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if binomial_draw(n, p, mid * 2.0**-53) != values[-1] else (mid, hi)
        edges.append(hi)
        values.append(binomial_draw(n, p, hi * 2.0**-53))
    return np.array(edges) * 2.0**-53, np.array(values)
