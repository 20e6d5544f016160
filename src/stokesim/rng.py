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
numpy's `Philox` uses, and no generator object is needed.  The ten rounds
run on a fixed set of uint64 buffers, one per counter word plus scratch,
rewritten in place by `out=` ufuncs (`_mulhilo`), so a round allocates
nothing and the working set stays small enough for the CPU cache.

`binomial_draw` lets those words stand in for `Generator.binomial` too:
for small n numpy draws a binomial by inversion from one uniform, so the
draw is a monotone step function of that word, whose edges `sampling`
finds by bisection.
"""

from __future__ import annotations

import math

import numpy as np

#: Philox4x64 round multipliers, for counter words c0 and c2, and Weyl
#: increments, for key words k0 and k1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Return the generator for one trial of a run seeded with `seed`,
    an integer in [0, 2^64)."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, b: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """The 128-bit products `m * b` in place: `hi` gets their high and `b`
    their low 64-bit words.  The high word is a carry chain over the
    32-bit-half products p0..p3: x = p1 + (p0 >> 32), y = p2 + (x & low),
    hi = p3 + (x >> 32) + (y >> 32).  `t`, `u` and `v` are scratch."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(b, _LOW, out=t)
    np.right_shift(b, _HALF, out=hi)
    np.multiply(t, m_lo, out=u)
    np.multiply(t, m_hi, out=t)
    np.right_shift(u, _HALF, out=u)
    np.add(t, u, out=t)
    np.multiply(hi, m_lo, out=u)
    np.multiply(hi, m_hi, out=hi)
    np.bitwise_and(t, _LOW, out=v)
    np.add(u, v, out=u)
    np.right_shift(t, _HALF, out=t)
    np.right_shift(u, _HALF, out=u)
    np.add(hi, t, out=hi)
    np.add(hi, u, out=hi)
    np.multiply(b, np.uint64(m), out=b)


def trial_uniforms(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """The first `n` uniforms of the streams of trials [start, start+count)
    as a (count, n) float64 array: row k equals
    `trial_rng(seed, start + k).random(n)` bit for bit.  Each counter word
    is one (blocks, count) uint64 buffer, allocated once with two
    high-word and three scratch buffers: a round multiplies c0 and c2 in
    place, XORs the high words with c1, c3 and the key into the spare
    buffers and renames the six, so the rounds copy and allocate nothing.
    Round 1 sees counter (b + 1, 0, 0, 0) and key word k0 = seed, so it
    leaves c0 = seed, c1 = 0, c3 = lo(M0 (b + 1)) and c2 = hi(M0 (b + 1)) ^ k1
    for block b, and the c0 half of round 2 is one product too: both run on
    per-block scalars, and the buffers start at round 2's c2 half."""
    blocks = -(-n // 4)
    c0, c1, c2, c3, hi0, hi1, t, u, v = np.empty((9, blocks, count), dtype=np.uint64)
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    hi_b, lo_b = np.array([divmod(m0 * b, 2**64) for b in range(1, blocks + 1)], dtype=np.uint64).T[:, :, None]
    hi_seed, lo_seed = divmod(m0 * seed, 2**64)
    k1 = np.uint64(start) + np.arange(count, dtype=np.uint64)
    np.bitwise_xor(hi_b, k1, out=c2)
    np.add(k1, np.uint64(w1), out=k1)
    # round 2, under key (seed + w0, k1)
    _mulhilo(m1, c2, hi1, t, u, v)
    np.bitwise_xor(hi1, np.uint64((seed + w0) % 2**64), out=c0)
    np.bitwise_xor(lo_b ^ np.uint64(hi_seed), k1, out=c3)
    c1.fill(lo_seed)
    c1, c2, c3 = c2, c3, c1
    np.add(k1, np.uint64(w1), out=k1)
    # k0 is one word, a Python int, so it wraps without numpy's overflow warning
    k0 = (seed + 2 * w0) % 2**64
    for _ in range(_ROUNDS - 2):
        _mulhilo(m0, c0, hi0, t, u, v)
        _mulhilo(m1, c2, hi1, t, u, v)
        np.bitwise_xor(hi1, c1, out=hi1)
        np.bitwise_xor(hi1, np.uint64(k0), out=hi1)
        np.bitwise_xor(hi0, c3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        c0, c1, c2, c3, hi0, hi1 = hi1, c2, hi0, c0, c1, c3
        k0 = (k0 + w0) % 2**64
        np.add(k1, np.uint64(w1), out=k1)
    # filled word by word and returned transposed, so word j of every
    # stream is one contiguous column
    out = np.empty((n, count))
    for w, c in enumerate((c0, c1, c2, c3)):
        rows = out[w::4]
        word = c[: len(rows)]
        np.right_shift(word, np.uint64(11), out=word)
        np.multiply(word, 2.0**-53, out=rows)
    return out.T


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

