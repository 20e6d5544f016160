"""Monte Carlo detection, which needs numpy (directly or through `rng`):
`measure` and the `Sampler` of a `PreparedBellAnalyzer` (its `sampler`).
The sampled driver of the heralded protocols lives in `protocols`, which
imports this module lazily; this module imports nothing of `protocols`.
Exact runs never import it.

A `Sampler` turns each word of a trial's stream into click bits by one
comparison with a threshold table per (word, pattern), a loss word's found
by bisecting `rng.binomial_draw`, and the tables hold the edge cases: a
loss draw that is never 0 ((1 - eta)^n < 2^-53) clicks on every word, one
that is always -1 (numpy's BTPE, n * min(eta, 1 - eta) > 30) redraws every
trial that reads it, and no loss word is read at eta = 0 (photons never
click) or eta = 1 (they always do), nor a dark word at dark_prob = 0.
`protocols._run` cuts a run into `_BLOCK`-trial chunks, one pool task
each, and `Sampler.sample_block` draws a longer range `_BLOCK` trials at a
time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .detection import ClickPattern, DetectorSpec, PreparedBellAnalyzer
from .detection import _code_probabilities, _condition_on_pattern, _distribution, _split_branches
from .fock import MixedState, PureState

#: the chunk of a sampled run (one pool task), and the most trials whose
#: uniforms `sample_block` draws at once: `trial_uniforms` then works on nine 64 KB
#: uint64 buffers per Philox block of four words, 1.2 MB at widths 5 to 8,
#: inside a 2 MB L2 cache; of 2048 to 12288 trials, 8192 timed best per trial
_BLOCK = 8192


def _sample_clicks(true_counts: Sequence[int], specs: Sequence[DetectorSpec], labels: Sequence[str], rng) -> ClickPattern:
    counts = []
    for n, spec, label in zip(true_counts, specs, labels):
        seen = n if spec.efficiency >= 1.0 else int(rng.binomial(n, spec.efficiency)) if n else 0
        if spec.dark_prob > 0.0 and rng.random() < spec.dark_prob:
            seen += 1
        counts.append((label, seen))
    clicks = frozenset(label for label, seen in counts if seen)
    return ClickPattern(clicks, tuple(counts) if any(spec.resolving for spec in specs) else ())


def measure(state: PureState | MixedState, detectors: Mapping, rng) -> tuple[ClickPattern, MixedState, float]:
    """Measure the modes named in `detectors` (mode -> DetectorSpec).

    Returns the observed click pattern, the conditional state given the
    true photon-number outcome, and the total probability of observing
    that click pattern.
    """
    modes = list(detectors)
    specs = [detectors[m] for m in modes]
    labels = [m if isinstance(m, str) else m.name for m in modes]
    split = _split_branches(state, modes)
    dist = _distribution(split)
    pick = rng.choice(len(dist), p=[p for _, p in dist])
    true = dist[pick][0]
    pattern = _sample_clicks(true, specs, labels, rng)
    conditional = _condition_on_pattern(split, true)
    code = sum(1 << j for j, lab in enumerate(labels) if lab in pattern.clicks)
    return pattern, conditional, sum(p * dict(_code_probabilities(occ, specs)).get(code, 0.0) for occ, p in dist)


@lru_cache(maxsize=64)
def _loss_word(n: int, eta: float) -> tuple[float, bool, bool, float]:
    """The threshold table of a loss word of a detector that saw `n`
    photons at efficiency `eta`: the threshold, whether the word clicks
    below it and at or above it, and the redraw threshold.  The draw
    `rng.binomial_draw(n, eta, word)` is monotone in the word and -1 only
    tops the range, so the click (a draw above 0) flips at most once, and
    two bisections find the redraw edge and the flip, if it comes first."""
    from .rng import binomial_draw
    below = binomial_draw(n, eta, 0.0) > 0

    def first(stop) -> int:
        # the first word m < 2^53 whose draw meets `stop`, or 2^53: from there on, every one does
        lo, hi = -1, 2**53
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if stop(binomial_draw(n, eta, mid * 2.0**-53)) else (mid, hi)
        return hi

    redraw = first(lambda draw: draw < 0)
    flip = first(lambda draw: draw < 0 or (draw > 0) != below)
    flips = flip < redraw
    return flip * 2.0**-53 if flips else 0.0, below, below != flips, redraw * 2.0**-53 if redraw < 2**53 else math.inf


class Sampler:
    """Trials of one analyzer under its `detector`: the cumulative Born
    weights of its `distribution`, and per stream word and pattern the
    threshold table that turns the word into click bits."""

    def __init__(self, prep: PreparedBellAnalyzer):
        self.prep = prep
        patterns, eta, dark = [occ for occ, _ in prep.distribution], prep.detector.efficiency, prep.detector.dark_prob
        self._cum = np.cumsum([p for _, p in prep.distribution])
        # per pattern, the words after word 0 in stream order: detector by detector, a loss
        # word if it saw photons and 0 < eta < 1, then a dark word if dark_prob > 0
        words = [
            [w for j, n in enumerate(occ) for w in ([(*_loss_word(n, eta), 1 << j)] if n and 0.0 < eta < 1.0 else [])
             + [(dark, True, False, math.inf, 1 << j)] * (dark > 0.0)]
            for occ in patterns
        ]
        #: most words one trial's stream reads
        self._width = 1 + max(map(len, words))
        padded = [row + [(0.0, False, False, math.inf, 0)] * (self._width - 1 - len(row)) for row in words]
        table = np.array(padded).reshape(len(patterns), self._width - 1, 5).transpose(1, 0, 2)
        #: [word, pattern]: the threshold and the redraw threshold
        self._edge, self._redraw = table[..., 0].copy(), table[..., 3].copy()
        #: flat [word, pattern, at or above the threshold]: the click bits (clicks times detector bit)
        self._bits = (table[..., 1:3] * table[..., 4:]).astype(np.uint8).ravel()
        #: the click code of each pattern at eta = 1, which reads no loss word
        self._base = np.array([sum(1 << j for j, n in enumerate(occ) if n) * (eta >= 1.0) for occ in patterns], np.uint8)

    def pick(self, u):
        """Index into `distribution` of the true pattern that uniform `u`
        (a float or an array of them) selects by the Born rule."""
        return np.minimum(np.searchsorted(self._cum, u, side="right"), len(self._cum) - 1)

    def sample(self, rng) -> tuple[str, int, tuple[int, ...]]:
        """One trial on generator `rng`: its outcome, click code and true
        photon numbers."""
        prep = self.prep
        true = prep.distribution[self.pick(rng.random())][0]
        clicks = _sample_clicks(true, [prep.detector] * len(true), prep.labels, rng)
        code = sum(1 << j for j, label in enumerate(prep.labels) if label in clicks)
        return prep.outcomes[code], code, true

    def sample_block(self, seed: int, start: int, count: int) -> np.ndarray:
        """`sample` on the streams `trial_rng(seed, i)` of trials
        [start, start+count), drawn in bulk `_BLOCK` trials at a time into one
        array: one uint16 key per trial, its index into `distribution` times 16
        plus its click code (`_MAX_OUTCOMES` patterns fit).  Word 0 of a stream
        picks the true pattern, which fixes what each later word is: one
        comparison with its threshold gives its click bits, the code ORs them,
        and a trial with a word at or above its redraw threshold (its loss draw
        needs a second word) runs the analyzer's `sample` on its own generator."""
        from .rng import trial_rng, trial_uniforms
        keys = np.empty(count, np.uint16)
        for lo in range(0, count, _BLOCK):
            u = trial_uniforms(seed, start + lo, min(_BLOCK, count - lo), self._width).T
            pick = self.pick(u[0])
            words = u[1:]
            index = np.arange(0, self._bits.size, 2 * len(self._cum))[:, None] + 2 * pick
            index += words >= self._edge.take(pick, axis=1)
            code = np.bitwise_or.reduce(self._bits.take(index), axis=0) | self._base[pick]
            redraw = (words >= self._redraw.take(pick, axis=1)).any(axis=0)
            for i in np.flatnonzero(redraw).tolist():
                code[i] = self.prep.sample(trial_rng(seed, start + lo + i))[1]
            keys[lo : lo + len(pick)] = pick * len(self.prep.outcomes) + code
        return keys
