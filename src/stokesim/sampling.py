"""Monte Carlo detection, which needs numpy (directly or through `rng`):
`measure`, the `Sampler` of a `PreparedBellAnalyzer` (its `sampler`) and
the sampled driver of the heralded protocols, which reads each run's
prepared analyzer off `protocols._cached_protocol`.  Exact runs never
import this module.

A `Sampler` turns each word of a trial's stream into click bits by one
comparison with a threshold table per (word, pattern), and the tables hold
the edge cases: a loss table without a zero ((1 - eta)^n < 2^-53) clicks
on every word, an all -1 table (numpy's BTPE, n * min(eta, 1 - eta) > 30)
redraws every trial that reads it, and no loss word is read at eta = 0
(photons never click) or eta = 1 (they always do), nor a dark word at
dark_prob = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from . import protocols
from .detection import FAIL, PSI_MINUS, PSI_PLUS, ClickPattern, DetectorSpec, PreparedBellAnalyzer
from .detection import _code_probabilities, _condition_on_pattern, _distribution, _split_branches
from .fock import MixedState, PureState

#: most trials whose uniforms are drawn at once, and the chunk of a
#: sampled run (one pool task): `trial_uniforms` then works on nine 64 KB
#: uint64 buffers per Philox block of four words, 1.2 MB at widths 5 to 8,
#: inside a 2 MB L2 cache; of 2048 to 12288 trials, 8192 timed best per trial
_BLOCK = 8192


@lru_cache(maxsize=64)
def _step_table(n: int, eta: float) -> tuple:
    """n and the read-only `rng.binomial_steps(n, eta)`, built once per (n, eta)."""
    from .rng import binomial_steps
    return (n, *binomial_steps(n, eta))


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


def _loss_word(table: tuple, bit: int) -> tuple[float, int, int, float]:
    """The threshold table of a loss word of the detector with click bit
    `bit`, from its `_step_table` (n, edges, values): the threshold, the
    bit the word sets below it and at or above it, and the redraw
    threshold.  The draws are monotone in the word and -1 only tops the
    table, so the click (a draw above 0) flips at most once, and a table
    without a zero has no flip."""
    _, edges, values = table
    kept = int((values >= 0).sum())
    clicks = (values[:kept] != 0).tolist() or [False]
    flip = [k for k in range(kept - 1) if clicks[k] != clicks[k + 1]]
    redraw = math.inf if kept == len(values) else float(edges[kept - 1]) if kept else 0.0
    return float(edges[flip[0]]) if flip else 0.0, bit * clicks[0], bit * clicks[-1], redraw


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
            [w for j, n in enumerate(occ) for w in ([_loss_word(_step_table(n, eta), 1 << j)] if n and 0.0 < eta < 1.0 else [])
             + [(dark, 1 << j, 0, math.inf)] * (dark > 0.0)]
            for occ in patterns
        ]
        #: most words one trial's stream reads
        self._width = 1 + max(map(len, words))
        padded = [row + [(0.0, 0, 0, math.inf)] * (self._width - 1 - len(row)) for row in words]
        table = np.array(padded).reshape(len(patterns), self._width - 1, 4).transpose(1, 0, 2)
        #: [word, pattern]: the threshold and the redraw threshold
        self._edge, self._redraw = table[..., 0].copy(), table[..., 3].copy()
        #: flat [word, pattern, at or above the threshold]: the click bits
        self._bits = table[..., 1:3].astype(np.uint8).ravel()
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
        [start, start+count), drawn in bulk `_BLOCK` trials at a time: one
        uint16 key per trial, its index into `distribution` times 16 plus
        its click code (`_MAX_OUTCOMES` patterns fit).  Word 0 of a stream
        picks the true pattern, which fixes what each later word is: one
        comparison with its threshold gives its click bits, the code ORs
        them, and a trial with a word at or above its redraw threshold (its
        loss draw needs a second word) runs the analyzer's `sample` on its
        own generator."""
        from .rng import trial_rng, trial_uniforms
        if count > _BLOCK:
            blocks = range(start, start + count, _BLOCK)
            return np.concatenate([self.sample_block(seed, lo, min(_BLOCK, start + count - lo)) for lo in blocks])
        u = trial_uniforms(seed, start, count, self._width).T
        pick = self.pick(u[0])
        words = u[1:]
        index = np.arange(0, self._bits.size, 2 * len(self._cum))[:, None] + 2 * pick
        index += words >= self._edge.take(pick, axis=1)
        code = np.bitwise_or.reduce(self._bits.take(index), axis=0) | self._base[pick]
        redraw = (words >= self._redraw.take(pick, axis=1)).any(axis=0)
        for i in np.flatnonzero(redraw).tolist():
            code[i] = self.prep.sample(trial_rng(seed, start + i))[1]
        return (pick * len(self.prep.outcomes) + code).astype(np.uint16)


def summarize(config: protocols.ProtocolConfig, kind: str, keys: np.ndarray, channel: PureState | None = None) -> dict:
    """`protocols.summarize_sampled`: counts tallied in place, one fidelity per
    distinct herald key, summed over the heralds in trial order."""
    sp = protocols._cached_protocol(config, kind, channel)
    tally = np.zeros(int(keys.max()) + 1, np.intp)
    np.add.at(tally, keys, 1)
    counts = {PSI_MINUS: 0, PSI_PLUS: 0, FAIL: 0}
    fids = np.full(len(tally), np.nan)
    for key in np.flatnonzero(tally).tolist():
        true, outcome = sp.prep.decode(key)
        counts[outcome] += int(tally[key])
        if outcome != FAIL:
            fids[key] = sp.fidelity(true, outcome)
    herald_fids = fids[keys[~np.isnan(fids)[keys]]]
    successes = len(herald_fids)
    trials = len(keys)
    low, high = protocols.wilson_interval(successes, trials)
    return {
        **protocols._cut_weights(sp.prep.state),
        "trials": trials,
        "seed": config.seed,
        "eta": config.detector.efficiency,
        "dark_prob": config.detector.dark_prob,
        "success_count": successes,
        "success_rate": successes / trials,
        "wilson_low": low,
        "wilson_high": high,
        "psi_minus_count": counts[PSI_MINUS],
        "psi_plus_count": counts[PSI_PLUS],
        "mean_" + protocols.HERALDED[kind].fidelity_key: float(np.cumsum(herald_fids)[-1]) / successes if successes else None,
    }


def run_sampled(spec: protocols.HeraldedSpec, config: protocols.ProtocolConfig, channel: PureState | None, chunk_map) -> dict:
    """Monte Carlo run with the configured detectors: `chunk_map` runs
    `protocols.trial_outcomes` on consecutive `_BLOCK`-trial chunks, one pool
    task each, and `protocols.summarize_sampled` aggregates the joined keys."""
    starts = range(0, config.trials, _BLOCK)
    counts = [min(_BLOCK, config.trials - s) for s in starts]
    parts = chunk_map(protocols.trial_outcomes, repeat(config), repeat(spec.name), starts, counts, repeat(channel))
    report = spec.header(config)
    report.update(protocols.summarize_sampled(config, spec.name, np.concatenate(list(parts)), channel))
    return report
