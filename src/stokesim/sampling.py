"""Monte Carlo detection, which needs numpy (directly or through `rng`):
`measure`, the `Sampler` of a `PreparedBellAnalyzer` (its `sampler`) and
the sampled driver of the heralded protocols.  Exact runs never import
this module; `detection` and `protocols` still resolve the names that
moved here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from . import protocols
from .detection import FAIL, PSI_MINUS, PSI_PLUS, ClickPattern, DetectorSpec, PreparedBellAnalyzer
from .detection import _condition_on_pattern, _distribution, _split_branches
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


def _sample_clicks(
    true_counts: Sequence[int], specs: Sequence[DetectorSpec], labels: Sequence[str], rng
) -> ClickPattern:
    counts = []
    for n, spec, label in zip(true_counts, specs, labels):
        seen = n if spec.efficiency >= 1.0 else int(rng.binomial(n, spec.efficiency)) if n else 0
        if spec.dark_prob > 0.0 and rng.random() < spec.dark_prob:
            seen += 1
        counts.append((label, seen))
    clicks = frozenset(label for label, seen in counts if seen)
    return ClickPattern(clicks, tuple(counts) if any(spec.resolving for spec in specs) else ())


def _pattern_probability(
    dist: list[tuple[tuple[int, ...], float]], specs: Sequence[DetectorSpec], clicked: Sequence[bool]
) -> float:
    total = 0.0
    for occ, p in dist:
        factor = 1.0
        for n, spec, hit in zip(occ, specs, clicked):
            q = spec.click_prob(n)
            factor *= q if hit else (1.0 - q)
        total += p * factor
    return total


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
    clicked = [lab in pattern.clicks for lab in labels]
    return pattern, conditional, _pattern_probability(dist, specs, clicked)


class Sampler:
    """Trials of one analyzer under its `detector`: the cumulative Born
    weights and photon-number rows of its `distribution`, and the binomial
    step tables and stream width that the detector needs."""

    def __init__(self, prep: PreparedBellAnalyzer):
        self.prep = prep
        patterns, eta = [occ for occ, _ in prep.distribution], prep.detector.efficiency
        self._cum = np.cumsum([p for _, p in prep.distribution])
        #: the true photon numbers of `distribution`, one row per pattern
        self._occupations = np.array(patterns)
        #: binomial step tables per photon number a detector sees, when 0 < eta < 1
        self._steps = [_step_table(k, eta) for k in sorted({n for occ in patterns for n in occ} - {0})] if 0.0 < eta < 1.0 else []
        loss_words = max(sum(n > 0 for n in occ) for occ in patterns) if self._steps else 0
        #: most words one trial's stream reads
        self._width = 1 + loss_words + (len(prep.labels) if prep.detector.dark_prob > 0.0 else 0)

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
        picks the true pattern; then each detector in turn reads one word
        for its binomial loss draw if it saw photons and 0 < eta < 1, and
        one for its dark count if dark_prob > 0.  A trial whose loss draw
        needs a second word runs the analyzer's `sample` on its own generator."""
        from .rng import trial_rng, trial_uniforms
        if count > _BLOCK:
            blocks = range(start, start + count, _BLOCK)
            return np.concatenate([self.sample_block(seed, lo, min(_BLOCK, start + count - lo)) for lo in blocks])
        prep, occupations, width, dark = self.prep, self._occupations, self._width, self.prep.detector.dark_prob
        u = trial_uniforms(seed, start, count, width)
        rows = np.arange(count)
        pick = self.pick(u[:, 0])
        col, code, redraw = np.ones(count, np.intp), np.zeros(count, np.intp), np.zeros(count, bool)
        for j in range(len(prep.labels)):
            n = occupations[pick, j]
            seen = n * (prep.detector.efficiency == 1.0)
            if self._steps:
                # trials without photons here read a word they ignore
                word = u[rows, np.minimum(col, width - 1)]
                for k, edges, values in self._steps:
                    sel = n == k
                    seen[sel] = values[np.searchsorted(edges, word[sel], side="right")]
                col += n > 0
                redraw |= seen < 0
            click = seen != 0
            if dark > 0.0:
                click |= u[rows, col] < dark
                col += 1
            code |= click << j
        for i in np.flatnonzero(redraw).tolist():
            code[i] = prep.sample(trial_rng(seed, start + i))[1]
        return (pick * len(prep.outcomes) + code).astype(np.uint16)


class _SampledProtocol:
    """Prepared analyzer of one heralded protocol, and the fidelity of its
    corrected conditional per (true detection pattern, outcome)."""

    def __init__(self, config: protocols.ProtocolConfig, kind: str, channel: PureState | None = None):
        self.config = config
        self.spec = protocols.HERALDED[kind]
        joint = self.spec.joint_state(config, channel)
        self.prep = PreparedBellAnalyzer(joint, *self.spec.paths, config.detector)

    def fidelity(self, true: tuple[int, ...], outcome: str) -> float:
        return self.spec.fidelity(self.config, self.prep, [(true, outcome, float)])  # branches keep their weights


@lru_cache(maxsize=8)
def _cached_protocol(config: protocols.ProtocolConfig, kind: str, channel: PureState | None) -> _SampledProtocol:
    # a channel state hashes by identity, so one run reuses its protocol
    return _SampledProtocol(config, kind, channel)


def summarize(config: protocols.ProtocolConfig, kind: str, keys: np.ndarray, channel: PureState | None = None) -> dict:
    """`protocols.summarize_sampled`: counts tallied in place, one fidelity per
    distinct herald key, summed over the heralds in trial order."""
    sp = _cached_protocol(config, kind, channel)
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
