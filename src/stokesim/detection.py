"""Threshold photodetection and the two-path Bell-state analyzer.

Detection is a two-stage story.  The quantum part is a projective
measurement of photon number on the measured modes, sampled by the Born
rule; this fixes the conditional state of everything not measured.  Both
the Born weights and the conditional states come from one grouping of
the state's terms by those photon numbers (`fock.split_by_occupation`).
The classical part turns true photon numbers into clicks: each photon is
seen with probability `efficiency`, a threshold detector reports only
click/no-click, and a dark count ORs in a spurious click per window.
Dark counts never alter the conditional state; they only corrupt the
classical record.

The Bell-state analyzer interferes two linear-basis paths on a balanced
beam splitter, splits each output by polarization onto detectors D_H and
D_V (first side) and D_H' and D_V' (second side), and classifies click
coincidences: one H click and one V click on opposite sides heralds the
singlet, on the same side the triplet; every other pattern is a failure.
Both same-polarization inputs bunch into one detector, which is why only
two of the four Bell states are ever identified.

`PreparedBellAnalyzer` is the one place where a trial becomes a click
code (bit j set when detector `labels[j]` clicked) and an outcome: its
`outcomes` table, built from `default_herald_rule()`, serves the exact
outcome distribution, the scalar `sample` on a trial's own generator and
`sample_block`, which draws many trials at once from the Philox words of
their streams (`rng.trial_uniforms`), binomial loss draws included
(`rng.binomial_steps`), and keys each trial by its true pattern and
click code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import elements, fock
from .errors import ValidationError
from .fock import LOSS, MixedState, PureState, as_mixed
from .rng import binomial_steps, trial_rng, trial_uniforms

PSI_MINUS = "PsiMinus"
PSI_PLUS = "PsiPlus"
FAIL = "Fail"

D_H, D_V, D_HP, D_VP = "D_H", "D_V", "D_H'", "D_V'"

_MAX_OUTCOMES = 4096

#: most trials whose uniforms are drawn at once; larger blocks outgrow
#: the CPU cache and run slower per trial
_BLOCK = 8192


@dataclass(frozen=True)
class DetectorSpec:
    """Threshold single-photon detector model."""

    efficiency: float = 1.0
    dark_prob: float = 1e-5
    resolving: bool = False

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError(f"efficiency {self.efficiency} outside [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValidationError(f"dark_prob {self.dark_prob} outside [0, 1)")

    def click_prob(self, n: int) -> float:
        """Probability this detector clicks on n incident photons."""
        return 1.0 - (1.0 - self.efficiency) ** n * (1.0 - self.dark_prob)


@dataclass(frozen=True)
class ClickPattern:
    """Set of detectors that fired; `counts` present only when a
    number-resolving detector took part."""

    clicks: frozenset
    counts: tuple = ()

    def __contains__(self, label) -> bool:
        return label in self.clicks


@dataclass(frozen=True)
class HeraldRule:
    """Mapping from click patterns to protocol outcomes; unlisted
    patterns are failures."""

    patterns: tuple

    def classify(self, pattern: ClickPattern | frozenset) -> str:
        clicks = pattern.clicks if isinstance(pattern, ClickPattern) else frozenset(pattern)
        for pat, outcome in self.patterns:
            if pat == clicks:
                return outcome
        return FAIL


def default_herald_rule() -> HeraldRule:
    return HeraldRule(
        (
            (frozenset({D_H, D_VP}), PSI_MINUS),
            (frozenset({D_V, D_HP}), PSI_MINUS),
            (frozenset({D_H, D_V}), PSI_PLUS),
            (frozenset({D_HP, D_VP}), PSI_PLUS),
        )
    )


def exact_outcome_distribution(
    state: PureState | MixedState, modes: Sequence
) -> list[tuple[tuple[int, ...], float]]:
    """Exhaustive Born distribution of photon numbers on `modes`: the
    patterns of nonzero weight, normalized, sorted."""
    return _distribution(_split_branches(state, modes))


def _split_branches(state: PureState | MixedState, modes: Sequence) -> list[tuple[float, dict]]:
    """Each branch of `state` with its terms grouped by true photon
    numbers on `modes` (see `fock.split_by_occupation`)."""
    return [(w, fock.split_by_occupation(st, modes)) for w, st in as_mixed(state).branches]


def _distribution(split: list[tuple[float, dict]]) -> list[tuple[tuple[int, ...], float]]:
    """Born distribution of the split's patterns: branch weight times
    group weight, summed per pattern, normalized, sorted by pattern."""
    probs: dict[tuple[int, ...], float] = {}
    for w, groups in split:
        for pattern, (weight, _) in groups.items():
            probs[pattern] = probs.get(pattern, 0.0) + w * weight
    if len(probs) > _MAX_OUTCOMES:
        raise ValidationError(f"outcome space has {len(probs)} patterns, bound is {_MAX_OUTCOMES}")
    total = sum(probs.values())
    if total <= 0.0:
        raise ValidationError("state has no weight on the measured modes")
    return sorted((occ, p / total) for occ, p in probs.items())


def _condition_on_pattern(split: list[tuple[float, dict]], pattern: tuple[int, ...]) -> MixedState:
    """State of the rest of the system given true photon numbers
    `pattern` on the split modes: measured modes removed, loss modes
    traced."""
    kept: list[tuple[float, PureState]] = []
    for w, groups in split:
        if pattern in groups:
            weight, rest = groups[pattern]
            kept.append((w * weight, rest))
    if not kept:
        raise ValidationError(f"pattern {pattern} has zero probability")
    total = sum(w for w, _ in kept)
    conditional = MixedState([(w / total, s) for w, s in kept])
    lossy = [m.name for m in conditional.registry.modes if m.kind == LOSS]
    if lossy:
        conditional = fock.trace_out(conditional, lossy)
    return conditional


def _sample_clicks(
    true_counts: Sequence[int], specs: Sequence[DetectorSpec], labels: Sequence[str], rng
) -> ClickPattern:
    clicks = set()
    counts = []
    resolving = False
    for n, spec, label in zip(true_counts, specs, labels):
        seen = n if spec.efficiency >= 1.0 else int(rng.binomial(n, spec.efficiency)) if n else 0
        if spec.dark_prob > 0.0 and rng.random() < spec.dark_prob:
            seen += 1
        if seen:
            clicks.add(label)
        if spec.resolving:
            resolving = True
        counts.append((label, seen))
    return ClickPattern(frozenset(clicks), tuple(counts) if resolving else ())


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


def measure(
    state: PureState | MixedState, detectors: Mapping, rng
) -> tuple[ClickPattern, MixedState, float]:
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
    pick = rng.choice(len(dist), p=np.array([p for _, p in dist]))
    true = dist[pick][0]
    pattern = _sample_clicks(true, specs, labels, rng)
    conditional = _condition_on_pattern(split, true)
    clicked = [lab in pattern.clicks for lab in labels]
    return pattern, conditional, _pattern_probability(dist, specs, clicked)


class PreparedBellAnalyzer:
    """Bell-state analyzer with the optical network applied once up
    front, so repeated trials only sample detector clicks.

    The input must carry two linear-basis paths; the first named path
    feeds detectors D_H/D_V, the second D_H'/D_V'.  All four detectors
    follow `detector`.
    """

    def __init__(
        self,
        state: PureState,
        path_1: str,
        path_2: str,
        detector: DetectorSpec = DetectorSpec(),
    ):
        st = elements.beam_splitter(state, path_1, path_2)
        st, out_1h, out_1v = elements.pol_splitter(st, path_1)
        st, out_2h, out_2v = elements.pol_splitter(st, path_2)
        self.state = st
        self.modes = [f"{out_1h}:H", f"{out_1v}:V", f"{out_2h}:H", f"{out_2v}:V"]
        self.labels = [D_H, D_V, D_HP, D_VP]
        self.detector = detector
        rule = default_herald_rule()
        #: outcome of each click code; bit j is set when labels[j] clicked
        self.outcomes = tuple(
            rule.classify(frozenset(lab for j, lab in enumerate(self.labels) if code >> j & 1))
            for code in range(1 << len(self.labels))
        )
        self._split = _split_branches(st, self.modes)
        self.distribution = _distribution(self._split)
        self._cum = np.cumsum([p for _, p in self.distribution])
        self._occupations = np.array([occ for occ, _ in self.distribution])
        eta = detector.efficiency
        #: binomial step tables per photon number a detector sees, when 0 < eta < 1
        self._steps = (
            [(k, *binomial_steps(k, eta)) for k in sorted(set(self._occupations.flat) - {0})]
            if 0.0 < eta < 1.0 else []
        )
        loss_words = int((self._occupations > 0).sum(axis=1).max()) if self._steps else 0
        #: most words one trial's stream reads
        self._width = 1 + loss_words + (len(self.labels) if detector.dark_prob > 0.0 else 0)

    def conditional(self, true_pattern: tuple[int, ...]) -> MixedState:
        return _condition_on_pattern(self._split, true_pattern)

    def pick(self, u):
        """Index into `distribution` of the true pattern that uniform `u`
        (a float or an array of them) selects by the Born rule."""
        return np.minimum(np.searchsorted(self._cum, u, side="right"), len(self._cum) - 1)

    def sample(self, rng) -> tuple[str, int, tuple[int, ...]]:
        """One trial on generator `rng`: its outcome, click code and true
        photon numbers."""
        true = self.distribution[self.pick(rng.random())][0]
        clicks = _sample_clicks(true, [self.detector] * len(true), self.labels, rng)
        code = sum(1 << j for j, label in enumerate(self.labels) if label in clicks)
        return self.outcomes[code], code, true

    def sample_block(self, seed: int, start: int, count: int) -> np.ndarray:
        """`sample` on the streams `trial_rng(seed, i)` of trials
        [start, start+count), drawn in bulk `_BLOCK` trials at a time: one
        uint16 key per trial, its index into `distribution` times 16 plus
        its click code (`_MAX_OUTCOMES` patterns fit).  Word 0 of a stream
        picks the true pattern; then each detector in turn reads one word
        for its binomial loss draw if it saw photons and 0 < eta < 1, and
        one for its dark count if dark_prob > 0.  A trial whose loss draw
        needs a second word runs `sample` on its own generator."""
        if count > _BLOCK:
            blocks = range(start, start + count, _BLOCK)
            return np.concatenate([self.sample_block(seed, lo, min(_BLOCK, start + count - lo)) for lo in blocks])
        occupations, width, dark = self._occupations, self._width, self.detector.dark_prob
        u = trial_uniforms(seed, start, count, width)
        rows = np.arange(count)
        pick = self.pick(u[:, 0])
        col, code, redraw = np.ones(count, np.intp), np.zeros(count, np.intp), np.zeros(count, bool)
        for j in range(len(self.labels)):
            n = occupations[pick, j]
            seen = n * (self.detector.efficiency == 1.0)
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
            code[i] = self.sample(trial_rng(seed, start + i))[1]
        return (pick * len(self.outcomes) + code).astype(np.uint16)

    def decode(self, key: int) -> tuple[tuple[int, ...], str]:
        """True photon numbers and outcome of a `sample_block` key."""
        pick, code = divmod(key, len(self.outcomes))
        return self.distribution[pick][0], self.outcomes[code]

    def exact_outcomes(self) -> list[tuple[str, MixedState | None, float]]:
        """Outcome distribution with ideal detectors: every mode with at
        least one photon clicks.  Returns (outcome, conditional state,
        probability) for PsiMinus, PsiPlus and Fail.  A herald's
        conditional is mixed over its click-degenerate true patterns; the
        failure's state, and that of an outcome that never occurs, is None."""
        grouped: dict[str, list[tuple[tuple[int, ...], float]]] = {PSI_MINUS: [], PSI_PLUS: [], FAIL: []}
        for occ, p in self.distribution:
            grouped[self.outcomes[sum((n > 0) << j for j, n in enumerate(occ))]].append((occ, p))
        out = []
        for outcome in (PSI_MINUS, PSI_PLUS, FAIL):
            entries = grouped[outcome]
            prob = sum(p for _, p in entries)
            if prob <= 0.0:
                out.append((outcome, None, 0.0))
            elif outcome == FAIL:
                out.append((outcome, None, prob))
            else:
                branches: list[tuple[float, PureState]] = []
                for occ, p in entries:
                    for w, st in self.conditional(occ).branches:
                        branches.append((p / prob * w, st))
                out.append((outcome, MixedState(branches), prob))
        return out
