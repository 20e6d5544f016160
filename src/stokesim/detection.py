"""Threshold photodetection and the two-path Bell-state analyzer.

Detection is a two-stage story.  The quantum part is a projective
measurement of photon number on the measured modes, sampled by the Born
rule; this fixes the conditional state of everything not measured.  Both
the Born weights and the conditional states come from one grouping of
the state's terms by those photon numbers (a `fock.Split`).
The classical part turns true photon numbers into clicks: each photon is
seen with probability `efficiency`, a threshold detector reports only
click/no-click, and a dark count ORs in a spurious click per window, so
P(code | pattern) is a product of `click_prob(n)` and its complement
(`_code_probabilities`).  Loss and dark counts never alter the
conditional state; they only corrupt the classical record.

The Bell-state analyzer interferes two linear-basis paths on a balanced
beam splitter, splits each output by polarization onto detectors D_H and
D_V (first side) and D_H' and D_V' (second side), and classifies click
coincidences: one H click and one V click on opposite sides heralds the
singlet, on the same side the triplet; every other pattern is a failure.
Both same-polarization inputs bunch into one detector, which is why only
two of the four Bell states are ever identified.

`PreparedBellAnalyzer` is the one place where a trial becomes a click
code (bit j set when detector `labels[j]` clicked) and an outcome: its
`outcomes` table, built from `default_herald_rule()` once at import,
serves the exact outcome distribution (`outcome_weights`) and the
analyzer's `sampler`.  What an analyzer reads off its input's registry and
term keys alone is one layout record (`_analyzer_layout`), built once per
layout and shared by every analyzer of it; an analyzer keeps each
pattern's conditional once built (`conditional`).  What draws random
numbers, `measure` and the samplers, needs numpy and lives in `sampling`,
which exact runs never import; the sampled driver of the heralded
protocols lives in `protocols`.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Sequence

from . import elements, fock
from .errors import ValidationError
from .fock import LOSS, MixedState, PureState, Record, as_mixed

PSI_MINUS = "PsiMinus"
PSI_PLUS = "PsiPlus"
FAIL = "Fail"

D_H, D_V, D_HP, D_VP = "D_H", "D_V", "D_H'", "D_V'"
_LABELS = (D_H, D_V, D_HP, D_VP)

_MAX_OUTCOMES = 4096


class DetectorSpec(Record):
    """Threshold single-photon detector model."""

    efficiency: float = 1.0
    dark_prob: float = 1e-5
    resolving: bool = False

    _ranges = {"efficiency": (0.0, 1.0, "[0, 1]"), "dark_prob": (0.0, 1.0, "[0, 1)")}

    def click_prob(self, n: int) -> float:
        """Probability this detector clicks on n incident photons."""
        return 1.0 - (1.0 - self.efficiency) ** n * (1.0 - self.dark_prob)


class ClickPattern(Record):
    """Set of detectors that fired; `counts` present only when a
    number-resolving detector took part."""

    clicks: frozenset
    counts: tuple = ()

    def __contains__(self, label) -> bool:
        return label in self.clicks


class HeraldRule(Record):
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


#: the outcome of each click code under `default_herald_rule()`, bit j set when `_LABELS[j]` clicked
_OUTCOMES = tuple(default_herald_rule().classify({lab for j, lab in enumerate(_LABELS) if code >> j & 1}) for code in range(1 << len(_LABELS)))


def _code_probabilities(occ: Sequence[int], detectors: Sequence[DetectorSpec]) -> list[tuple[int, float]]:
    """(code, P(code | occ)) of each click code of nonzero probability,
    detector j seeing occ[j] photons: zero factors are skipped."""
    codes = [(0, 1.0)]
    for j, (n, detector) in enumerate(zip(occ, detectors)):
        q = detector.click_prob(n)
        codes = [(code | bit, p * f) for code, p in codes for bit, f in ((0, 1.0 - q), (1 << j, q)) if f]
    return codes


def exact_outcome_distribution(state: PureState | MixedState, modes: Sequence) -> list[tuple[tuple[int, ...], float]]:
    """Exhaustive Born distribution of photon numbers on `modes`: the
    patterns of nonzero weight, normalized, sorted."""
    return _distribution(_split_branches(state, modes))


def _split_branches(state: PureState | MixedState, modes: Sequence) -> list[tuple[float, fock.Split]]:
    """Each branch of `state` with its terms grouped by true photon
    numbers on `modes` (see `fock.split_by_occupation`)."""
    return [(w, fock.split_by_occupation(st, modes)) for w, st in as_mixed(state).branches]


def _distribution(split: list[tuple[float, fock.Split]], order: tuple = ()) -> list[tuple[tuple[int, ...], float]]:
    """Born distribution of the split's patterns from their weights alone:
    branch weight times group weight, summed per pattern, normalized, listed
    in `order` (all of the patterns) if given, else sorted.  A single branch
    of weight 1 gives its group weights as they are (0.0 + 1.0 * w == w)."""
    if len(split) == 1 and split[0][0] == 1.0:
        probs = split[0][1].weights
    else:
        probs = {}
        for w, groups in split:
            for pattern, weight in groups.weights.items():
                probs[pattern] = probs.get(pattern, 0.0) + w * weight
    if len(probs) > _MAX_OUTCOMES:
        raise ValidationError(f"outcome space has {len(probs)} patterns, bound is {_MAX_OUTCOMES}")
    total = sum(probs.values())
    if total <= 0.0:
        raise ValidationError("state has no weight on the measured modes")
    return [(occ, probs[occ] / total) for occ in order or sorted(probs)]


@lru_cache(maxsize=16)
class _analyzer_layout:
    """What an analyzer reads off the registry and term keys (in stored order,
    which depends on the amplitudes; by identity if interned) of its input
    after the beam splitter: the registry after both polarizing splitters,
    relabelings found on a state without terms; the four measured modes; the
    registry of the other modes, the split's term groups, each term's group
    number and each group's `fock.Keys` (so that a conditional's loss modes
    are traced by a cached grouping); the sorted patterns; the conditionals'
    registry and the picker of their modes from a term of the rest.  Shared
    across points, so never mutated but for the last detector's and the last
    target's tables (`outcome_table`, `reached`)."""

    def __init__(self, registry: fock.ModeRegistry, keys: tuple, path_1: str, path_2: str):
        st, out_1h, out_1v = elements.pol_splitter(PureState._wrap(registry, {}, 0.0), path_1)
        st, out_2h, out_2v = elements.pol_splitter(st, path_2)
        self.registry, self.modes = st.registry, (f"{out_1h}:H", f"{out_1v}:V", f"{out_2h}:H", f"{out_2v}:V")
        self.rest, _, self.groups, self.index = fock._split_plan(self.registry, tuple(map(self.registry.index, self.modes)), keys)
        self.group_keys = {p: fock.Keys(key for _, key in terms) for p, terms in self.groups.items()}
        loss = tuple(i for i, m in enumerate(self.rest.modes) if m.kind == LOSS)
        conditional, keep, *_ = fock._split_plan(self.rest, loss, ())
        self.patterns = tuple(sorted(self.groups))
        self.conditional_registry, self._conditional_key = conditional if loss else self.rest, fock._picker(keep)
        self._table = self._reach = (None, None)

    def outcome_table(self, detector: DetectorSpec) -> dict[str, list[tuple[int, float]]]:
        """Per outcome (PsiMinus, PsiPlus, Fail), (index into `patterns`,
        P(outcome | pattern)) where nonzero: 0 or 1 at eta = 1, d = 0.  Built
        once per vector of the four click probabilities, and kept for the
        last detector."""
        key = detector.efficiency, detector.dark_prob
        if self._table[0] != key:
            table, given_of = {PSI_MINUS: [], PSI_PLUS: [], FAIL: []}, {}
            for i, occ in enumerate(self.patterns):
                if (q := tuple(map(detector.click_prob, occ))) not in given_of:
                    codes = _code_probabilities(occ, [detector] * len(occ))
                    given_of[q] = [sum(p for code, p in codes if _OUTCOMES[code] == outcome) for outcome in table]
                for rows, given in zip(table.values(), given_of[q]):
                    if given:
                        rows.append((i, given))
            self._table = key, table
        return self._table[1]

    def reached(self, target: PureState) -> frozenset:
        """The patterns whose group holds a term that `target` (on
        `conditional_registry`) reaches, kept for the last target."""
        if self._reach[0] is not target:
            keys, key_of = target.amplitudes, self._conditional_key
            self._reach = target, frozenset(p for p, terms in self.groups.items() if any(key_of(rest) in keys for _, rest in terms))
        return self._reach[1]


def _condition_on_pattern(split: list[tuple[float, fock.Split]], pattern: tuple[int, ...]) -> MixedState:
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


class PreparedBellAnalyzer:
    """Bell-state analyzer with the optical network applied once up
    front, so repeated trials only sample detector clicks.

    The input must carry two linear-basis paths; the first named path
    feeds detectors D_H/D_V, the second D_H'/D_V'.  All four detectors
    follow `detector`.  What depends only on the registry and term keys of
    the input after the beam splitter is one cached record
    (`_analyzer_layout`), shared by every analyzer of that layout.
    """

    #: `outcomes[code]` is the outcome of click code `code`; bit j is set when labels[j] clicked
    labels, outcomes = _LABELS, _OUTCOMES

    def __init__(self, state: PureState, path_1: str, path_2: str, detector: DetectorSpec = DetectorSpec()):
        st = elements.beam_splitter(state, path_1, path_2)
        self.layout = layout = _analyzer_layout(st.registry, tuple(st.amplitudes) if st._keys is None else st._keys, path_1, path_2)
        self.state = st.with_registry(layout.registry)
        self.detector = detector
        self._split = [(1.0, fock.Split(layout.rest, layout.groups, layout.index, list(st.amplitudes.values()), st, layout.group_keys))]
        self.distribution = _distribution(self._split, layout.patterns)
        self._conditionals: dict[tuple[int, ...], MixedState] = {}

    def conditional(self, true_pattern: tuple[int, ...]) -> MixedState:
        """State of the unmeasured modes given true photon numbers `true_pattern`,
        as `measure` conditions, on the layout's `conditional_registry`: built
        once per pattern and kept by this analyzer."""
        if true_pattern not in self._conditionals:
            cond = _condition_on_pattern(self._split, true_pattern)
            self._conditionals[true_pattern] = MixedState([(w, st.with_registry(self.layout.conditional_registry)) for w, st in cond.branches])
        return self._conditionals[true_pattern]

    def overlaps(self, pattern: tuple[int, ...], target: PureState, flip: str | None = None) -> list[tuple[float, float]]:
        """The nonzero terms (weight, |<target|branch>|^2) of
        `fock.state_fidelity(conditional(pattern), target)`, each branch first
        flipped by pi on mode `flip` if one is named.  Nothing is conditioned when
        the pure `target` (on the layout's `conditional_registry`) reaches no
        term of the pattern's group, and only the branches it reaches are
        flipped."""
        if pattern not in self.layout.reached(target):
            return []
        keys = target.amplitudes
        reached = [(w, st) for w, st in self.conditional(pattern).branches if not keys.keys().isdisjoint(st.amplitudes)]
        flipped = reached if flip is None else [(w, fock.apply_phase(st, flip, math.pi)) for w, st in reached]
        return [(w, abs(fock.inner_product(target, st)) ** 2) for w, st in flipped]

    @cached_property
    def sampler(self) -> sampling.Sampler:
        """This analyzer's Monte Carlo side (`sampling.Sampler`), built when
        first read: it needs numpy."""
        from .sampling import Sampler
        return Sampler(self)

    def sample(self, rng) -> tuple[str, int, tuple[int, ...]]:
        """One trial on generator `rng`: its outcome, click code and true
        photon numbers (`sampler.sample`)."""
        return self.sampler.sample(rng)

    def decode(self, key: int) -> tuple[tuple[int, ...], str]:
        """True photon numbers and outcome of a `sampler.sample_block` key."""
        pick, code = divmod(key, len(self.outcomes))
        return self.distribution[pick][0], self.outcomes[code]

    def outcome_weights(self) -> dict[str, list[tuple[tuple[int, ...], float]]]:
        """Per outcome (PsiMinus, PsiPlus, Fail), (true pattern, P(pattern) *
        P(outcome | pattern)) where nonzero, in `distribution` order, from the
        layout's `outcome_table` for this analyzer's detector."""
        dist = self.distribution
        return {outcome: [(dist[i][0], w) for i, given in rows if (w := dist[i][1] * given)] for outcome, rows in self.layout.outcome_table(self.detector).items()}

    def exact_outcomes(self) -> list[tuple[str, MixedState | None, float]]:
        """`outcome_weights` as (outcome, conditional state, probability).  A
        herald's conditional is mixed over the true patterns that give it; the
        failure's state, and that of an outcome that never occurs, is None."""
        out = []
        for outcome, entries in self.outcome_weights().items():
            prob = float(sum(p for _, p in entries))
            state = None
            if outcome != FAIL and prob > 0.0:
                state = MixedState([(p / prob * w, st) for occ, p in entries for w, st in self.conditional(occ).branches])
            out.append((outcome, state, prob))
        return out

