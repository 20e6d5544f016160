"""Threshold photodetection and the two-path Bell-state analyzer.

Detection is a two-stage story.  The quantum part is a projective
measurement of photon number on the measured modes, sampled by the Born
rule; this fixes the conditional state of everything not measured.  Both
the Born weights and the conditional states come from one grouping of
the state's terms by those photon numbers (a `fock.Split`).
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
`outcomes` table, built from `default_herald_rule()` into the analyzer's
layout record once per input layout (`_analyzer_layout`), serves the
exact outcome distribution and the analyzer's `sampler`.  What draws
random numbers, `measure` and the samplers, needs numpy and lives in
`sampling`, which exact runs never import.
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
def _analyzer_layout(registry: fock.ModeRegistry, keys: tuple, path_1: str, path_2: str) -> tuple:
    """What an analyzer reads off the registry and term keys (in stored order,
    which depends on the amplitudes; by identity if interned) of its input
    after the beam splitter: the registry after both polarizing splitters,
    relabelings found on a state without terms; the four measured modes; the
    registry of the other modes, the split's term groups, each term's group
    number and each group's `fock.Keys` (so that a conditional's loss modes
    are traced by a cached grouping); their loss modes, and the picker and
    registry of the rest (the conditionals'); the sorted patterns; the
    outcome of each click code (bit j set when `_LABELS[j]` clicked) under
    `default_herald_rule()`; each outcome's pattern indices when every
    occupied detector clicks; and the last target's reached patterns
    (`overlaps`).  Shared across points, so never mutated but for that."""
    st, out_1h, out_1v = elements.pol_splitter(PureState._wrap(registry, {}, 0.0), path_1)
    st, out_2h, out_2v = elements.pol_splitter(st, path_2)
    reg, modes = st.registry, (f"{out_1h}:H", f"{out_1v}:V", f"{out_2h}:H", f"{out_2v}:V")
    rest, _, groups, index = fock._split_plan(reg, tuple(reg.index(m) for m in modes), keys)
    group_keys = {p: fock.Keys(key for _, key in terms) for p, terms in groups.items()}
    loss = tuple(i for i, m in enumerate(rest.modes) if m.kind == LOSS)
    conditional, keep, *_ = fock._split_plan(rest, loss, ())
    patterns = tuple(sorted(groups))
    rule = default_herald_rule()
    outcomes = tuple(rule.classify({lab for j, lab in enumerate(_LABELS) if code >> j & 1}) for code in range(1 << len(_LABELS)))
    grouped: dict[str, list[int]] = {PSI_MINUS: [], PSI_PLUS: [], FAIL: []}
    for i, occ in enumerate(patterns):
        grouped[outcomes[sum(1 << j for j, n in enumerate(occ) if n)]].append(i)
    traced = (tuple(rest.modes[i] for i in loss), fock._picker(keep), conditional if loss else rest)
    return reg, modes, rest, groups, index, group_keys, traced, patterns, outcomes, {o: tuple(m) for o, m in grouped.items()}, [None, None]


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

    def __init__(
        self,
        state: PureState,
        path_1: str,
        path_2: str,
        detector: DetectorSpec = DetectorSpec(),
    ):
        st = elements.beam_splitter(state, path_1, path_2)
        keys = tuple(st.amplitudes) if st._keys is None else st._keys
        #: `outcomes[code]` is the outcome of click code `code`; bit j is set when labels[j] clicked
        registry, self.modes, rest, groups, index, group_keys, self._traced, patterns, self.outcomes, self._grouped, self._reach = (
            _analyzer_layout(st.registry, keys, path_1, path_2)
        )
        self.conditional_registry = self._traced[2]
        self.state = st.with_registry(registry)
        self.labels = _LABELS
        self.detector = detector
        self._split = [(1.0, fock.Split(rest, groups, index, list(st.amplitudes.values()), st.truncation_loss, group_keys))]
        self.distribution = _distribution(self._split, patterns)

    def conditional(self, true_pattern: tuple[int, ...]) -> MixedState:
        """State of the unmeasured modes given true photon numbers `true_pattern`,
        as `measure` conditions, on `conditional_registry`."""
        cond = _condition_on_pattern(self._split, true_pattern)
        return MixedState([(w, st.with_registry(self.conditional_registry)) for w, st in cond.branches])

    def overlaps(self, pattern: tuple[int, ...], target: PureState, flip: str | None = None) -> list[tuple[float, float]]:
        """The nonzero terms (weight, |<target|branch>|^2) of
        `fock.state_fidelity(conditional(pattern), target)`, each branch first
        flipped by pi on mode `flip` if one is named.  Nothing is conditioned when
        the pure `target` (on `conditional_registry`) reaches no term of the
        pattern's group, and only the branches it reaches are flipped."""
        if pattern not in self._reached(target):
            return []
        keys = target.amplitudes
        reached = [(w, st) for w, st in self.conditional(pattern).branches if not keys.keys().isdisjoint(st.amplitudes)]
        flipped = reached if flip is None else [(w, fock.apply_phase(st, flip, math.pi)) for w, st in reached]
        return [(w, abs(fock.inner_product(target, st)) ** 2) for w, st in flipped]

    def _reached(self, target: PureState) -> frozenset:
        """The patterns whose group holds a term that `target` reaches, kept
        on the layout record for the last target asked about."""
        last = self._reach
        if last[0] is not target:
            ((_, split),) = self._split
            rest_of, keys = self._traced[1], target.amplitudes
            last[:] = target, frozenset(p for p, terms in split._groups.items() if any(rest_of(rest) in keys for _, rest in terms))
        return last[1]

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

    def ideal_outcomes(self) -> list[tuple[str, list[tuple[tuple[int, ...], float]], float]]:
        """Outcome distribution with ideal detectors: every mode with at
        least one photon clicks.  Returns (outcome, its true patterns'
        `distribution` entries, probability) for PsiMinus, PsiPlus and Fail."""
        grouped = [(outcome, [self.distribution[i] for i in members]) for outcome, members in self._grouped.items()]
        return [(outcome, entries, float(sum(p for _, p in entries))) for outcome, entries in grouped]

    def exact_outcomes(self) -> list[tuple[str, MixedState | None, float]]:
        """`ideal_outcomes` as (outcome, conditional state, probability).  A
        herald's conditional is mixed over its click-degenerate true patterns;
        the failure's state, and that of an outcome that never occurs, is None."""
        out = []
        for outcome, entries, prob in self.ideal_outcomes():
            state = None
            if outcome != FAIL and prob > 0.0:
                state = MixedState([(p / prob * w, st) for occ, p in entries for w, st in self.conditional(occ).branches])
            out.append((outcome, state, prob))
        return out


#: names that moved to `sampling`, which needs numpy
__getattr__ = fock._lazy(__name__, {"measure": "sampling", "_step_table": "sampling"})
