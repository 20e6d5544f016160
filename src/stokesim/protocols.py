"""End-to-end entanglement protocols.

Three procedures built from the source, analyzer, and metric layers:

* post-selected generation (`analysis`): the raw source output as a
  classical mixture over emission sectors;
* event-ready generation: source plus an ancilla photon pair, heralded by
  a Bell-state analysis on the forward photon and one ancilla photon;
* teleportation memory: store an arbitrary photonic qubit in the two
  collective atomic modes via Bell analysis against the heralded channel
  state, with an ideal readout back to a photon.

The two heralded procedures share one shape: a `HeraldedSpec` holds the
joint-state builder, analyzer paths, triplet-herald correction mode,
fidelity functional and report header of each, and one driver (`_run`)
reads it in either mode under the configured detectors.  Event-ready
fidelities are read off each herald pattern's conditional state, without
building the heralded state; every fidelity is clamped to 1.

Heralds come with correction operators fixed once for this beam-splitter
sign convention (derived by brute force, pinned by tests): a triplet
herald needs a phase flip on the surviving ancilla photon's H mode
(event-ready) or on the second collective mode (memory); singlet heralds
need no correction.  Corrections map the heralded branch onto the
singlet-herald branch exactly, so heralded states are unique up to
global phase.

Sampled runs draw one counter-based random stream per trial from (seed,
trial index), so trial chunks may run through any chunk-map callable in
any order; each trial becomes one uint16 key (`sampling.Sampler`), and
`summarize_sampled` counts the keys and evaluates one fidelity per
distinct herald key.  Both entry points, `trial_outcomes` and
`summarize_sampled`, read the run's prepared analyzer off one cache here
(`_cached_protocol`).  This module imports `sampling` and numpy only
inside the sampled functions, so exact runs load neither.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable
from functools import lru_cache
from itertools import repeat

from . import detection, elements, fock, sources
from .detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec, PreparedBellAnalyzer
from .errors import ValidationError
from .fock import MixedState, ModeRegistry, PureState, Record
from .sources import SQRT_HALF, SourceParams

#: z for a 95% Wilson score interval
_WILSON_Z = 1.959963984540054


class ProtocolConfig(Record):
    source: SourceParams = SourceParams()
    detector: DetectorSpec = DetectorSpec()
    trials: int = 10_000
    mode: str = "exact"
    seed: int = 0
    theta: float = 0.0
    phi: float = 0.0
    #: disable the ancilla pair (dark-count studies feed the analyzer vacuum)
    epr_enabled: bool = True
    retrieval_efficiency: float = 1.0
    cutoff: int = fock.DEFAULT_CUTOFF

    MODES = ("exact", "sampled")
    _ranges = {
        "trials": (1, math.inf, "[1, inf)"),
        "seed": (0, 2**64, "[0, 2^64)"),
        "theta": (0.0, math.pi, "[0, pi]"),
        "phi": (0.0, 2.0 * math.pi, "[0, 2*pi)"),
        "retrieval_efficiency": (0.0, 1.0, "[0, 1]"),
    }

    def _validate(self):
        if self.mode not in self.MODES:
            raise ValidationError(f"mode {self.mode!r} must be one of {', '.join(self.MODES)}")
        order = self.source.emission_order
        if 2 * order > self.cutoff:
            raise ValidationError(f"emission_order {order} needs cutoff >= {2 * order}, got {self.cutoff}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate, exactly 0 or 1 at the ends."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValidationError(f"successes={successes} outside [0, trials={trials}]")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    low = (center - half) / denom if successes else 0.0
    return low, (center + half) / denom if successes < trials else 1.0


# ---------------------------------------------------------------------------
# event-ready generation


def _flip_phase(mixed: MixedState, mode) -> MixedState:
    return MixedState([(w, fock.apply_phase(st, mode, math.pi)) for w, st in mixed.branches])


def event_ready_target(registry: ModeRegistry) -> PureState:
    """The singlet the herald announces: (|V>_B|S1> - |H>_B|S2>)/sqrt(2)."""
    v = fock.basis_state(registry, {"S1": 1, "B:V": 1})
    h = fock.basis_state(registry, {"S2": 1, "B:H": 1})
    return PureState(registry, {**{o: SQRT_HALF for o in v.amplitudes}, **{o: -SQRT_HALF for o in h.amplitudes}})


#: the EPR ancilla per cutoff and the target per registry, which every point of a sweep shares
_ancilla = lru_cache(maxsize=8)(lambda cutoff: sources.epr_pair("A", "B", cutoff=cutoff))
_target = lru_cache(maxsize=8)(lambda registry: event_ready_target(registry))


def _event_ready_input(config: ProtocolConfig) -> PureState:
    src = sources.dual_ensemble_source(config.source, config.cutoff)
    if config.epr_enabled:
        ancilla = _ancilla(config.cutoff)
    else:
        reg = ModeRegistry(cutoff=config.cutoff).add_photonic_path("A", basis="linear")
        ancilla = fock.vacuum(reg.add_photonic_path("B", basis="linear"))
    return fock.tensor(src, ancilla)


def _event_ready_header(config: ProtocolConfig) -> dict:
    p0 = config.source.p0
    return {
        "protocol": "event-ready",
        "mode": config.mode,
        "p0": p0,
        "emission_order": config.source.emission_order,
        "ideal_detector_leading_order_success_probability": p0 / 2.0,
        "ideal_detector_order1_success_probability": p0 / (2.0 * (1.0 + p0)),
    }


def _heralded_fidelity(config: ProtocolConfig, prep: PreparedBellAnalyzer, mixture: list) -> float:
    """`fock.state_fidelity(heralded, target)` for the singlet target, summed in
    the same order off each herald pattern's conditional: no heralded state is read."""
    target, fid = _target(prep.layout.conditional_registry), 0.0
    for occ, outcome, shares in mixture:
        for w, f in prep.overlaps(occ, target, EVENT_READY.flip_mode if outcome == PSI_PLUS else None):
            fid += _weight(w, *shares) * f
    return fid


def false_herald_probability(rule: detection.HeraldRule, dark_prob: float) -> float:
    """Per-window probability that dark counts alone forge a herald
    (vacuum at each of the analyzer's four detectors)."""
    total = 0.0
    for pattern, outcome in rule.patterns:
        if outcome == FAIL:
            continue
        k = len(pattern)
        total += dark_prob**k * (1.0 - dark_prob) ** (4 - k)
    return total


# ---------------------------------------------------------------------------
# teleportation memory


def ideal_channel(cutoff: int = fock.DEFAULT_CUTOFF) -> PureState:
    """Perfect event-ready channel state for unit-testing the memory."""
    reg = ModeRegistry(cutoff=cutoff).add_atomic("S1").add_atomic("S2").add_photonic_path("B", basis="linear")
    return event_ready_target(reg)


def input_qubit(theta: float, phi: float, cutoff: int = fock.DEFAULT_CUTOFF) -> PureState:
    """Photon to store: cos(theta)|H> + e^(i phi) sin(theta)|V> on path q."""
    reg = ModeRegistry(cutoff=cutoff).add_photonic_path("q", basis="linear")
    amps = {}
    a0, a1 = math.cos(theta), math.sin(theta)
    if abs(a0) > 1e-15:
        amps[tuple(1 if m.name == "q:H" else 0 for m in reg.modes)] = a0
    if abs(a1) > 1e-15:
        amps[tuple(1 if m.name == "q:V" else 0 for m in reg.modes)] = a1 * cmath.exp(1j * phi)
    return PureState(reg, amps)


def _memory_input(config: ProtocolConfig, channel: PureState | None) -> PureState:
    chan = channel if channel is not None else ideal_channel(config.cutoff)
    if not isinstance(chan, PureState) or "B:H" not in {m.name for m in chan.registry.modes}:
        raise ValidationError("channel state must be a pure state that carries the B path")
    return fock.tensor(chan, input_qubit(config.theta, config.phi, config.cutoff))


def _memory_header(config: ProtocolConfig) -> dict:
    return {"protocol": "memory", "mode": config.mode, "theta": config.theta, "phi": config.phi}


def _qubit_amplitudes(config: ProtocolConfig) -> tuple[float, complex]:
    return math.cos(config.theta), math.sin(config.theta) * cmath.exp(1j * config.phi)


def _stored_fidelity(config: ProtocolConfig, prep: PreparedBellAnalyzer, mixture: list) -> float:
    from . import metrics
    return metrics.qubit_fidelity(_mixed(MEMORY, prep, mixture), metrics.excitation_qubit("S1", "S2"), *_qubit_amplitudes(config))


def memory_readout(stored: MixedState | PureState, retrieval_efficiency: float = 1.0) -> MixedState:
    """Convert the collective excitation back into a photon: S1 becomes
    the H mode and S2 the V mode of a fresh `readout` path, optionally
    thinned by a retrieval efficiency."""
    mixed = fock.as_mixed(stored)
    reg = mixed.registry
    for name in ("S1", "S2"):
        if name not in {m.name for m in reg.modes}:
            raise ValidationError("readout needs the two collective modes")
    i1, i2 = reg.index("S1"), reg.index("S2")
    for _, st in mixed.branches:
        for occ in st.amplitudes:
            if occ[i1] + occ[i2] > 1:
                raise ValidationError("readout input must stay in the single-excitation sector")
    new_reg = reg.replace(
        {reg.mode("S1"): fock.photonic_mode("readout", "H"), reg.mode("S2"): fock.photonic_mode("readout", "V")}
    )
    branches = []
    for w, st in mixed.branches:
        out = st.with_registry(new_reg)
        if retrieval_efficiency < 1.0:
            out = elements.attenuate_mode(out, "readout:H", retrieval_efficiency)
            out = elements.attenuate_mode(out, "readout:V", retrieval_efficiency)
        branches.append((w, out))
    return MixedState(branches)


# ---------------------------------------------------------------------------
# the heralded-protocol drivers


class HeraldedSpec(Record):
    """What distinguishes one heralded protocol from the other."""

    name: str
    #: report keys common to both modes
    header: Callable[[ProtocolConfig], dict]
    #: joint input state of the analyzer, given the config and an optional channel
    joint_state: Callable[[ProtocolConfig, PureState | None], PureState]
    #: analyzer inputs: the first path feeds D_H/D_V, the second D_H'/D_V'
    paths: tuple[str, str]
    #: mode whose phase is flipped by pi on a PsiPlus herald
    flip_mode: str
    #: fidelity reported under `fidelity_key`, given the config, the analyzer and the mixture
    #: of corrected conditionals (see `_mixed`)
    fidelity: Callable[[ProtocolConfig, PreparedBellAnalyzer, list], float]
    fidelity_key: str
    #: exact-mode keys reported after the header and the two cut weights, in order
    exact_keys: tuple[str, ...]


EVENT_READY = HeraldedSpec(
    name="event-ready",
    header=_event_ready_header,
    joint_state=lambda config, channel: _event_ready_input(config),
    paths=("p", "A"),
    flip_mode="B:H",
    fidelity=_heralded_fidelity,
    fidelity_key="heralded_fidelity",
    exact_keys=("success_probability", "psi_minus_probability", "psi_plus_probability"),
)

MEMORY = HeraldedSpec(
    name="memory",
    header=_memory_header,
    joint_state=_memory_input,
    paths=("q", "B"),
    flip_mode="S2",
    fidelity=_stored_fidelity,
    fidelity_key="stored_fidelity",
    exact_keys=("success_probability",),
)

HERALDED = {spec.name: spec for spec in (EVENT_READY, MEMORY)}


def _corrected(spec: HeraldedSpec, conditional: MixedState, outcome: str) -> MixedState:
    return _flip_phase(conditional, spec.flip_mode) if outcome == PSI_PLUS else conditional


def _weight(w: float, p: float = 1.0, prob: float = 1.0, total: float = 1.0) -> float:
    """Heralded-mixture weight of a conditional's branch of weight `w` (w at the defaults)."""
    return p / prob * w * prob / total


def _mixed(spec: HeraldedSpec, prep: PreparedBellAnalyzer, mixture: list) -> MixedState:
    """The corrected conditionals that a mixture lists as (true pattern,
    outcome, the `_weight` arguments after a branch's weight)."""
    return MixedState(
        [(_weight(w, *shares), st) for occ, outcome, shares in mixture for w, st in _corrected(spec, prep.conditional(occ), outcome).branches]
    )


def _cut_weights(joint: PureState) -> dict:
    """The report's two cut weights of a run's joint state: the source's
    emission-order cut (a model choice) and the weight the Fock cutoff dropped
    (a numerical loss)."""
    return {"emission_order_cut": joint.order_cut, "cutoff_loss": joint.truncation_loss}


def _at_most_one(fidelity: float) -> float:
    """`fidelity` clamped to 1, which weights and norms meet only to rounding."""
    if fidelity > 1.0 + 1e-12:
        raise ValidationError(f"fidelity {fidelity!r} exceeds 1")
    return min(fidelity, 1.0)


class _SampledProtocol:
    """Prepared analyzer of one heralded protocol, and the fidelity of its
    corrected conditional per (true detection pattern, outcome)."""

    def __init__(self, config: ProtocolConfig, kind: str, channel: PureState | None = None):
        self.config = config
        self.spec = HERALDED[kind]
        joint = self.spec.joint_state(config, channel)
        self.prep = PreparedBellAnalyzer(joint, *self.spec.paths, config.detector)

    def fidelity(self, true: tuple[int, ...], outcome: str) -> float:
        return _at_most_one(self.spec.fidelity(self.config, self.prep, [(true, outcome, ())]))  # branches keep their weights


@lru_cache(maxsize=8)
def _cached_protocol(config: ProtocolConfig, kind: str, channel: PureState | None) -> _SampledProtocol:
    # a channel state hashes by identity, so one run reuses its protocol
    return _SampledProtocol(config, kind, channel)


def trial_outcomes(
    config: ProtocolConfig, kind: str, start: int, count: int, channel: PureState | None = None
) -> np.ndarray:
    """One uint16 key per trial of [start, start+count), drawn in bulk by
    `sampling.Sampler.sample_block`: any partition of the range agrees."""
    return _cached_protocol(config, kind, channel).prep.sampler.sample_block(config.seed, start, count)


def summarize_sampled(config: ProtocolConfig, kind: str, keys: np.ndarray, channel: PureState | None = None) -> dict:
    """The summary block of a sampled run's keys, in trial order: counts
    tallied in place, one fidelity per distinct herald key, summed over the
    heralds in trial order."""
    import numpy as np
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
    successes, trials = len(herald_fids), len(keys)
    low, high = wilson_interval(successes, trials)
    return {
        **_cut_weights(sp.prep.state),
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
        "mean_" + HERALDED[kind].fidelity_key: float(np.cumsum(herald_fids)[-1]) / successes if successes else None,
    }


def _run(spec: HeraldedSpec, config: ProtocolConfig, channel: PureState | None, chunk_map, with_state=True) -> tuple[MixedState | None, dict]:
    """One run of `spec` under the configured detectors.  Sampled mode maps
    `trial_outcomes` with `chunk_map` over consecutive `sampling._BLOCK`-trial
    chunks, one pool task each, and reports `summarize_sampled` of the joined
    keys.  Exact mode reports the outcome probabilities, the fidelity of the
    heralded state (the corrected conditionals mixed by `outcome_weights`)
    and, if `with_state`, returns the state.  The ancilla, target and
    analyzer layout are shared by points of one layout."""
    if config.mode == "sampled":
        import numpy as np
        from .sampling import _BLOCK
        starts = range(0, config.trials, _BLOCK)
        counts = [min(_BLOCK, config.trials - s) for s in starts]
        parts = chunk_map(trial_outcomes, repeat(config), repeat(spec.name), starts, counts, repeat(channel))
        return None, spec.header(config) | summarize_sampled(config, spec.name, np.concatenate(list(parts)), channel)
    joint = spec.joint_state(config, channel)
    prep = PreparedBellAnalyzer(joint, *spec.paths, config.detector)
    weights = prep.outcome_weights()
    minus, plus = (float(sum(p for _, p in weights[outcome])) for outcome in (PSI_MINUS, PSI_PLUS))
    total = minus + plus
    values = dict(success_probability=total, psi_minus_probability=minus, psi_plus_probability=plus)
    report = spec.header(config) | _cut_weights(joint)
    report.update((key, values[key]) for key in spec.exact_keys)
    if total <= 0.0:
        report[spec.fidelity_key] = None
        return None, report
    heralds = ((PSI_MINUS, minus), (PSI_PLUS, plus))
    mixture = [(occ, outcome, (p, prob, total)) for outcome, prob in heralds if prob > 0 for occ, p in weights[outcome]]
    heralded = _mixed(spec, prep, mixture) if with_state else None
    report[spec.fidelity_key] = _at_most_one(spec.fidelity(config, prep, mixture))
    return heralded, report


def event_ready_generation(config: ProtocolConfig, chunk_map=map, with_state=True) -> tuple[MixedState | None, dict]:
    """Heralded entanglement between the ensembles and ancilla photon B.

    Both modes follow the configured detectors.  Exact mode evolves the
    full state and reports the outcome probabilities, and the heralded
    state if `with_state`; sampled mode draws per-trial detector records,
    mapping trial chunks with `chunk_map` (`map` or a pool's `map`).
    """
    return _run(EVENT_READY, config, None, chunk_map, with_state)


def memory_store(
    config: ProtocolConfig, channel: PureState | None = None, chunk_map=map
) -> tuple[MixedState | None, dict]:
    """Teleport an input photonic qubit into the collective atomic modes.

    The channel, a pure state that carries the B path, defaults to the
    ideal heralded singlet; the mixed state that event-ready generation
    heralds is not a channel this model takes.  Success is any
    non-failure herald (probability eta^2 / 2 for an ideal channel without
    dark counts).  Exact mode also reports the fidelity after readout;
    modes and `chunk_map` are as in :func:`event_ready_generation`.
    """
    stored, report = _run(MEMORY, config, channel, chunk_map)
    if stored is not None:
        from . import metrics
        readout = memory_readout(stored, config.retrieval_efficiency)
        report["round_trip_fidelity"] = _at_most_one(metrics.qubit_fidelity(
            readout, metrics.pol_qubit("readout"), *_qubit_amplitudes(config)
        ))
    return stored, report
