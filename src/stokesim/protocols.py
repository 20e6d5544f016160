"""End-to-end entanglement protocols.

Three procedures built from the source, analyzer, and metric layers:

* post-selected generation: the raw source output as a classical mixture
  over emission sectors (vacuum + entangled branch at first order);
* event-ready generation: source plus an ancilla photon pair, heralded by
  a Bell-state analysis on the forward photon and one ancilla photon;
* teleportation memory: store an arbitrary photonic qubit in the two
  collective atomic modes via Bell analysis against the heralded channel
  state, with an ideal readout back to a photon.

The two heralded procedures share one shape: a `HeraldedSpec` holds the
joint-state builder, analyzer paths, triplet-herald correction mode,
fidelity functional and report header of each, and one exact and one
sampled driver read it.

Heralds come with correction operators fixed once for this beam-splitter
sign convention (derived by brute force, pinned by tests): a triplet
herald needs a phase flip on the surviving ancilla photon's H mode
(event-ready) or on the second collective mode (memory); singlet heralds
need no correction.  Corrections map the heralded branch onto the
singlet-herald branch exactly, so heralded states are unique up to
global phase.

Sampled runs draw one counter-based random stream per trial from
(seed, trial index), which makes results independent of execution order
and parallelism, so trial chunks may run through any chunk-map callable.
The analyzer turns each trial into one uint16 key, true-pattern index
times 16 plus click code (`PreparedBellAnalyzer.sample_block`); chunks
return only those keys, and `summarize_sampled` counts them and
evaluates one fidelity per distinct herald key.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import detection, elements, fock, metrics, sources
from .detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec, PreparedBellAnalyzer
from .errors import ValidationError
from .fock import MixedState, ModeRegistry, PureState
from .sources import SourceParams

SQRT_HALF = math.sqrt(0.5)

#: z for a 95% Wilson score interval
_WILSON_Z = 1.959963984540054

#: chunks per sampled run: enough to keep a small process pool evenly busy
_CHUNKS = 32


@dataclass(frozen=True)
class ProtocolConfig:
    source: SourceParams = field(default_factory=SourceParams)
    detector: DetectorSpec = field(default_factory=DetectorSpec)
    trials: int = 10_000
    mode: str = "exact"
    seed: int = 0
    theta: float = 0.0
    phi: float = 0.0
    #: disable the ancilla pair (dark-count studies feed the analyzer vacuum)
    epr_enabled: bool = True
    retrieval_efficiency: float = 1.0
    cutoff: int = fock.DEFAULT_CUTOFF

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValidationError(f"mode {self.mode!r} must be 'exact' or 'sampled'")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed {self.seed} outside [0, 2^64)")
        if not 0.0 <= self.theta <= math.pi:
            raise ValidationError(f"theta={self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValidationError(f"phi={self.phi} outside [0, 2*pi)")
        if not 0.0 <= self.retrieval_efficiency <= 1.0:
            raise ValidationError("retrieval_efficiency outside [0, 1]")
        order = self.source.emission_order
        if 2 * order > self.cutoff:
            raise ValidationError(f"emission_order {order} needs cutoff >= {2 * order}, got {self.cutoff}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    half = _WILSON_Z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    return (center - half) / denom, (center + half) / denom


# ---------------------------------------------------------------------------
# qubit encodings used throughout

ATOMIC_QUBIT = metrics.excitation_qubit("S1", "S2")


# ---------------------------------------------------------------------------
# post-selected generation


def generate_entanglement(config: ProtocolConfig) -> tuple[MixedState, dict]:
    """Source output as the emission-sector mixture.

    Without a phase reference between pump pulses the coherence between
    emission sectors is unobservable, so the physical state is the
    classical mixture of the vacuum branch and the entangled
    one-emission branch (weights 1/(1+p0) and p0/(1+p0) at first order).
    """
    src = sources.dual_ensemble_source(config.source, config.cutoff)
    branches: list[tuple[float, PureState]] = []
    weights: list[float] = []
    for k in range(config.source.emission_order + 1):
        sector, w = fock.restrict_total_occupation(src, ["S1", "S2"], k)
        if sector is not None and w > 0.0:
            branches.append((w, sector))
            weights.append(w)
    mixed = MixedState(branches)

    system = [m.name for m in mixed.registry.modes if m.kind != fock.LOSS]
    rho, _ = fock.reduced_density(mixed, system)
    report = {
        "protocol": "generate",
        "p0": config.source.p0,
        "emission_order": config.source.emission_order,
        "branch_weights": weights,
        "purity": metrics.purity(rho),
        "truncation_loss": src.truncation_loss,
    }
    if len(branches) > 1:
        excited = branches[1][1]
        lossy = [m.name for m in mixed.registry.modes if m.kind == fock.LOSS]
        if lossy:
            # an active attenuator adds a photon-lost branch: condition on the photon reaching p
            excited = fock.project(excited, dict.fromkeys(lossy, 0))[0]
        pair = metrics.two_qubit_density(excited, ATOMIC_QUBIT, metrics.pol_qubit("p"))
        report["excited_branch_concurrence"] = metrics.concurrence(pair)
        report["excited_branch_entropy"] = metrics.entropy(excited, ["S1", "S2"])
    return mixed, report


# ---------------------------------------------------------------------------
# Bell decomposition

_BELL_TABLE = {
    "phi_plus": {(0, 0): SQRT_HALF, (1, 1): SQRT_HALF},
    "phi_minus": {(0, 0): SQRT_HALF, (1, 1): -SQRT_HALF},
    "psi_plus": {(0, 1): SQRT_HALF, (1, 0): SQRT_HALF},
    "psi_minus": {(0, 1): SQRT_HALF, (1, 0): -SQRT_HALF},
}


def bell_decompose(
    state: PureState, enc_a: metrics.QubitEncoding, enc_b: metrics.QubitEncoding
) -> dict[str, float]:
    """Branch norms of the four Bell components on an encoded qubit pair.

    The complex phase of each component is absorbed into its residual
    factor on the remaining modes, so values are reported as magnitudes;
    their squares sum to the state's norm.
    """
    reg = state.registry
    idx_a = [reg.index(m) for m in enc_a.modes]
    idx_b = [reg.index(m) for m in enc_b.modes]
    rest_idx = [i for i in range(len(reg)) if i not in idx_a and i not in idx_b]

    def bit_of(occ, idx, enc):
        sub = tuple(occ[i] for i in idx)
        if sub == enc.zero:
            return 0
        if sub == enc.one:
            return 1
        raise ValidationError(f"state leaves the qubit sector on modes {enc.modes}: pattern {sub}")

    branches: dict[str, dict[tuple[int, ...], complex]] = {name: {} for name in _BELL_TABLE}
    for occ, c in state.amplitudes.items():
        ba = bit_of(occ, idx_a, enc_a)
        bb = bit_of(occ, idx_b, enc_b)
        rest = tuple(occ[i] for i in rest_idx)
        for name, table in _BELL_TABLE.items():
            amp = table.get((ba, bb))
            if amp is not None:
                acc = branches[name]
                acc[rest] = acc.get(rest, 0.0) + amp * c
    return {
        name: math.sqrt(sum(abs(v) ** 2 for v in acc.values()))
        for name, acc in branches.items()
    }


# ---------------------------------------------------------------------------
# event-ready generation


def _flip_phase(mixed: MixedState, mode) -> MixedState:
    return MixedState([(w, fock.apply_phase(st, mode, math.pi)) for w, st in mixed.branches])


def event_ready_target(registry: ModeRegistry) -> PureState:
    """The singlet the herald announces: (|V>_B|S1> - |H>_B|S2>)/sqrt(2)."""
    v = fock.basis_state(registry, {"S1": 1, "B:V": 1})
    h = fock.basis_state(registry, {"S2": 1, "B:H": 1})
    return PureState(registry, {**{o: SQRT_HALF for o in v.amplitudes}, **{o: -SQRT_HALF for o in h.amplitudes}})


def _event_ready_input(config: ProtocolConfig) -> PureState:
    src = sources.dual_ensemble_source(config.source, config.cutoff)
    if config.epr_enabled:
        ancilla = sources.epr_pair("A", "B", cutoff=config.cutoff)
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
        "leading_order_success_probability": p0 / 2.0,
        "order1_success_probability": p0 / (2.0 * (1.0 + p0)),
    }


def _heralded_fidelity(config: ProtocolConfig, heralded: MixedState) -> float:
    return fock.state_fidelity(heralded, event_ready_target(heralded.registry))


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
        amps[tuple(1 if m.name == "q:V" else 0 for m in reg.modes)] = a1 * np.exp(1j * phi)
    return PureState(reg, amps)


def _memory_input(config: ProtocolConfig, channel: PureState | None) -> PureState:
    chan = channel if channel is not None else ideal_channel(config.cutoff)
    if "B:H" not in {m.name for m in chan.registry.modes}:
        raise ValidationError("channel state must carry the B path")
    return fock.tensor(chan, input_qubit(config.theta, config.phi, config.cutoff))


def _memory_header(config: ProtocolConfig) -> dict:
    return {"protocol": "memory", "mode": config.mode, "theta": config.theta, "phi": config.phi}


def _qubit_amplitudes(config: ProtocolConfig) -> tuple[float, complex]:
    return math.cos(config.theta), math.sin(config.theta) * np.exp(1j * config.phi)


def _stored_fidelity(config: ProtocolConfig, stored: MixedState) -> float:
    return metrics.qubit_fidelity(stored, ATOMIC_QUBIT, *_qubit_amplitudes(config))


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


@dataclass(frozen=True)
class HeraldedSpec:
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
    #: fidelity of a corrected heralded state, reported under `fidelity_key`
    fidelity: Callable[[ProtocolConfig, MixedState], float]
    fidelity_key: str
    #: exact-mode probability keys reported after the header, in order
    exact_keys: tuple[str, ...]


EVENT_READY = HeraldedSpec(
    name="event-ready",
    header=_event_ready_header,
    joint_state=lambda config, channel: _event_ready_input(config),
    paths=("p", "A"),
    flip_mode="B:H",
    fidelity=_heralded_fidelity,
    fidelity_key="heralded_fidelity",
    exact_keys=("truncation_loss", "success_probability", "psi_minus_probability", "psi_plus_probability"),
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


def _run_exact(spec: HeraldedSpec, config: ProtocolConfig, channel: PureState | None) -> tuple[MixedState | None, dict]:
    """Closed-form probabilities with ideal detectors, and the heralded
    state: the corrected herald conditionals mixed by probability."""
    joint = spec.joint_state(config, channel)
    prep = PreparedBellAnalyzer(joint, *spec.paths)
    heralds = [(outcome, cond, prob) for outcome, cond, prob in prep.exact_outcomes() if outcome != FAIL]
    total = sum(prob for _, _, prob in heralds)
    values = {
        "truncation_loss": joint.truncation_loss,
        "success_probability": total,
        "psi_minus_probability": heralds[0][2],
        "psi_plus_probability": heralds[1][2],
    }
    report = spec.header(config)
    report.update((key, values[key]) for key in spec.exact_keys)
    if total <= 0.0:
        report[spec.fidelity_key] = None
        return None, report
    branches: list[tuple[float, PureState]] = []
    for outcome, cond, prob in heralds:
        if cond is not None and prob > 0:
            branches += [(w * prob / total, st) for w, st in _corrected(spec, cond, outcome).branches]
    heralded = MixedState(branches)
    report[spec.fidelity_key] = spec.fidelity(config, heralded)
    return heralded, report


class _SampledProtocol:
    """Prepared analyzer of one heralded protocol, and the fidelity of its
    corrected conditional per (true detection pattern, outcome)."""

    def __init__(self, config: ProtocolConfig, kind: str, channel: PureState | None = None):
        self.config = config
        self.spec = HERALDED[kind]
        joint = self.spec.joint_state(config, channel)
        self.prep = PreparedBellAnalyzer(joint, *self.spec.paths, config.detector)

    def fidelity(self, true: tuple[int, ...], outcome: str) -> float:
        return self.spec.fidelity(self.config, _corrected(self.spec, self.prep.conditional(true), outcome))


@lru_cache(maxsize=8)
def _cached_protocol(config: ProtocolConfig, kind: str, channel: PureState | None) -> _SampledProtocol:
    # a channel state hashes by identity, so one run reuses its protocol
    return _SampledProtocol(config, kind, channel)


def trial_outcomes(
    config: ProtocolConfig, kind: str, start: int, count: int, channel: PureState | None = None
) -> np.ndarray:
    """Run trials [start, start+count) and return one uint16 key per
    trial: true-pattern index times 16 plus click code.  Trial i gets the
    outcome of `PreparedBellAnalyzer.sample(trial_rng(seed, i))`, drawn in
    bulk by `PreparedBellAnalyzer.sample_block`, so any partition of the
    range agrees."""
    return _cached_protocol(config, kind, channel).prep.sample_block(config.seed, start, count)


def summarize_sampled(config: ProtocolConfig, kind: str, keys: np.ndarray, channel: PureState | None = None) -> dict:
    """Aggregate the keys of a run's trials (in trial order) into the
    summary block shared by the sampled protocols: counts tallied in
    place, one fidelity per distinct herald key, and their sum over the
    heralds accumulated in trial order."""
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
    low, high = wilson_interval(successes, trials)
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
        "mean_" + HERALDED[kind].fidelity_key: float(np.cumsum(herald_fids)[-1]) / successes if successes else None,
    }


def _run_sampled(spec: HeraldedSpec, config: ProtocolConfig, channel: PureState | None, chunk_map) -> dict:
    """Monte Carlo run with the configured detectors: the trial range is
    cut into chunks, `chunk_map` runs `trial_outcomes` on each, and the
    joined keys are aggregated in trial order."""
    size = math.ceil(config.trials / _CHUNKS)
    starts = range(0, config.trials, size)
    counts = [min(size, config.trials - s) for s in starts]
    parts = chunk_map(trial_outcomes, repeat(config), repeat(spec.name), starts, counts, repeat(channel))
    report = spec.header(config)
    report.update(summarize_sampled(config, spec.name, np.concatenate(list(parts)), channel))
    return report


def event_ready_generation(config: ProtocolConfig, chunk_map=map) -> tuple[MixedState | None, dict]:
    """Heralded entanglement between the ensembles and ancilla photon B.

    Exact mode evolves the full state and reports closed-form
    probabilities with ideal detectors; sampled mode draws per-trial
    detector records with the configured efficiency and dark counts,
    mapping trial chunks with `chunk_map` (`map` or a pool's `map`).
    """
    if config.mode == "sampled":
        return None, _run_sampled(EVENT_READY, config, None, chunk_map)
    return _run_exact(EVENT_READY, config, None)


def memory_store(
    config: ProtocolConfig, channel: PureState | None = None, chunk_map=map
) -> tuple[MixedState | None, dict]:
    """Teleport an input photonic qubit into the collective atomic modes.

    The channel defaults to the ideal heralded singlet; pass an
    event-ready output to study the full chain.  Success is any
    non-failure herald (probability 1/2 for an ideal channel).  Exact
    mode also reports the fidelity after readout; modes and `chunk_map`
    are as in :func:`event_ready_generation`.
    """
    if config.mode == "sampled":
        return None, _run_sampled(MEMORY, config, channel, chunk_map)
    stored, report = _run_exact(MEMORY, config, channel)
    if stored is not None:
        readout = memory_readout(stored, config.retrieval_efficiency)
        report["round_trip_fidelity"] = metrics.qubit_fidelity(
            readout, metrics.pol_qubit("readout"), *_qubit_amplitudes(config)
        )
    return stored, report
