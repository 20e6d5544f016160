"""Sparse second-quantized state representation.

States live in a truncated multimode Fock space.  A :class:`PureState` is a
sparse map from occupation-number tuples to complex amplitudes; a
:class:`MixedState` is a weighted ensemble of pure states.  Modes are declared
up front in a :class:`ModeRegistry` (photonic path/polarization modes, one
collective bosonic mode per atomic ensemble, and loss modes used to dilate
attenuation), and the basis ordering follows registration order so that
serialized states are stable.

Everything here is immutable after construction: operations return new
states and may return new registries (polarization relabelings, appended
loss modes), never mutate their inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import RegistryError, ValidationError

PHOTONIC = "photonic"
ATOMIC = "atomic"
LOSS = "loss"

CIRCULAR_POLS = ("R", "L")
LINEAR_POLS = ("H", "V")

#: amplitudes below this magnitude are dropped from sparse maps
AMPLITUDE_EPS = 1e-14

#: default global excitation cutoff (largest protocol state: a second-order
#: double emission plus an ancilla photon pair carries six excitations)
DEFAULT_CUTOFF = 6


@dataclass(frozen=True)
class ModeId:
    """One bosonic mode: a photonic path/polarization slot, a collective
    atomic mode, or a loss mode."""

    name: str
    kind: str
    path: str | None = None
    pol: str | None = None

    def __post_init__(self):
        if self.kind not in (PHOTONIC, ATOMIC, LOSS):
            raise RegistryError(f"unknown mode kind {self.kind!r}")
        if self.kind == PHOTONIC:
            if self.path is None or self.pol not in CIRCULAR_POLS + LINEAR_POLS:
                raise RegistryError(f"photonic mode {self.name!r} needs a path and a polarization in R/L/H/V")
        elif self.path is not None or self.pol is not None:
            raise RegistryError(f"{self.kind} mode {self.name!r} must not carry path or polarization labels")


def photonic_mode(path: str, pol: str) -> ModeId:
    return ModeId(name=f"{path}:{pol}", kind=PHOTONIC, path=path, pol=pol)


def atomic_mode(name: str) -> ModeId:
    return ModeId(name=name, kind=ATOMIC)


def loss_mode(name: str) -> ModeId:
    return ModeId(name=name, kind=LOSS)


class ModeRegistry:
    """Ordered, immutable collection of declared modes plus the global
    excitation cutoff."""

    __slots__ = ("modes", "cutoff", "_index")

    def __init__(self, modes: Sequence[ModeId] = (), cutoff: int = DEFAULT_CUTOFF):
        if cutoff < 1:
            raise ValidationError("cutoff must be >= 1")
        seen = set()
        for m in modes:
            if m.name in seen:
                raise RegistryError(f"duplicate mode name {m.name!r}")
            seen.add(m.name)
        self.modes: tuple[ModeId, ...] = tuple(modes)
        self.cutoff = cutoff
        self._index = {m.name: i for i, m in enumerate(self.modes)}

    # -- construction -----------------------------------------------------

    def add_atomic(self, name: str) -> "ModeRegistry":
        return ModeRegistry(self.modes + (atomic_mode(name),), self.cutoff)

    def add_photonic_path(self, path: str, basis: str = "circular") -> "ModeRegistry":
        pols = CIRCULAR_POLS if basis == "circular" else LINEAR_POLS
        new = tuple(photonic_mode(path, p) for p in pols)
        return ModeRegistry(self.modes + new, self.cutoff)

    def add_loss(self) -> tuple["ModeRegistry", ModeId]:
        n = sum(1 for m in self.modes if m.kind == LOSS)
        mode = loss_mode(f"loss{n}")
        return ModeRegistry(self.modes + (mode,), self.cutoff), mode

    def replace(self, mapping: Mapping[ModeId, ModeId]) -> "ModeRegistry":
        """Relabel modes in place (same basis positions, new identities)."""
        return ModeRegistry(tuple(mapping.get(m, m) for m in self.modes), self.cutoff)

    # -- lookup -----------------------------------------------------------

    def index(self, mode: ModeId | str) -> int:
        name = mode if isinstance(mode, str) else mode.name
        try:
            return self._index[name]
        except KeyError:
            raise RegistryError(f"mode {name!r} is not registered") from None

    def mode(self, mode: ModeId | str) -> ModeId:
        return self.modes[self.index(mode)]

    def path_mode(self, path: str, pol: str) -> ModeId:
        for m in self.modes:
            if m.kind == PHOTONIC and m.path == path and m.pol == pol:
                return m
        raise RegistryError(f"path {path!r} has no {pol!r} mode")

    def path_pols(self, path: str) -> set[str]:
        return {m.pol for m in self.modes if m.kind == PHOTONIC and m.path == path}

    def __len__(self) -> int:
        return len(self.modes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModeRegistry)
            and self.modes == other.modes
            and self.cutoff == other.cutoff
        )

    def __hash__(self):
        return hash((self.modes, self.cutoff))

    def __repr__(self):
        return f"ModeRegistry({[m.name for m in self.modes]}, cutoff={self.cutoff})"


class PureState:
    """Sparse ket: occupation tuples mapped to complex amplitudes.

    Sub-normalized states are legal (heralded branches before explicit
    renormalization).  `truncation_loss` accumulates the squared amplitude
    dropped by the excitation cutoff along the pipeline that produced this
    state.
    """

    __slots__ = ("registry", "amplitudes", "truncation_loss")

    def __init__(
        self,
        registry: ModeRegistry,
        amplitudes: Mapping[tuple[int, ...], complex],
        truncation_loss: float = 0.0,
    ):
        nmodes = len(registry)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, c in amplitudes.items():
            if len(occ) != nmodes:
                raise ValidationError(f"occupation tuple {occ} does not match {nmodes} registered modes")
            if any(n < 0 for n in occ):
                raise ValidationError(f"negative occupation in {occ}")
            if sum(occ) > registry.cutoff:
                raise ValidationError(f"occupation {occ} exceeds cutoff {registry.cutoff}")
            if abs(c) >= AMPLITUDE_EPS:
                amps[tuple(occ)] = complex(c)
        self.registry = registry
        self.amplitudes = amps
        self.truncation_loss = float(truncation_loss)

    # -- basic queries ----------------------------------------------------

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def is_vacuum(self) -> bool:
        zeros = (0,) * len(self.registry)
        return set(self.amplitudes) == {zeros}

    def amplitude(self, occ: Mapping[ModeId | str, int]) -> complex:
        key = [0] * len(self.registry)
        for m, n in occ.items():
            key[self.registry.index(m)] = n
        return self.amplitudes.get(tuple(key), 0.0 + 0.0j)

    def normalize(self) -> "PureState":
        n = self.norm()
        if n < 1e-300:
            raise ValidationError("cannot normalize a zero state")
        return PureState(
            self.registry,
            {occ: c / n for occ, c in self.amplitudes.items()},
            self.truncation_loss,
        )

    def with_registry(self, registry: ModeRegistry) -> "PureState":
        """Reattach the same amplitudes to a relabeled registry."""
        if len(registry) != len(self.registry):
            raise RegistryError("relabeled registry must keep the mode count")
        return PureState(registry, self.amplitudes, self.truncation_loss)

    def __repr__(self):
        parts = ", ".join(f"{occ}: {c:.4g}" for occ, c in sorted(self.amplitudes.items()))
        return f"PureState({{{parts}}})"


class MixedState:
    """Rank-k density operator stored as a weighted ensemble of pure states."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[tuple[float, PureState]]):
        if not branches:
            raise ValidationError("a mixed state needs at least one branch")
        reg = branches[0][1].registry
        for w, st in branches:
            if w <= 0:
                raise ValidationError("branch weights must be positive")
            if st.registry != reg:
                raise RegistryError("all branches of a mixed state must share one registry")
        self.branches: tuple[tuple[float, PureState], ...] = tuple((float(w), st) for w, st in branches)

    @property
    def registry(self) -> ModeRegistry:
        return self.branches[0][1].registry

    def __repr__(self):
        return f"MixedState({len(self.branches)} branches)"


def as_mixed(state: PureState | MixedState) -> MixedState:
    if isinstance(state, MixedState):
        return state
    return MixedState([(1.0, state)])


# ---------------------------------------------------------------------------
# state constructors


def vacuum(registry: ModeRegistry) -> PureState:
    return PureState(registry, {(0,) * len(registry): 1.0 + 0.0j})


def basis_state(registry: ModeRegistry, occ: Mapping[ModeId | str, int]) -> PureState:
    key = [0] * len(registry)
    for m, n in occ.items():
        key[registry.index(m)] = n
    return PureState(registry, {tuple(key): 1.0 + 0.0j})


# ---------------------------------------------------------------------------
# mode-operator algebra


def _compositions(n: int, k: int):
    """All tuples of k non-negative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def check_unitary(u: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError("mode matrix must be square")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise ValidationError(f"matrix is not unitary (deviation {dev:.2e})")
    return u


def apply_mode_unitary(state: PureState, modes: Sequence[ModeId | str], u: np.ndarray) -> PureState:
    """Substitute a_i^dag -> sum_j U[j,i] a_j^dag on every basis term.

    The matrix acts on the listed modes only; passive linear optics
    conserves the total excitation number, so no truncation occurs.
    """
    u = check_unitary(u)
    idx = [state.registry.index(m) for m in modes]
    if len(set(idx)) != len(idx):
        raise ValidationError("modes for a mode unitary must be distinct")
    if u.shape[0] != len(idx):
        raise ValidationError(f"matrix size {u.shape[0]} does not match {len(idx)} modes")
    k = len(idx)
    fact = [math.factorial(n) for n in range(state.registry.cutoff + 1)]

    amps: dict[tuple[int, ...], complex] = defaultdict(complex)
    for occ, c in state.amplitudes.items():
        ns = [occ[i] for i in idx]
        if sum(ns) == 0:
            amps[occ] += c
            continue
        # expand prod_i (sum_j U[j,i] a_j^dag)^{n_i} term by term
        partial: dict[tuple[int, ...], complex] = {(0,) * k: c * math.sqrt(math.prod(fact[n] for n in ns))}
        for i, n in enumerate(ns):
            if n == 0:
                continue
            nxt: dict[tuple[int, ...], complex] = defaultdict(complex)
            for comp in _compositions(n, k):
                coeff = 1.0 + 0.0j
                for j, m in enumerate(comp):
                    if m:
                        coeff *= u[j, i] ** m / fact[m]
                if abs(coeff) < AMPLITUDE_EPS:
                    continue
                for acc, cc in partial.items():
                    nxt[tuple(a + b for a, b in zip(acc, comp))] += cc * coeff
            partial = nxt
        for acc, cc in partial.items():
            cc *= math.sqrt(math.prod(fact[m] for m in acc))
            if abs(cc) < AMPLITUDE_EPS:
                continue
            new = list(occ)
            for pos, m in zip(idx, acc):
                new[pos] = m
            amps[tuple(new)] += cc
    return PureState(state.registry, amps, state.truncation_loss)


def apply_phase(state: PureState, mode: ModeId | str, phase: float) -> PureState:
    """Phase plate: each photon in `mode` acquires e^{i*phase}."""
    return apply_mode_unitary(state, [mode], np.array([[np.exp(1j * phase)]]))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over a shared registry."""
    if a.registry != b.registry:
        raise RegistryError("inner product requires matching registries")
    if len(a.amplitudes) <= len(b.amplitudes):
        return sum(
            (c.conjugate() * b.amplitudes[occ] for occ, c in a.amplitudes.items() if occ in b.amplitudes),
            start=0.0 + 0.0j,
        )
    return sum(
        (a.amplitudes[occ].conjugate() * c for occ, c in b.amplitudes.items() if occ in a.amplitudes),
        start=0.0 + 0.0j,
    )


def _normalized(registry: ModeRegistry, amps: Mapping, truncation_loss: float) -> tuple[PureState | None, float]:
    """The state `amps` scaled to unit norm and its weight sum|c|^2;
    (None, 0.0) when the weight is zero."""
    weight = sum(abs(c) ** 2 for c in amps.values())
    if weight <= 0.0:
        return None, 0.0
    scale = 1.0 / math.sqrt(weight)
    return PureState(registry, {occ: c * scale for occ, c in amps.items()}, truncation_loss), weight


def project(
    state: PureState, pattern: Mapping[ModeId | str, int]
) -> tuple[PureState | None, float]:
    """Condition on an exact occupation pattern over a subset of modes.

    Returns the normalized post-measurement state (None when the outcome
    has zero weight) and the outcome weight sum|c|^2.  For a normalized
    input the weight is the Born probability.
    """
    idx = {state.registry.index(m): n for m, n in pattern.items()}
    amps = {
        occ: c
        for occ, c in state.amplitudes.items()
        if all(occ[i] == n for i, n in idx.items())
    }
    return _normalized(state.registry, amps, state.truncation_loss)


def restrict_total_occupation(
    state: PureState, modes: Sequence[ModeId | str], total: int
) -> tuple[PureState | None, float]:
    """Coherently restrict to the sector with an exact total excitation
    count over `modes` (a sector filter, not a measurement)."""
    idx = [state.registry.index(m) for m in modes]
    amps = {occ: c for occ, c in state.amplitudes.items() if sum(occ[i] for i in idx) == total}
    return _normalized(state.registry, amps, state.truncation_loss)


def truncate_total_occupation(
    state: PureState, modes: Sequence[ModeId | str], max_total: int
) -> tuple[PureState, float]:
    """Drop all terms with more than `max_total` excitations over `modes`.

    Returns the unnormalized remainder and the dropped weight.
    """
    idx = [state.registry.index(m) for m in modes]
    kept: dict[tuple[int, ...], complex] = {}
    dropped = 0.0
    for occ, c in state.amplitudes.items():
        if sum(occ[i] for i in idx) <= max_total:
            kept[occ] = c
        else:
            dropped += abs(c) ** 2
    if not kept:
        raise ValidationError("truncation removed every term")
    return PureState(state.registry, kept, state.truncation_loss + dropped), dropped


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states over disjoint registries.

    The combined cutoff is the larger of the two; combined terms exceeding
    it are dropped into the truncation-loss counter.
    """
    overlap = {m.name for m in a.registry.modes} & {m.name for m in b.registry.modes}
    if overlap:
        raise RegistryError(f"tensor factors share mode names {sorted(overlap)}")
    cutoff = max(a.registry.cutoff, b.registry.cutoff)
    reg = ModeRegistry(a.registry.modes + b.registry.modes, cutoff)
    amps: dict[tuple[int, ...], complex] = {}
    lost = 0.0
    for occ_a, ca in a.amplitudes.items():
        for occ_b, cb in b.amplitudes.items():
            if sum(occ_a) + sum(occ_b) > cutoff:
                lost += abs(ca * cb) ** 2
                continue
            amps[occ_a + occ_b] = ca * cb
    return PureState(reg, amps, a.truncation_loss + b.truncation_loss + lost)


def remove_definite_modes(state: PureState, modes: Sequence[ModeId | str]) -> PureState:
    """Drop modes whose occupation is identical across every stored term
    (e.g. measured modes after projection)."""
    idx = sorted(state.registry.index(m) for m in modes)
    occs = {tuple(occ[i] for i in idx) for occ in state.amplitudes}
    if len(occs) > 1:
        raise ValidationError("modes to remove are not in a definite occupation")
    keep = [i for i in range(len(state.registry)) if i not in idx]
    reg = ModeRegistry(tuple(state.registry.modes[i] for i in keep), state.registry.cutoff)
    amps = {tuple(occ[i] for i in keep): c for occ, c in state.amplitudes.items()}
    return PureState(reg, amps, state.truncation_loss)


def split_by_occupation(
    state: PureState, modes: Sequence[ModeId | str]
) -> dict[tuple[int, ...], tuple[float, PureState]]:
    """Group the terms of `state` by their occupation of `modes`, in one
    pass over the terms in stored order.

    Maps each occupation pattern present (listed in the order of `modes`)
    to the weight sum|c|^2 of its terms and the normalized state of the
    remaining modes; patterns with zero weight are absent.  Each group is
    what `project` followed by `remove_definite_modes` gives for its
    pattern.
    """
    reg = state.registry
    idx = [reg.index(m) for m in modes]
    keep = [i for i in range(len(reg)) if i not in idx]
    rest = ModeRegistry(tuple(reg.modes[i] for i in keep), reg.cutoff)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = defaultdict(dict)
    for occ, c in state.amplitudes.items():
        groups[tuple(occ[i] for i in idx)][tuple(occ[i] for i in keep)] = c
    out: dict[tuple[int, ...], tuple[float, PureState]] = {}
    for pattern, amps in groups.items():
        post, weight = _normalized(rest, amps, state.truncation_loss)
        if post is not None:
            out[pattern] = (weight, post)
    return out


def trace_out(state: PureState | MixedState, modes: Sequence[ModeId | str]) -> MixedState:
    """Partial trace over `modes`, returned as an ensemble of pure states.

    Branches are the conditional states for each traced-occupation pattern;
    because those patterns are orthogonal environment states, the ensemble
    equals the partial trace exactly.
    """
    mixed = as_mixed(state)
    reg = mixed.registry
    traced = [reg.modes[i] for i in sorted(reg.index(m) for m in modes)]
    out: list[tuple[float, PureState]] = []
    for w, st in mixed.branches:
        groups = split_by_occupation(st, traced)
        for env in sorted(groups):
            bw, rest = groups[env]
            out.append((w * bw, rest))
    total = sum(w for w, _ in out)
    return MixedState([(w / total, s) for w, s in out])


def reduced_density(
    state: PureState | MixedState,
    keep: Sequence[ModeId | str],
    max_dim: int = 64,
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense density matrix on the kept modes, with the occupation basis
    actually populated by the state (sorted for stability)."""
    mixed = as_mixed(state)
    reg = mixed.registry
    kidx = [reg.index(m) for m in keep]
    ridx = [i for i in range(len(reg)) if i not in kidx]

    patterns: set[tuple[int, ...]] = set()
    for _, st in mixed.branches:
        for occ in st.amplitudes:
            patterns.add(tuple(occ[i] for i in kidx))
    basis = sorted(patterns)
    if len(basis) > max_dim:
        raise ValidationError(f"kept subspace dimension {len(basis)} exceeds bound {max_dim}")
    pos = {p: i for i, p in enumerate(basis)}

    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    for w, st in mixed.branches:
        grouped: dict[tuple[int, ...], list[tuple[int, complex]]] = defaultdict(list)
        for occ, c in st.amplitudes.items():
            env = tuple(occ[i] for i in ridx)
            grouped[env].append((pos[tuple(occ[i] for i in kidx)], c))
        for terms in grouped.values():
            for i, ci in terms:
                for j, cj in terms:
                    rho[i, j] += w * ci * cj.conjugate()
    return rho, basis


def state_fidelity(state: PureState | MixedState, target: PureState) -> float:
    """<target| rho |target> for a normalized pure target."""
    acc = 0.0
    for w, st in as_mixed(state).branches:
        acc += w * abs(inner_product(target, st)) ** 2
    return acc
