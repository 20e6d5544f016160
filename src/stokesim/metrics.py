"""Dense reduced density matrices, and the entanglement and distance
measures read off them.

All matrices here are tiny (at most 8x8), so numpy's Hermitian
eigensolver is accurate far beyond every tolerance used by the callers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from . import fock
from .errors import ValidationError
from .fock import MixedState, ModeId, PureState, Record

_PSD_TOL = 1e-9


def reduced_density(state: PureState | MixedState, keep: Sequence[ModeId | str], max_dim: int = 64) -> tuple[np.ndarray, list]:
    """Dense density matrix on the kept modes, with the occupation basis
    actually populated by the state (sorted for stability)."""
    mixed = fock.as_mixed(state)
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


def _check_density(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError("density matrix must be square")
    if dim is not None and rho.shape[0] != dim:
        raise ValidationError(f"expected a {dim}x{dim} density matrix, got {rho.shape[0]}x{rho.shape[0]}")
    if np.max(np.abs(rho - rho.conj().T)) > _PSD_TOL:
        raise ValidationError("density matrix is not Hermitian")
    vals = np.linalg.eigvalsh(rho)
    if vals.min() < -_PSD_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {vals.min():.3e}")
    if abs(np.trace(rho).real - 1.0) > 1e-6:
        raise ValidationError(f"density matrix trace {np.trace(rho).real} != 1")
    return rho


def entropy_of_spectrum(vals: Sequence[float]) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    return float(-sum(v * math.log2(v) for v in vals if v > 1e-15))


def entropy(state: PureState, keep) -> float:
    """Entanglement entropy (base 2) of a pure state across the cut
    defined by keeping `keep` modes."""
    if not isinstance(state, PureState):
        raise ValidationError("entanglement entropy is defined here for pure states only")
    if abs(state.norm_sq() - 1.0) > 1e-9:
        raise ValidationError("state must be normalized")
    rho, _ = reduced_density(state, list(keep))
    return entropy_of_spectrum(np.linalg.eigvalsh(rho).real)


def purity(rho: np.ndarray) -> float:
    """tr(rho^2)."""
    rho = _check_density(rho)
    return float(np.trace(rho @ rho).real)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    rho = _check_density(rho, dim=4)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    r = rho @ flip @ rho.conj() @ flip
    vals = np.linalg.eigvals(r).real
    # eigenvalues within rounding of zero are zero: their square roots,
    # ~1e-8, would swamp the concurrence of rank-deficient states
    vals = np.sqrt(np.where(vals > 64 * np.finfo(float).eps, vals, 0.0))
    vals = np.sort(vals)[::-1]
    return float(max(0.0, vals[0] - vals[1] - vals[2] - vals[3]))


class QubitEncoding(Record):
    """A logical qubit carved out of mode occupations: `zero`/`one` are
    the occupation patterns of `modes` encoding the two basis states."""

    modes: tuple
    zero: tuple[int, ...]
    one: tuple[int, ...]

    def _validate(self):
        if len(self.zero) != len(self.modes) or len(self.one) != len(self.modes):
            raise ValidationError("basis patterns must cover exactly the encoding modes")
        if self.zero == self.one:
            raise ValidationError("basis patterns must differ")


def pol_qubit(path: str) -> QubitEncoding:
    """|0> = one H photon, |1> = one V photon on a path."""
    return QubitEncoding((f"{path}:H", f"{path}:V"), (1, 0), (0, 1))


def excitation_qubit(mode0: str, mode1: str) -> QubitEncoding:
    """|0> = excitation in mode0, |1> = excitation in mode1."""
    return QubitEncoding((mode0, mode1), (1, 0), (0, 1))


def _sector_density(state: PureState | MixedState, modes: list, patterns: list[tuple[int, ...]]) -> np.ndarray:
    """Block of the reduced density matrix on `modes` spanned by the
    occupation `patterns`, in that order; zero where a pattern is absent."""
    rho, basis = reduced_density(state, modes)
    out = np.zeros((len(patterns), len(patterns)), dtype=complex)
    for i, pi in enumerate(patterns):
        for j, pj in enumerate(patterns):
            if pi in basis and pj in basis:
                out[i, j] = rho[basis.index(pi), basis.index(pj)]
    return out


def qubit_density(state: PureState | MixedState, enc: QubitEncoding) -> np.ndarray:
    """2x2 density matrix of one encoded qubit (no renormalization: the
    trace is the weight of the qubit sector)."""
    return _sector_density(state, list(enc.modes), [enc.zero, enc.one])


def two_qubit_density(
    state: PureState | MixedState, enc_a: QubitEncoding, enc_b: QubitEncoding
) -> np.ndarray:
    """4x4 density matrix on an encoded qubit pair, basis order
    |00>, |01>, |10>, |11>."""
    patterns = [pa + pb for pa in (enc_a.zero, enc_a.one) for pb in (enc_b.zero, enc_b.one)]
    return _sector_density(state, list(enc_a.modes) + list(enc_b.modes), patterns)


def qubit_fidelity(
    state: PureState | MixedState, enc: QubitEncoding, amp0: complex, amp1: complex
) -> float:
    """<phi| rho |phi> for the encoded qubit against amplitudes
    (amp0, amp1)."""
    n = abs(amp0) ** 2 + abs(amp1) ** 2
    if abs(n - 1.0) > 1e-9:
        raise ValidationError("target qubit amplitudes must be normalized")
    rho = qubit_density(state, enc)
    vec = np.array([amp0, amp1], dtype=complex)
    return float((vec.conj() @ rho @ vec).real)
