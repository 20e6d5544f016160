"""Independent dense Fock-space reference used to derive expected values.

Everything here works on dense vectors over the complete occupation basis
and builds transformations by exponentiating number-operator generators
with scipy (`expm`/`logm`).  That route shares no code with the package's
sparse combinatorial substitution, so agreement between the two is a real
cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.linalg import expm, logm


def fock_basis(nmodes: int, cutoff: int) -> list[tuple[int, ...]]:
    """All occupation tuples with total excitation <= cutoff, sorted."""
    out = [occ for occ in product(range(cutoff + 1), repeat=nmodes) if sum(occ) <= cutoff]
    return sorted(out)


def creation_matrix(basis: list[tuple[int, ...]], mode: int) -> np.ndarray:
    index = {occ: i for i, occ in enumerate(basis)}
    a_dag = np.zeros((len(basis), len(basis)), dtype=complex)
    for occ, col in index.items():
        n = occ[mode]
        target = occ[:mode] + (n + 1,) + occ[mode + 1 :]
        row = index.get(target)
        if row is not None:
            a_dag[row, col] = math.sqrt(n + 1)
    return a_dag


def number_matrix(basis: list[tuple[int, ...]], mode: int) -> np.ndarray:
    return np.diag([float(occ[mode]) for occ in basis])


def mode_unitary_fock(basis: list[tuple[int, ...]], modes: list[int], u: np.ndarray) -> np.ndarray:
    """Fock-space operator for a_i^dag -> sum_j u[j,i] a_j^dag on `modes`.

    Realized as expm(sum_jk G[j,k] a_j^dag a_k) with G = logm(u); the
    generator conserves total number, so the truncated-space restriction
    is exact.
    """
    g = logm(np.asarray(u, dtype=complex))
    a_dag = [creation_matrix(basis, m) for m in modes]
    a = [m.conj().T for m in a_dag]
    gen = np.zeros((len(basis), len(basis)), dtype=complex)
    for j in range(len(modes)):
        for k in range(len(modes)):
            if abs(g[j, k]) > 1e-300:
                gen += g[j, k] * (a_dag[j] @ a[k])
    return expm(gen)


def two_mode_squeezed_vector(basis2: list[tuple[int, ...]], p: float) -> np.ndarray:
    """Two-mode squeezed vacuum with pair amplitude sqrt(p)^n on |n,n>.

    Built by exponentiating the squeezing generator r(a^dag b^dag - a b)
    with tanh(r) = sqrt(p); the result equals sqrt(1-p) * sum_n p^{n/2}
    |n,n> up to truncation error O(p^{cutoff/2}).
    """
    r = math.atanh(math.sqrt(p))
    a_dag = creation_matrix(basis2, 0)
    b_dag = creation_matrix(basis2, 1)
    gen = r * (a_dag @ b_dag - (a_dag @ b_dag).conj().T)
    vac = np.zeros(len(basis2), dtype=complex)
    vac[basis2.index((0, 0))] = 1.0
    return expm(gen) @ vac


def vector_from_amplitudes(basis: list[tuple[int, ...]], amps: dict[tuple[int, ...], complex]) -> np.ndarray:
    vec = np.zeros(len(basis), dtype=complex)
    index = {occ: i for i, occ in enumerate(basis)}
    for occ, c in amps.items():
        vec[index[occ]] = c
    return vec


def amplitudes_from_vector(basis: list[tuple[int, ...]], vec: np.ndarray, eps: float = 1e-12) -> dict[tuple[int, ...], complex]:
    return {occ: vec[i] for i, occ in enumerate(basis) if abs(vec[i]) > eps}


def threshold_povm(basis: list[tuple[int, ...]], mode: int, eta: float, dark: float) -> tuple[np.ndarray, np.ndarray]:
    """No-click and click elements of a threshold detector of efficiency
    `eta` and dark-count probability `dark` on `mode`:
    Pi_0 = sum_n (1 - eta)^n (1 - dark) |n><n| and 1 - Pi_0 (Kok et al.,
    RMP 79, 135 (2007)), dense over `basis`."""
    no_click = np.diag([(1.0 - eta) ** occ[mode] * (1.0 - dark) for occ in basis])
    return no_click, np.eye(len(basis)) - no_click


def density_from_vector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def partial_trace(
    rho: np.ndarray, basis: list[tuple[int, ...]], keep: list[int]
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Trace a dense density matrix down to the `keep` modes.

    Returns the reduced matrix over the sorted set of kept-occupation
    patterns present in the basis.
    """
    drop = [i for i in range(len(basis[0])) if i not in keep]
    kept_patterns = sorted({tuple(occ[i] for i in keep) for occ in basis})
    pos = {p: i for i, p in enumerate(kept_patterns)}
    red = np.zeros((len(kept_patterns), len(kept_patterns)), dtype=complex)
    for r, occ_r in enumerate(basis):
        kr = pos[tuple(occ_r[i] for i in keep)]
        er = tuple(occ_r[i] for i in drop)
        for c, occ_c in enumerate(basis):
            if tuple(occ_c[i] for i in drop) != er:
                continue
            red[kr, pos[tuple(occ_c[i] for i in keep)]] += rho[r, c]
    return red, kept_patterns


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits via the spectrum (eigvalsh route)."""
    vals = np.linalg.eigvalsh(rho)
    return float(-sum(v * math.log2(v) for v in vals if v > 1e-15))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
