"""The exact heralded protocols against a dense end-to-end oracle, at ideal
detectors (eta = 1, no dark counts).

Each point is rebuilt here from `dense_oracle` alone, sharing no code with
the package:
- the source: each ensemble's emission ladder read off the dense
  two-mode-squeezed vacuum, the first ensemble's photon (H) sent through
  a dense attenuator onto a loss mode, the second's (V) given the phase
  arg(beta/alpha) per photon, at most `emission_order` pairs kept;
- the EPR ancilla (|HH> + |VV>)/sqrt(2) on paths A and B, or vacuum;
- every term above the cutoff dropped, as the package's tensor products do;
- the Bell analyzer as one dense `mode_unitary_fock` on its four photonic
  modes, the two paths mixed per polarization by [[1, 1], [1, -1]]/sqrt(2);
- ideal click sets (a detector clicks when it holds a photon), classified
  here: one H and one V click on opposite sides herald PsiMinus, on one
  side PsiPlus;
- the pi correction on a PsiPlus herald (B:H for event-ready, S2 for
  memory), and each fidelity from the reduced density matrix of the
  heralded state.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest

import dense_oracle as oracle
from stokesim import protocols
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SourceParams

SQRT_HALF = math.sqrt(0.5)
#: the probabilities' absolute floor: the dense unitary leaves ~1e-16
#: amplitudes where bunching cancels a pattern exactly
RTOL, ATOL = 1e-10, 1e-20
#: modes of the event-ready joint state; the source's photon is on path p
SOURCE = ("S1", "S2", "loss", "p:H", "p:V")
EVENT_READY = (*SOURCE, "A:H", "A:V", "B:H", "B:V")


@lru_cache(maxsize=8)
def _ladder(p: float) -> list[complex]:
    """Amplitudes of |n, n>, n <= 4, in the two-mode squeezed vacuum of pair
    probability p; a 2-mode cutoff of 24 makes their ratios p^(n/2) to about
    1e-13 for p <= 0.15."""
    basis = oracle.fock_basis(2, 24)
    vec = oracle.two_mode_squeezed_vector(basis, p)
    return [complex(vec[basis.index((n, n))]) for n in range(5)]


@lru_cache(maxsize=16)
def _attenuated(n: int, t: float) -> list[complex]:
    """<k, n-k| U |n, 0>, k = 0..n: n photons through an attenuator of
    transmissivity t, [[sqrt t, sqrt(1-t)], [sqrt(1-t), -sqrt t]], onto an
    empty loss mode."""
    basis = oracle.fock_basis(2, n)
    s, r = math.sqrt(t), math.sqrt(1.0 - t)
    u = oracle.mode_unitary_fock(basis, [0, 1], np.array([[s, r], [r, -s]]))
    return [complex(u[basis.index((k, n - k)), basis.index((n, 0))]) for k in range(n + 1)]


def _source(params: SourceParams) -> dict:
    """{occupation of SOURCE: amplitude}, normalized.  Branch amplitudes
    compile as the package documents: an explicit t pumps both ensembles at
    p0; else |alpha| <= |beta| pumps both at |beta|^2 p0 and attenuates with
    t = |alpha/beta|^2, and |alpha| > |beta| pumps at |alpha|^2 p0 and
    |beta|^2 p0 without attenuation."""
    a, b, p0 = complex(params.alpha), complex(params.beta), params.p0
    if params.t is not None:
        (p1, p2), t, rel = (p0, p0), params.t, 0.0
    elif abs(a) <= abs(b):
        (p1, p2), t, rel = (abs(b) ** 2 * p0,) * 2, (abs(a) / abs(b)) ** 2, cmath.phase(b) - cmath.phase(a)
    else:
        (p1, p2), t, rel = (abs(a) ** 2 * p0, abs(b) ** 2 * p0), 1.0, cmath.phase(b) - cmath.phase(a)
    order = params.emission_order
    amps = {}
    for n, an in enumerate(_ladder(p1)[: order + 1]):
        for m, bm in enumerate(_ladder(p2)[: order + 1 - n]):
            for k, ck in enumerate(_attenuated(n, t)):
                amps[(n, m, n - k, k, m)] = an * bm * ck * cmath.exp(1j * rel * m)
    norm = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    return {occ: c / norm for occ, c in amps.items()}


def _tensor(a: dict, b: dict, cutoff: int) -> dict:
    return {x + y: c * d for x, c in a.items() for y, d in b.items() if sum(x) + sum(y) <= cutoff}


def _event_ready_joint(config: ProtocolConfig) -> dict:
    ancilla = {(1, 0, 1, 0): SQRT_HALF, (0, 1, 0, 1): SQRT_HALF} if config.epr_enabled else {(0, 0, 0, 0): 1.0}
    return _tensor(_source(config.source), ancilla, config.cutoff)


@lru_cache(maxsize=4)
def _analyzer(cutoff: int) -> tuple[list, np.ndarray, list[str]]:
    """The photonic basis (path 1 H, path 1 V, path 2 H, path 2 V), the dense
    analyzer on it, and each basis state's outcome under ideal clicks."""
    basis = oracle.fock_basis(4, cutoff)
    u = np.zeros((4, 4))
    for h in (0, 1):  # path 1 and path 2 of one polarization
        u[h, h] = u[h + 2, h] = u[h, h + 2] = SQRT_HALF
        u[h + 2, h + 2] = -SQRT_HALF
    clicks = {
        frozenset({0, 3}): "PsiMinus",
        frozenset({1, 2}): "PsiMinus",
        frozenset({0, 1}): "PsiPlus",
        frozenset({2, 3}): "PsiPlus",
    }
    outcomes = [clicks.get(frozenset(i for i, n in enumerate(occ) if n), "Fail") for occ in basis]
    return basis, oracle.mode_unitary_fock(basis, [0, 1, 2, 3], u), outcomes


def _herald(joint: dict, modes: tuple, paths: tuple[str, str], flip: str, keep: tuple, cutoff: int):
    """Born probabilities of PsiMinus and PsiPlus, and the reduced density
    matrix on `keep` (with its occupation basis) of the corrected heralded
    state, or None when nothing heralds."""
    photonic = [modes.index(f"{path}:{pol}") for path in paths for pol in "HV"]
    rest = [i for i in range(len(modes)) if i not in photonic]
    basis, u, outcomes = _analyzer(cutoff)
    rows = sorted({tuple(occ[i] for i in rest) for occ in joint})
    psi = np.zeros((len(rows), len(basis)), complex)
    for occ, c in joint.items():
        psi[rows.index(tuple(occ[i] for i in rest)), basis.index(tuple(occ[i] for i in photonic))] += c
    psi = psi @ u.T
    norm = float(np.sum(np.abs(psi) ** 2))
    # the corrected heralded columns, and the kept and traced occupations of each row
    env = [modes[i] for i in rest]
    sign = np.array([(-1.0) ** row[env.index(flip)] for row in rows])
    heralds = {o: psi[:, [j for j, x in enumerate(outcomes) if x == o]] for o in ("PsiMinus", "PsiPlus")}
    heralds["PsiPlus"] = heralds["PsiPlus"] * sign[:, None]
    probs = [float(np.sum(np.abs(cols) ** 2)) / norm for cols in heralds.values()]
    if sum(probs) == 0.0:
        return probs, None, None
    kept = [tuple(row[env.index(m)] for m in keep) for row in rows]
    traced = [tuple(x for m, x in zip(env, row) if m not in keep) for row in rows]
    kbasis, tbasis = sorted(set(kept)), sorted(set(traced))
    cols = np.hstack(list(heralds.values()))
    block = np.zeros((len(kbasis), len(tbasis), cols.shape[1]), complex)
    block[[kbasis.index(k) for k in kept], [tbasis.index(t) for t in traced]] = cols
    rho = np.einsum("krc,lrc->kl", block, block.conj())
    return probs, rho / np.trace(rho).real, kbasis


def _expect(rho: np.ndarray, kbasis: list, target: dict) -> float:
    vec = np.array([target.get(k, 0.0) for k in kbasis], complex)
    return float((vec.conj() @ rho @ vec).real)


def _close(actual, expected):
    if expected is None:
        assert actual is None
    else:
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


GRID = [
    # (emission_order, cutoff, p0, t, alpha, beta, epr_enabled)
    (1, 4, 0.1, 0.3, SQRT_HALF, SQRT_HALF, True),
    (1, 6, 0.1, None, 0.6, 0.8j, True),
    (1, 4, 0.1, 0.3, SQRT_HALF, SQRT_HALF, False),
    (2, 4, 0.1, 0.3, SQRT_HALF, SQRT_HALF, True),
    (2, 5, 0.15, None, 0.8, 0.6 * cmath.exp(0.7j), True),
    (2, 6, 0.1, None, 0.6, 0.8j, False),
    (2, 6, 0.05, 0.0, SQRT_HALF, SQRT_HALF, True),
]


def _config(order, cutoff, p0, t, alpha, beta, epr, **kwargs) -> ProtocolConfig:
    source = SourceParams(p0=p0, emission_order=order, t=t, alpha=alpha, beta=beta)
    return ProtocolConfig(source=source, epr_enabled=epr, cutoff=cutoff, **kwargs)


@pytest.mark.parametrize("point", GRID)
def test_exact_event_ready_matches_the_dense_oracle(point):
    config = _config(*point)
    _, report = protocols.event_ready_generation(config, with_state=False)
    (minus, plus), rho, kbasis = _herald(_event_ready_joint(config), EVENT_READY, ("p", "A"), "B:H", ("S1", "S2", "B:H", "B:V"), config.cutoff)
    # the singlet (|V>_B|S1> - |H>_B|S2>)/sqrt(2) on (S1, S2, B:H, B:V)
    singlet = {(1, 0, 0, 1): SQRT_HALF, (0, 1, 1, 0): -SQRT_HALF}
    _close(report["psi_minus_probability"], minus)
    _close(report["psi_plus_probability"], plus)
    _close(report["success_probability"], minus + plus)
    _close(report["heralded_fidelity"], None if rho is None else _expect(rho, kbasis, singlet))
    assert (rho is None) == (point[0] == 1 and not point[-1])


@pytest.mark.parametrize("point, theta, phi", [(None, 0.4, 1.1), (GRID[1], 1.2, 4.0), (GRID[4], 0.7, 0.3)])
def test_exact_memory_matches_the_dense_oracle(point, theta, phi):
    # the ideal singlet channel, or the event-ready joint state as a channel
    if point is None:
        config = ProtocolConfig(theta=theta, phi=phi)
        channel, modes = {(1, 0, 0, 1): SQRT_HALF, (0, 1, 1, 0): -SQRT_HALF}, ("S1", "S2", "B:H", "B:V")
        _, report = protocols.memory_store(config)
    else:
        config = _config(*point, theta=theta, phi=phi)
        channel, modes = _event_ready_joint(config), EVENT_READY
        _, report = protocols.memory_store(config, protocols._event_ready_input(config))
    qubit = {(1, 0): math.cos(theta), (0, 1): math.sin(theta) * cmath.exp(1j * phi)}
    joint = _tensor(channel, qubit, config.cutoff)
    (minus, plus), rho, kbasis = _herald(joint, (*modes, "q:H", "q:V"), ("q", "B"), "S2", ("S1", "S2"), config.cutoff)
    _close(report["success_probability"], minus + plus)
    _close(report["stored_fidelity"], _expect(rho, kbasis, qubit))
