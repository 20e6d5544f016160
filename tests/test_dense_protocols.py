"""The exact heralded protocols against a dense end-to-end oracle, at the
default detector (eta = 1, dark_prob 1e-5) and at a fixed set of others.

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
- each detector's threshold POVM (`dense_oracle.threshold_povm`), and the
  click sets classified here: one H and one V click on opposite sides
  herald PsiMinus, on one side PsiPlus;
- the pi correction on a PsiPlus herald (B:H for event-ready, S2 for
  memory), and each fidelity from the reduced density matrix of the
  heralded state.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import dense_oracle as oracle
from stokesim import protocols
from stokesim.detection import DetectorSpec
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


def _pumps(params: SourceParams) -> tuple[tuple[float, float], float, float]:
    """The two pump strengths, the attenuator's t and the second branch's
    phase.  Branch amplitudes compile as the package documents: an explicit t
    pumps both ensembles at p0; else |alpha| <= |beta| pumps both at
    |beta|^2 p0 and attenuates with t = |alpha/beta|^2, and |alpha| > |beta|
    pumps at |alpha|^2 p0 and |beta|^2 p0 without attenuation.  At
    |alpha| < 1e-15 the first ensemble is not pumped at all
    (`test_sources.py::test_dual_source_extreme_splits` pins that)."""
    a, b, p0 = complex(params.alpha), complex(params.beta), params.p0
    if params.t is not None:
        return (p0, p0), params.t, 0.0
    if abs(a) < 1e-15:
        return (0.0, abs(b) ** 2 * p0), 1.0, 0.0
    if abs(a) <= abs(b):
        return (abs(b) ** 2 * p0,) * 2, (abs(a) / abs(b)) ** 2, cmath.phase(b) - cmath.phase(a)
    return (abs(a) ** 2 * p0, abs(b) ** 2 * p0), 1.0, cmath.phase(b) - cmath.phase(a)


def _order_cut(params: SourceParams) -> float:
    """The weight that the emission-order cut drops: each pump's ladder, read
    off the dense vacuum up to `emission_order` pairs and normalized, and the
    pairs of rungs with more pairs than that summed."""
    order = params.emission_order
    w1, w2 = ([abs(c) ** 2 for c in _ladder(p)[: order + 1]] for p in _pumps(params)[0])
    return sum(x * y for n, x in enumerate(w1) for m, y in enumerate(w2) if n + m > order) / (sum(w1) * sum(w2))


def _source(params: SourceParams) -> dict:
    """{occupation of SOURCE: amplitude}, normalized, the branch amplitudes
    compiled by `_pumps`."""
    (p1, p2), t, rel = _pumps(params)
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


def _dropped(a: dict, b: dict, cutoff: int) -> float:
    """The weight of the terms of a (x) b that `_tensor` drops."""
    return sum(abs(c * d) ** 2 for x, c in a.items() for y, d in b.items() if sum(x) + sum(y) > cutoff)


def _ancilla(config: ProtocolConfig) -> dict:
    return {(1, 0, 1, 0): SQRT_HALF, (0, 1, 0, 1): SQRT_HALF} if config.epr_enabled else {(0, 0, 0, 0): 1.0}


def _event_ready_joint(config: ProtocolConfig) -> dict:
    return _tensor(_source(config.source), _ancilla(config), config.cutoff)


#: the click sets that herald, by analyzer mode (path 1 H, path 1 V, path 2 H,
#: path 2 V): one H and one V click on opposite sides, or on one side
HERALDS = {
    frozenset({0, 3}): "PsiMinus",
    frozenset({1, 2}): "PsiMinus",
    frozenset({0, 1}): "PsiPlus",
    frozenset({2, 3}): "PsiPlus",
}


@lru_cache(maxsize=8)
def _network(cutoff: int) -> tuple[list, np.ndarray]:
    """The photonic basis (path 1 H, path 1 V, path 2 H, path 2 V) and the
    dense analyzer on it."""
    basis = oracle.fock_basis(4, cutoff)
    u = np.zeros((4, 4))
    for h in (0, 1):  # path 1 and path 2 of one polarization
        u[h, h] = u[h + 2, h] = u[h, h + 2] = SQRT_HALF
        u[h + 2, h + 2] = -SQRT_HALF
    return basis, oracle.mode_unitary_fock(basis, [0, 1, 2, 3], u)


@lru_cache(maxsize=16)
def _analyzer(cutoff: int, eta: float, dark: float) -> tuple[list, np.ndarray, dict]:
    """`_network(cutoff)` and each herald's POVM element: over the click sets
    that herald it, the product of each detector's click or no-click
    element."""
    basis, u = _network(cutoff)
    detectors = [oracle.threshold_povm(basis, k, eta, dark) for k in range(4)]
    elements = {"PsiMinus": 0.0, "PsiPlus": 0.0}
    for clicked, outcome in HERALDS.items():
        element = np.eye(len(basis))
        for k, (no_click, click) in enumerate(detectors):
            element = element @ (click if k in clicked else no_click)
        elements[outcome] = elements[outcome] + element
    return basis, u, elements


def _herald(joint: dict, modes: tuple, paths: tuple[str, str], flip: str, keep: tuple, config: ProtocolConfig):
    """Born probabilities of PsiMinus and PsiPlus under the config's
    detectors, and the reduced density matrix on `keep` (with its occupation
    basis) of the corrected heralded state, or None when nothing heralds."""
    photonic = [modes.index(f"{path}:{pol}") for path in paths for pol in "HV"]
    rest = [i for i in range(len(modes)) if i not in photonic]
    basis, u, elements = _analyzer(config.cutoff, config.detector.efficiency, config.detector.dark_prob)
    rows = sorted({tuple(occ[i] for i in rest) for occ in joint})
    psi = np.zeros((len(rows), len(basis)), complex)
    for occ, c in joint.items():
        psi[rows.index(tuple(occ[i] for i in rest)), basis.index(tuple(occ[i] for i in photonic))] += c
    psi = psi @ u.T
    norm = float(np.sum(np.abs(psi) ** 2))
    # a herald's element is diagonal in the number basis, so the heralded
    # state is the columns weighted by the roots of its diagonal
    env = [modes[i] for i in rest]
    sign = np.array([(-1.0) ** row[env.index(flip)] for row in rows])
    heralds = {}
    for o, element in elements.items():
        diagonal = np.diag(element)
        assert np.array_equal(element, np.diag(diagonal))
        heralds[o] = psi * np.sqrt(diagonal)
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


#: (eta, dark_prob) besides the default detector's (1, 1e-5): ideal detectors,
#: detectors that never see a photon, with and without dark counts, and
#: lossy, noisy ones
DETECTORS = [(1.0, 0.0), (0.0, 0.0), (0.0, 0.3), (0.8, 1e-3), (0.5, 0.01)]


def _check_event_ready(config: ProtocolConfig):
    _, report = protocols.event_ready_generation(config, with_state=False)
    (minus, plus), rho, kbasis = _herald(_event_ready_joint(config), EVENT_READY, ("p", "A"), "B:H", ("S1", "S2", "B:H", "B:V"), config)
    # the singlet (|V>_B|S1> - |H>_B|S2>)/sqrt(2) on (S1, S2, B:H, B:V)
    singlet = {(1, 0, 0, 1): SQRT_HALF, (0, 1, 1, 0): -SQRT_HALF}
    # the two cut weights, and the joint state's weight with the cutoff's cut: 1
    _close(report["emission_order_cut"], _order_cut(config.source))
    _close(report["cutoff_loss"], _dropped(_source(config.source), _ancilla(config), config.cutoff))
    joint = protocols._event_ready_input(config)
    assert abs(joint.norm_sq() + joint.truncation_loss - 1.0) <= 1e-12
    _close(report["psi_minus_probability"], minus)
    _close(report["psi_plus_probability"], plus)
    _close(report["success_probability"], minus + plus)
    _close(report["heralded_fidelity"], None if rho is None else _expect(rho, kbasis, singlet))


def _check_memory(config: ProtocolConfig, point):
    # the ideal singlet channel (no point), or the event-ready joint state as a channel
    if point is None:
        channel, modes = {(1, 0, 0, 1): SQRT_HALF, (0, 1, 1, 0): -SQRT_HALF}, ("S1", "S2", "B:H", "B:V")
        _, report = protocols.memory_store(config)
        order_cut = channel_cut = 0.0
    else:
        channel, modes = _event_ready_joint(config), EVENT_READY
        _, report = protocols.memory_store(config, protocols._event_ready_input(config))
        order_cut, channel_cut = _order_cut(config.source), _dropped(_source(config.source), _ancilla(config), config.cutoff)
    qubit = {(1, 0): math.cos(config.theta), (0, 1): math.sin(config.theta) * cmath.exp(1j * config.phi)}
    joint = _tensor(channel, qubit, config.cutoff)
    _close(report["emission_order_cut"], order_cut)
    _close(report["cutoff_loss"], channel_cut + _dropped(channel, qubit, config.cutoff))
    (minus, plus), rho, kbasis = _herald(joint, (*modes, "q:H", "q:V"), ("q", "B"), "S2", ("S1", "S2"), config)
    _close(report["success_probability"], minus + plus)
    _close(report["stored_fidelity"], None if rho is None else _expect(rho, kbasis, qubit))


@pytest.mark.parametrize("point", GRID)
def test_exact_event_ready_matches_the_dense_oracle(point):
    _check_event_ready(_config(*point))


@pytest.mark.parametrize("point, theta, phi", [(None, 0.4, 1.1), (GRID[1], 1.2, 4.0), (GRID[4], 0.7, 0.3)])
def test_exact_memory_matches_the_dense_oracle(point, theta, phi):
    config = ProtocolConfig(theta=theta, phi=phi) if point is None else _config(*point, theta=theta, phi=phi)
    _check_memory(config, point)


@pytest.mark.parametrize("eta, dark", DETECTORS)
def test_exact_runs_match_the_dense_oracle_at_each_detector(eta, dark):
    detector = DetectorSpec(efficiency=eta, dark_prob=dark)
    for point in (GRID[1], GRID[4], GRID[5]):
        _check_event_ready(_config(*point, detector=detector))
    _check_memory(ProtocolConfig(theta=0.4, phi=1.1, detector=detector), None)


@hs.composite
def _drawn_configs(draw) -> ProtocolConfig:
    """A config of the drawn space: emission order 1 or 2, cutoff at most 6
    (at least 3, which memory needs), p0, an explicit t or branch amplitudes
    of any share and phases, the ancilla on or off, the input qubit and any
    detector with eta in [0, 1] and dark_prob in [0, 0.05]."""
    order = draw(hs.integers(1, 2))
    cutoff = draw(hs.integers(max(2 * order, 3), 6))
    p0 = draw(hs.floats(0.0, 0.15))
    if draw(hs.booleans()):
        t, alpha, beta = draw(hs.floats(0.0, 1.0)), SQRT_HALF, SQRT_HALF
    else:
        share, phase_a, phase_b = draw(hs.floats(0.0, 1.0)), draw(hs.floats(0.0, 6.0)), draw(hs.floats(0.0, 6.0))
        t, alpha, beta = None, math.sqrt(share) * cmath.exp(1j * phase_a), math.sqrt(1.0 - share) * cmath.exp(1j * phase_b)
    detector = DetectorSpec(efficiency=draw(hs.floats(0.0, 1.0)), dark_prob=draw(hs.floats(0.0, 0.05)))
    theta, phi = draw(hs.floats(0.0, math.pi)), draw(hs.floats(0.0, 2.0 * math.pi, exclude_max=True))
    return _config(order, cutoff, p0, t, alpha, beta, draw(hs.booleans()), detector=detector, theta=theta, phi=phi)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_drawn_configs(), hs.booleans())
@example(_config(1, 4, 0.1, None, 0.0, 1.0, True), False)
def test_drawn_exact_runs_match_the_dense_oracle(config, joint_channel):
    # event-ready, and memory on the ideal channel or on the event-ready joint
    # state; the example is alpha = 0, where the source pumps one ensemble only
    _check_event_ready(config)
    _check_memory(config, True if joint_channel else None)
