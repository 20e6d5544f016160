"""The sampler follows the threshold-detector model, herald by herald.

A detector clicks on n photons with probability q(n) = `click_prob(n)`,
independently of the other detectors, and loss and dark counts leave the
conditional state alone.  So a trial gives true photon numbers `pattern`
and click code c (bit j set when detector j clicked) with probability

    P(pattern) * prod_j q(n_j)^(c_j) * (1 - q(n_j))^(1 - c_j),

and an outcome's probability is that summed over the patterns and the
codes that the analyzer's 16-entry table maps to it.  It is computed here
from the analyzer's Born distribution and `DetectorSpec.click_prob`, as
`bench/workloads.py::herald_probability` computes its herald probability,
and never from the sampler.

Each count is checked within 4 sigma of trials times its probability.
The variance is floored at one count: an outcome expected 0.04 times may
still turn up once, which the normal approximation would call 5 sigma.
An outcome of probability exactly 0 must never turn up.
"""

import math

import pytest

from stokesim import protocols
from stokesim.detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec, PreparedBellAnalyzer
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SourceParams

TRIALS = 20_000
DETECTORS = [DetectorSpec(efficiency=eta, dark_prob=d) for eta in (1.0, 0.8, 0.5) for d in (0.0, 1e-3, 1e-2)]
QUBITS = [(0.7, 1.9), (0.3, 4.0), (1.2, 0.0)]
RUNS = {"event-ready": protocols.event_ready_generation, "memory": protocols.memory_store}


def _points(kind, detector):
    if kind == "memory":
        return [ProtocolConfig(detector=detector, theta=theta, phi=phi) for theta, phi in QUBITS]
    return [
        ProtocolConfig(source=SourceParams(p0=p0, emission_order=order), detector=detector, epr_enabled=epr)
        for p0 in (0.0, 0.01, 0.05) for epr in (True, False) for order in (1, 2)
    ]


def _outcome_probabilities(kind, config):
    """Each outcome's probability under the detector model, from the Born
    distribution of true photon numbers and the click probabilities."""
    spec = protocols.HERALDED[kind]
    prep = PreparedBellAnalyzer(spec.joint_state(config, None), *spec.paths)
    probs = {PSI_MINUS: 0.0, PSI_PLUS: 0.0, FAIL: 0.0}
    for pattern, p in prep.distribution:
        q = [config.detector.click_prob(n) for n in pattern]
        for code, outcome in enumerate(prep.outcomes):
            probs[outcome] += p * math.prod(q_j if code >> j & 1 else 1.0 - q_j for j, q_j in enumerate(q))
    return probs


def _within_4_sigma(count, p, trials):
    if p == 0.0:
        return count == 0
    return abs(count - p * trials) <= 4.0 * math.sqrt(max(trials * p * (1.0 - p), 1.0))


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: f"eta{d.efficiency}-d{d.dark_prob}")
@pytest.mark.parametrize("kind", RUNS)
def test_each_herald_count_follows_the_detector_model(kind, detector):
    for index, config in enumerate(_points(kind, detector)):
        probs = _outcome_probabilities(kind, config)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        report = RUNS[kind](config.replace(mode="sampled", trials=TRIALS, seed=index + 1))[1]
        for key, outcome in ("psi_minus_count", PSI_MINUS), ("psi_plus_count", PSI_PLUS):
            assert _within_4_sigma(report[key], probs[outcome], TRIALS), (config, key, report[key], probs[outcome] * TRIALS)


@pytest.mark.parametrize("seed, eta", [(1, 1.0), (2, 0.8), (3, 0.5)])
def test_order_1_heralds_need_both_photons_seen(seed, eta):
    # without dark counts an order-1 herald needs the source photon and the
    # ancilla photon both detected: eta^2 * p0 / (2(1 + p0)), and each herald
    # leaves the singlet
    trials, p0 = 100_000, 0.05
    config = ProtocolConfig(
        source=SourceParams(p0=p0, emission_order=1), detector=DetectorSpec(efficiency=eta, dark_prob=0.0),
        mode="sampled", trials=trials, seed=seed,
    )
    report = protocols.event_ready_generation(config)[1]
    p = eta**2 * p0 / (2.0 * (1.0 + p0))
    assert abs(report["success_count"] - p * trials) <= 4.0 * math.sqrt(trials * p * (1.0 - p))
    assert abs(report["mean_heralded_fidelity"] - 1.0) <= 1e-12
