"""Exact and sampled runs of one config describe one model.

Both modes follow the configured detectors, so a sampled run's outcome
counts are binomial draws of the exact outcome probabilities and its mean
fidelity estimates the exact one.  Each point of a fixed grid, at ideal
detectors, and its event-ready points at p0 = 0.05 and every memory point
under two lossy, noisy detector models, run both modes in process with a
fixed seed:
- the success, PsiMinus and PsiPlus counts lie within 4 sigma of exact
  probability times trials;
- the mean fidelity of the heralded trials lies within the Hoeffding
  bound of a [0, 1] variable (failure probability 1e-6 per point) of the
  exact fidelity;
- every report number lies in its range, every fidelity in [0, 1].

The ranges are also checked at every grid point under both lossy models.

`memory` reads no source (its channel is the ideal singlet), so its
points vary the input qubit and the retrieval efficiency instead.
"""

import math

import pytest

from stokesim import detection, protocols
from stokesim.detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SourceParams

TRIALS = 20_000
IDEAL = DetectorSpec(efficiency=1.0, dark_prob=0.0)


def _grid():
    amplitudes = [{"t": 0.3}, {"alpha": 0.6, "beta": 0.8j}]
    for p0 in (0.01, 0.05):
        for epr in (True, False):
            for order in (1, 2):
                for ab in amplitudes:
                    source = SourceParams(p0=p0, emission_order=order, **ab)
                    yield "event-ready", ProtocolConfig(source=source, detector=IDEAL, epr_enabled=epr)
    for theta, phi, retrieval in [(0.7, 1.9, 1.0), (0.3, 4.0, 0.6), (1.2, 0.0, 0.9), (2.9, 5.5, 1.0)]:
        yield "memory", ProtocolConfig(detector=IDEAL, theta=theta, phi=phi, retrieval_efficiency=retrieval)


GRID = list(_grid())
RUNS = {"event-ready": protocols.event_ready_generation, "memory": protocols.memory_store}
#: the ideal detectors and two that lose photons and count in the dark
DETECTORS = {"ideal": IDEAL, "eta-0.8": DetectorSpec(efficiency=0.8, dark_prob=1e-3), "eta-0.5": DetectorSpec(efficiency=0.5, dark_prob=1e-2)}
#: the grid, then its event-ready points at p0 = 0.05 and its memory points under each lossy model
CASES = GRID + [
    (kind, config.replace(detector=DETECTORS[name]))
    for name in ("eta-0.8", "eta-0.5") for kind, config in GRID if kind == "memory" or config.source.p0 == 0.05
]


def _outcome_probabilities(kind, config):
    """Exact probability of each outcome, from the analyzer's outcome weights
    under the config's detectors (the memory report gives only their sum)."""
    spec = protocols.HERALDED[kind]
    prep = detection.PreparedBellAnalyzer(spec.joint_state(config, None), *spec.paths, config.detector)
    return {outcome: sum(p for _, p in entries) for outcome, entries in prep.outcome_weights().items()}


def _within_4_sigma(count, p, trials):
    return abs(count - p * trials) <= 4.0 * math.sqrt(trials * p * (1.0 - p))


def _assert_ranges(report):
    for key, value in report.items():
        if key.endswith("_probability"):
            assert 0.0 <= value <= 1.0, key
        if key.endswith("fidelity") and value is not None:
            assert 0.0 <= value <= 1.0, key
    assert report["emission_order_cut"] >= 0.0 and report["cutoff_loss"] >= 0.0
    if report["mode"] == "sampled":
        assert 0 <= report["success_count"] <= report["trials"]
        assert report["psi_minus_count"] + report["psi_plus_count"] == report["success_count"]
        assert 0.0 <= report["wilson_low"] <= report["success_rate"] <= report["wilson_high"] <= 1.0
    elif "psi_minus_probability" in report:
        total = report["psi_minus_probability"] + report["psi_plus_probability"]
        assert total == pytest.approx(report["success_probability"], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_sampled_counts_and_fidelity_match_exact(index):
    kind, config = CASES[index]
    run, key = RUNS[kind], protocols.HERALDED[kind].fidelity_key
    exact = run(config)[1]
    sampled = run(config.replace(mode="sampled", trials=TRIALS, seed=index + 1))[1]
    _assert_ranges(exact)
    _assert_ranges(sampled)
    probs = _outcome_probabilities(kind, config)
    success = 1.0 - probs[FAIL]
    assert success == pytest.approx(exact["success_probability"], rel=1e-12, abs=1e-15)
    assert _within_4_sigma(sampled["success_count"], success, TRIALS)
    assert _within_4_sigma(sampled["psi_minus_count"], probs[PSI_MINUS], TRIALS)
    assert _within_4_sigma(sampled["psi_plus_count"], probs[PSI_PLUS], TRIALS)
    heralds = sampled["success_count"]
    if heralds == 0:
        assert sampled["mean_" + key] is None
    else:
        assert abs(sampled["mean_" + key] - exact[key]) <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * heralds))



@pytest.mark.parametrize("detector", sorted(DETECTORS))
def test_every_report_number_lies_in_its_range(detector):
    # each *_probability in [0, 1], PsiMinus + PsiPlus equal to success to
    # rounding, both cut weights >= 0 and success_count <= trials, exact and
    # sampled, at every grid point
    for index, (kind, config) in enumerate(GRID):
        config = config.replace(detector=DETECTORS[detector])
        for mode in (config, config.replace(mode="sampled", trials=2_000, seed=index + 1)):
            _assert_ranges(RUNS[kind](mode)[1])
