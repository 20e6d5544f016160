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
An outcome of probability exactly 0 must never turn up.  Beyond the
outcomes, drawn runs compare the whole key histogram, every (pattern,
click code) cell, with the model by a G-test: a wrong click bit on a code
that never heralds leaves every herald count as it is.

The sampler's threshold tables and the exact click model
(`detection._code_probabilities`) are tied table by table, with no trials
run; and exact runs are checked against numbers computed outside the
program: the dark-count false-herald rate, the order-1 closed form, and
the benchmark's own herald probability.
"""

import cmath
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.special import chdtrc

from stokesim import detection, protocols
from stokesim.detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec, PreparedBellAnalyzer
from stokesim.protocols import ProtocolConfig
from stokesim.sources import SQRT_HALF, SourceParams

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


@hs.composite
def _drawn_runs(draw):
    """A sampled run of the drawn space: event-ready, or memory on the ideal
    channel or on the event-ready input as its channel; emission order 1 or
    2, cutoff at most 6 (at least 3, which memory needs), p0, an explicit t
    or branch amplitudes of any share and phases, the ancilla on or off, the
    input qubit, eta in [0, 1], dark_prob in [0, 0.05] and the seed."""
    order = draw(hs.integers(1, 2))
    if draw(hs.booleans()):
        t, alpha, beta = draw(hs.floats(0.0, 1.0)), SQRT_HALF, SQRT_HALF
    else:
        share, phase_a, phase_b = draw(hs.floats(0.0, 1.0)), draw(hs.floats(0.0, 6.0)), draw(hs.floats(0.0, 6.0))
        t, alpha, beta = None, math.sqrt(share) * cmath.exp(1j * phase_a), math.sqrt(1.0 - share) * cmath.exp(1j * phase_b)
    config = ProtocolConfig(
        source=SourceParams(p0=draw(hs.floats(0.0, 0.15)), emission_order=order, t=t, alpha=alpha, beta=beta),
        detector=DetectorSpec(efficiency=draw(hs.floats(0.0, 1.0)), dark_prob=draw(hs.floats(0.0, 0.05))),
        epr_enabled=draw(hs.booleans()), cutoff=draw(hs.integers(max(2 * order, 3), 6)),
        theta=draw(hs.floats(0.0, math.pi)), phi=draw(hs.floats(0.0, 2.0 * math.pi, exclude_max=True)),
        mode="sampled", trials=TRIALS, seed=draw(hs.integers(0, 2**64 - 1)),
    )
    kind = draw(hs.sampled_from(sorted(RUNS)))
    channel = protocols._event_ready_input(config) if kind == "memory" and draw(hs.booleans()) else None
    return config, kind, channel


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_drawn_runs())
def test_drawn_key_histograms_follow_the_detector_model(run):
    # every (true pattern, click code) cell, heralding or not, against
    # TRIALS * P(pattern) * P(code | pattern) by a G-test, the cells expected
    # fewer than 5 times pooled into one; a cell of probability 0 never turns up
    config, kind, channel = run
    prep = protocols._cached_protocol(config, kind, channel).prep
    keys = protocols.trial_outcomes(config, kind, 0, TRIALS, channel)
    observed = np.bincount(keys, minlength=len(prep.distribution) * len(prep.outcomes))
    expected = np.zeros(len(observed))
    for i, (occ, p) in enumerate(prep.distribution):
        for code, given in detection._code_probabilities(occ, [config.detector] * len(occ)):
            expected[i * len(prep.outcomes) + code] = TRIALS * p * given
    assert not observed[expected == 0.0].any()
    rare = (expected > 0.0) & (expected < 5.0)
    obs = np.append(observed[expected >= 5.0], observed[rare].sum())
    exp = np.append(expected[expected >= 5.0], expected[rare].sum())
    obs, exp = obs[exp > 0.0], exp[exp > 0.0]
    g = 2.0 * sum(o * math.log(o / e) for o, e in zip(obs.tolist(), exp.tolist()) if o)
    assert len(obs) == 1 or chdtrc(len(obs) - 1, g) >= 1e-6, (config, kind, channel is not None, g, len(obs))


def _below(threshold: float) -> float:
    """Share of the uniforms m * 2^-53, 0 <= m < 2^53, below `threshold`."""
    return min(math.ceil(threshold * 2.0**53), 2**53) * 2.0**-53


@pytest.mark.parametrize("dark", [0.0, 1e-3, 0.3])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.8, 0.999999, 1.0])
def test_sampler_tables_give_the_click_model_no_click_probabilities(eta, dark):
    # each stream word after word 0 acts through one threshold: the share of
    # the 2^-53 grid on its no-click side is (1 - eta)^n for a loss word on n
    # photons and 1 - d for a dark word, and a detector's words multiply to
    # the exact table's no-click marginal, 1 - click_prob(n)
    config = ProtocolConfig(source=SourceParams(p0=0.1, emission_order=5), cutoff=12)
    detector = DetectorSpec(efficiency=eta, dark_prob=dark)
    prep = PreparedBellAnalyzer(protocols._event_ready_input(config), "p", "A", detector)
    sampler = prep.sampler
    words = sampler._width - 1
    bits = sampler._bits.reshape(words, len(prep.distribution), 2)
    assert max(n for occ, _ in prep.distribution for n in occ) == 6
    for i, (occ, _) in enumerate(prep.distribution):
        stream = [(kind, j, n) for j, n in enumerate(occ) for kind in ("loss", "dark")
                  if (kind == "loss" and n and 0.0 < eta < 1.0) or (kind == "dark" and dark > 0.0)]
        no_click = [0.0 if sampler._base[i] >> j & 1 else 1.0 for j in range(len(occ))]
        for w in range(words):
            below, above = (int(b) for b in bits[w, i])
            edge, redraw = float(sampler._edge[w, i]), float(sampler._redraw[w, i])
            assert redraw == math.inf or 1.0 - _below(redraw) <= 1e-14
            if w >= len(stream):
                assert below == above == 0
                continue
            kind, j, n = stream[w]
            assert (below | above) & ~(1 << j) == 0
            share = _below(edge) * (not below) + (1.0 - _below(edge)) * (not above)
            model = (1.0 - eta) ** n if kind == "loss" else 1.0 - dark
            assert abs(share - model) <= 1e-14, (occ, kind, j)
            no_click[j] *= share
        codes = detection._code_probabilities(occ, [detector] * len(occ))
        for j, n in enumerate(occ):
            marginal = sum(p for code, p in codes if not code >> j & 1)
            assert abs(marginal - (1.0 - detector.click_prob(n))) <= 1e-14
            assert abs(no_click[j] - marginal) <= 1e-14, (occ, j)


def test_exact_dark_counts_alone_herald_at_the_false_herald_rate():
    config = ProtocolConfig(source=SourceParams(p0=0.0), detector=DetectorSpec(dark_prob=0.01), epr_enabled=False)
    report = protocols.event_ready_generation(config)[1]
    rate = protocols.false_herald_probability(detection.default_herald_rule(), 0.01)
    assert rate == pytest.approx(3.9204e-4, rel=1e-12)
    assert report["success_probability"] == pytest.approx(rate, rel=1e-12)


@pytest.mark.parametrize("eta", [1.0, 0.8, 0.5, 0.0])
def test_exact_order_1_heralds_need_both_photons_seen(eta):
    p0 = 0.05
    config = ProtocolConfig(source=SourceParams(p0=p0, emission_order=1), detector=DetectorSpec(efficiency=eta, dark_prob=0.0))
    report = protocols.event_ready_generation(config)[1]
    assert report["success_probability"] == pytest.approx(eta**2 * p0 / (2.0 * (1.0 + p0)), rel=1e-12, abs=1e-300)
    if eta:
        assert report["heralded_fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_exact_event_ready_at_half_efficiency_and_dark_counts():
    config = ProtocolConfig(source=SourceParams(p0=0.01), detector=DetectorSpec(efficiency=0.5, dark_prob=0.01))
    report = protocols.event_ready_generation(config)[1]
    assert report["success_probability"] == pytest.approx(0.011233304554455452, rel=1e-12)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["herald-sampled", "memory-lossy"])
def test_exact_success_is_the_benchmark_herald_probability(name):
    # the benchmark's check of a sampled workload computes its herald
    # probability outside the program; exact mode on that physics agrees
    workloads = _bench_workloads()
    if name == "herald-sampled":
        physics = workloads._HERALD
        config = ProtocolConfig(source=SourceParams(p0=physics["p0"]))
        run = protocols.event_ready_generation
    else:
        physics = workloads._MEMORY
        config = ProtocolConfig(theta=physics["theta"], phi=physics["phi"])
        run = protocols.memory_store
    config = config.replace(detector=DetectorSpec(efficiency=physics["eta"], dark_prob=physics["dark_prob"]))
    report = run(config)[1]
    assert report["success_probability"] == pytest.approx(workloads.herald_probability(workloads.WORKLOADS[name]), rel=1e-12)
