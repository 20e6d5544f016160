"""Detector-model and Bell-analysis tests.

The analyzer outcome table for the four two-photon Bell inputs was
derived by hand from the beam-splitter convention and is frozen below:
each psi state is identified with certainty, both phi states always
fail (their photons bunch and land on a polarization-degenerate pair).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from sparse_states import measured_modes, mixed_states, outcome, patterns, pure_states, without_modes
from stokesim import detection, fock
from stokesim.detection import (
    D_H,
    D_HP,
    D_V,
    D_VP,
    FAIL,
    PSI_MINUS,
    PSI_PLUS,
    ClickPattern,
    DetectorSpec,
    PreparedBellAnalyzer,
)
from stokesim.errors import ValidationError
from stokesim.rng import trial_rng

SQRT_HALF = 0.7071067811865476


def two_path_registry(cutoff=6):
    reg = fock.ModeRegistry(cutoff=cutoff).add_photonic_path("a", basis="linear")
    return reg.add_photonic_path("b", basis="linear")


def occ_of(registry, pattern):
    return next(iter(fock.basis_state(registry, pattern).amplitudes))


def bell_state(kind):
    reg = two_path_registry()
    hv = fock.basis_state(reg, {"a:H": 1, "b:V": 1}).amplitudes
    vh = fock.basis_state(reg, {"a:V": 1, "b:H": 1}).amplitudes
    hh = fock.basis_state(reg, {"a:H": 1, "b:H": 1}).amplitudes
    vv = fock.basis_state(reg, {"a:V": 1, "b:V": 1}).amplitudes
    pairs = {
        "psi_plus": (hv, vh, 1.0),
        "psi_minus": (hv, vh, -1.0),
        "phi_plus": (hh, vv, 1.0),
        "phi_minus": (hh, vv, -1.0),
    }
    first, second, sign = pairs[kind]
    amps = {next(iter(first)): SQRT_HALF, next(iter(second)): sign * SQRT_HALF}
    return fock.PureState(reg, amps)


# ---------------------------------------------------------------------------
# detector primitives


def test_click_probability_closed_forms():
    ideal = DetectorSpec(dark_prob=0.0)
    assert ideal.click_prob(0) == 0.0
    assert ideal.click_prob(3) == 1.0
    lossy = DetectorSpec(efficiency=0.6, dark_prob=0.0)
    np.testing.assert_allclose(lossy.click_prob(2), 1.0 - 0.4**2, atol=1e-15)
    noisy = DetectorSpec(efficiency=0.6, dark_prob=0.01)
    np.testing.assert_allclose(noisy.click_prob(0), 0.01, atol=1e-15)
    np.testing.assert_allclose(noisy.click_prob(1), 1.0 - 0.4 * 0.99, atol=1e-15)


def test_detector_validation():
    with pytest.raises(ValidationError):
        DetectorSpec(efficiency=1.1)
    with pytest.raises(ValidationError):
        DetectorSpec(dark_prob=1.0)


def test_click_pattern_membership():
    pat = ClickPattern(frozenset({D_H, D_VP}))
    assert D_H in pat
    assert D_V not in pat


def test_herald_rule_classification():
    rule = detection.default_herald_rule()
    assert rule.classify(frozenset({D_H, D_VP})) == PSI_MINUS
    assert rule.classify(frozenset({D_V, D_HP})) == PSI_MINUS
    assert rule.classify(frozenset({D_H, D_V})) == PSI_PLUS
    assert rule.classify(frozenset({D_HP, D_VP})) == PSI_PLUS
    assert rule.classify(frozenset()) == FAIL
    assert rule.classify(frozenset({D_H})) == FAIL
    assert rule.classify(frozenset({D_H, D_V, D_VP})) == FAIL
    assert rule.classify(ClickPattern(frozenset({D_H, D_VP}))) == PSI_MINUS


def test_click_code_table_follows_the_herald_rule():
    analyzer = PreparedBellAnalyzer(fock.vacuum(two_path_registry()), "a", "b")
    rule = detection.default_herald_rule()
    assert len(analyzer.outcomes) == 16
    for code, outcome in enumerate(analyzer.outcomes):
        clicks = frozenset(lab for j, lab in enumerate(analyzer.labels) if code >> j & 1)
        assert outcome == rule.classify(clicks), bin(code)
    assert analyzer.outcomes.count(PSI_MINUS) == analyzer.outcomes.count(PSI_PLUS) == 2


# ---------------------------------------------------------------------------
# exact outcome distribution and conditional states


def test_outcome_distribution_is_sorted_and_normalized():
    reg = two_path_registry()
    st = fock.PureState(
        reg,
        {
            occ_of(reg, {"a:H": 1}): math.sqrt(0.7),
            occ_of(reg, {"b:H": 1}): math.sqrt(0.3),
        },
    )
    dist = detection.exact_outcome_distribution(st, ["a:H", "b:H"])
    assert [occ for occ, _ in dist] == [(0, 1), (1, 0)]
    np.testing.assert_allclose([p for _, p in dist], [0.3, 0.7], atol=1e-12)


def test_measure_with_ideal_detectors():
    reg = two_path_registry()
    st = fock.PureState(
        reg,
        {
            occ_of(reg, {"a:H": 1, "b:V": 1}): math.sqrt(0.7),
            occ_of(reg, {"a:V": 1, "b:H": 1}): math.sqrt(0.3),
        },
    )
    spec = DetectorSpec(dark_prob=0.0)
    pattern, post, prob = detection.measure(
        st, {"a:H": spec, "a:V": spec}, trial_rng(3, 0)
    )
    assert pattern.clicks in ({frozenset({"a:H"})} | {frozenset({"a:V"})})
    if "a:H" in pattern:
        np.testing.assert_allclose(prob, 0.7, atol=1e-12)
        expect = {"b:V": 1}
    else:
        np.testing.assert_allclose(prob, 0.3, atol=1e-12)
        expect = {"b:H": 1}
    (w, branch), = post.branches
    np.testing.assert_allclose(w, 1.0, atol=1e-12)
    np.testing.assert_allclose(abs(branch.amplitude(expect)), 1.0, atol=1e-12)
    assert len(branch.registry) == 2  # measured modes are gone


def test_measure_observed_probability_with_inefficiency():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("q", basis="linear")
    st = fock.basis_state(reg, {"q:H": 1})
    spec = DetectorSpec(efficiency=0.7, dark_prob=0.0)
    seen = set()
    for i in range(40):
        pattern, _, prob = detection.measure(st, {"q:H": spec}, trial_rng(7, i))
        clicked = "q:H" in pattern
        np.testing.assert_allclose(prob, 0.7 if clicked else 0.3, atol=1e-12)
        seen.add(clicked)
    assert seen == {True, False}


def test_measure_resolving_detector_reports_counts():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("q", basis="linear")
    st = fock.basis_state(reg, {"q:H": 2})
    spec = DetectorSpec(dark_prob=0.0, resolving=True)
    pattern, _, _ = detection.measure(st, {"q:H": spec}, trial_rng(0, 0))
    assert pattern.counts == (("q:H", 2),)


# ---------------------------------------------------------------------------
# Bell-state analysis


def test_bell_outcome_table():
    expectations = {
        "psi_minus": PSI_MINUS,
        "psi_plus": PSI_PLUS,
        "phi_plus": FAIL,
        "phi_minus": FAIL,
    }
    for kind, expected in expectations.items():
        table = PreparedBellAnalyzer(bell_state(kind), "a", "b").exact_outcomes()
        probs = {outcome: prob for outcome, _, prob in table}
        np.testing.assert_allclose(probs[expected], 1.0, atol=1e-12, err_msg=kind)
        for outcome, p in probs.items():
            if outcome != expected:
                np.testing.assert_allclose(p, 0.0, atol=1e-12, err_msg=f"{kind}->{outcome}")


def test_psi_minus_heralds_split_between_cross_patterns():
    analyzer = PreparedBellAnalyzer(bell_state("psi_minus"), "a", "b")
    probs = dict(analyzer.distribution)
    # registry order of analyzer.modes is D_H, D_V, D_H', D_V'
    np.testing.assert_allclose(probs[(1, 0, 0, 1)], 0.5, atol=1e-12)
    np.testing.assert_allclose(probs[(0, 1, 1, 0)], 0.5, atol=1e-12)
    assert set(probs) == {(1, 0, 0, 1), (0, 1, 1, 0)}


def test_distinguishable_pair_is_half_psi_minus_half_psi_plus():
    st = fock.basis_state(two_path_registry(), {"a:H": 1, "b:V": 1})
    probs = {outcome: p for outcome, _, p in PreparedBellAnalyzer(st, "a", "b").exact_outcomes()}
    np.testing.assert_allclose(probs[PSI_MINUS], 0.5, atol=1e-12)
    np.testing.assert_allclose(probs[PSI_PLUS], 0.5, atol=1e-12)
    np.testing.assert_allclose(probs[FAIL], 0.0, atol=1e-12)


def test_sampled_outcomes_match_exact_frequencies():
    st = fock.basis_state(two_path_registry(), {"a:H": 1, "b:V": 1})
    analyzer = PreparedBellAnalyzer(st, "a", "b", DetectorSpec(dark_prob=0.0))
    n = 4000
    counts = {PSI_MINUS: 0, PSI_PLUS: 0, FAIL: 0}
    for i in range(n):
        outcome, _, _ = analyzer.sample(trial_rng(21, i))
        counts[outcome] += 1
    # 5 sigma around p = 1/2: sigma = sqrt(n/4) ~ 31.6
    assert abs(counts[PSI_MINUS] - n / 2) < 5 * math.sqrt(n / 4.0)
    assert counts[FAIL] == 0


def test_sampling_is_reproducible_per_trial():
    analyzer = PreparedBellAnalyzer(bell_state("psi_minus"), "a", "b")
    first = [analyzer.sample(trial_rng(5, i)) for i in range(20)]
    second = [analyzer.sample(trial_rng(5, i)) for i in range(20)]
    assert first == second


def test_dark_counts_forge_heralds_on_vacuum():
    d = 0.05
    st = fock.vacuum(two_path_registry())
    analyzer = PreparedBellAnalyzer(st, "a", "b", DetectorSpec(dark_prob=d))
    n = 20000
    heralds = sum(
        analyzer.sample(trial_rng(9, i))[0] != FAIL for i in range(n)
    )
    rate = 4 * d**2 * (1 - d) ** 2
    sigma = math.sqrt(n * rate * (1 - rate))
    assert abs(heralds - n * rate) < 4.5 * sigma


def test_analyzer_conditional_atomic_state_for_entangled_input():
    # photon entangled with an atomic mode: heralding on one photon per
    # side projects the atoms; with a lone 'a'-side photon there is no
    # interference partner and any herald is impossible
    reg = fock.ModeRegistry(cutoff=6).add_atomic("S")
    reg = reg.add_photonic_path("a", basis="linear").add_photonic_path("b", basis="linear")
    st = fock.PureState(
        reg,
        {
            occ_of(reg, {"S": 1, "a:H": 1}): SQRT_HALF,
            occ_of(reg, {"S": 0, "a:V": 1}): SQRT_HALF,
        },
    )
    probs = {outcome: p for outcome, _, p in PreparedBellAnalyzer(st, "a", "b").exact_outcomes()}
    np.testing.assert_allclose(probs[FAIL], 1.0, atol=1e-12)


def test_analyzer_rejects_circular_paths():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("a", basis="circular")
    reg = reg.add_photonic_path("b", basis="circular")
    with pytest.raises(ValidationError):
        PreparedBellAnalyzer(fock.vacuum(reg), "a", "b")


def test_analyzer_checks_the_beam_splitter_before_the_polarizing_splitters():
    # the splitters' relabeled registry is cached, but a bad input still
    # fails on the first element it meets
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("a", basis="linear")
    reg = reg.add_photonic_path("b", basis="circular")
    with pytest.raises(ValidationError, match="beam_splitter"):
        PreparedBellAnalyzer(fock.vacuum(reg), "a", "b")


def _condition_by_projection(state, modes, pattern):
    """Conditioning as it was before the split: one `fock.project` scan
    of every branch per pattern."""
    mixed = fock.as_mixed(state)
    kept = []
    for w, st in mixed.branches:
        post, weight = fock.project(st, dict(zip(modes, pattern)))
        if post is not None:
            kept.append((w * weight, without_modes(post, modes)))
    if not kept:
        raise ValidationError(f"pattern {pattern} has zero probability")
    total = sum(w for w, _ in kept)
    conditional = fock.MixedState([(w / total, s) for w, s in kept])
    lossy = [m.name for m in conditional.registry.modes if m.kind == fock.LOSS]
    if lossy:
        conditional = fock.trace_out(conditional, lossy)
    return conditional


@given(hs.one_of(pure_states(), mixed_states()), measured_modes)
def test_conditioning_on_the_split_matches_per_pattern_projection(state, modes):
    split = detection._split_branches(state, modes)
    for pattern in patterns(len(modes)):
        assert outcome(detection._condition_on_pattern, split, pattern) == outcome(
            _condition_by_projection, state, modes, pattern
        )



def _distribution_by_terms(state, modes):
    """The Born distribution as it was before the split: one scan of
    every term, weighted by its branch, summed per pattern.  Patterns
    whose terms all have zero amplitude stay in with probability 0; the
    split leaves them out."""
    mixed = fock.as_mixed(state)
    idx = [mixed.registry.index(m) for m in modes]
    probs = {}
    for w, st in mixed.branches:
        for occ, c in st.amplitudes.items():
            key = tuple(occ[i] for i in idx)
            probs[key] = probs.get(key, 0.0) + w * abs(c) ** 2
    if len(probs) > detection._MAX_OUTCOMES:
        raise ValidationError(f"outcome space has {len(probs)} patterns, bound is {detection._MAX_OUTCOMES}")
    total = sum(probs.values())
    if total <= 0.0:
        raise ValidationError("state has no weight on the measured modes")
    return sorted((occ, p / total) for occ, p in probs.items())


def _nonzero_distribution(fn, state, modes):
    """fn(state, modes) without its zero-probability patterns, or the
    message of the error it raised."""
    try:
        return [(occ, p) for occ, p in fn(state, modes) if p > 0.0]
    except ValidationError as exc:
        return str(exc)


@given(pure_states(), measured_modes)
def test_split_distribution_is_the_per_term_distribution_bit_for_bit(state, modes):
    split = _nonzero_distribution(detection.exact_outcome_distribution, state, modes)
    oracle = _nonzero_distribution(_distribution_by_terms, state, modes)
    if isinstance(oracle, str):
        assert split == oracle
    else:
        assert [(occ, p.hex()) for occ, p in split] == [(occ, p.hex()) for occ, p in oracle]


@given(mixed_states(), measured_modes)
def test_split_distribution_of_a_mixed_state_is_the_per_term_distribution(state, modes):
    # w * sum|c|^2 may round differently from sum w * |c|^2 in the last place
    split = _nonzero_distribution(detection.exact_outcome_distribution, state, modes)
    oracle = _nonzero_distribution(_distribution_by_terms, state, modes)
    if isinstance(oracle, str):
        assert split == oracle
    else:
        assert [occ for occ, _ in split] == [occ for occ, _ in oracle]
        np.testing.assert_allclose([p for _, p in split], [p for _, p in oracle], rtol=1e-13, atol=0.0)


def test_preparing_the_analyzer_groups_its_state_once(monkeypatch):
    # the first analyzer of a term layout groups its terms into the cached
    # record; a second one of that layout groups nothing
    grouped = []

    def counted_plan(registry, idx, keys):
        if keys:
            grouped.append(idx)
        return split_plan(registry, idx, keys)

    def forbidden(*args):
        raise AssertionError("the analyzer rescanned its state")

    split_plan = fock._split_plan
    monkeypatch.setattr(fock, "_split_plan", counted_plan)
    monkeypatch.setattr(fock, "split_by_occupation", forbidden)
    monkeypatch.setattr(detection, "exact_outcome_distribution", forbidden)
    detection._analyzer_layout.cache_clear()
    for _ in range(2):
        prep = PreparedBellAnalyzer(bell_state("psi_minus"), "a", "b")
        assert len(grouped) == 1
    assert {outcome: p for outcome, _, p in prep.exact_outcomes()}[PSI_MINUS] == pytest.approx(1.0)
