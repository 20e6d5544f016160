"""Protocol-level tests.

Closed forms used as oracles here, all derived from the order-1 source
structure by hand:

* branch weights (1/(1+p0), p0/(1+p0)) and purity (1+p0^2)/(1+p0)^2;
* event-ready success probability p0/(2(1+p0)), split evenly between
  the two herald classes;
* teleportation success probability 1/2 with unit stored fidelity.
"""

import cmath
import math
import random

import numpy as np
import pytest

from stokesim import analysis, cli, detection, elements, fock, metrics, protocols, rng, sampling, sources
from stokesim.detection import FAIL, PSI_MINUS, PSI_PLUS, DetectorSpec
from stokesim.errors import ValidationError
from stokesim.protocols import ProtocolConfig
from stokesim.rng import trial_rng, trial_uniforms
from stokesim.sources import SourceParams

SQRT_HALF = 0.7071067811865476
WEIGHT_VAC = 0.9900990099009901
WEIGHT_ONE = 0.009900990099009908
PURITY_001 = 0.980394079011861
SUCCESS_001 = 0.004950495049504955


def ideal_detector():
    return DetectorSpec(dark_prob=0.0)


# ---------------------------------------------------------------------------
# config and interval plumbing


def test_config_validation():
    with pytest.raises(ValidationError):
        ProtocolConfig(mode="approximate")
    with pytest.raises(ValidationError):
        ProtocolConfig(trials=0)
    with pytest.raises(ValidationError):
        ProtocolConfig(theta=3.5)
    with pytest.raises(ValidationError):
        ProtocolConfig(phi=-0.1)
    with pytest.raises(ValidationError):
        ProtocolConfig(retrieval_efficiency=1.5)
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="seed"):
            ProtocolConfig(seed=seed)
    assert ProtocolConfig(seed=2**64 - 1).seed == 2**64 - 1


def test_wilson_interval_frozen_values():
    low, high = protocols.wilson_interval(50, 100)
    np.testing.assert_allclose(low, 0.4038315303659957, atol=1e-15)
    np.testing.assert_allclose(high, 0.5961684696340044, atol=1e-15)
    # the ends are exact where floating point would step outside [0, 1]
    for n in (10, 21, 1000, 75_000):
        low, high = protocols.wilson_interval(0, n)
        assert low == 0.0 and 0.0 < high < 0.35
        low, high = protocols.wilson_interval(n, n)
        assert high == 1.0 and 0.65 < low < 1.0
    with pytest.raises(ValidationError):
        protocols.wilson_interval(0, 0)


@pytest.mark.parametrize("successes", [-1, 4, 5])
def test_wilson_interval_rejects_successes_outside_the_trials(successes):
    # these used to raise a bare ValueError (math domain error) from sqrt
    with pytest.raises(ValidationError, match="outside"):
        protocols.wilson_interval(successes, 3)


# ---------------------------------------------------------------------------
# post-selected generation


def test_generate_entanglement_order_one_report():
    mixed, report = analysis.generate_entanglement(ProtocolConfig(source=SourceParams(p0=0.01)))
    np.testing.assert_allclose(report["branch_weights"], [WEIGHT_VAC, WEIGHT_ONE], atol=1e-12)
    np.testing.assert_allclose(report["purity"], PURITY_001, atol=1e-12)
    np.testing.assert_allclose(report["excited_branch_concurrence"], 1.0, atol=1e-9)
    np.testing.assert_allclose(report["excited_branch_entropy"], 1.0, atol=1e-9)
    # the dropped double-emission cross term: (p0^2/4) / (1 + p0/2)^2, a cut of
    # the emission order; the cutoff cuts nothing
    np.testing.assert_allclose(report["emission_order_cut"], 2.4751862577658986e-05, atol=1e-15)
    assert report["cutoff_loss"] == 0.0
    weights = [w for w, _ in mixed.branches]
    np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)
    assert set(mixed.branches[0][1].amplitudes) == {(0,) * len(mixed.registry)}


def test_generate_entanglement_zero_pump_is_vacuum():
    mixed, report = analysis.generate_entanglement(ProtocolConfig(source=SourceParams(p0=0.0)))
    assert report["branch_weights"] == [1.0]
    np.testing.assert_allclose(report["purity"], 1.0, atol=1e-12)
    assert "excited_branch_concurrence" not in report
    assert set(mixed.branches[0][1].amplitudes) == {(0,) * len(mixed.registry)}


def test_generate_purity_closed_form_scales():
    for p0 in (0.001, 0.01, 0.1):
        _, report = analysis.generate_entanglement(ProtocolConfig(source=SourceParams(p0=p0)))
        np.testing.assert_allclose(report["purity"], (1 + p0**2) / (1 + p0) ** 2, atol=1e-12)


# ---------------------------------------------------------------------------
# Bell decomposition


def pol_pair_registry():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("a", basis="linear")
    return reg.add_photonic_path("b", basis="linear")


def pol_encs():
    return metrics.pol_qubit("a"), metrics.pol_qubit("b")


def test_bell_decompose_eigenstates():
    reg = pol_pair_registry()
    occ_hv = next(iter(fock.basis_state(reg, {"a:H": 1, "b:V": 1}).amplitudes))
    occ_vh = next(iter(fock.basis_state(reg, {"a:V": 1, "b:H": 1}).amplitudes))
    psi_minus = fock.PureState(reg, {occ_hv: SQRT_HALF, occ_vh: -SQRT_HALF})
    weights = analysis.bell_decompose(psi_minus, *pol_encs())
    np.testing.assert_allclose(weights["psi_minus"], 1.0, atol=1e-12)
    for name in ("psi_plus", "phi_plus", "phi_minus"):
        np.testing.assert_allclose(weights[name], 0.0, atol=1e-12)

    pair = sources.epr_pair("a", "b", cutoff=4)
    weights = analysis.bell_decompose(pair, metrics.pol_qubit("a"), metrics.pol_qubit("b"))
    np.testing.assert_allclose(weights["phi_plus"], 1.0, atol=1e-12)


def test_bell_decompose_product_state_is_flat():
    # |H>_a (|H>_b + |V>_b)/sqrt2 overlaps all four Bell states equally
    reg = pol_pair_registry()
    occ_hh = next(iter(fock.basis_state(reg, {"a:H": 1, "b:H": 1}).amplitudes))
    occ_hv = next(iter(fock.basis_state(reg, {"a:H": 1, "b:V": 1}).amplitudes))
    st = fock.PureState(reg, {occ_hh: SQRT_HALF, occ_hv: SQRT_HALF})
    weights = analysis.bell_decompose(st, *pol_encs())
    for name in weights:
        np.testing.assert_allclose(weights[name], 0.5, atol=1e-12)
    np.testing.assert_allclose(sum(w**2 for w in weights.values()), 1.0, atol=1e-12)


def test_bell_decompose_rejects_non_qubit_sector():
    st = fock.basis_state(pol_pair_registry(), {"a:H": 2})
    with pytest.raises(ValidationError):
        analysis.bell_decompose(st, *pol_encs())


# ---------------------------------------------------------------------------
# event-ready generation


def test_event_ready_exact_closed_forms():
    cfg = ProtocolConfig(source=SourceParams(p0=0.01), detector=ideal_detector())
    heralded, report = protocols.event_ready_generation(cfg)
    np.testing.assert_allclose(report["success_probability"], SUCCESS_001, atol=1e-12)
    np.testing.assert_allclose(report["ideal_detector_order1_success_probability"], SUCCESS_001, atol=1e-15)
    np.testing.assert_allclose(report["ideal_detector_leading_order_success_probability"], 0.005, atol=1e-15)
    np.testing.assert_allclose(
        report["psi_minus_probability"], report["psi_plus_probability"], atol=1e-12
    )
    np.testing.assert_allclose(report["heralded_fidelity"], 1.0, atol=1e-9)
    target = protocols.event_ready_target(heralded.registry)
    np.testing.assert_allclose(fock.state_fidelity(heralded, target), 1.0, atol=1e-9)


def test_event_ready_success_scales_with_pump():
    for p0 in (0.005, 0.02):
        cfg = ProtocolConfig(source=SourceParams(p0=p0), detector=ideal_detector())
        _, report = protocols.event_ready_generation(cfg)
        np.testing.assert_allclose(
            report["success_probability"], p0 / (2 * (1 + p0)), atol=1e-12
        )


def test_event_ready_psi_plus_correction_matches_singlet_branch():
    cfg = ProtocolConfig(source=SourceParams(p0=0.01), detector=ideal_detector())
    prep = detection.PreparedBellAnalyzer(
        protocols._event_ready_input(cfg), "p", "A", ideal_detector()
    )
    outcomes = {name: (cond, prob) for name, cond, prob in prep.exact_outcomes()}
    minus, _ = outcomes[PSI_MINUS]
    plus, _ = outcomes[PSI_PLUS]
    corrected = protocols._flip_phase(plus, "B:H")
    w, ref = minus.branches[0]
    overlap = math.sqrt(fock.state_fidelity(corrected, ref.normalize()))
    np.testing.assert_allclose(overlap, 1.0, atol=1e-9)


ORDER_2 = ProtocolConfig(source=SourceParams(p0=0.15, emission_order=2), detector=ideal_detector())


def _clicks(prep, occ):
    return frozenset(lab for lab, n in zip(prep.labels, occ) if n > 0)


def test_exact_outcomes_group_the_distribution_through_the_rule():
    prep = detection.PreparedBellAnalyzer(protocols._event_ready_input(ORDER_2), "p", "A", ORDER_2.detector)
    rule = detection.default_herald_rule()
    grouped = {PSI_MINUS: [], PSI_PLUS: [], FAIL: []}
    for occ, p in prep.distribution:
        grouped[rule.classify(_clicks(prep, occ))].append(p)
    probs = {outcome: prob for outcome, _, prob in prep.exact_outcomes()}
    assert probs == {outcome: sum(ps) for outcome, ps in grouped.items()}
    assert probs[PSI_MINUS] > 0 and probs[PSI_PLUS] > 0


def test_exact_outcomes_condition_only_on_herald_patterns(monkeypatch):
    conditioned = []
    condition = detection.PreparedBellAnalyzer.conditional

    def recording(prep, pattern):
        conditioned.append(pattern)
        return condition(prep, pattern)

    monkeypatch.setattr(detection.PreparedBellAnalyzer, "conditional", recording)
    prep = detection.PreparedBellAnalyzer(protocols._event_ready_input(ORDER_2), "p", "A", ORDER_2.detector)
    outcomes = {outcome: cond for outcome, cond, _ in prep.exact_outcomes()}
    rule = detection.default_herald_rule()
    heralds = [occ for occ, _ in prep.distribution if rule.classify(_clicks(prep, occ)) != FAIL]
    assert sorted(conditioned) == heralds
    assert len(heralds) < len(prep.distribution)
    assert outcomes[FAIL] is None


def test_event_ready_vacuum_source_never_heralds():
    cfg = ProtocolConfig(
        source=SourceParams(p0=0.0), detector=ideal_detector(), epr_enabled=False
    )
    heralded, report = protocols.event_ready_generation(cfg)
    assert heralded is None
    assert report["success_probability"] == 0.0
    assert report["heralded_fidelity"] is None


MULTIPAIR = ProtocolConfig(source=SourceParams(emission_order=5), cutoff=12)
P0_GRID = np.linspace(0.002, 0.2, 24).tolist()
#: caches of what an exact point reads off its term layout, paths, labels and registries
LAYOUT_CACHES = (
    sources._source_registry,
    elements._linear_registry,
    protocols._ancilla,
    fock._joint_registry,
    detection._analyzer_layout,
    protocols._target,
)


def _multipair(p0, order=5):
    return MULTIPAIR.replace(source=MULTIPAIR.source.replace(p0=p0, emission_order=order))


#: 24-point exact sweeps of one term layout each: the run, its configs, and
#: the caches it reads (memory's ideal channel needs no source or ancilla)
LAYOUT_SWEEPS = {
    "event-ready": (protocols.event_ready_generation, [_multipair(p0) for p0 in P0_GRID], LAYOUT_CACHES),
    "lossy event-ready": (
        protocols.event_ready_generation,
        [MULTIPAIR.replace(source=SourceParams(p0=p0, emission_order=5, t=0.3)) for p0 in P0_GRID],
        LAYOUT_CACHES,
    ),
    "memory": (
        protocols.memory_store,
        [ProtocolConfig(theta=theta, phi=0.3) for theta in np.linspace(0.01, 1.4, len(P0_GRID)).tolist()],
        (detection._analyzer_layout,),
    ),
}


@pytest.mark.parametrize("sweep", sorted(LAYOUT_SWEEPS))
def test_an_exact_sweep_builds_each_layout_skeleton_once(monkeypatch, sweep):
    # only the amplitudes change from one point to the next
    run, configs, caches = LAYOUT_SWEEPS[sweep]
    rules = []
    rule = detection.default_herald_rule
    monkeypatch.setattr(detection, "default_herald_rule", lambda: rules.append(1) or rule())
    for cache in (*caches, fock._layout_split_plan):
        cache.cache_clear()
    for i, config in enumerate(configs):
        run(config)
        if i == 0:
            first = fock._layout_split_plan.cache_info()
    assert rules == []  # the click-code table is built at import
    for cache in caches:
        assert cache.cache_info()[:2] == (len(configs) - 1, 1)
    # the conditionals of a lossy source trace their loss modes by the
    # layout's group keys: that grouping is found cached after the first point
    grouped = fock._layout_split_plan.cache_info()
    assert (first.misses > 0) == (sweep == "lossy event-ready")
    assert grouped.misses == first.misses
    assert grouped.hits - first.hits == (len(configs) - 1) * (first.hits + first.misses)


def test_two_points_of_a_p0_sweep_share_their_registries():
    # the source's relabeled registry and the joint one are kept per input registry, not built per point
    first, second = (protocols._event_ready_input(_multipair(p0)) for p0 in (0.01, 0.2))
    assert first.amplitudes != second.amplitudes
    assert first.registry is second.registry


def test_exact_points_do_not_depend_on_the_order_they_run_in():
    # no cache carries a value from one point to the next: each point run
    # from cold caches, then all of them forward, reversed and each after an
    # order-1 point (another layout), give the same report bytes
    def report(point):
        return cli.to_json(protocols.event_ready_generation(_multipair(point[1], point[0]))[1])

    points = [(5, p0) for p0 in P0_GRID[::3]]
    cold = {}
    for point in points:
        for cache in LAYOUT_CACHES:
            cache.cache_clear()
        cold[point] = report(point)
    assert len(set(cold.values())) == len(points)
    for run in (points, points[::-1], [q for point in points for q in ((1, point[1]), point)]):
        texts = {point: report(point) for point in run}
        assert {point: texts[point] for point in points} == cold


def _event_ready_grid():
    """Exact event-ready configs over emission order 1-5 and cutoffs up to
    12 (one that cuts the ancilla), pump strengths from zero, branch
    amplitudes with and without an attenuator (a loss mode to trace) and
    a relative phase, and the ancilla on and off."""
    amplitudes = [
        {},
        {"alpha": 0.6, "beta": 0.8},
        {"alpha": 0.8, "beta": 0.6j},
        {"alpha": 0.6, "beta": 0.8 * cmath.exp(0.7j)},
        {"t": 0.3},
    ]
    for order, cutoff in [(1, 4), (2, 6), (3, 6), (3, 8), (4, 10), (5, 12)]:
        for p0 in (0.0, 0.003, 0.07, 0.2):
            for ab in amplitudes:
                for epr in (True, False):
                    yield ProtocolConfig(
                        source=SourceParams(p0=p0, emission_order=order, **ab), cutoff=cutoff, epr_enabled=epr
                    )


def test_exact_fidelity_read_off_the_split_is_the_heralded_states():
    # dark counts (the default dark_prob 1e-5) herald at every point, p0 = 0
    # without the ancilla included; a point that never heralds is
    # test_event_ready_vacuum_source_never_heralds
    for cfg in _event_ready_grid():
        heralded, report = protocols.event_ready_generation(cfg)
        assert protocols.event_ready_generation(cfg, with_state=False) == (None, report)
        expected = fock.state_fidelity(heralded, protocols._target(heralded.registry))
        assert report["heralded_fidelity"].hex() == protocols._at_most_one(expected).hex(), cfg


def test_sampled_fidelity_read_off_the_split_is_the_conditional_states():
    # every true pattern, not only herald ones: dark counts and losses
    # herald on any of them
    for cfg in list(_event_ready_grid())[1::7]:
        sp = protocols._SampledProtocol(cfg.replace(mode="sampled", seed=3), "event-ready")
        for occ, _ in sp.prep.distribution:
            for outcome in (PSI_MINUS, PSI_PLUS):
                state = protocols._corrected(protocols.EVENT_READY, sp.prep.conditional(occ), outcome)
                expected = protocols._at_most_one(fock.state_fidelity(state, protocols._target(state.registry)))
                assert sp.fidelity(occ, outcome).hex() == expected.hex(), (cfg, occ, outcome)


def test_event_ready_sampled_counts_and_fidelity():
    cfg = ProtocolConfig(
        source=SourceParams(p0=0.01),
        detector=ideal_detector(),
        mode="sampled",
        trials=2000,
        seed=7,
    )
    _, report = protocols.event_ready_generation(cfg)
    # frozen for this (seed, trials): 9 heralds, expected 9.9
    assert report["success_count"] == 9
    assert report["psi_minus_count"] == 4
    assert report["psi_plus_count"] == 5
    np.testing.assert_allclose(report["mean_heralded_fidelity"], 1.0, atol=1e-9)
    assert report["wilson_low"] < report["success_rate"] < report["wilson_high"]
    keys = protocols.trial_outcomes(cfg, "event-ready", 0, cfg.trials)
    assert keys.dtype == np.uint16 and len(keys) == 2000
    assert _is_herald(cfg, "event-ready", keys).sum() == 9
    assert protocols.summarize_sampled(cfg, "event-ready", keys).items() <= report.items()


def test_trial_partition_invariance():
    cfg = ProtocolConfig(
        source=SourceParams(p0=0.01),
        detector=ideal_detector(),
        mode="sampled",
        trials=100,
        seed=3,
    )
    whole = protocols.trial_outcomes(cfg, "event-ready", 0, 100)
    parts = [protocols.trial_outcomes(cfg, "event-ready", a, b - a) for a, b in ((0, 37), (37, 100))]
    np.testing.assert_array_equal(np.concatenate(parts), whole, strict=True)


#: sampled configs with detectors of unit efficiency, run in bulk by
#: `trial_outcomes`: one stream word per trial, five words with several
#: photon-number patterns, the memory, and criterion 8's vacuum windows
IDEAL_SAMPLED = {
    "no-dark-counts": ("event-ready", ProtocolConfig(source=SourceParams(p0=0.05), detector=ideal_detector())),
    "order-2": (
        "event-ready",
        ProtocolConfig(source=SourceParams(p0=0.15, emission_order=2), detector=DetectorSpec(dark_prob=0.02)),
    ),
    "memory": ("memory", ProtocolConfig(detector=ideal_detector(), theta=0.7, phi=1.9)),
    "vacuum": (
        "event-ready",
        ProtocolConfig(source=SourceParams(p0=0.0), epr_enabled=False, detector=DetectorSpec(dark_prob=1e-3)),
    ),
}


def _scalar_outcomes(config, kind, start, count):
    """The per-trial oracle: one generator and one `sample` per trial,
    each giving the key pattern index * 16 + click code."""
    prep = protocols._SampledProtocol(config, kind).prep
    index = {occ: i for i, (occ, _) in enumerate(prep.distribution)}
    out = []
    for i in range(start, start + count):
        _, code, true = prep.sample(trial_rng(config.seed, i))
        out.append(index[true] * 16 + code)
    return out


def _is_herald(config, kind, keys):
    """Whether each trial's click code (key mod 16) heralds."""
    outcomes = protocols._SampledProtocol(config, kind).prep.outcomes
    return np.array([outcome != FAIL for outcome in outcomes])[keys % 16]


@pytest.mark.parametrize("name", sorted(IDEAL_SAMPLED))
def test_ideal_efficiency_outcomes_match_per_trial_sampling(name):
    kind, base = IDEAL_SAMPLED[name]
    for seed, start in ((11, 0), (2**64 - 1, 2**32 - 1000)):
        cfg = base.replace(mode="sampled", seed=seed)
        fast = protocols.trial_outcomes(cfg, kind, start, 3000)
        assert fast.tolist() == _scalar_outcomes(cfg, kind, start, 3000)
    if name == "vacuum":
        # forged heralds are rare (4e-6 per window): check the windows
        # around the first one criterion 8's seed gives
        cfg = base.replace(mode="sampled", seed=31)
        keys = protocols.trial_outcomes(cfg, kind, 0, 1_000_000)
        first = int(np.flatnonzero(_is_herald(cfg, kind, keys))[0])
        start = max(0, first - 100)
        assert protocols.trial_outcomes(cfg, kind, start, 200).tolist() == _scalar_outcomes(cfg, kind, start, 200)


def test_ideal_efficiency_outcomes_do_not_depend_on_the_partition(monkeypatch):
    kind, base = IDEAL_SAMPLED["order-2"]
    cfg = base.replace(mode="sampled", seed=5)
    whole = protocols.trial_outcomes(cfg, kind, 0, 5000)
    # odd-sized chunks, some split further into bulk blocks
    monkeypatch.setattr(sampling, "_BLOCK", 97)
    cuts = [0, 1, 212, 2000, 2001, 4999, 5000]
    parts = [protocols.trial_outcomes(cfg, kind, a, b - a) for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), whole, strict=True)


#: below unit efficiency each detector that saw photons adds a binomial
#: loss word to its trial's stream, read through per-pattern threshold
#: tables; the grid covers eta = 0 and 1 (no word), both inversion branches
#: (eta <= 0.5 and eta > 0.5) and eta so near 1 that three photons are never
#: all lost (a table without a zero), at emission orders 1 to 3 with and
#: without the ancilla, where up to four photons reach one detector
LOSSY_BASES = {
    "event-ready": ("event-ready", ProtocolConfig(source=SourceParams(p0=0.1))),
    **{
        f"event-ready-{order}{'' if epr else '-no-ancilla'}": (
            "event-ready",
            ProtocolConfig(source=SourceParams(p0=0.2, emission_order=order), cutoff=2 * order + 2, epr_enabled=epr),
        )
        for order in (1, 2, 3)
        for epr in (True, False)
    },
    "memory": ("memory", ProtocolConfig(theta=0.7, phi=1.9)),
}


@pytest.mark.parametrize("name", sorted(LOSSY_BASES))
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.8, 0.999999, 1.0])
@pytest.mark.parametrize("dark_prob", [0.0, 1e-3, 0.3])
def test_bulk_outcomes_match_per_trial_sampling(name, eta, dark_prob):
    kind, base = LOSSY_BASES[name]
    base = base.replace(detector=DetectorSpec(efficiency=eta, dark_prob=dark_prob), mode="sampled")
    for seed, start in ((0, 0), (2**64 - 1, 2**32 - 300)):
        cfg = base.replace(seed=seed)
        assert protocols.trial_outcomes(cfg, kind, start, 600).tolist() == _scalar_outcomes(cfg, kind, start, 600)


def test_the_lossy_grid_reaches_a_table_without_a_zero():
    # at emission order 2 with the ancilla, three photons reach one detector,
    # and at eta = 0.999999 all three are never lost
    kind, base = LOSSY_BASES["event-ready-2"]
    cfg = base.replace(detector=DetectorSpec(efficiency=0.999999), mode="sampled")
    n = max(max(occ) for occ, _ in protocols._SampledProtocol(cfg, kind).prep.distribution)
    assert n >= 3 and 0 not in sampling._step_table(n, 0.999999)[2]


def test_bulk_outcomes_match_per_trial_sampling_at_emission_order_2():
    # up to four photons reach one detector, so binomial draws of n = 1..4
    cfg = ProtocolConfig(
        source=SourceParams(p0=0.15, emission_order=2),
        detector=DetectorSpec(efficiency=0.6, dark_prob=0.02),
        mode="sampled",
        seed=2**64 - 1,
    )
    keys = protocols.trial_outcomes(cfg, "event-ready", 0, 3000)
    assert keys.tolist() == _scalar_outcomes(cfg, "event-ready", 0, 3000)


def test_lossy_outcomes_do_not_depend_on_the_partition(monkeypatch):
    cfg = ProtocolConfig(
        source=SourceParams(p0=0.15, emission_order=2),
        detector=DetectorSpec(efficiency=0.8, dark_prob=1e-3),
        mode="sampled",
        seed=5,
    )
    whole = protocols.trial_outcomes(cfg, "event-ready", 0, 5000)
    monkeypatch.setattr(sampling, "_BLOCK", 97)
    cuts = [0, 1, 212, 2000, 2001, 4999, 5000]
    parts = [protocols.trial_outcomes(cfg, "event-ready", a, b - a) for a, b in zip(cuts, cuts[1:])]
    np.testing.assert_array_equal(np.concatenate(parts), whole, strict=True)


def test_lossy_trials_build_no_generator(monkeypatch):
    # guards against a per-trial loop coming back below unit efficiency
    built = []
    monkeypatch.setattr("stokesim.rng.trial_rng", lambda seed, trial: built.append(trial) or trial_rng(seed, trial))
    cfg = ProtocolConfig(detector=DetectorSpec(efficiency=0.8, dark_prob=1e-3), mode="sampled", theta=0.7, phi=1.9)
    keys = protocols.trial_outcomes(cfg, "memory", 0, 20_000)
    assert keys.dtype == np.uint16 and len(keys) == 20_000 and built == []


def test_sampled_run_draws_whole_bulk_blocks(monkeypatch):
    # a run is cut at the bulk block, so each draw but the last fills one
    drawn = []

    def recording(seed, start, count, width):
        drawn.append(count)
        return trial_uniforms(seed, start, count, width)

    monkeypatch.setattr("stokesim.rng.trial_uniforms", recording)
    cfg = ProtocolConfig(source=SourceParams(p0=0.1), mode="sampled", trials=20_000, seed=3)
    _, report = protocols.event_ready_generation(cfg)
    assert report["trials"] == 20_000
    assert drawn == [8192, 8192, 3616]


def test_step_tables_are_built_once_per_photon_number_and_efficiency(monkeypatch):
    # every point of a sampled p0 sweep below unit efficiency asks for the
    # tables of n = 1..6 photons at one detector
    built = []
    steps = rng.binomial_steps
    monkeypatch.setattr(rng, "binomial_steps", lambda n, p: built.append((n, p)) or steps(n, p))
    sampling._step_table.cache_clear()
    protocols._cached_protocol.cache_clear()
    lossy = _multipair(0.01).replace(mode="sampled", trials=100, seed=3, detector=DetectorSpec(efficiency=0.8))
    for p0 in (0.01, 0.1, 0.2):
        protocols.event_ready_generation(lossy.replace(source=lossy.source.replace(p0=p0)))
    assert sorted(built) == [(n, 0.8) for n in range(1, 7)]
    for n, eta in built:
        _, *arrays = sampling._step_table(n, eta)
        for array, fresh in zip(arrays, steps(n, eta)):
            assert not array.flags.writeable
            assert array.tobytes() == fresh.tobytes()
    assert sampling._step_table.cache_info().misses == 6


def test_sampled_summary_adds_fidelities_in_trial_order():
    # the per-trial oracle: decode each key and add its fidelity in trial
    # order; a pairwise sum of the same values rounds differently here
    cfg = ProtocolConfig(
        detector=DetectorSpec(efficiency=0.8, dark_prob=1e-2),
        mode="sampled",
        trials=5000,
        seed=1,
        theta=0.7,
        phi=1.9,
    )
    keys = protocols.trial_outcomes(cfg, "memory", 0, cfg.trials)
    summary = protocols.summarize_sampled(cfg, "memory", keys)
    sp = protocols._SampledProtocol(cfg, "memory")
    counts = {PSI_MINUS: 0, PSI_PLUS: 0, FAIL: 0}
    fid_sum = 0.0
    for key in keys.tolist():
        true, outcome = sp.prep.decode(key)
        counts[outcome] += 1
        if outcome != FAIL:
            fid_sum += sp.fidelity(true, outcome)
    successes = counts[PSI_MINUS] + counts[PSI_PLUS]
    assert (summary["psi_minus_count"], summary["psi_plus_count"], summary["success_count"]) == (
        counts[PSI_MINUS], counts[PSI_PLUS], successes
    )
    assert summary["mean_stored_fidelity"] == fid_sum / successes


def test_false_herald_probability_closed_form():
    rule = detection.default_herald_rule()
    np.testing.assert_allclose(
        protocols.false_herald_probability(rule, 1e-3), 3.992004e-06, atol=1e-18
    )
    for d in (1e-4, 1e-5):
        np.testing.assert_allclose(
            protocols.false_herald_probability(rule, d), 4 * d**2 * (1 - d) ** 2, rtol=1e-12
        )
    assert protocols.false_herald_probability(rule, 0.0) == 0.0


# ---------------------------------------------------------------------------
# teleportation memory


def test_memory_exact_stores_arbitrary_qubit():
    cfg = ProtocolConfig(theta=0.7, phi=1.9, detector=ideal_detector())
    stored, report = protocols.memory_store(cfg)
    np.testing.assert_allclose(report["success_probability"], 0.5, atol=1e-12)
    np.testing.assert_allclose(report["stored_fidelity"], 1.0, atol=1e-9)
    np.testing.assert_allclose(report["round_trip_fidelity"], 1.0, atol=1e-9)
    rho = metrics.qubit_density(stored, metrics.excitation_qubit("S1", "S2"))
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-9)


def test_memory_exact_pole_states():
    for theta, pattern in ((0.0, {"S1": 1}), (math.pi / 2.0, {"S2": 1})):
        stored, report = protocols.memory_store(
            ProtocolConfig(theta=theta, detector=ideal_detector())
        )
        np.testing.assert_allclose(report["stored_fidelity"], 1.0, atol=1e-9)
        for w, branch in stored.branches:
            np.testing.assert_allclose(abs(branch.amplitude(pattern)), 1.0, atol=1e-9)


def test_memory_sampled_success_rate_and_fidelity():
    cfg = ProtocolConfig(
        mode="sampled", trials=2000, seed=11, theta=0.7, phi=1.9, detector=ideal_detector()
    )
    _, report = protocols.memory_store(cfg)
    assert report["success_count"] == 987  # frozen; expected 1000, sigma 22
    np.testing.assert_allclose(report["mean_stored_fidelity"], 1.0, atol=1e-9)


def test_memory_builds_each_herald_conditional_once(monkeypatch):
    # the heralded state and the stored fidelity both read the conditionals of
    # the herald patterns; the analyzer builds each one once and keeps it
    conditioned = []
    condition = detection._condition_on_pattern
    monkeypatch.setattr(detection, "_condition_on_pattern", lambda split, occ: conditioned.append(occ) or condition(split, occ))
    cfg = ProtocolConfig(theta=0.7, phi=0.3, detector=DetectorSpec(efficiency=0.8, dark_prob=0.01))
    protocols.memory_store(cfg)
    assert len(conditioned) == len(set(conditioned)) == 8
    conditioned[:] = []
    protocols._cached_protocol.cache_clear()
    protocols.memory_store(cfg.replace(mode="sampled", trials=20_000))
    assert len(conditioned) == len(set(conditioned)) == 8


def test_memory_with_event_ready_channel():
    # feed the memory the actual heralded channel instead of the ideal one
    gen_cfg = ProtocolConfig(source=SourceParams(p0=0.01), detector=ideal_detector())
    heralded, _ = protocols.event_ready_generation(gen_cfg)
    # drop the spent A path and collapse to the dominant pure branch
    (w0, chan), *rest = heralded.branches
    chan = chan.normalize()
    stored, report = protocols.memory_store(
        ProtocolConfig(theta=0.7, phi=1.9, detector=ideal_detector()), channel=chan
    )
    np.testing.assert_allclose(report["stored_fidelity"], 1.0, atol=1e-9)


def test_round_trip_fidelity_is_retrieval_efficiency_times_stored_fidelity():
    # on the ideal channel the readout attenuates both modes equally, which
    # scales the one-photon block by the retrieval efficiency: the round trip
    # reads retrieval_efficiency * stored_fidelity, to rounding
    draw = random.Random(40)
    for _ in range(40):
        theta, phi, retrieval = draw.uniform(0.0, math.pi), draw.uniform(0.0, 2.0 * math.pi), draw.random()
        report = protocols.memory_store(ProtocolConfig(theta=theta, phi=phi, retrieval_efficiency=retrieval))[1]
        assert abs(report["round_trip_fidelity"] - retrieval * report["stored_fidelity"]) <= 1e-15, (theta, phi, retrieval)


def test_memory_readout_round_trip_and_thinning():
    reg = fock.ModeRegistry(cutoff=4).add_atomic("S1").add_atomic("S2")
    a0, a1 = math.cos(0.7), math.sin(0.7) * np.exp(1.9j)
    occ1 = next(iter(fock.basis_state(reg, {"S1": 1}).amplitudes))
    occ2 = next(iter(fock.basis_state(reg, {"S2": 1}).amplitudes))
    stored = fock.PureState(reg, {occ1: a0, occ2: a1})
    out = protocols.memory_readout(stored)
    np.testing.assert_allclose(
        metrics.qubit_fidelity(out, metrics.pol_qubit("readout"), a0, a1), 1.0, atol=1e-12
    )
    thinned = protocols.memory_readout(stored, retrieval_efficiency=0.6)
    np.testing.assert_allclose(
        metrics.qubit_fidelity(thinned, metrics.pol_qubit("readout"), a0, a1), 0.6, atol=1e-12
    )


def test_memory_readout_validation():
    reg = fock.ModeRegistry(cutoff=4).add_atomic("S1").add_atomic("S2")
    with pytest.raises(ValidationError):
        protocols.memory_readout(fock.basis_state(reg, {"S1": 1, "S2": 1}))
    other = fock.ModeRegistry(cutoff=4).add_atomic("X")
    with pytest.raises(ValidationError):
        protocols.memory_readout(fock.vacuum(other))


def test_memory_requires_channel_with_ancilla_path():
    reg = fock.ModeRegistry(cutoff=4).add_atomic("S1").add_atomic("S2")
    # the heralded event-ready state carries the B path but is mixed: storing it is a model left out
    heralded, _ = protocols.event_ready_generation(ProtocolConfig())
    assert isinstance(heralded, fock.MixedState)
    for mode in ("exact", "sampled"):
        for channel in fock.vacuum(reg), heralded:
            with pytest.raises(ValidationError, match="^channel state must be a pure state that carries the B path$"):
                protocols.memory_store(ProtocolConfig(mode=mode), channel=channel)
