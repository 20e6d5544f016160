"""Acceptance suite: one test per release criterion, run in order.

Each test checks a stated closed form, statistical bound, or
reproducibility property at its stated tolerance and prints one
machine-greppable PASS line; a failing criterion shows up as exactly one
failing test.  Monte Carlo checks use fixed seeds, so every number here
is reproducible bit for bit.
"""

import math
import time
from collections import Counter

import numpy as np

from stokesim import analysis, cli, detection, elements, fock, metrics, protocols, sampling, sources
from stokesim.detection import DetectorSpec, PreparedBellAnalyzer
from stokesim.protocols import ProtocolConfig
from stokesim.rng import trial_rng
from stokesim.sources import SourceParams

SQRT_HALF = 0.7071067811865476
TOL = 1e-9


def _pass(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def ideal():
    return DetectorSpec(dark_prob=0.0)


def test_criterion_01_source_state_reproduction():
    start = time.perf_counter()
    st = sources.dual_ensemble_source(SourceParams(p0=0.01))
    sector, _ = fock.restrict_total_occupation(st, ["p:H", "p:V"], 1)
    reg = sector.registry
    target = fock.PureState(
        reg,
        {
            next(iter(fock.basis_state(reg, {"S1": 1, "p:H": 1}).amplitudes)): SQRT_HALF,
            next(iter(fock.basis_state(reg, {"S2": 1, "p:V": 1}).amplitudes)): SQRT_HALF,
        },
    )
    fid = abs(fock.inner_product(target, sector)) ** 2
    ent = metrics.entropy(sector, ["S1", "S2"])
    elapsed = time.perf_counter() - start
    assert abs(fid - 1.0) <= TOL
    assert abs(ent - 1.0) <= TOL
    assert elapsed < 1.0
    _pass(1, f"single-emission fidelity {fid:.12f}, entropy {ent:.12f} ebit, {elapsed:.3f}s")


def test_criterion_02_bell_decomposition_weights():
    joint = fock.tensor(sources.dual_ensemble_source(SourceParams(p0=0.01)), sources.epr_pair())
    sector, _ = fock.restrict_total_occupation(joint, ["S1", "S2"], 1)
    weights = analysis.bell_decompose(sector, metrics.pol_qubit("p"), metrics.pol_qubit("A"))
    for name, w in weights.items():
        assert abs(w**2 - 0.25) <= TOL, f"{name}: weight {w**2}"
        assert abs(w - 0.5) <= TOL
    _pass(2, "all four Bell branch weights 0.25 (amplitude magnitude 1/2)")


def test_criterion_03_event_ready_success_probability():
    n = 100_000
    lines = []
    for i, p0 in enumerate((0.005, 0.01, 0.02)):
        exact_cfg = ProtocolConfig(source=SourceParams(p0=p0), detector=ideal())
        _, report = protocols.event_ready_generation(exact_cfg)
        p_exact = p0 / (2.0 * (1.0 + p0))
        assert abs(report["success_probability"] - p_exact) <= TOL
        assert abs(report["ideal_detector_leading_order_success_probability"] - p0 / 2.0) <= TOL
        assert abs(report["heralded_fidelity"] - 1.0) <= TOL

        start = time.perf_counter()
        sampled_cfg = ProtocolConfig(
            source=SourceParams(p0=p0),
            detector=ideal(),
            mode="sampled",
            trials=n,
            seed=2026 + i,
        )
        _, sampled = protocols.event_ready_generation(sampled_cfg)
        elapsed = time.perf_counter() - start
        sigma = math.sqrt(n * p_exact * (1.0 - p_exact))
        dev = abs(sampled["success_count"] - n * p_exact)
        assert dev <= 3.0 * sigma, f"p0={p0}: {sampled['success_count']} vs {n * p_exact:.1f}"
        assert elapsed < 30.0
        lines.append(f"p0={p0}: {sampled['success_count']}/{n} ({dev / sigma:.2f} sigma, {elapsed:.1f}s)")
    _pass(3, "; ".join(lines))


def test_criterion_04_triplet_herald_correction():
    cfg = ProtocolConfig(source=SourceParams(p0=0.01), detector=ideal())
    prep = PreparedBellAnalyzer(protocols._event_ready_input(cfg), "p", "A", ideal())
    outcomes = {name: cond for name, cond, _ in prep.exact_outcomes()}
    minus = outcomes[detection.PSI_MINUS]
    corrected = protocols._flip_phase(outcomes[detection.PSI_PLUS], "B:H")
    _, ref = minus.branches[0]
    overlap = math.sqrt(fock.state_fidelity(corrected, ref.normalize()))
    assert abs(overlap - 1.0) <= TOL
    _pass(4, f"corrected triplet-herald branch overlaps singlet-herald branch at {overlap:.12f}")


def test_criterion_05_memory_protocol():
    n = 100_000
    sampled_cfg = ProtocolConfig(
        mode="sampled", trials=n, seed=515, theta=0.7, phi=1.9, detector=ideal()
    )
    _, report = protocols.memory_store(sampled_cfg)
    dev = abs(report["success_count"] - n / 2.0)
    sigma = math.sqrt(n * 0.25)
    assert dev <= 3.0 * sigma

    worst_store = worst_trip = 1.0
    for theta in np.linspace(0.0, math.pi, 5):
        for phi in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
            cfg = ProtocolConfig(theta=float(theta), phi=float(phi), detector=ideal())
            _, rep = protocols.memory_store(cfg)
            assert abs(rep["stored_fidelity"] - 1.0) <= TOL, (theta, phi)
            assert abs(rep["round_trip_fidelity"] - 1.0) <= TOL, (theta, phi)
            worst_store = min(worst_store, rep["stored_fidelity"])
            worst_trip = min(worst_trip, rep["round_trip_fidelity"])
    _pass(
        5,
        f"success {report['success_count']}/{n} ({dev / sigma:.2f} sigma of 1/2); "
        f"25-point grid min stored {worst_store:.12f}, min round-trip {worst_trip:.12f}",
    )


def test_criterion_06_mixed_state_structure():
    for p0 in (0.001, 0.01, 0.1):
        _, report = analysis.generate_entanglement(ProtocolConfig(source=SourceParams(p0=p0)))
        w_vac, w_one = report["branch_weights"]
        assert abs(w_vac - 1.0 / (1.0 + p0)) <= TOL
        assert abs(w_one - p0 / (1.0 + p0)) <= TOL
        assert abs(report["purity"] - (1.0 + p0**2) / (1.0 + p0) ** 2) <= TOL
    _pass(6, "branch weights (1/(1+p0), p0/(1+p0)) and purity (1+p0^2)/(1+p0)^2 at p0=0.001/0.01/0.1")


def test_criterion_07_contamination_scaling():
    grid = (0.01, 0.025, 0.05, 0.075, 0.1)
    deltas = []
    for p0 in grid:
        cfg = ProtocolConfig(source=SourceParams(p0=p0, emission_order=2), detector=ideal())
        _, report = protocols.event_ready_generation(cfg)
        deltas.append(1.0 - report["heralded_fidelity"])
    for lo, hi in zip(deltas, deltas[1:]):
        assert hi > lo, f"deficit not monotone: {deltas}"
    ratios = [d / p0 for d, p0 in zip(deltas, grid)]
    assert max(ratios) <= 1.0, f"deficit/p0 unbounded: {ratios}"
    _pass(
        7,
        f"order-2 fidelity deficit rises {deltas[0]:.5f} -> {deltas[-1]:.5f}, "
        f"deficit/p0 in [{min(ratios):.3f}, {max(ratios):.3f}] <= 1",
    )


def test_criterion_08_dark_count_false_heralds():
    windows = 1_000_000
    rule = detection.default_herald_rule()
    rates = {}
    counts = {}
    for d, seed in ((1e-3, 31), (1e-4, 32), (1e-5, 33)):
        rates[d] = protocols.false_herald_probability(rule, d)
        cfg = ProtocolConfig(
            source=SourceParams(p0=0.0),
            epr_enabled=False,
            detector=DetectorSpec(dark_prob=d),
            mode="sampled",
            trials=windows,
            seed=seed,
        )
        keys = protocols.trial_outcomes(cfg, "event-ready", 0, windows)
        counts[d] = protocols.summarize_sampled(cfg, "event-ready", keys)["success_count"]
        # observed count must be Poisson-consistent with the exact rate
        lam = windows * rates[d]
        assert counts[d] <= lam + 3.0 * math.sqrt(lam) + 1.0, (d, counts[d], lam)

    slope = math.log(rates[1e-3] / rates[1e-4]) / math.log(10.0)
    assert abs(slope - 2.0) <= 0.2
    assert rates[1e-5] <= 1e-9
    assert counts[1e-5] <= 1  # zero-ish counts: consistent with <= 1e-9 per window
    _pass(
        8,
        f"log-log slope {slope:.4f}; heralds per 1e6 windows "
        f"{counts[1e-3]}/{counts[1e-4]}/{counts[1e-5]} at d=1e-3/1e-4/1e-5; "
        f"rate({1e-5:g}) = {rates[1e-5]:.3e} <= 1e-9",
    )


def test_criterion_09_sampled_vs_exact_distributions():
    n = 10_000
    bound = 4.0 / math.sqrt(n)

    reg = fock.ModeRegistry(cutoff=6).add_photonic_path("a", basis="linear")
    reg = reg.add_photonic_path("b", basis="linear")
    pair = fock.basis_state(reg, {"a:H": 1, "b:V": 1})
    analyzer = PreparedBellAnalyzer(pair, "a", "b", ideal())
    tallies = Counter(analyzer.sample(trial_rng(909, i))[2] for i in range(n))
    exact = dict(analyzer.distribution)
    tvd_bell = 0.5 * sum(
        abs(tallies.get(k, 0) / n - exact.get(k, 0.0)) for k in set(tallies) | set(exact)
    )
    assert tvd_bell < bound

    photons = fock.basis_state(reg, {"a:H": 1, "b:H": 1})
    mixed_paths = elements.beam_splitter(photons, "a", "b")
    spec = DetectorSpec(dark_prob=0.0, resolving=True)
    hom_tallies = Counter()
    for i in range(n):
        pattern, _, _ = sampling.measure(
            mixed_paths, {"a:H": spec, "b:H": spec}, trial_rng(910, i)
        )
        hom_tallies[tuple(c for _, c in pattern.counts)] += 1
    hom_exact = dict(detection.exact_outcome_distribution(mixed_paths, ["a:H", "b:H"]))
    tvd_hom = 0.5 * sum(
        abs(hom_tallies.get(k, 0) / n - hom_exact.get(k, 0.0))
        for k in set(hom_tallies) | set(hom_exact)
    )
    assert tvd_hom < bound
    assert set(hom_exact) == {(2, 0), (0, 2)}  # coalescence: no coincidences
    _pass(9, f"TVD analyzer {tvd_bell:.4f}, two-photon interference {tvd_hom:.4f} < {bound}")


def test_criterion_10_byte_identical_reports(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[run]\nprotocol = memory\nmode = sampled\ntrials = 2000\nseed = 123\n\n"
        "[memory]\ntheta = 0.7\nphi = 1.9\n"
    )
    outs = [tmp_path / name for name in ("serial_a.json", "serial_b.json", "parallel.json")]
    assert cli.main(["memory", "--config", str(ini), "--out", str(outs[0])]) == 0
    assert cli.main(["memory", "--config", str(ini), "--out", str(outs[1])]) == 0
    assert cli.main(["memory", "--config", str(ini), "--out", str(outs[2]), "--jobs", "2"]) == 0
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    _pass(10, f"serial x2 and 2-worker reports byte-identical ({len(blobs[0])} bytes)")
