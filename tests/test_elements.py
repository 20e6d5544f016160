"""Optical element tests.

Derived numbers come from the dense oracle or from closed forms worked
out by hand (attenuator postselection, split ratios); both routes are
noted next to the frozen values.
"""

import math

import numpy as np
import pytest

import dense_oracle as oracle
from stokesim import elements, fock, metrics
from stokesim.errors import ValidationError

SQRT_HALF = 0.7071067811865476
SQRT3_HALF = 0.8660254037844386


def circular_path(path="p", extra_atomic=(), cutoff=6):
    reg = fock.ModeRegistry(cutoff=cutoff)
    for name in extra_atomic:
        reg = reg.add_atomic(name)
    return reg.add_photonic_path(path, basis="circular")


# ---------------------------------------------------------------------------
# wave plates


def test_half_wave_swaps_circular_components():
    st = fock.basis_state(circular_path(), {"p:R": 1})
    out = elements.half_wave(st, "p")
    assert out.amplitude({"p:L": 1}) == 1.0
    back = elements.half_wave(out, "p")
    assert back.amplitude({"p:R": 1}) == 1.0


def test_half_wave_on_vacuum():
    st = fock.vacuum(circular_path())
    assert elements.half_wave(st, "p").is_vacuum()


def test_quarter_wave_relabels_to_linear():
    reg = circular_path()
    st = fock.PureState(
        reg,
        {
            tuple(1 if m.pol == "L" else 0 for m in reg.modes): SQRT_HALF,
            tuple(1 if m.pol == "R" else 0 for m in reg.modes): SQRT_HALF,
        },
    )
    out = elements.quarter_wave(st, "p")
    assert out.registry.path_pols("p") == {"H", "V"}
    np.testing.assert_allclose(out.amplitude({"p:H": 1}), SQRT_HALF)
    np.testing.assert_allclose(out.amplitude({"p:V": 1}), SQRT_HALF)


def test_quarter_wave_rejects_linear_input():
    st = fock.basis_state(circular_path(), {"p:L": 2})
    with pytest.raises(ValidationError):
        elements.quarter_wave(elements.quarter_wave(st, "p"), "p")


# ---------------------------------------------------------------------------
# attenuator


def test_attenuator_identity_at_full_transmission():
    st = fock.basis_state(circular_path(), {"p:L": 1})
    out = elements.attenuate_mode(st, "p:L", 1.0)
    assert out is st


def test_attenuator_blocks_everything_at_zero():
    st = fock.basis_state(circular_path(), {"p:L": 1})
    out = elements.attenuate_mode(st, "p:L", 0.0)
    _, prob = fock.project(out, {"p:L": 0, "loss0": 0})
    assert prob == 0.0
    _, lost = fock.project(out, {"loss0": 1})
    np.testing.assert_allclose(lost, 1.0)


def test_attenuator_rejects_out_of_range():
    st = fock.basis_state(circular_path(), {"p:L": 1})
    with pytest.raises(ValidationError):
        elements.attenuate_mode(st, "p:L", 1.2)


def test_attenuator_postselected_amplitudes_third():
    # (|S1 1_L> + |S2 1_R>)/sqrt(2) through a t=1/3 attenuator,
    # postselected on no loss: amplitudes (1/2, sqrt(3)/2), concurrence
    # 2*1/2*sqrt(3)/2 = sqrt(3)/2 (hand-derived, cross-checked by the
    # concurrence oracle below)
    reg = circular_path(extra_atomic=("S1", "S2"))
    st = fock.PureState(
        reg,
        {
            tuple(1 if m.name in ("S1", "p:L") else 0 for m in reg.modes): SQRT_HALF,
            tuple(1 if m.name in ("S2", "p:R") else 0 for m in reg.modes): SQRT_HALF,
        },
    )
    out = elements.attenuate_mode(st, "p:L", 1.0 / 3.0)
    kept, prob = fock.project(out, {"loss0": 0})
    np.testing.assert_allclose(prob, 2.0 / 3.0)
    np.testing.assert_allclose(abs(kept.amplitude({"S1": 1, "p:L": 1})), 0.5, atol=1e-12)
    np.testing.assert_allclose(abs(kept.amplitude({"S2": 1, "p:R": 1})), SQRT3_HALF, atol=1e-12)
    rho = metrics.two_qubit_density(
        kept,
        metrics.excitation_qubit("S1", "S2"),
        metrics.QubitEncoding(("p:L", "p:R"), (1, 0), (0, 1)),
    )
    np.testing.assert_allclose(metrics.concurrence(rho), SQRT3_HALF, atol=1e-12)


def test_attenuators_compose_multiplicatively():
    st = fock.basis_state(circular_path(), {"p:L": 1})
    twice = elements.attenuate_mode(elements.attenuate_mode(st, "p:L", 0.5), "p:L", 0.4)
    once = elements.attenuate_mode(st, "p:L", 0.2)
    post_twice, p_twice = fock.project(twice, {"loss0": 0, "loss1": 0})
    post_once, p_once = fock.project(once, {"loss0": 0})
    np.testing.assert_allclose(p_twice, p_once, atol=1e-10)
    np.testing.assert_allclose(
        post_twice.amplitude({"p:L": 1}), post_once.amplitude({"p:L": 1}), atol=1e-10
    )


def test_attenuator_is_unitary_on_extended_space():
    st = fock.PureState(circular_path(), {(1, 1): SQRT_HALF, (2, 0): SQRT_HALF})
    out = elements.attenuate_mode(st, "p:L", 0.37)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# beam splitter


def linear_two_paths(cutoff=6):
    reg = fock.ModeRegistry(cutoff=cutoff).add_photonic_path("a", basis="linear")
    return reg.add_photonic_path("b", basis="linear")


def test_single_photon_balanced_split():
    st = fock.basis_state(linear_two_paths(), {"a:H": 1})
    out = elements.beam_splitter(st, "a", "b")
    np.testing.assert_allclose(out.amplitude({"a:H": 1}), SQRT_HALF)
    np.testing.assert_allclose(out.amplitude({"b:H": 1}), SQRT_HALF)


def test_same_polarization_photons_coalesce():
    st = fock.basis_state(linear_two_paths(), {"a:H": 1, "b:H": 1})
    out = elements.beam_splitter(st, "a", "b")
    np.testing.assert_allclose(out.amplitude({"a:H": 2}), SQRT_HALF, atol=1e-12)
    np.testing.assert_allclose(out.amplitude({"b:H": 2}), -SQRT_HALF, atol=1e-12)
    assert out.amplitude({"a:H": 1, "b:H": 1}) == 0.0


def test_distinguishable_photons_split_into_four_equal_outcomes():
    st = fock.basis_state(linear_two_paths(), {"a:H": 1, "b:V": 1})
    out = elements.beam_splitter(st, "a", "b")
    patterns = [
        {"a:H": 1, "a:V": 1},
        {"b:H": 1, "b:V": 1},
        {"a:H": 1, "b:V": 1},
        {"b:H": 1, "a:V": 1},
    ]
    for pat in patterns:
        full = {"a:H": 0, "a:V": 0, "b:H": 0, "b:V": 0}
        full.update(pat)
        _, prob = fock.project(out, full)
        np.testing.assert_allclose(prob, 0.25, atol=1e-12)


def test_beam_splitter_matches_dense_oracle_off_balance():
    rng = np.random.default_rng(5)
    reg = linear_two_paths(cutoff=4)
    amps = {}
    for occ in [(1, 0, 1, 0), (0, 1, 1, 0), (2, 0, 0, 1)]:
        amps[occ] = rng.normal() + 1j * rng.normal()
    n = math.sqrt(sum(abs(c) ** 2 for c in amps.values()))
    st = fock.PureState(reg, {o: c / n for o, c in amps.items()})
    r = 0.3
    out = elements.beam_splitter(st, "a", "b", r=r)

    u = np.array([[math.sqrt(0.7), math.sqrt(0.3)], [math.sqrt(0.3), -math.sqrt(0.7)]])
    basis = oracle.fock_basis(4, 4)
    vec = oracle.vector_from_amplitudes(basis, st.amplitudes)
    # registry order is a:H, a:V, b:H, b:V - H couples modes (0, 2), V (1, 3)
    ufock = oracle.mode_unitary_fock(basis, [0, 2], u) @ oracle.mode_unitary_fock(basis, [1, 3], u)
    ref = oracle.amplitudes_from_vector(basis, ufock @ vec)
    for occ in set(out.amplitudes) | set(ref):
        np.testing.assert_allclose(out.amplitudes.get(occ, 0.0), ref.get(occ, 0.0), atol=1e-12)


def test_beam_splitter_twice_restores_born_probabilities():
    st = fock.basis_state(linear_two_paths(), {"a:H": 1, "b:V": 1})
    out = elements.beam_splitter(elements.beam_splitter(st, "a", "b"), "a", "b")
    for occ, c in st.amplitudes.items():
        np.testing.assert_allclose(abs(out.amplitudes.get(occ, 0.0)) ** 2, abs(c) ** 2, atol=1e-10)


def test_beam_splitter_rejects_basis_mismatch():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("a", basis="linear")
    reg = reg.add_photonic_path("b", basis="circular")
    with pytest.raises(ValidationError):
        elements.beam_splitter(fock.vacuum(reg), "a", "b")


# ---------------------------------------------------------------------------
# polarization splitter and filter


def test_pol_splitter_routes_by_polarization():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("x", basis="linear")
    st = fock.PureState(reg, {(1, 0): SQRT_HALF, (0, 1): SQRT_HALF})
    out, out_h, out_v = elements.pol_splitter(st, "x")
    assert (out_h, out_v) == ("x1", "x2")
    np.testing.assert_allclose(out.amplitude({"x1:H": 1}), SQRT_HALF)
    np.testing.assert_allclose(out.amplitude({"x2:V": 1}), SQRT_HALF)


def test_pol_splitter_rejects_circular_input():
    st = fock.vacuum(circular_path())
    with pytest.raises(ValidationError):
        elements.pol_splitter(st, "p")

