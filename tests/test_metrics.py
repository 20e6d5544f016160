"""Tests for the entanglement / mixedness measures.

Closed forms used as oracles: S(0.9, 0.1) = 0.46899559358928117 bits,
concurrence 2|ab| for a|00> + b|11>, and max(0, (3p-1)/2) for a singlet
fraction p Werner state.
"""

import math

import numpy as np
import pytest

import dense_oracle as oracle
from stokesim import fock, metrics
from stokesim.errors import ValidationError

ENTROPY_09 = 0.46899559358928117
SQRT_HALF = 0.7071067811865476


def two_mode_registry():
    return fock.ModeRegistry(cutoff=4).add_atomic("a").add_atomic("b")


def correlated_state(w0):
    reg = two_mode_registry()
    return fock.PureState(
        reg, {(0, 0): math.sqrt(w0), (1, 1): math.sqrt(1.0 - w0)}
    )


# ---------------------------------------------------------------------------
# entropy


def test_entropy_of_spectrum_closed_forms():
    assert metrics.entropy_of_spectrum([1.0]) == 0.0
    np.testing.assert_allclose(metrics.entropy_of_spectrum([0.5, 0.5]), 1.0, atol=1e-15)
    np.testing.assert_allclose(
        metrics.entropy_of_spectrum([0.9, 0.1]), ENTROPY_09, atol=1e-15
    )
    # 0 log 0 convention
    assert metrics.entropy_of_spectrum([1.0, 0.0, 0.0]) == 0.0


def test_entanglement_entropy_of_correlated_pair():
    np.testing.assert_allclose(
        metrics.entropy(correlated_state(0.9), ["a"]), ENTROPY_09, atol=1e-12
    )
    # symmetric under exchanging the kept side
    np.testing.assert_allclose(
        metrics.entropy(correlated_state(0.9), ["b"]), ENTROPY_09, atol=1e-12
    )
    assert metrics.entropy(correlated_state(1.0), ["a"]) == 0.0


def test_entropy_matches_dense_oracle_on_random_state():
    rng = np.random.default_rng(11)
    reg = two_mode_registry().add_atomic("c")
    basis = oracle.fock_basis(3, 4)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    st = fock.PureState(reg, oracle.amplitudes_from_vector(basis, vec))
    rho_ref, _ = oracle.partial_trace(oracle.density_from_vector(vec), basis, [0])
    np.testing.assert_allclose(
        metrics.entropy(st, ["a"]), oracle.von_neumann_entropy(rho_ref), atol=1e-10
    )


def test_entropy_rejects_unnormalized_and_mixed():
    with pytest.raises(ValidationError):
        metrics.entropy(correlated_state(0.9).scaled(0.5), ["a"])
    mixed = fock.as_mixed(correlated_state(0.9))
    with pytest.raises(ValidationError):
        metrics.entropy(mixed, ["a"])


# ---------------------------------------------------------------------------
# purity and density checks


def test_purity_extremes():
    assert metrics.purity(np.diag([1.0, 0.0])) == 1.0
    np.testing.assert_allclose(metrics.purity(np.eye(2) / 2.0), 0.5, atol=1e-15)
    np.testing.assert_allclose(metrics.purity(np.diag([0.9, 0.1])), 0.82, atol=1e-15)


def test_density_validation():
    with pytest.raises(ValidationError):
        metrics.purity(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        metrics.purity(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        metrics.purity(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValidationError):
        metrics.concurrence(np.eye(2) / 2.0)  # needs two qubits


# ---------------------------------------------------------------------------
# concurrence


def bell_density(sign=+1.0):
    v = np.array([0.0, SQRT_HALF, sign * SQRT_HALF, 0.0])
    return np.outer(v, v.conj())


def test_concurrence_closed_forms():
    np.testing.assert_allclose(metrics.concurrence(bell_density()), 1.0, atol=1e-12)
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    assert metrics.concurrence(product) == 0.0
    # (0.8, 0.6) leaves rounding-level eigenvalues whose square roots are ~7e-9
    for a, b in ((math.sqrt(0.2), math.sqrt(0.8)), (0.8, 0.6)):
        v = np.array([a, 0.0, 0.0, b])
        np.testing.assert_allclose(
            metrics.concurrence(np.outer(v, v)), 2 * a * b, rtol=0, atol=1e-12
        )


def test_concurrence_werner_state():
    p = 0.8
    rho = p * bell_density(-1.0) + (1.0 - p) * np.eye(4) / 4.0
    np.testing.assert_allclose(metrics.concurrence(rho), (3 * p - 1) / 2, atol=1e-12)
    # separable below the threshold
    rho = (1.0 / 3.0) * bell_density(-1.0) + (2.0 / 3.0) * np.eye(4) / 4.0
    assert metrics.concurrence(rho) == 0.0


# ---------------------------------------------------------------------------
# encodings


def test_encoding_validation_and_patterns():
    enc = metrics.pol_qubit("q")
    assert enc.modes == ("q:H", "q:V")
    assert (enc.zero, enc.one) == ((1, 0), (0, 1))
    with pytest.raises(ValidationError):
        metrics.QubitEncoding(("m",), (1, 0), (0, 1))
    with pytest.raises(ValidationError):
        metrics.QubitEncoding(("m", "n"), (1, 0), (1, 0))


def test_qubit_density_trace_is_sector_weight():
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("q", basis="linear")
    st = fock.PureState(
        reg, {(0, 0): math.sqrt(0.4), (1, 0): math.sqrt(0.3), (0, 1): math.sqrt(0.3)}
    )
    rho = metrics.qubit_density(st, metrics.pol_qubit("q"))
    np.testing.assert_allclose(np.trace(rho).real, 0.6, atol=1e-12)
    np.testing.assert_allclose(rho[0, 1], 0.3, atol=1e-12)


def test_two_qubit_density_basis_order():
    reg = fock.ModeRegistry(cutoff=4).add_atomic("a0").add_atomic("a1")
    reg = reg.add_photonic_path("q", basis="linear")
    # |0>_a |1>_q with excitation qubit a and polarization qubit q
    st = fock.basis_state(reg, {"a0": 1, "q:V": 1})
    rho = metrics.two_qubit_density(
        st, metrics.excitation_qubit("a0", "a1"), metrics.pol_qubit("q")
    )
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0  # |01> slot
    np.testing.assert_allclose(rho, expect, atol=1e-12)


def test_qubit_fidelity_against_bloch_target():
    theta, phi = 0.7, 1.9
    amp0, amp1 = math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    reg = fock.ModeRegistry(cutoff=4).add_photonic_path("q", basis="linear")
    st = fock.PureState(reg, {(1, 0): amp0, (0, 1): amp1})
    np.testing.assert_allclose(
        metrics.qubit_fidelity(st, metrics.pol_qubit("q"), amp0, amp1), 1.0, atol=1e-12
    )
    # orthogonal target
    np.testing.assert_allclose(
        metrics.qubit_fidelity(st, metrics.pol_qubit("q"), -amp1.conjugate(), amp0),
        0.0,
        atol=1e-12,
    )
    with pytest.raises(ValidationError):
        metrics.qubit_fidelity(st, metrics.pol_qubit("q"), 1.0, 1.0)
