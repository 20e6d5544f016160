"""Core state representation and mode algebra tests.

Expected amplitudes were derived with the dense scipy oracle in
dense_oracle.py (matrix exponentials of number-operator generators) and
frozen here; a handful of cases re-run the oracle inline to guard the
frozen numbers themselves.
"""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import dense_oracle as oracle
from sparse_states import bits, measured_modes, mixed_states, outcome, patterns, pure_states
from stokesim import fock
from stokesim.errors import RegistryError, ValidationError

SQRT_HALF = 0.7071067811865476


def two_path_registry(cutoff=4):
    return fock.ModeRegistry(
        (fock.photonic_mode("a", "R"), fock.photonic_mode("b", "R")), cutoff=cutoff
    )


def beam_splitter_matrix():
    return np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# registry


def test_registry_rejects_duplicate_names():
    m = fock.atomic_mode("s")
    with pytest.raises(RegistryError):
        fock.ModeRegistry((m, fock.atomic_mode("s")))


def test_registry_lookup_and_order():
    reg = two_path_registry().add_atomic("s1")
    assert [m.name for m in reg.modes] == ["a:R", "b:R", "s1"]
    assert reg.index("s1") == 2
    assert reg.index(fock.atomic_mode("s1")) == 2
    with pytest.raises(RegistryError):
        reg.index("nope")


def test_registry_relabel_preserves_positions():
    reg = two_path_registry()
    old = reg.path_mode("a", "R")
    new = fock.photonic_mode("a", "H")
    reg2 = reg.replace({old: new})
    assert reg2.index("a:H") == reg.index("a:R")
    assert reg2.modes[1] == reg.modes[1]


def test_loss_modes_get_fresh_names():
    reg = two_path_registry()
    reg, l0 = reg.add_loss()
    reg, l1 = reg.add_loss()
    assert (l0.name, l1.name) == ("loss0", "loss1")


def test_photonic_mode_requires_valid_polarization():
    with pytest.raises(RegistryError):
        fock.ModeId(name="bad", kind=fock.PHOTONIC, path="a", pol="X")
    with pytest.raises(RegistryError):
        fock.ModeId(name="bad", kind=fock.ATOMIC, path="a")


# ---------------------------------------------------------------------------
# state construction


def test_vacuum_is_normalized_single_term():
    st = fock.vacuum(two_path_registry())
    assert st.is_vacuum()
    assert st.norm_sq() == 1.0


def test_basis_state_and_amplitude_lookup():
    reg = two_path_registry()
    st = fock.basis_state(reg, {"a:R": 2, "b:R": 1})
    assert st.amplitude({"a:R": 2, "b:R": 1}) == 1.0
    assert st.amplitude({"a:R": 1}) == 0.0


def test_states_reject_cutoff_violations():
    reg = two_path_registry(cutoff=2)
    with pytest.raises(ValidationError):
        fock.basis_state(reg, {"a:R": 3})


def test_tiny_amplitudes_are_dropped():
    reg = two_path_registry()
    st = fock.PureState(reg, {(1, 0): 1.0, (0, 1): 1e-16})
    assert set(st.amplitudes) == {(1, 0)}


# ---------------------------------------------------------------------------
# mode unitaries


def test_hong_ou_mandel_coalescence():
    # one photon in each input of a balanced splitter: the coincidence
    # term cancels and the photons bunch, (|20> - |02>)/sqrt(2)
    reg = two_path_registry()
    st = fock.basis_state(reg, {"a:R": 1, "b:R": 1})
    out = fock.apply_mode_unitary(st, ["a:R", "b:R"], beam_splitter_matrix())
    np.testing.assert_allclose(out.amplitude({"a:R": 2}), SQRT_HALF, atol=1e-15)
    np.testing.assert_allclose(out.amplitude({"b:R": 2}), -SQRT_HALF, atol=1e-15)
    assert out.amplitude({"a:R": 1, "b:R": 1}) == 0.0


def test_single_photon_splits_evenly():
    reg = two_path_registry()
    st = fock.basis_state(reg, {"a:R": 1})
    out = fock.apply_mode_unitary(st, ["a:R", "b:R"], beam_splitter_matrix())
    np.testing.assert_allclose(out.amplitude({"a:R": 1}), SQRT_HALF)
    np.testing.assert_allclose(out.amplitude({"b:R": 1}), SQRT_HALF)


def test_mode_unitary_matches_dense_oracle():
    rng = np.random.default_rng(42)
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "xyz"), cutoff=4)
    basis = oracle.fock_basis(3, 4)
    amps = {(1, 0, 2): 0.5, (0, 1, 0): 0.5j, (2, 1, 1): -0.5, (0, 0, 0): 0.5}
    st = fock.PureState(reg, amps)
    for _ in range(3):
        u = oracle.haar_unitary(3, rng)
        out = fock.apply_mode_unitary(st, ["x", "y", "z"], u)
        ref = oracle.amplitudes_from_vector(
            basis, oracle.mode_unitary_fock(basis, [0, 1, 2], u) @ oracle.vector_from_amplitudes(basis, amps)
        )
        for occ in set(out.amplitudes) | set(ref):
            np.testing.assert_allclose(out.amplitudes.get(occ, 0.0), ref.get(occ, 0.0), atol=1e-12)


def test_mode_unitary_on_subset_leaves_rest_alone():
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "xyz"), cutoff=4)
    st = fock.basis_state(reg, {"x": 1, "z": 2})
    out = fock.apply_mode_unitary(st, ["x", "y"], beam_splitter_matrix())
    # z never participates, so every term keeps its two z excitations
    assert all(occ[2] == 2 for occ in out.amplitudes)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-12)


def test_mode_unitary_composition():
    rng = np.random.default_rng(3)
    reg = two_path_registry()
    st = fock.basis_state(reg, {"a:R": 1, "b:R": 2})
    u = oracle.haar_unitary(2, rng)
    v = oracle.haar_unitary(2, rng)
    seq = fock.apply_mode_unitary(fock.apply_mode_unitary(st, ["a:R", "b:R"], u), ["a:R", "b:R"], v)
    combined = fock.apply_mode_unitary(st, ["a:R", "b:R"], v @ u)
    for occ in set(seq.amplitudes) | set(combined.amplitudes):
        np.testing.assert_allclose(seq.amplitudes.get(occ, 0.0), combined.amplitudes.get(occ, 0.0), atol=1e-12)


def test_mode_unitary_rejects_nonunitary_matrix():
    reg = two_path_registry()
    st = fock.vacuum(reg)
    with pytest.raises(ValidationError):
        fock.apply_mode_unitary(st, ["a:R", "b:R"], np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_phase_plate_scales_by_photon_number():
    reg = two_path_registry()
    st = fock.basis_state(reg, {"a:R": 3})
    out = fock.apply_phase(st, "a:R", 0.4)
    np.testing.assert_allclose(out.amplitude({"a:R": 3}), np.exp(1.2j), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(hs.floats(0.0, 2.0 * math.pi), hs.floats(0.0, 2.0 * math.pi))
def test_norm_preserved_under_any_two_mode_rotation(theta, phi):
    reg = two_path_registry()
    st = fock.PureState(reg, {(2, 0): 0.6, (1, 1): 0.8j})
    u = np.array(
        [
            [math.cos(theta), -math.sin(theta) * np.exp(-1j * phi)],
            [math.sin(theta) * np.exp(1j * phi), math.cos(theta)],
        ]
    )
    out = fock.apply_mode_unitary(st, ["a:R", "b:R"], u)
    np.testing.assert_allclose(out.norm_sq(), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# inner products and projection


def test_inner_product_is_sesquilinear():
    reg = two_path_registry()
    x = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    y = fock.PureState(reg, {(1, 0): 1.0j})
    ip = fock.inner_product(x, y)
    np.testing.assert_allclose(ip, 0.6j)
    np.testing.assert_allclose(fock.inner_product(y, x), np.conj(ip))


def test_project_returns_born_weights():
    reg = two_path_registry()
    st = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    post, w = fock.project(st, {"a:R": 1, "b:R": 0})
    np.testing.assert_allclose(w, 0.36)
    np.testing.assert_allclose(post.norm_sq(), 1.0)
    none, zero = fock.project(st, {"a:R": 2})
    assert none is None and zero == 0.0


def test_project_weights_sum_to_norm():
    reg = two_path_registry()
    st = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.48, (1, 1): 0.64})
    total = 0.0
    for occ in [(1, 0), (0, 1), (1, 1)]:
        _, w = fock.project(st, {"a:R": occ[0], "b:R": occ[1]})
        total += w
    np.testing.assert_allclose(total, st.norm_sq())


def test_restrict_total_occupation_keeps_coherence():
    reg = two_path_registry()
    st = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.6, (1, 1): math.sqrt(1 - 0.72)})
    sector, w = fock.restrict_total_occupation(st, ["a:R", "b:R"], 1)
    np.testing.assert_allclose(w, 0.72)
    np.testing.assert_allclose(sector.amplitude({"a:R": 1}), SQRT_HALF)
    np.testing.assert_allclose(sector.amplitude({"b:R": 1}), SQRT_HALF)


def test_truncate_total_occupation_tracks_dropped_weight():
    reg = two_path_registry()
    st = fock.PureState(reg, {(0, 0): 0.8, (2, 2): 0.6})
    kept, dropped = fock.truncate_total_occupation(st, ["a:R", "b:R"], 1)
    np.testing.assert_allclose(dropped, 0.36)
    np.testing.assert_allclose(kept.norm_sq(), 0.64)
    np.testing.assert_allclose(kept.truncation_loss, 0.36)


# ---------------------------------------------------------------------------
# composition and reduction


def test_tensor_of_disjoint_registries():
    a = fock.basis_state(fock.ModeRegistry((fock.atomic_mode("s1"),), 4), {"s1": 1})
    b = fock.basis_state(fock.ModeRegistry((fock.atomic_mode("s2"),), 4), {"s2": 2})
    joint = fock.tensor(a, b)
    assert joint.amplitude({"s1": 1, "s2": 2}) == 1.0
    with pytest.raises(RegistryError):
        fock.tensor(a, a)


def test_remove_definite_modes_round_trip():
    reg = two_path_registry().add_atomic("s")
    st = fock.PureState(reg, {(1, 0, 1): 0.6, (0, 1, 1): 0.8})
    smaller = fock.remove_definite_modes(st, ["s"])
    assert [m.name for m in smaller.registry.modes] == ["a:R", "b:R"]
    np.testing.assert_allclose(smaller.amplitude({"a:R": 1}), 0.6)
    with pytest.raises(ValidationError):
        fock.remove_definite_modes(fock.PureState(reg, {(1, 0, 1): 0.6, (0, 1, 0): 0.8}), ["s"])


def test_reduced_density_matches_dense_partial_trace():
    # entangle two pairs of modes, keep one of each pair
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "wxyz"), cutoff=3)
    amps = {(1, 0, 1, 0): 0.5, (0, 1, 0, 1): 0.5, (1, 0, 0, 1): 0.5, (1, 1, 1, 0): 0.5}
    st = fock.PureState(reg, amps)
    rho, basis = fock.reduced_density(st, ["w", "y"])

    full = oracle.fock_basis(4, 3)
    vec = oracle.vector_from_amplitudes(full, amps)
    ref, ref_basis = oracle.partial_trace(oracle.density_from_vector(vec), full, keep=[0, 2])
    # the oracle basis spans every kept pattern; select the populated block
    sel = [ref_basis.index(p) for p in basis]
    np.testing.assert_allclose(rho, ref[np.ix_(sel, sel)], atol=1e-12)
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)


def test_trace_out_agrees_with_reduced_density():
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "xyz"), cutoff=3)
    st = fock.PureState(reg, {(1, 0, 1): 0.6, (0, 1, 1): 0.48, (0, 1, 0): 0.64})
    mixed = fock.trace_out(st, ["z"])
    np.testing.assert_allclose(sum(w for w, _ in mixed.branches), 1.0, atol=1e-12)
    rho_a, basis_a = fock.reduced_density(mixed, ["x", "y"])
    rho_b, basis_b = fock.reduced_density(st, ["x", "y"])
    assert basis_a == basis_b
    np.testing.assert_allclose(rho_a, rho_b, atol=1e-12)


@given(mixed_states(), measured_modes)
def test_split_matches_projecting_each_pattern(mixed, modes):
    for _, st in mixed.branches:
        groups = fock.split_by_occupation(st, modes)
        present = []
        for pattern in patterns(len(modes)):
            post, weight = fock.project(st, dict(zip(modes, pattern)))
            if post is None:
                assert pattern not in groups
                continue
            present.append(pattern)
            got_weight, rest = groups[pattern]
            assert got_weight.hex() == weight.hex()
            assert bits(rest) == bits(fock.remove_definite_modes(post, modes))
        assert sorted(groups) == present


def _trace_out_before_split(state, modes):
    """`trace_out` as it was before it called `split_by_occupation`."""
    mixed = fock.as_mixed(state)
    reg = mixed.registry
    idx = sorted(reg.index(m) for m in modes)
    keep = [i for i in range(len(reg)) if i not in idx]
    new_reg = fock.ModeRegistry(tuple(reg.modes[i] for i in keep), reg.cutoff)

    out = []
    for w, st in mixed.branches:
        groups = defaultdict(dict)
        for occ, c in st.amplitudes.items():
            env = tuple(occ[i] for i in idx)
            groups[env][tuple(occ[i] for i in keep)] = c
        for env, amps in sorted(groups.items()):
            bw = sum(abs(c) ** 2 for c in amps.values())
            if bw <= 0.0:
                continue
            scale = 1.0 / math.sqrt(bw)
            out.append((w * bw, fock.PureState(new_reg, {o: c * scale for o, c in amps.items()}, st.truncation_loss)))
    total = sum(w for w, _ in out)
    return fock.MixedState([(w / total, s) for w, s in out], check_weights=False)


@given(hs.one_of(pure_states(), mixed_states()), measured_modes)
def test_trace_out_matches_its_previous_body(state, modes):
    assert outcome(fock.trace_out, state, modes) == outcome(_trace_out_before_split, state, modes)


def test_state_fidelity_on_mixture():
    reg = two_path_registry()
    plus = fock.PureState(reg, {(1, 0): SQRT_HALF, (0, 1): SQRT_HALF})
    minus = fock.PureState(reg, {(1, 0): SQRT_HALF, (0, 1): -SQRT_HALF})
    mixed = fock.MixedState([(0.75, plus), (0.25, minus)])
    np.testing.assert_allclose(fock.state_fidelity(mixed, plus), 0.75)


@settings(max_examples=30, deadline=None)
@given(hs.integers(0, 3), hs.integers(0, 3))
def test_tensor_keeps_occupations(na, nb):
    a = fock.basis_state(fock.ModeRegistry((fock.atomic_mode("s1"),), 6), {"s1": na})
    b = fock.basis_state(fock.ModeRegistry((fock.atomic_mode("s2"),), 6), {"s2": nb})
    joint = fock.tensor(a, b)
    assert joint.amplitude({"s1": na, "s2": nb}) == 1.0
