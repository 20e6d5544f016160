"""Core state representation and mode algebra tests.

Expected amplitudes were derived with the dense scipy oracle in
dense_oracle.py (matrix exponentials of number-operator generators) and
frozen here; a handful of cases re-run the oracle inline to guard the
frozen numbers themselves.
"""

import itertools
import math
import re
import sys
from collections import defaultdict
from contextlib import contextmanager, suppress
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import dense_oracle as oracle
from sparse_states import MODES, REGISTRY, bits, measured_modes, mixed_states, outcome, patterns, pure_states, without_modes
from stokesim import detection, elements, fock, metrics, protocols, sources
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
    assert set(st.amplitudes) == {(0,) * len(st.registry)}
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


@pytest.mark.parametrize(
    "occ, message", [((1,), "does not match"), ((1, -1), "negative"), ((2, 1), "exceeds cutoff")]
)
def test_public_constructor_checks_every_term(occ, message):
    # a bad term fails even beside a good one and even when it would be dropped
    for c in (1.0, 1e-16):
        with pytest.raises(ValidationError, match=message):
            fock.PureState(two_path_registry(cutoff=2), {(1, 0): 1.0, occ: c})


@pytest.mark.parametrize("c", [math.nan, complex(1.0, math.nan), math.inf, complex(-math.inf, 0.0)])
def test_public_constructor_rejects_non_finite_amplitudes(c):
    # a NaN term used to be dropped silently and an infinite one kept
    with pytest.raises(ValidationError, match="not finite"):
        fock.PureState(two_path_registry(), {(1, 0): c, (0, 1): 1.0})


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -0.5])
def test_mixed_state_rejects_weights_outside_zero_to_infinity(w):
    st = fock.PureState(two_path_registry(), {(1, 0): 1.0})
    with pytest.raises(ValidationError, match="positive and finite"):
        fock.MixedState([(w, st)])


def test_tiny_amplitudes_are_dropped():
    reg = two_path_registry()
    st = fock.PureState(reg, {(1, 0): 1.0, (0, 1): 1e-16})
    assert set(st.amplitudes) == {(1, 0)}


#: the modes of `sparse_states.REGISTRY` renamed, for a second tensor factor
_OTHER = fock.ModeRegistry(
    (fock.atomic_mode("t0"), fock.atomic_mode("t1"), fock.photonic_mode("q", "H"), fock.loss_mode("loss1")), cutoff=3
)
#: an empty ensemble and Stokes mode for `raman_emit` to write into
_EMIT = fock.ModeRegistry((fock.atomic_mode("e"), fock.photonic_mode("x", "R")), cutoff=3)


@contextmanager
def _recording_wrap():
    """Record every `PureState._wrap` call: the name of the stage that
    called it (past `PureState._derive`), its arguments (the map copied) and
    its result."""
    original, calls = fock.PureState._wrap, []

    def recording(registry, amplitudes, truncation_loss, keys=None, order_cut=0.0):
        st = original(registry, amplitudes, truncation_loss, keys, order_cut)
        frame = sys._getframe(1)
        frame = frame.f_back if frame.f_code.co_name == "_derive" else frame
        calls.append((frame.f_code.co_name, registry, dict(amplitudes), (truncation_loss, order_cut), st))
        return st

    with mock.patch.object(fock.PureState, "_wrap", staticmethod(recording)):
        yield calls


#: the functions whose results take the trusted path, each building its map once
_TRUSTED = {"tensor", "raman_emit", "epr_pair", "truncate_total_occupation", "normalize"}


@settings(max_examples=60, deadline=None)
@given(pure_states(), pure_states(), measured_modes, hs.integers(0, 3), hs.floats(0.0, sources.SourceParams._ranges["p0"][1]))
def test_internal_results_match_the_checking_constructor(a, b, modes, max_total, p0):
    expected, results = {"tensor", "raman_emit", "epr_pair"}, []
    other = b.with_registry(_OTHER)
    with _recording_wrap() as calls:
        st = fock.tensor(a, other)
        terms = {oa + ob: ca * cb for oa, ca in a.amplitudes.items() for ob, cb in other.amplitudes.items()}
        results.append((st, {occ: c for occ, c in terms.items() if sum(occ) <= st.registry.cutoff}))
        sources.raman_emit(fock.tensor(a, fock.vacuum(_EMIT)), "e", "x:R", p0, 1)
        sources.epr_pair()
        with suppress(ValidationError):  # every term over max_total
            st, _ = fock.truncate_total_occupation(a, modes, max_total)
            idx = [a.registry.index(m) for m in modes]
            results.append((st, {occ: c for occ, c in a.amplitudes.items() if sum(occ[i] for i in idx) <= max_total}))
            expected.add("truncate_total_occupation")
        with suppress(ValidationError):  # a zero state
            st = a.normalize()
            results.append((st, {occ: c / a.norm() for occ, c in a.amplitudes.items()}))
            expected.add("normalize")
    assert expected <= {name for name, *_ in calls}
    for name, registry, amplitudes, loss, st in calls:
        if name in _TRUSTED:
            # built-in complex amplitudes, kept as the constructor keeps them
            assert all(type(c) is complex for c in amplitudes.values()) and all(type(x) is float for x in loss)
            assert bits(st) == bits(fock.PureState(registry, amplitudes, *loss))
    for st, terms in results:
        # the same keys in the same order, and the same bits, as the
        # constructor makes of every term before any is dropped
        assert bits(st) == bits(fock.PureState(st.registry, terms, st.truncation_loss, st.order_cut))


def test_mixed_branches_compare_registries_only_when_distinct(monkeypatch):
    compared = []
    eq = fock.ModeRegistry.__eq__
    monkeypatch.setattr(fock.ModeRegistry, "__eq__", lambda self, other: compared.append(other) or eq(self, other))
    reg = two_path_registry()
    x, y = fock.PureState(reg, {(1, 0): 1.0}), fock.PureState(reg, {(0, 1): 1.0})
    assert len(fock.MixedState([(0.5, x), (0.5, y), (0.25, x)]).branches) == 3
    assert compared == []
    # an equal registry that is another object is compared, and accepted
    twin = fock.PureState(two_path_registry(), {(0, 1): 1.0})
    assert len(fock.MixedState([(0.5, x), (0.5, twin)]).branches) == 2
    assert compared == [reg]
    with pytest.raises(RegistryError):
        fock.MixedState([(0.5, x), (0.5, fock.PureState(two_path_registry(cutoff=3), {(0, 1): 1.0}))])


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
    for pair in ([0, 1], [2, 0], [1, 2]):
        u = oracle.haar_unitary(2, rng)
        out = fock.apply_mode_unitary(st, ["xyz"[i] for i in pair], u)
        ref = oracle.amplitudes_from_vector(
            basis, oracle.mode_unitary_fock(basis, pair, u) @ oracle.vector_from_amplitudes(basis, amps)
        )
        for occ in set(out.amplitudes) | set(ref):
            np.testing.assert_allclose(out.amplitudes.get(occ, 0.0), ref.get(occ, 0.0), atol=1e-12)


@pytest.mark.parametrize("k", [3, 4])
def test_a_matrix_on_three_or_more_modes_is_a_validation_error(k):
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "wxyz"), cutoff=4)
    u = oracle.haar_unitary(k, np.random.default_rng(k))
    with pytest.raises(ValidationError, match="one or two modes"):
        fock.apply_mode_unitary(fock.basis_state(reg, {"x": 1}), list("wxyz")[:k], u)


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


@pytest.mark.parametrize("u", [np.array([[np.nan]]), np.array([[1.0, 0.0], [0.0, 2.0]])], ids=["nan", "scaled"])
def test_a_non_unitary_matrix_fails_every_check(u):
    # the check is memoized: a repeated matrix must fail again, not pass from the cache
    for _ in range(2):
        with pytest.raises(ValidationError, match="not unitary"):
            fock.check_unitary(u)
    st = fock.basis_state(two_path_registry(), {"a:R": 1})
    with pytest.raises(ValidationError, match="not unitary"):
        fock.apply_phase(st, "a:R", float("nan"))


@pytest.mark.parametrize(
    "u",
    [[[1.0, 0.0], [0.0]], [1.0, 0.0], np.array([1.0, 0.0]), [], [[]], np.zeros((0, 0)), np.eye(2)[None], [["one", 0.0], [0.0, 1.0]], [[None]], [[math.nan]]],
    ids=["ragged", "1d-list", "1d-array", "empty", "empty-row", "empty-array", "3d-array", "text", "none", "nan"],
)
def test_a_malformed_matrix_is_a_validation_error(u):
    # the rows are read in built-in complex, so shape and type are checked here, not by numpy
    with pytest.raises(ValidationError):
        fock.check_unitary(u)
    with pytest.raises(ValidationError):
        fock.apply_mode_unitary(fock.basis_state(two_path_registry(), {"a:R": 1}), ["a:R", "b:R"], u)


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


def _apply_by_terms(state, modes, u):
    """`fock.apply_mode_unitary` with every term expanded afresh by the closed
    form (`fock._coefficients` uncached) and summed in place: the reference
    the cached plans must match bit for bit, term order included."""
    ubytes = fock._pack(fock.check_unitary(u))
    idx = [state.registry.index(m) for m in modes]
    amps = {}
    for occ, c in state.amplitudes.items():
        for out, coeff in fock._coefficients.__wrapped__(ubytes, tuple(occ[i] for i in idx)):
            new = list(occ)
            for pos, m in zip(idx, out):
                new[pos] = m
            amps[tuple(new)] = amps.get(tuple(new), 0j) + c * coeff
    return fock.PureState(state.registry, amps, state.truncation_loss, state.order_cut)


_MATRICES = hs.one_of(
    hs.tuples(hs.integers(1, 2), hs.integers(0, 2**32 - 1)).map(
        lambda a: oracle.haar_unitary(a[0], np.random.default_rng(a[1]))
    ),
    hs.just(beam_splitter_matrix()),  # real, with a negative entry
    hs.just(np.array([[np.exp(1j * np.pi)]])),
)


@settings(max_examples=300, deadline=None)
@given(pure_states(), _MATRICES, hs.data())
def test_mode_unitary_matches_the_per_term_expansion_bit_for_bit(state, u, data):
    modes = data.draw(hs.permutations([m.name for m in MODES]))[: len(u)]
    assert bits(fock.apply_mode_unitary(state, modes, u)) == bits(_apply_by_terms(state, modes, u))


@settings(max_examples=100, deadline=None)
@given(pure_states(), hs.lists(_MATRICES, min_size=2, max_size=3), hs.data())
def test_replays_on_interned_keys_match_the_per_term_expansion_bit_for_bit(state, matrices, data):
    # one chain of mode unitaries over states of one key layout with new
    # amplitudes, some tiny: a later state finds each plan after the first
    # by the keys its replay interned, and a result carries interned keys
    # only when they are its own, in order
    chain = [(u, data.draw(hs.permutations([m.name for m in MODES]))[: len(u)]) for u in matrices]
    for _ in range(3):
        scales = data.draw(hs.lists(hs.sampled_from([1.0, 0.3, 1e-14]), min_size=len(state.amplitudes), max_size=len(state.amplitudes)))
        st = expected = fock.PureState(REGISTRY, {occ: c * s for (occ, c), s in zip(state.amplitudes.items(), scales)})
        for u, modes in chain:
            st, expected = fock.apply_mode_unitary(st, modes, u), _apply_by_terms(expected, modes, u)
            assert bits(st) == bits(expected)
            assert st._keys is None or tuple(st._keys) == tuple(st.amplitudes)


@settings(max_examples=100, deadline=None)
@given(pure_states(), hs.sampled_from([m.name for m in MODES]), hs.just(math.pi) | hs.floats(0.0, 2.0 * math.pi))
def test_phase_plate_matches_the_per_term_expansion_bit_for_bit(state, mode, phase):
    # apply_phase replays the plan of a matrix it checked once, skipping apply_mode_unitary
    u = np.array([[np.exp(1j * phase)]])
    assert bits(fock.apply_phase(state, mode, phase)) == bits(_apply_by_terms(state, [mode], u))


#: the dense oracle's basis and mode indices of `sparse_states.REGISTRY`
_DENSE_BASIS = oracle.fock_basis(len(MODES), REGISTRY.cutoff)


@settings(max_examples=40, deadline=None)
@given(pure_states(), _MATRICES.filter(lambda u: len(u) == 2), hs.data())
def test_two_mode_unitaries_match_the_dense_oracle_and_keep_the_norm(state, u, data):
    pair = data.draw(hs.permutations(range(len(MODES))))[:2]
    out = fock.apply_mode_unitary(state, [MODES[i].name for i in pair], u)
    vec = oracle.mode_unitary_fock(_DENSE_BASIS, pair, u) @ oracle.vector_from_amplitudes(_DENSE_BASIS, state.amplitudes)
    scale = max(1.0, state.norm())
    for occ, c in zip(_DENSE_BASIS, vec):
        assert abs(out.amplitudes.get(occ, 0j) - c) <= 1e-12 * scale
    assert abs(out.norm_sq() - state.norm_sq()) <= 1e-12 * scale**2


@pytest.mark.parametrize("phase", [math.pi, 0.7, -1.3, 2.0 * math.pi - 1e-9])
def test_the_phase_plate_matrix_has_numpy_bytes(phase):
    assert fock._phase_bytes(phase) == np.array([[np.exp(1j * phase)]]).tobytes()


def _multipair_config(p0):
    # ideal detectors, as in the multipair-exact benchmark workload
    base = protocols.ProtocolConfig(cutoff=12, detector=detection.DetectorSpec(dark_prob=0.0))
    return base.replace(source=base.source.replace(p0=p0, emission_order=5))


def test_beam_splitter_on_a_multipair_state_matches_the_per_term_expansion(monkeypatch):
    # photon numbers up to 10 per mode, beyond the small states above
    joint = protocols._event_ready_input(_multipair_config(0.2))
    planned = elements.beam_splitter(joint, "p", "A")
    monkeypatch.setattr(fock, "apply_mode_unitary", _apply_by_terms)
    assert bits(planned) == bits(elements.beam_splitter(joint, "p", "A"))


def test_matrices_equal_but_for_the_sign_of_a_zero_get_their_own_plans():
    u = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)
    v = u.conj()  # every imaginary part -0.0
    assert np.array_equal(u, v) and u.tobytes() != v.tobytes()
    reg = two_path_registry(cutoff=4)
    st = fock.PureState(reg, {(2, 1): -1.0 - 0.0j, (1, 0): 0.5j, (0, 3): complex(-0.0, 1.0)})
    fock._state_plan.cache_clear()
    fock._coefficients.cache_clear()
    for w in (u, v):
        misses = fock._coefficients.cache_info().misses
        assert bits(fock.apply_mode_unitary(st, ["a:R", "b:R"], w)) == bits(_apply_by_terms(st, ["a:R", "b:R"], w))
        assert fock._coefficients.cache_info().misses == misses + 3


_PLAN_CACHES = (fock._state_plan, detection._analyzer_layout, fock._coefficients)


def test_exact_sweep_points_after_the_first_reuse_every_plan():
    # every point of a p0 sweep has one term layout: later points find
    # every state plan and the analyzer's record cached and never expand a term
    for cache in _PLAN_CACHES:
        cache.cache_clear()
    infos = []
    for p0 in (0.01, 0.08, 0.2):
        protocols.event_ready_generation(_multipair_config(p0))
        infos.append([cache.cache_info() for cache in _PLAN_CACHES])
    first = infos[0]
    assert all(info.misses > 0 for info in first)
    for before, after in zip(infos, infos[1:]):
        for cache, info, prev, new in zip(_PLAN_CACHES, first, before, after):
            assert new.misses == info.misses
            if cache is fock._coefficients:
                assert new.hits == info.hits
            else:
                assert new.hits - prev.hits == info.hits + info.misses


def test_later_sweep_points_find_the_second_pass_and_the_layout_record_by_identity(monkeypatch):
    # a 24-point p0 sweep builds each beam-splitter plan and the analyzer's
    # layout record once; from the second point on, the second pass's plan
    # and the record are found by the interned keys that the pass before
    # handed on, hashed by identity, never by hashing 124 and 320 key tuples
    # (the first pass reads the tensor product's 42 keys by value)
    lookups = []
    state_plan, analyzer_layout = fock._state_plan, detection._analyzer_layout

    def planning(ubytes, idx, keys):
        lookups.append(("plan", idx, type(keys)))
        return state_plan(ubytes, idx, keys)

    def laying_out(registry, keys, *paths):
        lookups.append(("layout", None, type(keys)))
        return analyzer_layout(registry, keys, *paths)

    monkeypatch.setattr(fock, "_state_plan", planning)
    monkeypatch.setattr(detection, "_analyzer_layout", laying_out)
    state_plan.cache_clear()
    analyzer_layout.cache_clear()
    points = []
    for p0 in np.linspace(0.002, 0.2, 24).tolist():
        lookups[:] = []
        protocols.event_ready_generation(_multipair_config(p0), with_state=False)
        points.append(list(lookups))
    first_pass, second_pass = ("plan", (3, 4)), ("plan", (2, 5))
    for calls in points:
        kinds = [(kind, idx) for kind, idx, _ in calls]
        assert kinds.count(first_pass) == kinds.count(second_pass) == kinds.count(("layout", None)) == 1
    for calls in points[1:]:
        keyed = {(kind, idx) for kind, idx, keys in calls if keys is tuple}  # hashed by value
        assert second_pass not in keyed and ("layout", None) not in keyed
        assert first_pass in keyed
    # each plan and the record were built at the first point only
    assert analyzer_layout.cache_info()[:2] == (23, 1)
    assert state_plan.cache_info().misses == len(points[0]) - 1


def _layout_pair():
    """Two states with one key layout.  Under a 50:50 splitter on a:R and b:R
    the |1,1> terms cancel exactly (Hong-Ou-Mandel); in the second the first
    term is so small that what it adds to |1,1,1> stays below AMPLITUDE_EPS,
    so that sum is dropped and the other keys keep the plan's order."""
    reg = fock.ModeRegistry((fock.photonic_mode("a", "R"), fock.photonic_mode("b", "R"), fock.atomic_mode("s")), 4)
    layout = [(0, 2, 1), (0, 0, 1), (1, 1, 1), (1, 0, 0)]
    amps = [(0.5, 0.5j, -0.5, 0.5), (1.2e-14, 0.6, 0.48j, -0.64)]
    return [fock.PureState(reg, dict(zip(layout, a))) for a in amps]


def test_a_cached_plan_replays_the_new_amplitudes_and_key_order():
    first, second = _layout_pair()
    u, modes = beam_splitter_matrix(), ["a:R", "b:R"]
    fock._state_plan.cache_clear()
    outs = []
    for st in (first, second):
        out = fock.apply_mode_unitary(st, modes, u)
        assert bits(out) == bits(_apply_by_terms(st, modes, u))
        outs.append(out)
    assert fock._state_plan.cache_info()[:2] == (1, 1)
    assert list(outs[0].amplitudes) == [(0, 2, 1), (1, 1, 1), (2, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert list(outs[1].amplitudes) == [(0, 2, 1), (2, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert outs[0]._keys is not None and outs[1]._keys is None


def test_a_plan_interns_one_set_of_keys_and_none_for_a_dropped_sum():
    # two states of one layout whose results keep every sum share the plan's
    # interned keys, and a state whose sum cancels gets none; in either
    # order, the next pass finds its plan by the keys handed on
    u, modes = beam_splitter_matrix(), ["a:R", "b:R"]
    reg = fock.ModeRegistry((fock.photonic_mode("a", "R"), fock.photonic_mode("b", "R"), fock.atomic_mode("s")), 4)
    pairs = [
        ({(1, 0, 0): 1.0, (0, 1, 1): 0.3}, {(1, 0, 0): 0.2, (0, 1, 1): 1.0}),  # every sum kept
        ({(1, 0, 0): 0.5, (0, 1, 0): 0.3}, {(1, 0, 0): 0.5, (0, 1, 0): 0.5}),  # (0, 1, 0) cancels in the second
    ]
    for pair in pairs:
        for order in (pair, pair[::-1]):
            fock._state_plan.cache_clear()
            for amps in order:
                st = fock.apply_mode_unitary(fock.PureState(reg, amps), modes, u)
                assert st._keys is None or tuple(st._keys) == tuple(st.amplitudes)
                assert bits(fock.apply_mode_unitary(st, modes, u)) == bits(_apply_by_terms(st, modes, u))
    kept = [fock.apply_mode_unitary(fock.PureState(reg, amps), modes, u) for amps in pairs[0]]
    assert kept[0]._keys is kept[1]._keys is not None
    cancelled = fock.apply_mode_unitary(fock.PureState(reg, pairs[1][1]), modes, u)
    assert list(cancelled.amplitudes) == [(1, 0, 0)] and cancelled._keys is None
    # scaling a group to unit norm hands its keys on only when it drops no term
    keys, counters = fock.Keys([(1, 0, 0), (0, 1, 0)]), fock.vacuum(reg)
    assert fock._normalized(reg, {(1, 0, 0): 0.6, (0, 1, 0): 0.8}, counters, None, keys)[0]._keys is keys
    assert fock._normalized(reg, {(1, 0, 0): 1.0, (0, 1, 0): 0.9e-14}, counters, None, keys)[0]._keys is None


def _analyzer(p0, t=None):
    """The event-ready analyzer of an order-2 source, with an attenuator of transmissivity `t` if given."""
    config = protocols.ProtocolConfig(source=sources.SourceParams(p0=p0, emission_order=2, t=t))
    return detection.PreparedBellAnalyzer(protocols._event_ready_input(config), "p", "A")


def test_a_cached_split_groups_the_new_amplitudes():
    # two analyzers of one term layout: the second splits its own amplitudes
    # by the first's cached record, and each group is what `project` gives
    detection._analyzer_layout.cache_clear()
    for p0 in (0.05, 0.2):
        prep = _analyzer(p0, t=0.3)
        ((_, groups),) = prep._split
        present = []
        for pattern in itertools.product(range(prep.state.registry.cutoff + 1), repeat=len(prep.layout.modes)):
            post, weight = fock.project(prep.state, dict(zip(prep.layout.modes, pattern)))
            if post is None:
                continue
            present.append(pattern)
            got_weight, rest = groups[pattern]
            assert got_weight.hex() == weight.hex()
            assert bits(rest) == bits(without_modes(post, prep.layout.modes))
        assert sorted(groups) == [occ for occ, _ in prep.distribution] == present
    assert detection._analyzer_layout.cache_info()[:2] == (1, 1)


def test_an_exact_sweep_checks_each_distinct_matrix_once():
    # the beam splitter and the pi phase plate of a PsiPlus correction are
    # the same matrices at every point
    fock._unitary_deviation.cache_clear()
    grid = np.linspace(0.002, 0.2, 24)
    protocols.event_ready_generation(_multipair_config(grid[0]))
    first = fock._unitary_deviation.cache_info()
    for p0 in grid[1:]:
        protocols.event_ready_generation(_multipair_config(p0))
    assert first.misses > 0
    assert fock._unitary_deviation.cache_info().misses == first.misses


def test_exact_event_ready_normalizes_only_the_groups_it_reads(monkeypatch):
    config = _multipair_config(0.2)
    prep = detection.PreparedBellAnalyzer(protocols._event_ready_input(config), "p", "A")
    clicks = [sum(1 << j for j, n in enumerate(occ) if n) for occ, _ in prep.distribution]
    heralds = sum(prep.outcomes[code] != detection.FAIL for code in clicks)
    normalized = []

    def counted(*args):
        normalized.append(args[1])
        return _normalized(*args)

    _normalized = fock._normalized
    monkeypatch.setattr(fock, "_normalized", counted)
    protocols.event_ready_generation(config)
    # one conditional per herald pattern; the weights of the others suffice
    assert len(normalized) == heralds < len(prep.distribution) / 2


def _weight(state):
    """The unnormalized weight a stage keeps: what is left plus what the cutoff cut."""
    return state.norm_sq() + state.truncation_loss


@settings(max_examples=60, deadline=None)
@given(pure_states(), pure_states(), hs.data())
def test_every_stage_keeps_the_weight_it_is_given(a, b, data):
    # with unnormalized weights, norm_sq() + truncation_loss is the same
    # before and after each stage, and the order cut passes through; a tensor
    # product's weight is the product of its factors', and its order cut that
    # of either factor's
    names = [m.name for m in MODES]
    pair = data.draw(hs.permutations(names))[:2]
    modes, max_total = data.draw(measured_modes), data.draw(hs.integers(0, 3))
    emitting = fock.tensor(a, fock.vacuum(_EMIT))
    stages = [
        (a, fock.apply_mode_unitary(a, pair, data.draw(_MATRICES.filter(lambda u: len(u) == 2)))),
        (a, fock.apply_phase(a, pair[0], data.draw(hs.floats(0.0, 2.0 * math.pi)))),
        (a, elements.attenuate_mode(a, pair[0], data.draw(hs.floats(0.0, 1.0)))),
        (a, a.with_registry(_OTHER)),
        (emitting, sources.raman_emit(emitting, "e", "x:R", data.draw(hs.floats(0.0, 0.2)), 1)),
    ]
    with suppress(ValidationError):  # every term over max_total
        stages.append((a, fock.truncate_total_occupation(a, modes, max_total)[0]))
    for before, after in stages:
        assert _weight(after) == pytest.approx(_weight(before), rel=1e-12, abs=1e-24)
        assert after.order_cut == before.order_cut
    joint = fock.tensor(a, b.with_registry(_OTHER))
    assert _weight(joint) == pytest.approx(_weight(a) * _weight(b), rel=1e-12, abs=1e-24)
    assert 1.0 - joint.order_cut == pytest.approx((1.0 - a.order_cut) * (1.0 - b.order_cut), rel=1e-15)


def test_relabeling_shares_the_amplitude_map():
    st = fock.PureState(fock.ModeRegistry(cutoff=2).add_photonic_path("a", basis="linear"), {(1, 0): 0.6, (0, 1): 0.8j})
    relabeled, _, _ = elements.pol_splitter(st, "a")
    assert relabeled.amplitudes is st.amplitudes
    assert [m.name for m in relabeled.registry.modes] == ["a1:H", "a2:V"]


def test_internal_results_hold_builtin_complex_amplitudes_above_eps():
    joint = protocols._event_ready_input(_multipair_config(0.2))
    st = elements.beam_splitter(joint, "p", "A")
    states = [st]
    for path in ("p", "A"):
        st, _, _ = elements.pol_splitter(st, path)
        states.append(st)
    modes = ["p1:H", "p2:V", "A1:H", "A2:V"]
    for measured in (modes, [m.name for m in st.registry.modes]):  # some modes left, and none
        states += [rest for _, rest in fock.split_by_occupation(st, measured).values()]
    for s in states:
        assert s.amplitudes
        for c in s.amplitudes.values():
            assert type(c) is complex and abs(c) >= fock.AMPLITUDE_EPS


# ---------------------------------------------------------------------------
# inner products and projection


def test_inner_product_compares_registries_only_when_distinct(monkeypatch):
    compared = []
    eq = fock.ModeRegistry.__eq__
    monkeypatch.setattr(fock.ModeRegistry, "__eq__", lambda self, other: compared.append(other) or eq(self, other))
    reg = two_path_registry()
    x, y = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.8}), fock.PureState(reg, {(1, 0): 1.0})
    assert fock.inner_product(x, y) == 0.6
    assert compared == []
    # an equal registry that is another object is compared, and accepted
    assert fock.inner_product(x, fock.PureState(two_path_registry(), {(0, 1): 1.0})) == 0.8
    assert len(compared) == 1
    with pytest.raises(RegistryError):
        fock.inner_product(x, fock.PureState(two_path_registry(cutoff=3), {(0, 1): 1.0}))


def test_conditionals_share_the_registries_of_their_layout_record():
    # the registries of the unmeasured modes and of the conditionals are
    # built once per layout record, so two points of one layout, and every
    # conditional of them, share them; without loss modes they are one
    for t in (None, 0.3):
        detection._analyzer_layout.cache_clear()
        first, second = _analyzer(0.05, t), _analyzer(0.2, t)
        assert detection._analyzer_layout.cache_info()[:2] == (1, 1)
        assert second.layout.conditional_registry is first.layout.conditional_registry
        rest = first._split[0][1].registry
        assert second._split[0][1].registry is rest
        for prep in (first, second):
            for occ, _ in prep.distribution:
                for _, st in prep.conditional(occ).branches:
                    assert st.registry is prep.layout.conditional_registry
        assert (first.layout.conditional_registry is rest) == (t is None)


def test_overlaps_flip_only_the_loss_branches_that_reach_the_target(monkeypatch):
    # a lossy conditional has a branch per loss occupation; the pi flip is
    # applied to the branches that share a term with the target, not to all
    prep = _analyzer(0.1, 0.3)
    target = protocols._target(prep.layout.conditional_registry)
    flips = []
    apply_phase = fock.apply_phase
    monkeypatch.setattr(fock, "apply_phase", lambda st, *args: flips.append(st) or apply_phase(st, *args))
    reached_total = branches_total = 0
    for occ, _ in prep.distribution:
        branches = prep.conditional(occ).branches
        reached = [st for _, st in branches if st.amplitudes.keys() & target.amplitudes.keys()]
        flips[:] = []
        terms = prep.overlaps(occ, target, protocols.EVENT_READY.flip_mode)
        assert len(flips) == len(terms) == len(reached)
        reached_total, branches_total = reached_total + len(reached), branches_total + (len(branches) if reached else 0)
    assert 0 < reached_total < branches_total


def test_conditioning_on_an_impossible_pattern_is_a_validation_error():
    # a pattern the distribution lacks has no group in the split; the analyzer
    # reports it as the generic conditioning does, with or without loss modes
    for t in (None, 0.3):
        prep = _analyzer(0.05, t)
        assert (prep.layout.conditional_registry is prep.layout.rest) == (t is None)
        seen = {occ for occ, _ in prep.distribution}
        absent = next(occ for occ in itertools.product(range(3), repeat=4) if occ not in seen)
        for pattern in (absent, (9, 9, 9, 9)):
            with pytest.raises(ValidationError, match=f"pattern {re.escape(str(pattern))} has zero probability"):
                prep.conditional(pattern)
            with pytest.raises(ValidationError, match="has zero probability"):
                detection._condition_on_pattern(prep._split, pattern)


def test_inner_product_is_sesquilinear():
    reg = two_path_registry()
    x = fock.PureState(reg, {(1, 0): 0.6, (0, 1): 0.8})
    y = fock.PureState(reg, {(1, 0): 1.0j})
    ip = fock.inner_product(x, y)
    np.testing.assert_allclose(ip, 0.6j)
    np.testing.assert_allclose(fock.inner_product(y, x), np.conj(ip))


def _inner_product_before(a, b):
    """`inner_product` as it was before it called itself on swapped factors."""
    if len(a.amplitudes) <= len(b.amplitudes):
        return sum((c.conjugate() * b.amplitudes[o] for o, c in a.amplitudes.items() if o in b.amplitudes), start=0j)
    return sum((a.amplitudes[o].conjugate() * c for o, c in b.amplitudes.items() if o in a.amplitudes), start=0j)


@given(pure_states(), pure_states())
def test_inner_product_matches_its_previous_body(a, b):
    # equal values; only the sign of a zero imaginary part may differ
    assert fock.inner_product(a, b) == _inner_product_before(a, b)


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


def test_reduced_density_matches_dense_partial_trace():
    # entangle two pairs of modes, keep one of each pair
    reg = fock.ModeRegistry(tuple(fock.atomic_mode(n) for n in "wxyz"), cutoff=3)
    amps = {(1, 0, 1, 0): 0.5, (0, 1, 0, 1): 0.5, (1, 0, 0, 1): 0.5, (1, 1, 1, 0): 0.5}
    st = fock.PureState(reg, amps)
    rho, basis = metrics.reduced_density(st, ["w", "y"])

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
    rho_a, basis_a = metrics.reduced_density(mixed, ["x", "y"])
    rho_b, basis_b = metrics.reduced_density(st, ["x", "y"])
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
            assert bits(rest) == bits(without_modes(post, modes))
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
            out.append((w * bw, fock.PureState(new_reg, {o: c * scale for o, c in amps.items()}, st.truncation_loss, st.order_cut)))
    total = sum(w for w, _ in out)
    return fock.MixedState([(w / total, s) for w, s in out])


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
