"""Source tests.

The emission ladder is checked two ways: frozen amplitude ratios, and a
dense two-mode-squeezing oracle built from matrix exponentials.
"""

import cmath
import math

import numpy as np
import pytest

import dense_oracle as oracle
from stokesim import elements, fock, metrics, sources
from stokesim.errors import ValidationError
from stokesim.sources import SourceParams

SQRT_HALF = 0.7071067811865476
SQRT3_HALF = 0.8660254037844386

# 1/sqrt(1.01) and 0.1/sqrt(1.01): order-1 ladder at p0 = 0.01
LADDER0 = 0.9950371902099892
LADDER1 = 0.09950371902099892


def pair_registry(cutoff=6):
    reg = fock.ModeRegistry(cutoff=cutoff).add_atomic("S")
    return reg.add_photonic_path("p", basis="circular")


# ---------------------------------------------------------------------------
# single-pulse emission ladder


def test_ladder_order_one_amplitudes():
    st = sources.raman_emit(fock.vacuum(pair_registry()), "S", "p:R", 0.01, 1)
    np.testing.assert_allclose(st.amplitude({}), LADDER0, atol=1e-15)
    np.testing.assert_allclose(st.amplitude({"S": 1, "p:R": 1}), LADDER1, atol=1e-15)
    np.testing.assert_allclose(st.norm_sq(), 1.0, atol=1e-14)


def test_ladder_order_two_ratios():
    st = sources.raman_emit(fock.vacuum(pair_registry()), "S", "p:R", 0.01, 2)
    a0 = st.amplitude({})
    np.testing.assert_allclose(st.amplitude({"S": 1, "p:R": 1}) / a0, 0.1, atol=1e-15)
    np.testing.assert_allclose(st.amplitude({"S": 2, "p:R": 2}) / a0, 0.01, atol=1e-15)
    np.testing.assert_allclose(st.norm_sq(), 1.0, atol=1e-14)


def test_ladder_photon_number_is_correlated():
    st = sources.raman_emit(fock.vacuum(pair_registry()), "S", "p:R", 0.04, 3)
    for occ in st.amplitudes:
        assert occ[st.registry.index("S")] == occ[st.registry.index("p:R")]


def test_ladder_matches_squeezing_oracle():
    # the two-mode-squeezed vector truncated at n <= order and
    # renormalized must reproduce the ladder exactly; the oracle basis is
    # kept deep (24 quanta) so its own exponential truncation error sits
    # far below the tolerance
    p0, order = 0.04, 3
    st = sources.raman_emit(fock.vacuum(pair_registry(cutoff=6)), "S", "p:R", p0, order)
    basis2 = oracle.fock_basis(2, 24)
    vec = oracle.two_mode_squeezed_vector(basis2, p0)
    kept = np.array([vec[i] if basis2[i][0] <= order else 0.0 for i in range(len(basis2))])
    kept = kept / np.linalg.norm(kept)
    for n in range(order + 1):
        np.testing.assert_allclose(
            st.amplitude({"S": n, "p:R": n}), kept[basis2.index((n, n))], atol=1e-12
        )


def test_ladder_requires_empty_targets_and_room():
    st = sources.raman_emit(fock.vacuum(pair_registry()), "S", "p:R", 0.01, 1)
    with pytest.raises(ValidationError):
        sources.raman_emit(st, "S", "p:R", 0.01, 1)
    with pytest.raises(ValidationError):
        sources.raman_emit(fock.vacuum(pair_registry(cutoff=2)), "S", "p:R", 0.01, 2)


def test_ladder_truncation_accounting():
    reg = fock.ModeRegistry(cutoff=2).add_atomic("S").add_atomic("X")
    reg = reg.add_photonic_path("p", basis="circular")
    st = sources.raman_emit(fock.basis_state(reg, {"X": 1}), "S", "p:R", 0.01, 1)
    # the n = 1 term needs two quanta of room but only one is left
    np.testing.assert_allclose(st.truncation_loss, LADDER1**2, atol=1e-15)
    np.testing.assert_allclose(st.norm_sq() + st.truncation_loss, 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValidationError):
        SourceParams(p0=0.5)
    with pytest.raises(ValidationError):
        SourceParams(emission_order=0)
    with pytest.raises(ValidationError):
        SourceParams(alpha=1.0, beta=1.0)
    with pytest.raises(ValidationError):
        SourceParams(t=1.5)
    # non-finite amplitudes are rejected even when t overrides them
    with pytest.raises(ValidationError, match="finite"):
        SourceParams(alpha=float("nan"))
    with pytest.raises(ValidationError, match="finite"):
        SourceParams(alpha=complex("nan"), t=0.5)


def test_explicit_attenuation_overrides_branch_amplitudes():
    a, b = SourceParams(t=1.0 / 3.0).branch_amplitudes()
    np.testing.assert_allclose(a, 0.5, atol=1e-15)
    np.testing.assert_allclose(b, SQRT3_HALF, atol=1e-15)
    a, b = SourceParams(alpha=0.6, beta=0.8).branch_amplitudes()
    assert (a, b) == (0.6, 0.8)


# ---------------------------------------------------------------------------
# dual-ensemble source


def single_emission_sector(state):
    sector, weight = fock.restrict_total_occupation(state, ["S1", "S2"], 1)
    return sector, weight


def test_dual_source_symmetric_weights_and_sector():
    st = sources.dual_ensemble_source(SourceParams(p0=0.01))
    np.testing.assert_allclose(st.norm_sq(), 1.0, atol=1e-12)
    vac, w0 = fock.restrict_total_occupation(st, ["S1", "S2"], 0)
    sector, w1 = single_emission_sector(st)
    np.testing.assert_allclose(w0, 0.9900990099009901, atol=1e-12)
    np.testing.assert_allclose(w1, 0.009900990099009908, atol=1e-12)
    assert set(vac.amplitudes) == {(0,) * len(vac.registry)}
    a1 = sector.amplitude({"S1": 1, "p:H": 1})
    a2 = sector.amplitude({"S2": 1, "p:V": 1})
    np.testing.assert_allclose(abs(a1), SQRT_HALF, atol=1e-12)
    np.testing.assert_allclose(a2 / a1, 1.0, atol=1e-12)


def test_dual_source_uneven_split_attenuated_branch():
    # alpha < beta: realized by equal pumps plus an attenuator, which
    # leaves the exact amplitudes alpha sqrt(p0), beta sqrt(p0) relative
    # to the vacuum plus a photon-lost branch of weight
    # (beta^2 - alpha^2) p0
    alpha, beta = math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)
    p0 = 0.02
    st = sources.dual_ensemble_source(SourceParams(p0=p0, alpha=alpha, beta=beta))
    a_vac = st.amplitude({})
    np.testing.assert_allclose(
        abs(st.amplitude({"S1": 1, "p:H": 1}) / a_vac), alpha * math.sqrt(p0), atol=1e-12
    )
    np.testing.assert_allclose(
        abs(st.amplitude({"S2": 1, "p:V": 1}) / a_vac), beta * math.sqrt(p0), atol=1e-12
    )
    np.testing.assert_allclose(
        abs(st.amplitude({"S1": 1, "loss0": 1}) / a_vac) ** 2,
        (beta**2 - alpha**2) * p0,
        atol=1e-12,
    )
    # conditioned on the photon surviving, the branch split is exact
    surviving, _ = fock.project(st, {"loss0": 0})
    sector, _ = fock.restrict_total_occupation(surviving, ["S1", "S2"], 1)
    np.testing.assert_allclose(abs(sector.amplitude({"S1": 1, "p:H": 1})), alpha, atol=1e-12)
    np.testing.assert_allclose(abs(sector.amplitude({"S2": 1, "p:V": 1})), beta, atol=1e-12)


def test_dual_source_uneven_split_pump_imbalance():
    # alpha > beta: realized by unequal pumps, no attenuation
    alpha, beta = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)
    st = sources.dual_ensemble_source(SourceParams(p0=0.02, alpha=alpha, beta=beta))
    assert not any(m.kind == fock.LOSS for m in st.registry.modes)
    sector, _ = single_emission_sector(st)
    np.testing.assert_allclose(abs(sector.amplitude({"S1": 1, "p:H": 1})), alpha, atol=1e-12)
    np.testing.assert_allclose(abs(sector.amplitude({"S2": 1, "p:V": 1})), beta, atol=1e-12)


def test_dual_source_single_emission_weight_is_p0():
    # the alpha:beta compilation keeps the surviving emission weight,
    # relative to the vacuum component, at exactly p0 for every split
    for alpha2 in (0.2, 0.5, 0.8):
        params = SourceParams(p0=0.01, alpha=math.sqrt(alpha2), beta=math.sqrt(1 - alpha2))
        st = sources.dual_ensemble_source(params)
        a_vac = st.amplitude({})
        w = (
            abs(st.amplitude({"S1": 1, "p:H": 1})) ** 2
            + abs(st.amplitude({"S2": 1, "p:V": 1})) ** 2
        ) / abs(a_vac) ** 2
        np.testing.assert_allclose(w, 0.01, atol=1e-12)


def test_dual_source_relative_phase():
    beta = cmath_exp = complex(math.cos(0.7), math.sin(0.7)) * SQRT_HALF
    st = sources.dual_ensemble_source(SourceParams(p0=0.01, alpha=SQRT_HALF, beta=beta))
    sector, _ = single_emission_sector(st)
    ratio = sector.amplitude({"S2": 1, "p:V": 1}) / sector.amplitude({"S1": 1, "p:H": 1})
    np.testing.assert_allclose(ratio, cmath_exp / SQRT_HALF, atol=1e-12)


@pytest.mark.parametrize(
    "params, cutoff",
    [(SourceParams(p0=0.01), 6), (SourceParams(p0=0.2, emission_order=2), 4), (SourceParams(p0=0.2, emission_order=3, t=0.3), 6)],
)
def test_the_source_is_conditioned_on_its_emission_order_cut(params, cutoff):
    # every weight the source drops carries more pairs than the order, the
    # cutoff's drops included (cutoff 4 and 6 cut some at orders 2 and 3), so
    # it all goes to the order cut: with unnormalized weights, the kept weight
    # plus the cut is 1, and the conditioned state has norm 1 and no cutoff loss
    st = sources.dual_ensemble_source(params, cutoff)
    assert st.norm_sq() + st.truncation_loss == pytest.approx(1.0, abs=1e-15)
    assert st.truncation_loss == 0.0
    order, p = params.emission_order, params.p0 if params.t is not None else params.p0 / 2.0
    rungs = [p**n for n in range(order + 1)]
    cut = sum(x * y for n, x in enumerate(rungs) for m, y in enumerate(rungs) if n + m > order) / sum(rungs) ** 2
    assert st.order_cut == pytest.approx(cut, rel=1e-13)
    if params == SourceParams(p0=0.01):
        assert st.order_cut == 2.4751862577658986e-05


def test_dual_source_extreme_splits():
    st = sources.dual_ensemble_source(SourceParams(p0=0.01, alpha=0.0, beta=1.0))
    sector, _ = single_emission_sector(st)
    np.testing.assert_allclose(abs(sector.amplitude({"S2": 1, "p:V": 1})), 1.0, atol=1e-12)
    st = sources.dual_ensemble_source(SourceParams(p0=0.01, alpha=1.0, beta=0.0))
    sector, _ = single_emission_sector(st)
    np.testing.assert_allclose(abs(sector.amplitude({"S1": 1, "p:H": 1})), 1.0, atol=1e-12)


def test_dual_source_order_two_ladder_products():
    # symmetric pumps, t = 1: the (n1, n2) amplitude is the product ladder
    # (p0/2)^((n1+n2)/2) with photons sorted into H^n1 V^n2
    p0 = 0.04
    st = sources.dual_ensemble_source(SourceParams(p0=p0, emission_order=2))
    a0 = st.amplitude({})
    root = math.sqrt(p0 / 2.0)
    for n1, n2 in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        occ = {"S1": n1, "S2": n2, "p:H": n1, "p:V": n2}
        np.testing.assert_allclose(st.amplitude(occ) / a0, root ** (n1 + n2), atol=1e-12)
    total = sum(root ** (2 * (n1 + n2)) for n1 in range(3) for n2 in range(3) if n1 + n2 <= 2)
    np.testing.assert_allclose(abs(a0) ** 2 * total, 1.0, atol=1e-12)


def test_dual_source_explicit_attenuator_knob():
    # t = 1/3 with both pumps at p0: conditioned on the photon arriving,
    # the split is 1/2 : sqrt(3)/2
    st = sources.dual_ensemble_source(SourceParams(p0=0.01, t=1.0 / 3.0))
    surviving, _ = fock.project(st, {"loss0": 0})
    sector, _ = fock.restrict_total_occupation(surviving, ["S1", "S2"], 1)
    np.testing.assert_allclose(abs(sector.amplitude({"S1": 1, "p:H": 1})), 0.5, atol=1e-12)
    np.testing.assert_allclose(abs(sector.amplitude({"S2": 1, "p:V": 1})), SQRT3_HALF, atol=1e-12)


def _wave_plate_source(params, cutoff):
    """The source built in circular modes, as it once was: ensemble 1 emits
    into R, a half-wave plate swaps R and L, L is attenuated, ensemble 2
    emits into R and takes the relative phase there, and a quarter-wave
    plate relabels L as H and R as V."""
    alpha, beta = params.branch_amplitudes()
    if params.t is not None:
        p1 = p2 = params.p0
        t = params.t
    elif abs(alpha) < 1e-15:
        p1, t = 0.0, 1.0
        p2 = abs(beta) ** 2 * params.p0
    elif abs(alpha) <= abs(beta):
        p1 = p2 = abs(beta) ** 2 * params.p0
        t = (abs(alpha) / abs(beta)) ** 2
    else:
        p1 = abs(alpha) ** 2 * params.p0
        p2 = abs(beta) ** 2 * params.p0
        t = 1.0
    reg = fock.ModeRegistry(cutoff=cutoff).add_atomic("S1").add_atomic("S2").add_photonic_path("p", basis="circular")
    st = fock.vacuum(reg)
    order = params.emission_order
    if p1 > 0:
        st = sources.raman_emit(st, "S1", "p:R", p1, order)
    st = fock.apply_mode_unitary(st, ["p:R", "p:L"], ((0, 1), (1, 0)))
    st = elements.attenuate_mode(st, "p:L", t)
    if p2 > 0:
        st = sources.raman_emit(st, "S2", "p:R", p2, order)
    rel = cmath.phase(beta) - cmath.phase(alpha) if (alpha and beta) else 0.0
    if rel:
        st = fock.apply_phase(st, "p:R", rel)
    reg = st.registry
    st = st.with_registry(reg.replace({reg.mode("p:L"): fock.photonic_mode("p", "H"), reg.mode("p:R"): fock.photonic_mode("p", "V")}))
    st, _ = fock.truncate_total_occupation(st, ["S1", "S2"], order)
    return fock.PureState._wrap(st.registry, st.normalize().amplitudes, 0.0, None, st.truncation_loss)


def _source_bits(st):
    """A source's registry, its keys in stored order, the bits of each
    amplitude (the sign of a zero included) and both counters."""
    return (
        st.registry,
        [(occ, c.real.hex(), c.imag.hex()) for occ, c in st.amplitudes.items()],
        st.truncation_loss.hex(),
        st.order_cut.hex(),
    )


#: alpha : beta pairs: equal, either one zero, tiny alphas on both sides of
#: the 1e-15 rule, uneven splits both ways, and complex and negative values
SPLITS = [
    (SQRT_HALF, SQRT_HALF),
    (0.0, 1.0),
    (1.0, 0.0),
    (1e-16, 1.0),
    (2e-15, 1.0),
    (0.6, 0.8),
    (0.8, 0.6j),
    (0.6, 0.8 * cmath.exp(0.7j)),
    (-0.6, 0.8),
    (0.8j, -0.6),
]


def test_the_source_is_the_wave_plate_pipeline_bit_for_bit():
    # writing the photon straight into H and V, in the places R and L held,
    # gives the same registry, key order, amplitude bits and counters
    count = 0
    for p0 in (0.0, 1e-6, 0.01, 0.1, 0.2):
        for order in (1, 2, 3):
            for cutoff in (6, 8):
                for alpha, beta in SPLITS:
                    for t in (None, 0.0, 0.3, 1.0):
                        params = SourceParams(p0=p0, emission_order=order, alpha=alpha, beta=beta, t=t)
                        got = sources.dual_ensemble_source(params, cutoff)
                        assert _source_bits(got) == _source_bits(_wave_plate_source(params, cutoff)), params
                        count += 1
    assert count == 1200


# ---------------------------------------------------------------------------
# photon-pair ancilla


def test_epr_pair_is_maximally_entangled():
    pair = sources.epr_pair()
    np.testing.assert_allclose(pair.amplitude({"A:H": 1, "B:H": 1}), SQRT_HALF)
    np.testing.assert_allclose(pair.amplitude({"A:V": 1, "B:V": 1}), SQRT_HALF)
    rho = metrics.two_qubit_density(pair, metrics.pol_qubit("A"), metrics.pol_qubit("B"))
    np.testing.assert_allclose(metrics.concurrence(rho), 1.0, atol=1e-12)

