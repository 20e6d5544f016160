"""Probabilistic excitation sources.

The workhorse is the weak off-resonant Raman emission from an atomic
ensemble: pumping writes a two-mode-squeezed ladder onto (collective
excitation, forward Stokes photon), amplitude p^(n/2) on |n, n>, truncated
at a configurable order.  Two such emissions, one into each linear mode (H
and V) of one forward path, give the photon/ensemble entangled source; an
ideal polarization-entangled photon pair provides the ancilla used by the
event-ready scheme.

Branch amplitudes alpha : beta are compiled into pump strengths and an
attenuator setting so that, relative to the vacuum component, the
surviving single-emission amplitudes are exactly alpha sqrt(p0) and
beta sqrt(p0):

* |alpha| <= |beta|: both ensembles pumped at |beta|^2 p0, first-ensemble
  light attenuated with t = |alpha/beta|^2;
* |alpha| > |beta|: pump strengths |alpha|^2 p0 and |beta|^2 p0 directly,
  no attenuation (attenuating the first ensemble can only reduce alpha).

Relative phase arg(beta/alpha) is applied as a phase plate on the second
branch's mode, V.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from . import elements, fock
from .errors import ValidationError
from .fock import ModeRegistry, PureState, Record

SQRT_HALF = math.sqrt(0.5)


class SourceParams(Record):
    """Emission parameters for the entangled photon/ensemble source."""

    p0: float = 0.01
    emission_order: int = 1
    alpha: complex = SQRT_HALF
    beta: complex = SQRT_HALF
    #: explicit attenuator setting; overrides alpha/beta when given and
    #: keeps both pumps at p0 (the raw experimental knob)
    t: float | None = None

    _ranges = {
        "p0": (0.0, 0.2, "[0, 0.2]"),
        "emission_order": (1, math.inf, "[1, inf)"),
        "t": (0.0, 1.0, "[0, 1]"),
    }

    def _validate(self):
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise ValidationError(f"alpha={self.alpha} and beta={self.beta} must be finite")
        if self.t is None:
            norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
            if abs(norm - 1.0) > 1e-12:
                raise ValidationError(f"|alpha|^2 + |beta|^2 = {norm}, expected 1")

    def branch_amplitudes(self) -> tuple[complex, complex]:
        """The (alpha, beta) actually realized, including an explicit t."""
        if self.t is None:
            return complex(self.alpha), complex(self.beta)
        norm = math.sqrt(1.0 + self.t)
        return math.sqrt(self.t) / norm, 1.0 / norm


def raman_emit(state: PureState, ensemble, stokes, p0: float, order: int) -> PureState:
    """Write one pump pulse's emission ladder onto an (ensemble, photon)
    mode pair: amplitude p0^(n/2) on |n excitations, n photons> for
    n = 0..order, normalized.

    Both target modes must be empty in the input state.
    """
    SourceParams(p0=p0, emission_order=order)  # checks both against the source's ranges
    reg = state.registry
    ie, ip = reg.index(ensemble), reg.index(stokes)
    if 2 * order > reg.cutoff:
        raise ValidationError(f"emission order {order} needs cutoff >= {2 * order}")
    if any(occ[ie] or occ[ip] for occ in state.amplitudes):
        raise ValidationError("raman_emit target modes must start empty")

    ladder = [p0 ** (n / 2.0) for n in range(order + 1)]
    norm = math.sqrt(sum(a * a for a in ladder))
    amps: dict[tuple[int, ...], complex] = {}
    lost = 0.0
    for occ, c in state.amplitudes.items():
        room = reg.cutoff - sum(occ)
        for n, a in enumerate(ladder):
            if 2 * n > room:
                lost += abs(c * a / norm) ** 2
                continue
            new = list(occ)
            new[ie] = n
            new[ip] = n
            if abs(v := c * a / norm) >= fock.AMPLITUDE_EPS:
                amps[tuple(new)] = v
    return state._derive(reg, amps, lost)


@lru_cache(maxsize=8)
def _source_registry(cutoff: int) -> ModeRegistry:
    # V before H: V holds the place of the R mode and H that of the L mode that wave
    # plates once converted, so the term keys, their order and the amplitude bits stay as they were
    return ModeRegistry((fock.atomic_mode("S1"), fock.atomic_mode("S2"), fock.photonic_mode("p", "V"), fock.photonic_mode("p", "H")), cutoff)


def dual_ensemble_source(params: SourceParams, cutoff: int = fock.DEFAULT_CUTOFF) -> PureState:
    """Entangle one forward photon's polarization with which-ensemble
    excitation.

    Pipeline: pump ensemble 1 into the forward path's H mode, attenuator
    on H, pump ensemble 2 into its V mode, phase plate on V.  The photon
    is written straight into the modes it is measured in, the linear
    ones, so no wave plate converts it.  The result is truncated to
    at most `emission_order` emission pairs in total and renormalized, so
    at order 1 the state is exactly

        (|00> + sqrt(p0) (alpha |S1>|H> + beta |S2>|V>)) / sqrt(1 + p0)

    whenever no attenuation is needed (|alpha| >= |beta|, or an explicit
    t = 1).  An active attenuator adds a photon-lost branch of relative
    weight (|beta|^2 - |alpha|^2) p0; conditioned on the photon
    surviving, the emission sector is still exactly
    alpha |S1>|H> + beta |S2>|V>.

    Without an explicit t, |alpha| < 1e-15 counts as alpha = 0: the first
    ensemble is not pumped, and no attenuator acts.  From 1e-15 up to
    |beta|, both ensembles are pumped at |beta|^2 p0 and the first one's
    light is attenuated, so the rule jumps at 1e-15: a tiny alpha leaves
    a photon-lost branch of weight about |beta|^2 p0 that alpha = 0 lacks.

    The renormalization conditions the state on the emission-order cut.
    Every term dropped on the way carries more than `emission_order` pairs
    (a kept term has at most 2 * order <= cutoff excitations, so the
    cutoff never cuts one), so the whole weight dropped, which the
    unnormalized stages kept as norm_sq() + truncation_loss == 1, is the
    cut's probability: the result holds it as `order_cut`, with
    `truncation_loss` 0.
    """
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

    st = fock.vacuum(_source_registry(cutoff))
    order = params.emission_order
    if p1 > 0:
        st = raman_emit(st, "S1", "p:H", p1, order)
    st = elements.attenuate_mode(st, "p:H", t)
    if p2 > 0:
        st = raman_emit(st, "S2", "p:V", p2, order)
    # branch amplitudes come out real; the physical relative phase
    # arg(beta) - arg(alpha) rides on the second ensemble's photon, in V,
    # so the single-emission sector equals alpha |S1 H> + beta |S2 V> up
    # to one global phase
    rel = cmath.phase(beta) - cmath.phase(alpha) if (alpha and beta) else 0.0
    if rel:
        st = fock.apply_phase(st, "p:V", rel)

    st, _ = fock.truncate_total_occupation(st, ["S1", "S2"], order)
    return PureState._wrap(st.registry, st.normalize().amplitudes, 0.0, None, st.truncation_loss)


def epr_pair(path_a: str = "A", path_b: str = "B", cutoff: int = fock.DEFAULT_CUTOFF) -> PureState:
    """Polarization-entangled ancilla pair (|HH> + |VV>)/sqrt(2)."""
    reg = ModeRegistry(cutoff=cutoff).add_photonic_path(path_a, basis="linear")
    reg = reg.add_photonic_path(path_b, basis="linear")
    hh = fock.basis_state(reg, {f"{path_a}:H": 1, f"{path_b}:H": 1})
    vv = fock.basis_state(reg, {f"{path_a}:V": 1, f"{path_b}:V": 1})
    return PureState._wrap(reg, {occ: complex(SQRT_HALF) for occ in (*hh.amplitudes, *vv.amplitudes)}, 0.0)
