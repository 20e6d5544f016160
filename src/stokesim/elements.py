"""Linear-optics elements as mode transformations.

Each element is either a small mode unitary (half-wave plate, beam
splitter, attenuator dilated onto a loss mode) or a pure relabeling of
the mode registry (quarter-wave plate, polarization splitter).  The
relabeling trick keeps basis conversions amplitude-exact: a quarter-wave
plate turns the circular basis into the linear one, so the mode that held
left-circular light simply *becomes* the horizontal mode, with no phase
convention to track.

Sign conventions (they matter for heralded-state phases downstream):

* beam splitter: [[sqrt(1-r), sqrt(r)], [sqrt(r), -sqrt(1-r)]], the real
  Hadamard-like form with the minus sign on the second reflection;
* attenuator: [[sqrt(t), sqrt(1-t)], [sqrt(1-t), -sqrt(t)]] coupling the
  attenuated mode to a fresh loss mode.
"""

from __future__ import annotations

import math

from . import fock
from .errors import ValidationError
from .fock import PureState


def _require_pols(state: PureState, path: str, pols: tuple[str, str], element: str) -> None:
    have = state.registry.path_pols(path)
    if have != set(pols):
        raise ValidationError(
            f"{element} needs path {path!r} in the {'/'.join(pols)} basis, found {sorted(have) or 'no modes'}"
        )


def half_wave(state: PureState, path: str) -> PureState:
    """Half-wave plate: swap the R and L amplitudes of a path."""
    _require_pols(state, path, fock.CIRCULAR_POLS, "half_wave")
    swap = ((0.0, 1.0), (1.0, 0.0))
    modes = [state.registry.path_mode(path, "R"), state.registry.path_mode(path, "L")]
    return fock.apply_mode_unitary(state, modes, swap)


def quarter_wave(state: PureState, path: str) -> PureState:
    """Quarter-wave plate: convert a path from circular to linear basis.

    Modeled as the relabeling L -> H, R -> V, which fixes the element's
    free phase convention to the identity.
    """
    _require_pols(state, path, fock.CIRCULAR_POLS, "quarter_wave")
    reg = state.registry.replace(
        {
            state.registry.path_mode(path, "L"): fock.photonic_mode(path, "H"),
            state.registry.path_mode(path, "R"): fock.photonic_mode(path, "V"),
        }
    )
    return state.with_registry(reg)


def attenuate_mode(state: PureState, mode, t: float) -> PureState:
    """Couple any single mode to a fresh loss mode with transmissivity t."""
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"transmissivity t={t} outside [0, 1]")
    if t == 1.0:
        return state
    reg, sink = state.registry.add_loss()
    target = reg.mode(mode)
    grown = PureState._wrap(reg, {occ + (0,): c for occ, c in state.amplitudes.items()}, state.truncation_loss)
    u = ((math.sqrt(t), math.sqrt(1.0 - t)), (math.sqrt(1.0 - t), -math.sqrt(t)))
    return fock.apply_mode_unitary(grown, [target, sink], u)


def beam_splitter(state: PureState, path_a: str, path_b: str, r: float = 0.5) -> PureState:
    """Two-path beam splitter applied independently per polarization."""
    if not 0.0 <= r <= 1.0:
        raise ValidationError(f"reflectivity r={r} outside [0, 1]")
    pols_a = state.registry.path_pols(path_a)
    pols_b = state.registry.path_pols(path_b)
    if not pols_a or pols_a != pols_b:
        raise ValidationError(
            f"beam_splitter needs paths {path_a!r} and {path_b!r} in one polarization basis, "
            f"found {sorted(pols_a)} vs {sorted(pols_b)}"
        )
    u = ((math.sqrt(1.0 - r), math.sqrt(r)), (math.sqrt(r), -math.sqrt(1.0 - r)))
    out = state
    for pol in sorted(pols_a):
        out = fock.apply_mode_unitary(
            out, [out.registry.path_mode(path_a, pol), out.registry.path_mode(path_b, pol)], u
        )
    return out


def pol_splitter(state: PureState, path: str) -> tuple[PureState, str, str]:
    """Polarization splitter: route H to output path `<path>1`, V to
    `<path>2` (a relabeling; each output carries one linear mode).

    Returns the state plus the two output path names.
    """
    _require_pols(state, path, fock.LINEAR_POLS, "pol_splitter")
    out_h, out_v = f"{path}1", f"{path}2"
    reg = state.registry.replace(
        {
            state.registry.path_mode(path, "H"): fock.photonic_mode(out_h, "H"),
            state.registry.path_mode(path, "V"): fock.photonic_mode(out_v, "V"),
        }
    )
    return state.with_registry(reg), out_h, out_v
