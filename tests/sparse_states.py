"""Hypothesis strategies for small random sparse states, and an exact
view of a state for checking two computations of it bit for bit."""

import cmath
import itertools
import math

from hypothesis import strategies as hs

from stokesim import fock

MODES = (fock.atomic_mode("s0"), fock.atomic_mode("s1"), fock.photonic_mode("p", "H"), fock.loss_mode("loss0"))
REGISTRY = fock.ModeRegistry(MODES, cutoff=3)
OCCUPATIONS = [occ for occ in itertools.product(range(4), repeat=len(MODES)) if sum(occ) <= REGISTRY.cutoff]

# magnitudes around AMPLITUDE_EPS: dropped on construction, or kept and
# dropped again when a group of weight above 1 is normalized
_MAGNITUDES = hs.sampled_from([0.0, 0.5e-14, 1.0e-14, 1.5e-14, 3e-14]) | hs.floats(1e-4, 3.0)


@hs.composite
def pure_states(draw):
    terms = draw(
        hs.dictionaries(
            hs.sampled_from(OCCUPATIONS),
            hs.tuples(_MAGNITUDES, hs.floats(0.0, 2.0 * math.pi)),
            min_size=1,
            max_size=12,
        )
    )
    amps = {occ: r * cmath.exp(1j * phase) for occ, (r, phase) in terms.items()}
    st = fock.PureState(REGISTRY, amps, draw(hs.floats(0.0, 1e-3)))
    # zero-weight terms, which the constructor drops, stored directly
    for occ in draw(hs.lists(hs.sampled_from(OCCUPATIONS), max_size=2)):
        st.amplitudes.setdefault(occ, 0j)
    return st


@hs.composite
def mixed_states(draw):
    branches = draw(hs.lists(hs.tuples(hs.floats(0.05, 1.0), pure_states()), min_size=1, max_size=3))
    return fock.MixedState(branches)


#: a non-empty subset of the modes, in random order, by name
measured_modes = hs.lists(hs.sampled_from([m.name for m in MODES]), min_size=1, max_size=len(MODES), unique=True)


def patterns(k: int) -> list[tuple[int, ...]]:
    """Every occupation pattern of k modes within the cutoff, most of
    them absent from any one state."""
    return [p for p in itertools.product(range(REGISTRY.cutoff + 1), repeat=k) if sum(p) <= REGISTRY.cutoff]


def without_modes(state, modes):
    """`state` with `modes` dropped from its registry and every term, built
    by the public constructor; those modes must hold one occupation across
    the terms, as they do after a projection."""
    reg = state.registry
    idx = sorted(reg.index(m) for m in modes)
    assert len({tuple(occ[i] for i in idx) for occ in state.amplitudes}) <= 1
    keep = [i for i in range(len(reg)) if i not in idx]
    rest = fock.ModeRegistry(tuple(reg.modes[i] for i in keep), reg.cutoff)
    return fock.PureState(rest, {tuple(occ[i] for i in keep): c for occ, c in state.amplitudes.items()}, state.truncation_loss)


def bits(state):
    """Registry, weights, term order and the exact bits of every number."""
    if isinstance(state, fock.MixedState):
        return [(w.hex(), bits(st)) for w, st in state.branches]
    terms = [(occ, c.real.hex(), c.imag.hex()) for occ, c in state.amplitudes.items()]
    return state.registry, state.truncation_loss.hex(), terms


def outcome(fn, *args):
    """`bits` of fn(*args), or the error it raised."""
    try:
        return bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
