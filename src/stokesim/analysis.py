"""Post-selected generation and the Bell decomposition: the dense
analysis of the source state, which only the `generate` command and
library callers run.  It needs numpy (through `metrics`); `protocols`
and the package still resolve both names (PEP 562 `__getattr__`).
"""

from __future__ import annotations

import math

from . import fock, metrics, sources
from .errors import ValidationError
from .fock import MixedState, PureState
from .protocols import SQRT_HALF, ProtocolConfig


def generate_entanglement(config: ProtocolConfig) -> tuple[MixedState, dict]:
    """Source output as the emission-sector mixture.

    Without a phase reference between pump pulses the coherence between
    emission sectors is unobservable, so the physical state is the
    classical mixture of the vacuum branch and the entangled
    one-emission branch (weights 1/(1+p0) and p0/(1+p0) at first order).
    """
    src = sources.dual_ensemble_source(config.source, config.cutoff)
    branches: list[tuple[float, PureState]] = []
    weights: list[float] = []
    for k in range(config.source.emission_order + 1):
        sector, w = fock.restrict_total_occupation(src, ["S1", "S2"], k)
        if sector is not None and w > 0.0:
            branches.append((w, sector))
            weights.append(w)
    mixed = MixedState(branches)

    system = [m.name for m in mixed.registry.modes if m.kind != fock.LOSS]
    rho, _ = metrics.reduced_density(mixed, system)
    report = {
        "protocol": "generate",
        "p0": config.source.p0,
        "emission_order": config.source.emission_order,
        "branch_weights": weights,
        "purity": metrics.purity(rho),
        "truncation_loss": src.truncation_loss,
    }
    if len(branches) > 1:
        excited = branches[1][1]
        lossy = [m.name for m in mixed.registry.modes if m.kind == fock.LOSS]
        if lossy:
            # an active attenuator adds a photon-lost branch: condition on the photon reaching p
            excited = fock.project(excited, dict.fromkeys(lossy, 0))[0]
        pair = metrics.two_qubit_density(excited, metrics.excitation_qubit("S1", "S2"), metrics.pol_qubit("p"))
        report["excited_branch_concurrence"] = metrics.concurrence(pair)
        report["excited_branch_entropy"] = metrics.entropy(excited, ["S1", "S2"])
    return mixed, report


_BELL_TABLE = {
    "phi_plus": {(0, 0): SQRT_HALF, (1, 1): SQRT_HALF},
    "phi_minus": {(0, 0): SQRT_HALF, (1, 1): -SQRT_HALF},
    "psi_plus": {(0, 1): SQRT_HALF, (1, 0): SQRT_HALF},
    "psi_minus": {(0, 1): SQRT_HALF, (1, 0): -SQRT_HALF},
}


def bell_decompose(
    state: PureState, enc_a: metrics.QubitEncoding, enc_b: metrics.QubitEncoding
) -> dict[str, float]:
    """Branch norms of the four Bell components on an encoded qubit pair.

    The complex phase of each component is absorbed into its residual
    factor on the remaining modes, so values are reported as magnitudes;
    their squares sum to the state's norm.
    """
    reg = state.registry
    idx_a = [reg.index(m) for m in enc_a.modes]
    idx_b = [reg.index(m) for m in enc_b.modes]
    rest_idx = [i for i in range(len(reg)) if i not in idx_a and i not in idx_b]

    def bit_of(occ, idx, enc):
        sub = tuple(occ[i] for i in idx)
        if sub == enc.zero:
            return 0
        if sub == enc.one:
            return 1
        raise ValidationError(f"state leaves the qubit sector on modes {enc.modes}: pattern {sub}")

    branches: dict[str, dict[tuple[int, ...], complex]] = {name: {} for name in _BELL_TABLE}
    for occ, c in state.amplitudes.items():
        ba = bit_of(occ, idx_a, enc_a)
        bb = bit_of(occ, idx_b, enc_b)
        rest = tuple(occ[i] for i in rest_idx)
        for name, table in _BELL_TABLE.items():
            amp = table.get((ba, bb))
            if amp is not None:
                acc = branches[name]
                acc[rest] = acc.get(rest, 0.0) + amp * c
    return {
        name: math.sqrt(sum(abs(v) ** 2 for v in acc.values()))
        for name, acc in branches.items()
    }
