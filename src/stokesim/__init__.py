"""Exact and Monte Carlo Fock-space simulation of heralded entanglement
between a single photon's polarization and two collective atomic modes,
plus the teleportation-based photon memory built on it."""

__version__ = "0.1.0"

from .detection import (  # noqa: F401
    FAIL,
    PSI_MINUS,
    PSI_PLUS,
    ClickPattern,
    DetectorSpec,
    HeraldRule,
    PreparedBellAnalyzer,
    default_herald_rule,
    exact_outcome_distribution,
)
from .elements import (  # noqa: F401
    attenuate_mode,
    beam_splitter,
    pol_splitter,
)
from .errors import ConfigError, RegistryError, StokesimError, ValidationError  # noqa: F401
from .fock import (  # noqa: F401
    MixedState,
    ModeId,
    ModeRegistry,
    PureState,
    apply_mode_unitary,
    atomic_mode,
    basis_state,
    inner_product,
    photonic_mode,
    project,
    state_fidelity,
    tensor,
    trace_out,
    vacuum,
)
from .protocols import (  # noqa: F401
    ProtocolConfig,
    event_ready_generation,
    memory_readout,
    memory_store,
    wilson_interval,
)
from .sources import SourceParams, dual_ensemble_source, epr_pair, raman_emit  # noqa: F401

#: the modules that import numpy, and their names that the package exports
_LAZY = {
    "metrics": "metrics", "rng": "rng", "sampling": "sampling", "analysis": "analysis",
    "QubitEncoding": "metrics", "concurrence": "metrics", "entropy": "metrics", "purity": "metrics", "reduced_density": "metrics",
    "trial_rng": "rng", "measure": "sampling", "bell_decompose": "analysis", "generate_entanglement": "analysis",
}


def __getattr__(name: str):
    """Each name of `_LAZY`, read off its module, imported then (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    home = import_module(f"{__name__}.{_LAZY[name]}")
    return home if name == _LAZY[name] else getattr(home, name)
