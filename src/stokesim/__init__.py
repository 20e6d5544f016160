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
    half_wave,
    pol_splitter,
    quarter_wave,
)
from . import fock
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
__getattr__ = fock._lazy(__name__, {
    "metrics": "metrics", "rng": "rng", "sampling": "sampling", "analysis": "analysis",
    "QubitEncoding": "metrics", "concurrence": "metrics", "entropy": "metrics", "purity": "metrics", "reduced_density": "metrics",
    "trial_rng": "rng", "measure": "sampling", "bell_decompose": "analysis", "generate_entanglement": "analysis",
})
