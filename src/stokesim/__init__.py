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
    measure,
)
from .elements import (  # noqa: F401
    attenuate_mode,
    beam_splitter,
    half_wave,
    pol_splitter,
    quarter_wave,
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
    reduced_density,
    state_fidelity,
    tensor,
    trace_out,
    vacuum,
)
from .metrics import QubitEncoding, concurrence, entropy, purity  # noqa: F401
from .protocols import (  # noqa: F401
    ProtocolConfig,
    bell_decompose,
    event_ready_generation,
    generate_entanglement,
    memory_readout,
    memory_store,
    wilson_interval,
)
from .rng import trial_rng  # noqa: F401
from .sources import SourceParams, dual_ensemble_source, epr_pair, raman_emit  # noqa: F401
