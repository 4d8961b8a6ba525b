"""Scattering-protected photonic states in cylindrically symmetric media.

The package builds the mode spaces fixed by rotation and mirror symmetry,
samples the compatible scattering matrices, lifts them to N-photon Fock
spaces, certifies and searches for states that every symmetric scatterer
maps onto themselves, analyzes their two-photon entanglement structure, and
models time-bin encodings that ride on protected carriers.
"""

from .modes import ModeLabel, ModeSpace, direct_sum, h0, hm, mirror_eigenbasis
from .scatter import (
    EigenMode,
    GenericityError,
    ScatterSampler,
    SymmetricScattering,
    ValidationReport,
    eigen_modes,
    family_generators,
    validate_scattering,
)
from .fock import (
    DEFAULT_N_MAX,
    FockBasis,
    FockState,
    LiftedOperator,
    enumerate_basis,
    lift,
    lift_generator,
    lift_jz,
    lift_mirror,
    max_photons,
    permanent_naive,
    permanent_ryser,
    postselect_projector,
    sector_split,
    state_from_amplitudes,
)
from .states import (
    CATALOG,
    StateRecipe,
    build_state,
    count_mirror_fock,
    count_pair_states,
    mirror_fock,
    mirror_parity,
    named_state,
    pair_expansion_coefficients,
    pair_power,
    parse_recipe,
    product_state,
)
from .protect import (
    CertificationConfig,
    ProtectedRay,
    ProtectedSubspace,
    ProtectionReport,
    SearchResult,
    UniquenessReport,
    Verdict,
    certify,
    find_protected,
    verify_pair_uniqueness,
)
from .entangle import (
    SlaterReport,
    TwoPhotonMatrix,
    single_product_modes,
    slater_report,
    takagi,
    two_photon_matrix,
    two_photon_state,
)
from .dfs import (
    CarrierNotProtectedError,
    ChannelOutcome,
    TimeBinQudit,
    drift_experiment,
    erasure_capacity,
    time_bin_qudit,
    transmit,
    transmit_bins,
)

__version__ = "0.1.0"
