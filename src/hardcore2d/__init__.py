"""Exact finite-box computations for the two-dimensional hard-core lattice
gas with random site activities: partition functions, boundary-condition
observables, disorder statistics, and perfect sampling."""

__version__ = "0.1.0"

from .disorder import (
    ActivityField,
    DisorderSpec,
    MomentReport,
    ReplicaSeed,
    field_from_json,
    field_to_json,
    moment_check,
    parity_imbalance,
    sample_field,
    save_field,
)
from .engine import (
    log_partition,
    occupation_probabilities,
    occupation_probability,
    sample_exact,
)
from .errors import CapacityError, CoalescenceTimeout
from .lattice import (
    EVEN_BC,
    FREE_BC,
    ODD_BC,
    BoundaryCondition,
    LatticeBox,
    Site,
    box_lambda,
    centered_box,
    external_boundary,
    is_even,
    parity,
    phi_j,
    reflect_theta,
    translate,
)
from .mcmc import (
    CftpResult,
    Configuration,
    GlauberChain,
    MonotonePair,
    cftp_sample,
    sandwich_ordered,
)
from .observables import (
    AnnulusCheck,
    DerivativeCheck,
    FreeEnergyResponse,
    InfluenceGap,
    ResponseGapEstimate,
    ScalingRow,
    annulus_bound_check,
    annulus_log_sum,
    boundary_influence,
    derivative_identity_check,
    estimate_response_gap,
    fluctuation_scaling,
    free_energy_response,
    influence_table,
    l_doubling_shift,
    log_gain_mean,
    pathwise_gap_bound,
    per_site_gap_bound,
    response_gap,
    sampled_response_gap,
)
from .oracle import (
    ExactWeight,
    enumerate_independent_sets,
    grid_independent_set_count,
    oracle_log_partition,
    oracle_occupation,
    oracle_occupations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
