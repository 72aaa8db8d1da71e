"""Exact finite-box computations for the two-dimensional hard-core lattice
gas with random site activities: partition functions, boundary-condition
observables, disorder statistics, and perfect sampling."""

__version__ = "0.1.0"

from .disorder import (
    ActivityField,
    DisorderSpec,
    ReplicaSeed,
    field_from_json,
    field_to_json,
    sample_field,
    sample_fields,
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
    draw_sites,
    external_boundary,
    is_even,
    parity,
    phi_j,
    reflect_theta,
)
from .mcmc import CftpResult, GlauberChain, cftp_sample
from .observables import (
    annulus_bound_check,
    annulus_log_sum,
    boundary_influence,
    derivative_identity_check,
    estimate_response_gap,
    expected_gap_bound,
    free_energy_response,
    influence_table,
    log_gain_mean,
    pathwise_gap_bound,
    response_gap,
)
from .oracle import (
    ExactWeight,
    enumerate_independent_sets,
    grid_independent_set_count,
    oracle_log_partition,
    oracle_occupations,
)

__all__ = [
    "ActivityField", "DisorderSpec", "ReplicaSeed",
    "field_from_json", "field_to_json", "sample_field", "sample_fields", "save_field",
    "log_partition", "occupation_probabilities", "occupation_probability",
    "sample_exact",
    "CapacityError", "CoalescenceTimeout",
    "EVEN_BC", "FREE_BC", "ODD_BC", "BoundaryCondition", "LatticeBox", "Site",
    "box_lambda", "centered_box", "draw_sites", "external_boundary", "is_even", "parity", "phi_j",
    "reflect_theta",
    "CftpResult", "GlauberChain", "cftp_sample",
    "annulus_bound_check", "annulus_log_sum",
    "boundary_influence", "derivative_identity_check", "estimate_response_gap",
    "expected_gap_bound", "free_energy_response", "influence_table", "log_gain_mean",
    "pathwise_gap_bound", "response_gap",
    "ExactWeight", "enumerate_independent_sets", "grid_independent_set_count",
    "oracle_log_partition", "oracle_occupations",
]
