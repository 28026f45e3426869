"""Rational multi-soliton potentials of the Novikov-Veselov equation at E > 0.

Construction from block seeds, exact determinant-based evaluation of the
fields, travel-wave velocity analysis in both directions, and numerical
witnesses for the large-time splitting into localized travel waves.
"""

from .params import (
    BlockSeed,
    InvalidParameterSetError,
    ParameterSet,
    ValidationReport,
    VelocityInverseError,
    block_velocities,
    canonical_lambda_order,
    expand_blocks,
    forbidden_region_bound,
    forbidden_region_contains,
    load_parameter_set,
    parameter_set_from_dict,
    solve_velocity_inverse,
    translate_gammas,
    validate,
    velocity,
    velocity_spread,
)
from .potential import (
    EvaluationError,
    FieldSample,
    NearSingularError,
    PotentialEvaluator,
    SingularMatrixError,
    SpacetimePoint,
    build_matrix,
    eval_fields,
    linear_system_fields,
    log_det_derivative,
    soliton_profile,
)
from .verify import (
    AsymptoticsReport,
    AsymptoticsTable,
    ResidualReport,
    asymptotic_error_sweep,
    nv_residual,
    point_residuals,
    sample_points,
    travel_wave_error,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "AsymptoticsTable",
    "BlockSeed",
    "EvaluationError",
    "FieldSample",
    "InvalidParameterSetError",
    "NearSingularError",
    "ParameterSet",
    "PotentialEvaluator",
    "ResidualReport",
    "SingularMatrixError",
    "SpacetimePoint",
    "ValidationReport",
    "VelocityInverseError",
    "asymptotic_error_sweep",
    "block_velocities",
    "build_matrix",
    "canonical_lambda_order",
    "eval_fields",
    "expand_blocks",
    "forbidden_region_bound",
    "forbidden_region_contains",
    "linear_system_fields",
    "load_parameter_set",
    "log_det_derivative",
    "nv_residual",
    "parameter_set_from_dict",
    "point_residuals",
    "sample_points",
    "soliton_profile",
    "solve_velocity_inverse",
    "translate_gammas",
    "validate",
    "velocity",
    "velocity_spread",
]
