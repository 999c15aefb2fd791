"""Approximation of biobjective minimization problems via general ordering cones.

The package decides, exactly and at desk scale, everything the theory of
cone-order approximation promises for two objectives: cone orders of a given
inner angle and rotation, the solutions optimal for at least one cone of a
fixed inner angle, balanced max-ordering scalarizations and the covering
sets they induce, multiplicative approximation verification with exact
minimal factors, and the closed-form guarantee 1 + tan(gamma/2 - pi/4).
"""

from .approximation import (
    ApproxReport,
    is_alpha_approx_for_all_rotations,
    is_alpha_approx_pair,
    min_alpha,
    rotation_coverage_gaps,
    verify_approx_set,
)
from .bounds import (
    BoundTable,
    alternative_forms,
    distortion_gap,
    distortion_identity_residual,
    guarantee_factor,
    rule_of_thumb,
)
from .geometry import (
    ConeParams,
    admissible,
    admissible_range,
    transform,
)
from .instances import (
    Instance,
    Solution,
    Violation,
    cone_efficient_set,
    dump_instance,
    efficient_set,
    instance_from_obj,
    instance_to_obj,
    load_instance,
    make_instance,
    validate,
)
from .intervals import PhiIntervalSet
from .scalarize import (
    balanced_weights,
    build_cover_set,
    rotation_for_ratio,
)
from .supportedness import (
    gamma_supported_set,
    optimal_phi_set,
    supported_set,
)
from .tolerances import TAU_ANGLE, TAU_VAL

__all__ = [
    "ApproxReport",
    "BoundTable",
    "ConeParams",
    "Instance",
    "PhiIntervalSet",
    "Solution",
    "TAU_ANGLE",
    "TAU_VAL",
    "Violation",
    "admissible",
    "admissible_range",
    "alternative_forms",
    "balanced_weights",
    "build_cover_set",
    "cone_efficient_set",
    "distortion_gap",
    "distortion_identity_residual",
    "dump_instance",
    "efficient_set",
    "gamma_supported_set",
    "guarantee_factor",
    "instance_from_obj",
    "instance_to_obj",
    "is_alpha_approx_for_all_rotations",
    "is_alpha_approx_pair",
    "load_instance",
    "make_instance",
    "min_alpha",
    "optimal_phi_set",
    "rotation_coverage_gaps",
    "rotation_for_ratio",
    "rule_of_thumb",
    "supported_set",
    "transform",
    "validate",
    "verify_approx_set",
]
