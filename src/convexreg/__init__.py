"""Convexity-preserving nonlinear regression under squared loss.

A square-root transform keeps the squared loss convex in the model
weights whenever targets stay inside a known bound; this package fits
such models with a guaranteed-descent quasi-Newton solver and ships a
numerical lab that certifies the convexity claims (and exhibits
counterexamples for transforms like tanh that break them).
"""

from .transforms import (
    AffineTransform,
    ConvexSqrtTransform,
    TanhTransform,
    Transform,
    transform_from_dict,
    transform_to_dict,
)
from .loss import (
    Dataset,
    DimensionMismatchError,
    Model,
    TargetBoundWarning,
    dloss_dz,
    loss_z,
    total_gradient,
    total_loss,
)
from .solver import (
    FitReport,
    NonFiniteLossError,
    SingularSystemError,
    SolverConfig,
    gd_fit,
    multi_restart_fit,
    ols_fit,
)
from .convexity import (
    ConvexityReport,
    InvalidGridError,
    NonFiniteCheckError,
    derivative_monotonicity_check,
    fd_hessian_psd_check,
    find_nonconvex_witness,
    graded_grid,
    midpoint_convexity_check,
    verification_battery,
)
from .data import (
    CsvParseError,
    DatasetSpec,
    MissingTargetColumnError,
    NonNumericCellError,
    SynthSpec,
    estimate_target_bound,
    generate_synthetic,
    load_csv,
    load_feature_csv,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AffineTransform",
    "ConvexSqrtTransform",
    "ConvexityReport",
    "CsvParseError",
    "Dataset",
    "DatasetSpec",
    "DimensionMismatchError",
    "FitReport",
    "InvalidGridError",
    "MissingTargetColumnError",
    "Model",
    "NonFiniteCheckError",
    "NonFiniteLossError",
    "NonNumericCellError",
    "SingularSystemError",
    "SolverConfig",
    "SynthSpec",
    "TanhTransform",
    "TargetBoundWarning",
    "Transform",
    "derivative_monotonicity_check",
    "dloss_dz",
    "estimate_target_bound",
    "fd_hessian_psd_check",
    "find_nonconvex_witness",
    "gd_fit",
    "generate_synthetic",
    "graded_grid",
    "load_csv",
    "load_feature_csv",
    "loss_z",
    "midpoint_convexity_check",
    "multi_restart_fit",
    "ols_fit",
    "total_gradient",
    "total_loss",
    "transform_from_dict",
    "transform_to_dict",
    "verification_battery",
    "write_csv",
]
