"""The package's public names: a removal or addition has to change this list."""

import convexreg

PUBLIC_API = [
    "AffineTransform",
    "ConvexSqrtTransform",
    "ConvexityReport",
    "CsvParseError",
    "Dataset",
    "DatasetSpec",
    "DimensionMismatchError",
    "DimensionTooLargeError",
    "DomainError",
    "FitReport",
    "InvalidGridError",
    "MissingTargetColumnError",
    "Model",
    "NonFiniteCheckError",
    "NonFiniteHessianError",
    "NonFiniteLossError",
    "NonNumericCellError",
    "SingularSystemError",
    "SolverConfig",
    "SynthSpec",
    "TanhTransform",
    "TargetBoundWarning",
    "Transform",
    "UnsupportedTransformError",
    "convexity_target_bound",
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
    "psd_condition_value",
    "sample_gradient",
    "total_gradient",
    "total_loss",
    "transform_from_dict",
    "transform_to_dict",
    "verification_battery",
    "write_csv",
]


def test_all_is_the_recorded_public_api():
    assert len(set(convexreg.__all__)) == len(convexreg.__all__)
    for name in convexreg.__all__:
        assert hasattr(convexreg, name), name
    assert sorted(convexreg.__all__) == PUBLIC_API

