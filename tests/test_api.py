"""The package's public names and settable fields: a removal or addition has to change these lists."""

from dataclasses import fields

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


def test_solver_and_synth_settings_are_the_recorded_fields():
    assert [f.name for f in fields(convexreg.SolverConfig)] == ["max_iters", "grad_tol", "seed"]
    assert [f.name for f in fields(convexreg.SynthSpec)] == [
        "n_samples", "n_features", "transform", "noise_std", "seed",
    ]
