"""The package's public names and settable fields: a removal or addition has to change these lists."""

import inspect
import subprocess
import sys
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


# Each public function's parameters by name and kind ("*" opens the keyword-only ones).
PUBLIC_SIGNATURES = {
    "derivative_monotonicity_check": "(transform, y, z_grid)",
    "dloss_dz": "(transform, z, y)",
    "estimate_target_bound": "(dataset)",
    "fd_hessian_psd_check": "(dataset, transform, w)",
    "find_nonconvex_witness": "(transform, z_grid, y_grid)",
    "gd_fit": "(dataset, transform, w0, config)",
    "generate_synthetic": "(spec)",
    "graded_grid": "(half_width, n_points)",
    "load_csv": "(spec)",
    "load_feature_csv": "(path, has_header)",
    "loss_z": "(transform, z, y)",
    "midpoint_convexity_check": "(transform, y, z_range, n_samples, *, seed)",
    "multi_restart_fit": "(dataset, transform, restarts, config)",
    "ols_fit": "(dataset)",
    "total_gradient": "(model, dataset)",
    "total_loss": "(model, dataset)",
    "transform_from_dict": "(payload)",
    "transform_to_dict": "(transform)",
    "verification_battery": "(transform, y_bound, n_samples, seed)",
    "write_csv": "(dataset, path)",
}


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


def test_public_functions_have_the_recorded_parameters():
    recorded = {}
    for name in convexreg.__all__:
        function = getattr(convexreg, name)
        if inspect.isfunction(function):
            signature = inspect.signature(function)
            bare = [p.replace(default=p.empty, annotation=p.empty) for p in signature.parameters.values()]
            recorded[name] = str(signature.replace(parameters=bare, return_annotation=signature.empty))
    assert recorded == PUBLIC_SIGNATURES


def test_each_transform_has_a_public_curvature_method():
    for cls in (convexreg.ConvexSqrtTransform, convexreg.AffineTransform, convexreg.TanhTransform):
        assert inspect.isfunction(cls.curvature), cls
        assert str(inspect.signature(cls.curvature)) == "(self, z, y)"
        assert not hasattr(cls, "_curvature"), cls


def test_import_leaves_the_thread_pool_unloaded():
    # Only the midpoint check uses concurrent.futures; it imports the module when it runs.
    probe = "import sys, convexreg, convexreg.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
