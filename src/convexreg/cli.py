"""Command-line front end: fit, predict, verify, compare, synth.

Every command prints a single JSON report on stdout (predict prints a
prediction per line instead); human diagnostics go to stderr.  Exit codes
are the only success/failure channel:

    0  success
    2  bad flags
    3  data errors (unreadable/malformed files, dimension mismatches)
    4  fit did not converge (report still emitted)
    5  a convexity check failed (witnesses in the report)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import verification_battery
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
from .loss import (
    DimensionMismatchError,
    Model,
    TargetBoundWarning,
    _bound_violation,
)
from .solver import (
    SolverConfig,
    TERMINATION_CONVERGED,
    gd_fit,
    multi_restart_fit,
)
from .transforms import (
    AffineTransform,
    ConvexSqrtTransform,
    TanhTransform,
    Transform,
    transform_from_dict,
    transform_to_dict,
)

EXIT_OK = 0
EXIT_BAD_FLAGS = 2
EXIT_DATA_ERROR = 3
EXIT_NOT_CONVERGED = 4
EXIT_CHECK_FAILED = 5

_DATA_ERRORS = (
    OSError,
    CsvParseError,
    MissingTargetColumnError,
    NonNumericCellError,
    DimensionMismatchError,
)


def _fail_flags(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_BAD_FLAGS


def _fail_data(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_DATA_ERROR


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _report(command: str, config_echo: dict, results: dict, started: float) -> dict:
    return {
        "command": command,
        "config_echo": config_echo,
        "results": results,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        "version": __version__,
    }


def _parse_y_bound(raw: str, allow_auto: bool) -> float | str | None:
    """Returns a positive float, the string "auto", or None when invalid."""
    if raw == "auto":
        return "auto" if allow_auto else None
    try:
        value = float(raw)
    except ValueError:
        return None
    if not np.isfinite(value) or value <= 0.0:
        return None
    return value


def _build_transform(kind: str, alpha: float, y_bound: float) -> Transform:
    if kind == "convex-sqrt":
        return ConvexSqrtTransform(alpha=alpha, y_bound=y_bound)
    if kind == "affine":
        return AffineTransform(a=alpha, b=0.0)
    if kind == "tanh":
        return TanhTransform(scale=y_bound)
    raise ValueError(f"unknown transform {kind!r}")


def _load_dataset(args) -> tuple:
    spec = DatasetSpec(
        path=args.data,
        target_column=args.target_column,
        has_header=not args.no_header,
        add_bias=not args.no_bias,
        standardize=args.standardize,
    )
    return load_csv(spec), spec


def _dataset_echo(spec: DatasetSpec) -> dict:
    return {
        "data": str(spec.path),
        "target_column": spec.target_column,
        "has_header": spec.has_header,
        "add_bias": spec.add_bias,
        "standardize": spec.standardize,
    }


def _save_model(path: str, weights: np.ndarray, transform: Transform) -> None:
    payload = {
        "weights": [float(w) for w in weights],
        "transform": transform_to_dict(transform),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_model(path: str) -> tuple[np.ndarray, Transform]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    weights = np.asarray([float(w) for w in payload["weights"]], dtype=float)
    return weights, transform_from_dict(payload["transform"])


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV file with features and a target column")
    parser.add_argument("--target-column", default=None, help="target column name or 0-based index (default: last)")
    parser.add_argument("--no-header", action="store_true", help="the CSV has no header row")
    parser.add_argument("--no-bias", action="store_true", help="do not append a constant 1.0 feature")
    parser.add_argument("--standardize", action="store_true", help="standardize feature columns (bias exempt)")


def _normalize_target_column(args) -> None:
    # Numeric strings become indices so "--target-column 2" works headerless.
    if args.target_column is not None:
        try:
            args.target_column = int(args.target_column)
        except ValueError:
            pass


def _cmd_fit(args) -> int:
    started = time.perf_counter()
    if args.alpha <= 0.0:
        return _fail_flags("--alpha must be positive")
    if args.restarts < 1:
        return _fail_flags("--restarts must be at least 1")
    if args.max_iters < 1:
        return _fail_flags("--max-iters must be at least 1")
    if args.grad_tol <= 0.0:
        return _fail_flags("--grad-tol must be positive")
    y_bound = _parse_y_bound(args.y_bound, allow_auto=True)
    if y_bound is None:
        return _fail_flags("--y-bound must be 'auto' or a positive number")

    _normalize_target_column(args)
    try:
        dataset, spec = _load_dataset(args)
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    if y_bound == "auto":
        y_bound = estimate_target_bound(dataset, 1.0)
    transform = _build_transform(args.transform, args.alpha, y_bound)

    bound_message = _bound_violation(transform, dataset.targets)
    run_warnings = [] if bound_message is None else [bound_message]

    config = SolverConfig(max_iters=args.max_iters, grad_tol=args.grad_tol, seed=args.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TargetBoundWarning)  # already recorded above
        if args.restarts == 1:
            reports = [gd_fit(dataset, transform, np.zeros(dataset.n_features), config)]
        else:
            reports = multi_restart_fit(dataset, transform, args.restarts, config)

    best_index = int(np.argmin([r.final_loss for r in reports]))
    best = reports[best_index]
    if args.out:
        _save_model(args.out, best.final_weights, transform)

    config_echo = {
        **_dataset_echo(spec),
        "transform": args.transform,
        "alpha": args.alpha,
        "y_bound": float(y_bound),
        "restarts": args.restarts,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "grad_tol": args.grad_tol,
        "out": args.out,
    }
    results = {
        "fit": best.to_dict(),
        "best_restart": best_index,
        "restarts": [r.to_dict(include_trace=False) for r in reports],
        "warnings": run_warnings,
        "model_file": args.out,
        "transform": transform_to_dict(transform),
    }
    _emit(_report("fit", config_echo, results, started))
    return EXIT_OK if best.termination == TERMINATION_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_predict(args) -> int:
    try:
        weights, transform = _load_model(args.model)
    except (OSError, ValueError, KeyError) as exc:
        return _fail_data(f"cannot load model {args.model}: {exc}")
    try:
        features = load_feature_csv(args.data, has_header=not args.no_header)
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    d = weights.size
    if features.shape[1] == d - 1:
        # Trained with a bias column: append it here too.
        features = np.column_stack([features, np.ones(features.shape[0])])
    elif features.shape[1] != d:
        return _fail_data(
            f"model has {d} weights but {args.data} has {features.shape[1]} columns"
        )
    predictions = Model(weights, transform).predict(features)
    for value in predictions:
        print(repr(float(value)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.alpha <= 0.0:
        return _fail_flags("--alpha must be positive")
    if args.samples < 1:
        return _fail_flags("--samples must be at least 1")
    y_bound = _parse_y_bound(args.y_bound, allow_auto=False)
    if y_bound is None:
        return _fail_flags("--y-bound must be a positive number for verify")

    transform = _build_transform(args.transform, args.alpha, y_bound)
    checks = verification_battery(transform, y_bound, n_samples=args.samples, seed=args.seed)
    all_passed = all(check.passed for check in checks)

    config_echo = {
        "transform": args.transform,
        "alpha": args.alpha,
        "y_bound": float(y_bound),
        "samples": args.samples,
        "seed": args.seed,
    }
    results = {
        "checks": [check.to_dict() for check in checks],
        "all_passed": all_passed,
    }
    _emit(_report("verify", config_echo, results, started))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _restart_summary(reports) -> dict:
    losses = np.array([r.final_loss for r in reports])
    low, high = float(losses.min()), float(losses.max())
    return {
        "final_losses": [float(v) for v in losses],
        "min_loss": low,
        "max_loss": high,
        "relative_spread": (high - low) / (1.0 + low),
        "n_converged": int(sum(r.termination == TERMINATION_CONVERGED for r in reports)),
    }


def _cmd_compare(args) -> int:
    started = time.perf_counter()
    if args.restarts < 10:
        return _fail_flags("--restarts must be at least 10 for compare")
    if args.alpha <= 0.0:
        return _fail_flags("--alpha must be positive")
    if args.max_iters < 1:
        return _fail_flags("--max-iters must be at least 1")
    if args.grad_tol <= 0.0:
        return _fail_flags("--grad-tol must be positive")

    _normalize_target_column(args)
    try:
        dataset, spec = _load_dataset(args)
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    y_bound = estimate_target_bound(dataset, 1.0)
    config = SolverConfig(max_iters=args.max_iters, grad_tol=args.grad_tol, seed=args.seed)
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TargetBoundWarning)
        for kind in ("convex-sqrt", "tanh"):
            transform = _build_transform(kind, args.alpha, y_bound)
            reports = multi_restart_fit(dataset, transform, args.restarts, config)
            summary = _restart_summary(reports)
            summary["within_tolerance"] = summary["relative_spread"] <= 1e-6
            results[kind] = summary

    config_echo = {
        **_dataset_echo(spec),
        "alpha": args.alpha,
        "y_bound": float(y_bound),
        "restarts": args.restarts,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "grad_tol": args.grad_tol,
    }
    _emit(_report("compare", config_echo, results, started))
    if results["convex-sqrt"]["n_converged"] == 0:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_synth(args) -> int:
    started = time.perf_counter()
    if args.n < 1:
        return _fail_flags("--n must be at least 1")
    if args.d < 1:
        return _fail_flags("--d must be at least 1")
    if args.noise < 0.0:
        return _fail_flags("--noise must be nonnegative")
    if args.alpha <= 0.0:
        return _fail_flags("--alpha must be positive")
    y_bound = _parse_y_bound(args.y_bound, allow_auto=False)
    if y_bound is None:
        return _fail_flags("--y-bound must be a positive number for synth")

    transform = _build_transform(args.transform, args.alpha, y_bound)
    spec = SynthSpec(
        n_samples=args.n,
        n_features=args.d,
        transform=transform,
        noise_std=args.noise,
        seed=args.seed,
    )
    dataset, true_weights = generate_synthetic(spec)
    try:
        write_csv(dataset, args.out)
    except OSError as exc:
        return _fail_data(str(exc))
    weights_file = str(Path(args.out).with_suffix(".weights.json"))
    companion = {
        "true_weights": [float(w) for w in true_weights],
        "transform": transform_to_dict(transform),
        "n_samples": args.n,
        "n_features": args.d,
        "noise_std": args.noise,
        "seed": args.seed,
    }
    Path(weights_file).write_text(json.dumps(companion, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    config_echo = {
        "n": args.n,
        "d": args.d,
        "noise": args.noise,
        "transform": args.transform,
        "alpha": args.alpha,
        "y_bound": float(y_bound),
        "seed": args.seed,
        "out": str(args.out),
    }
    results = {"csv_file": str(args.out), "weights_file": weights_file}
    _emit(_report("synth", config_echo, results, started))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexreg",
        description="Convexity-preserving nonlinear regression under squared loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model by gradient descent")
    _add_dataset_flags(fit)
    fit.add_argument("--transform", choices=["convex-sqrt", "affine", "tanh"], default="convex-sqrt")
    fit.add_argument("--alpha", type=float, default=1.0, help="curvature rate (affine slope)")
    fit.add_argument("--y-bound", default="auto", help="target bound Y, or 'auto' for max |y|")
    fit.add_argument("--restarts", type=int, default=1)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--max-iters", type=int, default=10000)
    fit.add_argument("--grad-tol", type=float, default=1e-8)
    fit.add_argument("--out", default=None, help="write the fitted model as JSON")
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="apply a fitted model to feature rows")
    predict.add_argument("--model", required=True, help="model JSON written by fit --out")
    predict.add_argument("--data", required=True, help="feature-only CSV (no target column)")
    predict.add_argument("--no-header", action="store_true", help="the CSV has no header row")
    predict.set_defaults(func=_cmd_predict)

    verify = sub.add_parser("verify", help="run the convexity check battery")
    verify.add_argument("--transform", choices=["convex-sqrt", "affine", "tanh"], default="convex-sqrt")
    verify.add_argument("--alpha", type=float, default=1.0)
    verify.add_argument("--y-bound", default="1.0", help="target bound Y (numeric)")
    verify.add_argument("--samples", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare", help="contrast restart dispersion: convex-sqrt vs tanh")
    _add_dataset_flags(compare)
    compare.add_argument("--restarts", type=int, default=20)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--alpha", type=float, default=1.0)
    compare.add_argument("--max-iters", type=int, default=10000)
    compare.add_argument("--grad-tol", type=float, default=1e-8)
    compare.set_defaults(func=_cmd_compare)

    synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    synth.add_argument("--n", type=int, required=True, help="number of samples")
    synth.add_argument("--d", type=int, required=True, help="number of features")
    synth.add_argument("--noise", type=float, default=0.0, help="pre-transform noise std")
    synth.add_argument("--transform", choices=["convex-sqrt", "affine", "tanh"], default="convex-sqrt")
    synth.add_argument("--alpha", type=float, default=1.0)
    synth.add_argument("--y-bound", default="1.0")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="CSV output path")
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
