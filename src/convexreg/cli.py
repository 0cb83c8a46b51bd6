"""Command-line front end: fit, predict, verify, synth.

Every command prints a single JSON report on stdout (predict prints a
prediction per line instead); human diagnostics go to stderr.  Exit codes
are the only success/failure channel:

    0  success
    2  bad flags
    3  data errors (unreadable/malformed files, dimension mismatches,
       losses or loss curvature too large for float64)
    4  fit did not converge (report still emitted)
    5  a convexity check failed (witnesses in the report)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .convexity import NonFiniteCheckError, verification_battery
from .data import (
    DatasetSpec,
    SynthSpec,
    estimate_target_bound,
    generate_synthetic,
    load_csv,
    load_feature_csv,
    write_csv,
)
from .loss import DimensionMismatchError, Model, TargetBoundWarning, _bound_violation
from .solver import (
    NonFiniteLossError,
    SolverConfig,
    TERMINATION_AT_FLOOR,
    TERMINATION_CONVERGED,
    gd_fit,
    multi_restart_fit,
)
from .transforms import (
    AffineTransform,
    ConvexSqrtTransform,
    TanhTransform,
    Transform,
    _TRANSFORMS,
    _number,
    transform_from_dict,
    transform_to_dict,
)

EXIT_OK = 0
EXIT_DATA_ERROR = 3
EXIT_NOT_CONVERGED = 4
EXIT_CHECK_FAILED = 5

# Terminations that certify an optimum: fit exits 0 on them.
_OPTIMAL = (TERMINATION_CONVERGED, TERMINATION_AT_FLOOR)

# Every error the data layer raises for a bad file derives from one of these.
_DATA_ERRORS = (OSError, ValueError)


def _fail_data(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_DATA_ERROR


def _emit_report(args, results: dict, started: float, **resolved) -> None:
    """Print the run report of ``args.command`` on stdout.

    Its ``config_echo`` is every parsed flag under its argparse dest name,
    then ``resolved``: the values the command worked out from its data.
    """
    echo = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    report = {
        "command": args.command,
        "config_echo": {**echo, **resolved},
        "results": results,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        "version": __version__,
    }
    print(json.dumps(report, indent=2, sort_keys=True))


def _flag_type(convert, accept, rule: str):
    """An argparse ``type=`` that converts a flag value and enforces ``rule``.

    A value that fails either step makes argparse print the usage line and
    ``argument --flag: must be <rule>, got '<value>'``, then exit 2.
    """

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"must be {rule}, got {raw!r}")

    return parse


_positive = _flag_type(float, lambda v: math.isfinite(v) and v > 0.0, "a finite positive number")
# verify draws targets from uniform(-Y, Y), whose width 2*Y must be finite too.
_doubles_finite = _flag_type(
    float, lambda v: v > 0.0 and math.isfinite(2.0 * v), "a positive number whose double is finite"
)
_nonnegative = _flag_type(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite nonnegative number")
_auto_or_positive = _flag_type(
    lambda raw: raw if raw == "auto" else float(raw),
    lambda v: v == "auto" or (math.isfinite(v) and v > 0.0),
    "'auto' or a finite positive number",
)


def _at_least(low: int):
    return _flag_type(int, lambda v: v >= low, f"an integer >= {low}")


def _column(raw: str) -> int | str:
    """A target column: a 0-based index when numeric, so it works headerless, else a name."""
    try:
        return int(raw)
    except ValueError:
        return raw


def _build_transform(kind: str, alpha: float, y_bound: float) -> Transform:
    if kind == "convex-sqrt":
        return ConvexSqrtTransform(alpha=alpha, y_bound=y_bound)
    if kind == "affine":
        return AffineTransform(a=alpha, b=0.0)
    if kind == "tanh":
        return TanhTransform(scale=y_bound)
    raise ValueError(f"unknown transform {kind!r}")


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_model(path: str) -> Model:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    weights = [_number(w, f"weights[{i}]") for i, w in enumerate(payload["weights"])]
    return Model(np.array(weights, dtype=float), transform_from_dict(payload["transform"]))


def _cmd_fit(args) -> int:
    started = time.perf_counter()
    try:
        dataset = load_csv(DatasetSpec(
            path=args.data,
            target_column=args.target_column,
            has_header=args.has_header,
            add_bias=args.add_bias,
            standardize=args.standardize,
        ))
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    y_bound = args.y_bound
    if y_bound == "auto":
        y_bound = estimate_target_bound(dataset)
    transform = _build_transform(args.transform, args.alpha, y_bound)

    run_warnings = _bound_violation(transform, dataset.targets)

    config = SolverConfig(max_iters=args.max_iters, grad_tol=args.grad_tol, seed=args.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TargetBoundWarning)  # already recorded above
        try:
            if args.restarts == 1:
                reports = [gd_fit(dataset, transform, np.zeros(dataset.n_features), config)]
            else:
                reports = multi_restart_fit(dataset, transform, args.restarts, config)
        except NonFiniteLossError as exc:
            return _fail_data(f"{args.data}: {exc}")

    best_index = int(np.argmin([r.final_loss for r in reports]))
    best = reports[best_index]
    if args.out:
        try:
            _write_json(args.out, {
                "weights": [float(w) for w in best.final_weights],
                "transform": transform_to_dict(transform),
            })
        except OSError as exc:
            return _fail_data(str(exc))

    results = {
        "fit": best.to_dict(),
        "best_restart": best_index,
        "restarts": [r.to_dict(include_trace=False) for r in reports],
        "warnings": run_warnings,
        "model_file": args.out,
        "transform": transform_to_dict(transform),
    }
    _emit_report(args, results, started, y_bound=float(y_bound))
    return EXIT_OK if best.termination in _OPTIMAL else EXIT_NOT_CONVERGED


def _cmd_predict(args) -> int:
    try:
        model = _load_model(args.model)
    except (*_DATA_ERRORS, KeyError, TypeError) as exc:  # KeyError, TypeError: JSON of the wrong shape
        return _fail_data(f"cannot load model {args.model}: {exc}")
    try:
        features = load_feature_csv(args.data, has_header=args.has_header)
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    if features.shape[1] == model.weights.size - 1:
        # Trained with a bias column: append it here too.
        features = np.column_stack([features, np.ones(features.shape[0])])
    try:
        predictions = model.predict(features)
    except DimensionMismatchError as exc:
        return _fail_data(f"{args.data}: {exc}")
    sys.stdout.write("".join([repr(value) + "\n" for value in predictions.tolist()]))
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    transform = _build_transform(args.transform, args.alpha, args.y_bound)
    try:
        checks = verification_battery(transform, args.y_bound, n_samples=args.samples, seed=args.seed)
    except NonFiniteCheckError as exc:
        return _fail_data(str(exc))
    all_passed = all(check.passed for check in checks)

    results = {
        "checks": [check.to_dict() for check in checks],
        "all_passed": all_passed,
    }
    _emit_report(args, results, started)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_synth(args) -> int:
    started = time.perf_counter()
    transform = _build_transform(args.transform, args.alpha, args.y_bound)
    spec = SynthSpec(
        n_samples=args.n,
        n_features=args.d,
        transform=transform,
        noise_std=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    if not out.name:  # ".", "" and "/" name a directory, not a file
        return _fail_data(f"--out {args.out!r} has no file name")
    weights_file = str(out.with_suffix(".weights.json"))
    try:
        dataset, true_weights = generate_synthetic(spec)
        companion = {
            "true_weights": [float(w) for w in true_weights],
            "transform": transform_to_dict(transform),
            "n_samples": args.n,
            "n_features": args.d,
            "noise_std": args.noise,
            "seed": args.seed,
        }
        write_csv(dataset, args.out)
        _write_json(weights_file, companion)
    except _DATA_ERRORS as exc:
        return _fail_data(str(exc))

    results = {
        "csv_file": args.out,
        "weights_file": weights_file,
        "warnings": _bound_violation(transform, dataset.targets),
    }
    _emit_report(args, results, started)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexreg",
        description="Convexity-preserving nonlinear regression under squared loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model by BFGS quasi-Newton descent")
    fit.add_argument("--data", required=True, help="CSV file with features and a target column")
    fit.add_argument(
        "--target-column", type=_column, default=None,
        help="target column name or 0-based index (default: last)",
    )
    fit.add_argument("--no-header", dest="has_header", action="store_false", help="the CSV has no header row")
    fit.add_argument("--no-bias", dest="add_bias", action="store_false", help="do not append a constant 1.0 feature")
    fit.add_argument("--standardize", action="store_true", help="standardize feature columns (bias exempt)")
    fit.add_argument("--transform", choices=_TRANSFORMS, default="convex-sqrt")
    fit.add_argument("--alpha", type=_positive, default=1.0, help="curvature rate (affine slope)")
    fit.add_argument(
        "--y-bound", type=_auto_or_positive, default="auto", help="target bound Y, or 'auto' for max |y|"
    )
    fit.add_argument("--restarts", type=_at_least(1), default=1)
    fit.add_argument("--seed", type=_at_least(0), default=SolverConfig.seed)
    fit.add_argument("--max-iters", type=_at_least(1), default=SolverConfig.max_iters)
    fit.add_argument("--grad-tol", type=_positive, default=SolverConfig.grad_tol)
    fit.add_argument("--out", default=None, help="write the fitted model as JSON")
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="apply a fitted model to feature rows")
    predict.add_argument("--model", required=True, help="model JSON written by fit --out")
    predict.add_argument("--data", required=True, help="feature-only CSV (no target column)")
    predict.add_argument("--no-header", dest="has_header", action="store_false", help="the CSV has no header row")
    predict.set_defaults(func=_cmd_predict)

    verify = sub.add_parser("verify", help="run the convexity check battery")
    verify.add_argument("--transform", choices=_TRANSFORMS, default="convex-sqrt")
    verify.add_argument("--alpha", type=_positive, default=1.0)
    verify.add_argument("--y-bound", type=_doubles_finite, default=1.0, help="target bound Y (numeric)")
    verify.add_argument("--samples", type=_at_least(1), default=10000)
    verify.add_argument("--seed", type=_at_least(0), default=0)
    verify.set_defaults(func=_cmd_verify)

    synth = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    synth.add_argument("--n", type=_at_least(1), required=True, help="number of samples")
    synth.add_argument("--d", type=_at_least(1), required=True, help="number of features")
    synth.add_argument("--noise", type=_nonnegative, default=0.0, help="pre-transform noise std")
    synth.add_argument("--transform", choices=_TRANSFORMS, default="convex-sqrt")
    synth.add_argument("--alpha", type=_positive, default=1.0)
    synth.add_argument("--y-bound", type=_positive, default=1.0)
    synth.add_argument("--seed", type=_at_least(0), default=0)
    synth.add_argument("--out", required=True, help="CSV output path")
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
