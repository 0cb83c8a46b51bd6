"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload is built against a package (the program ``convexreg`` or
the frozen reference ``convexreg_ref``) and builds its inputs from the
seed with that package's ``generate_synthetic`` when it is constructed
(the set-up).  It lists its three stages in ``stages()`` and judges their
outputs in ``check()``; ``run_pass`` runs the stages back to back, timing
each, and checks the outputs afterwards.  All three workloads are
closed-loop with one client: one process, one thread.

Every fit uses the fixed target bound ``FIT_Y_BOUND`` instead of the
command line's ``auto`` bound (the largest |y|).  With ``auto`` the
largest target sits exactly on the bound, the curvature there vanishes,
and the number of gradient-descent iterations swings from seed to seed
by up to 50x (20 restarts at 20,000 x 9 took 72 s on one seed and 1.5 s
on the next), so a run would measure the draw, not the code.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


ALPHA = 1.0
SYNTH_Y_BOUND = 1.0  # the synth and verify commands' default bound
FIT_Y_BOUND = 3.0
NOISE = 0.05

FIT_LOSS_RTOL = 1e-9
FIT_GRAD_RTOL = 1e-6  # answer's gradient norm relative to the one at w = 0
RESTART_SPREAD_TOL = 1e-6
TANH_WITNESS_CURVATURE = -1.90
TANH_WITNESS_TOL = 0.05

SIZES = {
    "full": {
        "csv_n": 20_000, "csv_d": 20,
        "solve_n": 200_000, "solve_d": 20,
        "restart_n": 10_000, "restart_d": 8, "restarts": 20,
        "verify_samples": 1_000_000,
        "hessian_n": 5_000, "hessian_d": 50,
    },
    "smoke": {
        "csv_n": 200, "csv_d": 4,
        "solve_n": 2_000, "solve_d": 4,
        "restart_n": 300, "restart_d": 3, "restarts": 3,
        "verify_samples": 2_000,
        "hessian_n": 100, "hessian_d": 5,
    },
}

# Names convexreg.cli imports from the layers below it, with the span each
# gets in the traced run.
CLI_IMPORTS = {
    "generate_synthetic": "data.generate_synthetic",
    "write_csv": "data.write_csv",
    "load_csv": "data.load_csv",
    "load_feature_csv": "data.load_feature_csv",
    "gd_fit": "solver.gd_fit",
    "multi_restart_fit": "solver.multi_restart_fit",
    "verification_battery": "convexity.verification_battery",
}


def no_span(name: str):
    return contextlib.nullcontext()


@dataclass
class Check:
    op: str
    ok: bool
    detail: str


@dataclass
class PassResult:
    times: dict[str, float]
    checks: list[Check]
    facts: dict

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_cli(pkg, argv: list[str]) -> tuple[int, str]:
    """``pkg.cli.main(argv)`` in-process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


def time_stages(workload, span=no_span) -> tuple[dict, dict]:
    """Run the workload's stages back to back; returns (times, outputs)."""
    times, outputs = {}, {}
    for stage, span_name, call in workload.stages():
        start = time.perf_counter()
        with span(span_name):
            outputs[stage] = call()
        times[stage] = time.perf_counter() - start
    return times, outputs


def run_pass(workload, span=no_span) -> PassResult:
    """Run the workload's stages, then check their outputs."""
    times, outputs = time_stages(workload, span)
    checks, facts = workload.check(outputs)
    return PassResult(times, checks, facts)


def _synthetic(pkg, n: int, d: int, seed: int, span):
    spec = pkg.SynthSpec(n, d, pkg.ConvexSqrtTransform(ALPHA, SYNTH_Y_BOUND), NOISE, seed=seed)
    with span("data.generate_synthetic"):
        return pkg.generate_synthetic(spec)


def _with_bias(pkg, dataset):
    return pkg.Dataset(np.column_stack([dataset.features, np.ones(dataset.n_samples)]), dataset.targets)


def _out_of_bound(dataset) -> int:
    return int(np.count_nonzero(np.abs(dataset.targets) > SYNTH_Y_BOUND))


def _relative_spread(losses: np.ndarray) -> float:
    # Same definition as the compare command's report.
    return float((losses.max() - losses.min()) / (1.0 + losses.min()))


class FitReference:
    """Judges a fit by its answer, whatever its termination reason.

    An answer passes when its loss is no greater than the loss of the
    generating weights (bias 0) under the fitted transform, within
    ``FIT_LOSS_RTOL``, and its gradient norm is at most ``FIT_GRAD_RTOL``
    times the gradient norm at w = 0.
    """

    def __init__(self, pkg, dataset, transform, true_weights: np.ndarray):
        self.pkg = pkg
        self.dataset = dataset
        self.transform = transform
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.reference_loss = pkg.total_loss(pkg.Model(np.append(true_weights, 0.0), transform), dataset)
            zeros = pkg.Model(np.zeros(dataset.n_features), transform)
            self.start_grad_norm = float(np.linalg.norm(pkg.total_gradient(zeros, dataset)))

    def check(self, op: str, weights) -> Check:
        pkg = self.pkg
        model = pkg.Model(weights, self.transform)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loss = pkg.total_loss(model, self.dataset)
            grad_norm = float(np.linalg.norm(pkg.total_gradient(model, self.dataset)))
        ok = (
            loss <= self.reference_loss * (1.0 + FIT_LOSS_RTOL)
            and grad_norm <= FIT_GRAD_RTOL * self.start_grad_norm
        )
        return Check(
            op, ok,
            f"loss {loss!r} vs generating-weights loss {self.reference_loss!r}; "
            f"|grad| {grad_norm:.3g} vs {FIT_GRAD_RTOL:g} x {self.start_grad_norm:.3g}",
        )


class CsvPipeline:
    """CLI ``synth -> fit --out -> predict`` through CSV files on disk."""

    name = "csv_pipeline"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path, span=no_span):
        self.pkg = pkg
        self.seed = seed
        self.n, self.d = size["csv_n"], size["csv_d"]
        self.data_csv = workdir / "data.csv"
        self.weights_json = self.data_csv.with_suffix(".weights.json")
        self.model_json = workdir / "model.json"
        self.features_csv = workdir / "features.csv"
        # The same spec the synth command builds from its flags.
        generated, self.true_weights = _synthetic(pkg, self.n, self.d, seed, span)
        self.generated = generated
        self.out_of_bound = _out_of_bound(generated)
        self.dataset = _with_bias(pkg, generated)
        self.transform = pkg.ConvexSqrtTransform(ALPHA, FIT_Y_BOUND)
        self.answer = FitReference(pkg, self.dataset, self.transform, self.true_weights)
        with open(self.features_csv, "w", encoding="utf-8") as handle:
            handle.write(",".join(f"x{i + 1}" for i in range(self.d)) + "\n")
            for row in generated.features.tolist():
                handle.write(",".join(map(repr, row)) + "\n")

    def probe_model(self):
        return self.dataset, self.pkg.Model(np.append(self.true_weights, 0.0), self.transform)

    def stages(self):
        pkg = self.pkg
        return [
            ("synth_s", "cli.synth", lambda: run_cli(pkg, [
                "synth", "--n", str(self.n), "--d", str(self.d), "--noise", str(NOISE),
                "--seed", str(self.seed), "--out", str(self.data_csv)])),
            ("fit_s", "cli.fit", lambda: run_cli(pkg, [
                "fit", "--data", str(self.data_csv), "--y-bound", str(FIT_Y_BOUND),
                "--out", str(self.model_json)])),
            ("predict_s", "cli.predict", lambda: run_cli(pkg, [
                "predict", "--model", str(self.model_json), "--data", str(self.features_csv)])),
        ]

    def check(self, outputs):
        fit_report = json.loads(outputs["fit_s"][1])["results"]["fit"]
        checks = [
            self._check_synth(outputs["synth_s"][0]),
            self._check_fit(outputs["fit_s"][0]),
            self._check_predict(*outputs["predict_s"]),
        ]
        facts = {
            "iterations": fit_report["iterations"],
            "terminations": [fit_report["termination"]],
            "bytes_written": sum(p.stat().st_size for p in (self.data_csv, self.weights_json, self.model_json)),
            "bytes_read": sum(p.stat().st_size for p in (self.data_csv, self.model_json, self.features_csv)),
            "data_csv_bytes": self.data_csv.stat().st_size,
        }
        return checks, facts

    def _check_synth(self, code: int) -> Check:
        companion = json.loads(self.weights_json.read_text(encoding="utf-8"))
        written = np.loadtxt(self.data_csv, delimiter=",", skiprows=1, ndmin=2)
        expected = np.column_stack([self.generated.features, self.generated.targets])
        ok = (
            code == 0
            and companion["true_weights"] == self.true_weights.tolist()
            and written.shape == expected.shape
            and written.tobytes() == expected.tobytes()
        )
        return Check("synth", ok, f"exit {code}; CSV rows equal generate_synthetic's: {ok}")

    def _check_fit(self, code: int) -> Check:
        # Exit 4 ("not converged") is not a failure: the answer is judged.
        payload = json.loads(self.model_json.read_text(encoding="utf-8"))
        check = self.answer.check("fit", payload["weights"])
        check.ok = check.ok and code in (0, 4)
        check.detail = f"exit {code}; {check.detail}"
        return check

    def _check_predict(self, code: int, stdout: str) -> Check:
        payload = json.loads(self.model_json.read_text(encoding="utf-8"))
        model = self.pkg.Model(payload["weights"], self.pkg.transform_from_dict(payload["transform"]))
        expected = model.predict(self.dataset.features)
        printed = np.array([float(line) for line in stdout.split()])
        ok = code == 0 and printed.shape == expected.shape and printed.tobytes() == expected.tobytes()
        return Check("predict", ok, f"exit {code}; {printed.size} values bit-identical to Model.predict: {ok}")


class SolveLarge:
    """One large in-memory fit from zeros, then the compare command's restarts."""

    name = "solve_large"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path, span=no_span):
        self.pkg = pkg
        generated, self.true_weights = _synthetic(pkg, size["solve_n"], size["solve_d"], seed, span)
        small, _ = _synthetic(pkg, size["restart_n"], size["restart_d"], seed, span)
        self.out_of_bound = _out_of_bound(generated) + _out_of_bound(small)
        self.dataset = _with_bias(pkg, generated)
        self.small = _with_bias(pkg, small)
        del generated, small
        self.transform = pkg.ConvexSqrtTransform(ALPHA, FIT_Y_BOUND)
        self.answer = FitReference(pkg, self.dataset, self.transform, self.true_weights)
        self.restarts = size["restarts"]
        self.config = pkg.SolverConfig(seed=seed)

    def probe_model(self):
        return self.dataset, self.pkg.Model(np.append(self.true_weights, 0.0), self.transform)

    def stages(self):
        pkg = self.pkg
        return [
            ("solve_s", "solver.gd_fit", lambda: pkg.gd_fit(
                self.dataset, self.transform, np.zeros(self.dataset.n_features))),
            ("restarts_convex_sqrt_s", "solver.multi_restart_fit", lambda: pkg.multi_restart_fit(
                self.small, self.transform, self.restarts, self.config)),
            ("restarts_tanh_s", "solver.multi_restart_fit", lambda: pkg.multi_restart_fit(
                self.small, pkg.TanhTransform(FIT_Y_BOUND), self.restarts, self.config)),
        ]

    def check(self, outputs):
        fit = outputs["solve_s"]
        convex, tanh = outputs["restarts_convex_sqrt_s"], outputs["restarts_tanh_s"]
        convex_losses = np.array([r.final_loss for r in convex])
        tanh_losses = np.array([r.final_loss for r in tanh])
        spread = _relative_spread(convex_losses)
        finite = bool(np.all(np.isfinite(tanh_losses)))
        checks = [
            self.answer.check("gd_fit", fit.final_weights),
            Check("restarts_convex_sqrt", spread <= RESTART_SPREAD_TOL,
                  f"relative spread {spread:.3g} (limit {RESTART_SPREAD_TOL:g})"),
            Check("restarts_tanh", finite, f"final losses finite: {finite}"),
        ]
        facts = {
            "iterations": fit.iterations,
            "restart_iterations": sum(r.iterations for r in (*convex, *tanh)),
            "terminations": [r.termination for r in (fit, *convex, *tanh)],
            "restart_spread_convex_sqrt": spread,
            "restart_spread_tanh": _relative_spread(tanh_losses),
        }
        return checks, facts


class Certify:
    """CLI ``verify`` for convex-sqrt and tanh, then a d = 50 finite-difference Hessian."""

    name = "certify"

    def __init__(self, pkg, seed: int, size: dict, workdir: Path, span=no_span):
        self.pkg = pkg
        self.seed = seed
        self.samples = size["verify_samples"]
        generated, self.weights = _synthetic(pkg, size["hessian_n"], size["hessian_d"], seed, span)
        self.out_of_bound = _out_of_bound(generated)
        self.dataset = generated
        # A bound above every target keeps the loss convex, so the check must pass.
        self.transform = pkg.ConvexSqrtTransform(ALPHA, pkg.estimate_target_bound(generated))

    def probe_model(self):
        return self.dataset, self.pkg.Model(self.weights, self.transform)

    def stages(self):
        pkg = self.pkg
        common = ["--samples", str(self.samples), "--seed", str(self.seed)]
        return [
            ("verify_convex_sqrt_s", "cli.verify", lambda: run_cli(
                pkg, ["verify", "--transform", "convex-sqrt", *common])),
            ("verify_tanh_s", "cli.verify", lambda: run_cli(
                pkg, ["verify", "--transform", "tanh", *common])),
            ("hessian_check_s", "convexity.fd_hessian_psd_check", lambda: pkg.fd_hessian_psd_check(
                self.dataset, self.transform, self.weights)),
        ]

    def check(self, outputs):
        hessian = outputs["hessian_check_s"]
        checks = [
            self._check_convex(*outputs["verify_convex_sqrt_s"]),
            self._check_tanh(*outputs["verify_tanh_s"]),
            Check("fd_hessian_psd", hessian.passed, hessian.describe()),
        ]
        return checks, {}

    @staticmethod
    def _check_convex(code: int, stdout: str) -> Check:
        all_passed = json.loads(stdout)["results"]["all_passed"]
        return Check("verify_convex_sqrt", code == 0 and all_passed is True,
                     f"exit {code}; all_passed {all_passed}")

    @staticmethod
    def _check_tanh(code: int, stdout: str) -> Check:
        checks = json.loads(stdout)["results"]["checks"]
        witness = [c for c in checks if c["check_name"] == "nonconvex_witness_search"]
        curvature = witness[0]["worst_violation"] if witness else None
        ok = (
            code == 5
            and curvature is not None
            and abs(curvature - TANH_WITNESS_CURVATURE) <= TANH_WITNESS_TOL
        )
        return Check("verify_tanh", ok, f"exit {code}; witness curvature {curvature}")


WORKLOADS = {w.name: w for w in (CsvPipeline, SolveLarge, Certify)}
