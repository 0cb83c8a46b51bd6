"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is deterministic (every random draw is seeded).
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    Dataset,
    Model,
    SolverConfig,
    TanhTransform,
    dloss_dz,
    derivative_monotonicity_check,
    fd_hessian_psd_check,
    find_nonconvex_witness,
    gd_fit,
    generate_synthetic,
    graded_grid,
    loss_z,
    midpoint_convexity_check,
    multi_restart_fit,
    ols_fit,
    total_gradient,
    total_loss,
    SynthSpec,
)

MASTER_SEED = 20260809


def announce(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {number:02d} {name}: {status}{(' - ' + detail) if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def sweep_configs(rng, count):
    """alpha in (0, 10], y_bound in (0.1, 10], y in [-y_bound, y_bound]."""
    for _ in range(count):
        alpha = rng.uniform(1e-6, 10.0)
        y_bound = rng.uniform(0.1, 10.0)
        y = rng.uniform(-y_bound, y_bound)
        yield alpha, y_bound, y


def closed_form_dloss(alpha, y_bound, z, y):
    root = np.sqrt(alpha * np.abs(z) + 1.0)
    positive = alpha * y_bound**2 - alpha * y_bound * (y_bound + y) / root
    negative = -alpha * y_bound**2 + alpha * y_bound * (y_bound - y) / root
    return np.where(np.asarray(z, dtype=float) >= 0, positive, negative)


def test_01_midpoint_convexity_sweep():
    rng = np.random.default_rng(MASTER_SEED)
    started = time.perf_counter()
    worst = 0.0
    all_passed = True
    for index, (alpha, y_bound, y) in enumerate(sweep_configs(rng, 1000)):
        transform = ConvexSqrtTransform(alpha, y_bound)
        report = midpoint_convexity_check(transform, y, (-100.0, 100.0), 10**4, seed=index)
        worst = min(worst, report.worst_violation)
        all_passed = all_passed and report.passed
    elapsed = time.perf_counter() - started
    announce(
        1,
        "midpoint convexity sweep (1000 configs x 1e4 samples)",
        all_passed and elapsed <= 60.0,
        f"worst normalized slack {worst:.3g}, {elapsed:.1f}s",
    )


def test_02_derivative_monotonicity_and_closed_form():
    rng = np.random.default_rng(MASTER_SEED)
    grid = graded_grid(50.0, 2001)
    worst_diff = np.inf
    worst_rel = 0.0
    all_ok = True
    for alpha, y_bound, y in sweep_configs(rng, 1000):
        transform = ConvexSqrtTransform(alpha, y_bound)
        report = derivative_monotonicity_check(transform, y, grid)
        worst_diff = min(worst_diff, report.worst_violation)
        analytic = dloss_dz(transform, grid, y)
        closed = closed_form_dloss(alpha, y_bound, grid, y)
        rel = np.max(np.abs(analytic - closed) / (1.0 + np.abs(closed)))
        worst_rel = max(worst_rel, rel)
        all_ok = all_ok and report.passed and rel <= 1e-10
    announce(
        2,
        "derivative monotonicity + branch closed form (1000 configs)",
        all_ok,
        f"worst successive diff {worst_diff:.3g}, worst closed-form rel {worst_rel:.3g}",
    )


def test_03_hessian_psd_lift():
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst = 0.0
    all_ok = True
    for _ in range(100):
        alpha = rng.uniform(0.1, 5.0)
        y_bound = rng.uniform(0.1, 5.0)
        transform = ConvexSqrtTransform(alpha, y_bound)
        n = int(rng.integers(10, 51))
        d = int(rng.integers(1, 6))
        features = rng.uniform(-1, 1, (n, d))
        targets = np.clip(rng.uniform(-1.5 * y_bound, 1.5 * y_bound, n), -y_bound, y_bound)
        dataset = Dataset(features, targets)
        for _ in range(5):
            report = fd_hessian_psd_check(dataset, transform, rng.uniform(-1, 1, d))
            worst = min(worst, report.worst_violation)
            all_ok = all_ok and report.passed
    announce(
        3,
        "finite-difference Hessian PSD (100 datasets x 5 points)",
        all_ok,
        f"worst normalized eigenvalue {worst:.3g} (tolerance -1e-5)",
    )


@pytest.mark.filterwarnings("ignore::convexreg.loss.TargetBoundWarning")
def test_04_gradient_matches_finite_differences():
    rng = np.random.default_rng(MASTER_SEED + 4)
    worst = 0.0
    all_ok = True
    for draw in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 6))
        kind = draw % 3
        if kind == 0:
            transform = ConvexSqrtTransform(rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        elif kind == 1:
            transform = AffineTransform(rng.uniform(-2, 2), rng.uniform(-1, 1))
        else:
            transform = TanhTransform(rng.uniform(0.5, 3.0))
        dataset = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-2, 2, n))
        weights = rng.uniform(-1, 1, d)
        model = Model(weights, transform)
        analytic = total_gradient(model, dataset)
        fd = np.empty(d)
        for i in range(d):
            h = 1e-6 * (1.0 + abs(weights[i]))
            up, down = np.array(weights), np.array(weights)
            up[i] += h
            down[i] -= h
            fd[i] = (
                total_loss(Model(up, transform), dataset)
                - total_loss(Model(down, transform), dataset)
            ) / (2 * h)
        rel = np.max(np.abs(analytic - fd) / (1.0 + np.abs(fd)))
        worst = max(worst, rel)
        all_ok = all_ok and rel <= 1e-5
    announce(4, "analytic gradient vs central differences (200 draws)", all_ok, f"worst rel {worst:.3g}")


def test_05_global_optimum_consistency_and_nonconvex_witness():
    rng = np.random.default_rng(MASTER_SEED + 5)
    worst_spread = 0.0
    all_ok = True
    for k in range(20):
        alpha = rng.uniform(0.2, 5.0)
        y_bound = rng.uniform(0.5, 5.0)
        transform = ConvexSqrtTransform(alpha, y_bound)
        d = int(rng.integers(1, 6))
        n = int(rng.integers(min(8 * d, 40), 51))
        dataset = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-y_bound, y_bound, n))
        reports = multi_restart_fit(dataset, transform, 20, SolverConfig(seed=1000 + k))
        losses = np.array([r.final_loss for r in reports])
        spread = (losses.max() - losses.min()) / (1.0 + losses.min())
        worst_spread = max(worst_spread, spread)
        all_ok = all_ok and spread <= 1e-6

    # Nonconvex contrast: adversarial targets at +/- 1.5 * scale.
    scale = 1.0
    tanh = TanhTransform(scale)
    adversarial_targets = np.array([1.5 * scale, -1.5 * scale] * 8)
    Dataset(np.ones((16, 1)), adversarial_targets)  # the crafted dataset loads fine
    search = find_nonconvex_witness(
        tanh,
        np.linspace(-3.0, 3.0, 61),
        np.linspace(-1.5 * scale, 1.5 * scale, 31),
    )
    witness_ok = not search.passed and search.worst_violation <= -1.5
    reference = tanh.curvature(1.0, -1.0)
    reference_ok = abs(reference - (-1.9010266976697454)) <= 1e-9
    h = 1e-5
    fd_ref = (
        loss_z(tanh, 1.0 + h, -1.0) - 2 * loss_z(tanh, 1.0, -1.0) + loss_z(tanh, 1.0 - h, -1.0)
    ) / (h * h)
    reference_ok = reference_ok and abs(fd_ref - reference) <= 1e-4
    announce(
        5,
        "restart consistency (convex) + curvature witness (tanh)",
        all_ok and witness_ok and reference_ok,
        f"worst spread {worst_spread:.3g}; witness value {search.worst_violation:.3f} "
        f"at z={search.witness[0]:.2f}, y={search.witness[1]:.2f}",
    )


def test_06_zero_noise_recovery():
    transform = ConvexSqrtTransform(1.0, 1.0)
    dataset, _ = generate_synthetic(SynthSpec(100, 3, transform, noise_std=0.0, seed=42))
    started = time.perf_counter()
    report = gd_fit(dataset, transform, np.zeros(3), SolverConfig(max_iters=10000))
    elapsed = time.perf_counter() - started
    ok = (
        report.final_loss <= 1e-10 * dataset.n_samples
        and report.iterations <= 10000
        and elapsed <= 5.0
    )
    announce(
        6,
        "zero-noise recovery (N=100, d=3)",
        ok,
        f"loss {report.final_loss:.3g}, {report.iterations} iterations, {elapsed * 1000:.0f}ms",
    )


def test_07_affine_baseline_matches_ols():
    affine = AffineTransform(1.0, 0.0)
    worst = 0.0
    all_ok = True
    for k in range(20):
        rng = np.random.default_rng(MASTER_SEED + 700 + k)
        n = int(rng.integers(20, 201))
        d = int(rng.integers(1, 11))
        dataset = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-2, 2, n))
        ols_loss = total_loss(Model(ols_fit(dataset), affine), dataset)
        report = gd_fit(dataset, affine, np.zeros(d))
        rel = abs(report.final_loss - ols_loss) / (1.0 + ols_loss)
        worst = max(worst, rel)
        all_ok = all_ok and rel <= 1e-8
    announce(7, "gradient descent matches OLS loss (20 affine datasets)", all_ok, f"worst rel gap {worst:.3g}")


def test_08_continuity_at_the_kink():
    rng = np.random.default_rng(MASTER_SEED + 8)
    worst_ratio = 0.0
    all_ok = True
    for _ in range(100):
        alpha = rng.uniform(1e-3, 10.0)
        y_bound = rng.uniform(0.1, 10.0)
        y = rng.uniform(-y_bound, y_bound)
        transform = ConvexSqrtTransform(alpha, y_bound)
        for eps in (1e-3, 1e-5, 1e-7):
            gap = abs(dloss_dz(transform, -eps, y) - dloss_dz(transform, eps, y))
            bound = 10.0 * alpha**2 * y_bound * eps
            worst_ratio = max(worst_ratio, gap / bound)
            all_ok = all_ok and gap <= bound
    announce(8, "loss derivative continuity across z=0 (100 configs)", all_ok, f"worst gap/bound {worst_ratio:.3g}")


def test_09_target_bound_hypothesis_is_load_bearing():
    rng = np.random.default_rng(MASTER_SEED + 9)
    grid = graded_grid(50.0, 2001)
    failures = 0
    smallest = np.inf
    for _ in range(100):
        alpha = rng.uniform(0.1, 10.0)
        y_bound = rng.uniform(0.1, 10.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        transform = ConvexSqrtTransform(alpha, y_bound)
        report = derivative_monotonicity_check(transform, sign * 1.5 * y_bound, grid)
        failures += int(not report.passed)
        smallest = min(smallest, -report.worst_violation)
    announce(
        9,
        "targets at 1.5x the bound break monotonicity (100 configs)",
        failures == 100,
        f"{failures}/100 failed, smallest violation {smallest:.3g}",
    )


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "convexreg", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def normalized(report_text):
    report = json.loads(report_text)
    report["wall_time_ms"] = None
    return json.dumps(report, indent=2, sort_keys=True)


def test_10_cli_determinism_and_schema(tmp_path):
    runs = []
    for _ in range(2):
        code, synth_out, err = run_cli(
            "synth", "--n", 100, "--d", 3, "--noise", 0, "--seed", 7,
            "--out", tmp_path / "data.csv",
        )
        assert code == 0, err
        csv_bytes = (tmp_path / "data.csv").read_bytes()
        code, fit_out, err = run_cli(
            "fit", "--data", tmp_path / "data.csv", "--transform", "convex-sqrt",
            "--alpha", 1.0, "--y-bound", 1.0, "--seed", 7, "--out", tmp_path / "model.json",
        )
        assert code == 0, err
        code, verify_out, err = run_cli(
            "verify", "--transform", "convex-sqrt", "--alpha", 1.0, "--y-bound", 1.0, "--seed", 7,
        )
        assert code == 0, err
        runs.append((csv_bytes, normalized(synth_out), normalized(fit_out), normalized(verify_out)))

    identical = runs[0] == runs[1]

    schema_ok = True
    for text in (runs[0][1], runs[0][2], runs[0][3]):
        report = json.loads(text)
        schema_ok = schema_ok and set(report) == {
            "command", "config_echo", "results", "wall_time_ms", "version",
        }

    code_tanh, tanh_out, _ = run_cli("verify", "--transform", "tanh", "--y-bound", 1.0, "--seed", 7)
    exit_codes_ok = code_tanh == 5 and json.loads(tanh_out)["results"]["all_passed"] is False

    announce(
        10,
        "CLI pipeline: bit-identical reports, schema, verify exit codes",
        identical and schema_ok and exit_codes_ok,
        "two runs identical modulo wall_time_ms; tanh verify exits 5",
    )
