"""Tests for the convexity certification lab."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    Dataset,
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidGridError,
    Model,
    NonFiniteHessianError,
    SynthSpec,
    TanhTransform,
    UnsupportedTransformError,
    derivative_monotonicity_check,
    dloss_dz,
    fd_hessian_psd_check,
    find_nonconvex_witness,
    generate_synthetic,
    graded_grid,
    loss_z,
    midpoint_convexity_check,
    psd_condition_value,
    total_loss,
    verification_battery,
)
from convexreg import loss
from convexreg.convexity import _fd_hessian, _stencil
from convexreg.loss import _evaluate, _losses

CS11 = ConvexSqrtTransform(1.0, 1.0)
TANH1 = TanhTransform(1.0)
AFF = AffineTransform(1.0, 0.0)


def directional_second_difference(dataset, transform, w, direction, step=1e-5):
    """Independent oracle for v^T H v along a unit direction."""

    def value(point):
        return total_loss(Model(point, transform), dataset)

    h = step * (1.0 + float(np.linalg.norm(w)))
    return (value(w + h * direction) - 2.0 * value(w) + value(w - h * direction)) / (h * h)


class TestGradedGrid:
    def test_shape_and_symmetry(self):
        grid = graded_grid(50.0, 2001)
        assert grid.size == 2001
        assert np.all(np.diff(grid) > 0)
        assert grid[1000] == 0.0
        np.testing.assert_array_equal(grid, -grid[::-1])
        assert grid[-1] == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_grid(50.0, 2000)
        with pytest.raises(ValueError):
            graded_grid(0.0, 2001)
        with pytest.raises(ValueError):
            graded_grid(50.0, 1)


class TestMidpointCheck:
    def test_convex_sqrt_passes(self):
        report = midpoint_convexity_check(CS11, 0.5, (-100.0, 100.0), 10**4, seed=1)
        assert report.passed
        assert report.samples_tested == 10**4
        assert report.worst_violation >= -1e-9

    def test_affine_passes(self):
        for y in (-3.0, 0.0, 2.0):
            assert midpoint_convexity_check(AFF, y, (-100.0, 100.0), 10**4, seed=2).passed

    def test_tanh_fails_with_sound_witness(self):
        report = midpoint_convexity_check(TANH1, -1.0, (0.0, 3.0), 10**4, seed=3)
        assert not report.passed
        z1, z2, lam = report.witness
        l1 = loss_z(TANH1, z1, -1.0)
        l2 = loss_z(TANH1, z2, -1.0)
        lmid = loss_z(TANH1, lam * z1 + (1 - lam) * z2, -1.0)
        slack = (lam * l1 + (1 - lam) * l2 - lmid) / (1.0 + max(l1, l2, lmid))
        assert slack < 0.5 * report.worst_violation  # violated by more than half

    def test_validation(self):
        with pytest.raises(ValueError):
            midpoint_convexity_check(CS11, 0.0, (1.0, 1.0), 10)
        with pytest.raises(ValueError):
            midpoint_convexity_check(CS11, 0.0, (0.0, 1.0), 0)
        with pytest.raises(ValueError):
            midpoint_convexity_check(CS11, 0.0, (0.0, 1.0), 10, tol=0.0)

    def test_seed_reproducibility(self):
        a = midpoint_convexity_check(CS11, 0.5, (-10, 10), 1000, seed=9)
        b = midpoint_convexity_check(CS11, 0.5, (-10, 10), 1000, seed=9)
        assert a.to_dict() == b.to_dict()


class TestMonotonicityCheck:
    def test_convex_sqrt_passes_in_bound(self):
        grid = graded_grid(50.0, 2001)
        report = derivative_monotonicity_check(ConvexSqrtTransform(2.0, 3.0), 2.0, grid)
        assert report.passed

    def test_fails_outside_bound(self):
        grid = graded_grid(50.0, 2001)
        report = derivative_monotonicity_check(CS11, 1.5, grid)
        assert not report.passed
        lo, hi = report.witness
        assert dloss_dz(CS11, hi, 1.5) < dloss_dz(CS11, lo, 1.5)

    def test_tanh_fails_near_one(self):
        grid = np.linspace(0.0, 3.0, 601)
        report = derivative_monotonicity_check(TANH1, -1.0, grid)
        assert not report.passed
        lo, hi = report.witness
        assert 0.3 <= lo <= 2.0  # violation localized around z ~ 1
        drop = dloss_dz(TANH1, hi, -1.0) - dloss_dz(TANH1, lo, -1.0)
        assert drop < 0.5 * report.worst_violation

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [0.0, 2.0, 1.0])
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [1.0])
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [1.0, 1.0, 2.0])


class TestHessianCheck:
    def test_convex_sqrt_passes(self):
        rng = np.random.default_rng(401)
        t = ConvexSqrtTransform(1.5, 2.0)
        dataset = Dataset(rng.uniform(-1, 1, (30, 3)), rng.uniform(-2.0, 2.0, 30))
        for _ in range(3):
            report = fd_hessian_psd_check(dataset, t, rng.uniform(-1, 1, 3))
            assert report.passed

    def test_affine_hessian_is_twice_gram(self):
        rng = np.random.default_rng(402)
        features = rng.uniform(-1, 1, (20, 3))
        dataset = Dataset(features, rng.uniform(-1, 1, 20))
        w = rng.uniform(-1, 1, 3)
        report = fd_hessian_psd_check(dataset, AFF, w)
        assert report.passed
        steps = 1e-5 * (1.0 + np.abs(w))
        hessian = _fd_hessian(dataset, AFF, w, steps)
        # quadratic objective: exact up to finite-difference cancellation noise
        np.testing.assert_allclose(hessian, 2.0 * features.T @ features, atol=1e-4)

    def test_tanh_crafted_sample_fails_with_known_eigenvalue(self):
        dataset = Dataset(np.array([[1.0]]), np.array([-1.0]))
        report = fd_hessian_psd_check(dataset, TANH1, np.array([1.0]))
        assert not report.passed
        w, direction = report.witness
        # d = 1, x = 1: the Hessian equals the pointwise curvature at (z=1, y=-1).
        second = directional_second_difference(dataset, TANH1, np.asarray(w), np.asarray(direction))
        np.testing.assert_allclose(second, -1.9010266976697454, rtol=1e-4)
        np.testing.assert_allclose(second, psd_condition_value(TANH1, 1.0, -1.0), rtol=1e-4)

    def test_symmetry_invariant(self):
        rng = np.random.default_rng(403)
        dataset = Dataset(rng.uniform(-1, 1, (25, 4)), rng.uniform(-1, 1, 25))
        w = rng.uniform(-1, 1, 4)
        steps = 1e-5 * (1.0 + np.abs(w))
        hessian = _fd_hessian(dataset, ConvexSqrtTransform(1.0, 1.0), w, steps)
        asymmetry = np.abs(hessian - hessian.T).max()
        assert asymmetry <= 100.0 * 1e-5 * (1.0 + np.abs(hessian).max())

    def test_dimension_cap(self):
        rng = np.random.default_rng(404)
        dataset = Dataset(rng.uniform(-1, 1, (60, 51)), rng.uniform(-1, 1, 60))
        with pytest.raises(DimensionTooLargeError):
            fd_hessian_psd_check(dataset, CS11, np.zeros(51))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(405)
        dataset = Dataset(rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, 10))
        with pytest.raises(DimensionMismatchError):
            fd_hessian_psd_check(dataset, CS11, np.zeros(2))


def per_point_fd_hessian(dataset, transform, w, steps):
    """The central-difference Hessian with one mat-vec loss evaluation per stencil point."""

    def value(point):
        return _evaluate(dataset.features, dataset.targets, transform, point)[2]

    d = w.size
    hessian = np.empty((d, d))
    base = value(w)
    for i in range(d):
        e_i = np.zeros(d)
        e_i[i] = steps[i]
        hessian[i, i] = (value(w + e_i) - 2.0 * base + value(w - e_i)) / (steps[i] * steps[i])
        for j in range(i + 1, d):
            e_j = np.zeros(d)
            e_j[j] = steps[j]
            hessian[i, j] = hessian[j, i] = (
                value(w + e_i + e_j) - value(w + e_i - e_j) - value(w - e_i + e_j) + value(w - e_i - e_j)
            ) / (4.0 * steps[i] * steps[j])
    return hessian


def hessian_problem(n, d, seed):
    generated, weights = generate_synthetic(SynthSpec(n, d, CS11, 0.05, seed=seed))
    w = weights + np.random.default_rng(seed).uniform(-0.5, 0.5, d)
    return generated, w, 1e-5 * (1.0 + np.abs(w))


# Prints the bytes of the stencil losses at 2,621 x 20 (801 points in blocks
# of 49).  Unpadded, 2,621 samples leave a partial GEMM tile whose place
# depends on the thread split, and OpenBLAS's bits change with it.
_STENCIL_PROBE = textwrap.dedent(
    """
    from convexreg import ConvexSqrtTransform, SynthSpec, generate_synthetic
    from convexreg.convexity import _stencil
    from convexreg.loss import _losses

    generated, w = generate_synthetic(SynthSpec(2621, 20, ConvexSqrtTransform(1.0, 1.0), 0.05, seed=9))
    points = _stencil(w, 1e-5 * (1.0 + abs(w)))
    print(_losses(generated.features, generated.targets, ConvexSqrtTransform(1.0, 3.0), points).tobytes().hex())
    """
)


class TestBlockedStencil:
    """The stencil losses come from row blocks of one GEMM each."""

    @pytest.mark.parametrize("transform", [ConvexSqrtTransform(1.0, 3.0), TanhTransform(2.0), AffineTransform(1.5, 0.2)],
                             ids=repr)
    def test_matches_per_point_reference(self, transform):
        dataset, w, steps = hessian_problem(500, 6, seed=31)
        hessian = _fd_hessian(dataset, transform, w, steps)
        reference = per_point_fd_hessian(dataset, transform, w, steps)
        losses = [_evaluate(dataset.features, dataset.targets, transform, p)[2] for p in _stencil(w, steps)]
        # Each of the four losses in an entry may differ from its mat-vec value
        # by a few ulps of the largest loss, since a GEMM rounds z differently.
        bound = 16.0 * np.finfo(float).eps * max(np.abs(losses)) / np.outer(steps, steps)
        assert np.all(np.abs(hessian - reference) <= bound)
        # Far below the entries themselves, so a misplaced or mis-signed point shows.
        assert bound.max() < 1e-4 * np.abs(reference).max()

    def test_stencil_rows(self):
        w, steps = np.array([1.0, -0.0, 2.0]), np.array([0.5, 0.25, 0.125])
        points = _stencil(w, steps)
        assert points.shape == (19, 3)
        expected = [w]
        for i in range(3):
            for sign in (1.0, -1.0):
                expected.append(w + 0.0 + sign * steps[i] * np.eye(3)[i])
        for i in range(3):
            for j in range(i + 1, 3):
                for si, sj in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                    expected.append(w + 0.0 + si * steps[i] * np.eye(3)[i] + sj * steps[j] * np.eye(3)[j])
        assert np.array_equal(points, np.array(expected))

    def test_same_bytes_for_every_block_split(self, monkeypatch):
        # At 1,000 x 4 a one-row product (gemv) changes the last point's bits.
        dataset, w, steps = hessian_problem(1000, 4, seed=32)
        points = _stencil(w, steps)  # 33 points
        transform = ConvexSqrtTransform(1.0, 3.0)
        padded_rows = 1024
        monkeypatch.setattr(loss, "_BLOCK_ELEMENTS", padded_rows * points.shape[0])
        whole = _losses(dataset.features, dataset.targets, transform, points)
        # Blocks of 1 (raised to 2) to 32 rows; 2, 4, 8, 16 and 32 would leave a last block of one point.
        for rows in range(1, points.shape[0]):
            monkeypatch.setattr(loss, "_BLOCK_ELEMENTS", padded_rows * rows)
            split = _losses(dataset.features, dataset.targets, transform, points)
            assert split.tobytes() == whole.tobytes(), rows

    def test_same_bytes_at_one_and_two_blas_threads(self):
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _STENCIL_PROBE],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_non_finite_loss_raises(self):
        dataset = Dataset(np.array([[1.0], [2.0]]), np.array([1e200, -1e200]))
        with pytest.raises(NonFiniteHessianError, match="loss is not finite at 3 of 3"):
            fd_hessian_psd_check(dataset, CS11, np.array([0.5]))

    def test_non_finite_entry_raises(self):
        # The steps square to zero: finite losses, 0/0 entries.
        dataset = Dataset(np.array([[1.0, 0.5], [2.0, -1.0]]), np.array([0.3, -0.2]))
        with pytest.raises(NonFiniteHessianError, match=r"entry \(0, 0\) is nan"):
            fd_hessian_psd_check(dataset, CS11, np.array([0.5, 1.0]), fd_step=1e-300)


class TestWitnessSearch:
    def test_tanh_witness_found(self):
        witness = find_nonconvex_witness(
            TANH1, np.linspace(-3, 3, 61), np.linspace(-1, 1, 21)
        )
        assert witness is not None
        z, y, value = witness
        assert value <= -1.5
        # Independent confirmation by second-order finite differences.
        h = 1e-5
        fd = (loss_z(TANH1, z + h, y) - 2 * loss_z(TANH1, z, y) + loss_z(TANH1, z - h, y)) / (h * h)
        np.testing.assert_allclose(fd, value, atol=1e-4)
        assert abs(abs(z) - 1.0) <= 0.2  # near the reference point

    def test_affine_has_no_witness(self):
        assert find_nonconvex_witness(AFF, np.linspace(-3, 3, 61), np.linspace(-1, 1, 21)) is None

    def test_convex_sqrt_unsupported(self):
        with pytest.raises(UnsupportedTransformError):
            find_nonconvex_witness(CS11, np.linspace(-3, 3, 61), np.linspace(-1, 1, 21))

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            find_nonconvex_witness(TANH1, [], [0.0])


class TestCrossValidationOfChecks:
    def test_monotone_derivative_implies_midpoint_convex(self):
        rng = np.random.default_rng(406)
        grid = graded_grid(50.0, 801)
        cases = []
        for _ in range(30):
            alpha = rng.uniform(0.1, 5.0)
            y_bound = rng.uniform(0.1, 5.0)
            y = rng.uniform(-1.5 * y_bound, 1.5 * y_bound)
            cases.append((ConvexSqrtTransform(alpha, y_bound), y))
        cases.extend([(TANH1, -1.0), (TANH1, 0.5), (AFF, 1.0)])
        for index, (transform, y) in enumerate(cases):
            mono = derivative_monotonicity_check(transform, y, grid)
            if mono.passed:
                mid = midpoint_convexity_check(
                    transform, y, (-50.0, 50.0), 4000, seed=500 + index
                )
                assert mid.passed, (transform, y)

    def test_converse_raises_alarm_only(self):
        # Midpoint sampling can miss a violation the grid catches; that is
        # an expected sensitivity gap, so it is reported, never asserted.
        rng = np.random.default_rng(409)
        grid = graded_grid(50.0, 801)
        alarms = []
        for index in range(20):
            y_bound = rng.uniform(0.1, 5.0)
            transform = ConvexSqrtTransform(rng.uniform(0.1, 5.0), y_bound)
            y = rng.uniform(-1.3 * y_bound, 1.3 * y_bound)
            mid = midpoint_convexity_check(transform, y, (-50.0, 50.0), 2000, seed=700 + index)
            if mid.passed and not derivative_monotonicity_check(transform, y, grid).passed:
                alarms.append((transform, y))
        for transform, y in alarms:
            print(f"alarm: midpoint sampling missed a violation at y={y:g} for {transform}")


class TestBoundaryOfTheGuarantee:
    def test_in_bound_configurations_pass_all_checks(self):
        rng = np.random.default_rng(407)
        grid = graded_grid(50.0, 801)
        for k in range(100):
            alpha = rng.uniform(1e-6, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            y = rng.uniform(-y_bound, y_bound)
            t = ConvexSqrtTransform(alpha, y_bound)
            assert derivative_monotonicity_check(t, y, grid).passed
            assert midpoint_convexity_check(t, y, (-100, 100), 2000, seed=600 + k).passed
            features = rng.uniform(-1, 1, (15, 2))
            targets = np.clip(rng.uniform(-2 * y_bound, 2 * y_bound, 15), -y_bound, y_bound)
            dataset = Dataset(features, targets)
            assert fd_hessian_psd_check(dataset, t, rng.uniform(-1, 1, 2)).passed

    def test_out_of_bound_targets_break_monotonicity(self):
        rng = np.random.default_rng(408)
        grid = graded_grid(50.0, 2001)
        for _ in range(100):
            alpha = rng.uniform(0.1, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            u = rng.uniform(0.0, 1.0)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            y = sign * y_bound * (1.0 + u)
            t = ConvexSqrtTransform(alpha, y_bound)
            report = derivative_monotonicity_check(t, y, grid)
            if u >= 0.5:
                assert not report.passed, (alpha, y_bound, u)


class TestVerificationBattery:
    def test_convex_sqrt_all_pass(self):
        checks = verification_battery(ConvexSqrtTransform(1.0, 1.0), 1.0, 4000, seed=0)
        assert all(c.passed for c in checks)
        names = [c.check_name for c in checks]
        assert not any("witness" in name for name in names)

    def test_affine_all_pass_including_witness_search(self):
        checks = verification_battery(AFF, 1.0, 4000, seed=0)
        assert all(c.passed for c in checks)
        assert any(c.check_name == "nonconvex_witness_search" for c in checks)

    def test_tanh_fails(self):
        checks = verification_battery(TANH1, 1.0, 4000, seed=0)
        failed = [c for c in checks if not c.passed]
        assert failed
        assert any(c.check_name == "nonconvex_witness_search" for c in failed)

    def test_deterministic(self):
        a = verification_battery(ConvexSqrtTransform(2.0, 1.5), 1.5, 2000, seed=11)
        b = verification_battery(ConvexSqrtTransform(2.0, 1.5), 1.5, 2000, seed=11)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


class TestReportRendering:
    def test_describe_mentions_sample_count_on_pass(self):
        report = midpoint_convexity_check(CS11, 0.0, (-10, 10), 500, seed=1)
        text = report.describe()
        assert "no violation found among 500 samples" in text

    def test_describe_mentions_witness_on_failure(self):
        report = midpoint_convexity_check(TANH1, -1.0, (0.0, 3.0), 10**4, seed=3)
        assert "witness" in report.describe()

    def test_to_dict_is_json_ready(self):
        import json

        report = fd_hessian_psd_check(
            Dataset(np.array([[1.0]]), np.array([-1.0])), TANH1, np.array([1.0])
        )
        json.dumps(report.to_dict())
