"""Tests for the quasi-Newton descent, OLS, and multi-restart consistency."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    Dataset,
    DimensionMismatchError,
    Model,
    NonFiniteLossError,
    SingularSystemError,
    SolverConfig,
    SynthSpec,
    TanhTransform,
    TargetBoundWarning,
    gd_fit,
    generate_synthetic,
    loss_z,
    multi_restart_fit,
    ols_fit,
    total_gradient,
    total_loss,
)
from convexreg import cli, solver

CS11 = ConvexSqrtTransform(1.0, 1.0)


def golden_section_min(f, lo, hi, iters=200):
    """Minimize a unimodal scalar function; independent oracle for 1-D fits."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    for _ in range(iters):
        if f(c) < f(d):
            b = d
        else:
            a = c
        c = b - ratio * (b - a)
        d = a + ratio * (b - a)
    return 0.5 * (a + b)


def make_realizable(seed, n=100, d=3, transform=CS11):
    rng = np.random.default_rng(seed)
    w_star = rng.uniform(-1, 1, d)
    features = rng.uniform(-1, 1, (n, d))
    targets = transform.evaluate(features @ w_star)
    return Dataset(features, targets), w_star


class TestGdFit:
    def test_realizable_data_reaches_zero_loss(self):
        dataset, _ = make_realizable(seed=301)
        report = gd_fit(dataset, CS11, np.zeros(3))
        assert report.final_loss <= 1e-10 * dataset.n_samples
        assert report.termination == "converged"

    def test_single_sample_matches_golden_section(self):
        target = float(CS11.evaluate(5.0))
        dataset = Dataset(np.array([[1.0]]), np.array([target]))
        with pytest.warns(TargetBoundWarning):
            # g(5) = sqrt(6)-1 > y_bound, so the hypothesis flag fires.
            report = gd_fit(dataset, CS11, np.zeros(1))
        oracle = golden_section_min(lambda z: loss_z(CS11, z, target), 0.0, 10.0)
        np.testing.assert_allclose(oracle, 5.0, atol=1e-8)
        np.testing.assert_allclose(report.final_weights[0], oracle, atol=1e-4)

    def test_already_optimal_start(self):
        dataset, w_star = make_realizable(seed=302)
        report = gd_fit(dataset, CS11, w_star)
        assert report.termination == "converged"
        assert report.iterations <= 1
        np.testing.assert_array_equal(report.final_weights, w_star)

    def test_trace_strictly_decreasing(self):
        dataset, _ = make_realizable(seed=303)
        report = gd_fit(dataset, CS11, np.full(3, 2.0))
        assert report.loss_trace.size == report.iterations + 1
        assert np.all(np.diff(report.loss_trace) < 0)
        assert report.loss_trace[-1] == report.final_loss

    def test_converged_means_gradient_below_tolerance(self):
        dataset, _ = make_realizable(seed=304)
        config = SolverConfig(grad_tol=1e-6)
        report = gd_fit(dataset, CS11, np.zeros(3), config)
        assert report.termination == "converged"
        assert report.final_grad_norm <= config.grad_tol * (1.0 + abs(report.final_loss))

    def test_max_iters_termination(self):
        dataset, _ = make_realizable(seed=305)
        report = gd_fit(dataset, CS11, np.full(3, 5.0), SolverConfig(max_iters=2))
        assert report.termination == "max_iters"
        assert report.iterations == 2

    def test_dimension_mismatch(self):
        dataset, _ = make_realizable(seed=306)
        with pytest.raises(DimensionMismatchError, match="^w0 has 4 entries but the dataset has 3 features$"):
            gd_fit(dataset, CS11, np.zeros(4))

    def test_nonfinite_start_rejected(self):
        dataset, _ = make_realizable(seed=307)
        with pytest.raises(ValueError, match="^w0 must be finite$"):
            gd_fit(dataset, CS11, np.array([np.nan, 0.0, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_loss_at_start(self):
        dataset = Dataset(np.array([[1e200], [1e200]]), np.array([0.0, 0.0]))
        with pytest.raises(NonFiniteLossError):
            gd_fit(dataset, AffineTransform(1.0, 0.0), np.array([1e200]))

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_gradient_norm_at_start(self):
        # The loss at w = 0 is finite, but the slope there scales with alpha.
        dataset = Dataset(np.array([[0.1], [0.3], [-0.5]]), np.array([0.2, 0.4, -0.6]))
        with pytest.raises(NonFiniteLossError, match="gradient norm at the starting point is inf"):
            gd_fit(dataset, ConvexSqrtTransform(1e308, 1.0), np.zeros(1))

    def test_determinism(self):
        dataset, _ = make_realizable(seed=308)
        a = gd_fit(dataset, CS11, np.zeros(3))
        b = gd_fit(dataset, CS11, np.zeros(3))
        assert a.to_dict() == b.to_dict()


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"grad_tol": -1.0},
            {"max_iters": -1},
            {"grad_tol": -0.0},
            {"grad_tol": float("nan")},
            {"grad_tol": float("-inf")},
            {"grad_tol": math.inf},
            {"max_iters": 2.5},
            {"seed": 2.5},
            {"seed": -1},
            {"max_iters": True},
            {"max_iters": False},
            {"seed": True},
            {"seed": False},
        ],
    )
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestOlsFit:
    def test_consistent_system(self):
        dataset = Dataset(np.array([[1.0], [2.0]]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(ols_fit(dataset), [2.0], rtol=1e-12)

    def test_identity_design(self):
        dataset = Dataset(np.eye(2), np.array([3.0, 5.0]))
        np.testing.assert_allclose(ols_fit(dataset), [3.0, 5.0], rtol=1e-12)

    def test_inconsistent_system_minimizes(self):
        dataset = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        # Oracle: scan of (w-1)^2 + (w-3)^2 over a fine grid.
        grid = np.linspace(0, 4, 400001)
        oracle = grid[np.argmin((grid - 1.0) ** 2 + (grid - 3.0) ** 2)]
        np.testing.assert_allclose(oracle, 2.0, atol=1e-5)
        np.testing.assert_allclose(ols_fit(dataset), [2.0], rtol=1e-12)

    def test_residual_gradient_small(self):
        rng = np.random.default_rng(309)
        for _ in range(10):
            n, d = int(rng.integers(20, 100)), int(rng.integers(1, 8))
            features = rng.uniform(-1, 1, (n, d))
            targets = rng.uniform(-2, 2, n)
            dataset = Dataset(features, targets)
            w = ols_fit(dataset)
            residual_gradient = features.T @ (features @ w - targets)
            bound = 1e-8 * (1.0 + np.linalg.norm(features.T @ targets))
            assert np.linalg.norm(residual_gradient) <= bound

    def test_singular_system_names_pivot(self):
        features = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        dataset = Dataset(features, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SingularSystemError) as err:
            ols_fit(dataset)
        assert err.value.pivot_index == 1

    def test_zero_column_is_singular_at_first_pivot(self):
        features = np.array([[0.0, 1.0], [0.0, 2.0]])
        dataset = Dataset(features, np.array([1.0, 2.0]))
        with pytest.raises(SingularSystemError) as err:
            ols_fit(dataset)
        assert err.value.pivot_index == 0

    def test_small_pivot_found_after_the_loop(self):
        # Each pivot passes when it is taken (1 is the largest so far); only the
        # final check sees that 1 is below 1e-12 of the later pivot 1e14.
        dataset = Dataset(np.array([[1.0, 0.0], [0.0, 1e7]]), np.array([1.0, 2.0]))
        with pytest.raises(SingularSystemError) as err:
            ols_fit(dataset)
        assert err.value.pivot_index == 0


class TestMultiRestart:
    def test_requires_at_least_two_restarts(self):
        dataset, _ = make_realizable(seed=310)
        with pytest.raises(ValueError):
            multi_restart_fit(dataset, CS11, 1)
        with pytest.raises(ValueError, match=r"^restarts must be an integer >= 2, got 2.5$"):
            multi_restart_fit(dataset, CS11, 2.5)

    def test_out_of_bound_targets_warn_once(self):
        dataset, _ = make_realizable(seed=312)
        with pytest.warns(TargetBoundWarning) as record:
            multi_restart_fit(dataset, ConvexSqrtTransform(1.0, 0.01), 3, SolverConfig(max_iters=5))
        assert [w.category for w in record] == [TargetBoundWarning]

    def test_concurrent_restarts_leave_the_warning_filters_alone(self):
        rng = np.random.default_rng(313)
        dataset = Dataset(rng.uniform(-1, 1, (200, 3)), rng.uniform(-2.0, 2.0, 200))
        errors = []

        def fit_five_times():
            try:
                for _ in range(5):
                    multi_restart_fit(dataset, CS11, 3, SolverConfig(max_iters=50))
            except Exception as exc:  # surfaced below: a thread cannot fail the test itself
                errors.append(exc)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            before = list(warnings.filters)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=fit_five_times) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert errors == []
            assert warnings.filters == before
            assert [w.category for w in caught] == [TargetBoundWarning] * 20  # one per call
            caught.clear()
            gd_fit(dataset, CS11, np.zeros(3), SolverConfig(max_iters=1))
            assert [w.category for w in caught] == [TargetBoundWarning]

    def test_convex_restarts_agree(self):
        rng = np.random.default_rng(311)
        t = ConvexSqrtTransform(1.3, 2.0)
        dataset = Dataset(rng.uniform(-1, 1, (40, 3)), rng.uniform(-2.0, 2.0, 40))
        reports = multi_restart_fit(dataset, t, 20, SolverConfig(seed=5))
        assert len(reports) == 20
        losses = np.array([r.final_loss for r in reports])
        assert (losses.max() - losses.min()) <= 1e-6 * (1.0 + losses.min())

    def test_affine_restarts_reach_ols_loss(self):
        dataset, _ = make_realizable(seed=312, transform=AffineTransform(1.0, 0.0))
        affine = AffineTransform(1.0, 0.0)
        ols_loss = total_loss(Model(ols_fit(dataset), affine), dataset)
        reports = multi_restart_fit(dataset, affine, 5, SolverConfig(seed=6))
        for report in reports:
            assert abs(report.final_loss - ols_loss) <= 1e-8

    def test_gd_matches_ols_loss_on_noisy_data(self):
        rng = np.random.default_rng(313)
        affine = AffineTransform(1.0, 0.0)
        for _ in range(5):
            n, d = int(rng.integers(20, 200)), int(rng.integers(1, 10))
            dataset = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-2, 2, n))
            ols_loss = total_loss(Model(ols_fit(dataset), affine), dataset)
            report = gd_fit(dataset, affine, np.zeros(d))
            assert abs(report.final_loss - ols_loss) <= 1e-8 * (1.0 + ols_loss)

    def test_tanh_restarts_can_disagree(self):
        # Adversarial targets outside the tanh range create distinct basins.
        rng = np.random.default_rng(314)
        features = rng.uniform(-1, 1, (30, 2))
        targets = np.where(features[:, 0] > 0, 1.5, -1.5)
        dataset = Dataset(features, targets)
        reports = multi_restart_fit(dataset, TanhTransform(1.0), 10, SolverConfig(seed=7))
        losses = np.array([r.final_loss for r in reports])
        assert losses.min() >= 0.0  # sanity; dispersion is informative, not asserted

    def test_determinism_bit_identical(self):
        dataset, _ = make_realizable(seed=315)
        config = SolverConfig(seed=17)
        first = multi_restart_fit(dataset, CS11, 4, config)
        second = multi_restart_fit(dataset, CS11, 4, config)
        for a, b in zip(first, second):
            assert a.to_dict() == b.to_dict()

    def test_restart_order_is_by_index(self):
        dataset, _ = make_realizable(seed=316)
        config = SolverConfig(seed=8)
        reports = multi_restart_fit(dataset, CS11, 3, config)
        radius = 10.0 / (1.0 + float(np.linalg.norm(dataset.features, axis=0).max()))
        for index in range(3):
            rng = np.random.default_rng(config.seed + index)
            w0 = rng.uniform(-radius, radius, dataset.n_features)
            expected = gd_fit(dataset, CS11, w0, config)
            assert reports[index].to_dict() == expected.to_dict()


# Prints the bits of a gradient, a Hessian, a Newton decrement, a short fit
# and a least-squares solution at 200,000 x 21.  Below about that size the thread-unstable reductions
# (c @ X, X.T @ c) still give the same bits at one and two BLAS threads, so
# a smaller matrix would not catch them.
_THREAD_PROBE = textwrap.dedent(
    """
    import json
    import numpy as np
    from convexreg import ConvexSqrtTransform, Dataset, Model, SolverConfig, SynthSpec
    from convexreg import dloss_dz, gd_fit, generate_synthetic, ols_fit, total_gradient
    from convexreg.loss import _gradient, _hessian
    from convexreg.solver import _newton_decrement

    generated, _ = generate_synthetic(SynthSpec(200_000, 20, ConvexSqrtTransform(1.0, 1.0), 0.05, seed=5))
    dataset = Dataset(
        np.column_stack([generated.features, np.ones(generated.n_samples)]), generated.targets
    )
    transform = ConvexSqrtTransform(1.0, 3.0)
    model = Model(np.full(21, 0.1), transform)
    print(total_gradient(model, dataset).tobytes().hex())
    z = dataset.features @ model.weights
    print(_hessian(dataset.features, dataset.targets, transform, z).tobytes().hex())
    grad = _gradient(dataset.features, dloss_dz(transform, z, dataset.targets))
    print(_newton_decrement(dataset.features, dataset.targets, transform, z, grad).hex())
    report = gd_fit(dataset, transform, np.zeros(21), SolverConfig(max_iters=3))
    print(json.dumps(report.to_dict()))
    print(ols_fit(dataset).tobytes().hex())
    """
)


# With Y = 3 this fit reaches the loss's rounding floor, where it is optimal.
STALLED_FIT = SynthSpec(5000, 8, CS11, 0.1, seed=2)


class TestReproducibility:
    def test_reports_independent_of_input_layout(self):
        generated, _ = generate_synthetic(SynthSpec(2000, 5, CS11, 0.05, seed=11))
        transform = ConvexSqrtTransform(1.0, 3.0)
        reports = [
            gd_fit(Dataset(layout(generated.features), generated.targets), transform, np.zeros(5))
            for layout in (np.ascontiguousarray, np.asfortranarray)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()

    def test_reports_independent_of_blas_threads(self):
        outputs = []
        for threads in ("1", "2", "4"):
            proc = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs == [outputs[0]] * len(outputs)

    def test_report_matches_loss_and_gradient_at_final_weights(self):
        generated, _ = generate_synthetic(STALLED_FIT)
        transform = ConvexSqrtTransform(1.0, 3.0)
        report = gd_fit(generated, transform, np.zeros(8))
        assert report.termination == "converged_at_floor"
        model = Model(report.final_weights, transform)
        assert report.final_loss == total_loss(model, generated)
        assert report.final_grad_norm == float(np.linalg.norm(total_gradient(model, generated)))


def slope_at(features, targets, transform, w, direction):
    """``g^T H g``: the gradient at w times a trial's direction ``H g``."""
    slopes = solver._evaluate(features, targets, transform, w)[1]
    return float(np.einsum("i,i->", solver._gradient(features, slopes), direction))


def logged_fit(monkeypatch, dataset, transform, w0):
    """Run gd_fit and return its report and every line-search trial, in order.

    A trial is ``(step, slope, loss, w)``: its step, and the slope
    ``g^T H g``, the loss and the weights of the point it leaves.
    """
    trials = []
    trial = solver._trial

    def logged_trial(features, targets, transform, w, direction, step):
        loss = solver._evaluate(features, targets, transform, w)[2]
        trials.append((step, slope_at(features, targets, transform, w, direction), loss, w))
        return trial(features, targets, transform, w, direction, step)

    monkeypatch.setattr(solver, "_trial", logged_trial)
    return gd_fit(dataset, transform, w0), trials


EPS = np.finfo(float).eps


class TestRoundingFloor:
    """The line search evaluates no trial whose decrease is below the loss's rounding,
    and a fit that stalls there is certified by its Newton decrement."""

    def test_final_search_stops_at_the_floor(self, monkeypatch):
        generated, _ = generate_synthetic(STALLED_FIT)
        report, trials = logged_fit(monkeypatch, generated, ConvexSqrtTransform(1.0, 3.0), np.zeros(8))
        assert report.termination == "converged_at_floor"
        assert trials
        assert all(step * slope >= EPS * loss for step, slope, loss, _ in trials)
        final_search = [t for t in trials if np.array_equal(t[3], report.final_weights)]
        assert len(final_search) <= 3

    def test_realizable_fit_still_converges(self, monkeypatch):
        # The loss falls toward 0, where the rounding floor vanishes.
        generated, _ = generate_synthetic(SynthSpec(5000, 8, CS11, 0.0, seed=2))
        with pytest.warns(TargetBoundWarning):
            report, trials = logged_fit(monkeypatch, generated, CS11, np.zeros(8))
        assert report.termination == "converged"
        assert report.final_loss <= 1e-18
        assert trials
        assert all(step * slope >= EPS * loss for step, slope, loss, _ in trials)

    def test_decrement_is_what_a_quadratic_loss_can_still_lose(self):
        rng = np.random.default_rng(31)
        features, targets = rng.normal(size=(300, 4)), rng.normal(size=300)
        transform, w = AffineTransform(1.5, 0.2), rng.normal(size=4)
        z, slopes, loss = solver._evaluate(features, targets, transform, w)
        grad = solver._gradient(features, slopes)
        best = np.linalg.lstsq(features, (targets - 0.2) / 1.5, rcond=None)[0]
        remaining = loss - solver._evaluate(features, targets, transform, best)[2]
        decrement = solver._newton_decrement(features, targets, transform, z, grad)
        assert decrement == pytest.approx(remaining, rel=1e-9)

    def test_singular_hessian_has_no_decrement(self):
        rng = np.random.default_rng(32)
        column = rng.normal(size=(200, 1))
        features, targets = np.hstack([column, column]), rng.normal(size=200)
        z, slopes, _ = solver._evaluate(features, targets, CS11, np.array([0.3, -0.1]))
        grad = solver._gradient(features, slopes)
        assert solver._newton_decrement(features, targets, CS11, z, grad) == np.inf

    def test_non_finite_hessian_has_no_decrement(self):
        # x^2 = 1e400 overflows, so the Hessian is inf while z, the loss and the gradient are finite.
        features, targets = np.array([[1e200]]), np.array([0.5])
        transform = TanhTransform(1.0)
        z, slopes, _ = solver._evaluate(features, targets, transform, np.array([1e-200]))
        grad = solver._gradient(features, slopes)
        assert np.isfinite(grad).all()
        assert solver._newton_decrement(features, targets, transform, z, grad) == np.inf

    @pytest.mark.parametrize(
        "n, factor", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (4096, 12), (4097, 13)]
    )
    @pytest.mark.parametrize(
        "side, termination",
        [(-math.inf, "converged_at_floor"), (0.0, "converged_at_floor"), (math.inf, "line_search_stalled")],
        ids=["below", "at", "above"],
    )
    def test_floor_is_the_pairwise_sum_rounding_bound(self, monkeypatch, n, factor, side, termination):
        # A failed search is at the floor when the decrement is at most max(1, ceil(log2 N)) * eps * L.
        rng = np.random.default_rng(n)
        dataset = Dataset(rng.normal(size=(n, 2)), rng.normal(size=n))
        transform, w0 = AffineTransform(1.5, 0.2), np.array([0.3, -0.4])
        loss = solver._evaluate(dataset.features, dataset.targets, transform, w0)[2]
        bound = factor * EPS * loss
        decrement = bound if side == 0.0 else float(np.nextafter(bound, side))
        monkeypatch.setattr(
            solver, "_trial", lambda features, targets, t, w, direction, step: (w, None, None, math.inf)
        )
        monkeypatch.setattr(solver, "_newton_decrement", lambda *args: decrement)
        report = gd_fit(dataset, transform, w0)
        assert report.iterations == 0 and report.final_loss == loss
        assert report.termination == termination

    def test_floor_fits_are_within_the_bound_of_least_squares(self, monkeypatch):
        # Affine fits on one-signed features with a bias column are ill-conditioned,
        # so many end at the floor, some with a decrement above eps * L.
        decrements = []
        decrement = solver._newton_decrement

        def recorded_decrement(*args):
            decrements.append(decrement(*args))
            return decrements[-1]

        monkeypatch.setattr(solver, "_newton_decrement", recorded_decrement)
        rng = np.random.default_rng(53)
        affine = AffineTransform(1.0, 0.0)
        above_eps = 0
        for _ in range(40):
            n, d = int(rng.integers(50, 5001)), int(rng.integers(1, 11))
            features = np.column_stack([rng.uniform(0.0, 2.0, (n, d - 1)), np.ones(n)])
            dataset = Dataset(features, rng.uniform(-2.0, 2.0, n))
            report = gd_fit(dataset, affine, np.zeros(d))
            assert report.termination != "line_search_stalled"
            if report.termination == "converged_at_floor":
                bound = math.ceil(math.log2(n)) * EPS * report.final_loss
                ols_loss = total_loss(Model(ols_fit(dataset), affine), dataset)
                assert report.final_loss - ols_loss <= bound
                above_eps += decrements[-1] > EPS * report.final_loss
        assert above_eps >= 2

    @pytest.mark.parametrize(
        "transform",
        [ConvexSqrtTransform(2.0, 1.5), TanhTransform(1.4), AffineTransform(1.5, 0.2)],
        ids=["convex-sqrt", "tanh", "affine"],
    )
    def test_curvature_matches_finite_differences(self, transform):
        z = np.array([-3.0, -0.4, 0.25, 2.0])
        y = np.array([1.5, -0.7, 0.3, -1.5])
        h = 1e-4
        fd = (loss_z(transform, z + h, y) - 2.0 * loss_z(transform, z, y) + loss_z(transform, z - h, y)) / (h * h)
        np.testing.assert_allclose(transform.curvature(z, y), fd, rtol=1e-6, atol=1e-6)


def recorded_searches(monkeypatch):
    """Record every line-search trial as ``(w, direction, step, slope)``, and each Newton decrement as None."""
    events = []
    trial, decrement = solver._trial, solver._newton_decrement

    def recording_trial(features, targets, transform, w, direction, step):
        events.append((w, direction, step, slope_at(features, targets, transform, w, direction)))
        return trial(features, targets, transform, w, direction, step)

    def recording_decrement(*args):
        events.append(None)
        return decrement(*args)

    monkeypatch.setattr(solver, "_trial", recording_trial)
    monkeypatch.setattr(solver, "_newton_decrement", recording_decrement)
    return events


def searches(events):
    """The trials grouped into line searches, one per point they leave."""
    groups = []
    for event in events:
        if event is None:
            continue
        if not groups or not np.array_equal(groups[-1][0][0], event[0]):
            groups.append([])
        groups[-1].append(event)
    return groups


def plain_gradient(dataset, transform, w):
    return [float(v) for v in total_gradient(Model(np.asarray(w), transform), dataset)]


class TestBfgsDirection:
    """Each line search runs along ``-H g``, with H the BFGS inverse-Hessian estimate, from step 1.

    Where it runs along ``-g`` instead, it starts at Polyak's step ``min(1, 2 L / ||g||^2)``.
    """

    def test_second_search_follows_the_bfgs_direction(self, monkeypatch):
        rng = np.random.default_rng(41)
        dataset = Dataset(rng.normal(size=(60, 3)), rng.normal(size=60))
        transform = AffineTransform(1.5, 0.2)
        events = recorded_searches(monkeypatch)
        report = gd_fit(dataset, transform, np.zeros(3), SolverConfig(max_iters=2))
        assert report.iterations == 2
        first, second = searches(events)[:2]
        w0, w1 = [float(v) for v in first[0][0]], [float(v) for v in second[0][0]]
        g0, g1 = plain_gradient(dataset, transform, w0), plain_gradient(dataset, transform, w1)
        # Before the first update the search runs along the gradient, from Polyak's step.
        assert first[0][1].tolist() == pytest.approx(g0, rel=1e-12)
        loss0 = sum((1.5 * 0.0 + 0.2 - y) ** 2 for y in dataset.targets.tolist())  # z = X w0 = 0
        polyak = 2.0 * loss0 / sum(g * g for g in g0)
        assert polyak < 1.0 and first[0][2] == pytest.approx(polyak, rel=1e-12)
        # Nocedal & Wright eq. 6.17 from H0 = (s^T y / y^T y) I (eq. 6.20), in plain floats.
        s = [b - a for a, b in zip(w0, w1)]
        y = [b - a for a, b in zip(g0, g1)]
        sy, yy = sum(a * b for a, b in zip(s, y)), sum(b * b for b in y)
        rho, n = 1.0 / sy, len(s)
        left = [[(i == j) - rho * s[i] * y[j] for j in range(n)] for i in range(n)]
        h0_right = [[(sy / yy) * ((i == j) - rho * y[i] * s[j]) for j in range(n)] for i in range(n)]
        h1 = [
            [sum(left[i][k] * h0_right[k][j] for k in range(n)) + rho * s[i] * s[j] for j in range(n)]
            for i in range(n)
        ]
        expected = [sum(h1[i][j] * g1[j] for j in range(n)) for i in range(n)]
        assert second[0][2] == 1.0
        np.testing.assert_allclose(second[0][1], expected, rtol=1e-10, atol=1e-12 * max(map(abs, expected)))
        assert second[0][3] == pytest.approx(sum(a * b for a, b in zip(g1, expected)), rel=1e-10)
        # The direction is not a multiple of the gradient: H is not a scaled identity.
        assert abs(np.dot(expected, g1)) < 0.999 * np.linalg.norm(expected) * np.linalg.norm(g1)

    @pytest.mark.parametrize(
        "s, y",
        [
            ([1.0, 0.0], [-1.0, 0.0]),  # s^T y < 0
            ([1.0, 0.0], [0.0, 1.0]),  # s^T y = 0
            ([1e200, 0.0], [1e200, 0.0]),  # s^T y overflows
            ([np.nan, 0.0], [1.0, 0.0]),  # s^T y is nan
        ],
        ids=["negative-curvature", "orthogonal", "overflow", "nan"],
    )
    @pytest.mark.parametrize("inverse", [None, np.array([[2.0, 0.5], [0.5, 1.0]])], ids=["first", "later"])
    def test_curvature_condition_failure_skips_the_update(self, s, y, inverse):
        assert solver._bfgs_update(inverse, np.array(s), np.array(y)) is inverse

    @pytest.mark.parametrize("inverse", [None, np.array([[2.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 3.0]])])
    def test_update_meets_the_secant_equation_and_stays_symmetric(self, inverse):
        s, y = np.array([0.3, -1.2, 0.7]), np.array([0.5, -0.9, 1.1])
        updated = solver._bfgs_update(inverse, s, y)
        np.testing.assert_allclose(updated @ y, s, rtol=1e-12)
        assert np.array_equal(updated, updated.T)
        assert np.all(np.linalg.eigvalsh(updated) > 0.0)

    @pytest.mark.parametrize(
        "inverse",
        [-np.eye(2), np.zeros((2, 2)), np.full((2, 2), np.nan), np.full((2, 2), 1e308)],
        ids=["negative-definite", "zero", "nan", "overflowing"],
    )
    def test_non_descent_direction_falls_back_to_the_gradient(self, inverse):
        grad = np.array([3.0, 4.0])
        direction, slope, step = solver._direction(inverse, grad, 5.0, 10.0)
        assert direction is grad and slope == 25.0 and step == 2.0 * 10.0 / 25.0

    @pytest.mark.parametrize(
        "grad_norm, loss",
        [
            (5.0, 100.0),  # 2 L / ||g||^2 = 8: capped at 1
            (5.0, 12.5),  # exactly 1
            (1e200, 1.0),  # ||g||^2 overflows to inf, so 2 L / ||g||^2 = 0
            (1e-170, 1.0),  # ||g||^2 underflows to 0
            (5.0, 0.0),  # a zero loss gives a zero step
            (1e-10, 1e300),  # 2 L / ||g||^2 overflows to inf
        ],
        ids=["capped", "one", "norm-squared-overflows", "norm-squared-underflows", "zero-loss", "ratio-overflows"],
    )
    def test_gradient_step_is_one_where_polyak_is_not_below_one(self, grad_norm, loss):
        grad = np.array([grad_norm, 0.0])
        direction, slope, step = solver._direction(None, grad, grad_norm, loss)
        assert direction is grad and slope == grad_norm * grad_norm and step == 1.0

    def test_fit_with_an_unusable_estimate_runs_along_the_gradient(self, monkeypatch):
        # Every update returns a negative-definite H, so every search falls back to -g.
        monkeypatch.setattr(solver, "_bfgs_update", lambda inverse, s, y: -np.eye(s.size))
        events = recorded_searches(monkeypatch)
        dataset, _ = make_realizable(seed=42)
        report = gd_fit(dataset, CS11, np.zeros(3), SolverConfig(max_iters=10))
        groups = searches(events)
        assert len(groups) == report.iterations == 10
        for search in groups:
            w, direction, step, slope = search[0]
            g = plain_gradient(dataset, CS11, w)
            assert direction.tolist() == g
            assert slope > 0.0
            polyak = 2.0 * total_loss(Model(w, CS11), dataset) / sum(v * v for v in g)
            assert step == pytest.approx(min(1.0, polyak), rel=1e-12)
        assert np.all(np.diff(report.loss_trace) < 0)


def with_bias(generated):
    return Dataset(np.column_stack([generated.features, np.ones(generated.n_samples)]), generated.targets)


class TestWorkCounts:
    """Iteration, trial and stall counts that the quasi-Newton direction and Polyak's first step brought down."""

    def test_first_search_takes_one_trial(self, monkeypatch):
        # Seed 1 of the benchmark's CSV pipeline data.  From step 1 along -g the
        # first search took 15 trials, and the whole fit 24.
        generated, _ = generate_synthetic(SynthSpec(20_000, 20, CS11, 0.05, seed=1))
        events = recorded_searches(monkeypatch)
        gd_fit(with_bias(generated), ConvexSqrtTransform(1.0, 3.0), np.zeros(21))
        groups = searches(events)
        assert len(groups[0]) == 1
        assert sum(map(len, groups)) <= 12

    def test_auto_bound_restarts_need_few_iterations(self):
        # Y = max |y| puts the largest target on the bound, where the curvature
        # vanishes: doubling the step took 33,178 iterations here, and the
        # Barzilai-Borwein step 433.
        generated, _ = generate_synthetic(SynthSpec(20_000, 8, CS11, 0.05, seed=0))
        dataset = with_bias(generated)
        transform = ConvexSqrtTransform(1.0, float(np.abs(dataset.targets).max()))
        reports = multi_restart_fit(dataset, transform, 20)
        assert sum(r.iterations for r in reports) <= 300
        assert all(r.termination in cli._OPTIMAL for r in reports)

    @pytest.mark.filterwarnings("ignore::convexreg.TargetBoundWarning")
    def test_stalls_over_a_fixed_sweep(self):
        # Doubling the step stalled 49 of these 480 fits, the Barzilai-Borwein step 13
        # and BFGS 11.  Each stalled fit had a Newton decrement of 1.0-3.2 eps * L, inside
        # the rounding of the loss's pairwise sum, which the floor rule now allows for.
        stalls = 0
        for seed in range(10):
            for n, d in ((3000, 6), (5000, 12)):
                dataset = with_bias(generate_synthetic(SynthSpec(n, d, CS11, 0.05, seed=seed))[0])
                for transform in (ConvexSqrtTransform(1.0, 3.0), ConvexSqrtTransform(1.0, 2.0), TanhTransform(3.0)):
                    reports = multi_restart_fit(dataset, transform, 8, SolverConfig(seed=seed))
                    stalls += sum(r.termination == "line_search_stalled" for r in reports)
        assert stalls == 0
