"""Tests for the composed squared loss and its derivatives."""

import copy
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    Dataset,
    DimensionMismatchError,
    Model,
    TanhTransform,
    TargetBoundWarning,
    dloss_dz,
    estimate_target_bound,
    loss_z,
    total_gradient,
    total_loss,
)
from convexreg.loss import _bound_violation, _evaluate, _gemv_tiles, _gradient, _hessian, _tiles

CS11 = ConvexSqrtTransform(1.0, 1.0)


def fd_dloss(transform, z, y, step=1e-7):
    """Central finite difference of loss_z in z; the independent oracle."""
    return (loss_z(transform, z + step, y) - loss_z(transform, z - step, y)) / (2.0 * step)


def fd_gradient(model, dataset, step=1e-6):
    """Coordinate-wise central differences of total_loss in the weights."""
    w = model.weights
    grad = np.empty_like(w)
    for i in range(w.size):
        h = step * (1.0 + abs(w[i]))
        up = np.array(w)
        up[i] += h
        down = np.array(w)
        down[i] -= h
        grad[i] = (
            total_loss(Model(up, model.transform), dataset)
            - total_loss(Model(down, model.transform), dataset)
        ) / (2.0 * h)
    return grad


def closed_form_dloss(alpha, y_bound, z, y):
    """Branch formula for the loss derivative of the square-root transform."""
    root = np.sqrt(alpha * np.abs(z) + 1.0)
    positive = alpha * y_bound**2 - alpha * y_bound * (y_bound + y) / root
    negative = -alpha * y_bound**2 + alpha * y_bound * (y_bound - y) / root
    return np.where(np.asarray(z, dtype=float) >= 0, positive, negative)


# Inputs the elementwise kernels must take without writing to them: scalars,
# 0-d, 1-D, 2-D, strided, float32 and int arrays, holding signed zeros,
# subnormals, values near the float64 limit, infinities and nan.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-3, -3.5, 123.0, 1e308, -1e308, np.inf, -np.inf, np.nan]
KERNEL_INPUTS = {
    "float": 2.5,
    "huge-float": -1e308,
    "int": 3,
    "numpy-int": np.int64(-7),
    "0-d": np.array(1e308),
    "0-d-negative-zero": np.array(-0.0),
    "1-D": np.array(_SPECIAL),
    "2-D": np.array(_SPECIAL).reshape(3, 4),
    "strided": np.repeat(_SPECIAL, 2)[::2],
    "float32": np.array([0.0, -0.0, 1e-45, 1e38, -3.4e38, np.inf, np.nan, -2.0], dtype=np.float32),
    "int-array": np.array([-3, 0, 2, 10**15]),
}
KERNEL_TRANSFORMS = [
    ConvexSqrtTransform(1.0, 1.0),
    ConvexSqrtTransform(10.0, 3.0),
    ConvexSqrtTransform(1e308, 1.0),
    ConvexSqrtTransform(1e-300, 2.0),
]


def reference_root(t, z):
    """The out-of-place convex-sqrt root: one new array per operation."""
    with np.errstate(over="ignore"):
        root = np.sqrt(t.alpha * np.abs(z) + 1.0)
    overflowed = np.isinf(root)
    if overflowed.any():
        root = np.where(overflowed, np.sqrt(t.alpha) * np.sqrt(np.abs(z)), root)[()]
    return root


def assert_same_value(actual, expected):
    """Same type, dtype, shape and bytes (nan payloads and signed zeros included)."""
    assert type(actual) is type(expected)
    assert np.asarray(actual).dtype == np.asarray(expected).dtype
    assert np.shape(actual) == np.shape(expected)
    assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


class TestInPlaceKernels:
    """The kernels finish their new arrays in place: the out-of-place bits and types, inputs untouched."""

    @pytest.mark.parametrize("name", KERNEL_INPUTS)
    @pytest.mark.parametrize("t", KERNEL_TRANSFORMS, ids=repr)
    def test_convex_sqrt_matches_out_of_place_formula(self, t, name):
        z = KERNEL_INPUTS[name]
        before = copy.deepcopy(z)
        with np.errstate(all="ignore"):
            expected_value = np.sign(z) * (t.y_bound * (reference_root(t, z) - 1.0))
            expected_slope = t.y_bound * t.alpha / (2.0 * reference_root(t, z))
            value, slope = t.evaluate(z), t.derivative(z)
        assert_same_value(value, expected_value)
        assert_same_value(slope, expected_slope)
        assert_same_value(z, before)

    @pytest.mark.parametrize("name", KERNEL_INPUTS)
    @pytest.mark.parametrize("t", [*KERNEL_TRANSFORMS, AffineTransform(2.0, 0.5), TanhTransform(1.5)], ids=repr)
    def test_value_and_derivative_match_evaluate_and_derivative(self, t, name, monkeypatch):
        # alpha = 1e308 with |z| >= 1e308 takes the root's overflow rescale.
        z = KERNEL_INPUTS[name]
        before = copy.deepcopy(z)
        with np.errstate(all="ignore"):
            expected = t.evaluate(z), t.derivative(z)
            calls = []
            for owner, attribute in ((np, "tanh"), (ConvexSqrtTransform, "_root")):
                original = getattr(owner, attribute)
                monkeypatch.setattr(owner, attribute, lambda *args, original=original: calls.append(0) or original(*args))
            value, slope = t._value_and_derivative(z)
        assert_same_value(value, expected[0])
        assert_same_value(slope, expected[1])
        assert_same_value(z, before)
        # One root for convex-sqrt, one tanh for tanh, none for affine.
        assert len(calls) == (0 if isinstance(t, AffineTransform) else 1)

    @pytest.mark.parametrize("y", [0.5, np.float64(-2.0), 3, np.linspace(-1.0, 1.0, 12).reshape(3, 4)],
                             ids=["float", "numpy-float", "int", "array"])
    @pytest.mark.parametrize("name", KERNEL_INPUTS)
    @pytest.mark.parametrize("t", [CS11, AffineTransform(2.0, 0.5), TanhTransform(1.5)], ids=repr)
    def test_loss_z_matches_out_of_place_formula(self, t, name, y):
        z = KERNEL_INPUTS[name]
        if np.ndim(y) and np.ndim(z) and np.shape(z) != np.shape(y):
            z = np.resize(z, np.shape(y))  # broadcastable, same values
        before_z, before_y = copy.deepcopy(z), copy.deepcopy(y)
        with np.errstate(all="ignore"):
            residual = t.evaluate(z) - y
            expected = residual * residual
            actual = loss_z(t, z, y)
            expected_slope = 2.0 * (t.evaluate(z) - y) * t.derivative(z)
            actual_slope = dloss_dz(t, z, y)
        assert_same_value(actual, expected)
        assert_same_value(actual_slope, expected_slope)
        assert_same_value(z, before_z)
        assert_same_value(y, before_y)

    @pytest.mark.parametrize("t", [CS11, AffineTransform(2.0, 0.5), TanhTransform(1.5)], ids=repr)
    def test_dataset_kernel_matches_out_of_place_formula(self, t):
        rng = np.random.default_rng(210)
        features, targets = rng.normal(size=(40, 3)), rng.normal(size=40)
        targets[:3] = [1e200, -1e200, 0.0]
        frozen = features.copy(), targets.copy()
        for w in (rng.normal(size=3), np.zeros(3), np.full(3, 1e200)):
            with np.errstate(all="ignore"):
                z = np.asfortranarray(features) @ w  # the column-major response, whatever the input layout
                residual = t.evaluate(z) - targets
                expected = (z, 2.0 * residual * t.derivative(z), float(np.sum(residual * residual)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an overflowing loss is inf without a RuntimeWarning
                actual = _evaluate(features, targets, t, w)
            for got, want in zip(actual, expected):
                assert_same_value(got, want)
        assert_same_value(features, frozen[0])
        assert_same_value(targets, frozen[1])


class TestLossZ:
    def test_examples(self):
        assert loss_z(CS11, 0.0, 1.0) == 1.0
        assert loss_z(CS11, 3.0, 1.0) == 0.0
        assert loss_z(CS11, 3.0, 0.5) == 0.25

    def test_nonnegative(self):
        rng = np.random.default_rng(201)
        z = rng.uniform(-100, 100, 1000)
        y = rng.uniform(-5, 5, 1000)
        assert np.all(loss_z(CS11, z, y) >= 0)


class TestDlossDz:
    def test_zero_at_minimizer(self):
        assert dloss_dz(CS11, 3.0, 1.0) == 0.0

    def test_values_against_finite_differences(self):
        # 2*(g(0)-0.5)*g'(0) = 2*(-0.5)*(0.5) and 2*(g(3)-0)*g'(3) = 2*1*0.25
        cases = [(0.0, 0.5, -0.5), (3.0, 0.0, 0.5)]
        for z, y, expected in cases:
            analytic = dloss_dz(CS11, z, y)
            np.testing.assert_allclose(analytic, expected, rtol=1e-12)
            np.testing.assert_allclose(analytic, fd_dloss(CS11, z, y), atol=1e-6)

    def test_closed_form_cross_check(self):
        rng = np.random.default_rng(202)
        z = np.concatenate([np.linspace(-80, 80, 801), [0.0]])
        for _ in range(50):
            alpha = rng.uniform(0.05, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            y = rng.uniform(-y_bound, y_bound)
            t = ConvexSqrtTransform(alpha, y_bound)
            analytic = dloss_dz(t, z, y)
            closed = closed_form_dloss(alpha, y_bound, z, y)
            assert np.all(np.abs(analytic - closed) <= 1e-10 * (1.0 + np.abs(closed)))

    def test_nondecreasing_in_z_within_bound(self):
        rng = np.random.default_rng(203)
        grid = np.sort(rng.uniform(-50, 50, 2001))
        for _ in range(20):
            alpha = rng.uniform(0.1, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            y = rng.uniform(-y_bound, y_bound)
            values = dloss_dz(ConvexSqrtTransform(alpha, y_bound), grid, y)
            assert np.all(np.diff(values) >= -1e-9)

    def test_tanh_has_decreasing_stretch(self):
        grid = np.linspace(0.5, 2.0, 200)
        values = dloss_dz(TanhTransform(1.0), grid, -1.0)
        assert np.diff(values).min() < -1e-3

    def test_continuity_across_kink(self):
        rng = np.random.default_rng(204)
        for _ in range(100):
            alpha = rng.uniform(1e-3, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            y = rng.uniform(-y_bound, y_bound)
            t = ConvexSqrtTransform(alpha, y_bound)
            for eps in (1e-3, 1e-5, 1e-7):
                gap = abs(dloss_dz(t, -eps, y) - dloss_dz(t, eps, y))
                assert gap <= 10.0 * alpha**2 * y_bound * eps


class TestTotalLoss:
    def test_realizable_point(self):
        dataset = Dataset(np.array([[3.0]]), np.array([1.0]))
        assert total_loss(Model(np.array([1.0]), CS11), dataset) == 0.0

    def test_two_samples(self):
        dataset = Dataset(np.array([[3.0], [0.0]]), np.array([1.0, 1.0]))
        assert total_loss(Model(np.array([1.0]), CS11), dataset) == 1.0

    def test_dimension_mismatch(self):
        dataset = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            total_loss(Model(np.array([1.0]), CS11), dataset)

    @pytest.mark.parametrize(
        "t, scale, overflows",
        [
            (CS11, 1.0, False),
            (ConvexSqrtTransform(1e308, 1.0), 1.0, True),  # alpha |z| overflows
            (TanhTransform(1.0), 1e200, False),
            (AffineTransform(2.0, 0.5), 1.0, False),
            (AffineTransform(2.0, 0.5), 1e200, True),  # the squared residual overflows
        ],
        ids=["convex-sqrt", "convex-sqrt-alpha-1e308", "tanh", "affine", "affine-overflowing"],
    )
    def test_is_the_fit_loss_bit_for_bit(self, t, scale, overflows):
        rng = np.random.default_rng(17)
        dataset = Dataset(rng.normal(size=(700, 3)), rng.uniform(-1.0, 1.0, 700))
        w = scale * rng.normal(size=3)
        loss = total_loss(Model(w, t), dataset)
        assert loss == _evaluate(dataset.features, dataset.targets, t, w)[2]
        assert (loss == math.inf) == overflows


class TestTotalGradient:
    @pytest.mark.parametrize("t", [CS11, ConvexSqrtTransform(10.0, 3.0), AffineTransform(2.0, 0.5),
                                   TanhTransform(1.5)], ids=repr)
    def test_one_sample_is_dloss_dz_times_features(self, t):
        rng = np.random.default_rng(208)
        for _ in range(50):
            x, w, y = rng.normal(size=(1, 3)), rng.normal(size=3), rng.uniform(-1.0, 1.0)
            gradient = total_gradient(Model(w, t), Dataset(x, np.array([y])))
            assert gradient.tobytes() == (dloss_dz(t, (x @ w)[0], y) * x[0]).tobytes()

    def test_one_sample_zero_features_give_zero_gradient(self):
        dataset = Dataset(np.zeros((1, 2)), np.array([0.5]))
        gradient = total_gradient(Model(np.array([0.3, -0.2]), CS11), dataset)
        np.testing.assert_array_equal(gradient, np.zeros(2))

    def test_one_sample_zero_at_minimizer(self):
        dataset = Dataset(np.array([[3.0]]), np.array([1.0]))
        np.testing.assert_array_equal(total_gradient(Model(np.array([1.0]), CS11), dataset), [0.0])

    def test_one_sample_scaled_by_features(self):
        model = Model(np.array([1.0]), CS11)
        dataset = Dataset(np.array([[3.0]]), np.array([0.0]))
        result = total_gradient(model, dataset)
        np.testing.assert_allclose(result, [1.5], rtol=1e-12)
        np.testing.assert_allclose(result, fd_gradient(model, dataset), rtol=1e-7)

    def test_vanishes_at_exact_solution(self):
        rng = np.random.default_rng(205)
        w_star = rng.uniform(-1, 1, 3)
        features = rng.uniform(-1, 1, (40, 3))
        targets = CS11.evaluate(features @ w_star)
        dataset = Dataset(features, targets)
        gradient = total_gradient(Model(w_star, CS11), dataset)
        assert np.abs(gradient).max() <= 1e-12

    def test_two_sample_example(self):
        dataset = Dataset(np.array([[3.0], [0.0]]), np.array([1.0, 1.0]))
        model = Model(np.array([1.0]), CS11)
        np.testing.assert_allclose(total_gradient(model, dataset), [0.0], atol=1e-15)
        np.testing.assert_allclose(fd_gradient(model, dataset), [0.0], atol=1e-6)

    def test_matches_finite_differences_small_case(self):
        rng = np.random.default_rng(206)
        dataset = Dataset(rng.uniform(-1, 1, (20, 3)), rng.uniform(-1, 1, 20))
        model = Model(rng.uniform(-1, 1, 3), CS11)
        analytic = total_gradient(model, dataset)
        fd = fd_gradient(model, dataset)
        assert np.all(np.abs(analytic - fd) <= 1e-5 * (1.0 + np.abs(fd)))

    @pytest.mark.filterwarnings("ignore::convexreg.loss.TargetBoundWarning")
    def test_matches_finite_differences_200_draws(self):
        rng = np.random.default_rng(207)
        for draw in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 6))
            kind = draw % 3
            if kind == 0:
                t = ConvexSqrtTransform(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
            elif kind == 1:
                t = AffineTransform(rng.uniform(-2, 2), rng.uniform(-1, 1))
            else:
                t = TanhTransform(rng.uniform(0.5, 3))
            dataset = Dataset(rng.uniform(-1, 1, (n, d)), rng.uniform(-2, 2, n))
            model = Model(rng.uniform(-1, 1, d), t)
            analytic = total_gradient(model, dataset)
            fd = fd_gradient(model, dataset)
            assert np.all(np.abs(analytic - fd) <= 1e-5 * (1.0 + np.abs(fd)))


class TestMidpointConvexityInZ:
    def test_composed_loss_is_midpoint_convex(self):
        rng = np.random.default_rng(208)
        alpha, y_bound = 1.7, 2.4
        t = ConvexSqrtTransform(alpha, y_bound)
        n = 10**4
        z1 = rng.uniform(-100, 100, n)
        z2 = rng.uniform(-100, 100, n)
        lam = rng.uniform(0, 1, n)
        y = rng.uniform(-y_bound, y_bound, n)
        l1 = loss_z(t, z1, y)
        l2 = loss_z(t, z2, y)
        lmid = loss_z(t, lam * z1 + (1 - lam) * z2, y)
        slack = lam * l1 + (1 - lam) * l2 - lmid
        allowance = 1e-9 * (1.0 + np.maximum(np.maximum(l1, l2), lmid))
        assert np.all(slack >= -allowance)

    def test_lifts_to_weights(self):
        rng = np.random.default_rng(209)
        for _ in range(50):
            alpha = rng.uniform(0.2, 5.0)
            y_bound = rng.uniform(0.5, 5.0)
            t = ConvexSqrtTransform(alpha, y_bound)
            n, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
            dataset = Dataset(
                rng.uniform(-1, 1, (n, d)), rng.uniform(-y_bound, y_bound, n)
            )
            w1 = rng.uniform(-2, 2, d)
            w2 = rng.uniform(-2, 2, d)
            lam = rng.uniform(0, 1)
            l1 = total_loss(Model(w1, t), dataset)
            l2 = total_loss(Model(w2, t), dataset)
            lmid = total_loss(Model(lam * w1 + (1 - lam) * w2, t), dataset)
            assert lmid <= lam * l1 + (1 - lam) * l2 + 1e-9 * (1.0 + max(l1, l2))


class TestPsdConditionValue:
    def test_affine_is_constant_two(self):
        t = AffineTransform(1.0, 0.0)
        rng = np.random.default_rng(210)
        z = rng.uniform(-10, 10, 100)
        y = rng.uniform(-10, 10, 100)
        np.testing.assert_array_equal(t.curvature(z, y), np.full(100, 2.0))

    def test_tanh_witness_value(self):
        # Frozen from the closed-form tanh derivatives:
        # 2*sech(1)^4 + 2*(tanh(1)+1)*(-2*tanh(1)*sech(1)^2)
        value = TanhTransform(1.0).curvature(1.0, -1.0)
        np.testing.assert_allclose(value, -1.9010266976697454, rtol=1e-12)
        # Independent oracle: second-order central difference of loss_z.
        h = 1e-5
        fd = (
            loss_z(TanhTransform(1.0), 1.0 + h, -1.0)
            - 2.0 * loss_z(TanhTransform(1.0), 1.0, -1.0)
            + loss_z(TanhTransform(1.0), 1.0 - h, -1.0)
        ) / (h * h)
        np.testing.assert_allclose(value, fd, atol=1e-5)

    def test_tanh_symmetric_point(self):
        assert TanhTransform(1.0).curvature(0.0, 0.0) == 2.0

    def test_convex_sqrt_closed_form(self):
        t = ConvexSqrtTransform(2.0, 1.5)
        z = np.array([-3.0, -0.4, 0.0, 0.25, 2.0])
        y = np.array([1.5, -0.7, 0.9, 0.3, -1.5])
        value = t.curvature(z, y)
        # Y*alpha^2*(Y + sign(z)*y) / (2*u^1.5), u = alpha*|z| + 1, written out by hand.
        u = np.array([7.0, 1.8, 1.0, 1.5, 5.0])
        expected = 1.5 * 4.0 * (1.5 + np.array([-1.5, 0.7, 0.0, 0.3, -1.5])) / (2.0 * u**1.5)
        np.testing.assert_allclose(value, expected, rtol=1e-14)
        # At the kink sign(0) = 0 gives Y*alpha^2*Y/2, the mean of the one-sided values Y*alpha^2*(Y -+ y)/2.
        assert value[2] == 1.5 * 4.0 * 1.5 / 2.0
        # Independent oracle away from the kink: second-order central difference of loss_z.
        h = 1e-4
        away = z != 0.0
        fd = (loss_z(t, z + h, y) - 2.0 * loss_z(t, z, y) + loss_z(t, z - h, y)) / (h * h)
        np.testing.assert_allclose(value[away], fd[away], rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("side", [1, -1])
    def test_convex_sqrt_closed_form_is_symbolic_second_derivative(self, side):
        sp = pytest.importorskip("sympy")
        z = sp.Symbol("z", positive=side > 0, negative=side < 0)
        alpha, y_bound = sp.symbols("alpha Y", positive=True)
        y = sp.Symbol("y", real=True)
        g = sp.sign(z) * (y_bound * sp.sqrt(alpha * sp.Abs(z) + 1) - y_bound)
        u = alpha * sp.Abs(z) + 1
        closed_form = y_bound * alpha**2 * (y_bound + sp.sign(z) * y) / (2 * u * sp.sqrt(u))
        assert sp.simplify(sp.diff((g - y) ** 2, z, 2) - closed_form) == 0


class TestTargetBoundFlagging:
    def test_bound_per_transform(self):
        assert ConvexSqrtTransform(1.0, 2.5).target_bound == 2.5
        assert AffineTransform(1.0, 0.0).target_bound == np.inf
        assert TanhTransform(1.0).target_bound is None

    def test_total_loss_warns_outside_bound(self):
        dataset = Dataset(np.array([[1.0]]), np.array([3.0]))
        model = Model(np.array([1.0]), ConvexSqrtTransform(1.0, 0.5))
        with pytest.warns(TargetBoundWarning):
            total_loss(model, dataset)

    def test_no_warning_within_bound(self):
        import warnings

        dataset = Dataset(np.array([[1.0]]), np.array([0.4]))
        model = Model(np.array([1.0]), ConvexSqrtTransform(1.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TargetBoundWarning)
            total_loss(model, dataset)
            total_gradient(model, dataset)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @settings(max_examples=300)
    def test_estimated_bound_is_never_violated(self, targets):
        # fit --y-bound auto builds its convex-sqrt transform on this bound, so
        # it never records a target-bound warning.
        dataset = Dataset(np.ones((len(targets), 1)), np.array(targets))
        transform = ConvexSqrtTransform(1.0, estimate_target_bound(dataset))
        assert _bound_violation(transform, dataset.targets) == []


class TestDataTypes:
    def test_dataset_is_immutable(self):
        dataset = Dataset(np.array([[1.0, 2.0]]), np.array([3.0]))
        with pytest.raises(ValueError):
            dataset.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            dataset.targets[0] = 9.0

    def test_dataset_copies_input(self):
        raw = np.array([[1.0], [2.0]])
        dataset = Dataset(raw, np.array([1.0, 2.0]))
        raw[0, 0] = 99.0
        assert dataset.features[0, 0] == 1.0

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([np.nan]))
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [2.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="features must be a 2-D matrix"):
            Dataset(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="targets must be a 1-D vector"):
            Dataset(np.array([[1.0], [2.0]]), np.array([[1.0], [2.0]]))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            Model(np.array([np.nan]), CS11)
        with pytest.raises(ValueError):
            Model(np.empty(0), CS11)

    def test_model_predict(self):
        model = Model(np.array([1.0]), CS11)
        np.testing.assert_allclose(model.predict(np.array([[3.0], [0.0]])), [1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            model.predict(np.array([[1.0, 2.0]]))
        # Features that are not a matrix are named by their shape, not a column count.
        model = Model(np.array([0.1, 0.2, 0.3]), CS11)
        with pytest.raises(DimensionMismatchError, match=r"^features must be a 2-D matrix, got shape \(3,\)$"):
            model.predict(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatchError, match=r"^features must be a 2-D matrix, got shape \(\)$"):
            model.predict(1.0)

    def test_dataset_stores_features_column_major(self):
        dataset = Dataset(np.arange(6.0).reshape(3, 2), np.zeros(3))
        assert dataset.features.flags.f_contiguous
        assert dataset.features.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_model_predict_matches_the_fit_response_for_any_layout(self):
        rng = np.random.default_rng(467)
        rows = rng.uniform(-1.0, 1.0, (20_000, 21))
        model = Model(rng.uniform(-1.0, 1.0, 21), CS11)
        dataset = Dataset(rows, np.zeros(20_000))
        z = _evaluate(dataset.features, dataset.targets, CS11, model.weights)[0]
        # At this size the row-major product differs from the column-major one.
        assert (rows @ model.weights).tobytes() != z.tobytes()
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert model.predict(layout(rows)).tobytes() == CS11.evaluate(z).tobytes()


# OpenBLAS runs a GEMM of at most SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD
# multiply-adds on one thread (interface/gemm.c).
ONE_THREAD_GEMM = 65_536 * 4

# Prints the sha256 of the exact Hessian, under convex-sqrt curvature (>= 0)
# and tanh curvature (of both signs), and of the least-squares solution, at
# 2,000 samples for each width d.  At d = 50 and 101 a 2^22 multiply-add
# budget, sixteen times the single-thread one, gives other bits at two threads.
_GRAM_PROBE = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from convexreg import ConvexSqrtTransform, Dataset, TanhTransform, ols_fit
    from convexreg.loss import _hessian

    for d in (9, 50, 101, 600):
        rng = np.random.default_rng(d)
        dataset = Dataset(rng.normal(size=(2000, d)), rng.uniform(-2.5, 2.5, 2000))
        z = dataset.features @ rng.uniform(-1.0, 1.0, d) / np.sqrt(d)
        for transform in (ConvexSqrtTransform(1.0, 3.0), TanhTransform(1.4)):
            hessian = _hessian(dataset.features, dataset.targets, transform, z)
            print(d, hashlib.sha256(hessian.tobytes()).hexdigest())
        print(d, hashlib.sha256(ols_fit(dataset).tobytes()).hexdigest())
    """
)


def fsum_gram(features, weights):
    """``sum_i weights_i x_i x_i^T`` with each entry summed exactly by math.fsum."""
    d = features.shape[1]
    products = [[math.fsum(weights * features[:, j] * features[:, k]) for k in range(d)] for j in range(d)]
    return np.array(products)


class TestHessianTiles:
    """The exact Hessian is a sum of GEMM tiles that OpenBLAS runs on one thread."""

    @pytest.mark.parametrize("d", [1, 9, 21, 101, 512, 513, 600])
    def test_tiles_cover_each_pair_once_within_the_budget(self, d):
        rows, blocks = _tiles(d)
        n = 2 * rows + 3  # two full tiles and a short one
        covered = np.zeros((n, d), dtype=int)
        for start in range(0, n, rows):
            tile_rows = min(rows, n - start)
            for block in blocks:
                covered[start : start + rows, block] += 1
                width = len(range(d)[block])
                assert d * tile_rows * width <= ONE_THREAD_GEMM
                # A one-column block would be a matrix-vector product, threaded by another rule.
                assert width >= 2 or d == 1
        assert np.all(covered == 1)
        if d == 1:
            # A 1 x 1 product is a BLAS ddot, which OpenBLAS threads above 10,000 terms.
            assert rows <= 10_000

    @pytest.mark.parametrize("n, d", [(1000, 9), (300, 150)], ids=["one-block", "column-blocks"])
    @pytest.mark.parametrize(
        "transform", [ConvexSqrtTransform(1.0, 3.0), TanhTransform(1.4)], ids=["convex-sqrt", "tanh"]
    )
    def test_matches_an_exactly_summed_reference(self, n, d, transform):
        rng = np.random.default_rng(d)
        features, targets = rng.normal(size=(n, d)), rng.uniform(-2.5, 2.5, n)
        z = features @ rng.uniform(-1.0, 1.0, d) / np.sqrt(d)
        reference = fsum_gram(features, transform.curvature(z, targets))
        row_major, column_major = (
            _hessian(layout(features), targets, transform, z) for layout in (np.ascontiguousarray, np.asfortranarray)
        )
        assert np.abs(row_major - reference).max() <= 1e-13 * np.abs(reference).max()
        # Every tile is copied row-major, so the bits do not depend on the layout.
        assert row_major.tobytes() == column_major.tobytes()

    def test_bits_independent_of_blas_threads(self):
        outputs = []
        for threads in ("1", "2", "3", "4"):
            proc = subprocess.run(
                [sys.executable, "-c", _GRAM_PROBE],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 12
        assert outputs == [outputs[0]] * len(outputs)


# OpenBLAS runs a GEMV of m*n < 2304 * GEMM_MULTITHREAD_THRESHOLD multiply-adds on one
# thread (interface/gemv.c), and a DDOT of at most 10,000 terms (kernel/x86_64/ddot.c).
ONE_THREAD_GEMV = 9_216

# Prints the sha256 of X^T c for fixed slope vectors c, at the benchmark's
# 200,000 x 21 and at odd N, where a short last tile is left over.  A single
# X.T @ c over all 200,000 rows gives other bits at two threads.
_GRADIENT_PROBE = textwrap.dedent(
    """
    import hashlib
    import numpy as np
    from convexreg.loss import _gradient

    for n, d in ((200_000, 21), (200_001, 21), (20_001, 50), (100_001, 101)):
        rng = np.random.default_rng(d)
        features = np.asfortranarray(rng.normal(size=(n, d)))
        gradient = _gradient(features, rng.normal(size=n))
        print(n, d, hashlib.sha256(gradient.tobytes()).hexdigest())
    """
)


class TestGradientTiles:
    """The loss gradient X^T c is a sum of GEMV tiles that OpenBLAS runs on one thread."""

    @pytest.mark.parametrize("d", [1, 9, 21, 32, 33, 50, 101, 600])
    def test_tiles_cover_each_pair_once_within_the_budget(self, d):
        rows, blocks = _gemv_tiles(d)
        n = 2 * rows + 3  # two full tiles and a short one
        covered = np.zeros((n, d), dtype=int)
        for start in range(0, n, rows):
            tile_rows = min(rows, n - start)
            for block in blocks:
                covered[start : start + rows, block] += 1
                assert tile_rows * len(range(d)[block]) < ONE_THREAD_GEMV
        assert np.all(covered == 1)
        if d == 1:
            # A one-column tile is a BLAS ddot, which OpenBLAS threads above 10,000 terms.
            assert rows <= 10_000

    @pytest.mark.parametrize("d", [1, 9, 21, 50, 101, 600])
    def test_kernel_adds_each_product_once(self, d):
        # Small integers: every partial sum is exact, so a product counted twice or missed shows.
        rng = np.random.default_rng(d)
        n = 2 * _gemv_tiles(d)[0] + 3
        features, slope = rng.integers(-8, 9, (n, d)), rng.integers(-8, 9, n)
        assert _gradient(np.asfortranarray(features, dtype=float), slope.astype(float)).tolist() == (
            features.T @ slope
        ).tolist()

    @pytest.mark.parametrize("d", [1, 9, 21, 50, 101, 600])
    def test_matches_an_exactly_summed_reference(self, d):
        rng = np.random.default_rng(d)
        n = 5_003
        features, slope = rng.normal(size=(n, d)), rng.normal(size=n)
        reference = np.array([math.fsum(features[:, j] * slope) for j in range(d)])
        row_major, column_major = (_gradient(layout(features), slope) for layout in (np.ascontiguousarray, np.asfortranarray))
        assert np.abs(column_major - reference).max() <= 1e-13 * np.abs(reference).max()
        # A row-major X is copied column-major first, so the bits do not depend on the layout.
        assert row_major.tobytes() == column_major.tobytes()

    def test_bits_independent_of_blas_threads(self):
        outputs = []
        for threads in ("1", "2", "3", "4"):
            proc = subprocess.run(
                [sys.executable, "-c", _GRADIENT_PROBE],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 4
        assert outputs == [outputs[0]] * len(outputs)
