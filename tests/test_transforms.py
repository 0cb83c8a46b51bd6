"""Tests for the scalar transform family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    DomainError,
    InvalidGridError,
    TanhTransform,
    UnsupportedTransformError,
    check_convexity_conditions,
    transform_from_dict,
    transform_to_dict,
)


def bisect_increasing(f, target, lo, hi, iters=200):
    """Solve f(z) = target for increasing f by bisection; independent oracle."""
    assert f(lo) <= target <= f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_difference(f, z, step):
    return (f(z + step) - f(z - step)) / (2.0 * step)


class TestConvexSqrtEvaluate:
    def test_zero_maps_to_zero(self):
        assert ConvexSqrtTransform(1.0, 1.0).evaluate(0.0) == 0.0

    def test_exact_values(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        assert t.evaluate(3.0) == 1.0
        assert t.evaluate(-3.0) == -1.0
        assert ConvexSqrtTransform(2.0, 3.0).evaluate(4.0) == 6.0

    def test_odd_symmetry_bit_exact(self):
        rng = np.random.default_rng(101)
        z = rng.uniform(-1e6, 1e6, 1000)
        for t in (ConvexSqrtTransform(0.3, 2.5), TanhTransform(1.7)):
            assert np.all(t.evaluate(-z) == -t.evaluate(z))

    def test_affine_odd_only_without_intercept(self):
        z = np.linspace(-5, 5, 11)
        t = AffineTransform(2.0, 0.0)
        assert np.all(t.evaluate(-z) == -t.evaluate(z))
        shifted = AffineTransform(2.0, 1.0)
        assert not np.all(shifted.evaluate(-z) == -shifted.evaluate(z))

    def test_overflow_guard_saturates_radicand(self):
        t = ConvexSqrtTransform(4.0, 2.0)
        huge = 1e308
        value = t.evaluate(huge)
        assert np.isfinite(value)
        np.testing.assert_allclose(value, t.y_bound * np.sqrt(4.0) * np.sqrt(huge), rtol=1e-12)
        assert t.evaluate(-huge) == -value
        array = t.evaluate(np.array([-huge, -3.0, 0.0, 3.0, huge]))
        assert np.all(np.isfinite(array))
        assert np.isfinite(t.derivative(huge)) and t.derivative(huge) > 0

    def test_parameter_validation(self):
        for alpha, y_bound in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                ConvexSqrtTransform(alpha, y_bound)
        with pytest.raises(ValueError):
            TanhTransform(0.0)


class TestDerivative:
    def test_exact_values(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        assert t.derivative(0.0) == 0.5
        assert t.derivative(3.0) == 0.25
        assert t.derivative(-3.0) == 0.25

    def test_always_positive(self):
        rng = np.random.default_rng(102)
        z = rng.uniform(-1e6, 1e6, 1000)
        for _ in range(5):
            t = ConvexSqrtTransform(rng.uniform(0.1, 10), rng.uniform(0.1, 10))
            assert np.all(t.derivative(z) > 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            kind = rng.integers(3)
            if kind == 0:
                t = ConvexSqrtTransform(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
                z = rng.uniform(-100, 100)
            elif kind == 1:
                t = AffineTransform(rng.uniform(-3, 3), rng.uniform(-3, 3))
                z = rng.uniform(-100, 100)
            else:
                t = TanhTransform(rng.uniform(0.1, 5))
                z = rng.uniform(-5, 5)
            step = 1e-6 * (1.0 + abs(z))
            fd = central_difference(t.evaluate, z, step)
            analytic = t.derivative(z)
            assert abs(analytic - fd) <= 1e-6 * (1.0 + abs(analytic))

    def test_nonincreasing_in_magnitude(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            t = ConvexSqrtTransform(rng.uniform(0.1, 10), rng.uniform(0.1, 10))
            magnitudes = np.sort(rng.uniform(0, 1e3, 500))
            values = t.derivative(magnitudes)
            assert np.all(np.diff(values) <= 1e-12)

    def test_even_and_continuous_at_zero(self):
        t = ConvexSqrtTransform(2.0, 3.0)
        z = np.geomspace(1e-12, 10, 50)
        np.testing.assert_array_equal(t.derivative(z), t.derivative(-z))
        np.testing.assert_allclose(t.derivative(1e-15), t.derivative(0.0), rtol=1e-12)


class TestInverse:
    def test_origin_fixed_point(self):
        assert ConvexSqrtTransform(1.0, 1.0).inverse(0.0) == 0.0

    def test_unit_value_matches_bisection_oracle(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        oracle = bisect_increasing(t.evaluate, 1.0, 0.0, 10.0)
        np.testing.assert_allclose(oracle, 3.0, atol=1e-10)
        np.testing.assert_allclose(t.inverse(1.0), oracle, atol=1e-9)
        assert t.inverse(1.0) == 3.0

    def test_tanh_domain_error(self):
        with pytest.raises(DomainError):
            TanhTransform(1.0).inverse(2.0)
        with pytest.raises(DomainError):
            TanhTransform(1.0).inverse(-1.0)

    def test_affine_zero_slope(self):
        with pytest.raises(DomainError):
            AffineTransform(0.0, 1.0).inverse(0.5)

    def test_round_trip(self):
        rng = np.random.default_rng(105)
        for _ in range(1000):
            kind = rng.integers(3)
            if kind == 0:
                t = ConvexSqrtTransform(rng.uniform(0.1, 5), rng.uniform(0.1, 5))
                z = rng.uniform(-1e4, 1e4)
            elif kind == 1:
                t = AffineTransform(rng.uniform(0.1, 3), rng.uniform(-3, 3))
                z = rng.uniform(-1e4, 1e4)
            else:
                t = TanhTransform(rng.uniform(0.1, 5))
                z = rng.uniform(-8, 8)
            back = t.inverse(t.evaluate(z))
            assert abs(back - z) <= 1e-9 * (1.0 + abs(z))

    def test_evaluate_of_inverse(self):
        t = ConvexSqrtTransform(1.3, 2.1)
        rng = np.random.default_rng(106)
        u = rng.uniform(-50, 50, 200)
        np.testing.assert_allclose(t.evaluate(t.inverse(u)), u, rtol=1e-12, atol=1e-12)


class TestInnerMapDecomposition:
    def test_reconstruction_matches_evaluate(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            t = ConvexSqrtTransform(rng.uniform(0.1, 10), rng.uniform(0.1, 10))
            z = rng.uniform(-1e3, 1e3, 100)
            rebuilt = np.sign(z) * (t.alpha * t.h(np.abs(z)) + t.beta)
            assert np.all(np.abs(rebuilt - t.evaluate(z)) <= 1e-12 * (1.0 + np.abs(rebuilt)))

    def test_gamma_is_the_constant_product(self):
        t = ConvexSqrtTransform(2.0, 3.0)
        grid = np.linspace(0, 25, 200)
        np.testing.assert_allclose(t.h(grid) * t.h_prime(grid), t.gamma, rtol=1e-12)


class TestSecondDerivative:
    def test_convex_sqrt_has_none(self):
        with pytest.raises(UnsupportedTransformError):
            ConvexSqrtTransform(1.0, 1.0).second_derivative(0.5)

    def test_affine_is_zero(self):
        assert AffineTransform(2.0, 1.0).second_derivative(3.7) == 0.0

    def test_tanh_matches_finite_differences(self):
        t = TanhTransform(1.4)
        for z in (-2.0, -0.5, 0.0, 0.7, 2.5):
            fd = central_difference(t.derivative, z, 1e-6)
            np.testing.assert_allclose(t.second_derivative(z), fd, atol=1e-7)


class TestHypothesisProperties:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=300)
    def test_odd_symmetry(self, z):
        t = ConvexSqrtTransform(0.7, 3.2)
        assert t.evaluate(-z) == -t.evaluate(z)

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=300)
    def test_inverse_round_trip(self, z):
        t = ConvexSqrtTransform(1.9, 0.8)
        assert abs(t.inverse(t.evaluate(z)) - z) <= 1e-9 * (1.0 + abs(z))


class TestSerialization:
    @pytest.mark.parametrize(
        "transform",
        [ConvexSqrtTransform(1.5, 2.5), AffineTransform(2.0, -1.0), TanhTransform(0.4)],
    )
    def test_round_trip(self, transform):
        assert transform_from_dict(transform_to_dict(transform)) == transform

    @pytest.mark.parametrize(
        "transform, payload",
        [
            (ConvexSqrtTransform(1.5, 2.5), {"kind": "convex-sqrt", "alpha": 1.5, "y_bound": 2.5}),
            (AffineTransform(2.0, -1.0), {"kind": "affine", "a": 2.0, "b": -1.0}),
            (TanhTransform(0.4), {"kind": "tanh", "scale": 0.4}),
        ],
    )
    def test_model_file_fields(self, transform, payload):
        assert transform_to_dict(transform) == payload

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            transform_from_dict({"kind": "sigmoid"})


class TestConditionChecker:
    def _sqrt_family(self, alpha, y_bound):
        t = ConvexSqrtTransform(alpha, y_bound)
        return t.h, t.h_prime, t.gamma

    def test_built_in_family_passes_all_conditions(self):
        # Hand-differentiated oracle: h(t) = (Y/a)*sqrt(a*t+1) has
        # h'(t) = Y/(2*sqrt(a*t+1)), so h*h' = Y^2/(2a) identically.
        alpha, y_bound = 1.0, 2.0
        gamma = y_bound**2 / (2.0 * alpha)
        assert gamma == 2.0
        h, h_prime, built_gamma = self._sqrt_family(alpha, y_bound)
        assert built_gamma == gamma
        grid = np.arange(0.0, 10.5, 0.5)
        report = check_convexity_conditions(h, h_prime, alpha, y_bound, gamma, grid, tol=1e-9)
        assert report.all_passed
        assert [c.name for c in report.checks] == [
            "odd_symmetry",
            "constant_product",
            "nonincreasing_derivative",
            "continuity_at_zero",
        ]

    def test_identity_inner_map_fails_constant_product(self):
        grid = np.arange(0.0, 10.5, 0.5)
        for gamma in (0.0, 1.0, 5.0):
            report = check_convexity_conditions(
                lambda t: np.asarray(t, dtype=float),
                lambda t: np.ones_like(np.asarray(t, dtype=float)),
                1.0,
                1.0,
                gamma,
                grid,
                tol=1e-6,
            )
            check = report["constant_product"]
            assert not check.passed
            # identity violation |t - gamma| grows with t on the grid
            assert check.worst_violation >= 10.0 - gamma - 1e-12

    def test_empty_grid_rejected(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        with pytest.raises(InvalidGridError):
            check_convexity_conditions(t.h, t.h_prime, 1.0, 1.0, t.gamma, [], tol=1e-9)

    def test_unsorted_and_negative_grids_rejected(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        with pytest.raises(InvalidGridError):
            check_convexity_conditions(t.h, t.h_prime, 1.0, 1.0, t.gamma, [1.0, 0.5], tol=1e-9)
        with pytest.raises(InvalidGridError):
            check_convexity_conditions(t.h, t.h_prime, 1.0, 1.0, t.gamma, [-1.0, 0.5], tol=1e-9)

    def test_increasing_derivative_fails_monotonicity(self):
        report = check_convexity_conditions(
            lambda t: 0.5 * np.asarray(t, dtype=float) ** 2,
            lambda t: np.asarray(t, dtype=float),
            1.0,
            1.0,
            0.0,
            np.arange(0.0, 5.0, 0.5),
            tol=1e-9,
        )
        assert not report["nonincreasing_derivative"].passed

    def test_report_lookup(self):
        t = ConvexSqrtTransform(1.0, 2.0)
        report = check_convexity_conditions(
            t.h, t.h_prime, t.alpha, t.y_bound, t.gamma, [0.0, 1.0, 2.0], tol=1e-9
        )
        assert report["odd_symmetry"].passed
        with pytest.raises(KeyError):
            report["nonexistent"]
