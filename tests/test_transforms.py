"""Tests for the scalar transform family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    TanhTransform,
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


def sqrt_draws():
    """50 random convex-sqrt transforms, each with z uniform in +-1e3 plus both signed zeros."""
    rng = np.random.default_rng(107)
    for _ in range(50):
        t = ConvexSqrtTransform(rng.uniform(0.1, 10), rng.uniform(0.1, 10))
        yield t, np.concatenate([rng.uniform(-1e3, 1e3, 100), [0.0, -0.0]])


class TestConvexSqrtEvaluate:
    def test_zero_maps_to_zero(self):
        assert ConvexSqrtTransform(1.0, 1.0).evaluate(0.0) == 0.0

    def test_exact_values(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        assert t.evaluate(3.0) == 1.0
        assert t.evaluate(-3.0) == -1.0
        assert ConvexSqrtTransform(2.0, 3.0).evaluate(4.0) == 6.0

    def test_unit_value_matches_bisection_oracle(self):
        t = ConvexSqrtTransform(1.0, 1.0)
        oracle = bisect_increasing(t.evaluate, 1.0, 0.0, 10.0)
        np.testing.assert_allclose(oracle, 3.0, atol=1e-10)

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

    def test_matches_out_of_place_closed_form(self):
        for t, z in sqrt_draws():
            closed = np.sign(z) * (t.y_bound * np.sqrt(t.alpha * np.abs(z) + 1.0) - t.y_bound)
            np.testing.assert_allclose(t.evaluate(z), closed, rtol=1e-12, atol=0.0)

    def test_parameter_validation(self):
        for alpha, y_bound in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (np.nan, 1.0)]:
            with pytest.raises(ValueError):
                ConvexSqrtTransform(alpha, y_bound)
        with pytest.raises(ValueError):
            TanhTransform(0.0)
        for a, b in [(np.nan, 0.0), (np.inf, 0.0), (1.0, -np.inf), (1.0, np.nan)]:
            with pytest.raises(ValueError, match="affine coefficients must be finite"):
                AffineTransform(a, b)

    def test_affine_coefficients_are_floats(self):
        # As for the other transforms: ints and numeric strings become floats, other strings a ValueError.
        t = AffineTransform(1, 0)
        assert type(t.a) is float and type(t.b) is float
        assert [type(v) for v in transform_to_dict(t).values()] == [str, float, float]
        assert AffineTransform("1") == AffineTransform(1.0, 0.0)
        with pytest.raises(ValueError):
            AffineTransform("one")


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

    def test_slope_times_shifted_magnitude_is_constant(self):
        # With r = sqrt(alpha*|z| + 1): g' = alpha*Y/(2r) and |g| + Y = Y*r, so
        # their product is alpha*Y**2/2 everywhere, z = 0 included.
        for t, z in sqrt_draws():
            product = t.derivative(z) * (np.abs(t.evaluate(z)) + t.y_bound)
            np.testing.assert_allclose(product, t.alpha * t.y_bound**2 / 2.0, rtol=1e-12, atol=0.0)

    def test_even_and_continuous_at_zero(self):
        t = ConvexSqrtTransform(2.0, 3.0)
        z = np.geomspace(1e-12, 10, 50)
        np.testing.assert_array_equal(t.derivative(z), t.derivative(-z))
        np.testing.assert_allclose(t.derivative(1e-15), t.derivative(0.0), rtol=1e-12)


class TestHypothesisProperties:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=300)
    def test_odd_symmetry(self, z):
        t = ConvexSqrtTransform(0.7, 3.2)
        assert t.evaluate(-z) == -t.evaluate(z)

    @given(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.floats(min_value=1e-9, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_strictly_increasing(self, z, gap):
        t = ConvexSqrtTransform(1.9, 0.8)
        assert t.evaluate(z) < t.evaluate(z + gap * (1.0 + abs(z)))


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

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"kind": "affine", "a": True, "b": 0.0}, "a"),
            ({"kind": "affine", "a": 1.0, "b": "0"}, "b"),
            ({"kind": "convex-sqrt", "alpha": [1.0], "y_bound": 1.0}, "alpha"),
            ({"kind": "tanh"}, "scale"),
        ],
    )
    def test_fields_must_be_json_numbers(self, payload, field):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            transform_from_dict(payload)

    @pytest.mark.parametrize("payload", [None, "tanh", ["tanh"], {"kind": ["tanh"]}])
    def test_malformed_payload(self, payload):
        # Model files are outside input, so a wrong JSON shape must be a ValueError the CLI reports.
        with pytest.raises(ValueError):
            transform_from_dict(payload)
