"""Scalar transforms for squared-loss regression.

The central object is :class:`ConvexSqrtTransform`, an odd-symmetric
square-root map.  Composing it with the squared loss keeps the objective
convex in the model weights as long as every target lies inside
``[-y_bound, y_bound]``.  :class:`AffineTransform` is the linear baseline
(convex for any loss) and :class:`TanhTransform` is a bounded nonlinear
contrast that breaks convexity.

All evaluation methods are elementwise and accept floats or numpy arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Callable, Union

import numpy as np


class DomainError(ValueError):
    """An inverse was requested outside the transform's range."""


class UnsupportedTransformError(TypeError):
    """The operation needs a second derivative the transform does not expose."""


class InvalidGridError(ValueError):
    """An evaluation grid is empty, unsorted, or otherwise malformed."""


def _finite_positive(value: float, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


@dataclass(frozen=True)
class ConvexSqrtTransform:
    """Odd-symmetric saturating map ``z -> sign(z) * (Y*sqrt(alpha*|z| + 1) - Y)``.

    ``alpha`` controls how fast the slope decays, ``y_bound`` (written Y
    above) is both the output scale and the largest target magnitude for
    which the composed squared loss is guaranteed convex in the weights.
    """

    alpha: float
    y_bound: float

    kind = "convex-sqrt"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _finite_positive(self.alpha, "alpha"))
        object.__setattr__(self, "y_bound", _finite_positive(self.y_bound, "y_bound"))

    def _root(self, z) -> np.ndarray:
        """sqrt(alpha*|z| + 1), rescaled hypot-style where the radicand overflows.

        Returns a new array (0-d for scalar z) that callers finish in place;
        they unwrap it with ``[()]`` so scalars stay scalars.
        """
        with np.errstate(over="ignore"):
            root = np.asarray(self.alpha * np.abs(z))
        root += 1.0
        np.sqrt(root, out=root)
        overflowed = np.isinf(root)
        if overflowed.any():
            # An infinite z stays infinite under the rescale.
            root = np.where(overflowed, np.sqrt(self.alpha) * np.sqrt(np.abs(z)), root)
        return root

    def evaluate(self, z):
        value = self._root(z)
        value -= 1.0
        value *= self.y_bound
        # sign(z) * f(|z|) keeps odd symmetry exact in floating point.
        return np.multiply(np.sign(z), value, out=value)[()]

    def derivative(self, z):
        root = self._root(z)
        root *= 2.0
        return np.divide(self.y_bound * self.alpha, root, out=root)[()]

    def second_derivative(self, z):
        raise UnsupportedTransformError(
            "convex-sqrt has no continuous second derivative at z=0; "
            "use derivative monotonicity to assess curvature"
        )

    def inverse(self, u):
        return np.sign(u) * ((np.abs(u) / self.y_bound + 1.0) ** 2 - 1.0) / self.alpha

    # Inner-map decomposition: evaluate(z) == sign(z) * (alpha*h(|z|) + beta)
    # with beta = -y_bound and gamma = h(t)*h'(t) constant on t >= 0.

    @property
    def beta(self) -> float:
        return -self.y_bound

    @property
    def gamma(self) -> float:
        return self.y_bound**2 / (2.0 * self.alpha)

    def h(self, t):
        """Inner map; odd for t != 0, nonnegative branch at t = 0."""
        branch = (self.y_bound / self.alpha) * np.sqrt(self.alpha * np.abs(t) + 1.0)
        return np.where(np.asarray(t, dtype=float) < 0, -branch, branch)

    def h_prime(self, t):
        return self.y_bound / (2.0 * np.sqrt(self.alpha * np.abs(t) + 1.0))


@dataclass(frozen=True)
class AffineTransform:
    """Linear map ``z -> a*z + b``; the baseline that is convex for any loss."""

    a: float
    b: float = 0.0

    kind = "affine"

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("affine coefficients must be finite")

    def evaluate(self, z):
        return self.a * z + self.b

    def derivative(self, z):
        return self.a + 0.0 * z

    def second_derivative(self, z):
        return 0.0 * z

    def inverse(self, u):
        if self.a == 0.0:
            raise DomainError("affine transform with zero slope has no inverse")
        return (u - self.b) / self.a


@dataclass(frozen=True)
class TanhTransform:
    """Bounded odd map ``z -> scale*tanh(z)``; does not preserve convexity."""

    scale: float

    kind = "tanh"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _finite_positive(self.scale, "scale"))

    def evaluate(self, z):
        return self.scale * np.tanh(z)

    def derivative(self, z):
        return self.scale * (1.0 - np.tanh(z) ** 2)

    def second_derivative(self, z):
        th = np.tanh(z)
        return -2.0 * self.scale * th * (1.0 - th**2)

    def inverse(self, u):
        if np.any(np.abs(u) >= self.scale):
            raise DomainError(f"|u| must be < scale ({self.scale:g}) for the tanh inverse")
        return np.arctanh(np.asarray(u, dtype=float) / self.scale)


Transform = Union[ConvexSqrtTransform, AffineTransform, TanhTransform]


_TRANSFORMS = {cls.kind: cls for cls in (ConvexSqrtTransform, AffineTransform, TanhTransform)}


def transform_to_dict(transform: Transform) -> dict:
    """JSON-ready description of a transform (used by model files)."""
    return {"kind": transform.kind, **asdict(transform)}


def transform_from_dict(payload: dict) -> Transform:
    cls = _TRANSFORMS.get(payload.get("kind"))
    if cls is None:
        raise ValueError(f"unknown transform kind: {payload.get('kind')!r}")
    return cls(**{f.name: float(payload[f.name]) for f in fields(cls)})


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    worst_violation: float
    witness: float | None


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the admissibility conditions on an inner map h."""

    checks: tuple[ConditionCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ConditionCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


def check_convexity_conditions(
    h_eval: Callable,
    h_prime_eval: Callable,
    alpha: float,
    y_bound: float,
    gamma: float,
    grid,
    tol: float,
) -> ConditionReport:
    """Check whether an inner map h yields a convexity-preserving transform.

    A transform ``g(z) = sign(z) * (alpha*h(|z|) - y_bound)`` keeps the
    squared loss convex for targets in ``[-y_bound, y_bound]`` when h
    satisfies four conditions, each verified numerically on ``grid``:

    1. ``odd_symmetry``: h(-t) == -h(t), checked at strictly positive grid
       points (the value at 0 is taken from the nonnegative branch, which
       is what ``h(|z|)`` ever sees).
    2. ``constant_product``: h(t) * h'(t) == gamma on the grid.
    3. ``nonincreasing_derivative``: h'(t) never increases along the grid.
    4. ``continuity_at_zero``: h'(0) * y_bound == alpha * gamma, which makes
       the loss derivative continuous across z = 0.

    Parameters
    ----------
    h_eval, h_prime_eval : callables mapping float arrays to float arrays.
    grid : nonnegative, ascending evaluation points.
    tol : absolute slack allowed on every condition.

    Returns
    -------
    ConditionReport with per-condition pass/fail, the worst violation
    magnitude, and the grid point where it occurred.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidGridError("grid must be a nonempty 1-D sequence")
    if np.any(grid < 0.0):
        raise InvalidGridError("grid points must be nonnegative")
    if np.any(np.diff(grid) < 0.0):
        raise InvalidGridError("grid must be sorted ascending")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    def _worst(violations, points):
        if violations.size == 0:
            return 0.0, None
        idx = int(np.argmax(violations))
        return float(violations[idx]), float(points[idx])

    positive = grid[grid > 0.0]
    odd_viol, odd_witness = _worst(
        np.abs(np.asarray(h_eval(-positive), dtype=float) + np.asarray(h_eval(positive), dtype=float)),
        positive,
    )

    h_vals = np.asarray(h_eval(grid), dtype=float)
    hp_vals = np.asarray(h_prime_eval(grid), dtype=float)
    prod_viol, prod_witness = _worst(np.abs(h_vals * hp_vals - gamma), grid)

    increases = np.maximum(hp_vals[1:] - hp_vals[:-1], 0.0)
    mono_viol, mono_witness = _worst(increases, grid[1:])

    cont_viol = float(abs(float(h_prime_eval(0.0)) * y_bound - alpha * gamma))

    checks = (
        ConditionCheck("odd_symmetry", odd_viol <= tol, odd_viol, odd_witness),
        ConditionCheck("constant_product", prod_viol <= tol, prod_viol, prod_witness),
        ConditionCheck("nonincreasing_derivative", mono_viol <= tol, mono_viol, mono_witness),
        ConditionCheck("continuity_at_zero", cont_viol <= tol, cont_viol, 0.0),
    )
    return ConditionReport(checks=checks)
