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
from typing import Union

import numpy as np


class DomainError(ValueError):
    """An inverse was requested outside the transform's range."""


class UnsupportedTransformError(TypeError):
    """The operation needs a second derivative the transform does not expose."""


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
    """The transform a model file describes; ValueError when the payload is malformed."""
    if not isinstance(payload, dict):
        raise ValueError(f"transform must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    cls = _TRANSFORMS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown transform kind: {kind!r}")
    return cls(**{f.name: float(payload[f.name]) for f in fields(cls)})
