"""Scalar transforms for squared-loss regression.

The central object is :class:`ConvexSqrtTransform`, an odd-symmetric
square-root map.  Composing it with the squared loss keeps the objective
convex in the model weights as long as every target lies inside
``[-y_bound, y_bound]``.  :class:`AffineTransform` is the linear baseline
(convex for any loss) and :class:`TanhTransform` is a bounded nonlinear
contrast that breaks convexity.

All evaluation methods are elementwise and accept floats or numpy arrays.
Each transform's private ``_value_and_derivative(z)`` returns g(z) and
g'(z) bit for bit as ``evaluate`` and ``derivative`` do, from one square
root (convex-sqrt) or one tanh: the loss takes both at every trial point.
Each transform owns its loss curvature in z, ``curvature(z, y)``, the
second derivative ``2*g'(z)^2 + 2*(g(z)-y)*g''(z)`` whose sign decides
whether the loss Hessian term ``value * x x^T`` is positive semidefinite
at (z, y).  It also owns its ``target_bound``, the largest |y| for which
the loss is guaranteed convex (None: no such |y|).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, fields
from typing import Union

import numpy as np


def _finite_positive(value: float, name: str) -> float:
    """``value`` as a float; the one gate for a finite positive number."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def _count(value, name: str, low: int) -> int:
    """``value`` as an int; the one gate for an integer >= ``low`` (numpy integers pass, 5.0 and True do not)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return count


def _number(value, name: str) -> float:
    """``value`` as a float when it is a JSON number (an int or float, not a bool); else ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        return self._value_from(z, self._root(z))

    def derivative(self, z):
        return self._derivative_from(self._root(z))

    def _value_and_derivative(self, z):
        """``(evaluate(z), derivative(z))`` bit for bit, from one :meth:`_root`."""
        root = self._root(z)
        return self._value_from(z, root.copy()), self._derivative_from(root)

    def _value_from(self, z, root):
        """g(z), finished in place on ``root``, a :meth:`_root` of z."""
        root -= 1.0
        root *= self.y_bound
        # sign(z) * f(|z|) keeps odd symmetry exact in floating point.
        return np.multiply(np.sign(z), root, out=root)[()]

    def _derivative_from(self, root):
        """g'(z), finished in place on ``root``, a :meth:`_root` of z."""
        root *= 2.0
        return np.divide(self.y_bound * self.alpha, root, out=root)[()]

    @property
    def target_bound(self) -> float:
        return self.y_bound

    def curvature(self, z, y):
        """``Y*alpha^2*(Y + sign(z)*y) / (2*u^1.5)``, ``u = alpha*|z| + 1``: >= 0 exactly when |y| <= Y.

        At z = 0, where g'' does not exist, it is the mean of the one-sided
        values.  Overflow is quiet: a huge |z| gives 0, an alpha whose square
        overflows gives values that are not finite.
        """
        with np.errstate(over="ignore"):
            u = self.alpha * np.abs(z) + 1.0
            scale = self.y_bound * (self.alpha * self.alpha) / (2.0 * u * np.sqrt(u))
        return scale * (self.y_bound + np.sign(z) * y)


@dataclass(frozen=True)
class AffineTransform:
    """Linear map ``z -> a*z + b``; the baseline that is convex for any loss."""

    a: float
    b: float = 0.0

    kind = "affine"
    target_bound = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("affine coefficients must be finite")

    def evaluate(self, z):
        return self.a * z + self.b

    def derivative(self, z):
        return self.a + 0.0 * z

    def _value_and_derivative(self, z):
        """``(evaluate(z), derivative(z))``."""
        return self.evaluate(z), self.derivative(z)

    def curvature(self, z, y):
        """Loss curvature in z, ``2*a^2`` for every y; the zero g'' term keeps a non-finite z or residual nan."""
        slope = self.derivative(z)
        return 2.0 * slope * slope + 2.0 * (self.evaluate(z) - y) * (0.0 * z)


@dataclass(frozen=True)
class TanhTransform:
    """Bounded odd map ``z -> scale*tanh(z)``; does not preserve convexity."""

    scale: float

    kind = "tanh"
    target_bound = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _finite_positive(self.scale, "scale"))

    def evaluate(self, z):
        return self.scale * np.tanh(z)

    def derivative(self, z):
        return self._value_and_derivative(z)[1]

    def _value_and_derivative(self, z):
        """``(evaluate(z), derivative(z))`` bit for bit, from one ``np.tanh``."""
        th = np.tanh(z)
        return self.scale * th, self.scale * (1.0 - th**2)

    def curvature(self, z, y):
        """Loss curvature; negative at some (z, y) with |y| <= scale, such as (1, -scale)."""
        th = np.tanh(z)
        slope, bend = self.scale * (1.0 - th**2), -2.0 * self.scale * th * (1.0 - th**2)
        return 2.0 * slope * slope + 2.0 * (self.scale * th - y) * bend


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
    return cls(**{f.name: _number(payload.get(f.name), f.name) for f in fields(cls)})
