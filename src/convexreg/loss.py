"""Squared loss composed with a scalar transform, and its derivatives.

The model predicts ``g(w . x)``; the per-sample loss is ``(g(z) - y)^2``
with ``z = w . x``.  Everything here is a pure function of immutable
inputs, so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .transforms import ConvexSqrtTransform, AffineTransform, Transform


class DimensionMismatchError(ValueError):
    """Weight vector and feature dimensions disagree."""


class TargetBoundWarning(UserWarning):
    """Some targets exceed the transform's bound; convexity is no longer guaranteed."""


def _frozen(array) -> np.ndarray:
    """A read-only, Fortran-ordered (column-major) float copy.

    Column order keeps each feature contiguous, which fixes the summation
    order of the response and the gradient (see :func:`_response` and
    :func:`_gradient`), so results do not depend on the layout of the
    caller's array.  A 1-D array is the same in either order.
    """
    array = np.array(array, dtype=float, order="F")
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable regression data: an (N, d) feature matrix and N targets.

    ``features`` is stored column-major (F-contiguous), one contiguous run
    of N values per feature.
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        features = _frozen(self.features)
        targets = _frozen(self.targets)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if targets.ndim != 1:
            raise ValueError("targets must be a 1-D vector")
        if features.shape[0] != targets.shape[0]:
            raise ValueError(
                f"features have {features.shape[0]} rows but there are {targets.shape[0]} targets"
            )
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("need at least one sample and one feature")
        if not np.all(np.isfinite(features)) or not np.all(np.isfinite(targets)):
            raise ValueError("all dataset entries must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class Model:
    """A weight vector paired with the transform applied to ``w . x``."""

    weights: np.ndarray
    transform: Transform

    def __post_init__(self) -> None:
        weights = _frozen(self.weights)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", weights)

    def predict(self, features) -> np.ndarray:
        """``g(X w)`` for the rows of X, with the response from :func:`_response`.

        The bits do not depend on the layout of ``features``, and match the
        response a fit computes on a :class:`Dataset` of the same rows.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise DimensionMismatchError(f"features must be a 2-D matrix, got shape {features.shape}")
        if features.shape[1] != self.weights.size:
            raise DimensionMismatchError(
                f"model has {self.weights.size} weights but features have {features.shape[1]} columns"
            )
        return self.transform.evaluate(_response(features, self.weights))


def _response(features, weights) -> np.ndarray:
    """The linear response ``z = X w``, computed from column-major X.

    Fits, :meth:`Model.predict` and synthetic targets all call it, so the
    same rows and weights give the same z bit for bit, whatever the
    caller's layout.  Column-major X makes the product a sum of columns
    (Golub & Van Loan, *Matrix Computations*, sec. 1.1); the tests' thread
    probes find its bits the same at one, two and four BLAS threads.  A
    C-ordered X is copied first.
    """
    return np.asfortranarray(features, dtype=float) @ weights


def _residual(transform: Transform, z, y):
    """``g(z) - y``, the one spelling of the residual.

    The subtraction is out of place, so the result takes numpy's promoted
    type of g(z) and y (float32 z with a float64 y gives float64), and z
    and y are never written.
    """
    return transform.evaluate(z) - y


def _slope(transform: Transform, z, residual):
    """``2 * r * g'(z)``, the one spelling of the loss slope in z, from a residual r."""
    return 2.0 * residual * transform.derivative(z)


def loss_z(transform: Transform, z, y):
    """Squared loss ``(g(z) - y)^2`` as a function of the linear response z."""
    residual = _residual(transform, z, y)
    residual *= residual  # a new array (or a scalar, rebound)
    return residual


def dloss_dz(transform: Transform, z, y):
    """Derivative of :func:`loss_z` in z: ``2 * (g(z) - y) * g'(z)``."""
    return _slope(transform, z, _residual(transform, z, y))


def convexity_target_bound(transform: Transform) -> float | None:
    """Largest |y| for which the composed loss is guaranteed convex.

    Returns ``inf`` for the affine baseline, the transform's ``y_bound``
    for the square-root family, and ``None`` when no target magnitude
    gives a guarantee (tanh).
    """
    if isinstance(transform, ConvexSqrtTransform):
        return transform.y_bound
    if isinstance(transform, AffineTransform):
        return math.inf
    return None


def _bound_violation(transform: Transform, targets: np.ndarray) -> list[str]:
    """A report's ``warnings`` list: one message counting the targets beyond the convexity bound, or none."""
    bound = convexity_target_bound(transform)
    if bound is None or not np.isfinite(bound):
        return []
    n_outside = int(np.count_nonzero(np.abs(targets) > bound))
    if not n_outside:
        return []
    return [f"{n_outside} target(s) exceed the bound {bound:g}; the convexity guarantee does not apply"]


def _warn_if_outside_bound(transform: Transform, targets: np.ndarray) -> None:
    for message in _bound_violation(transform, targets):
        warnings.warn(message, TargetBoundWarning, stacklevel=3)


def _checked_weights(dataset: Dataset, w, name: str) -> np.ndarray:
    """A finite 1-D float copy of ``w`` with one entry per feature of ``dataset``."""
    w = np.array(w, dtype=float)
    if w.ndim != 1 or w.size != dataset.n_features:
        raise DimensionMismatchError(
            f"{name} has {w.size} entries but the dataset has {dataset.n_features} features"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{name} must be finite")
    return w


def _evaluate(features, targets, transform, weights) -> tuple[np.ndarray, np.ndarray, float]:
    """Linear response ``z = X w``, residual ``g(z) - y`` and the summed squared loss.

    An overflowing loss comes back as inf or nan without a RuntimeWarning:
    every caller judges it (NonFiniteLossError, a rejected trial).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = _response(features, weights)
        residual = _residual(transform, z, targets)
        # np.sum is pairwise over ascending sample index: reproducible bit-for-bit.
        return z, residual, float(np.sum(residual * residual))


# A block of the Hessian's samples (128 KiB) stays in a core's L2 cache.
_HESSIAN_BLOCK_ELEMENTS = 2**14


def _gradient(features, transform, z, residual) -> np.ndarray:
    """Loss gradient ``sum_i 2 r_i g'(z_i) x_i`` from a point's response and residual.

    For column-major features each entry is one contiguous dot product of
    a feature column with the slopes, with no N x d temporary and no BLAS
    call, so the bits do not depend on the BLAS thread count.
    """
    return np.einsum("ji,i->j", features.T, _slope(transform, z, residual))


def total_loss(model: Model, dataset: Dataset) -> float:
    """Cumulative squared loss over the dataset."""
    weights = _checked_weights(dataset, model.weights, "the model's weight vector")
    _warn_if_outside_bound(model.transform, dataset.targets)
    return _evaluate(dataset.features, dataset.targets, model.transform, weights)[2]


def total_gradient(model: Model, dataset: Dataset) -> np.ndarray:
    """Gradient of :func:`total_loss` in the weights."""
    weights = _checked_weights(dataset, model.weights, "the model's weight vector")
    _warn_if_outside_bound(model.transform, dataset.targets)
    z, residual, _ = _evaluate(dataset.features, dataset.targets, model.transform, weights)
    return _gradient(dataset.features, model.transform, z, residual)


def psd_condition_value(transform: Transform, z, y):
    """Second derivative of the loss in z, ``2*g'(z)^2 + 2*(g(z)-y)*g''(z)``, for every transform.

    The sign decides whether the loss Hessian contribution ``value * x x^T``
    is positive semidefinite at this (z, y).  Convex-sqrt has no second
    derivative at z = 0, so its curvature is the closed form
    ``Y*alpha^2*(Y + sign(z)*y) / (2*u^1.5)`` with ``u = alpha*|z| + 1``,
    which is >= 0 exactly when |y| <= Y; at z = 0 it is the mean of the
    two one-sided values.  Overflow is quiet: a huge |z| gives curvature 0,
    and an alpha whose square overflows gives values that are not finite.
    """
    if isinstance(transform, ConvexSqrtTransform):
        with np.errstate(over="ignore"):
            u = transform.alpha * np.abs(z) + 1.0
            scale = transform.y_bound * (transform.alpha * transform.alpha) / (2.0 * u * np.sqrt(u))
        return scale * (transform.y_bound + np.sign(z) * y)
    gpp = transform.second_derivative(z)
    gp = transform.derivative(z)
    return 2.0 * gp * gp + 2.0 * _residual(transform, z, y) * gpp


def _hessian(features, targets, transform, z) -> np.ndarray:
    """Loss Hessian ``sum_i l''(z_i, y_i) x_i x_i^T`` at a point with response z.

    The samples are taken in blocks of about ``_HESSIAN_BLOCK_ELEMENTS``
    entries.  A block of column-major features, seen through ``features.T``,
    holds each feature's samples contiguously, so einsum reduces each entry
    as one contiguous dot product.  It calls no BLAS, as in
    :func:`_gradient`, so the bits do not depend on the BLAS thread count.
    """
    curvature = psd_condition_value(transform, z, targets)
    n_samples, n_features = features.shape
    rows = max(1, _HESSIAN_BLOCK_ELEMENTS // n_features)
    hessian = np.zeros((n_features, n_features))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_samples, rows):
            block = features.T[:, start : start + rows]
            hessian += np.einsum("ji,ki->jk", block * curvature[start : start + rows], block)
    return hessian
