"""Squared loss composed with a scalar transform, and its derivatives.

The model predicts ``g(w . x)``; the per-sample loss is ``(g(z) - y)^2``
with ``z = w . x``.  Everything here is a pure function of immutable
inputs, so concurrent evaluation is safe.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .transforms import Transform


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
    (Golub & Van Loan, *Matrix Computations*, sec. 1.1).  A C-ordered X is
    copied first.

    It is one BLAS GEMV, which OpenBLAS splits across threads above
    ``_GEMV_BUDGET`` multiply-adds, so its bits hold across BLAS thread
    counts only at some sizes.  The tests' thread probes find them the
    same at one, two and four threads at 200,000 x 21, and they are the
    same at 20,000 x 21 and 20,001 x 20; but one and two threads give
    other bits at 20,001 x 50 (in the last row), 50,001 x 20, 50,001 x 50
    and 100,001 x 100.
    """
    return np.asfortranarray(features, dtype=float) @ weights


def _residual(transform: Transform, z, y):
    """``g(z) - y``, the one spelling of the residual.

    The subtraction is out of place, so the result takes numpy's promoted
    type of g(z) and y (float32 z with a float64 y gives float64), and z
    and y are never written.
    """
    return transform.evaluate(z) - y


def _residual_and_slope(transform: Transform, z, y):
    """``g(z) - y`` and ``2 * (g(z) - y) * g'(z)``, the one spelling of the loss slope in z.

    g and g' come from one call of the transform's ``_value_and_derivative``,
    bit for bit as ``evaluate`` and ``derivative`` give them; every step is
    out of place, as in :func:`_residual`.
    """
    value, derivative = transform._value_and_derivative(z)
    residual = value - y
    return residual, 2.0 * residual * derivative


def loss_z(transform: Transform, z, y):
    """Squared loss ``(g(z) - y)^2`` as a function of the linear response z."""
    residual = _residual(transform, z, y)
    residual *= residual  # a new array (or a scalar, rebound)
    return residual


def dloss_dz(transform: Transform, z, y):
    """Derivative of :func:`loss_z` in z: ``2 * (g(z) - y) * g'(z)``."""
    return _residual_and_slope(transform, z, y)[1]


def _bound_violation(transform: Transform, targets: np.ndarray) -> list[str]:
    """A report's ``warnings`` list: one message counting the targets beyond the convexity bound, or none."""
    bound = transform.target_bound
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
    """Linear response ``z = X w``, the loss slopes ``2 r_i g'(z_i)`` and the summed squared loss.

    The slopes are what :func:`_gradient` needs, from the same root or tanh
    that gave g(z), so a fit's accepted trial hands its gradient over
    without transforming z again.  An overflowing loss or slope comes back
    as inf or nan without a RuntimeWarning: every caller judges it
    (NonFiniteLossError, a rejected trial).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = _response(features, weights)
        residual, slope = _residual_and_slope(transform, z, targets)
        # np.sum is pairwise over ascending sample index: reproducible bit-for-bit.
        return z, slope, float(np.sum(residual * residual))


def total_loss(model: Model, dataset: Dataset) -> float:
    """Cumulative squared loss over the dataset."""
    weights = _checked_weights(dataset, model.weights, "the model's weight vector")
    _warn_if_outside_bound(model.transform, dataset.targets)
    return _evaluate(dataset.features, dataset.targets, model.transform, weights)[2]


def total_gradient(model: Model, dataset: Dataset) -> np.ndarray:
    """Gradient of :func:`total_loss` in the weights."""
    weights = _checked_weights(dataset, model.weights, "the model's weight vector")
    _warn_if_outside_bound(model.transform, dataset.targets)
    slope = _evaluate(dataset.features, dataset.targets, model.transform, weights)[1]
    return _gradient(dataset.features, slope)


# OpenBLAS runs a GEMV of m*n < 2304 * GEMM_MULTITHREAD_THRESHOLD = 2,304 * 4
# multiply-adds on one thread (interface/gemv.c), and a DDOT of at most
# 10,000 terms, so a product below this budget has the same bits at any
# OPENBLAS_NUM_THREADS.
_GEMV_BUDGET = 2304 * 4
# Wider blocks leave tiles too shallow to stream: at 20,000 x 600 on one
# thread, blocks of 32 columns took 5.3 ms, of 128 11.3 ms, and one block of
# all 600 22 ms.
_GEMV_WIDTH = 32


def _gemv_tiles(n_features: int) -> tuple[int, list[slice]]:
    """Rows per tile and the column blocks of :func:`_gradient`.

    The columns are split into the fewest near-equal blocks at most
    ``_GEMV_WIDTH`` wide, and a tile has as many rows as keep
    ``rows * width < _GEMV_BUDGET`` for the widest block: 438 rows at
    d = 21, 287 at d = 600.
    """
    blocks = -(-n_features // _GEMV_WIDTH)
    edges = [n_features * block // blocks for block in range(blocks + 1)]
    rows = (_GEMV_BUDGET - 1) // -(-n_features // blocks)
    return rows, [slice(low, high) for low, high in zip(edges, edges[1:])]


def _gradient(features, slope) -> np.ndarray:
    """``sum_i slope_i x_i`` over the rows x_i of ``features``, as one-thread GEMV tiles.

    With the slopes of :func:`_evaluate` this is the loss gradient;
    :func:`~convexreg.solver.ols_fit` takes ``X^T y`` from it too.  For each
    column block of :func:`_gemv_tiles`, one ``matmul`` multiplies every
    full tile of a strided view of the column-major features by its slice
    of ``slope``, with no copy, and the partial sums are added over the tile
    axis, then the short last tile.  Every GEMV stays within
    ``_GEMV_BUDGET``, so OpenBLAS runs it on one thread, and the plan
    depends only on the shape: the bits do not depend on the BLAS thread
    count.  A C-ordered X is copied first, as in :func:`_response`, so they
    do not depend on the caller's layout either.
    """
    features = np.asfortranarray(features, dtype=float)
    n_samples, n_features = features.shape
    rows, blocks = _gemv_tiles(n_features)
    tiles = n_samples // rows
    split = tiles * rows
    head = slope[:split].reshape(tiles, rows, 1)
    gradient = np.empty(n_features)
    for block in blocks:
        columns = features[:, block]
        stacked = columns[:split].T.reshape(columns.shape[1], tiles, rows).transpose(1, 0, 2)
        gradient[block] = np.matmul(stacked, head)[:, :, 0].sum(axis=0) + columns[split:].T @ slope[split:]
    return gradient


# OpenBLAS runs a GEMM of m*n*k <= SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD
# = 65,536 * 4 multiply-adds on one thread (interface/gemm.c), so a product
# within this budget has the same bits at any OPENBLAS_NUM_THREADS.
_GEMM_BUDGET = 2**18
# A d = 1 Gram tile is a 1 x 1 product, which numpy hands to BLAS ddot, and
# OpenBLAS splits a ddot above 10,000 terms across threads.
_DOT_ROWS = 2**13


def _tiles(n_features: int) -> tuple[int, list[slice]]:
    """Rows per tile and the output column blocks of :func:`_gram`.

    Each GEMM does ``d * rows * width <= _GEMM_BUDGET`` multiply-adds for a
    block of ``width`` columns.  Up to d = 128 a tile has
    ``_GEMM_BUDGET // d^2 >= 16`` rows (at most ``_DOT_ROWS``) and one block
    of all d columns.  Shallower tiles spend more on each call than on its
    work, so beyond d = 128 a tile has 64 rows (fewer past d = 1,024) and
    the columns are split into near-equal blocks at least 2 wide: no
    product is a matrix-vector one, which OpenBLAS threads by another rule.
    """
    rows = _GEMM_BUDGET // (n_features * n_features)
    if rows >= 16:
        return min(rows, _DOT_ROWS), [slice(0, n_features)]
    rows = max(1, min(64, _GEMM_BUDGET // (4 * n_features)))
    width = max(1, _GEMM_BUDGET // (n_features * rows))
    blocks = -(-n_features // width)
    edges = [n_features * block // blocks for block in range(blocks + 1)]
    return rows, [slice(low, high) for low, high in zip(edges, edges[1:])]


def _gram(features, weights) -> np.ndarray:
    """``sum_i weights_i x_i x_i^T`` over the rows x_i of ``features``, as GEMM tiles.

    Each tile of :func:`_tiles` rows is copied row-major, so the bits do not
    depend on the layout of ``features``, and every GEMM stays within
    ``_GEMM_BUDGET``, so OpenBLAS runs it on one thread and the bits do not
    depend on the BLAS thread count (Goto & van de Geijn, "Anatomy of
    high-performance matrix multiplication", 2008, on blocking).  The
    weighted tile is a new array, so numpy calls GEMM and not SYRK.
    """
    n_samples, n_features = features.shape
    rows, blocks = _tiles(n_features)
    gram = np.zeros((n_features, n_features))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_samples, rows):
            tile = np.ascontiguousarray(features[start : start + rows])
            weighted = (tile * weights[start : start + rows, None]).T
            for block in blocks:
                gram[:, block] += weighted @ tile[:, block]
    return gram


def _hessian(features, targets, transform, z) -> np.ndarray:
    """Loss Hessian ``sum_i l''(z_i, y_i) x_i x_i^T`` at a point with response z.

    One :func:`_gram` pass, weighted by the curvature; its bits do not
    depend on the BLAS thread count.
    """
    return _gram(features, transform.curvature(z, targets))
