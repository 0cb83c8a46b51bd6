"""BFGS quasi-Newton descent with backtracking line search, plus closed-form OLS.

A search along the gradient starts at Polyak's step ``min(1, 2 L / ||g||^2)``,
which a loss bounded below by 0 allows; a search along the BFGS direction
starts at 1.  Convexity of the composed loss is what makes this solver globally
reliable: with the square-root transform and in-bound targets, every
restart reaches the same optimal loss value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import (
    Dataset,
    _checked_weights,
    _evaluate,
    _frozen,
    _gradient,
    _gram,
    _hessian,
    _warn_if_outside_bound,
)
from .transforms import Transform, _count, _finite_positive

_MIN_STEP = 1e-16
# A trial whose first-order decrease step * ||g||^2 is below _EPS * loss
# changes the loss by less than its rounding: no comparison can judge it.
_EPS = float(np.finfo(float).eps)
# Armijo sufficient-decrease constant and line-search shrink factor.
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_PIVOT_RATIO = 1e-12

TERMINATION_CONVERGED = "converged"
TERMINATION_MAX_ITERS = "max_iters"
TERMINATION_STALLED = "line_search_stalled"
TERMINATION_AT_FLOOR = "converged_at_floor"


class NonFiniteLossError(ValueError):
    """The loss, or its gradient norm, at the starting point is not finite."""


class SingularSystemError(ValueError):
    """The normal equations are numerically singular."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"normal equations numerically singular at pivot {pivot_index} "
            f"(value {pivot_value:g})"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Settings of :func:`gd_fit`'s quasi-Newton descent.

    The solver stops when ``||grad||_2 <= grad_tol * (1 + |loss|)`` and
    caps work at ``max_iters`` accepted steps.  ``seed`` drives restart
    initialization in :func:`multi_restart_fit`.
    """

    max_iters: int = 10000
    grad_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_iters", _count(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "grad_tol", _finite_positive(self.grad_tol, "grad_tol"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))


@dataclass(frozen=True, eq=False)
class FitReport:
    """Optimizer trajectory for one fit."""

    final_weights: np.ndarray
    final_loss: float
    final_grad_norm: float
    iterations: int
    termination: str
    loss_trace: np.ndarray

    def to_dict(self, include_trace: bool = True) -> dict:
        payload = {
            "final_weights": [float(w) for w in self.final_weights],
            "final_loss": float(self.final_loss),
            "final_grad_norm": float(self.final_grad_norm),
            "iterations": int(self.iterations),
            "termination": self.termination,
        }
        if include_trace:
            payload["loss_trace"] = [float(v) for v in self.loss_trace]
        return payload


def gd_fit(dataset: Dataset, transform: Transform, w0, config: SolverConfig | None = None) -> FitReport:
    """Minimize the cumulative squared loss by BFGS quasi-Newton descent from ``w0``.

    Each iteration searches along ``-H g`` from the step s = 1, where g is
    the gradient and H the BFGS estimate of the inverse loss Hessian, built
    from the steps and gradients the fit already has (Nocedal & Wright,
    *Numerical Optimization*, ch. 6).  Before the first update, and
    wherever the slope ``g^T H g`` is not a finite positive number, it
    searches along ``-g`` with slope ``||g||^2`` from the step
    ``s = min(1, 2 L / ||g||^2)``, or 1 where that is not a finite positive
    number: the loss is a sum of squares, so it cannot fall below 0, and
    this is where the quadratic along -g that matches L and its slope
    reaches 0 (Polyak's step).  The step is halved until
    the Armijo test ``L(w - s*H g) <= L(w) - 1e-4 * s * g^T H g`` passes,
    so the loss trace is nonincreasing.  Terminations:

    - ``converged``: gradient norm fell below ``grad_tol * (1 + |loss|)``;
    - ``max_iters``: iteration budget exhausted;
    - ``converged_at_floor``: no trial with ``s * g^T H g >= eps * loss``
      passes the Armijo test, where eps is float64 machine epsilon, and
      the Newton decrement ``g^T K^-1 g / 2`` at the last point, where K
      is the exact loss Hessian, estimates that the loss can fall by at
      most ``max(1, ceil(log2 N)) * eps * loss`` over N samples, the
      rounding bound of the loss's pairwise sum: it is optimal to its own
      rounding;
    - ``line_search_stalled``: no such trial passes, but the decrement is
      larger, or K is not positive definite.

    Trials with ``s * g^T H g < eps * loss`` are not evaluated: a decrease
    below the loss's rounding could pass only by luck.  At loss 0 the rule
    admits every step, and trials stop below 1e-16.

    One iteration costs one gradient reduction, of the loss slopes that the
    trial point accepted last computed with its loss, O(d^2) work on H, and
    per trial one mat-vec and one transform evaluation, which gives g and
    g' together.  The gradient is a sum of GEMV tiles that OpenBLAS runs on
    one thread (:func:`~convexreg.loss._gradient`).  A failed search builds
    K once.

    Raises NonFiniteLossError when the loss, or the gradient norm, at the
    starting point is not finite: no step from there can be judged.
    """
    if config is None:
        config = SolverConfig()
    w = _checked_weights(dataset, w0, "w0")
    _warn_if_outside_bound(transform, dataset.targets)
    return _descend(dataset, transform, w, config)


def _descend(dataset: Dataset, transform: Transform, w: np.ndarray, config: SolverConfig) -> FitReport:
    """:func:`gd_fit`'s descent from a checked, finite ``w``; it issues no warning."""
    features, targets = dataset.features, dataset.targets
    z, slopes, loss = _evaluate(features, targets, transform, w)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss at the starting point is {loss!r}")
    grad, grad_norm = _gradient_and_norm(features, slopes)
    if not np.isfinite(grad_norm):
        raise NonFiniteLossError(f"gradient norm at the starting point is {grad_norm!r}")

    trace = [loss]
    iterations = 0
    termination = TERMINATION_MAX_ITERS
    inverse = None  # the BFGS inverse-Hessian estimate, from the first update on

    for _ in range(config.max_iters):
        if grad_norm <= config.grad_tol * (1.0 + abs(loss)):
            termination = TERMINATION_CONVERGED
            break

        direction, slope, step = _direction(inverse, grad, grad_norm, loss)
        while step > _MIN_STEP and step * slope >= _EPS * loss:
            w_try, z_try, slopes_try, loss_try = _trial(features, targets, transform, w, direction, step)
            # Strict decrease is required on top of the Armijo test: at the
            # floating-point floor the Armijo threshold rounds to loss itself,
            # which would otherwise accept zero-progress steps forever.
            # NaN/inf trial losses fail both tests and shrink the step.
            if loss_try <= loss - _ARMIJO_C * step * slope and loss_try < loss:
                break
            step *= _BACKTRACK
        else:  # no trial passed
            # The pairwise sum of N squares rounds by up to about ceil(log2 N) * eps * L
            # (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4).
            floor = max(1, (features.shape[0] - 1).bit_length()) * _EPS * loss
            at_floor = _newton_decrement(features, targets, transform, z, grad) <= floor
            termination = TERMINATION_AT_FLOOR if at_floor else TERMINATION_STALLED
            break

        grad_try, grad_norm = _gradient_and_norm(features, slopes_try)
        inverse = _bfgs_update(inverse, w_try - w, grad_try - grad)
        w, z, loss, grad = w_try, z_try, loss_try, grad_try
        trace.append(loss)
        iterations += 1

    return FitReport(
        final_weights=_frozen(w),
        final_loss=float(loss),
        final_grad_norm=grad_norm,
        iterations=iterations,
        termination=termination,
        loss_trace=_frozen(np.asarray(trace)),
    )


def _direction(inverse, grad, grad_norm, loss) -> tuple[np.ndarray, float, float]:
    """The search direction ``H g``, its slope ``g^T H g`` and the line search's first step.

    They are g and ``||g||^2`` before the first update and where that slope
    is not a finite positive number.  Along ``H g`` the first step is 1.
    Along g it is ``min(1, 2 L / ||g||^2)``, or 1 where that is not a
    finite positive number: Polyak's step for a loss bounded below by 0,
    where the one quadratic along -g that matches L and its slope bottoms
    out at 0 (Polyak, *Introduction to Optimization*, sec. 5.3).
    """
    if inverse is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            direction = np.einsum("ij,j->i", inverse, grad)
            slope = float(np.einsum("i,i->", grad, direction))
        if slope > 0.0 and math.isfinite(slope):
            return direction, slope, 1.0
    slope = grad_norm * grad_norm
    polyak = 2.0 * loss / slope if slope > 0.0 else math.inf
    return grad, slope, polyak if 0.0 < polyak < 1.0 else 1.0


def _bfgs_update(inverse, s, y):
    """``(I - r s y^T) H (I - r y s^T) + r s s^T``, ``r = 1 / s^T y``: H after step s changed g by y.

    That is Nocedal & Wright's eq. 6.17, from ``H = (s^T y / y^T y) I`` at
    the first update (eq. 6.20).  H is returned unchanged where ``s^T y``
    is not a finite positive number.  Products are reduced by einsum
    without BLAS, so the bits do not depend on the BLAS thread count.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sy = float(np.einsum("i,i->", s, y))
        if not (sy > 0.0 and math.isfinite(sy)):
            return inverse
        if inverse is None:
            inverse = np.eye(s.size) * (sy / float(np.einsum("i,i->", y, y)))
        hy = np.einsum("ij,j->i", inverse, y)
        r = 1.0 / sy
        ss = (r * r * float(np.einsum("i,i->", y, hy)) + r) * np.multiply.outer(s, s)
        return inverse - r * (np.multiply.outer(s, hy) + np.multiply.outer(hy, s)) + ss


def _trial(features, targets, transform, w, direction, step):
    """The trial point ``w - step * direction`` with its response, loss slopes and loss.

    Every trial is evaluated from scratch, never by updating z along
    ``X @ direction``: the carried z drifts, and the loss reported for the
    returned weights must be their exact loss.
    """
    w_try = w - step * direction
    return (w_try, *_evaluate(features, targets, transform, w_try))


def _gradient_and_norm(features, slopes) -> tuple[np.ndarray, float]:
    """The loss gradient from a point's slopes and its 2-norm, which is inf, without a RuntimeWarning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _gradient(features, slopes)
        return grad, float(np.linalg.norm(grad))


def _newton_decrement(features, targets, transform, z, grad) -> float:
    """``g^T H^-1 g / 2`` at a point with response z, or inf when H is not positive definite.

    H is the exact loss Hessian.  Near a minimum the decrement is how much
    further the loss can fall (Boyd & Vandenberghe, *Convex Optimization*,
    sec. 9.5.1).
    """
    hessian = _hessian(features, targets, transform, z)
    if not np.all(np.isfinite(hessian)):
        return math.inf
    try:
        factor = _cholesky_with_pivots(hessian)
    except SingularSystemError:
        return math.inf
    half = np.linalg.solve(factor, grad)
    return 0.5 * float(half @ half)


def _cholesky_with_pivots(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises SingularSystemError on a bad pivot."""
    n = matrix.shape[0]
    factor = np.zeros_like(matrix)
    pivots = np.empty(n)
    for j in range(n):
        pivot = matrix[j, j] - factor[j, :j] @ factor[j, :j]
        pivots[j] = pivot
        largest = float(pivots[: j + 1].max())
        if pivot <= 0.0 or pivot <= _PIVOT_RATIO * largest:
            raise SingularSystemError(j, pivot)
        factor[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            factor[j + 1 :, j] = (matrix[j + 1 :, j] - factor[j + 1 :, :j] @ factor[j, :j]) / factor[j, j]
    smallest_idx = int(np.argmin(pivots))
    if pivots[smallest_idx] <= _PIVOT_RATIO * float(pivots.max()):
        raise SingularSystemError(smallest_idx, pivots[smallest_idx])
    return factor


def ols_fit(dataset: Dataset) -> np.ndarray:
    """Ordinary least squares via the normal equations ``(X^T X) w = X^T y``.

    Solved with a symmetric positive-definite factorization; raises
    SingularSystemError (carrying the offending pivot index) when the
    smallest pivot is not above 1e-12 of the largest.  ``X^T X`` is the
    Hessian's kernel with all weights 1, GEMM tiles small enough that
    OpenBLAS runs each on one thread; ``X^T y`` is the gradient's kernel
    with the targets as slopes, GEMV tiles within the same rule.  So the
    bits do not depend on the BLAS thread count.
    """
    features = dataset.features
    gram = _gram(features, np.ones(features.shape[0]))
    rhs = _gradient(features, dataset.targets)
    factor = _cholesky_with_pivots(gram)
    halfway = np.linalg.solve(factor, rhs)
    return np.linalg.solve(factor.T, halfway)


def multi_restart_fit(
    dataset: Dataset,
    transform: Transform,
    restarts: int,
    config: SolverConfig | None = None,
) -> list[FitReport]:
    """Run :func:`gd_fit` from ``restarts`` independent starting points.

    Starting points are i.i.d. uniform on ``[-r, r]^d`` with
    ``r = 10 / (1 + max feature column norm)``, seeded from
    ``config.seed + restart_index`` so each restart is reproducible on its
    own.  Reports are returned in restart order.  Under a convex objective
    the final losses agree; a spread of final losses is the signature of a
    nonconvex landscape.
    """
    if config is None:
        config = SolverConfig()
    restarts = _count(restarts, "restarts", 2)
    radius = 10.0 / (1.0 + float(np.linalg.norm(dataset.features, axis=0).max()))
    # Warned once here; each restart descends without repeating it.
    _warn_if_outside_bound(transform, dataset.targets)
    reports = []
    for index in range(restarts):
        rng = np.random.default_rng(config.seed + index)
        w0 = rng.uniform(-radius, radius, dataset.n_features)
        reports.append(_descend(dataset, transform, w0, config))
    return reports
