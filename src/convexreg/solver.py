"""Batch gradient descent with backtracking line search, plus closed-form OLS.

Convexity of the composed loss is what makes this simple solver globally
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
    """Gradient-descent settings.

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
    """Minimize the cumulative squared loss by gradient descent from ``w0``.

    Each iteration takes a step s along the negative gradient g.  The first
    trial is s = 1; later ones start from the Barzilai-Borwein step
    ``s_prev * g_prev^T (g_prev - g) / ||g - g_prev||^2``, built from the
    previous iteration's gradient g_prev and accepted step s_prev, or from
    s_prev doubled where that quotient is not a finite positive number.
    The step is halved until the Armijo test
    ``L(w - s*g) <= L(w) - 1e-4 * s * ||g||^2`` passes, so the loss trace
    is nonincreasing.  A search from the Barzilai-Borwein step that fails
    is run once more from s_prev doubled.  Terminations:

    - ``converged``: gradient norm fell below ``grad_tol * (1 + |loss|)``;
    - ``max_iters``: iteration budget exhausted;
    - ``converged_at_floor``: no trial with ``s * ||g||^2 >= eps * loss``
      passes the Armijo test, where eps is float64 machine epsilon, and
      the Newton decrement ``g^T H^-1 g / 2`` at the last point, which
      estimates how much further the loss can fall, is at most
      ``eps * loss``: the loss is optimal to its own rounding;
    - ``line_search_stalled``: no such trial passes, but the decrement is
      larger, or the loss Hessian H is not positive definite.

    Trials with ``s * ||g||^2 < eps * loss`` are not evaluated: a decrease
    below the loss's rounding could pass only by luck.  At loss 0 the rule
    admits every step, and trials stop below 1e-16.

    One iteration costs one gradient reduction, which reuses the response
    and residual of the trial point accepted last, plus one mat-vec and
    one transform evaluation per line-search trial.  A fit whose line
    search fails builds the loss Hessian once, at its last point.

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
    z, residual, loss = _evaluate(features, targets, transform, w)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss at the starting point is {loss!r}")
    grad, grad_norm = _gradient_and_norm(features, transform, z, residual)
    if not np.isfinite(grad_norm):
        raise NonFiniteLossError(f"gradient norm at the starting point is {grad_norm!r}")

    trace = [loss]
    iterations = 0
    termination = TERMINATION_MAX_ITERS
    # The first iteration doubles this step: its first trial is 1.
    step = _BACKTRACK
    previous_grad = None

    for _ in range(config.max_iters):
        if grad_norm <= config.grad_tol * (1.0 + abs(loss)):
            termination = TERMINATION_CONVERGED
            break

        grad_sq = grad_norm * grad_norm
        doubled = step / _BACKTRACK
        first = doubled if previous_grad is None else _bb_step(step, previous_grad, grad)
        accepted = False
        # A search from the Barzilai-Borwein step that fails is retried once
        # from the doubled step before the fit is labelled.
        for step in (first,) if first == doubled else (first, doubled):
            while step > _MIN_STEP and step * grad_sq >= _EPS * loss:
                w_try, z_try, residual_try, loss_try = _trial(features, targets, transform, w, grad, step)
                # Strict decrease is required on top of the Armijo test: at the
                # floating-point floor the Armijo threshold rounds to loss itself,
                # which would otherwise accept zero-progress steps forever.
                # NaN/inf trial losses fail both tests and shrink the step.
                if loss_try <= loss - _ARMIJO_C * step * grad_sq and loss_try < loss:
                    accepted = True
                    break
                step *= _BACKTRACK
            if accepted:
                break
        if not accepted:
            at_floor = _newton_decrement(features, targets, transform, z, grad) <= _EPS * loss
            termination = TERMINATION_AT_FLOOR if at_floor else TERMINATION_STALLED
            break

        w, z, residual, loss = w_try, z_try, residual_try, loss_try
        trace.append(loss)
        iterations += 1
        previous_grad = grad
        grad, grad_norm = _gradient_and_norm(features, transform, z, residual)

    return FitReport(
        final_weights=_frozen(w),
        final_loss=float(loss),
        final_grad_norm=grad_norm,
        iterations=iterations,
        termination=termination,
        loss_trace=_frozen(np.asarray(trace)),
    )


def _bb_step(step, previous_grad, grad) -> float:
    """The first trial step after an accepted step ``step`` along ``-previous_grad``.

    It is the Barzilai-Borwein step ``s^T y / y^T y`` (the second of the
    two in *IMA J. Numer. Anal.* 8, 1988), for ``s = -step * previous_grad``
    and ``y = grad - previous_grad``: the a that best fits the secant
    equation ``s = a * y`` in least squares.  It is ``step`` doubled when
    ``s^T y <= 0``, when ``y^T y = 0`` or when the quotient is not finite.
    The dot products are reduced by einsum without BLAS, so the bits do not
    depend on the BLAS thread count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y = grad - previous_grad
        sy = -step * float(np.einsum("i,i->", previous_grad, y))
        yy = float(np.einsum("i,i->", y, y))
    if sy > 0.0 and yy > 0.0:
        quotient = sy / yy
        if math.isfinite(quotient):
            return quotient
    return step / _BACKTRACK


def _trial(features, targets, transform, w, grad, step):
    """The trial point ``w - step * grad`` with its response, residual and loss.

    Every trial is evaluated from scratch, never by updating z along
    ``X @ grad``: the carried z drifts, and the loss reported for the
    returned weights must be their exact loss.
    """
    w_try = w - step * grad
    return (w_try, *_evaluate(features, targets, transform, w_try))


def _gradient_and_norm(features, transform, z, residual) -> tuple[np.ndarray, float]:
    """The loss gradient and its 2-norm, which is inf, without a RuntimeWarning, when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _gradient(features, transform, z, residual)
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
    smallest pivot is not above 1e-12 of the largest.  Both products are
    contiguous dot products of the column-major feature columns, reduced by
    einsum without BLAS, so the bits do not depend on the BLAS thread count.
    """
    columns = dataset.features.T
    gram = np.einsum("ji,ki->jk", columns, columns)
    rhs = np.einsum("ji,i->j", columns, dataset.targets)
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
