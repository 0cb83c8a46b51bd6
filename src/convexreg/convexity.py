"""Numerical certification (and refutation) of convexity claims.

Every check is empirical: a pass means "no violation found among the
samples tested", never a proof.  A failure always carries a concrete
witness at which the violated inequality can be re-evaluated
independently.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .loss import Dataset, dloss_dz, _checked_weights, _evaluate, _gradient
from .transforms import Transform, _count, _finite_positive

MIDPOINT_TOL = 1e-9
MONOTONICITY_TOL = 1e-9
HESSIAN_TOL = 1e-5
HESSIAN_STEP = 1e-5

# Triples the midpoint check draws and judges at a time.  A chunk's dozen
# 128 KB arrays fit in a core's L2 cache, so its elementwise passes do not
# go out to memory.
_CHUNK = 2**14


def _usable_cores() -> int:
    """Cores this process may be scheduled on (its affinity mask, where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class InvalidGridError(ValueError):
    """An evaluation grid is empty, unsorted, or otherwise malformed."""


class NonFiniteCheckError(ValueError):
    """A sampled loss or loss derivative is not finite, so the check has no verdict."""


@dataclass(frozen=True, eq=False)
class ConvexityReport:
    """Result of one convexity check.

    ``worst_violation`` is the most negative slack observed (normalized by
    the check's own scale); the check passes iff it is >= minus the check's
    fixed ``*_TOL`` constant (0 for the witness search).  ``witness`` is
    the input tuple achieving it.  Each check below builds its own.
    """

    check_name: str
    passed: bool
    worst_violation: float
    witness: Any
    samples_tested: int

    def describe(self) -> str:
        if self.passed:
            return (
                f"{self.check_name}: no violation found among "
                f"{self.samples_tested} samples (worst slack {self.worst_violation:.3g})"
            )
        return (
            f"{self.check_name}: violated by {-self.worst_violation:.3g} "
            f"at witness {self.witness!r}"
        )

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "witness": _jsonable(self.witness),
            "samples_tested": int(self.samples_tested),
            "summary": self.describe(),
        }


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def graded_grid(half_width: float, n_points: int) -> np.ndarray:
    """Sign-symmetric grid on [-half_width, half_width], dense near zero.

    Log-spaced magnitudes (8 decades) plus the origin, mirrored to negative
    values, so behavior around the kink at z = 0 is probed closely.
    ``half_width`` must be finite and positive, ``n_points`` an odd integer >= 3.
    """
    half_width = _finite_positive(half_width, "half_width")
    if _count(n_points, "n_points", 3) % 2 == 0:
        raise ValueError(f"n_points must be odd, got {n_points!r}")
    half = (n_points - 1) // 2
    magnitudes = np.geomspace(half_width * 1e-8, half_width, half)
    return np.concatenate([-magnitudes[::-1], [0.0], magnitudes])


def midpoint_convexity_check(
    transform: Transform,
    y: float,
    z_range: tuple[float, float],
    n_samples: int,
    *,
    seed: int = 0,
) -> ConvexityReport:
    """Sample the chord inequality ``l(mid) <= lam*l(z1) + (1-lam)*l(z2)``.

    Draws ``n_samples`` i.i.d. triples (z1, z2, lam) with z1, z2 uniform on
    ``z_range`` and lam uniform on [0, 1]: all z1, then all z2, then all
    lam from ``default_rng(seed)``.  It passes iff every slack, normalized
    by ``1 + max loss in the triple``, is >= -``MIDPOINT_TOL`` (1e-9).  The
    triples are drawn and judged in chunks, so memory does not grow with
    ``n_samples``; contiguous ranges of chunks run on the usable cores,
    and the report is the same at any core count.  Raises
    NonFiniteCheckError at the first triple with a loss that is not
    finite, and ValueError when ``n_samples`` is not an integer >= 1 or
    ``seed`` is not an integer >= 0.
    """
    return _midpoint_reports(transform, [y], z_range, n_samples, seed)[0]


def _midpoint_reports(transform: Transform, ys, z_range, n_samples, seed) -> list[ConvexityReport]:
    """:func:`midpoint_convexity_check` at each target in ``ys``, all from one draw of triples.

    g(z1), g(z2) and g(mid) are evaluated once per triple; each target's
    report is then bit for bit the one-target check's at that target.  A
    loss that is not finite raises for the first such triple in draw
    order, naming the first target in ``ys`` whose loss is not finite
    there.
    """
    lo, hi = float(z_range[0]), float(z_range[1])
    # The width bounds the draws: uniform(lo, hi) needs hi - lo finite.
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError("z_range must be a nondegenerate (low, high) pair with finite ends and width")
    # A Python int: PCG64.advance overflows on numpy integer offsets.
    n_samples = _count(n_samples, "n_samples", 1)
    seed = _count(seed, "seed", 0)

    n_chunks = -(-n_samples // _CHUNK)
    n_ranges = min(n_chunks, _usable_cores())
    starts = [n_chunks * k // n_ranges * _CHUNK for k in range(n_ranges)] + [n_samples]

    # The caller's error state, with overflow and invalid values let through
    # for the finiteness test below.  Every range sets it: a thread starts
    # from numpy's defaults, not from its creator's state.
    chunk_errors = {**np.geterr(), "over": "ignore", "invalid": "ignore"}
    stopped = threading.Event()

    def judge_range(k):
        # One copy of default_rng(seed)'s stream per variable, each jumped ahead
        # to where the one-stream draw reaches the range's first triple, so any
        # split of the triples draws the same numbers.  Each is built from the
        # seed: an unseeded PCG64 would keep the OS entropy it drew, an int
        # whose traced size varies from call to call.
        z1_rng, z2_rng, lam_rng = (
            np.random.Generator(np.random.PCG64(seed).advance(offset + starts[k]))
            for offset in (0, n_samples, 2 * n_samples)
        )
        first_worst = [None] * len(ys)
        for start in range(starts[k], starts[k + 1], _CHUNK):
            if stopped.is_set():
                return None
            size = min(_CHUNK, n_samples - start)
            z1, z2 = z1_rng.uniform(lo, hi, size), z2_rng.uniform(lo, hi, size)
            lam = lam_rng.uniform(0.0, 1.0, size)
            with np.errstate(**chunk_errors):
                g1 = transform.evaluate(z1)
                g2 = transform.evaluate(z2)
                # lam*z1 + (1-lam)*z2 in the one-pass order of operations.  mid
                # then holds each target's scale in turn; no second name holds
                # an array into the next chunk, whose arrays replace these one
                # by one.
                mu = 1.0 - lam
                mid = lam * z1
                mid += mu * z2
                gmid = transform.evaluate(mid)
                failure = None
                for t, y in enumerate(ys):
                    slack = _chord_slack(g1, g2, gmid, lam, mu, y, out=mid)
                    # np.maximum propagates nan: the scale is finite iff the
                    # three losses are, and then no slack is nan.
                    finite = np.isfinite(mid)
                    if not finite.all():
                        i = int(np.argmin(finite))
                        # Strictly below: at one triple the earlier target is named.
                        if failure is None or i < failure[0]:
                            failure = i, y
                    else:
                        idx = int(np.argmin(slack))
                        # Strictly below: a tie keeps the earlier triple, as one argmin would.
                        if first_worst[t] is None or slack[idx] < first_worst[t][0]:
                            first_worst[t] = float(slack[idx]), (float(z1[idx]), float(z2[idx]), float(lam[idx]))
                    # Freed before the next target's losses and the next chunk's
                    # draws, so a chunk holds at most ten arrays at once.
                    del slack
                if failure is not None:
                    i, y = failure
                    # Each loss as _chord_slack squares it, g(z) - y times itself.
                    losses = ", ".join(repr(float((g[i] - y) * (g[i] - y))) for g in (g1, g2, gmid))
                    raise NonFiniteCheckError(
                        f"the loss is not finite at sampled triple {start + i} of {n_samples} "
                        f"for y = {float(y)!r}: "
                        f"(z1, z2, lam) = ({float(z1[i])!r}, {float(z2[i])!r}, {float(lam[i])!r}) gives "
                        f"losses ({losses})"
                    )
        return first_worst

    # Imported here: the pool, and the logging it loads, serve only this check.
    from concurrent.futures import ThreadPoolExecutor

    # The calling thread judges range 0.  Reading the other ranges in order
    # raises the lowest failing range's error, the one the serial run raises;
    # once the caller stops waiting, the ranges still running stop at their
    # next chunk, and leaving the ``with`` joins the pool's threads.  The pool
    # joins only threads whose start() returned; an interrupt inside start()
    # leaves one out, so the outer ``finally`` joins the call's threads by name.
    prefix = f"convexreg-midpoint-{id(stopped):x}"
    try:
        with ThreadPoolExecutor(max(1, n_ranges - 1), thread_name_prefix=prefix) as pool:
            try:
                futures = [pool.submit(judge_range, k) for k in range(1, n_ranges)]
                ranges = [judge_range(0), *(f.result() for f in futures)]
            finally:
                stopped.set()
    finally:
        for thread in threading.enumerate():
            if thread.name.startswith(prefix + "_") and thread.is_alive():
                thread.join()
    reports = []
    for t in range(len(ys)):
        # min keeps the first of equal slacks: across ranges, too, a tie goes to
        # the earlier triple.
        worst, witness = min((worsts[t] for worsts in ranges), key=lambda pair: pair[0])
        reports.append(
            ConvexityReport(
                check_name="midpoint_convexity",
                passed=worst >= -MIDPOINT_TOL,
                worst_violation=worst,
                witness=witness,
                samples_tested=n_samples,
            )
        )
    return reports


def _chord_slack(g1, g2, gmid, lam, mu, y, *, out):
    """``(lam*l1 + (1-lam)*l2 - lmid) / out`` with ``out`` set to ``1 + max(l1, l2, lmid)``.

    Each loss is :func:`~convexreg.loss.loss_z`'s ``g(z) - y``, squared in
    place, and the slack takes the one-pass formula's order of operations.
    l2's array receives lmid once l2 is spent, so the three losses take
    two new arrays, and the returned slack is one of them.
    """
    l1 = g1 - y
    l1 *= l1
    l2 = g2 - y
    l2 *= l2
    np.maximum(l1, l2, out=out)
    l1 *= lam
    l2 *= mu
    l1 += l2
    lmid = np.subtract(gmid, y, out=l2)
    lmid *= lmid
    np.maximum(out, lmid, out=out)
    out += 1.0
    l1 -= lmid
    l1 /= out
    return l1


def derivative_monotonicity_check(transform: Transform, y: float, z_grid) -> ConvexityReport:
    """Check that the loss derivative in z never decreases along a grid.

    A nondecreasing derivative of a continuously differentiable function
    is equivalent to convexity, so the most negative successive difference
    of ``dloss_dz`` over the grid is the reported slack, and it passes iff
    >= -``MONOTONICITY_TOL`` (1e-9).  ``verify`` does not run it: the slack
    is raw, of size Y^2*alpha for convex-sqrt, and pure rounding at y = ±Y,
    where one side of the kink has zero curvature.  Raises InvalidGridError
    for a grid entry that is not finite, and NonFiniteCheckError when a
    derivative or a difference is not finite.
    """
    grid = np.asarray(z_grid, dtype=float)
    if grid.ndim != 1:
        raise InvalidGridError(f"z_grid must be a 1-D sequence, got shape {grid.shape}")
    if grid.size < 2:
        raise InvalidGridError("z_grid must contain at least two points")
    if not np.all(np.isfinite(grid)):
        raise InvalidGridError("grid entries must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise InvalidGridError("z_grid must be sorted strictly ascending")

    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.diff(dloss_dz(transform, grid, y))
    finite = np.isfinite(diffs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteCheckError(
            f"the loss derivative in z, or its difference, is not finite between "
            f"z = {float(grid[i])!r} and z = {float(grid[i + 1])!r} for y = {float(y)!r}"
        )
    idx = int(np.argmin(diffs))
    worst = float(diffs[idx])
    return ConvexityReport(
        check_name="derivative_monotonicity",
        passed=worst >= -MONOTONICITY_TOL,
        worst_violation=worst,
        witness=(float(grid[idx]), float(grid[idx + 1])),
        samples_tested=grid.size - 1,
    )


def _fd_hessian(dataset: Dataset, transform: Transform, w: np.ndarray) -> np.ndarray:
    """Central differences of the loss gradient at ``w ± s_i e_i``, one column per i.

    The step is ``s_i = HESSIAN_STEP * (1 + |w_i|)``.  Column i is
    ``(grad L(w + s_i e_i) - grad L(w - s_i e_i)) / h_i`` with
    ``h_i = (w_i + s_i) - (w_i - s_i)``, the step as it is represented.
    Raises NonFiniteCheckError when a loss or an entry is not finite.
    """
    steps = HESSIAN_STEP * (1.0 + np.abs(w))
    d = w.size
    losses = np.empty(2 * d)
    hessian = np.empty((d, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            gradients = []
            for k, step in enumerate((steps[i], -steps[i])):
                point = w.copy()
                point[i] = w[i] + step
                _, slope, losses[2 * i + k] = _evaluate(dataset.features, dataset.targets, transform, point)
                gradients.append(_gradient(dataset.features, slope))
            hessian[:, i] = (gradients[0] - gradients[1]) / ((w[i] + steps[i]) - (w[i] - steps[i]))
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise NonFiniteCheckError(
            f"the loss is not finite at {bad.size} of {losses.size} finite-difference "
            f"points (first: {float(losses[bad[0]])!r} at point {int(bad[0])})"
        )
    if not np.all(np.isfinite(hessian)):
        i, j = np.argwhere(~np.isfinite(hessian))[0]
        raise NonFiniteCheckError(
            f"finite-difference Hessian entry ({i}, {j}) is {float(hessian[i, j])!r}: "
            "the gradients are too large to difference"
        )
    return hessian


def fd_hessian_psd_check(dataset: Dataset, transform: Transform, w) -> ConvexityReport:
    """Finite-difference Hessian of the total loss at w, tested for PSD.

    Central differences of the loss gradient with per-coordinate step
    ``HESSIAN_STEP * (1 + |w_i|)`` build the matrix from 2d gradient
    passes; it is symmetrized as (H + H^T)/2 and its minimum eigenvalue,
    normalized by ``1 + max |H entry|``, is the slack, passing iff >=
    -``HESSIAN_TOL``.  The witness pairs w with the offending eigenvector,
    each a tuple of floats.
    Raises ValueError for a ``w`` that is not finite or of the wrong length,
    and NonFiniteCheckError when a loss or an entry is not finite.
    """
    w = _checked_weights(dataset, w, "w")
    hessian = _fd_hessian(dataset, transform, w)
    eigenvalues, eigenvectors = np.linalg.eigh(0.5 * (hessian + hessian.T))
    scale = 1.0 + float(np.abs(hessian).max())
    worst = float(eigenvalues[0]) / scale
    return ConvexityReport(
        check_name="fd_hessian_psd",
        passed=worst >= -HESSIAN_TOL,
        worst_violation=worst,
        witness=(tuple(w.tolist()), tuple(eigenvectors[:, 0].tolist())),
        samples_tested=w.size * w.size,
    )


def find_nonconvex_witness(transform: Transform, z_grid, y_grid) -> ConvexityReport:
    """Grid-search the pointwise loss curvature for a negative value.

    The report, ``nonconvex_witness_search``, fails when the minimum of
    ``transform.curvature`` over the grid is negative: its slack is
    that minimum and its witness the (z, y) giving it.  A pass has slack
    exactly 0.0 and witness None.  Covers every transform.  For
    convex-sqrt the curvature is in closed form and its sign is exact: no
    value is negative while every |y| <= Y, and y = -Y (z > 0) or y = Y
    (z < 0) gives exactly 0.0.  Raises InvalidGridError for a grid entry
    that is not finite, and NonFiniteCheckError naming the first (z, y)
    whose curvature is not finite.
    """
    z_grid = np.asarray(z_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    if z_grid.ndim != 1 or z_grid.size == 0 or y_grid.ndim != 1 or y_grid.size == 0:
        raise InvalidGridError("z_grid and y_grid must be nonempty 1-D sequences")
    if not (np.all(np.isfinite(z_grid)) and np.all(np.isfinite(y_grid))):
        raise InvalidGridError("grid entries must be finite")
    if np.any(np.diff(z_grid) < 0.0) or np.any(np.diff(y_grid) < 0.0):
        raise InvalidGridError("grids must be sorted ascending")

    z_mesh, y_mesh = np.meshgrid(z_grid, y_grid, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        values = transform.curvature(z_mesh, y_mesh)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise NonFiniteCheckError(
            f"the loss curvature is not finite at {len(bad)} of {values.size} grid points "
            f"(first: {float(values[i, j])!r} at "
            f"(z, y) = ({float(z_grid[i])!r}, {float(y_grid[j])!r}))"
        )
    i, j = np.unravel_index(int(np.argmin(values)), values.shape)
    minimum = float(values[i, j])
    passed = minimum >= 0.0
    return ConvexityReport(
        check_name="nonconvex_witness_search",
        passed=passed,
        worst_violation=0.0 if passed else minimum,
        witness=None if passed else (float(z_grid[i]), float(y_grid[j])),
        samples_tested=values.size,
    )


def verification_battery(
    transform: Transform,
    y_bound: float,
    n_samples: int = 10000,
    seed: int = 0,
) -> list[ConvexityReport]:
    """The full check suite run by the command-line ``verify``.

    Midpoint checks at five target values spanning [-y_bound, y_bound],
    a finite-difference Hessian check on a small synthetic dataset at
    three random weight vectors, and a grid search for a pointwise
    curvature counterexample (exact for convex-sqrt, so no derivative-
    monotonicity check).  The five midpoint checks judge one draw of
    ``n_samples`` triples, the one ``midpoint_convexity_check(..., seed=seed)``
    makes, so g is evaluated three times per triple, not fifteen; each
    entry is bit for bit that check's report at its target.  A loss that
    is not finite raises for the first such triple, naming the first of
    the five targets whose loss is not finite there.  Deterministic for a
    given seed.  Raises
    NonFiniteCheckError when any check meets a value that is not finite,
    and ValueError when ``seed`` is not an integer >= 0.
    """
    y_bound = _finite_positive(y_bound, "y_bound")
    seed = _count(seed, "seed", 0)
    reports: list[ConvexityReport] = []
    y_values = [-y_bound, -0.5 * y_bound, 0.0, 0.5 * y_bound, y_bound]

    midpoints = _midpoint_reports(transform, y_values, (-100.0, 100.0), n_samples, seed)
    for y, report in zip(y_values, midpoints):
        reports.append(replace(report, check_name=f"midpoint_convexity(y={y:g})"))

    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, (30, 3))
    targets = rng.uniform(-y_bound, y_bound, 30)
    dataset = Dataset(features, targets)
    for draw in range(3):
        w = rng.uniform(-1.0, 1.0, 3)
        report = fd_hessian_psd_check(dataset, transform, w)
        reports.append(replace(report, check_name=f"fd_hessian_psd(w_draw={draw})"))

    z_grid, y_grid = np.linspace(-3.0, 3.0, 61), np.linspace(-y_bound, y_bound, 21)
    reports.append(find_nonconvex_witness(transform, z_grid, y_grid))
    return reports
