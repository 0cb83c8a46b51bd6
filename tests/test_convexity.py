"""Tests for the convexity certification lab."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from convexreg import (
    AffineTransform,
    ConvexSqrtTransform,
    ConvexityReport,
    Dataset,
    DimensionMismatchError,
    InvalidGridError,
    Model,
    NonFiniteCheckError,
    SynthSpec,
    TanhTransform,
    derivative_monotonicity_check,
    dloss_dz,
    fd_hessian_psd_check,
    find_nonconvex_witness,
    generate_synthetic,
    graded_grid,
    loss_z,
    midpoint_convexity_check,
    total_loss,
    verification_battery,
)
from convexreg.convexity import _CHUNK, HESSIAN_STEP, _fd_hessian, _usable_cores
from convexreg.loss import _evaluate, _hessian

CS11 = ConvexSqrtTransform(1.0, 1.0)
CORES = [1, 2, 3, 64]  # worker counts: serial, fewer ranges than chunks, one chunk per range
TANH1 = TanhTransform(1.0)
AFF = AffineTransform(1.0, 0.0)


def directional_second_difference(dataset, transform, w, direction, step=1e-5):
    """Independent oracle for v^T H v along a unit direction."""

    def value(point):
        return total_loss(Model(point, transform), dataset)

    h = step * (1.0 + float(np.linalg.norm(w)))
    return (value(w + h * direction) - 2.0 * value(w) + value(w - h * direction)) / (h * h)


class TestGradedGrid:
    def test_shape_and_symmetry(self):
        grid = graded_grid(50.0, 2001)
        assert grid.size == 2001
        assert np.all(np.diff(grid) > 0)
        assert grid[1000] == 0.0
        np.testing.assert_array_equal(grid, -grid[::-1])
        assert grid[-1] == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            graded_grid(50.0, 2000)
        with pytest.raises(ValueError):
            graded_grid(0.0, 2001)
        with pytest.raises(ValueError):
            graded_grid(50.0, 1)
        with pytest.raises(ValueError, match=r"^n_points must be an integer >= 3, got 2001.0$"):
            graded_grid(50.0, 2001.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("half_width", [np.inf, np.nan])
    def test_non_finite_half_width_rejected(self, half_width):
        with pytest.raises(ValueError, match="half_width must be a finite positive number"):
            graded_grid(half_width, 5)


class TestMidpointCheck:
    def test_convex_sqrt_passes(self):
        report = midpoint_convexity_check(CS11, 0.5, (-100.0, 100.0), 10**4, seed=1)
        assert report.passed
        assert report.samples_tested == 10**4
        assert report.worst_violation >= -1e-9

    def test_affine_passes(self):
        for y in (-3.0, 0.0, 2.0):
            assert midpoint_convexity_check(AFF, y, (-100.0, 100.0), 10**4, seed=2).passed

    def test_tanh_fails_with_sound_witness(self):
        report = midpoint_convexity_check(TANH1, -1.0, (0.0, 3.0), 10**4, seed=3)
        assert not report.passed
        z1, z2, lam = report.witness
        l1 = loss_z(TANH1, z1, -1.0)
        l2 = loss_z(TANH1, z2, -1.0)
        lmid = loss_z(TANH1, lam * z1 + (1 - lam) * z2, -1.0)
        slack = (lam * l1 + (1 - lam) * l2 - lmid) / (1.0 + max(l1, l2, lmid))
        assert slack < 0.5 * report.worst_violation  # violated by more than half

    def test_validation(self):
        with pytest.raises(ValueError):
            midpoint_convexity_check(CS11, 0.0, (1.0, 1.0), 10)
        with pytest.raises(ValueError):
            midpoint_convexity_check(CS11, 0.0, (0.0, 1.0), 0)
        for seed in (2.5, -1, None, True, False):
            with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed}$"):
                midpoint_convexity_check(CS11, 0.0, (0.0, 1.0), 10, seed=seed)
        for n_samples in (True, False):
            with pytest.raises(ValueError, match=rf"^n_samples must be an integer >= 1, got {n_samples}$"):
                midpoint_convexity_check(CS11, 0.0, (0.0, 1.0), n_samples)

    @pytest.mark.parametrize(
        "z_range", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)], ids=["low-inf", "high-inf", "inf-width"]
    )
    def test_infinite_range_rejected_before_drawing(self, z_range):
        # uniform() would raise OverflowError on each: its width hi - lo is inf.
        with pytest.raises(ValueError, match="finite ends and width"):
            midpoint_convexity_check(CS11, 0.0, z_range, 10)

    def test_seed_reproducibility(self):
        a = midpoint_convexity_check(CS11, 0.5, (-10, 10), 1000, seed=9)
        b = midpoint_convexity_check(CS11, 0.5, (-10, 10), 1000, seed=9)
        assert a.to_dict() == b.to_dict()


def draw_triples(rng, z_range, n_samples):
    """All z1, then all z2, then all lam, from one stream."""
    z1 = rng.uniform(z_range[0], z_range[1], n_samples)
    z2 = rng.uniform(z_range[0], z_range[1], n_samples)
    return z1, z2, rng.uniform(0.0, 1.0, n_samples)


def one_shot_midpoint(transform, y, z_range, n_samples, rng, tol=1e-9):
    """The chord-inequality check with every triple drawn and judged in one pass."""
    z1, z2, lam = draw_triples(rng, z_range, n_samples)
    l1 = loss_z(transform, z1, y)
    l2 = loss_z(transform, z2, y)
    lmid = loss_z(transform, lam * z1 + (1.0 - lam) * z2, y)
    scale = 1.0 + np.maximum(np.maximum(l1, l2), lmid)
    slack = (lam * l1 + (1.0 - lam) * l2 - lmid) / scale
    idx = int(np.argmin(slack))
    worst = float(slack[idx])
    witness = (float(z1[idx]), float(z2[idx]), float(lam[idx]))
    return ConvexityReport("midpoint_convexity", worst >= -tol, worst, witness, n_samples)


def midpoints(seed, n_samples):
    """The midpoints ``lam*z1 + (1-lam)*z2`` of the triples drawn on (-100, 100)."""
    z1, z2, lam = draw_triples(np.random.default_rng(seed), (-100.0, 100.0), n_samples)
    return lam * z1 + (1.0 - lam) * z2


class SpikedTransform:
    """g(z) = 0, except at each listed z, where g takes the listed value."""

    def __init__(self, spikes):
        self.spikes = spikes

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        g = np.zeros_like(z)
        for point, value in self.spikes.items():
            g[z == point] = value
        return g


class RecordingTransform:
    """tanh that records the thread and the numpy error state of each call.

    The first call on each thread waits until ``ranges`` threads have made
    theirs, so no range can finish before the others start.
    """

    def __init__(self, ranges):
        self.arrived = threading.Barrier(ranges, timeout=10)
        self.calls = []

    def evaluate(self, z):
        ident = threading.get_ident()
        first = all(ident != seen for seen, _ in self.calls)
        self.calls.append((ident, np.geterr()))
        if first:
            self.arrived.wait()
        return np.tanh(z)


class InterruptingTransform:
    """tanh whose first call on a worker thread interrupts the main thread.

    The interrupt is sent once the main thread judges range 0, after it has
    handed every other range to the pool.  Each worker thread's first call
    then waits until the main thread has taken the interrupt, so every
    worker that has begun is inside its first chunk when the caller stops
    waiting.  ``calls`` counts the calls on each worker thread.
    """

    def __init__(self, taken):
        self.taken = taken
        self.judging = threading.Event()
        self.once = threading.Lock()
        self.calls = {}

    def evaluate(self, z):
        thread = threading.current_thread()
        if thread is threading.main_thread():
            self.judging.set()
        else:
            self.calls[thread] = self.calls.get(thread, 0) + 1
            if self.calls[thread] == 1:
                if self.once.acquire(blocking=False):
                    assert self.judging.wait(10)
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
                assert self.taken.wait(10)
                time.sleep(0.2)  # the caller unwinds to where it stops the ranges
        return np.tanh(z)


class LateFailureTransform(SpikedTransform):
    """SpikedTransform whose call that meets ``first`` waits until a call has met ``last``.

    So the range holding the earlier spike fails after the range holding
    the later one.
    """

    def __init__(self, spikes, first, last):
        super().__init__(spikes)
        self.first, self.last = first, last
        self.last_met = threading.Event()

    def evaluate(self, z):
        z = np.asarray(z, dtype=float)
        if (z == self.first).any():
            assert self.last_met.wait(10)
            time.sleep(0.1)  # the later range raises its error
        g = super().evaluate(z)
        if (z == self.last).any():
            self.last_met.set()
        return g


class FailingRangeTransform:
    """tanh that gives nan on each first call of the failing threads.

    ``failing`` is "caller" (the main thread, which judges range 0) or
    "workers".  The first call on each thread waits until ``ranges``
    threads have made theirs.  Each first call of the other threads then
    waits until a failing call has been made, and 0.1 s more, so the
    failure is raised while those threads are inside a chunk.  ``calls``
    counts the calls on each thread.
    """

    def __init__(self, failing, ranges):
        self.failing = failing
        self.arrived = threading.Barrier(ranges, timeout=10)
        self.failed = threading.Event()
        self.calls = {}

    def evaluate(self, z):
        thread = threading.current_thread()
        self.calls[thread] = self.calls.get(thread, 0) + 1
        fails = (thread is threading.main_thread()) == (self.failing == "caller")
        if self.calls[thread] == 1:
            self.arrived.wait()
            if fails:
                self.failed.set()
                return np.full_like(z, np.nan)
            assert self.failed.wait(10)
            time.sleep(0.1)
        return np.tanh(z)


class TestChunkedMidpoint:
    """The check draws and judges its triples in chunks, with the one-pass result."""

    @pytest.fixture(autouse=True)
    def no_stray_threads(self):
        # Every range's thread is joined before the check returns or raises.
        before = threading.enumerate()
        yield
        assert threading.enumerate() == before

    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    # 64 * _CHUNK + 1: more chunks than the 64 ranges, so ranges of one and two chunks.
    @pytest.mark.parametrize(
        "n_samples", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, 10**5, 64 * _CHUNK + 1]
    )
    @pytest.mark.parametrize("transform", [CS11, TANH1, AFF], ids=["convex-sqrt", "tanh", "affine"])
    def test_same_report_as_one_pass(self, pin_cores, transform, n_samples, seed, cores):
        pin_cores(cores)
        chunked = midpoint_convexity_check(transform, -0.75, (-100.0, 100.0), n_samples, seed=seed)
        reference = one_shot_midpoint(transform, -0.75, (-100.0, 100.0), n_samples, np.random.default_rng(seed))
        assert repr(chunked.to_dict()) == repr(reference.to_dict())

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.int8(7)], ids=repr)
    def test_numpy_integer_seed(self, seed):
        chunked = midpoint_convexity_check(TANH1, 0.5, (-100.0, 100.0), 2 * _CHUNK + 3, seed=seed)
        reference = one_shot_midpoint(TANH1, 0.5, (-100.0, 100.0), 2 * _CHUNK + 3, np.random.default_rng(7))
        assert repr(chunked.to_dict()) == repr(reference.to_dict())

    @pytest.mark.parametrize("n_samples", [np.int64(2 * _CHUNK + 3), np.uint32(5), np.int8(1)], ids=repr)
    def test_numpy_integer_n_samples(self, n_samples):
        # PCG64.advance overflowed on the numpy integer offsets this count gave.
        report = midpoint_convexity_check(CS11, 0.5, (-1.0, 1.0), n_samples, seed=3)
        reference = midpoint_convexity_check(CS11, 0.5, (-1.0, 1.0), int(n_samples), seed=3)
        assert repr(report.to_dict()) == repr(reference.to_dict())

    @pytest.mark.parametrize("n_samples", [1e3, 5.0, np.float64(7.0), "10", None], ids=repr)
    def test_non_integer_n_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            midpoint_convexity_check(CS11, 0.5, (-1.0, 1.0), n_samples)

    @pytest.mark.parametrize(
        "spikes, worst, index",
        [
            ({10: 1.0, 3 * _CHUNK + 3: 2.0}, -0.8, 3 * _CHUNK + 3),  # the worst sits in a later chunk
            ({10: 2.0, 3 * _CHUNK + 3: 1.0}, -0.8, 10),
            ({_CHUNK + 20: 1.0, 3 * _CHUNK + 3: 1.0}, -0.5, _CHUNK + 20),  # a tie across chunks
            ({_CHUNK - 1: 1.0, _CHUNK: 1.0}, -0.5, _CHUNK - 1),  # a tie across a chunk edge
        ],
        ids=["later-chunk", "first-chunk", "tie", "tie-at-edge"],
    )
    @pytest.mark.parametrize("cores", CORES)
    def test_first_worst_triple_wins(self, pin_cores, spikes, worst, index, cores):
        # Split among 2, 3 and 64 workers, the 5 chunks form ranges that start at
        # chunks {0, 2}, {0, 1, 3} and every chunk, so the spikes cross range borders.
        pin_cores(cores)
        # A spike of height v at a midpoint gives that triple the slack -v^2 / (1 + v^2); all others 0.
        n_samples = 4 * _CHUNK + 5
        mid = midpoints(11, n_samples)
        transform = SpikedTransform({mid[i]: value for i, value in spikes.items()})
        report = midpoint_convexity_check(transform, 0.0, (-100.0, 100.0), n_samples, seed=11)
        assert report.worst_violation == worst
        z1, z2, lam = report.witness
        assert lam * z1 + (1.0 - lam) * z2 == mid[index]
        reference = one_shot_midpoint(transform, 0.0, (-100.0, 100.0), n_samples, np.random.default_rng(11))
        assert repr(report.to_dict()) == repr(reference.to_dict())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spikes, index, losses",
        [
            ({_CHUNK + 20: 1.0, 2 * _CHUNK + 1: np.nan, 3 * _CHUNK + 3: 1e200}, 2 * _CHUNK + 1, "(0.0, 0.0, nan)"),
            ({3 * _CHUNK + 3: 1e200}, 3 * _CHUNK + 3, "(0.0, 0.0, inf)"),
            ({10: np.nan, 3 * _CHUNK + 3: 1e200}, 10, "(0.0, 0.0, nan)"),  # in the first and last range
        ],
        ids=["nan", "overflow", "first-range"],
    )
    @pytest.mark.parametrize("cores", CORES)
    def test_first_non_finite_loss_raises(self, pin_cores, spikes, index, losses, cores):
        pin_cores(cores)
        n_samples = 4 * _CHUNK + 5
        mid = midpoints(11, n_samples)
        transform = SpikedTransform({mid[i]: value for i, value in spikes.items()})
        with pytest.raises(NonFiniteCheckError, match=rf"the loss is not finite at sampled triple {index} of") as info:
            midpoint_convexity_check(transform, 0.0, (-100.0, 100.0), n_samples, seed=11)
        assert str(info.value).endswith(f"gives losses {losses}")

    @pytest.mark.parametrize("first", [10, _CHUNK + 20], ids=["range-0", "second-chunk"])
    @pytest.mark.parametrize("cores", [2, 3, 64])
    def test_lowest_failing_range_wins_when_it_fails_last(self, pin_cores, first, cores):
        # The spike at _CHUNK + 20 is in range 0 at 2 cores and in range 1 at 3 and 64.
        pin_cores(cores)
        n_samples = 4 * _CHUNK + 5
        last = 4 * _CHUNK + 3  # in the last range
        mid = midpoints(11, n_samples)
        transform = LateFailureTransform({mid[first]: np.nan, mid[last]: np.nan}, mid[first], mid[last])
        with pytest.raises(NonFiniteCheckError, match=rf"the loss is not finite at sampled triple {first} of"):
            midpoint_convexity_check(transform, 0.0, (-100.0, 100.0), n_samples, seed=11)
        assert transform.last_met.is_set()

    @pytest.mark.parametrize("cores", [2, 3])
    def test_earlier_ranges_finish_after_a_later_failure(self, pin_cores, cores):
        # Range 0 can still hold a lower failure, so it is judged to its end.
        pin_cores(cores)
        transform = FailingRangeTransform("workers", cores)
        with pytest.raises(NonFiniteCheckError) as info:
            midpoint_convexity_check(transform, 0.5, (-100.0, 100.0), 9 * _CHUNK, seed=1)
        # Range 1 starts at chunk 9 // cores; every chunk makes three loss evaluations.
        assert f"at sampled triple {9 // cores * _CHUNK} of" in str(info.value)
        assert transform.calls[threading.main_thread()] == 3 * (9 // cores)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_failure_in_range_0_stops_the_later_ranges(self, pin_cores, cores):
        pin_cores(cores)
        transform = FailingRangeTransform("caller", cores)
        with pytest.raises(NonFiniteCheckError, match="at sampled triple 0 of"):
            # 30 chunks: each worker's range holds at least 10.
            midpoint_convexity_check(transform, 0.5, (-100.0, 100.0), 30 * _CHUNK, seed=1)
        workers = [count for thread, count in transform.calls.items() if thread is not threading.main_thread()]
        # Each worker stops after the chunk it was in: three loss evaluations.
        assert workers and all(count <= 3 for count in workers)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_ranges_run_on_their_own_threads_with_the_callers_error_state(self, pin_cores, monkeypatch, cores):
        pin_cores(cores)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
        transform = RecordingTransform(cores)
        with np.errstate(divide="raise", under="warn"):
            midpoint_convexity_check(transform, 0.5, (-100.0, 100.0), 3 * _CHUNK + 7, seed=1)
        # The calling thread judges range 0, so one core starts no thread.
        assert len(started) == cores - 1
        idents = {ident for ident, _ in transform.calls}
        assert len(idents) == cores and threading.get_ident() in idents
        # Overflow and invalid values are let through for the check's own finiteness test.
        expected = {"divide": "raise", "over": "ignore", "under": "warn", "invalid": "ignore"}
        assert [state for _, state in transform.calls] == [expected] * len(transform.calls)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_interrupt_in_the_caller_stops_every_range(self, pin_cores, cores):
        pin_cores(cores)
        taken = threading.Event()

        def take_interrupt(signum, frame):
            taken.set()
            raise KeyboardInterrupt

        transform = InterruptingTransform(taken)
        handler = signal.signal(signal.SIGINT, take_interrupt)
        try:
            with pytest.raises(KeyboardInterrupt):
                # 30 chunks: each worker's range holds at least 10.
                midpoint_convexity_check(transform, 0.5, (-100.0, 100.0), 30 * _CHUNK, seed=1)
        finally:
            signal.signal(signal.SIGINT, handler)
        # Each worker stops after the chunk it was in: three loss evaluations.
        assert transform.calls and all(count <= 3 for count in transform.calls.values())

    def test_interrupt_while_the_pool_starts_a_thread(self, pin_cores, monkeypatch):
        # The interrupt lands after the thread has started but before the pool
        # records it, so only the check's own join can end it; no_stray_threads
        # judges that.
        pin_cores(3)
        start = threading.Thread.start

        def start_then_interrupt(thread):
            start(thread)
            raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "start", start_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            midpoint_convexity_check(CS11, 0.5, (-100.0, 100.0), 3 * _CHUNK + 7, seed=1)

    def test_usable_cores_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _usable_cores() == 4
        # os.cpu_count returns None when the count cannot be determined.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _usable_cores() == 1

    def test_memory_does_not_grow_with_samples(self, pin_cores):
        # One core: one range, judged by the calling thread.  With more, the
        # peak moves by some hundred bytes between runs as threads interleave.
        pin_cores(1)
        peak = midpoint_peak_bytes
        # A process's first calls also fill interpreter caches that tracemalloc
        # counts: CPython's free list of small dict keys, which np.argmin's
        # keyword dicts draw from, adds some hundred bytes to the first two
        # peaks; and the threading.Event and thread pool that each call makes
        # are traced 8 to 88 bytes smaller than the call before's, over the
        # first ~25 (CPython 3.11).
        for _ in range(40):
            peak(3 * _CHUNK)
        # Every call then peaks alike.  A stream from an unseeded PCG64 would keep
        # the OS entropy it drew, an int traced 4 bytes smaller whenever it falls
        # below 2**120: in about one call of 85.
        assert len({peak(3 * _CHUNK) for _ in range(100)}) == 1
        small, large = peak(10**6), peak(2 * 10**6)
        assert small < 8 * 2**20  # the three one-pass draws alone take 24 MB
        assert large == small

    def test_memory_with_two_workers_does_not_grow_with_samples(self, pin_cores):
        pin_cores(2)
        peak = midpoint_peak_bytes
        peak(10**6)
        # Two ranges that share one CPU peak together only when the scheduler
        # pauses one at its own peak, so one call's peak varies by a chunk
        # array or two; the largest of five calls catches the joint peak.
        small, large = (max(peak(n) for _ in range(5)) for n in (10**6, 2 * 10**6))
        assert small < 8 * 2**20 and large < 8 * 2**20
        assert abs(large - small) < _CHUNK * 8  # less than one chunk array


def midpoint_peak_bytes(n_samples):
    """tracemalloc's peak over one midpoint check of ``n_samples`` triples."""
    tracemalloc.start()
    try:
        midpoint_convexity_check(CS11, 0.5, (-100.0, 100.0), n_samples, seed=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonotonicityCheck:
    def test_convex_sqrt_passes_in_bound(self):
        grid = graded_grid(50.0, 2001)
        report = derivative_monotonicity_check(ConvexSqrtTransform(2.0, 3.0), 2.0, grid)
        assert report.passed

    def test_fails_outside_bound(self):
        grid = graded_grid(50.0, 2001)
        report = derivative_monotonicity_check(CS11, 1.5, grid)
        assert not report.passed
        lo, hi = report.witness
        assert dloss_dz(CS11, hi, 1.5) < dloss_dz(CS11, lo, 1.5)

    def test_tanh_fails_near_one(self):
        grid = np.linspace(0.0, 3.0, 601)
        report = derivative_monotonicity_check(TANH1, -1.0, grid)
        assert not report.passed
        lo, hi = report.witness
        assert 0.3 <= lo <= 2.0  # violation localized around z ~ 1
        drop = dloss_dz(TANH1, hi, -1.0) - dloss_dz(TANH1, lo, -1.0)
        assert drop < 0.5 * report.worst_violation

    @pytest.mark.filterwarnings("error")
    def test_non_finite_derivative_raises(self):
        with pytest.raises(NonFiniteCheckError, match="the loss derivative in z, or its difference, is not finite"):
            derivative_monotonicity_check(ConvexSqrtTransform(1.0, 1e307), 1e307, graded_grid(50.0, 2001))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [0.0, 2.0, 1.0])
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [1.0])
        with pytest.raises(InvalidGridError):
            derivative_monotonicity_check(CS11, 0.0, [1.0, 1.0, 2.0])

    def test_two_dimensional_grid_rejected(self):
        # Nine points, but not a sequence: the message names the shape, not a point count.
        with pytest.raises(InvalidGridError, match=r"z_grid must be a 1-D sequence, got shape \(3, 3\)"):
            derivative_monotonicity_check(CS11, 0.0, np.zeros((3, 3)))

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]], ids=["nan", "inf"])
    def test_non_finite_grid_rejected(self, grid):
        # The grid is at fault, not the loss derivative: the same error as find_nonconvex_witness.
        with pytest.raises(InvalidGridError, match="grid entries must be finite"):
            derivative_monotonicity_check(CS11, 0.5, grid)


class TestHessianCheck:
    def test_convex_sqrt_passes(self):
        rng = np.random.default_rng(401)
        t = ConvexSqrtTransform(1.5, 2.0)
        dataset = Dataset(rng.uniform(-1, 1, (30, 3)), rng.uniform(-2.0, 2.0, 30))
        for _ in range(3):
            report = fd_hessian_psd_check(dataset, t, rng.uniform(-1, 1, 3))
            assert report.passed

    def test_affine_hessian_is_twice_gram(self):
        rng = np.random.default_rng(402)
        features = rng.uniform(-1, 1, (20, 3))
        dataset = Dataset(features, rng.uniform(-1, 1, 20))
        w = rng.uniform(-1, 1, 3)
        report = fd_hessian_psd_check(dataset, AFF, w)
        assert report.passed
        hessian = _fd_hessian(dataset, AFF, w)
        # quadratic objective: exact up to finite-difference cancellation noise
        np.testing.assert_allclose(hessian, 2.0 * features.T @ features, atol=1e-4)

    def test_tanh_crafted_sample_fails_with_known_eigenvalue(self):
        dataset = Dataset(np.array([[1.0]]), np.array([-1.0]))
        report = fd_hessian_psd_check(dataset, TANH1, np.array([1.0]))
        assert not report.passed
        w, direction = report.witness
        # d = 1, x = 1: the Hessian equals the pointwise curvature at (z=1, y=-1).
        second = directional_second_difference(dataset, TANH1, np.asarray(w), np.asarray(direction))
        np.testing.assert_allclose(second, -1.9010266976697454, rtol=1e-4)
        np.testing.assert_allclose(second, TANH1.curvature(1.0, -1.0), rtol=1e-4)

    def test_symmetry_invariant(self):
        rng = np.random.default_rng(403)
        dataset = Dataset(rng.uniform(-1, 1, (25, 4)), rng.uniform(-1, 1, 25))
        w = rng.uniform(-1, 1, 4)
        hessian = _fd_hessian(dataset, ConvexSqrtTransform(1.0, 1.0), w)
        asymmetry = np.abs(hessian - hessian.T).max()
        assert asymmetry <= 100.0 * 1e-5 * (1.0 + np.abs(hessian).max())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_w_rejected(self, bad):
        # The input is at fault, not the loss: no finite-difference point is evaluated.
        rng = np.random.default_rng(404)
        dataset = Dataset(rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, 10))
        with pytest.raises(ValueError, match="^w must be finite$"):
            fd_hessian_psd_check(dataset, CS11, np.array([bad, 0.0, 0.0]))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(405)
        dataset = Dataset(rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, 10))
        with pytest.raises(DimensionMismatchError, match="^w has 2 entries but the dataset has 3 features$"):
            fd_hessian_psd_check(dataset, CS11, np.zeros(2))

    def test_witness_holds_a_copy_of_w(self):
        rng = np.random.default_rng(406)
        dataset = Dataset(rng.uniform(-1, 1, (10, 3)), rng.uniform(-1, 1, 10))
        w = np.array([0.1, -0.2, 0.3])
        report = fd_hessian_psd_check(dataset, CS11, w)
        w[0] = 9.0
        assert list(report.witness[0]) == [0.1, -0.2, 0.3]

    def test_summary_ignores_numpy_print_options(self):
        rng = np.random.default_rng(407)
        dataset = Dataset(rng.uniform(-1, 1, (10, 8)), rng.uniform(-1, 1, 10))
        w = rng.uniform(-1, 1, 8)
        report = fd_hessian_psd_check(dataset, TANH1, w)
        assert not report.passed
        with np.printoptions(precision=3):
            assert report.describe() == fd_hessian_psd_check(dataset, TANH1, w).describe()
        assert "\n" not in report.describe()
        assert report.describe().endswith(f"at witness {(tuple(w.tolist()), report.witness[1])!r}")


def per_point_fd_hessian(dataset, transform, w, steps):
    """The loss-only oracle: second differences of the loss at 1 + 2d^2 points, one mat-vec each.

    Returns the Hessian and the largest loss it evaluated.
    """
    losses = []

    def value(point):
        losses.append(_evaluate(dataset.features, dataset.targets, transform, point)[2])
        return losses[-1]

    d = w.size
    hessian = np.empty((d, d))
    base = value(w)
    for i in range(d):
        e_i = np.zeros(d)
        e_i[i] = steps[i]
        hessian[i, i] = (value(w + e_i) - 2.0 * base + value(w - e_i)) / (steps[i] * steps[i])
        for j in range(i + 1, d):
            e_j = np.zeros(d)
            e_j[j] = steps[j]
            hessian[i, j] = hessian[j, i] = (
                value(w + e_i + e_j) - value(w + e_i - e_j) - value(w - e_i + e_j) + value(w - e_i - e_j)
            ) / (4.0 * steps[i] * steps[j])
    return hessian, max(losses)


def hessian_problem(n, d, seed):
    generated, weights = generate_synthetic(SynthSpec(n, d, CS11, 0.05, seed=seed))
    w = weights + np.random.default_rng(seed).uniform(-0.5, 0.5, d)
    return generated, w, HESSIAN_STEP * (1.0 + np.abs(w))


# Prints the bytes of the FD Hessian at 2,621 x 20, a sample count that is
# not a multiple of any BLAS tile.
_FD_PROBE = textwrap.dedent(
    """
    from convexreg import ConvexSqrtTransform, SynthSpec, generate_synthetic
    from convexreg.convexity import _fd_hessian

    generated, w = generate_synthetic(SynthSpec(2621, 20, ConvexSqrtTransform(1.0, 1.0), 0.05, seed=9))
    print(_fd_hessian(generated, ConvexSqrtTransform(1.0, 3.0), w).tobytes().hex())
    """
)

TRANSFORMS = [ConvexSqrtTransform(1.0, 3.0), TanhTransform(2.0), AffineTransform(1.5, 0.2)]


class TestGradientDifferences:
    """The FD Hessian's columns are central differences of the loss gradient."""

    @pytest.mark.parametrize("transform", TRANSFORMS, ids=repr)
    def test_matches_per_point_reference(self, transform):
        dataset, w, steps = hessian_problem(500, 6, seed=31)
        hessian = _fd_hessian(dataset, transform, w)
        reference, largest_loss = per_point_fd_hessian(dataset, transform, w, steps)
        # Each of the oracle's four losses in an entry carries a few ulps of
        # the largest loss; the gradient differences are far more exact.
        bound = 16.0 * np.finfo(float).eps * largest_loss / np.outer(steps, steps)
        assert np.all(np.abs(hessian - reference) <= bound)
        # Far below the entries themselves, so a misplaced or mis-signed column shows.
        assert bound.max() < 1e-4 * np.abs(reference).max()

    @pytest.mark.parametrize("transform", TRANSFORMS, ids=repr)
    def test_matches_exact_hessian(self, transform):
        dataset, w, _ = hessian_problem(5000, 50, seed=33)
        hessian = _fd_hessian(dataset, transform, w)
        exact = _hessian(dataset.features, dataset.targets, transform,
                         _evaluate(dataset.features, dataset.targets, transform, w)[0])
        assert np.abs(hessian - exact).max() <= 1e-8 * np.abs(exact).max()

    @pytest.mark.parametrize("d", [51, 100])
    @pytest.mark.parametrize("transform", TRANSFORMS, ids=repr)
    def test_check_agrees_with_exact_hessian_beyond_fifty_dimensions(self, transform, d):
        dataset, w, _ = hessian_problem(5000, d, seed=33)
        report = fd_hessian_psd_check(dataset, transform, w)
        exact = _hessian(dataset.features, dataset.targets, transform,
                         _evaluate(dataset.features, dataset.targets, transform, w)[0])
        slack = np.linalg.eigvalsh(exact)[0] / (1.0 + np.abs(exact).max())
        assert abs(report.worst_violation - slack) <= 1e-8
        assert report.passed == (not isinstance(transform, TanhTransform))
        assert report.samples_tested == d * d

    def test_same_bytes_at_one_two_and_four_blas_threads(self):
        outputs = []
        for threads in ("1", "2", "4"):
            proc = subprocess.run(
                [sys.executable, "-c", _FD_PROBE],
                capture_output=True,
                text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs == [outputs[0]] * len(outputs)

    def test_non_finite_loss_raises(self):
        dataset = Dataset(np.array([[1.0], [2.0]]), np.array([1e200, -1e200]))
        with pytest.raises(NonFiniteCheckError, match="loss is not finite at 2 of 2"):
            fd_hessian_psd_check(dataset, CS11, np.array([0.5]))

    def test_non_finite_entry_raises(self):
        # Losses near 1e300 are finite, but the slopes 2 r a overflow: inf - inf entries.
        dataset = Dataset(np.array([[1e-10, 0.5e-10], [2e-10, -1e-10]]), np.array([0.3, -0.2]))
        with pytest.raises(NonFiniteCheckError, match=r"entry \(0, 0\) is nan"):
            fd_hessian_psd_check(dataset, AffineTransform(1e160, 0.0), np.array([0.5, 1.0]))


class TestWitnessSearch:
    def test_tanh_witness_found(self):
        report = find_nonconvex_witness(TANH1, np.linspace(-3, 3, 61), np.linspace(-1, 1, 21))
        assert not report.passed
        assert report.check_name == "nonconvex_witness_search" and report.samples_tested == 61 * 21
        (z, y), value = report.witness, report.worst_violation
        assert value <= -1.5
        # Independent confirmation by second-order finite differences.
        h = 1e-5
        fd = (loss_z(TANH1, z + h, y) - 2 * loss_z(TANH1, z, y) + loss_z(TANH1, z - h, y)) / (h * h)
        np.testing.assert_allclose(fd, value, atol=1e-4)
        assert abs(abs(z) - 1.0) <= 0.2  # near the reference point

    def test_affine_has_no_witness(self):
        report = find_nonconvex_witness(AFF, np.linspace(-3, 3, 61), np.linspace(-1, 1, 21))
        # A pass reports slack exactly 0.0, not the smallest curvature (2.0 here).
        assert report.passed and report.witness is None and report.worst_violation == 0.0

    @pytest.mark.parametrize("z_grid, y_grid", [([0.0, -1.0], [0.0]), ([0.0], [1.0, 0.5])], ids=["z", "y"])
    def test_unsorted_grid_rejected(self, z_grid, y_grid):
        with pytest.raises(InvalidGridError, match="grids must be sorted ascending"):
            find_nonconvex_witness(CS11, z_grid, y_grid)

    # derivative_monotonicity refutes several of these in-bound settings
    # (alpha = 1e12, Y = 1e6): its absolute tolerance reads rounding of
    # order eps * Y^2 * alpha as a violation.  The closed form has no such
    # rounding in its sign.
    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])
    @pytest.mark.parametrize("y_bound", [1e-3, 1.0, 1e6])
    def test_convex_sqrt_in_bound_has_no_witness(self, alpha, y_bound):
        transform = ConvexSqrtTransform(alpha, y_bound)
        z_grid = np.linspace(-3.0, 3.0, 61)
        y_grid = np.linspace(-y_bound, y_bound, 21)
        report = find_nonconvex_witness(transform, z_grid, y_grid)
        assert report.passed and report.witness is None and report.worst_violation == 0.0
        z, y = np.meshgrid(z_grid, y_grid, indexing="ij")
        values = transform.curvature(z, y)
        # The minimum is exactly 0.0, where the target sits at the bound on the far side of the kink.
        assert values.min() == 0.0
        np.testing.assert_array_equal(values == 0.0, ((z > 0) & (y == -y_bound)) | ((z < 0) & (y == y_bound)))

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e12])
    @pytest.mark.parametrize("y_bound", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_convex_sqrt_out_of_bound_witness_opposite_the_target(self, alpha, y_bound, sign):
        transform = ConvexSqrtTransform(alpha, y_bound)
        z_grid = np.linspace(-3.0, 3.0, 61)
        report = find_nonconvex_witness(transform, z_grid, [sign * 1.5 * y_bound])
        assert not report.passed
        (z, y), value = report.witness, report.worst_violation
        # Curvature Y*alpha^2*(Y - 1.5*Y)/(2*u^1.5) is most negative at the grid point nearest the kink.
        assert y == sign * 1.5 * y_bound
        assert z == z_grid[30 - int(sign)]
        assert value < 0.0
        if 1.0 <= alpha <= 1e6:
            # Independent confirmation by second-order finite differences; the
            # step stays on the witness's side of the kink.  At other alphas the
            # difference is swamped by rounding (small alpha) or truncation (large).
            h = 1e-3 * abs(z)
            fd = (loss_z(transform, z + h, y) - 2 * loss_z(transform, z, y) + loss_z(transform, z - h, y)) / (h * h)
            np.testing.assert_allclose(fd, value, rtol=1e-5)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidGridError):
            find_nonconvex_witness(TANH1, [], [0.0])

    @pytest.mark.parametrize("z_grid, y_grid", [([np.nan, 0.0, 1.0], [0.0]), ([0.0], [0.0, np.inf])])
    def test_non_finite_grid_rejected(self, z_grid, y_grid):
        with pytest.raises(InvalidGridError, match="grid entries must be finite"):
            find_nonconvex_witness(TANH1, z_grid, y_grid)

    @pytest.mark.filterwarnings("error")
    def test_convex_sqrt_curvature_overflow_raises(self):
        # alpha^2 overflows, so all 1,281 values are inf or nan.
        with pytest.raises(NonFiniteCheckError, match=r"at 1281 of 1281 grid points \(first: inf at \(z, y\) = \(-3.0, -1.0\)\)"):
            find_nonconvex_witness(ConvexSqrtTransform(1e160, 1.0), np.linspace(-3, 3, 61), np.linspace(-1, 1, 21))

    @pytest.mark.filterwarnings("error")
    def test_tanh_curvature_overflow_raises(self):
        with pytest.raises(NonFiniteCheckError, match=r"the loss curvature is not finite .* at \(z, y\) = \(-3.0, -1.0\)"):
            find_nonconvex_witness(TanhTransform(1e200), np.linspace(-3, 3, 61), np.linspace(-1, 1, 21))


class TestCrossValidationOfChecks:
    def test_monotone_derivative_implies_midpoint_convex(self):
        rng = np.random.default_rng(406)
        grid = graded_grid(50.0, 801)
        cases = []
        for _ in range(30):
            alpha = rng.uniform(0.1, 5.0)
            y_bound = rng.uniform(0.1, 5.0)
            y = rng.uniform(-1.5 * y_bound, 1.5 * y_bound)
            cases.append((ConvexSqrtTransform(alpha, y_bound), y))
        cases.extend([(TANH1, -1.0), (TANH1, 0.5), (AFF, 1.0)])
        for index, (transform, y) in enumerate(cases):
            mono = derivative_monotonicity_check(transform, y, grid)
            if mono.passed:
                mid = midpoint_convexity_check(
                    transform, y, (-50.0, 50.0), 4000, seed=500 + index
                )
                assert mid.passed, (transform, y)

    def test_converse_raises_alarm_only(self):
        # Midpoint sampling can miss a violation the grid catches; that is
        # an expected sensitivity gap, so it is reported, never asserted.
        rng = np.random.default_rng(409)
        grid = graded_grid(50.0, 801)
        alarms = []
        for index in range(20):
            y_bound = rng.uniform(0.1, 5.0)
            transform = ConvexSqrtTransform(rng.uniform(0.1, 5.0), y_bound)
            y = rng.uniform(-1.3 * y_bound, 1.3 * y_bound)
            mid = midpoint_convexity_check(transform, y, (-50.0, 50.0), 2000, seed=700 + index)
            if mid.passed and not derivative_monotonicity_check(transform, y, grid).passed:
                alarms.append((transform, y))
        for transform, y in alarms:
            print(f"alarm: midpoint sampling missed a violation at y={y:g} for {transform}")


class TestBoundaryOfTheGuarantee:
    def test_in_bound_configurations_pass_all_checks(self):
        rng = np.random.default_rng(407)
        grid = graded_grid(50.0, 801)
        for k in range(100):
            alpha = rng.uniform(1e-6, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            y = rng.uniform(-y_bound, y_bound)
            t = ConvexSqrtTransform(alpha, y_bound)
            assert derivative_monotonicity_check(t, y, grid).passed
            assert midpoint_convexity_check(t, y, (-100, 100), 2000, seed=600 + k).passed
            features = rng.uniform(-1, 1, (15, 2))
            targets = np.clip(rng.uniform(-2 * y_bound, 2 * y_bound, 15), -y_bound, y_bound)
            dataset = Dataset(features, targets)
            assert fd_hessian_psd_check(dataset, t, rng.uniform(-1, 1, 2)).passed

    def test_out_of_bound_targets_break_monotonicity(self):
        rng = np.random.default_rng(408)
        grid = graded_grid(50.0, 2001)
        for _ in range(100):
            alpha = rng.uniform(0.1, 10.0)
            y_bound = rng.uniform(0.1, 10.0)
            u = rng.uniform(0.0, 1.0)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            y = sign * y_bound * (1.0 + u)
            t = ConvexSqrtTransform(alpha, y_bound)
            report = derivative_monotonicity_check(t, y, grid)
            if u >= 0.5:
                assert not report.passed, (alpha, y_bound, u)


class TestVerificationBattery:
    def test_each_check_names_its_own_report(self):
        dataset = Dataset(np.array([[1.0], [2.0]]), np.array([0.5, -0.5]))
        assert midpoint_convexity_check(CS11, 0.0, (-1.0, 1.0), 10).check_name == "midpoint_convexity"
        assert derivative_monotonicity_check(CS11, 0.0, [0.0, 1.0]).check_name == "derivative_monotonicity"
        assert fd_hessian_psd_check(dataset, CS11, [0.5]).check_name == "fd_hessian_psd"

    def test_report_names_in_order(self):
        names = [c.check_name for c in verification_battery(CS11, 1.0, 100, seed=0)]
        ys = ["-1", "-0.5", "0", "0.5", "1"]
        assert names == [
            *(f"midpoint_convexity(y={y})" for y in ys),
            *(f"fd_hessian_psd(w_draw={draw})" for draw in range(3)),
            "nonconvex_witness_search",
        ]

    # After (1, 1): in-bound settings where derivative_monotonicity_check
    # fails on rounding while every check the battery runs passes.
    @pytest.mark.parametrize(
        "alpha, y_bound, n_samples",
        [
            (1.0, 1.0, 4000),
            *((alpha, y_bound, 2000) for alpha, y_bound in [
                (1e-6, 1e12), (1e-6, 1e50), (1.0, 1e6), (1.0, 1e12), (1.0, 1e50), (1e6, 1e6),
                (1e6, 1e12), (1e6, 1e50), (1e12, 1.0), (1e12, 1e6), (1e12, 1e12), (1e12, 1e50),
                (1e18, 1.0), (1e18, 1e6), (1e18, 1e12), (1e18, 1e50),
            ]),
        ],
    )
    def test_convex_sqrt_all_pass(self, alpha, y_bound, n_samples):
        checks = verification_battery(ConvexSqrtTransform(alpha, y_bound), y_bound, n_samples, seed=0)
        assert all(c.passed for c in checks)
        witness = [c for c in checks if c.check_name == "nonconvex_witness_search"]
        assert len(witness) == 1
        assert witness[0].worst_violation == 0.0 and witness[0].witness is None

    def test_affine_all_pass_including_witness_search(self):
        checks = verification_battery(AFF, 1.0, 4000, seed=0)
        assert all(c.passed for c in checks)
        assert any(c.check_name == "nonconvex_witness_search" for c in checks)

    # The witness search refutes tanh at every scale here, so no tanh verdict rests on another check.
    @pytest.mark.parametrize("y_bound", [1e-100, 1e-6, 1e-3, 1.0, 1e6])
    def test_tanh_fails(self, y_bound):
        checks = verification_battery(TanhTransform(y_bound), y_bound, 4000, seed=0)
        failed = [c for c in checks if not c.passed]
        assert failed
        assert any(c.check_name == "nonconvex_witness_search" for c in failed)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1e12])
    def test_fd_hessian_passes_at_extreme_alpha(self, alpha):
        checks = verification_battery(ConvexSqrtTransform(alpha, 1.0), 1.0, 100, seed=0)
        fd = [c for c in checks if c.check_name.startswith("fd_hessian_psd")]
        assert len(fd) == 3
        assert all(c.passed for c in fd), [c.worst_violation for c in fd]

    def test_affine_draws_give_equal_slacks(self):
        # The affine loss is quadratic, so its Hessian is the same at every w.
        checks = verification_battery(AFF, 1.0, 100, seed=0)
        slacks = [c.worst_violation for c in checks if c.check_name.startswith("fd_hessian_psd")]
        assert len(slacks) == 3
        assert max(slacks) - min(slacks) <= 1e-9

    @pytest.mark.parametrize(
        "transform", [ConvexSqrtTransform(1.0, 1.5), TanhTransform(1.5), AFF], ids=["convex-sqrt", "tanh", "affine"]
    )
    def test_last_entry_is_the_witness_search_report(self, transform):
        checks = verification_battery(transform, 1.5, 100, seed=0)
        search = find_nonconvex_witness(transform, np.linspace(-3, 3, 61), np.linspace(-1.5, 1.5, 21))
        assert checks[-1].to_dict() == search.to_dict()

    def test_deterministic(self):
        a = verification_battery(ConvexSqrtTransform(2.0, 1.5), 1.5, 2000, seed=11)
        b = verification_battery(ConvexSqrtTransform(2.0, 1.5), 1.5, 2000, seed=11)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    @pytest.mark.parametrize("y_bound", [0.0, -1.0, np.nan, np.inf])
    def test_y_bound_must_be_positive(self, y_bound):
        with pytest.raises(ValueError, match="y_bound must be a finite positive number"):
            verification_battery(CS11, y_bound, 100)

    @pytest.mark.parametrize("seed", [2.5, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            verification_battery(CS11, 1.0, 100, seed=seed)

    def test_numpy_integer_sample_count(self):
        a = verification_battery(CS11, 1.0, np.int64(2000), seed=4)
        b = verification_battery(CS11, 1.0, 2000, seed=4)
        assert repr([r.to_dict() for r in a]) == repr([r.to_dict() for r in b])


class TestReportRendering:
    def test_describe_mentions_sample_count_on_pass(self):
        report = midpoint_convexity_check(CS11, 0.0, (-10, 10), 500, seed=1)
        text = report.describe()
        assert "no violation found among 500 samples" in text

    def test_describe_mentions_witness_on_failure(self):
        report = midpoint_convexity_check(TANH1, -1.0, (0.0, 3.0), 10**4, seed=3)
        assert "witness" in report.describe()

    def test_to_dict_is_json_ready(self):
        import json

        report = fd_hessian_psd_check(
            Dataset(np.array([[1.0]]), np.array([-1.0])), TANH1, np.array([1.0])
        )
        json.dumps(report.to_dict())
        # A witness may hold numpy scalars; they come out as plain numbers.
        report = ConvexityReport("probe", False, -1.0, (np.int64(3), np.float64(0.5)), 4)
        assert json.loads(json.dumps(report.to_dict()))["witness"] == [3, 0.5]
