"""Tests for the indexed work runner behind the midpoint check."""

import signal
import sys
import threading
import time

import numpy as np
import pytest

from convexreg import _cores

CORES = [1, 2, 3, 64]


def wait_until(condition, timeout=10.0):
    """Poll ``condition`` until it holds; False when ``timeout`` seconds pass first."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class Failure(Exception):
    pass


@pytest.fixture(autouse=True)
def no_stray_threads():
    before = threading.enumerate()
    yield
    assert threading.enumerate() == before


class TestRunIndexed:
    @pytest.mark.parametrize("cores", CORES)
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 100])
    def test_results_in_index_order(self, pin_cores, cores, count):
        pin_cores(cores)
        assert _cores.run_indexed(lambda index, halted: index * index, count) == [i * i for i in range(count)]

    def test_every_item_runs_once_under_contention(self, pin_cores):
        pin_cores(64)
        started = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _cores.run_indexed(lambda index, halted: started.append(index) or -index, 3000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(started) == list(range(3000))
        assert results == [-i for i in range(3000)]

    @pytest.mark.parametrize("cores, count, expected", [(1, 5, 1), (2, 5, 2), (64, 5, 5), (3, 0, 1)])
    def test_worker_count(self, pin_cores, cores, count, expected):
        pin_cores(cores)
        assert _cores.workers(count) == expected

    def test_one_worker_runs_in_the_calling_thread(self, pin_cores):
        pin_cores(1)
        threads = _cores.run_indexed(lambda index, halted: threading.current_thread(), 3)
        assert threads == [threading.current_thread()] * 3

    def test_items_run_on_separate_threads(self, pin_cores):
        pin_cores(2)
        barrier = threading.Barrier(2, timeout=10)

        def work(index, halted):
            barrier.wait()  # items 0 and 1 can only pass it together
            return threading.get_ident()

        idents = _cores.run_indexed(work, 2)
        assert len(set(idents)) == 2

    @pytest.mark.parametrize("cores", CORES)
    def test_lowest_failure_wins(self, pin_cores, cores):
        # Item 0 fails last, but it is the one a serial loop raises.
        pin_cores(cores)
        started = []

        def work(index, halted):
            started.append(index)
            time.sleep(0.05 if index == 0 else 0.0 if index == 1 else 0.01)
            if index in (0, 1):
                raise Failure(index)
            return index

        with pytest.raises(Failure) as info:
            _cores.run_indexed(work, 40)
        assert info.value.args == (0,)
        assert 0 in started
        if cores <= 3:  # no item above 1 starts once item 1 has failed
            assert max(started) <= cores + 1

    @pytest.mark.parametrize("cores", [2, 3])
    def test_earlier_items_finish_after_a_later_failure(self, pin_cores, cores):
        pin_cores(cores)
        observed = {}

        def work(index, halted):
            if index == 1:
                raise Failure(index)
            if index == 0:
                time.sleep(0.05)
                observed["halted"] = halted()
            return index

        with pytest.raises(Failure) as info:
            _cores.run_indexed(work, 3)
        assert info.value.args == (1,)
        assert observed == {"halted": False}

    @pytest.mark.parametrize("cores", [2, 3])
    def test_later_items_are_halted_by_a_failure(self, pin_cores, cores):
        pin_cores(cores)
        second_started = threading.Event()
        observed = {}

        def work(index, halted):
            if index == 0:
                assert second_started.wait(10)
                raise Failure(index)
            second_started.set()
            observed[index] = wait_until(halted)
            return index

        with pytest.raises(Failure) as info:
            _cores.run_indexed(work, 2)
        assert info.value.args == (0,)
        assert observed == {1: True}

    @pytest.mark.parametrize("cores", CORES)
    def test_interrupt_halts_every_item(self, pin_cores, cores):
        pin_cores(cores)
        started, observed = [], []
        main = threading.main_thread().ident

        def work(index, halted):
            started.append(index)
            if index == 0:
                signal.pthread_kill(main, signal.SIGINT)
            observed.append(wait_until(halted, timeout=5.0))
            return index

        with pytest.raises(KeyboardInterrupt):
            _cores.run_indexed(work, 50)
        assert len(started) <= min(cores, 50)
        assert all(observed)

    def test_interrupt_in_the_caller_halts_every_other_item(self, pin_cores):
        # Also an item with a lower index than the one the interrupt came in.
        pin_cores(2)
        worker_started = threading.Event()
        observed = []

        def work(index, halted):
            if threading.current_thread() is threading.main_thread():
                assert worker_started.wait(10)
                raise KeyboardInterrupt
            worker_started.set()
            observed.append(wait_until(halted, timeout=5.0))

        with pytest.raises(KeyboardInterrupt):
            _cores.run_indexed(work, 2)
        assert observed == [True]

    @pytest.mark.parametrize("cores", [2, 3])
    def test_workers_use_the_callers_error_state(self, pin_cores, cores):
        pin_cores(cores)
        barrier = threading.Barrier(cores, timeout=10)

        def work(index, halted):
            barrier.wait()  # the first items run on every thread
            return np.geterr()

        with np.errstate(over="raise", divide="ignore", under="warn", invalid="print"):
            expected = np.geterr()
            states = _cores.run_indexed(work, cores)
        assert expected != np.geterr()
        assert states == [expected] * cores
