"""Independent, indexed work items run on the cores this process may use.

numpy releases the interpreter lock inside its ufuncs and random draws,
so threads running numpy-heavy items overlap on separate cores.  Results
come back in index order, and a failure is the one a serial loop over
the items would have raised, so callers give the same output at any core
count.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def _usable_cores() -> int:
    """Cores this process may be scheduled on (its affinity mask, where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workers(items: int) -> int:
    """The number of threads :func:`run_indexed` uses for ``items`` work items."""
    return max(1, min(items, _usable_cores()))


def run_indexed(work, count: int) -> list:
    """``[work(0, halted), ..., work(count - 1, halted)]``, on ``workers(count)`` threads.

    The calling thread is one of them.  Each takes the lowest index not
    yet taken, so items start in index order.  ``halted`` is a callable
    that turns true once the item's result can no longer be returned: an
    item with a lower index failed, or the run was interrupted.  A long
    item checks it between steps and returns early; what it returns then
    is discarded.  Once an item fails, no item with a higher index starts,
    while lower ones run to the end, so the exception raised is the one
    with the lowest index, the one the serial loop raises.  An exception
    that is not an ``Exception`` (KeyboardInterrupt in the calling thread)
    also halts every item.  Every thread runs under the caller's
    ``np.geterr()`` and is joined before this returns or raises.
    """
    results = [None] * count
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    interrupted = threading.Event()
    error_state = np.geterr()
    next_index = 0
    first_failed = count

    def halted_after(index):
        return lambda: interrupted.is_set() or first_failed < index

    def take_items():
        nonlocal next_index, first_failed
        with np.errstate(**error_state):
            while True:
                with lock:
                    index = next_index
                    if index >= first_failed or interrupted.is_set():
                        return
                    next_index += 1
                try:
                    results[index] = work(index, halted_after(index))
                except BaseException as exc:  # raised in the calling thread below
                    if not isinstance(exc, Exception):
                        interrupted.set()
                    with lock:
                        failures[index] = exc
                        first_failed = min(first_failed, index)

    threads = []
    try:
        for _ in range(workers(count) - 1):
            threads.append(threading.Thread(target=take_items, name="convexreg-worker", daemon=True))
            threads[-1].start()
        take_items()
        for thread in threads:
            thread.join()
    except BaseException:
        interrupted.set()
        for thread in threads:
            # A thread has an ident once it runs: a start() that failed, or
            # was interrupted before the thread ran, left nothing to join.
            if thread.ident is not None:
                thread.join()
        raise
    if failures:
        raise failures[min(failures)]
    return results
