"""Independent calls shared among the CPUs this process may run on.

This is the one module that starts threads.  Results and errors come back
in call order, so what a caller computes from them does not depend on the
number of threads.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
import threading
from pathlib import Path
from typing import Callable, Optional, TypeVar

import numpy as np

# Threads that share one map_ordered: the CPUs this process may run on.
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1

# Thread-count getters of the OpenBLAS builds that numpy wheels bundle.
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads")

_B = TypeVar("_B")
_T = TypeVar("_T")


@functools.cache
def _blas_threads_getter() -> Optional[Callable[[], int]]:
    """The thread-count getter of numpy's bundled OpenBLAS; None for any other BLAS."""
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def _threads(blas: bool) -> int:
    """_THREADS; for calls that run in BLAS, divided by BLAS's own thread
    count, read on every call, or 1 when BLAS cannot be asked."""
    if not blas:
        return _THREADS
    get = _blas_threads_getter()
    return max(1, _THREADS // get()) if get is not None else 1


def map_ordered(work: Callable[[_B, int], _T], count: int,
                scratch: Callable[[], _B], blas: bool = False) -> list[_T]:
    """[work(buf, j) for j in range(count)] on the calling thread and up to
    _THREADS - 1 more.

    Each thread hands every call it makes one buffer of its own, which the
    calling thread makes with ``scratch``, and runs in the caller's context
    (its ``np.errstate``).  The calling thread takes call 0 before it starts
    the others, so it always runs a call; after that the threads take j in
    order from one queue, so a thread on a slow CPU takes fewer calls;
    every thread is joined before this returns.  Once a call fails the
    threads stop taking calls, and the first exception in j order is
    re-raised.  With ``blas`` the calls spend their time in BLAS or LAPACK,
    and threads that BLAS runs itself take their share of the CPUs:
    concurrent LAPACK calls on a BLAS with threads of its own run slower
    than one after another.
    """
    results: list = [None] * count
    errors: list[tuple[int, BaseException]] = []
    todo = iter(range(count))
    lock = threading.Lock()

    def take() -> Optional[int]:
        with lock:
            return None if errors else next(todo, None)

    def run(buf: _B, j: Optional[int]) -> None:
        while j is not None:
            try:
                results[j] = work(buf, j)
            except BaseException as exc:  # re-raised by the caller, in call order
                errors.append((j, exc))
            j = take()

    def worker(buf: _B) -> None:
        run(buf, take())

    first = take()
    buffers = [scratch() for _ in range(min(_threads(blas), count))]
    threads = []
    try:
        for buf in buffers[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(worker, buf))
            thread.start()
            threads.append(thread)
        if buffers:
            run(buffers[0], first)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results
