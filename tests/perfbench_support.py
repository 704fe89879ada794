"""What the tests that replay benchmark scenarios share: the scenario
module, loaded from ``perfbench/`` without modifying it, the replay of the
dense-reps seeds those tests compare, and a context that sets the thread
count of numpy's bundled OpenBLAS."""

import copy
import ctypes
import importlib.util
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from twistlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# (get, set) symbol pairs of the OpenBLAS builds numpy wheels bundle.
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def load_scenarios():
    """perfbench/scenarios.py, loaded once per process."""
    name = "perfbench_scenarios"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "scenarios.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    return sys.modules[name]


DENSE_REPS_SEEDS = (1, 2, 3)


def dense_reps_reports(seed):
    """Reports of the seed's dense-reps benchmark scenarios, in their order."""
    return [cli.run_scenario(copy.deepcopy(s.doc), s.command)
            for s in load_scenarios().generate("dense-reps", seed)]


def _openblas_thread_controls():
    root = Path(np.__file__).resolve().parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                        *root.glob(".dylibs/*openblas*")]):
        lib = ctypes.CDLL(str(path))
        for get, put in OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def one_blas_thread():
    return blas_threads(1)


@contextmanager
def blas_threads(count):
    controls = _openblas_thread_controls()
    if controls is None:
        if os.environ.get("OPENBLAS_NUM_THREADS") == str(count):
            yield
            return
        pytest.skip(f"cannot pin numpy's BLAS to {count} thread(s); "
                    f"run with OPENBLAS_NUM_THREADS={count}")
    get, put = controls
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)
