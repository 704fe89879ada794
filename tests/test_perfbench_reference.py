"""The seed-0 benchmark reports keep their recorded bytes.

Each workload's seed-0 scenario list is replayed through ``run_scenario`` in
this process, and the sha256 of every report is compared with
``perfbench/reference/<workload>.json``.  The benchmark counts a changed byte
as a failed scenario; this test makes the same change fail the suite.  The
reference files are only read.

The references were recorded with BLAS on one thread, and the eigenvalues of
the fell scenarios (dimension 240-256) change in the last bit with the thread
count, so numpy's bundled OpenBLAS is pinned to one thread for the replay.
"""

import copy
import ctypes
import hashlib
import importlib.util
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from twistlab.cli import run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# (get, set) symbol pairs of the OpenBLAS builds numpy wheels bundle.
OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _load_scenarios():
    spec = importlib.util.spec_from_file_location("perfbench_scenarios",
                                                  PERFBENCH / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


SCENARIOS = _load_scenarios()


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


@contextmanager
def _one_blas_thread():
    controls = _openblas_thread_controls()
    if controls is None:
        if os.environ.get("OPENBLAS_NUM_THREADS") == "1":
            yield
            return
        pytest.skip("cannot pin numpy's BLAS to one thread; "
                    "run with OPENBLAS_NUM_THREADS=1")
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@pytest.mark.parametrize("workload", SCENARIOS.WORKLOADS)
def test_seed0_reports_match_the_benchmark_reference(workload):
    ref = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text("utf-8"))
    stream = SCENARIOS.generate(workload, ref["seed"])
    assert [s.sid for s in stream] == ref["scenarios"]
    changed = []
    with _one_blas_thread():
        for scenario, digest in zip(stream, ref["digests"]):
            text = run_scenario(copy.deepcopy(scenario.doc), scenario.command)
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                changed.append(scenario.sid)
    assert changed == []
