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
import hashlib
import json

import pytest

from perfbench_support import PERFBENCH, load_scenarios, one_blas_thread
from twistlab.cli import run_scenario

SCENARIOS = load_scenarios()


@pytest.mark.parametrize("workload", SCENARIOS.WORKLOADS)
def test_seed0_reports_match_the_benchmark_reference(workload):
    ref = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text("utf-8"))
    stream = SCENARIOS.generate(workload, ref["seed"])
    assert [s.sid for s in stream] == ref["scenarios"]
    changed = []
    with one_blas_thread():
        for scenario, digest in zip(stream, ref["digests"]):
            text = run_scenario(copy.deepcopy(scenario.doc), scenario.command)
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                changed.append(scenario.sid)
    assert changed == []
