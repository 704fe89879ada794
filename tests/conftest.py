"""Fixtures that more than one test module reads."""

import pytest

from perfbench_support import DENSE_REPS_SEEDS, dense_reps_reports, one_blas_thread


@pytest.fixture(scope="session")
def dense_reps_defaults():
    """{seed: reports} for the dense-reps seeds at the defaults: matrix cache on,
    threads at their default count, BLAS on one thread.  Replayed once per
    session, before any test patches a default, for every test that compares
    a variant against them."""
    with one_blas_thread():
        return {seed: dense_reps_reports(seed) for seed in DENSE_REPS_SEEDS}
