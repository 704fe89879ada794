"""Speed probe: how fast the shared machine runs at a given moment.

The machine the benchmark runs on is shared, and its speed drifts by tens
of percent within a minute.  ``run.py`` scales every latency and set-up time
to a machine on which ``speed_probe`` takes ``NOMINAL_PROBE_S``, about its
median on the 2-vCPU Xeon VM the benchmark was written on.  The probe does
not run twistlab, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

NOMINAL_PROBE_S = 0.005


def speed_probe() -> float:
    """Seconds for a fixed piece of work that does not touch twistlab.

    Interpreter-bound dict, tuple and float traffic plus small numpy calls,
    the mix twistlab spends its time in.  The work runs twice with the
    garbage collector off and the second, warm run is timed, so neither the
    heap nor the cache state a previous scenario left behind moves it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            table: dict = {}
            for i in range(6000):
                key = (i % 61, i % 53)
                table[key] = table.get(key, 0.0) + math.sin(i * 1e-3)
            grid = np.arange(20_000, dtype=float)
            for _ in range(8):
                float(np.abs(np.sin(0.5 * grid)).mean())
            elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed
