"""Record the sha256 of every report of the default seed as the reference.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/<workload>.json``.  The benchmark then counts a
report whose bytes differ as a failed scenario, which enforces that reports
stay byte-identical.  Re-record only for a change that alters reports on
purpose, and say so where the change is described.  A report that fails its
oracle check is never recorded.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

import oracle
import scenarios
from worker import REFERENCE_DIR, load_twistlab

DEFAULT_SEED = 0


def main() -> int:
    # Reports must be recorded under the BLAS setting the benchmark runs with.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cli = load_twistlab()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in scenarios.WORKLOADS:
        stream = scenarios.generate(workload, DEFAULT_SEED)
        digests = []
        for s in stream:
            text = cli.run_scenario(copy.deepcopy(s.doc), s.command)
            problem = oracle.check_report(s, 0, text)
            if problem is not None:
                print(f"{workload}/{s.sid}: {problem}", file=sys.stderr)
                return 1
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "seed": DEFAULT_SEED,
                                    "scenarios": [s.sid for s in stream],
                                    "digests": digests}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"{path}: {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
