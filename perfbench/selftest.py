"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced and traced and
checks that:

* every metric named in ``BENCHMARK.json`` is emitted, with the declared unit,
  and every report passed its checks;
* each layer's self time is at most its span time;
* the summed self times do not exceed the traced wall time.

Exits 1 with one line per problem, 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402

# Float rounding in the per-pass division, never real time.
SLACK_S = 1e-9


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(result: dict, declared: list, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: {result.get('failed')} failed scenarios")
    metrics = result["metrics"]
    for spec in declared:
        got = metrics.get(spec["name"])
        if got is None:
            problems.append(f"{label}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{label}: {spec['name']} unit {got['unit']!r}, "
                            f"declared {spec['unit']!r}")
    return problems


def check_self_times(metrics: dict, label: str) -> list[str]:
    problems = []
    total = 0.0
    for layer in LAYERS:
        own = metrics[f"{layer}.self_s"]["value"]
        span = metrics[f"{layer}.span_s"]["value"]
        total += own
        if own > span + SLACK_S:
            problems.append(f"{label}: {layer} self {own} exceeds its span time {span}")
    wall = metrics["trace.wall_s"]["value"]
    if total > wall + SLACK_S:
        problems.append(f"{label}: summed self times {total} exceed traced wall {wall}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = run(workload, 0)
        problems += check_emitted(untraced, bench["end_to_end"], f"{workload} trace=0")
        traced = run(workload, 1)
        problems += check_emitted(traced, bench["per_layer"], f"{workload} trace=1")
        problems += check_self_times(traced["metrics"], workload)
    for line in problems:
        print(line)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
