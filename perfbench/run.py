"""twistlab benchmark: seeded workloads fed to ``twistlab.cli.run_scenario``.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-long --seed 0 --seconds 30 --trace 0

Workloads (see scenarios.py for why each exists): ``certify-long``,
``dense-reps``, ``box-grid``.  Each run starts a fresh worker process with
BLAS pinned to one thread; the worker warms up once per subcommand, then
runs the workload's scenario list in passes for ``--seconds`` seconds as a
closed loop with one caller, checking every report against the scenario's
expected outcome and, for the recorded seed, the reference digests.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of fresh ``python -m twistlab folner`` processes), ``wall_s``,
``scenario_p50_ms``, ``scenario_p90_ms``, ``peak_rss_mb`` and
``settled_frac``.  Set-up time and the three latency metrics are scaled to
nominal machine speed by speed probes taken before every process and every
scenario (see probe.py); the unscaled latencies are printed above the
result.
``--trace 1`` runs an untraced worker and then a traced one, and reports
the per-layer metrics from the traced run's spans, plus the tracing
overhead; spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it list the
environment and every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import NOMINAL_PROBE_S, speed_probe  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
from tracer import BOX_KERNELS, LAYERS  # noqa: E402

OUT_DIR = HERE / "out"
BLAS_THREADS = "1"
SETUP_ARGS = ["-m", "twistlab", "folner", "--rank", "2", "--side", "3", "--x", "1,0"]
SETUP_RUNS = 7
# Each latency is scaled by the median of the PROBE_WINDOW speed probes
# centred on it, about one pass of the scenario list (see probe.py).
PROBE_WINDOW = 21
# Every child process is killed once the whole run has taken this long.
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Wall times of fresh processes printing the README's folner report.

    Scaled to nominal machine speed by the median of the speed probes taken
    before each process.
    """
    times, probes = [], []
    for k in range(SETUP_RUNS + 1):
        probes.append(speed_probe())
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGS], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=remaining(deadline))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"setup process failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout)["result"]
        if (result["cardinality"], result["overlap"], result["bound_holds"]) != (16, 12, True):
            raise SystemExit(f"setup process printed a wrong report: {result}")
        if k:  # the first process also compiles bytecode; it is not timed
            times.append(elapsed)
    scale = NOMINAL_PROBE_S / statistics.median(probes)
    return [t * scale for t in times]


def run_worker(env: dict, args, seconds: float, deadline: float,
               trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds)]
    if args.size == "tiny":
        cmd.append("--tiny")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        raise SystemExit(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_latencies(worker: dict) -> list[float]:
    """Latencies at nominal machine speed (see probe.py)."""
    probes = worker["probes_s"]
    half = PROBE_WINDOW // 2
    return [lat * NOMINAL_PROBE_S / statistics.median(probes[max(0, k - half):k + half + 1])
            for k, lat in enumerate(worker["latencies_s"])]


def timings(latencies: list[float], n: int) -> tuple[float, float, float]:
    """(wall_s, p50 ms, p90 ms) for latencies of passes over n scenarios.

    wall_s, the time to finish the scenario list, sums each scenario's
    median latency over the passes, so one slow pass does not move it while
    every scenario still counts in full.
    """
    wall = sum(statistics.median(latencies[k::n]) for k in range(n))
    ms = [1e3 * v for v in latencies]
    return wall, statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def end_to_end(worker: dict, setup: list[float]) -> dict:
    n, samples = worker["scenarios"], len(worker["latencies_s"])
    wall, p50, p90 = timings(scaled_latencies(worker), n)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (wall, "s", len(worker["passes_s"])),
        "scenario_p50_ms": (p50, "ms", samples),
        "scenario_p90_ms": (p90, "ms", samples),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB", 1),
        "settled_frac": (worker["settled"] / worker["verdicts"], "ratio",
                         worker["verdicts"]),
    }


# Per-layer metric -> (span or counter name, kind, unit).
PER_LAYER = {
    "groups.box_points.calls": ("groups.box_points", "calls", "count"),
    "groups.box_points.points": ("groups.box_points.points", "counter", "count"),
    "groups.box_points.self_s": ("groups.box_points", "self", "s"),
    "groups.overlap.calls": ("groups.overlap", "calls", "count"),
    "groups.overlap.self_s": ("groups.overlap", "self", "s"),
    "cocycles.value.calls": ("cocycles.value", "calls", "count"),
    "cocycles.value.self_s": ("cocycles.value", "self", "s"),
    "cocycles.check_identity.self_s": ("cocycles.check_identity", "self", "s"),
    "cocycles.coboundary_test.self_s": ("cocycles.coboundary_test", "self", "s"),
    "reps.regular_rep_matrix.calls": ("reps.regular_rep_matrix", "calls", "count"),
    "reps.regular_rep_matrix.self_s": ("reps.regular_rep_matrix", "self", "s"),
    "reps.relation_check.self_s": ("reps.relation_check", "self", "s"),
    "reps.ccr_relation.self_s": ("reps.ccr_relation", "self", "s"),
    "reps.ccr_unitarity.self_s": ("reps.ccr_unitarity", "self", "s"),
    "reps.fell.self_s": ("reps.fell", "self", "s"),
    "reps.spectral_distance.self_s": ("reps.spectral_distance", "self", "s"),
    "reps.dense_dim.max": ("reps.dense_dim.max", "max", "dim"),
    "reps.dense_flops": ("reps.dense_flops", "counter", "dim3_computed"),
    "series.diagnose_terms.calls": ("series.diagnose_terms", "calls", "count"),
    "series.diagnose_terms.self_s": ("series.diagnose_terms", "self", "s"),
    "series.terms_evaluated": ("series.terms_evaluated", "counter", "count"),
    "series.model_values.self_s": ("series.model_values", "self", "s"),
    "series.tail.self_s": ("series.tail", "self", "s"),
    "series.sum.self_s": ("series.sum", "self", "s"),
    "convergence.box_twist_mean.calls": ("convergence.box_twist_mean", "calls", "count"),
    "convergence.box_twist_mean.self_s": ("convergence.box_twist_mean", "self", "s"),
    "convergence.box_sup_distance.calls": ("convergence.box_sup_distance", "calls", "count"),
    "convergence.box_sup_distance.self_s": ("convergence.box_sup_distance", "self", "s"),
    "convergence.grid_points": ("convergence.grid_points", "counter", "count"),
    "convergence.select.candidates": ("convergence.select.candidates", "counter", "count"),
    "convergence.twisted_rep_series.self_s": ("convergence.twisted_rep_series", "self", "s"),
    "convergence.lattice_tensor_criteria.self_s":
        ("convergence.lattice_tensor_criteria", "self", "s"),
    "convergence.dirichlet_condition.self_s": ("convergence.dirichlet_condition", "self", "s"),
    "convergence.translation_series.self_s": ("convergence.translation_series", "self", "s"),
    "convergence.box_defect.calls": ("convergence.box_defect", "calls", "count"),
    "convergence.box_defect.self_s": ("convergence.box_defect", "self", "s"),
    "convergence.scalar_series.self_s": ("convergence.scalar_series", "self", "s"),
    "actions.inner_outer_verdict.self_s": ("actions.inner_outer_verdict", "self", "s"),
    "actions.amplitude.calls": ("actions.amplitude", "calls", "count"),
    "actions.obstruction.self_s": ("actions.obstruction", "self", "s"),
    "cli.run_scenario.self_s": ("cli.run_scenario", "self", "s"),
    "cli.parse.self_s": ("cli.parse", "self", "s"),
    "cli.render.self_s": ("cli.render", "self", "s"),
}


def per_layer(untraced: dict, traced: dict) -> dict:
    trace = traced["trace"]
    sources = {"self": trace["self_s"], "calls": trace["calls"],
               "counter": trace["counters"], "max": trace["maxima"]}
    passes = len(traced["passes_s"])
    out = {}
    for metric, (name, kind, unit) in PER_LAYER.items():
        out[metric] = (sources[kind].get(name, 0), unit, passes)
    candidates = trace["counters"].get("convergence.select.candidates", 0)
    accepted = trace["counters"].get("convergence.select.accepted", 0)
    out["convergence.select.accept_ratio"] = (
        accepted / candidates if candidates else 0.0, "ratio", passes)
    out["cli.report_bytes"] = (traced["report_bytes"], "B", passes)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (trace["layer_self_s"].get(layer, 0.0), "s", passes)
        out[f"{layer}.span_s"] = (trace["layer_span_s"].get(layer, 0.0), "s", passes)
    out["convergence.box_kernels.self_s"] = (
        sum(trace["self_s"].get(k, 0.0) for k in BOX_KERNELS), "s", passes)
    out["trace.wall_s"] = (statistics.fmean(traced["passes_s"]), "s", passes)
    out["trace.overhead"] = (sum(scaled_latencies(traced)) / len(traced["passes_s"])
                             / (sum(scaled_latencies(untraced)) / len(untraced["passes_s"])),
                             "ratio", passes)
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    out["failed_frac"] = (failed / attempted, "ratio", attempted)
    return out


def environment() -> dict:
    return {"interpreter": sys.executable, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "twistlab_threads": os.environ.get("TWISTLAB_THREADS")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every horizon; used by the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twistlab" / "cli.py").is_file():
        print(f"error: no twistlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        # Each worker finishes the pass it is in when its budget runs out and
        # tracing slows passes down, so the two budgets add up to less than
        # --seconds to keep a traced run about as long as an untraced one.
        untraced = run_worker(env, args, args.seconds / 4, deadline)
        traced = run_worker(env, args, args.seconds / 2, deadline, spans)
        workers = [untraced, traced]
        metrics = per_layer(untraced, traced)
    else:
        setup = measure_setup(env, deadline)
        worker = run_worker(env, args, args.seconds, deadline)
        workers = [worker]
        metrics = end_to_end(worker, setup)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} size {args.size}: "
          f"{attempted} scenarios, {failed} failed, reference digests "
          f"{'checked' if workers[0]['digests_checked'] else 'not recorded for this seed'}")
    for w in workers:
        for reason in w["failures"]:
            print(f"# FAILED {reason}")
        raw = timings(w["latencies_s"], w["scenarios"])
        print("# unscaled wall_s %.6g s, p50 %.6g ms, p90 %.6g ms; median speed probe "
              "%.6g ms, nominal %g ms" % (*raw, 1e3 * statistics.median(w["probes_s"]),
                                          1e3 * NOMINAL_PROBE_S))
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name:45s} {value:>16.6g} {unit:14s} n={samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
