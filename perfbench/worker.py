"""One workload in one fresh process: warm up, run timed passes, check reports.

Started by ``run.py`` with BLAS pinned to one thread.  The caller is a closed
loop: the next scenario is issued only after the previous report has been
returned and checked.  A pass runs the workload's whole scenario list; passes
repeat until ``--seconds`` have elapsed (at least one pass).  Latency is the
time from the ``run_scenario`` call until it returns; checking is outside it.

Prints one JSON object on stdout with the raw samples; ``run.py`` turns them
into metrics.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import scenarios  # noqa: E402
from probe import speed_probe  # noqa: E402

REFERENCE_DIR = HERE / "reference"


def load_twistlab():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "twistlab" / "cli.py").is_file():
        raise SystemExit(f"no twistlab sources under {src}")
    sys.path.insert(0, str(src))
    from twistlab import cli
    if Path(cli.__file__).resolve().parent != (src / "twistlab").resolve():
        raise SystemExit(f"imported twistlab from {cli.__file__}, not {src}")
    return cli


def reference_digests(workload: str, seed: int, tiny: bool) -> list[str] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if tiny or not path.is_file():
        return None
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref["digests"] if ref["seed"] == seed else None


class Runner:
    """Issues scenarios one at a time and records latency and checks."""

    def __init__(self, cli, run_scenario) -> None:
        self.cli = cli
        self.run_scenario = run_scenario
        self.attempted = 0
        self.failures: list[str] = []
        self.settled = 0
        self.verdicts = 0
        self.report_bytes = 0

    def issue(self, scenario, digest: str | None) -> float:
        doc = copy.deepcopy(scenario.doc)
        text = error = None
        start = time.perf_counter()
        try:
            text = self.run_scenario(doc, scenario.command)
            code = 0
        except self.cli.CliError as exc:
            code, error = exc.code, exc.message
        except Exception as exc:  # a crash is a failed scenario, not a harness error
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            code, error = -1, f"raised {exc!r} at {frame.filename}:{frame.lineno}"
        latency = time.perf_counter() - start
        self.attempted += 1
        problem = oracle.check_report(scenario, code, text)
        if problem is None and text is not None and digest is not None:
            if hashlib.sha256(text.encode()).hexdigest() != digest:
                problem = "report bytes differ from the reference digest"
        if problem is not None:
            detail = f" ({error})" if error else ""
            self.failures.append(f"{scenario.sid}: {problem}{detail}")
        if text is not None:
            self.report_bytes += len(text)
            if scenario.rows is None:
                settled, total = oracle.verdict_counts(json.loads(text)["result"])
                self.settled += settled
                self.verdicts += total
        return latency


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out", help="trace the run and write spans here as JSONL")
    args = ap.parse_args(argv)

    cli = load_twistlab()
    stream = scenarios.generate(args.workload, args.seed, tiny=args.tiny)
    digests = reference_digests(args.workload, args.seed, args.tiny)
    if digests is not None and len(digests) != len(stream):
        raise SystemExit("reference digest count does not match the scenario list")

    # Untimed warm-up: one small scenario per subcommand (imports, BLAS
    # buffers, group enumeration caches).
    runner = Runner(cli, cli.run_scenario)
    warm = {}
    for s in scenarios.generate(args.workload, args.seed, tiny=True):
        warm.setdefault(s.command, s)
    for s in warm.values():
        runner.issue(s, None)
    runner.settled = runner.verdicts = 0

    tracer = None
    if args.trace_out:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        runner.run_scenario = tracer.wrap("cli.run_scenario", cli.run_scenario)

    passes: list[float] = []
    latencies: list[float] = []
    probes: list[float] = []
    timed_bytes = runner.report_bytes
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        total = 0.0
        for k, s in enumerate(stream):
            probes.append(speed_probe())
            latency = runner.issue(s, digests[k] if digests else None)
            latencies.append(latency)
            total += latency
        passes.append(total)
    timed_bytes = runner.report_bytes - timed_bytes

    out = {
        "passes_s": passes,
        "latencies_s": latencies,
        "probes_s": probes,
        "scenarios": len(stream),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "settled": runner.settled,
        "verdicts": runner.verdicts,
        "report_bytes": timed_bytes / len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests_checked": digests is not None,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write_jsonl(args.trace_out)
        p = len(passes)
        out["trace"] = {
            "self_s": {k: v / p for k, v in tracer.self_s.items()},
            "calls": {k: v / p for k, v in tracer.calls.items()},
            "layer_self_s": {k: v / p for k, v in tracer.layer_self_s().items()},
            "layer_span_s": {k: v / p for k, v in tracer.layer_span_s.items()},
            "counters": {k: v / p for k, v in tracer.counters.items()},
            "maxima": dict(tracer.maxima),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped,
        }
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
