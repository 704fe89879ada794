"""The traced benchmark run still finds every name it wraps.

``perfbench/tracer.py`` replaces twistlab functions where their callers look
them up (for example ``cli.translation_series`` or
``convergence.power_tail``).  A refactor that moves such a name fails here
instead of crashing ``perfbench/run.py --trace 1``.  The dense commands
(ccr, fell, tensor) also run traced, because the reps hooks read the
arguments and results of the calls they wrap.  Nothing under
``perfbench/`` is modified.
"""

import importlib.util
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

from twistlab import actions, cli, cocycles, convergence, groups, reps, series

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (actions, cli, cocycles, convergence, groups, reps, series)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls():
    tracing = _load_tracer()
    before = [dict(vars(m)) for m in MODULES]
    points = groups.FolnerBox.__dict__["points"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        doc = {"command": "prop42", "schema": 1, "horizons": {"n_max": 20},
               "params": {"sides": "power:c=1,p=2", "norms": "geometric:c=1,r=0.5",
                          "x": [1, 0]}}
        cli.run_scenario(doc, "prop42")
        # prop42 takes its box defects from integer side arrays, so the
        # box_defect hook only fires for the single box of a folner run.
        box_defects_prop42 = tracer.calls["convergence.box_defect"]
        folner = {"command": "folner", "schema": 1,
                  "params": {"rank": 2, "side": 3, "x": [1, 0]}}
        cli.run_scenario(folner, "folner")
    finally:
        tracer.uninstall()
    assert tracer.calls["convergence.lattice_tensor_criteria"] == 1
    assert box_defects_prop42 == 0
    assert tracer.calls["convergence.box_defect"] == 1
    for module, names in zip(MODULES, before):
        assert all(vars(module)[k] is v for k, v in names.items()), module.__name__
    assert groups.FolnerBox.__dict__["points"] is points


DENSE_SCENARIOS = (
    ("ccr", {"sigma": {"matrix": "0.3,-0.2"}, "window": {"side": 3},
             "samples": {"count": 8, "bound": 4}}),
    ("ccr", {"sigma": {"name": "pauli"}}),
    ("fell", {"u": {"name": "pauli"}, "rep": {"name": "pauli"}}),
    ("tensor", {"factors": [{"name": "pauli"}, {"name": "pauli"}]}),
)


def test_tracer_hooks_run_on_the_dense_commands():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        for command, params in DENSE_SCENARIOS:
            cli.run_scenario({"command": command, "schema": 1, "params": params}, command)
    finally:
        tracer.uninstall()
    for name in ("reps.ccr_relation", "reps.ccr_unitarity", "reps.fell", "reps.relation_check"):
        assert tracer.calls[name] >= 1, name
    assert tracer.counters["reps.dense_flops"] > 0
    assert patched and tracer._patches == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


# The command kinds that make up the certify-long workload, one of each
# amplitude source included, since the tracer rebuilds each scenario the
# three factories return with a wrapped ``amplitudes`` field.
CERTIFY_SCENARIOS = (
    ("action", {"elements": ["0,0", "1,1"], "source": {"rep_trace": {"name": "pauli"}}}),
    ("action", {"elements": ["1,0", "0,0"], "source": {"regular_trace": {"group": "Z^2"}}}),
    ("action", {"elements": ["1"], "model": "geometric:c=1,r=0.5",
                "source": {"values": {"group": "Z2", "kind": "vector", "table": [
                    {"g": "1", "amplitudes": [0.5, 0.75, 0.875]}]}}}),
    ("dirichlet", {"windows": "power:c=1,p=2", "angles": "power:c=1,p=-4"}),
    ("converge", {"kind": "inner", "values": [0.5, 0.75, 0.875], "model": "power:c=0.5,p=-2"}),
)


def test_tracer_hooks_run_on_the_certify_commands():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._patches)
        for command, params in CERTIFY_SCENARIOS:
            cli.run_scenario({"command": command, "schema": 1, "params": params,
                              "horizons": {"n_max": 20}}, command)
    finally:
        tracer.uninstall()
    for name in ("actions.amplitude", "actions.inner_outer_verdict",
                 "convergence.dirichlet_condition", "convergence.scalar_series"):
        assert tracer.calls[name] >= 1, name
    assert patched and tracer._patches == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_tracer_sees_box_twist_means_only_on_the_calling_thread():
    """Boxes of sides i^2 pass 2^15 points from i = 14 on, so their twist
    means split into leaves that up to two more threads share with the
    caller.  The tracer's span stack is not thread-safe: every span must
    come from the caller."""
    tracing = _load_tracer()
    caller = threading.get_ident()
    span_threads = set()

    class ThreadRecordingTracer(tracing.Tracer):
        def wrap(self, name, fn, hook=None):
            traced = super().wrap(name, fn, hook)

            def recorded(*args, **kwargs):
                span_threads.add(threading.get_ident())
                return traced(*args, **kwargs)

            return recorded

    made = []

    def counting_thread(*args, **kwargs):
        made.append(threading.Thread(*args, **kwargs))
        return made[-1]

    n_max = 16
    doc = {"command": "converge", "schema": 1, "horizons": {"n_max": n_max},
           "params": {"kind": "boxes", "x": "1,1", "sides": "power:c=1,p=2",
                      "matrices": {"family": "geometric", "matrix": "0,1;-1,0",
                                   "ratio": 0.5}}}
    tracer = ThreadRecordingTracer()
    with patch.object(convergence, "_THREADS", 3), \
            patch.object(convergence, "threading",
                         SimpleNamespace(Thread=counting_thread, Lock=threading.Lock)):
        try:
            tracing.install(tracer)
            patched = list(tracer._patches)
            cli.run_scenario(doc, "converge")
        finally:
            tracer.uninstall()
    assert tracer.calls["convergence.box_twist_mean"] == n_max
    assert span_threads == {caller}
    assert made and not any(t.is_alive() for t in made)
    assert patched and tracer._patches == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert convergence.__dict__["threading"] is threading
