"""The traced benchmark run still finds every name it wraps.

``perfbench/tracer.py`` replaces twistlab functions where their callers look
them up (for example ``cli.translation_series`` or
``convergence.power_tail``).  A refactor that moves such a name fails here
instead of crashing ``perfbench/run.py --trace 1``.  Nothing under
``perfbench/`` is modified.
"""

import importlib.util
from pathlib import Path

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
    finally:
        tracer.uninstall()
    assert tracer.calls["convergence.lattice_tensor_criteria"] == 1
    assert tracer.calls["convergence.box_defect"] == 20
    for module, names in zip(MODULES, before):
        assert all(vars(module)[k] is v for k, v in names.items()), module.__name__
    assert groups.FolnerBox.__dict__["points"] is points
