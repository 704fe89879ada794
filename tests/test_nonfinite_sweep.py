"""A standing sweep of non-finite scalars through every subcommand.

Each case below is a valid scenario with one cocycle, bilinear or model
scalar marked ``X``; the sweep runs it in-process with ``X`` set to
``nan``, ``inf`` and ``-inf`` in turn.  Every run must end in one of these
ways:

- exit 2, with a message that names the field the scalar sits in;
- exit 1, only for a greedy selection that runs out of candidates;
- a report with no ``"pass": true``, no ``Proved*`` verdict whose partial
  sum or tail bound is NaN or -inf, and no ``ProvedConvergent`` verdict
  whose partial sum or tail bound is infinite, so that no claim rests on a
  value that is not finite (a divergent series may sum to +inf).

Cocycle and bilinear scalars (matrix and bilinear entries, table phases,
epsilons) are refused at parsing; model scalars are not, since an
infinite exponent is a model of its own.  ``folner`` takes integers only.
"""

import json
import re

import pytest

from twistlab.cli import CliError, run_scenario

G = "geometric:c=1,r=0.5"
BOXES = {"kind": "boxes", "x": "1,0", "sides": "power:c=1,p=2"}
ROTATION = {"family": "geometric", "matrix": "0,1;-1,0", "ratio": 0.5}
SELECT = {"count": 3, "members": {"matrix": "0.3,1;-1,0.2", "ratio": 0.5},
          "sides": "power:c=1,p=1"}
ACTION_TABLE = {"values": {"group": "Z2", "kind": "vector", "table": [
    {"g": "1", "amplitudes": [0.5, 0.75, 0.875, 0.9375]},
    {"g": "0", "amplitudes": [1, 1, 1, 1]}]}}


def regular(cocycle, group="Z2xZ2"):
    return {"regular": {"group": group, "cocycle": cocycle}}


# (command, params with one X, the field an exit-2 message must name)
CASES = [
    ("prop42", {"sides": "power:c=X,p=2", "norms": G}, "params.sides"),
    ("prop42", {"sides": "power:c=1,p=X", "norms": G}, "params.sides"),
    ("prop42", {"sides": "geometric:c=X,r=1.5", "norms": G}, "params.sides"),
    ("prop42", {"sides": "geometric:c=1,r=X", "norms": G}, "params.sides"),
    ("prop42", {"sides": "explicit:1,X,3", "norms": G}, "params.sides"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "geometric:c=X,r=0.5"}, "params.norms"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "geometric:c=1,r=X"}, "params.norms"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "power:c=X,p=-3"}, "params.norms"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "power:c=1,p=X"}, "params.norms"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "explicit:0.5,X"}, "params.norms"),
    ("prop42", {"sides": "power:c=1,p=X", "norms": G, "x": "1,1"}, "params.sides"),
    ("prop42", {"sides": "power:c=1,p=2", "norms": "geometric:c=X,r=0.5", "x": "1,1"},
     "params.norms"),
    ("dirichlet", {"windows": "power:c=X,p=2", "angles": "power:c=1,p=-4"}, "params.windows"),
    ("dirichlet", {"windows": "power:c=1,p=X", "angles": "power:c=1,p=-4"}, "params.windows"),
    ("dirichlet", {"windows": "geometric:c=1,r=X", "angles": "power:c=1,p=-4"},
     "params.windows"),
    ("dirichlet", {"windows": "power:c=1,p=2", "angles": "power:c=X,p=-4"}, "params.angles"),
    ("dirichlet", {"windows": "power:c=1,p=2", "angles": "power:c=1,p=X"}, "params.angles"),
    ("dirichlet", {"windows": "power:c=1,p=2", "angles": "geometric:c=1,r=X"},
     "params.angles"),
    ("dirichlet", {"windows": "power:c=1,p=2", "angles": "explicit:0.1,X"}, "params.angles"),
    ("converge", {**BOXES, "matrices": {**ROTATION, "matrix": "0,X;-1,0"}},
     "params.matrices.matrix"),
    ("converge", {**BOXES, "matrices": {**ROTATION, "ratio": "X"}}, "params.matrices.ratio"),
    ("converge", {**BOXES, "matrices": {"family": "power", "matrix": "0,1;-1,0",
                                        "exponent": "X"}}, "params.matrices.exponent"),
    ("converge", {**BOXES, "sides": "power:c=X,p=2", "matrices": ROTATION}, "params.sides"),
    ("converge", {**BOXES, "sides": "power:c=1,p=X", "matrices": ROTATION}, "params.sides"),
    ("converge", {"kind": "inner", "angles": "power:c=X,p=-2"}, "params.angles"),
    ("converge", {"kind": "inner", "angles": "power:c=1,p=X"}, "params.angles"),
    ("converge", {"kind": "product", "angles": "power:c=X,p=-2"}, "params.angles"),
    ("converge", {"kind": "product", "angles": "geometric:c=1,r=X"}, "params.angles"),
    ("converge", {"kind": "inner", "values": [0.5, 0.75], "model": "power:c=X,p=-2"},
     "params.model"),
    ("converge", {"kind": "inner", "values": [0.5, 0.75], "model": "power:c=1,p=X"},
     "params.model"),
    ("converge", {"kind": "product", "angles": "power:c=1,p=-1",
                  "model": "power:c=X,p=-1,rel=minorant"}, "params.model"),
    ("converge", {"kind": "inner", "values": ["X", 0.5], "model": "power:c=1,p=-2"},
     "params.values"),
    ("select", {**SELECT, "members": {"matrix": "0.3,X;-1,0.2", "ratio": 0.5}},
     "params.members.matrix"),
    ("select", {**SELECT, "members": {"matrix": "0.3,1;-1,0.2", "ratio": "X"}},
     "params.members.ratio"),
    ("select", {**SELECT, "sides": "power:c=X,p=1"}, "params.sides"),
    ("select", {**SELECT, "sides": "power:c=1,p=X"}, "params.sides"),
    ("select", {**SELECT, "thresholds": {"coeff": "X", "exponent": -2}}, "params.thresholds"),
    ("select", {**SELECT, "thresholds": {"coeff": 1, "exponent": "X"}}, "params.thresholds"),
    ("check-cocycle", {"cocycle": {"matrix": "0,X;-1,0"}}, "params.cocycle.matrix"),
    ("check-cocycle", {"cocycle": {"bilinear": "X"}}, "params.cocycle.bilinear"),
    ("check-cocycle", {"cocycle": {"perturb": {"base": {"trivial": "Z4xZ4"}, "epsilon": "X"}}},
     "params.cocycle.perturb.epsilon"),
    ("check-cocycle", {"cocycle": {"coboundary": {"group": "Z4xZ4", "epsilon": "X"}}},
     "params.cocycle.coboundary.epsilon"),
    ("ccr", {"sigma": {"matrix": "X,0;0,0.1"}, "window": {"side": 3}}, "params.sigma.matrix"),
    ("ccr", {"sigma": {"table": {"a_moduli": [2], "b_moduli": [2],
                                 "phases": [[0, 0], [0, "X"]]}}}, "params.sigma.table.phases"),
    ("fell", {"u": {"coboundary": {"epsilon": "X", "group": "Z2xZ2"}}, "rep": {"name": "pauli"}},
     "params.u.coboundary.epsilon"),
    ("fell", {"u": {"coboundary": {"epsilon": 0.9, "group": "Z2xZ2"}},
              "rep": regular({"perturb": {"base": {"trivial": "Z2xZ2"}, "epsilon": "X"}})},
     "params.rep.regular.cocycle.perturb.epsilon"),
    ("tensor", {"factors": [regular({"perturb": {"base": {"trivial": "Z2xZ2"},
                                                 "epsilon": "X"}})]},
     "params.factors[0].regular.cocycle.perturb.epsilon"),
    ("tensor", {"factors": [regular({"matrix": "0,X;0,0"})]},
     "params.factors[0].regular.cocycle.matrix"),
    ("action", {"elements": ["1", "0"], "model": "geometric:c=X,r=0.5", "source": ACTION_TABLE},
     "params.model"),
    ("action", {"elements": ["1", "0"], "model": "geometric:c=1,r=X", "source": ACTION_TABLE},
     "params.model"),
    ("action", {"elements": ["1,0"], "model": "power:c=1,p=X,rel=minorant",
                "source": {"regular_trace": {"group": "Z^2"}}}, "params.model"),
    ("obstruction", {"u": {"matrix": "0,X;-0.9,0"}}, "params.u.matrix"),
    ("obstruction", {"u": {"bilinear": "X"}}, "params.u.bilinear"),
    ("obstruction", {"u": {"name": "pauli"},
                     "v": {"perturb": {"base": {"name": "pauli"}, "epsilon": "X"}}},
     "params.v.perturb.epsilon"),
]


def substitute(obj, value):
    """``obj`` with its one X, a whole value or a descriptor entry, set to ``value``."""
    if isinstance(obj, str):
        return value if obj == "X" else re.sub(r"(?:(?<=[=,:;])|^)X(?=,|;|$)", value, obj)
    if isinstance(obj, list):
        return [substitute(v, value) for v in obj]
    if isinstance(obj, dict):
        return {k: substitute(v, value) for k, v in obj.items()}
    return obj


def claims_resting_on_non_finite(node):
    """Every Proved* verdict below ``node`` whose partial sum or tail bound
    is NaN or -inf, and every ProvedConvergent one whose partial sum or
    tail bound is +inf."""
    if isinstance(node, list):
        return [c for v in node for c in claims_resting_on_non_finite(v)]
    if not isinstance(node, dict):
        return []
    found = [c for v in node.values() for c in claims_resting_on_non_finite(v)]
    verdict = str(node.get("verdict", ""))
    bad = {"nan", "-inf", "inf"} if verdict == "ProvedConvergent" else {"nan", "-inf"}
    if verdict.startswith("Proved") and bad & {node.get("partial_sum"), node.get("tail_bound")}:
        found.append(node)
    return found


def test_the_sweep_finds_claims_on_non_finite_sums():
    def verdict(name, partial, tail=None):
        return {"verdict": name, "partial_sum": partial, "tail_bound": tail}

    claims = [verdict("ProvedConvergent", 1.5, "inf"), verdict("ProvedConvergent", "inf", 0.5),
              verdict("ProvedConvergent", "-inf", 0.5), verdict("ProvedDivergent", "nan"),
              verdict("ProvedDivergent", "-inf")]
    sound = [verdict("ProvedDivergent", "inf"), verdict("ProvedConvergent", 1.5, 0.25),
             verdict("Inconclusive", "inf", "nan")]
    assert claims_resting_on_non_finite({"reports": [*claims, *sound]}) == claims


def test_every_subcommand_with_scalars_is_swept():
    assert {c for c, _, _ in CASES} == {
        "prop42", "dirichlet", "converge", "select", "check-cocycle", "ccr", "fell",
        "tensor", "action", "obstruction"}
    # each case marks exactly one scalar
    assert all(json.dumps(substitute(p, "@")).count("@") == 1 for _, p, _ in CASES)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,params,field", CASES,
                         ids=[f"{c}:{f}:{i}" for i, (c, _, f) in enumerate(CASES)])
def test_a_non_finite_scalar_is_refused_by_name_or_proves_nothing(command, params, field,
                                                                  value):
    doc = {"schema": 1, "command": command, "params": substitute(params, value),
           "horizons": {"n_max": 30}}
    assert doc["params"] != params
    try:
        report = run_scenario(doc, command)
    except CliError as exc:
        if exc.code == 1:
            assert command == "select" and exc.message.startswith("selection failed")
        else:
            assert exc.code == 2 and field in exc.message, exc.message
        return
    assert '"pass":true' not in report
    assert claims_resting_on_non_finite(json.loads(report)) == []
