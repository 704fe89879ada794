"""Command line surface: scenarios, reports, determinism and exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twistlab
from twistlab import cli
from twistlab.cli import (
    CliError,
    main,
    parse_cocycle,
    parse_complex,
    parse_group,
    parse_matrix,
    parse_model,
    parse_scalar,
    render_csv,
    render_json,
    run_scenario,
)
from twistlab.cocycles import ProductCocycle, TableCocycle
from twistlab.groups import FiniteAbelianGroup, FolnerBox, IntegerLattice
from twistlab.reps import CCRPair
from twistlab.series import ExplicitModel, GeometricModel, PowerModel


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# --- deterministic emitters ---


def test_render_json_sorts_keys_and_fixes_floats():
    text = render_json({"b": 1.5, "a": [True, None, 2]})
    assert text == '{"a":[true,null,2],"b":1.5}'
    assert render_json(1.0 / 3.0) == "0.33333333333333331"
    assert render_json(complex(1.0, 2.0)) == '{"im":2,"re":1}'
    assert render_json(np.array([[1, 2]])) == "[[1,2]]"
    assert render_json(math.inf) == '"inf"'
    assert render_json(-math.inf) == '"-inf"'
    assert render_json(math.nan) == '"nan"'


def test_render_json_rejects_non_string_keys():
    with pytest.raises(TypeError, match="keys must be strings"):
        render_json({1: "x"})


def test_render_csv_rows_and_empty_bounds():
    text = render_csv({"k": 1}, [0.5, 0.25], [1.0, None])
    lines = text.splitlines()
    assert lines[0] == '# scenario={"k":1}'
    assert lines[1] == "index,term,partial_sum,bound"
    assert lines[2] == "1,0.5,0.5,1"
    assert lines[3] == "2,0.25,0.75,"
    assert text.endswith("\n")


# --- field parsers ---


def test_parse_scalar_accepts_pi_expressions():
    assert parse_scalar("pi", "t") == pytest.approx(math.pi)
    assert parse_scalar("-pi/4", "t") == pytest.approx(-math.pi / 4)
    assert parse_scalar("2pi/3", "t") == pytest.approx(2 * math.pi / 3)
    assert parse_scalar("0.5", "t") == 0.5
    assert parse_scalar(2, "t") == 2.0
    with pytest.raises(CliError) as exc:
        parse_scalar("pie", "t")
    assert exc.value.code == 2
    with pytest.raises(CliError):
        parse_scalar(True, "t")


def test_parse_group_forms():
    assert parse_group("Z^2", "g") == IntegerLattice(2)
    assert parse_group("Z2xZ4", "g") == FiniteAbelianGroup((2, 4))
    with pytest.raises(CliError):
        parse_group("Q", "g")
    with pytest.raises(CliError):
        parse_group(3, "g")


def test_parse_model_descriptor_strings():
    assert parse_model("power:c=1,p=-2", "m") == PowerModel(1.0, -2.0)
    assert parse_model("geometric:c=0.5,r=0.25,rel=majorant", "m") == GeometricModel(
        0.5, 0.25, "majorant")
    assert parse_model("explicit:0.1,0.2", "m") == ExplicitModel((0.1, 0.2))
    assert parse_model({"family": "power", "coeff": 1, "exponent": -2},
                       "m") == PowerModel(1.0, -2.0)
    with pytest.raises(CliError, match="must be >= 0"):
        parse_model("power:c=-1,p=-2", "m")
    with pytest.raises(CliError, match="family"):
        parse_model("cubic:c=1", "m")
    with pytest.raises(CliError, match="unknown model option"):
        parse_model("power:c=1,q=-2", "m")
    with pytest.raises(CliError, match="relation"):
        parse_model("power:c=1,p=-2,rel=upper", "m")


def test_parse_matrix_forms():
    assert np.array_equal(parse_matrix("0,1;-1,0", "m"),
                          np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(parse_matrix([[0, 1], [2, 3]], "m"),
                          np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(parse_matrix(["pi"], "m"), np.array([[math.pi]]))
    with pytest.raises(CliError, match="equal length"):
        parse_matrix("0,1;2", "m")


def test_parse_complex_forms():
    assert parse_complex({"re": 1, "im": -2}, "z") == complex(1.0, -2.0)
    assert parse_complex({"im": 0.5}, "z") == complex(0.0, 0.5)
    assert parse_complex(0.5, "z") == complex(0.5, 0.0)
    with pytest.raises(CliError):
        parse_complex({"real": 1}, "z")
    with pytest.raises(CliError, match="re and/or im"):
        parse_complex({}, "z")


def test_parse_cocycle_descriptors():
    assert isinstance(parse_cocycle({"name": "pauli"}, "u"), TableCocycle)
    assert parse_cocycle({"trivial": "Z2"}, "u").group == FiniteAbelianGroup((2,))
    assert parse_cocycle({"matrix": [[0, 1], [0, 0]]}, "u").group == IntegerLattice(2)
    assert parse_cocycle({"bilinear": [[0.5]]}, "u").group == IntegerLattice(2)
    cob = parse_cocycle({"coboundary": {"epsilon": 0.5, "group": "Z^1"}}, "u")
    assert cob.group == IntegerLattice(1)
    pert = parse_cocycle({"perturb": {"base": {"name": "pauli"},
                                      "epsilon": 0.3}}, "u")
    assert isinstance(pert, ProductCocycle)
    with pytest.raises(CliError, match="exactly one"):
        parse_cocycle({"name": "pauli", "matrix": [[0]]}, "u")
    with pytest.raises(CliError, match="unknown cocycle form"):
        parse_cocycle({"spooky": 1}, "u")
    with pytest.raises(CliError, match="name must be one of"):
        parse_cocycle({"name": "heisenberg"}, "u")


# --- inline subcommands ---


def test_folner_inline_report_shape(capsys):
    doc = run_json(capsys, ["folner", "--rank", "2", "--side", "3", "--x", "1,0"])
    assert sorted(doc) == ["command", "result", "scenario", "schema"]
    assert doc["schema"] == 1
    assert doc["command"] == "folner"
    res = doc["result"]
    assert res["cardinality"] == 16
    assert res["overlap"] == 12
    assert res["defect"] == 0.25
    assert res["defect_bound"] == 0.25
    assert res["bound_holds"] is True
    # the resolved scenario keeps the inline string form; it replays identically
    assert doc["scenario"]["params"] == {"rank": 2, "side": 3, "x": "1,0"}
    assert doc["scenario"]["seed"] == 0
    assert doc["scenario"]["tolerances"] == {"tol": 1e-9}


def test_folner_offset_moves_the_box_but_not_its_translation_counts(capsys):
    base = ["folner", "--rank", "2", "--side", "3", "--x", "1,0"]
    plain = run_json(capsys, base)["result"]
    moved = run_json(capsys, [*base, "--offset", "5,-2"])["result"]
    for key in ("defect", "overlap", "cardinality"):
        assert moved[key] == plain[key]
    assert plain["l1_mass"] is not None
    assert moved["l1_mass"] is None


@pytest.mark.parametrize("flag,bad", [("--x", ["--x", "1,0,0"]),
                                      ("--offset", ["--x", "1,0", "--offset", "5"])])
def test_folner_vectors_need_rank_entries(capsys, flag, bad):
    code, out, err = run_cli(capsys, ["folner", "--rank", "2", "--side", "3", *bad])
    assert (code, out) == (2, "")
    assert f"params.{flag[2:]} must have params.rank entries" in err


def test_missing_flags_are_schema_errors(capsys):
    code, _, err = run_cli(capsys, ["folner", "--rank", "2", "--side", "3"])
    assert code == 2
    assert "schema violation" in err


def test_check_cocycle_pauli_passes(capsys):
    doc = run_json(capsys, ["check-cocycle", "--name", "pauli"])
    res = doc["result"]
    assert res["pass"] is True
    assert res["cocycle_residual"] <= 1e-12
    assert res["normalization_residual"] <= 1e-12
    assert res["group"] == "Z2xZ2"


def test_check_cocycle_matrix_flag(capsys):
    doc = run_json(capsys, ["check-cocycle", "--matrix", "0,1.57;0,0",
                            "--count", "50", "--bound", "3"])
    assert doc["result"]["pass"] is True
    assert doc["result"]["triples"] == 50
    assert doc["scenario"]["params"]["samples"] == {"bound": 3, "count": 50}


def test_converge_boxes_inline(capsys):
    doc = run_json(capsys, ["converge", "--x", "1,0", "--matrix", "0,1;-1,0",
                            "--sides", "power:c=1,p=2", "--n-max", "30"])
    res = doc["result"]
    assert res["conclusion"] == "ProvedConvergent"
    assert res["translation"]["verdict"] == "ProvedConvergent"
    assert res["twist"]["verdict"] == "ProvedConvergent"
    assert res["tail_bound"] > 0
    assert res["sides_head"][:3] == [1, 4, 9]
    assert doc["scenario"]["horizons"]["n_max"] == 30


def test_converge_product_reports_complex_partial_product(capsys):
    doc = run_json(capsys, ["converge", "--kind", "product",
                            "--angles", "power:c=1,p=-2", "--n-max", "20"])
    res = doc["result"]
    assert res["series"]["verdict"] == "ProvedConvergent"
    pp = res["partial_product"]
    assert set(pp) == {"im", "re"}
    assert abs(complex(pp["re"], pp["im"])) == pytest.approx(1.0, abs=1e-9)


_BOX_FLAGS = ["--x", "1,0", "--matrix", "0,1;-1,0", "--sides", "power:c=1,p=2"]


@pytest.mark.parametrize("kind", ["product", "inner"])
@pytest.mark.parametrize("extra,named", [
    (["--x", "1,0", "--matrix", "0,1;-1,0"], "--x, --matrix"),
    (["--sides", "power:c=1,p=2"], "--sides"),
    (["--family", "power", "--exponent", "-2"], "--family, --exponent"),
    (["--ratio", "0.3"], "--ratio"),
])
def test_converge_scalar_kinds_refuse_box_flags(capsys, kind, extra, named):
    code, out, err = run_cli(capsys, ["converge", "--kind", kind, *extra,
                                      "--angles", "power:c=1,p=-2", "--n-max", "20"])
    assert code == 2
    assert out == ""
    assert f"converge {kind} does not read {named}" in err


@pytest.mark.parametrize("kind", [[], ["--kind", "boxes"]])
@pytest.mark.parametrize("extra,named", [
    (["--angles", "power:c=1,p=-2"], "--angles"),
    (["--model", "power:c=1,p=-2"], "--model"),
    (["--angles", "power:c=1,p=-2", "--model", "power:c=1,p=-2"], "--angles, --model"),
])
def test_converge_boxes_refuses_scalar_flags(capsys, kind, extra, named):
    code, out, err = run_cli(capsys, ["converge", *kind, *_BOX_FLAGS, *extra])
    assert code == 2
    assert out == ""
    assert f"converge boxes does not read {named}" in err


def test_converge_kinds_still_take_every_flag_they_read(capsys):
    doc = run_json(capsys, ["converge", *_BOX_FLAGS, "--family", "power",
                            "--exponent", "-3", "--n-max", "10"])
    assert doc["scenario"]["params"]["matrices"]["exponent"] == -3
    doc = run_json(capsys, ["converge", "--kind", "inner", "--angles", "power:c=1,p=-2",
                            "--model", "power:c=0.5,p=-4", "--n-max", "10"])
    assert doc["scenario"]["params"]["model"] == "power:c=0.5,p=-4"


def test_prop42_flag_aliases_and_clauses(capsys):
    doc = run_json(capsys, ["prop42", "--m", "power:c=1,p=2",
                            "--a", "geometric:c=1,r=0.5",
                            "--x", "1,0", "--n-max", "30"])
    res = doc["result"]
    assert res["tensor_exists"] == "Certified"
    names = [c["name"] for c in res["clauses"]]
    assert names == ["folner_sequence", "summable_folner", "product_cocycle",
                     "tensor_product_existence"]
    assert all(c["holds"] == "Certified" for c in res["clauses"])
    assert res["translation"]["verdict"] == "ProvedConvergent"


def test_dirichlet_value_only(capsys):
    code, out, _ = run_cli(capsys, ["dirichlet", "--n", "1", "--theta", "pi/2",
                                    "--value-only"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0 / 3.0, abs=1e-15)
    code, out, _ = run_cli(capsys, ["dirichlet", "--n", "1", "--theta", "pi",
                                    "--value-only"])
    assert code == 0
    assert float(out.strip()) == pytest.approx(-1.0 / 3.0, abs=1e-15)
    code, _, err = run_cli(capsys, ["dirichlet", "--theta", "pi", "--value-only"])
    assert code == 2
    assert "needs --n and --theta" in err


def test_dirichlet_smallest_subnormal_angle_exits_0(capsys):
    doc = run_json(capsys, ["dirichlet", "--windows", "power:c=1,p=2",
                            "--angles", "geometric:c=5e-324,r=0.999"])
    assert doc["result"]["deviation"]["partial_sum"] == 0
    assert doc["result"]["conclusion"] == "ProvedConvergent"
    code, out, err = run_cli(capsys, ["dirichlet", "--value-only", "--n", "3",
                                      "--theta", "5e-324"])
    assert code == 0, err
    assert float(out.strip()) == 1.0


def test_dirichlet_window_overflow_exits_2_naming_the_window(capsys):
    code, out, err = run_cli(capsys, ["dirichlet", "--windows", "power:c=1e308,p=2",
                                      "--angles", "power:c=1,p=-1"])
    assert code == 2
    assert out == ""
    assert "window 1 is too large" in err and "float range" in err


@pytest.mark.parametrize("windows,angles,message", [
    # both overflow at index 309; the window check comes first
    ("geometric:c=0.5,r=10", "geometric:c=1,r=10", "window model overflows at index 309"),
    # the angle overflows first, at 302; the rest of the message is strerror text
    ("geometric:c=0.5,r=10", "geometric:c=1,r=10.5", "invalid scenario: "),
    ("geometric:c=1,r=10", "geometric:c=1,r=10", "window 308 is too large"),
])
def test_dirichlet_reports_the_first_failing_index(capsys, windows, angles, message):
    code, out, err = run_cli(capsys, ["dirichlet", "--windows", windows, "--angles", angles,
                                      "--n-max", "400"])
    assert code == 2
    assert out == ""
    assert message in err
    if "window" not in message:
        assert "window" not in err


def test_prop42_translation_bound_dominates_its_term_past_2_53(capsys):
    code, out, err = run_cli(capsys, ["prop42", "--m", "explicit:9007199254740994",
                                      "--a", "power:c=1,p=-3", "--x", "1",
                                      "--format", "csv", "--series", "translation"])
    assert code == 0, err
    _, term, _, bound = out.splitlines()[2].split(",")
    assert float(bound) >= float(term)


def test_dirichlet_value_only_overflow_exits_2(capsys):
    code, out, err = run_cli(capsys, ["dirichlet", "--n", str(10 ** 400), "--theta", "0.5",
                                      "--value-only"])
    assert code == 2
    assert out == ""
    assert "--n is too large" in err


def test_dirichlet_report_conclusions(capsys):
    doc = run_json(capsys, ["dirichlet", "--windows", "power:c=1,p=2",
                            "--angles", "power:c=pi,p=-4", "--n-max", "50"])
    assert doc["result"]["conclusion"] == "ProvedConvergent"
    doc = run_json(capsys, ["dirichlet", "--windows", "power:c=1,p=1",
                            "--angles", "power:c=1,p=-1", "--n-max", "50"])
    assert doc["result"]["conclusion"] == "ProvedDivergent"


def test_ccr_pauli_pass(capsys):
    doc = run_json(capsys, ["ccr", "--sigma", "pauli"])
    res = doc["result"]
    assert res["pass"] is True
    assert res["dimension"] == 2
    assert res["truncated"] is False
    assert res["projective_residual"] <= 1e-12
    assert res["max_boundary_deficit"] == 0


def test_ccr_refuses_an_unnormalized_table_before_any_residual(monkeypatch):
    def no_residuals(self, pairs):
        raise AssertionError("residual computed before the normalization check")

    monkeypatch.setattr(CCRPair, "relation_residual", no_residuals)
    phases = [[0.0, 0.0], [0.0, 0.0], [0.3, 0.0]]
    doc = {"command": "ccr", "schema": 1,
           "params": {"sigma": {"table": {"a_moduli": [3], "b_moduli": [2],
                                          "phases": phases}}}}
    with pytest.raises(CliError) as info:
        run_scenario(doc, "ccr")
    assert info.value.code == 2
    assert info.value.message == "invalid scenario: table must be normalized at the identity"


def test_fell_pauli_pass(capsys):
    doc = run_json(capsys, ["fell", "--u-name", "pauli", "--rep-name", "pauli"])
    res = doc["result"]
    assert res["pass"] is True
    assert res["max_residual"] <= 1e-10
    assert res["max_spectral_distance"] <= 1e-8
    assert res["rep_dimension"] == 2
    assert len(res["per_element"]) == 4


def test_tensor_inline(capsys):
    doc = run_json(capsys, ["tensor", "--factors", "pauli,pauli"])
    res = doc["result"]
    assert res["pass"] is True
    assert res["dimension"] == 4
    assert res["factor_count"] == 2
    assert res["group"] == "Z2xZ2"


def test_action_trace_rep_outer(capsys):
    doc = run_json(capsys, ["action", "--trace-rep", "pauli",
                            "--elements", "1,0;0,1", "--n-max", "20"])
    res = doc["result"]
    assert res["status"] == "OuterCertified"
    assert res["kind"] == "trace"
    assert all(r["verdict"]["verdict"] == "ProvedDivergent" for r in res["reports"])


def test_action_identity_only_is_inner(capsys):
    doc = run_json(capsys, ["action", "--trace-group", "Z2xZ2",
                            "--elements", "0,0"])
    assert doc["result"]["status"] == "InnerCertified"


def test_action_element_of_the_wrong_rank_exits_2(tmp_path, capsys):
    path = tmp_path / "short-element.json"
    path.write_text(json.dumps({"schema": 1, "command": "action",
                                "params": {"elements": ["1"],
                                           "source": {"rep_trace": {"name": "pauli"}}}}))
    code, out, err = run_cli(capsys, ["action", "--scenario", str(path)])
    assert code == 2 and out == ""
    assert "invalid scenario: expected 2 coordinates, got 1" in err


def test_select_inline_and_failure_exit(capsys):
    doc = run_json(capsys, ["select", "--count", "3", "--matrix", "0,1;-1,0",
                            "--sides", "power:c=1,p=1"])
    res = doc["result"]
    assert res["indices"] == sorted(set(res["indices"]))
    assert len(res["indices"]) == 3
    assert res["threshold_sum"] == pytest.approx(1.0 + 0.25 + 1.0 / 9.0)
    code, _, err = run_cli(capsys, ["select", "--count", "4",
                                    "--matrix", "0,50;-50,0", "--ratio", "0.99",
                                    "--sides", "power:c=1,p=1", "--scan", "5"])
    assert code == 1
    assert "selection failed" in err


@pytest.mark.parametrize("thresholds,message", [
    ({"coeff": "nan", "exponent": 2}, "schema violation: params.thresholds.coeff must be > 0"),
    ({"coeff": 1, "exponent": "nan"}, "invalid scenario: thresholds must be positive"),
])
def test_select_nan_thresholds_exit_2(tmp_path, capsys, thresholds, message):
    path = tmp_path / "nan-thresholds.json"
    path.write_text(json.dumps({"schema": 1, "command": "select",
                                "params": {"count": 3, "members": {"matrix": "0,1;-1,0",
                                                                   "ratio": 0.5},
                                           "sides": "power:c=1,p=1",
                                           "thresholds": thresholds}}))
    code, out, err = run_cli(capsys, ["select", "--scenario", str(path)])
    assert code == 2 and out == ""
    assert message in err


def test_select_stops_at_an_explicit_side_prefix(capsys):
    doc = run_json(capsys, ["select", "--count", "3", "--matrix", "0,1;-1,0",
                            "--sides", "explicit:1,2"])
    assert len(doc["result"]["indices"]) == 2
    assert doc["scenario"]["params"]["count"] == 3


def test_obstruction_flags_and_group_guard(capsys):
    doc = run_json(capsys, ["obstruction", "--group", "Z2xZ2",
                            "--cocycle", "pauli"])
    res = doc["result"]
    assert res["status"] == "Obstructed"
    assert res["witness"] == [[1, 0], [0, 1]]
    code, _, err = run_cli(capsys, ["obstruction", "--group", "Z^2",
                                    "--cocycle", "pauli"])
    assert code == 2
    assert "does not match" in err


def test_obstruction_matrix_drift_inconclusive(capsys):
    doc = run_json(capsys, ["obstruction", "--u-matrix", "0,1;0,0",
                            "--v-matrix", "0,2;0,0"])
    res = doc["result"]
    assert res["status"] == "Inconclusive"
    assert res["witness"] == [[1, 0], [0, 1]]
    assert "drift" in res["detail"]


def test_obstruction_scenario_class_list(tmp_path, capsys):
    doc = {
        "schema": 1,
        "command": "obstruction",
        "params": {"u": [{"name": "pauli"},
                         {"perturb": {"base": {"name": "pauli"},
                                      "epsilon": 0.3}}],
                   "v": {"name": "pauli"}},
    }
    path = tmp_path / "classes.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, ["obstruction", "--scenario", str(path)])
    assert report["result"]["status"] == "Obstructed"
    assert report["result"]["witness"] == [[1, 0], [0, 1]]

    doc["params"] = {"u": []}
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["obstruction", "--scenario", str(path)])
    assert code == 2
    assert "must not be an empty list" in err


def test_obstruction_past_the_exhaustive_order_is_inconclusive(tmp_path, capsys):
    path = tmp_path / "z9.json"
    path.write_text(json.dumps({"schema": 1, "command": "obstruction",
                                "params": {"u": {"trivial": "Z9xZ9"}}}))
    res = run_json(capsys, ["obstruction", "--scenario", str(path)])["result"]
    assert res["status"] == "Inconclusive"
    assert res["detail"] == "group too large for exhaustive bicharacter certification"
    assert res["witness"] is None


def test_obstruction_rejects_non_bicharacter_reference(tmp_path, capsys):
    doc = {
        "schema": 1,
        "command": "obstruction",
        "params": {"u": {"perturb": {"base": {"name": "pauli"},
                                     "epsilon": 0.3}}},
    }
    path = tmp_path / "bad-ref.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, ["obstruction", "--scenario", str(path)])
    assert code == 2
    assert "invalid scenario" in err


@pytest.mark.parametrize("command,params,horizons,message", [
    # UnsupportedVariantError, the one TypeError the boundary catches.
    ("obstruction", {"u": {"coboundary": {"epsilon": 0.3, "group": "Z2xZ2"}}}, {},
     "invalid scenario: coboundary test supports bicharacter variants only, "
     "got CoboundaryCocycle"),
    # OverflowError: the rest of the message is the platform's strerror text.
    ("dirichlet", {"windows": "power:c=1,p=1", "angles": "geometric:c=1,r=10"},
     {"n_max": 400}, "invalid scenario: "),
    ("ccr", {"sigma": {"matrix": "0.1,0;0,0.1"}, "window": {"side": 64}}, {},
     "cap exceeded: b side dimension 4225 exceeds cap 4096"),
])
def test_run_scenario_error_boundary_exits_2(command, params, horizons, message):
    doc = {"schema": 1, "command": command, "params": params, "horizons": horizons}
    with pytest.raises(CliError) as info:
        run_scenario(doc, command)
    assert info.value.code == 2
    assert info.value.message.startswith(message)


def _work_started(*args, **kwargs):
    raise AssertionError("the run started its dense work before the cap check")


def _coboundary(group):
    return {"coboundary": {"epsilon": 0.5, "group": group}}


@pytest.mark.parametrize("command,inline,work,message", [
    ("tensor", {"factors": [{"regular": {"cocycle": _coboundary("Z4097"), "group": "Z4097"}}]},
     (FiniteAbelianGroup, "elements"), "group order 4097"),
    ("tensor", ["--factors", ",".join(["pauli"] * 13)], (np, "kron"), "tensor dimension 8192"),
    ("fell", {"u": _coboundary("Z65"), "rep": {"regular": {"cocycle": _coboundary("Z65"),
                                                           "group": "Z65"}}},
     (FiniteAbelianGroup, "elements"), "absorption check dimension 4225"),
    ("ccr", ["--d-matrix", "0.1,0;0,0.1", "--side", "64"], (FolnerBox, "points"),
     "b side dimension 4225"),
    ("ccr", {"sigma": {"table": {"a_moduli": [1], "b_moduli": [4097], "phases": [[0] * 4097]}}},
     (FiniteAbelianGroup, "elements"), "b side dimension 4097"),
    ("check-cocycle", {"cocycle": {"trivial": "Z100000"}}, (cli, "trivial_cocycle"),
     "group order 100000"),
], ids=["regular", "tensor", "fell", "ccr-window", "ccr-table", "trivial-table"])
def test_over_cap_inputs_are_refused_before_the_work(tmp_path, capsys, monkeypatch,
                                                     command, inline, work, message):
    if isinstance(inline, dict):
        path = tmp_path / "over-cap.json"
        path.write_text(json.dumps({"schema": 1, "command": command, "params": inline}))
        inline = ["--scenario", str(path)]
    monkeypatch.setattr(*work, _work_started)
    code, out, err = run_cli(capsys, [command, *inline])
    assert (code, out) == (2, "")
    assert f"error: cap exceeded: {message} exceeds cap 4096" in err


def test_a_trivial_table_at_the_cap_still_runs(capsys):
    doc = {"schema": 1, "command": "check-cocycle",
           "params": {"cocycle": {"trivial": "Z64xZ64"}, "samples": {"count": 4}}}
    res = run_scenario(doc, "check-cocycle")
    assert json.loads(res)["result"]["pass"] is True


# --- the flag table: every flag is read or refused ---


_DIRICHLET = ["--windows", "power:c=1,p=2", "--angles", "power:c=pi,p=-4", "--n-max", "10"]
_VALUE_ONLY = ["--value-only", "--n", "1", "--theta", "pi/2"]

# Runnable argv per subcommand; each flag of the table is added to each of them.
_BASES = {
    "check-cocycle": [["--name", "pauli"]],
    "folner": [["--rank", "2", "--side", "3", "--x", "1,0"]],
    "converge": [[*_BOX_FLAGS, "--n-max", "5"], [*_BOX_FLAGS, "--family", "power", "--n-max", "5"],
                 ["--kind", "product", "--angles", "power:c=1,p=-2", "--n-max", "5"]],
    "select": [["--count", "2", "--matrix", "0,1;-1,0", "--sides", "power:c=1,p=1"]],
    "prop42": [["--m", "power:c=1,p=2", "--a", "geometric:c=1,r=0.5", "--n-max", "10"]],
    "dirichlet": [_DIRICHLET, _VALUE_ONLY],
    "ccr": [["--sigma", "pauli"], ["--d-matrix", "0.1,0;0,0.1", "--side", "1"]],
    "fell": [["--u-name", "pauli"]],
    "tensor": [["--factors", "pauli"]],
    "action": [["--trace-rep", "pauli", "--elements", "1,0", "--n-max", "5"],
               ["--trace-group", "Z2xZ2", "--elements", "0,0"]],
    "obstruction": [["--cocycle", "pauli"]],
}

# Values to add, by a flag's first spelling: the first one that differs from
# the base's value is used.  --group gets a mismatching group, since a
# matching one is checked and leaves the scenario as it is.
_SAMPLES = {
    "--scenario": ["unused.json"], "--format": ["csv"], "--series": ["twist"],
    "--seed": ["3"], "--n-max": ["7"], "--scan": ["4"], "--grid-cap": ["1000"],
    "--tol": ["1e-6"], "--name": ["sign_z2", "pauli"], "--matrix": ["0,2;-2,0"],
    "--bilinear": ["0.5"], "--count": ["7"], "--bound": ["2"], "--rank": ["3"],
    "--side": ["4"], "--x": ["0,1"], "--offset": ["1,1"], "--kind": ["inner", "product"],
    "--family": ["power", "geometric"], "--ratio": ["0.3"], "--exponent": ["-5"],
    "--sides": ["power:c=1,p=3"], "--angles": ["power:c=1,p=-3"],
    "--model": ["power:c=1,p=-2"], "--norms": ["geometric:c=1,r=0.25"],
    "--windows": ["power:c=1,p=1"], "--n": ["3"], "--theta": ["pi"], "--value-only": [True],
    "--sigma": ["pauli"], "--d-matrix": ["0.2,0;0,0.2"], "--u-name": ["sign_z2", "pauli"],
    "--rep-name": ["pauli"], "--factors": ["pauli,pauli"], "--trace-group": ["Z2xZ2"],
    "--trace-rep": ["pauli"], "--elements": ["1,1"], "--group": ["Z2"],
    "--u-matrix": ["0,1;0,0"], "--u-bilinear": ["0.5"], "--v-name": ["pauli"],
    "--v-matrix": ["0,1;0,0"], "--v-bilinear": ["0.5"],
}


def _scenario_of(argv):
    try:
        return 0, cli._scenario_from_flags(argv[0], cli.build_parser().parse_args(argv))
    except CliError as exc:
        return exc.code, exc.message


def _flag_cases():
    """(command, base, row, value) for every table row and base; a row is left
    out where the base already gives the flag its only sample value."""
    for command, (_, rows) in cli._COMMANDS.items():
        for base in _BASES[command]:
            args = cli.build_parser().parse_args([command, *base])
            # --output only picks where the report goes (test_output_flag_writes_file).
            for row in [r for r in cli._COMMON if r.names[0] != "--output"] + list(rows):
                current = getattr(args, row.dest)
                current = row.default if current is None else current
                value = next((v for v in _SAMPLES[row.names[0]] if str(v) != str(current)),
                             None)
                if value is not None:
                    yield pytest.param(command, base, row, value,
                                       id=f"{command} {' '.join(base)} + {row.names[0]}")


@pytest.mark.parametrize("argv", [[c, *b] for c, bases in _BASES.items() for b in bases])
def test_every_base_argv_runs(capsys, argv):
    assert run_cli(capsys, argv)[0] == 0


@pytest.mark.parametrize("command,base,row,value", _flag_cases())
def test_no_flag_is_dropped_without_a_word(command, base, row, value):
    """Each flag added to a runnable argv changes its scenario, or the run
    exits 2 naming the flag (a mode by its value)."""
    extra = [row.names[0]] if row.type is bool else [row.names[0], value]
    code, scenario = _scenario_of([command, *base, *extra])
    if code == 0:
        assert scenario != _scenario_of([command, *base])[1]
    else:
        assert code == 2
        words = re.split(r"[\s,;]+", scenario)
        assert any(name in words for name in row.names) or (
            f" {value} does not read " in scenario), scenario


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_exactly_the_table_flags(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    rows = cli._COMMON + cli._COMMANDS[command][1]
    assert listed == {name for row in rows for name in row.names} | {"--help"}


def test_the_table_covers_every_subcommand():
    assert sorted(cli._COMMANDS) == sorted(cli._HANDLERS) == sorted(_BASES)


@pytest.mark.parametrize("argv,message", [
    (["converge", *_BOX_FLAGS, "--family", "power", "--ratio", "0.3"],
     "converge power does not read --ratio"),
    (["converge", *_BOX_FLAGS, "--exponent", "-5"], "converge geometric does not read --exponent"),
    (["dirichlet", *_DIRICHLET, "--n", "3"], "dirichlet without --value-only does not read --n"),
    (["dirichlet", *_DIRICHLET, "--n", "3", "--theta", "1"],
     "dirichlet without --value-only does not read --n, --theta"),
    (["ccr", "--sigma", "pauli", "--side", "5"], "ccr pauli does not read --side"),
    (["obstruction", "--u-matrix", "0,1;0,0", "--group", "Z2"],
     "obstruction without --u-name does not read --group"),
])
def test_a_flag_the_run_does_not_read_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert f"schema violation: {message}\n" in err


@pytest.mark.parametrize("argv,message", [
    (["check-cocycle", "--name", "pauli", "--bilinear", "0.5"],
     "check-cocycle takes one of --name, --matrix, --bilinear"),
    (["ccr"], "ccr takes one of --sigma, --d-matrix"),
    (["ccr", "--d-matrix", "0.1,0;0,0.1"], "ccr needs --side"),
    (["obstruction", "--cocycle", "pauli", "--v-name", "pauli", "--v-matrix", "0,1;0,0"],
     "obstruction takes one of --v-name, --v-matrix, --v-bilinear"),
    (["converge", "--kind", "inner"], "converge needs --angles"),
    (["converge"], "converge needs --x and --matrix and --sides"),
])
def test_missing_or_competing_flags_exit_2_naming_them(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: schema violation: {message}\n"


@pytest.mark.parametrize("extra", [
    ["--windows", "power:c=1,p=2"], ["--angles", "power:c=1,p=-2"], ["--scenario", "r.json"],
    ["--format", "csv"], ["--series", "deviation"], ["--seed", "4"], ["--n-max", "3"],
    ["--scan", "3"], ["--grid-cap", "9"], ["--tol", "1e-3"],
])
def test_value_only_refuses_every_flag_but_output(capsys, extra):
    code, out, err = run_cli(capsys, ["dirichlet", *_VALUE_ONLY, *extra])
    assert (code, out) == (2, "")
    assert f"dirichlet --value-only does not read {extra[0]}" in err


def test_value_only_still_writes_its_output_file(tmp_path, capsys):
    path = tmp_path / "value.txt"
    assert run_cli(capsys, ["dirichlet", *_VALUE_ONLY, "--output", str(path)]) == (0, "", "")
    assert path.read_text() == "0.33333333333333337\n"


@pytest.mark.parametrize("command", list(_BASES))
def test_scenario_runs_refuse_the_subcommand_flags(tmp_path, capsys, command):
    base = _BASES[command][0]
    report = tmp_path / "report.json"
    assert run_cli(capsys, [command, *base, "--output", str(report)])[0] == 0
    first = {name: row.names[0] for row in cli._COMMANDS[command][1] for name in row.names}
    own = [first[a] for a in base if a in first]  # refusals name a flag by its first spelling
    code, out, err = run_cli(capsys, [command, "--scenario", str(report), *base])
    assert (code, out) == (2, "")
    assert f"{command} --scenario does not read {', '.join(own)}" in err
    # The common flags still override the file.
    doc = run_json(capsys, [command, "--scenario", str(report), "--seed", "5", "--n-max", "9"])
    assert (doc["scenario"]["seed"], doc["scenario"]["horizons"]["n_max"]) == (5, 9)


# --- scenario files, validation and overrides ---


def test_scenario_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["folner", "--scenario", str(path)])
    assert code == 2
    assert "invalid JSON" in err


def test_scenario_unknown_field(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"schema": 1, "command": "folner",
                                "params": {"rank": 1, "side": 1, "x": [1]},
                                "bogus": True}))
    code, _, err = run_cli(capsys, ["folner", "--scenario", str(path)])
    assert code == 2
    assert "unknown field" in err and "bogus" in err


def test_scenario_schema_version_check(tmp_path, capsys):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"schema": 2, "command": "folner",
                                "params": {"rank": 1, "side": 1, "x": [1]}}))
    code, _, err = run_cli(capsys, ["folner", "--scenario", str(path)])
    assert code == 2
    assert "unsupported schema" in err


def test_scenario_command_mismatch(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": 1, "command": "tensor",
                                "params": {"factors": [{"name": "pauli"}]}}))
    code, _, err = run_cli(capsys, ["folner", "--scenario", str(path)])
    assert code == 2
    assert "does not match" in err


def test_flag_overrides_land_in_resolved_scenario(capsys):
    doc = run_json(capsys, ["check-cocycle", "--name", "pauli",
                            "--seed", "7", "--tol", "1e-6"])
    assert doc["scenario"]["seed"] == 7
    assert doc["scenario"]["tolerances"]["tol"] == pytest.approx(1e-6)
    assert doc["result"]["tol"] == pytest.approx(1e-6)


@pytest.mark.parametrize("block,value,flag,message", [
    ("horizons", [1], ["--n-max", "3"], "horizons must be an object"),
    ("output", [1], ["--format", "csv"], "output must be an object"),
    ("tolerances", [1], ["--tol", "1e-6"], "tolerances must be an object"),
    ("tolerances", {"tol": 1e-9, "bogus": 1}, ["--tol", "1e-6"],
     "unknown field(s) ['bogus'] in tolerances"),
])
def test_an_override_leaves_a_malformed_block_to_the_validator(tmp_path, capsys, block, value,
                                                               flag, message):
    path = tmp_path / "bad-block.json"
    path.write_text(json.dumps({"schema": 1, "command": "folner", block: value,
                                "params": {"rank": 1, "side": 1, "x": [1]}}))
    code, out, err = run_cli(capsys, ["folner", "--scenario", str(path), *flag])
    assert (code, out) == (2, "")
    assert f"schema violation: {message}" in err


def test_output_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["folner", "--rank", "1", "--side", "2",
                                    "--x", "1", "--output", str(out_path)])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["cardinality"] == 3


def test_report_file_replays_to_identical_bytes(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code, _, _ = run_cli(capsys, ["check-cocycle", "--name", "pauli",
                                  "--output", str(first)])
    assert code == 0
    code, _, _ = run_cli(capsys, ["check-cocycle", "--scenario", str(first),
                                  "--output", str(second)])
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_explicit_model_shorter_than_values_leaves_bounds_empty(tmp_path, capsys):
    doc = {"schema": 1, "command": "converge",
           "params": {"kind": "inner", "values": [1, 1, 1, 1, 1],
                      "model": {"family": "explicit", "values": [0.5, 0.5]}}}
    path = tmp_path / "inner.json"
    path.write_text(json.dumps(doc))
    report = run_json(capsys, ["converge", "--scenario", str(path)])
    assert report["result"]["series"]["verdict"] == "Inconclusive"
    code, out, err = run_cli(capsys, ["converge", "--scenario", str(path),
                                      "--format", "csv"])
    assert code == 0, err
    rows = out.splitlines()[2:]
    assert [r.rsplit(",", 1)[1] for r in rows] == ["0.5", "0.5", "", "", ""]


# --- CSV mode ---


def test_csv_output_shape(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--x", "1,0",
                                    "--matrix", "0,1;-1,0",
                                    "--sides", "power:c=1,p=2",
                                    "--n-max", "5", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# scenario=")
    assert lines[1] == "index,term,partial_sum,bound"
    assert len(lines) == 2 + 5
    for i, line in enumerate(lines[2:], 1):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert len(cells) == 4
        assert cells[3] != ""  # the twist series carries per-term bounds
    scenario = json.loads(lines[0][len("# scenario="):])
    assert scenario["output"] == {"format": "csv", "series": "twist"}


def test_csv_unknown_series(capsys):
    code, _, err = run_cli(capsys, ["converge", "--x", "1,0",
                                    "--matrix", "0,1;-1,0",
                                    "--sides", "power:c=1,p=2",
                                    "--format", "csv", "--series", "nope"])
    assert code == 2
    assert "unknown series" in err


def test_csv_needs_a_series_output(capsys):
    code, _, err = run_cli(capsys, ["obstruction", "--cocycle", "pauli",
                                    "--format", "csv"])
    assert code == 2
    assert "no series output" in err


# --- byte determinism through the real entry point ---


def run_module(args):
    src = str(Path(twistlab.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "twistlab", *args],
                          capture_output=True, env={"PYTHONPATH": src, "PATH": ""}, timeout=300)


@pytest.mark.parametrize("argv", [
    ["check-cocycle", "--name", "pauli"],
    ["select", "--count", "3", "--matrix", "0,1;-1,0",
     "--sides", "power:c=1,p=1"],
    ["converge", "--x", "1,0", "--matrix", "0,1;-1,0",
     "--sides", "power:c=1,p=2", "--n-max", "10", "--format", "csv"],
])
def test_reports_are_byte_identical_across_runs(argv):
    first = run_module(argv)
    second = run_module(argv)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip() != b""


def test_an_infinite_side_exponent_returns_at_once():
    # The weighted envelope c * i^inf * r^i has no tail; its head walk used
    # to run forever.
    done = run_module(["prop42", "--m", "power:c=1,p=inf", "--a", "geometric:c=1,r=0.5",
                       "--n-max", "10"])
    assert done.returncode in (0, 2) and b"Traceback" not in done.stderr
    doc = json.loads(done.stdout)
    assert doc["result"]["clauses"][3]["series"]["verdict"] == "Inconclusive"


# --- non-finite cocycle and bilinear scalars --------------------------------

NAN_PROBES = [
    ("tensor", {"factors": [{"regular": {"group": "Z2xZ2", "cocycle": {"perturb": {
        "base": {"trivial": "Z2xZ2"}, "epsilon": "nan"}}}}]},
     "params.factors[0].regular.cocycle.perturb.epsilon", "relation_residual"),
    ("check-cocycle", {"cocycle": {"perturb": {"base": {"trivial": "Z4xZ4"},
                                               "epsilon": "nan"}}},
     "params.cocycle.perturb.epsilon", "cocycle_residual"),
    ("ccr", {"sigma": {"matrix": "nan,0;0,0.1"}, "window": {"side": 3}},
     "params.sigma.matrix[0][0]", "relation_residual"),
]


@pytest.mark.parametrize("command,params,field,residual", NAN_PROBES,
                         ids=[p[0] for p in NAN_PROBES])
def test_a_nan_cocycle_scalar_exits_2_naming_the_field(command, params, field, residual):
    doc = {"schema": 1, "command": command, "params": params}
    with pytest.raises(CliError) as info:
        run_scenario(doc, command)
    assert info.value.code == 2
    assert info.value.message == f"schema violation: {field} must be finite, got 'nan'"


@pytest.mark.parametrize("command,params,field,residual", NAN_PROBES,
                         ids=[p[0] for p in NAN_PROBES])
def test_a_nan_cocycle_never_passes_its_residual_checks(monkeypatch, command, params, field,
                                                        residual):
    # With the refusal lifted, every residual fold keeps the NaN: these three
    # runs printed "pass": true with residual 0, since max(worst, nan) is worst.
    monkeypatch.setattr(cli, "parse_finite", parse_scalar)
    result = json.loads(run_scenario({"schema": 1, "command": command, "params": params},
                                     command))["result"]
    assert result["pass"] is False
    assert result[residual] == "nan"
    if command == "ccr":
        assert result["bilinearity_residual"] == "nan"


def test_a_nan_matrix_cocycle_fails_its_normalization(monkeypatch):
    monkeypatch.setattr(cli, "parse_finite", parse_scalar)
    doc = {"schema": 1, "command": "check-cocycle", "params": {"cocycle": {"matrix": "nan"}}}
    result = json.loads(run_scenario(doc, "check-cocycle"))["result"]
    assert result["normalization_residual"] == "nan" and result["pass"] is False


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_phases_and_epsilons_are_refused(value):
    for descriptor, field in [({"matrix": f"0,{value};0,0"}, "ctx.matrix[0][1]"),
                              ({"bilinear": [[value]]}, "ctx.bilinear[0][0]"),
                              ({"coboundary": {"epsilon": value, "group": "Z3"}},
                               "ctx.coboundary.epsilon")]:
        with pytest.raises(CliError, match=re.escape(f"{field} must be finite")):
            parse_cocycle(descriptor, "ctx")
    with pytest.raises(CliError, match=re.escape("ctx.table.phases[1][1] must be finite")):
        cli.parse_bilinear({"table": {"a_moduli": [2], "b_moduli": [2],
                                      "phases": [[0, 0], [0, value]]}}, "ctx")
    # model scalars stay open: an infinite exponent is a model of its own
    assert str(parse_model(f"power:c=1,p={value}", "ctx").exponent) == value
