"""Command line surface: scenarios, reports, determinism and exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
from twistlab.groups import FiniteAbelianGroup, IntegerLattice
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
    return subprocess.run([sys.executable, "-m", "twistlab", *args],
                          capture_output=True, timeout=300)


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
