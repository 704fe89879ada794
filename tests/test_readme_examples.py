"""Every ``twistlab`` command in README's sh blocks runs and prints what README says."""

import json
import re
import shlex
from pathlib import Path

import pytest

from twistlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twistlab ")]


COMMANDS = _readme_commands()


def test_readme_lists_every_example():
    assert len(COMMANDS) == 13
    assert sorted({argv[0] for argv in COMMANDS}) == sorted([
        "action", "ccr", "check-cocycle", "converge", "dirichlet", "fell",
        "folner", "obstruction", "prop42", "select", "tensor"])


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_readme_example_runs_as_documented(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    if "--value-only" in argv:
        assert out.strip() == "0.33333333333333337"
        return
    result = json.loads(out)["result"]
    if argv[0] == "folner":
        assert (result["cardinality"], result["overlap"], result["defect"],
                result["l1_mass"]) == (16, 12, 0.25, 48)
    elif argv[0] == "select":
        assert result["indices"] == [1, 5, 8]
    elif argv[0] == "tensor":
        assert (result["dimension"], result["relation_residual"]) == (4, 0)
    elif argv[0] == "obstruction":
        assert result["status"] == "Obstructed"
        assert result["witness"] == [[1, 0], [0, 1]]
