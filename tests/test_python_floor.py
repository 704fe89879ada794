"""Every library module parses under the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# tomllib needs 3.11, which is newer than the floor, so read the one field by pattern
FLOOR = tuple(map(int, re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))
MODULES = sorted((ROOT / "src" / "twistlab").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_the_floor_parser_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)
