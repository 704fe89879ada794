"""Every library module parses under the oldest Python that pyproject.toml admits,
the certificate modules add floats the same way on every Python, no module
raises floats to powers through numpy's own SIMD kernel, none
exponentiates phases one comprehension entry at a time, and none multiplies
by a matrix one point at a time."""

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


@pytest.mark.parametrize("name", ["series.py", "convergence.py"])
def test_certificate_modules_never_call_builtin_sum(name):
    # From 3.12 on builtin sum compensates float additions, so its bits depend
    # on the interpreter; these modules add left to right or call math.fsum.
    path = ROOT / "src" / "twistlab" / name
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == [], f"{name} calls builtin sum on lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_never_calls_numpy_power(path):
    # np.power runs numpy's own SIMD kernel on CPUs with AVX-512 (SVML), whose
    # last bits differ from libm's pow on a few percent of float64 inputs;
    # np.float_power calls libm's pow, as Python's float ** does, so reports
    # keep the bits of the per-index Python powers they were recorded with.
    uses = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "power"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert uses == [], f"{path.name} uses np.power on lines {uses}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_never_exponentiates_in_a_comprehension(path):
    # One cmath.exp call per entry is the per-entry Python loop that
    # cocycles._unit_phases replaces, with the same bits, by one array pass.
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = sorted({node.lineno for comp in ast.walk(ast.parse(path.read_text()))
                    if isinstance(comp, comprehensions) for node in ast.walk(comp)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "cmath"})
    assert calls == [], f"{path.name} calls cmath.exp in a comprehension on lines {calls}"


# Comprehensions and loops: the per-point Python that array passes replace.
LOOPS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.For, ast.While)
# The relation check's dense reference form multiplies two n x n matrices per
# pair; it is no gemv per point, and zgemm's rounding of it is what the
# monomial path reproduces.
DENSE_PRODUCT_LOOPS = {("reps.py", "_dense_relation_residual")}


def _per_point_products(path):
    """Lines of ``@`` (or ``@=``) and ``image(`` or ``.image(`` calls inside a
    comprehension or loop, outside the functions DENSE_PRODUCT_LOOPS names."""
    tree = ast.parse(path.read_text())
    allowed = [range(fn.lineno, fn.end_lineno + 1) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in DENSE_PRODUCT_LOOPS]
    return sorted({node.lineno for loop in ast.walk(tree) if isinstance(loop, LOOPS)
                   for node in ast.walk(loop)
                   if (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.MatMult))
                   or (isinstance(node, ast.Call) and "image" in (
                       getattr(node.func, "attr", None), getattr(node.func, "id", None)))}
                  - {line for lines in allowed for line in lines})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_runs_no_gemv_per_point_in_a_comprehension_or_loop(path):
    # One matrix @ vector, or one image() call, per point is the per-point
    # Python loop that cocycles._gemv_rows replaces, with the same bits, by
    # one np.matmul over the stacked points.
    lines = _per_point_products(path)
    assert lines == [], f"{path.name} multiplies by a matrix per point on lines {lines}"


def test_the_gemv_guard_sees_per_point_products(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def f(m, pts, sigma):\n"
                      "    a = [m @ p for p in pts]\n"
                      "    for p in pts:\n"
                      "        sigma.image(p)\n"
                      "    b = [image(p) for p in pts]\n"
                      "    while pts:\n"
                      "        m @= pts.pop()\n"
                      "    return m @ pts[0]\n")
    assert _per_point_products(source) == [2, 4, 5, 7]


def _object_array_builders(path):
    """Names of the functions that pass ``dtype=object`` to any call."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [fn.name for node in ast.walk(fn) if isinstance(node, ast.keyword)
                      and node.arg == "dtype" and isinstance(node.value, ast.Name)
                      and node.value.id == "object"]
    return sorted(found)


def test_convergence_builds_object_arrays_only_for_exact_ints():
    # Box defects run in float64 and double-double; only the cells their
    # error bound leaves undecided reach Python ints, through _python_ints.
    # _windows keeps a caller's window schedule as the exact Python ints the
    # Dirichlet report holds.  The CLI reads windows from a model, as floats.
    path = ROOT / "src" / "twistlab" / "convergence.py"
    assert _object_array_builders(path) == ["_python_ints", "_windows"]
