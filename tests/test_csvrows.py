"""The CSV row kernel against Python's own float formatting.

``csvrows.rows_text`` computes the ``.17g`` text of every finite cell with
numpy.  These tests compare it with ``format(v, ".17g")`` (``float_repr``)
cell by cell over every power of two, every power of ten with its float
neighbours and a million random bit patterns, and whole renderings with
the ``str.format`` row loop that ``render_csv`` ran before, kept below as
the oracle.  Blocks mix live columns with columns empty on every row (bare
commas) or on some rows, and one scratch buffer serves blocks of every
layout.  They also pin which cells go to the per-cell fallback and that
the kernel's tables are built on the first CSV render, not on import.
"""

import copy
import importlib.util
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import cli, csvrows
from twistlab.csvrows import float_repr, rows_text
from twistlab.series import running_sums

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TIES = [2.98023223876953125e-08, 660824967240747.375]


# --- oracle: the row loop render_csv ran before the kernel -----------------


def oracle_csv_column(values, missing):
    if missing.all():
        return "", None
    if missing.any():
        return "{}", ["" if gap else float_repr(v)
                      for v, gap in zip(values.tolist(), missing.tolist())]
    if np.isfinite(values).all():
        return "{:.17g}", values.tolist()
    return "{}", map(float_repr, values.tolist())


def oracle_render_csv(scenario, terms, bounds):
    terms = np.asarray(terms, dtype=float)
    n = terms.size
    sums = running_sums(terms)
    given = np.array(() if bounds is None else bounds[:n], dtype=object)
    gaps = np.ones(n, dtype=bool)
    gaps[:given.size] = np.equal(given, None)
    limits = np.zeros(n)
    limits[:given.size] = np.where(gaps[:given.size], 0.0, given)
    parts = ["# scenario=" + cli.render_json(scenario), "index,term,partial_sum,bound"]
    never = np.zeros(4096, dtype=bool)
    for start in range(0, n, 4096):
        block = slice(start, min(start + 4096, n))
        size = block.stop - start
        columns = [oracle_csv_column(terms[block], never[:size]),
                   oracle_csv_column(sums[block], never[:size]),
                   oracle_csv_column(limits[block], gaps[block])]
        row = ",".join(["{}"] + [spec for spec, _ in columns])
        cells = [c for _, c in columns if c is not None]
        parts.append("\n".join(map(row.format, range(start + 1, block.stop + 1), *cells)))
    return "\n".join(parts) + "\n"


def cell_texts(values):
    """The kernel's text of each value, one cell per row, in 4096-row blocks."""
    values = np.asarray(values, dtype=float)
    out = []
    for start in range(0, values.size, 4096):
        column = values[start:start + 4096, None]
        rows = rows_text(start + 1, column, np.zeros(column.shape, dtype=bool))
        out += [line.split(",", 1)[1] for line in rows.split("\n")[1:]]
    return out


def assert_cells_match(values):
    values = np.asarray(values, dtype=float)
    got = cell_texts(values)
    want = [float_repr(v) for v in values.tolist()]
    wrong = [(v.hex(), g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert wrong == [], wrong[:5]


# --- cells ------------------------------------------------------------------


def test_every_power_of_two_prints_as_format():
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    assert len(powers) == 2098
    assert_cells_match(powers + [-p for p in powers])


def test_every_power_of_ten_and_its_neighbours_print_as_format():
    values = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    assert_cells_match(values + [-v for v in values])


def test_a_million_random_bit_patterns_print_as_format():
    bits = np.random.default_rng(20240611).integers(0, 1 << 64, size=1_000_000,
                                                     dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.signbit(values).any() and not np.signbit(values).all()
    assert_cells_match(values)


def test_edge_cells_print_as_format():
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.999999999999999e-05,
             1e16, 1e17, 9.999999999999998e16, 1e-100, 1e100, 1e99, 1e-99, 1e-14, 1e98,
             0.1, 1.0, 10.0, 123.456, 12345678901234567890.0, *TIES]
    assert_cells_match(edges)


def test_the_digit_product_is_within_its_error_bound():
    rng = np.random.default_rng(7)
    values = np.abs(rng.integers(0, 1 << 64, size=20000, dtype=np.uint64).view(np.float64))
    values = values[np.isfinite(values) & (values > 0)]
    values = np.concatenate([values, [5e-324, 1.7976931348623157e308, 2.0 ** -25, 1.0]])
    m, e = np.frexp(values)
    q, k, _ = csvrows._significands(values)
    nearest, r, _, _ = csvrows._round(m, e, k)
    whole = nearest - np.rint(r).astype(np.int64)
    for x, kk, pp, rr in zip(values.tolist(), k.tolist(), whole.tolist(), r.tolist()):
        v = Fraction(x) * Fraction(10) ** (16 - kk)
        assert 10 ** 16 - 1 <= v < 10 ** 17 + 1
        assert abs(v - pp - Fraction(rr)) <= Fraction(1, 2 ** 46), (x, kk)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.none() | st.floats()),
                min_size=1, max_size=40), st.integers(1, 10 ** 7))
def test_rows_match_the_cell_loop(rows, first):
    cells = np.array([[a, b, 0.0 if c is None else c] for a, b, c in rows])
    missing = np.zeros(cells.shape, dtype=bool)
    missing[:, 2] = [c is None for _, _, c in rows]
    want = "".join(f"\n{first + i},{float_repr(a)},{float_repr(b)},"
                   + ("" if c is None else float_repr(c))
                   for i, (a, b, c) in enumerate(rows))
    assert rows_text(first, cells, missing) == want


def cell_loop(first, cells, missing):
    """The rows as the per-cell loop prints them: empty text for a missing cell."""
    return "".join(f"\n{first + i}" + "".join("," + ("" if gap else float_repr(v))
                                               for v, gap in zip(row, gaps))
                   for i, (row, gaps) in enumerate(zip(cells.tolist(), missing.tolist())))


EDGE_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
              math.nan, *TIES, -TIES[1], 1e16, 9.999999999999999e-05, 1e-100, 1e100, 0.5]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(0, 4), st.integers(1, 10 ** 9),
       st.lists(st.sampled_from(["live", "empty", "some"]), min_size=4, max_size=4),
       st.randoms(use_true_random=False))
def test_empty_columns_anywhere_in_a_row_match_the_cell_loop(n, width, first, kinds, rnd):
    # Columns empty on every row (bare commas), on some rows, or on none, in
    # any position, with edge and undecided cells beside them.
    cells = np.array([[rnd.choice(EDGE_CELLS) if rnd.random() < 0.5 else rnd.uniform(-1e6, 1e6)
                       for _ in range(width)] for _ in range(n)]).reshape(n, width)
    missing = np.zeros((n, width), dtype=bool)
    for j, kind in enumerate(kinds[:width]):
        if kind == "empty":
            missing[:, j] = True
        elif kind == "some":
            missing[:, j] = [rnd.random() < 0.5 for _ in range(n)]
    text = rows_text(first, cells, missing)
    assert text == cell_loop(first, cells, missing)
    assert "\0" not in text


def test_one_scratch_buffer_serves_blocks_of_every_layout():
    # The buffer keeps stale words from the block before: a block with fewer
    # live columns, fewer rows or shorter indices must not show them.
    rng = np.random.default_rng(3)
    words = csvrows.scratch(64, 10 ** 6, 3)
    blocks = [(999_950, 50, [False, False, False]), (9_990, 20, [False, True, False]),
              (1, 64, [True, False, True]), (5, 3, [True, True, True]),
              (99_999, 2, [False, False, True]), (7, 64, [False, False, False])]
    for first, n, empty in blocks:
        cells = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-30, 30, (n, 3))
        cells[::5, 0] = TIES[0]
        missing = np.zeros((n, 3), dtype=bool)
        missing[:, empty] = True
        missing[::3, 1] = True
        text = rows_text(first, cells, missing, words)
        assert text == rows_text(first, cells, missing) == cell_loop(first, cells, missing)
        assert "\0" not in text


def test_row_indices_across_decades_in_one_block():
    for first in (1, 9, 95, 9_990, 99_999_990, 999_999_999_990):
        cells = np.full((20, 1), 0.25)
        text = rows_text(first, cells, np.zeros((20, 1), dtype=bool))
        assert text == "".join(f"\n{i},0.25" for i in range(first, first + 20))


# --- whole renderings against the str.format loop ---------------------------


@pytest.mark.parametrize("block", [1, 7, cli._CSV_BLOCK])
def test_render_csv_is_the_same_text_for_every_block_size(monkeypatch, block):
    # A bound prefix that ends inside a block, None bounds, and edge cells:
    # the bound column is live, partly empty and then empty on every row.
    terms = np.array(EDGE_CELLS * 3)
    bounds = [None if i % 4 == 1 else v for i, v in enumerate(terms[:23].tolist())]
    monkeypatch.setattr(cli, "_CSV_BLOCK", block)
    for given_bounds in (bounds, None, [], terms[:23], terms[:23].tolist()):
        text = cli.render_csv({"b": 1}, terms, given_bounds)
        assert text == oracle_render_csv({"b": 1}, terms, given_bounds)
        assert "\0" not in text


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_render_csv_matches_the_format_loop_across_block_edges(n):
    rng = np.random.default_rng(n)
    terms = rng.random(n) * 10.0 ** rng.integers(-30, 30, n)
    terms[::97] = 0.0
    terms[1::101] = -0.0
    terms[2::499] = math.nan
    bounds = [None if i % 7 == 0 else float(v) for i, v in enumerate(terms[: n - n // 3] * 2)]
    if n > 3:
        bounds[3] = math.inf
    text = cli.render_csv({"n": n}, terms, bounds)
    assert text == oracle_render_csv({"n": n}, terms, bounds)
    assert text.count("\n") == n + 2
    dense = terms[: n - n // 3] * 2  # float bounds with NaN (index 2) and inf (index 3)
    dense[3:4] = math.inf
    want = oracle_render_csv({"n": n}, terms, dense.tolist())
    assert cli.render_csv({"n": n}, terms, dense) == want
    assert cli.render_csv({"n": n}, terms, tuple(dense.tolist())) == want


# --- the per-cell fallback ----------------------------------------------------


@pytest.fixture
def spliced(monkeypatch):
    """Every value handed to the per-cell fallback."""
    seen = []
    inner = csvrows._splice

    def counting(row, slots, where, values):
        seen.extend(values.tolist())
        inner(row, slots, where, values)

    monkeypatch.setattr(csvrows, "_splice", counting)
    return seen


def test_ties_and_non_finite_cells_take_the_fallback(spliced):
    cells = np.array([[TIES[0], TIES[1], math.inf], [math.nan, 0.5, 1e300]])
    missing = np.array([[False, False, False], [False, False, True]])
    text = rows_text(1, cells, missing)
    assert text == "\n1,2.9802322387695312e-08,660824967240747.38,inf\n2,nan,0.5,"
    # Column by column: the first column's tie and NaN, then the second's tie.
    assert spliced[0] == TIES[0] and math.isnan(spliced[1]) and spliced[2] == TIES[1]
    assert spliced[3] == math.inf and len(spliced) == 4


def _load_scenarios():
    spec = importlib.util.spec_from_file_location("perfbench_scenarios_csv",
                                                  PERFBENCH / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_certify_long_seed0_tables_never_take_the_fallback(spliced):
    stream = _load_scenarios().generate("certify-long", 0)
    tables = [s for s in stream if s.doc.get("output", {}).get("format") == "csv"]
    assert len(tables) == 6
    rows = 0
    for scenario in tables:
        text = cli.run_scenario(copy.deepcopy(scenario.doc), scenario.command)
        rows += text.count("\n") - 2
    assert rows == sum(s.rows for s in tables)
    assert spliced == []


# --- set-up cost --------------------------------------------------------------


def test_import_builds_no_table_and_the_first_render_builds_it_once():
    code = (
        "import sys\n"
        "import twistlab.cli as cli\n"
        "from twistlab import csvrows\n"
        "assert 'fractions' not in sys.modules and 'decimal' not in sys.modules\n"
        "assert csvrows._tables.cache_info().misses == 0\n"
        "cli.render_csv({}, [0.5, 0.25], [1.0, None])\n"
        "cli.render_csv({}, [0.125], None)\n"
        "info = csvrows._tables.cache_info()\n"
        "assert (info.misses, info.currsize) == (1, 1), info\n"
    )
    src = str(Path(csvrows.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": ""}, timeout=60)
    assert done.returncode == 0, done.stderr

