"""The array kernels of the certificate path against the loops they replaced.

Each oracle below is the per-index Python loop that computed the same
quantity before the certificate path became columnar.  The properties
compare bit patterns (``float.hex``, so the sign of a zero counts) and
witness strings, over inputs that include signed zeros, infinities, NaNs,
subnormals, sums that overflow, block boundaries, explicit prefixes and
integer sides past 2^53.
"""

import copy
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench_support import load_scenarios
from twistlab import cli, convergence, series
from twistlab.convergence import (
    _box_defects,
    box_defect,
    lattice_tensor_criteria,
)
from twistlab.groups import FolnerBox
from twistlab.reps import spectral_multiset_distance
from twistlab.series import (
    MAJORANT,
    MINORANT,
    EXACT,
    ExplicitModel,
    GeometricModel,
    PowerModel,
    _nonnegative,
    model_values,
    neumaier_sum,
    prefix_mismatch,
    running_sums,
)

# --- oracles: the loops the array code replaced ---------------------------


def oracle_running_sums(values):
    out = []
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if math.isinf(t):
            out.append(t)
            total = t
            comp = 0.0
            continue
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return out


def oracle_nonnegative(terms):
    terms = [float(t) for t in terms]
    for i, t in enumerate(terms, start=1):
        if t < -1e-12:
            raise ValueError(f"term {i} is negative: {t}")
    return [max(t, 0.0) for t in terms]


def oracle_prefix_mismatch(realized, declared, relation, above, below=None, width=0.0):
    for i, (a, v) in enumerate(zip(realized, declared), start=1):
        slack = 1e-9 + 1e-9 * abs(v)
        if below is not None and relation != MAJORANT and a < v - slack:
            return below.format(i=i, a=a, v=v)
        if relation != MINORANT and a > v + width + slack:
            return above.format(i=i, a=a, v=v)
    return None


def oracle_box_defect_terms(sides, x):
    return [box_defect(FolnerBox(len(x), int(m)), x) for m in sides]


def oracle_spectral_distance(a, b):
    rem = list(b)
    worst = 0.0
    for z in a:
        k = min(range(len(rem)), key=lambda i: abs(rem[i] - z))
        worst = max(worst, abs(rem[k] - z))
        rem.pop(k)
    return float(worst)


def oracle_render_csv(scenario, terms, bounds):
    lines = ["# scenario=" + cli.render_json(scenario), "index,term,partial_sum,bound"]
    sums = oracle_running_sums([float(t) for t in terms])
    for i, (t, s) in enumerate(zip(terms, sums), 1):
        b = bounds[i - 1] if bounds is not None and i - 1 < len(bounds) else None
        tail = "" if b is None else cli._float_repr(float(b))
        lines.append(f"{i},{cli._float_repr(float(t))},{cli._float_repr(float(s))},{tail}")
    return "\n".join(lines) + "\n"


def bits(values):
    return [float.hex(float(v)) for v in values]


# --- strategies -------------------------------------------------------------

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 1.0, -1.0]

floats = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=True, allow_infinity=True),
                   st.floats(-1e3, 1e3))
finite_nonneg = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308, 1e-13]),
                          st.floats(0.0, 1e6), st.floats(-2e-12, 0.0))


@contextmanager
def with_block(size):
    """Run running_sums with a small block, so short inputs cross boundaries."""
    saved = series._SUM_BLOCK
    series._SUM_BLOCK = size
    try:
        yield
    finally:
        series._SUM_BLOCK = saved


# --- compensated sums -------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.lists(floats, max_size=40), st.integers(1, 7))
def test_running_sums_match_the_loop_bit_for_bit(values, block):
    expected = bits(oracle_running_sums(values))
    with with_block(block):
        assert bits(running_sums(values)) == expected
    assert bits(running_sums(values)) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_nonneg, max_size=30), st.integers(1, 5))
def test_neumaier_sum_matches_the_loop(values, block):
    sums = oracle_running_sums(values)
    with with_block(block):
        assert float.hex(neumaier_sum(values)) == float.hex(sums[-1] if sums else 0.0)
    assert type(neumaier_sum(values)) is float


def test_running_sums_across_a_full_block_boundary():
    rng = np.random.default_rng(5)
    n = 2 * (1 << 15) + 7
    values = (rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)).tolist()
    values[1 << 15] = -0.0
    assert bits(running_sums(values)) == bits(oracle_running_sums(values))


@pytest.mark.parametrize("values", [
    [-0.0], [-0.0, -0.0], [1e308, 1e308, -5.0], [1e308, 1e308, -math.inf, 1.0],
    [math.nan, math.inf, 1.0], [math.inf, -math.inf], [5e-324, -5e-324, 5e-324],
    [1e16, 1.0, -1e16],
])
def test_running_sums_edge_rows(values):
    for block in (1, 2, 1 << 15):
        with with_block(block):
            assert bits(running_sums(values)) == bits(oracle_running_sums(values))


def raw_bits(value):
    """The 64 bits of a float, so the sign and payload of a NaN count too."""
    return int(np.float64(value).view(np.uint64))


BLOCK = 1 << 15


@pytest.mark.parametrize("values", [
    [], [-0.0], [-0.0, -0.0], [0.0, -0.0], [math.inf], [-math.inf], [math.inf, -math.inf],
    [math.nan], [1.0, math.nan, 2.0], [-math.nan, 1.0], [1e308, 1e308, -5.0],
    [1e308, 1e308, -math.inf, 1.0], [1.0, 1e308, 1e308, 3.0, -1e308], [5e-324, -5e-324],
], ids=repr)
def test_neumaier_sum_is_the_last_running_sum_bit_for_bit(values):
    want = raw_bits(running_sums(values)[-1]) if values else raw_bits(0.0)
    assert raw_bits(neumaier_sum(values)) == want
    assert type(neumaier_sum(values)) is float
    for block in (1, 2, 3):
        with with_block(block):
            assert raw_bits(neumaier_sum(values)) == want


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("spoil", [None, "overflow", "nan", "-inf", "-0.0"])
def test_neumaier_sum_at_block_lengths(n, spoil):
    """Across the block edges, with an overflow, a NaN or an infinity partway
    (at the last index of the first block, or past it)."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    at = min(n - 1, BLOCK - 1)
    if spoil == "overflow":
        values[at - 1:at + 1] = 1.5e308
    elif spoil == "-0.0":
        values[:] = -0.0
    elif spoil is not None:
        values[at] = float(spoil)
    want = running_sums(values)[-1]
    assert raw_bits(neumaier_sum(values)) == raw_bits(want)
    assert float.hex(float(want)) == float.hex(oracle_running_sums(values.tolist())[-1])


# --- term checks and prefix checks ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(finite_nonneg, st.sampled_from([math.nan, math.inf, -1.0])),
                max_size=20))
def test_nonnegative_matches_the_loop(terms):
    try:
        expected = bits(oracle_nonnegative(terms))
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _nonnegative(terms)
        assert str(info.value) == str(exc)
        return
    assert bits(_nonnegative(terms)) == expected


RELATIONS = st.sampled_from([EXACT, MAJORANT, MINORANT])
ABOVE, BELOW = "a[{i}] = {a} > {v}", "a[{i}] = {a} < {v}"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(floats, floats), max_size=15), RELATIONS,
       st.sampled_from([0.0, 1.0]), st.booleans(), st.integers(0, 3))
def test_prefix_mismatch_matches_the_loop(pairs, relation, width, has_below, extra):
    realized = [a for a, _ in pairs]
    declared = [v for _, v in pairs] + [1.0] * extra  # an explicit prefix may be longer
    below = BELOW if has_below else None
    expected = oracle_prefix_mismatch(realized, declared, relation, ABOVE, below, width)
    assert prefix_mismatch(realized, declared, relation, ABOVE, below, width) == expected
    arrays = prefix_mismatch(np.array(realized), np.array(declared), relation,
                             ABOVE, below, width)
    assert arrays == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2 ** 70), st.floats(0.0, 2e21)), max_size=12),
       RELATIONS)
def test_integer_sides_print_as_integers(pairs, relation):
    # realized sides are ceil values, so they are exact floats
    sides = [int(float(m)) for m, _ in pairs]
    values = [v for _, v in pairs]
    expected = oracle_prefix_mismatch(sides, values, relation, ABOVE, BELOW, 1.0)
    got = prefix_mismatch(np.array(sides, dtype=float), values, relation, ABOVE, BELOW,
                          1.0, integral=True)
    assert got == expected


# --- declared values --------------------------------------------------------

coeffs = st.one_of(st.sampled_from([0.0, 1.0, 1e300, 1e308, 5e-324, math.inf, math.nan]),
                   st.floats(0.0, 1e3))


@settings(max_examples=200, deadline=None)
@given(coeffs, st.one_of(st.floats(-400, 400), st.sampled_from([0.0, -1.0, 2.0, 400.0])),
       st.integers(0, 60))
def test_power_model_values_are_pythons_powers(c, q, n):
    model = PowerModel(c, q)
    assert bits(model_values(model, n)) == bits([model.value(i) for i in range(1, n + 1)])


@settings(max_examples=200, deadline=None)
@given(coeffs, st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, 1.0, 10.0, 1e300])),
       st.integers(0, 60))
def test_geometric_model_values_are_pythons_powers(c, r, n):
    model = GeometricModel(c, r)
    assert bits(model_values(model, n)) == bits([model.value(i) for i in range(1, n + 1)])


def test_overflowing_model_values_become_infinite():
    assert model_values(GeometricModel(1.0, 1e300), 3).tolist() == [1e300, math.inf, math.inf]
    assert model_values(ExplicitModel((-0.0, 0.5)), 5).tolist() == [-0.0, 0.5]


# --- box defects ------------------------------------------------------------

sides_st = st.one_of(st.integers(0, 40), st.integers(0, 2 ** 26), st.integers(0, 2 ** 80),
                     st.sampled_from([2 ** 53 - 2, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 2]))
x_st = st.lists(st.one_of(st.integers(-5, 5), st.integers(-2 ** 60, 2 ** 60)),
                min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(sides_st, max_size=12), x_st)
def test_box_defects_match_folner_boxes(sides, x):
    sides = [int(float(m)) for m in sides]  # sides are exact floats
    expected = bits(oracle_box_defect_terms(sides, x))
    assert bits(_box_defects(np.array(sides, dtype=float), tuple(x))) == expected
    assert bits(convergence.box_defect_terms(sides, tuple(x))) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(sides_st, max_size=12), x_st, st.lists(st.integers(0, 4), max_size=4))
def test_box_defects_ignore_zero_coordinates(sides, x, where):
    sides = np.array([int(float(m)) for m in sides], dtype=float)
    padded = list(x)
    for k in where:
        padded.insert(k % (len(padded) + 1), 0)
    assert bits(_box_defects(sides, tuple(padded))) == bits(_box_defects(sides, tuple(x)))


@settings(max_examples=300, deadline=None)
@given(st.lists(sides_st, max_size=12),
       st.one_of(st.integers(0, 20), st.integers(0, 2 ** 60)))
def test_side_ratios_round_as_int_division(sides, num):
    """The translation bounds min(1, n / (m + 1)) are rank-one box defects."""
    sides = [int(float(m)) for m in sides]
    expected = bits([min(1.0, num / (m + 1)) for m in sides])
    assert bits(_box_defects(np.array(sides, dtype=float), (num,))) == expected


@contextmanager
def refusing_python_ints():
    def refuse(values):
        raise AssertionError("took the Python-int path")
    saved = convergence._python_ints
    convergence._python_ints = refuse
    try:
        yield
    finally:
        convergence._python_ints = saved


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 26), st.integers(0, 2 ** 53 - 2)),
                min_size=1, max_size=12),
       st.one_of(st.integers(-5, 5), st.integers(-2 ** 60, 2 ** 60)).filter(bool),
       st.integers(1, 4), st.integers(0, 3))
def test_one_nonzero_coordinate_stays_in_float64(sides, a, rank, at):
    """Sides below 2^53 - 1 with one nonzero |x_j| never reach Python ints,
    in the defects, their bounds or the escape check's floor."""
    x = [0] * rank
    x[at % rank] = a
    expected = bits([min(1.0, abs(a) / (m + 1)) for m in sides])
    with refusing_python_ints():
        assert bits(_box_defects(np.array(sides, dtype=float), tuple(x))) == expected
        terms, _ = convergence.translation_series(sides, None, tuple(x))
    assert bits(terms) == expected


def test_box_defects_refuse_what_folner_boxes_refuse():
    with pytest.raises(ValueError, match="side must be nonnegative"):
        _box_defects(np.array([3.0, -1.0]), (1, 0))
    with pytest.raises(ValueError, match="rank must be at least 1"):
        _box_defects(np.array([3.0]), ())
    assert _box_defects(np.array([]), ()).size == 0


@pytest.mark.parametrize("sides,x", [
    ("power:c=1,p=3", (3, -1)), ("power:c=3,p=2.5", (2, -1, 1)),
    ("power:c=1,p=400", (1, 1)), ("explicit:0,1,2,2.5,9007199254740993", (1, 4)),
])
def test_criteria_at_matches_the_per_index_formulas(sides, x):
    side_model = cli.parse_model(sides, "sides")
    crit = lattice_tensor_criteria(side_model, PowerModel(2.0, -3.0), n_max=300)
    at = crit.at(x)
    ceil = [v if math.isinf(v) else float(math.ceil(v))
            for v in model_values(side_model, crit.sides.size)]
    norms = model_values(PowerModel(2.0, -3.0), crit.sides.size)
    factor = 0.5 * len(x) * sum(abs(c) for c in x)
    assert bits(crit.sides) == bits(ceil)
    assert bits(crit.sigma_terms) == bits([1.0 / m if m >= 1 else math.inf for m in ceil])
    assert bits(crit.weighted_terms) == bits([0.0 if a == 0.0 else m * a
                                              for m, a in zip(ceil, norms)])
    assert bits(at.translation_terms) == bits(
        [0.0 if math.isinf(m) else box_defect(FolnerBox(len(x), int(m)), x) for m in ceil])
    assert bits(at.translation_bounds) == bits(
        [0.0 if math.isinf(m) else box_defect(FolnerBox(1, int(m)), (sum(map(abs, x)),)) for m in ceil])
    assert bits(at.twist_majorant) == bits(
        [0.0 if a == 0.0 else math.inf if math.isinf(m) else factor * m * a
         for m, a in zip(ceil, norms)])


def test_criteria_at_bounds_are_exact_past_2_53():
    """Past 2^53 the bound |x|_1 / (m + 1) is the exact ratio rounded once,
    so it never falls below a defect it must dominate."""
    sides = ExplicitModel(tuple(2 ** 53 + k for k in range(0, 200, 2)))
    crit = lattice_tensor_criteria(sides, PowerModel(1.0, -3.0), n_max=100)
    at = crit.at((1,))
    assert bits(at.translation_bounds) == bits(_box_defects(crit.sides, (1,)))
    assert (at.translation_terms <= at.translation_bounds).all()


def oracle_exact_defect(m, x):
    """(s^K - prod (s - a_j)^+) / s^K in Python ints, s = m + 1."""
    reach = [abs(c) for c in x if c]
    s = int(m) + 1
    overlap = 1
    for a in reach:
        overlap *= max(0, s - a)
    return (s ** len(reach) - overlap) / s ** len(reach)


@pytest.fixture
def exact_cells(monkeypatch):
    """The sides of every cell that took the Python-int fallback."""
    seen = []
    inner = convergence._python_ints

    def counting(values):
        seen.extend(values.tolist())
        return inner(values)

    monkeypatch.setattr(convergence, "_python_ints", counting)
    return seen


def odd_part(n):
    return n >> ((n & -n).bit_length() - 1)


def midpoint_cells():
    """Sides s - 1 = 2^p - 1 and coordinates whose defect N / 2^(pK) is
    exactly halfway between two floats: N's odd part has 54 significant bits."""
    cells = [(2.0 ** 40 - 1, (1, 2 ** 13 + 1)), (2.0 ** 53 - 1, (4, 3))]
    s = 2 ** 20
    for a in range(8191, 8500, 2):
        for b in (1, 3, 5):
            if odd_part(s ** 3 - (s - a) * (s - b) * (s - 1)).bit_length() == 54:
                cells.append((float(s - 1), (a, -b, 1)))
    return cells


MIDPOINTS = midpoint_cells()


def test_constructed_cells_sit_on_a_midpoint():
    assert len(MIDPOINTS) > 4
    for m, x in MIDPOINTS:
        s, k = int(m) + 1, sum(1 for c in x if c)
        n = s ** k - math.prod(s - abs(c) for c in x if c)
        assert odd_part(n).bit_length() == 54 and s & (s - 1) == 0
        assert float(s) ** k >= 2.0 ** 53


def test_midpoint_cells_take_the_python_int_fallback(exact_cells):
    for m, x in MIDPOINTS:
        before = len(exact_cells)
        assert float.hex(float(_box_defects(np.array([m]), x)[0])) == float.hex(
            oracle_exact_defect(m, x))
        assert len(exact_cells) == before + 1
    assert exact_cells == [m for m, _ in MIDPOINTS]


# Sides from 0 to 2^63 - 1 as floats, crowded near powers of two (where the
# defect's expansion in 1/s is nearly dyadic, so near midpoints), and
# coordinates up to 2^60 with zeros among them.
near_two = st.builds(lambda p, k: float(max(0, 2 ** p + k)),
                     st.integers(1, 63), st.integers(-6, 6))
dd_sides = st.one_of(st.integers(0, 2 ** 63 - 1).map(float), near_two,
                     st.sampled_from([0.0, 1.0, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 63 - 1]))
dd_x = st.lists(st.one_of(st.just(0), st.integers(-7, 7), st.integers(-2 ** 60, 2 ** 60)),
                min_size=1, max_size=5).filter(any)


@settings(max_examples=400, deadline=None)
@given(st.lists(dd_sides, min_size=1, max_size=16), dd_x)
def test_double_double_defects_match_python_ints(sides, x):
    """Every cell, decided in double-double or not, is Python's int / int."""
    sides = np.array(sides)
    want = [float.hex(oracle_exact_defect(m, x)) for m in sides.tolist()]
    assert [float.hex(float(d)) for d in _box_defects(sides, tuple(x))] == want


@settings(max_examples=400, deadline=None)
@given(st.lists(dd_sides, min_size=1, max_size=16), dd_x)
def test_double_double_kernel_keeps_its_error_bound(sides, x):
    """The kernel alone: hi + lo lies within err of the exact defect, and err
    is at most 2^-88 of it, far below half an ulp."""
    reach = [abs(c) for c in x if c]
    m = np.array([v for v in sides if v + 1 > max(reach)])
    if not m.size:
        return
    hi, lo, err = convergence._defects_dd(m, convergence._symmetric_coefficients(reach))
    for side, h, l, e in zip(m.tolist(), hi.tolist(), lo.tolist(), err.tolist()):
        s = int(side) + 1
        exact = 1 - Fraction(math.prod(s - a for a in reach), s ** len(reach))
        assert abs(Fraction(h) + Fraction(l) - exact) <= Fraction(e) <= exact / 2 ** 88


def test_double_double_edges():
    # s = 1 and 2, a coordinate at and past the side, zeros, s^K at 2^53
    # exactly, sides past 2^53 where m + 1 is not a float, and 2^63.  Next
    # to a power of two the defect's expansion in 1/s is nearly dyadic, so
    # some of these cells sit near a midpoint and take the fallback.
    sides = np.array([0.0, 1.0, 2.0, 3.0, 2.0 ** 26, 2.0 ** 53, 2.0 ** 53 + 2.0, 2.0 ** 60,
                      2.0 ** 63 - 1024.0, 2.0 ** 63])
    for x in [(1, 1), (3, 0, -1), (0, 2 ** 26, 5), (2 ** 26 + 1, 1), (2 ** 53 + 1, 1, 1),
              (2 ** 60, 0, 2 ** 60), (7, 7, 7, 7)]:
        want = [float.hex(oracle_exact_defect(m, x)) for m in sides.tolist()]
        assert [float.hex(float(d)) for d in _box_defects(sides, x)] == want, x


def test_a_coordinate_at_the_side_gives_exactly_one():
    # |x_j| >= s = m + 1 empties the overlap, also where 2^53 + 1 rounds
    for m, x in [(2.0 ** 53, (2 ** 53 + 1, 1)), (2.0 ** 60, (2 ** 60 + 1, 1)),
                 (2.0 ** 60, (2 ** 60, 1))]:
        assert _box_defects(np.array([m]), x)[0] == oracle_exact_defect(m, x)
    assert oracle_exact_defect(2.0 ** 53, (2 ** 53 + 1, 1)) == 1.0


def _prop42_x_scenarios(seed):
    return [s for s in load_scenarios().generate("certify-long", seed)
            if s.sid.startswith("prop42-x-")]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_certify_long_box_defects_never_take_the_fallback(seed, exact_cells):
    scenarios = _prop42_x_scenarios(seed)
    assert len(scenarios) == 3
    for scenario in scenarios:
        cli.run_scenario(copy.deepcopy(scenario.doc), scenario.command)
    assert exact_cells == []


def test_the_million_side_run_never_takes_the_fallback(exact_cells):
    """prop42 --m power:c=1,p=2 --a geometric:c=3.14159,r=0.5 --n-max 1000000 --x 1,1:
    990,259 cells past s^2 = 2^53, every one decided in double-double."""
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0), GeometricModel(3.14159, 0.5),
                                   n_max=1_000_000)
    at = crit.at((1, 1))
    assert np.count_nonzero((crit.sides + 1.0) ** 2 >= 2.0 ** 53) == 990_259
    assert at.translation is not None and exact_cells == []
    rng = np.random.default_rng(3)
    for i in rng.integers(0, crit.sides.size, 300).tolist() + [crit.sides.size - 1]:
        assert at.translation_terms[i] == oracle_exact_defect(crit.sides[i], (1, 1))


# --- complex moduli and spectral matching -----------------------------------

complexes = st.builds(complex, floats, floats)


@settings(max_examples=300, deadline=None)
@given(st.lists(complexes, max_size=20))
def test_hypot_is_pythons_complex_abs(values):
    z = np.array(values, dtype=complex)
    with np.errstate(over="ignore"):
        moduli = np.hypot(z.real, z.imag)
    for got, expected in ((moduli, lambda v: abs(v)),
                          (convergence._distances_to_one(z), lambda v: abs(1.0 - v))):
        for g, v in zip(got.tolist(), values):
            try:
                e = expected(v)
            except OverflowError:
                # Python refuses a modulus past the float range.  It also
                # raises for a NaN part when a C call before it left errno at
                # ERANGE, as numpy's hypot above may: abs() reads errno
                # without clearing it on that branch.
                assert math.isinf(g) or math.isnan(g)
                continue
            assert float.hex(g) == float.hex(e)


lattice_points = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
spectrum_entries = st.one_of(complexes, lattice_points, lattice_points,
                             st.sampled_from([complex(math.nan, 0.0), complex(0.0, math.nan),
                                              complex(math.inf, 0.0), complex(-math.inf, 1.0),
                                              complex(1.0, -math.inf)]))


def assert_spectral_distance_matches(a, b):
    with np.errstate(all="ignore"):
        try:
            expected = oracle_spectral_distance(a, b)
        except OverflowError:
            return
        assert float.hex(spectral_multiset_distance(a, b)) == float.hex(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64).flatmap(lambda n: st.tuples(
    st.lists(spectrum_entries, min_size=n, max_size=n),
    st.lists(spectrum_entries, min_size=n, max_size=n))))
def test_spectral_distance_matches_the_greedy_loop(pair):
    """Integer points force ties; NaN and infinite parts give NaN distances in
    first and later free columns and rows whose free distances are all +inf."""
    a, b = (np.array(v, dtype=complex) for v in pair)
    assert_spectral_distance_matches(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_spectral_distance_matches_the_greedy_loop_at_size_64(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, 64) + 1j * rng.integers(-2, 3, 64)
    b = rng.permutation(a) + rng.choice([0.0, 1.0, 1j], 64)
    for values, count in ((a, seed), (b, 3)):
        spots = rng.choice(64, size=count, replace=False)
        values[spots] = rng.choice([complex(math.nan, 0.0), complex(math.inf, 1.0),
                                    complex(-math.inf, -math.inf)], size=count)
    assert_spectral_distance_matches(a, b)


def test_spectral_distance_nan_and_infinite_rules():
    nan, inf = complex(math.nan, 0.0), complex(math.inf, 0.0)
    # A NaN in the first free column beats a zero distance further right.
    assert spectral_multiset_distance(np.array([0j, 5j]), np.array([nan, 0j])) == 5.0
    # A NaN in a later column never wins, and the maximum skips NaN.
    a, b = np.array([0j, 1j]), np.array([3 + 0j, nan])
    assert spectral_multiset_distance(a, b) == oracle_spectral_distance(a, b) == 3.0
    # A row with only infinite free distances takes its first free column,
    # never a matched one, even where the matched distance is finite.
    for a, b in ((np.array([0j, inf, 0j]), np.array([1 + 0j, 2 + 0j, 0j])),
                 (np.array([0j, 0j]), np.array([0j, inf]))):
        assert spectral_multiset_distance(a, b) == oracle_spectral_distance(a, b) == math.inf


def test_spectral_distance_of_real_spectra_and_ties():
    a = np.array([1.0, 1.0, -1.0])
    b = np.array([-1.0, 1.0, 1.0])
    assert spectral_multiset_distance(a, b) == oracle_spectral_distance(a, b) == 0.0
    a = np.array([0j, 0j])
    b = np.array([complex(math.nan, 0), 1j])
    assert spectral_multiset_distance(a, b) == oracle_spectral_distance(a, b)


# --- CSV rows ---------------------------------------------------------------


bound_entries = st.one_of(st.none(), floats)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_nonneg | floats, max_size=30),
       st.one_of(st.none(), st.lists(bound_entries, max_size=35)),
       st.sampled_from([1, 2, 3, 5, 7, cli._CSV_BLOCK]))
def test_render_csv_matches_the_row_loop(terms, bounds, block):
    # Blocks past a short bound prefix print bare commas; blocks inside it
    # mix bounds with None (empty) ones.
    saved = cli._CSV_BLOCK
    cli._CSV_BLOCK = block
    try:
        text = cli.render_csv({"k": 1}, terms, bounds)
    finally:
        cli._CSV_BLOCK = saved
    assert text == oracle_render_csv({"k": 1}, terms, bounds)
    assert "\0" not in text
    assert cli.render_csv({"k": 1}, np.array(terms, dtype=float), bounds) == text
