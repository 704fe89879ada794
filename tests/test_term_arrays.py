"""The array passes over term series against the per-index loops they replaced.

Each reference below is the earlier loop, kept verbatim: declared model
values, signed angle families and their unit phases, the Dirichlet means
of ``dirichlet_condition`` and ``dirichlet_value``, and the head walk of
``poly_geometric_tail``.  Floats are compared by their bits (``float.hex``,
which prints every NaN as "nan"), errors by type and arguments.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from twistlab.cli import _unit_phases, parse_signed_family
from twistlab.convergence import (
    TWO_PI,
    ConstructionError,
    DirichletReport,
    Prefix,
    _ceil_mismatch,
    _ceil_value,
    _DEVIATION_WORDS,
    _angle_remainders,
    _inverse_side_verdict,
    _majorant_verdict,
    _SIGMA_WORDS,
    dirichlet_condition,
    dirichlet_value,
)
from twistlab.series import (
    ExplicitModel,
    GeometricModel,
    PowerModel,
    horizon,
    inconclusive,
    model_values,
    poly_geometric_tail,
)

# --- the per-index loops, as they were -------------------------------------


def loop_model_values(model, n):
    if isinstance(model, ExplicitModel):
        return list(model.values[:n])
    try:
        if isinstance(model, PowerModel):
            c, q = model.coeff, model.exponent
            return [c * float(i) ** q for i in range(1, n + 1)]
        c, r = model.coeff, model.ratio
        return [c * r ** i for i in range(1, n + 1)]
    except OverflowError:
        return [model.value(i) for i in range(1, n + 1)]


def loop_signed_family(family, c, k):
    if family == "power":
        return lambda j: c * float(j) ** k
    return lambda j: c * k ** j


def loop_dirichlet_value(window, theta):
    if window < 0:
        raise ValueError("window must be nonnegative")
    m = 2 * window + 1
    t = math.remainder(float(theta), TWO_PI)
    denominator = m * math.sin(0.5 * t)
    if denominator == 0.0:  # t is 0, or 0.5 t underflows to 0 and D rounds to 1
        return 1.0
    return math.sin(0.5 * m * t) / denominator


def loop_dirichlet_condition(windows, window_model, angles, angle_model, n_max):
    if n_max < 1:
        raise ValueError("need at least one index")
    n_max = horizon(n_max, window_model, angle_model)
    window_values = model_values(window_model, n_max) if window_model is not None else None
    if windows is None:
        if window_values is None:
            raise ValueError("windows need a schedule or a window model")
        windows = lambda j: _ceil_value(window_values[j - 1], "window", j)
    win_list = []
    ang_list = []
    dev_terms = []
    for j in range(1, n_max + 1):
        w = int(windows(j))
        if w < 1:
            raise ConstructionError(f"window {j} must be a positive integer")
        if 2 * w + 1 > sys.float_info.max:
            raise ConstructionError(f"window {j} is too large: 2 n_j + 1 exceeds the float range")
        theta = float(angles(j))
        win_list.append(w)
        ang_list.append(theta)
        dev_terms.append(abs(1.0 - loop_dirichlet_value(w, theta)))

    # Exact integers: w + 1 is formed before it is rounded to a float.
    wins = np.array(win_list, dtype=object)
    inverse_terms = 1.0 / wins.astype(float)
    matched = window_model is not None and _ceil_mismatch(
        wins, window_values, window_model.relation) is None
    if matched:
        # 1/(v_j + 1) <= 1/n_j <= 1/v_j
        inverse = _inverse_side_verdict(inverse_terms, window_model, 1.0, 1.0, 1.0,
                                        _SIGMA_WORDS)
    else:
        inverse = inconclusive(inverse_terms, "window values lack a matching growth model")

    sizes = np.abs(np.array(ang_list))
    with np.errstate(over="ignore", invalid="ignore"):
        dev_bounds = 0.5 * (wins + 1).astype(float) * sizes
    dev_bounds = np.where(dev_bounds < 2.0, dev_bounds, 2.0)
    deviation = _majorant_verdict(
        np.array(dev_terms), dev_bounds, window_model,
        None if matched else "window values do not match their declared model",
        sizes, angle_model, 2.0, 0.5, _DEVIATION_WORDS)
    return DirichletReport(tuple(win_list), tuple(ang_list), tuple(dev_terms),
                           inverse, deviation, tuple(inverse_terms.tolist()),
                           tuple(dev_bounds.tolist()))


def loop_poly_geometric_tail(coeff, exponent, ratio, n):
    if coeff == 0.0 or ratio == 0.0:
        return 0.0
    i = max(n, 1)
    head = 0 if n > 0 else coeff * ratio  # the term at i = 1
    while (step := (1.0 + 1.0 / i) ** exponent * ratio) >= 1.0:
        i += 1
        head += coeff * float(i) ** exponent * ratio ** i
    return head + coeff * float(i + 1) ** exponent * ratio ** (i + 1) / (1.0 - step)


# --- comparison helpers ----------------------------------------------------


def hexes(values):
    return [float(v).hex() for v in values]


def outcome(f, *args):
    """f's value, or the type and arguments of what it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError, ConstructionError, IndexError) as exc:
        return type(exc), exc.args


def same(a, b):
    if isinstance(a, tuple) and a and isinstance(a[0], type):
        return a == b
    return repr(a) == repr(b)


# --- declared model values -------------------------------------------------

MODELS = [
    PowerModel(1.0, 2.0), PowerModel(0.5, -1.5), PowerModel(3.0, 0.7),
    PowerModel(1.0, 110.0),  # overflows from i = 632 on
    PowerModel(0.0, 110.0),  # c = 0: the overflow still reads inf, not 0 * inf
    PowerModel(1e300, 2.0),  # c * i**q overflows in the product, which Python lets through
    PowerModel(1.0, math.inf), PowerModel(0.0, math.inf), PowerModel(2.0, -math.inf),
    PowerModel(1.0, math.nan), PowerModel(math.nan, 1.0), PowerModel(1.0, 0.0),
    GeometricModel(1.0, 1e300), GeometricModel(0.0, 1e300), GeometricModel(2.0, 3.5),
    GeometricModel(1.0, 0.5), GeometricModel(5e-324, 0.999),
    GeometricModel(1.0, math.inf), GeometricModel(0.0, math.inf),
    GeometricModel(1.0, math.nan), GeometricModel(1.0, 0.0), GeometricModel(1.0, -0.0),
    GeometricModel(1.0, 1.0), ExplicitModel((-0.0, 0.5, math.inf, math.nan)),
]


@pytest.mark.parametrize("model", MODELS, ids=repr)
@pytest.mark.parametrize("n", [0, 1, 700])
def test_model_values_are_the_loops(model, n):
    values = model_values(model, n)
    assert isinstance(values, np.ndarray) and values.dtype == float
    assert hexes(values) == hexes(loop_model_values(model, n))


def test_model_values_of_a_random_sweep_are_the_loops():
    rng = np.random.default_rng(21)
    for c, q, r in zip(rng.uniform(0, 5, 40).tolist(), rng.uniform(-40, 40, 40).tolist(),
                       rng.uniform(0, 3, 40).tolist()):
        for model in (PowerModel(c, q), GeometricModel(c, r)):
            assert hexes(model_values(model, 2000)) == hexes(loop_model_values(model, 2000))


# --- signed angle families and their unit phases ---------------------------

SIGNED = [("power", 1.0, -2.0), ("power", -0.5, 1.5), ("power", -0.0, 3.0),
          ("power", 2.0, 150.0), ("power", 0.0, 150.0), ("power", -3.0, math.inf),
          ("power", math.inf, -1.0), ("power", math.nan, 1.0),
          ("geometric", -1.0, 10.0), ("geometric", 1.0, 10.5), ("geometric", -2.0, 0.5),
          ("geometric", 1.0, -0.0), ("geometric", -1.0, math.inf), ("geometric", 0.0, 1e200)]


@pytest.mark.parametrize("family, c, k", SIGNED)
def test_signed_family_reads_the_loops_values_and_overflow(family, c, k):
    read, model = parse_signed_family(f"{family}:c={c},{'p' if family == 'power' else 'r'}={k}",
                                      "angles")
    theta = loop_signed_family(family, c, k)
    expected, error = [], None
    for j in range(1, 401):
        try:
            expected.append(theta(j))
        except OverflowError as exc:
            error = exc
            break
    got = read(400)
    assert hexes(got.values) == hexes(expected)
    assert (type(got.error), getattr(got.error, "args", None)) == (
        type(error), getattr(error, "args", None))
    # the model's values are the absolute values |theta_j|, overflow as inf
    assert hexes(model_values(model, len(expected))) == hexes(
        [abs(c) * (float(j) ** k if family == "power" else k ** j)
         for j in range(1, len(expected) + 1)])


def test_explicit_signed_family_reads_its_values():
    read, model = parse_signed_family("explicit:-0.5,0,-0,2pi", "angles")
    assert hexes(read(10).values) == hexes([-0.5, 0.0, -0.0, 2 * math.pi])
    assert read(10).error is None and read(2).values.tolist() == [-0.5, 0.0]
    assert model.values == (0.5, 0.0, 0.0, 2 * math.pi)


ANGLES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-8, math.pi, -math.pi / 3,
          1e10, -1e22, 1e300, -1e300, sys.float_info.max, math.inf, -math.inf, math.nan]


def test_unit_phases_are_cmath_exp_bit_for_bit():
    rng = np.random.default_rng(3)
    thetas = ANGLES + rng.uniform(-10, 10, 500).tolist() + (
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)).tolist()
    phases = _unit_phases(np.array(thetas))
    expected = [cmath.exp(1j * t) for t in thetas]
    assert hexes(phases.real) == hexes(z.real for z in expected)
    assert hexes(phases.imag) == hexes(z.imag for z in expected)
    # theta = -0.0: 1j * -0.0 has imaginary part +0.0, so the phase is 1+0j
    assert math.copysign(1.0, phases[1].imag) == 1.0


# --- Dirichlet means -------------------------------------------------------

TIES = [k * TWO_PI for k in range(-6, 7)] + [(k + 0.5) * TWO_PI for k in range(-6, 6)]


def test_angle_remainders_are_math_remainder():
    # 3 pi is a float, so 1.5 * 2 pi is a tie whose even multiple is 2 * 2 pi
    rng = np.random.default_rng(7)
    thetas = [t for t in ANGLES if math.isfinite(t)] + TIES + [3 * math.pi, -5 * math.pi] + (
        rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300)).tolist()
    assert hexes(_angle_remainders(np.array(thetas))) == hexes(
        math.remainder(t, TWO_PI) for t in thetas)
    assert _angle_remainders(np.array([3 * math.pi])).tolist() == [-math.pi]
    with pytest.raises(ValueError, match="math domain error"):
        _angle_remainders(np.array([0.5, -math.inf]))


@pytest.mark.parametrize("window", [0, 1, 2, 7, 1000, 2 ** 52 - 1, 2 ** 52, 2 ** 53 + 1,
                                    10 ** 300, (sys.float_info.max - 1) // 2])
def test_dirichlet_value_is_the_loop(window):
    for theta in ANGLES + TIES + [0.3, -2.9, 4.0 * math.pi + 0.3, 1e-200]:
        assert same(outcome(dirichlet_value, window, theta),
                    outcome(loop_dirichlet_value, window, theta)), (window, theta)


def test_dirichlet_value_keeps_the_loops_error_order():
    # the angle's remainder fails before the window converts to a float
    for window, theta in [(10 ** 400, math.inf), (10 ** 400, 0.5), (-1, math.inf),
                          (3, "x"), (2 ** 1020, 3.0)]:
        assert same(outcome(dirichlet_value, window, theta),
                    outcome(loop_dirichlet_value, window, theta)), (window, theta)


def angle_sources(text):
    """The CLI's reader, the earlier loop's function of j and the model of |theta|."""
    read, model = parse_signed_family(text, "angles")
    family, _, rest = text.partition(":")
    if family == "explicit":
        values = [float(v) for v in rest.split(",")]
        return read, (lambda j: values[j - 1]), model
    c, k = (float(part.split("=")[1]) for part in rest.split(","))
    return read, loop_signed_family(family, c, k), model


DIRICHLET_CASES = [
    # (window schedule or None, window model, angle family text, horizon)
    (None, PowerModel(1.0, 2.0), "power:c=1,p=-4", 300),
    (None, PowerModel(1.5, 1.0), "power:c=-3.5,p=-1", 300),
    (None, GeometricModel(0.5, 10.0), "geometric:c=1,r=10", 400),  # both fail at 309
    (None, GeometricModel(0.5, 10.0), "geometric:c=1,r=10.5", 400),  # the angle, at 302
    (None, GeometricModel(1.0, 10.0), "geometric:c=1,r=10", 400),  # window 308 too large
    (None, GeometricModel(0.5, 10.0), "geometric:c=1,r=10.1", 400),  # angle 307, window 309
    (None, GeometricModel(1.0, 10.0), "geometric:c=1,r=10.05", 400),  # window 308 too large, angle 308
    (None, GeometricModel(1.0, 10.0), "geometric:c=1,r=10.12", 400),  # angle 307, window 308
    (None, PowerModel(2.0 ** 52, 1.0), "power:c=3,p=-0.5", 200),  # windows past 2^52
    (None, PowerModel(2.0 ** 60, 3.0), "power:c=1,p=-1", 200),
    (None, PowerModel(1e300, 1.0), "power:c=2,p=0", 200),  # a sine argument overflows
    (None, ExplicitModel((1.0, 0.0, 4.0)), "power:c=1,p=1", 5),  # window 2 is 0
    (None, ExplicitModel((1.0, 2.0, math.inf)), "explicit:1,inf,1", 5),  # angle 2 is inf
    (None, ExplicitModel((1.0, math.nan, 3.0)), "explicit:1,2,inf", 5),  # window 2 is NaN
    (None, ExplicitModel((1.0, 2.0, 3.0)), "explicit:1,nan,3", 5),
    (None, ExplicitModel((1.0, math.nan, 3.0)), "explicit:1,inf,1", 5),  # both fail at 2
    (None, ExplicitModel((1.0, 2.0, math.nan)), "explicit:1,inf,1", 5),
    (None, GeometricModel(2.0, 1.0), "geometric:c=5e-324,r=0.999", 60),
    (None, GeometricModel(2.0, 1.0), "geometric:c=-5e-324,r=1", 60),
    (None, PowerModel(1.0, 1.0), "explicit:0,6.283185307179586,-6.283185307179586,"
     "3.141592653589793,9.42477796076938,-3.141592653589793", 6),  # 0, multiples, ties
    # 2 n + 1 just past the largest float, and the largest window below it
    (lambda j: int(sys.float_info.max) // 2 if j == 3 else j, None, "power:c=1,p=-2", 5),
    (lambda j: int(sys.float_info.max) // 2 - 1 if j == 3 else j, None, "power:c=1,p=-2", 5),
    (None, ExplicitModel((1.0, 2.0, sys.float_info.max / 2)), "power:c=1,p=-2", 5),
    (None, ExplicitModel((1.0, math.nextafter(sys.float_info.max / 2, 0.0))),
     "power:c=1,p=-2", 5),
    (lambda j: 2 ** 53 + j, None, "power:c=1,p=-2", 50),  # windows past 2^53, exact
    (lambda j: 10 ** 300 * j, PowerModel(1e300, 1.0), "power:c=1e-300,p=-1", 50),
    (lambda j: j if j != 7 else 0, None, "power:c=1,p=-2", 50),
    (lambda j: j if j != 7 else 10 ** 308, None, "explicit:1,1,1,1,1,1,inf", 50),
    (lambda j: j if j != 7 else 10 ** 308, None, "explicit:1,1,1,1,1,inf,1", 50),
]


def report_tuples(report):
    """A Dirichlet report as tuples of Python numbers, windows as ints, or
    what was raised instead of it."""
    if not isinstance(report, DirichletReport):
        return report
    return (tuple(int(w) for w in report.windows), tuple(map(float, report.angles)),
            tuple(map(float, report.deviation_terms)), report.inverse_window,
            report.deviation, tuple(map(float, report.inverse_terms)),
            tuple(map(float, report.deviation_bounds)))


@pytest.mark.parametrize("windows, window_model, angles, n", DIRICHLET_CASES)
def test_dirichlet_condition_is_the_loop(windows, window_model, angles, n):
    read, theta, angle_model = angle_sources(angles)
    expected = report_tuples(outcome(loop_dirichlet_condition, windows, window_model, theta,
                                     angle_model, n))
    # from the CLI's prefix, and from a function of j, as a library caller passes it
    assert same(report_tuples(outcome(dirichlet_condition, windows, window_model,
                                      read(horizon(n, window_model)), angle_model, n)),
                expected)
    assert same(report_tuples(outcome(dirichlet_condition, windows, window_model, theta,
                                      angle_model, n)), expected)


try:
    10.0 ** 400
except OverflowError as exc:
    POW_OVERFLOW = str(exc)  # Python's own text, "(34, 'Numerical result out of range')"


def test_dirichlet_errors_name_the_first_failing_index():
    # A window and an angle that fail at one index, or at neighbouring ones.
    def fails(windows, window_model, angles, n):
        read, _, model = angle_sources(angles)
        with pytest.raises((ArithmeticError, ValueError, ConstructionError)) as info:
            dirichlet_condition(windows, window_model, read(n), model, n)
        return type(info.value).__name__, str(info.value)

    assert fails(None, GeometricModel(0.5, 10.0), "geometric:c=1,r=10", 400) == (
        "ConstructionError", "window model overflows at index 309")
    assert fails(None, GeometricModel(0.5, 10.0), "geometric:c=1,r=10.1", 400) == (
        "OverflowError", POW_OVERFLOW)
    assert fails(None, GeometricModel(1.0, 10.0), "geometric:c=1,r=10.05", 400) == (
        "ConstructionError", "window 308 is too large: 2 n_j + 1 exceeds the float range")
    assert fails(None, GeometricModel(1.0, 10.0), "geometric:c=1,r=10.12", 400) == (
        "OverflowError", POW_OVERFLOW)
    assert fails(None, ExplicitModel((1.0, 2.0, 3.0)), "explicit:1,inf,1", 5) == (
        "ValueError", "math domain error")
    assert fails(None, ExplicitModel((1.0, math.nan, 3.0)), "explicit:1,inf,1", 5) == (
        "ConstructionError", "window model overflows at index 2")
    assert fails(None, ExplicitModel((1.0, 2.0, math.nan)), "explicit:1,inf,1", 5) == (
        "ValueError", "math domain error")
    assert fails(None, ExplicitModel((1.0, math.nan, 3.0)), "explicit:1,2,inf", 5) == (
        "ConstructionError", "window model overflows at index 2")


def test_a_library_callable_is_read_once_and_only_as_far_as_the_loop_read_it():
    calls = []

    def angle(j):
        calls.append(j)
        return 0.5 ** j

    with pytest.raises(ConstructionError, match="window 4 must be a positive integer"):
        dirichlet_condition(lambda j: 0 if j == 4 else j, None, angle, None, n_max=9)
    assert calls == [1, 2, 3]
    calls.clear()
    dirichlet_condition(None, PowerModel(1.0, 1.0), angle, GeometricModel(1.0, 0.5), n_max=9)
    assert calls == list(range(1, 10))


def test_a_short_prefix_without_an_error_is_refused():
    with pytest.raises(IndexError, match="angle 3 is missing"):
        dirichlet_condition(None, PowerModel(1.0, 1.0), Prefix(np.array([0.1, 0.2])), None,
                            n_max=5)


# --- the poly-geometric head walk ------------------------------------------


def turning_index(c, q, r, n):
    i = max(n, 1)
    while (1.0 + 1.0 / i) ** q * r >= 1.0:
        i += 1
    return i


def test_poly_geometric_tail_turns_on_every_block_edge():
    # q = 1 turns at the first i with i > r / (1 - r); blocks start at 16 indices
    # and double, so from n = 1 the edges fall at i = 16/17, 48/49 and 112/113.
    turns = set()
    for i0 in range(1, 300):
        r = (i0 - 0.5) / (i0 + 0.5)
        for c, q, n in [(1.0, 1.0, 1), (2.5, 1.0, 0), (1.0, 1.0, 5), (0.3, 1.0, 17)]:
            turns.add(turning_index(c, q, r, n) - max(n, 1))
            assert poly_geometric_tail(c, q, r, n).hex() == (
                loop_poly_geometric_tail(c, q, r, n).hex()), (c, q, r, n)
    assert {15, 16, 47, 48, 111, 112} <= turns


@pytest.mark.parametrize("c, q, r, n", [
    (1.0, 1.0, 0.1, 5),  # the first step is below 1: the head stays the int 0
    (-5e-324, 1.0, 0.1, 5),  # ... and 0 + -0.0 is 0.0
    (1.0, 2.0, 0.5, 0), (3.0, 0.5, 0.25, 0),  # n = 0: the head starts at the first term
    (1e-300, 3.0, 0.9, 0), (5e-324, 2.0, 0.99, 0), (1e300, 2.0, 0.999, 10),
    (1.0, 3.0, 0.9999, 1), (9.79576180583024, 2.6583125757241723, 0.999594858783141, 1070),
    (1.0, math.nan, 0.5, 3),  # a NaN step ends the walk
    (1.0, 400.0, 0.99, 0),  # a term overflows inside the head
    (1.0, 200.0, 0.5, 1000),  # only the tail's first term overflows
    (1.0, 290.0, 1e-13, 1),  # turns at 10; the powers past the turn overflow unread
    (1.0, 2000.0, 0.5, 1),  # the first step overflows
    (-1e-300, 2.0, 0.5, 3), (1.0, 0.0, 0.5, 4),
])
def test_poly_geometric_tail_is_the_loop(c, q, r, n):
    got, expected = outcome(poly_geometric_tail, c, q, r, n), outcome(
        loop_poly_geometric_tail, c, q, r, n)
    assert type(got) is type(expected)
    if isinstance(expected, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


def test_poly_geometric_tail_of_a_random_sweep_is_the_loop():
    rng = np.random.default_rng(15)
    for _ in range(300):
        c = float(10.0 ** rng.uniform(-300, 300))
        q = float(rng.choice([rng.uniform(0, 5), rng.uniform(0, 300), rng.integers(0, 6)]))
        r = float(rng.choice([rng.uniform(0, 1), 1 - 10 ** rng.uniform(-3, -1)]))
        n = int(rng.choice([0, 1, rng.integers(0, 200), rng.integers(0, 10 ** 6)]))
        assert same(outcome(poly_geometric_tail, c, q, r, n),
                    outcome(loop_poly_geometric_tail, c, q, r, n)), (c, q, r, n)
