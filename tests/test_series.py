"""Verdict logic and tail-bound soundness for the series layer."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.series import (
    EXACT,
    Envelope,
    ExplicitModel,
    GeometricModel,
    INCONCLUSIVE,
    MAJORANT,
    MINORANT,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    PowerModel,
    diagnose_model_series,
    diagnose_terms,
    geometric_tail,
    horizon,
    model_values,
    neumaier_sum,
    poly_geometric_tail,
    power_tail,
    prefix_mismatch,
    running_sums,
    series_table,
)


# --- tail bounds never undershoot the true remainder ---


def test_power_tail_dominates_numeric_remainder():
    c, e, n = 1.0, -2.0, 10
    true_tail = sum(c * i ** e for i in range(n + 1, 200000))
    bound = power_tail(c, e, n)
    assert bound >= true_tail
    assert bound == pytest.approx(0.1)


def test_geometric_tail_is_exact():
    c, r, n = 2.0, 0.5, 4
    true_tail = sum(c * r ** i for i in range(n + 1, 200))
    assert geometric_tail(c, r, n) == pytest.approx(true_tail, abs=1e-15)


def test_poly_geometric_tail_dominates_numeric_remainder():
    c, e, r, n = 1.0, 2.0, 0.5, 3
    # closed form: sum_i i^2 (1/2)^i = 6, prefix = 0.5 + 1 + 1.125
    true_tail = 6.0 - (0.5 + 1.0 + 1.125)
    bound = poly_geometric_tail(c, e, r, n)
    assert bound >= true_tail
    assert bound < 20.0  # stays a usable bound, not a blowup


def test_poly_geometric_tail_with_zero_parts():
    assert poly_geometric_tail(0.0, 2.0, 0.5, 3) == 0.0
    assert poly_geometric_tail(1.0, 2.0, 0.0, 3) == 0.0
    assert poly_geometric_tail(1.0, 0.0, 0.5, 5) == pytest.approx(
        geometric_tail(1.0, 0.5, 5))


def test_poly_geometric_tail_refuses_an_infinite_exponent():
    # (1 + 1/i)^inf * r stays >= 1 for every i, so the head walk never ended
    with pytest.raises(ValueError, match="finite exponent"):
        poly_geometric_tail(1.0, math.inf, 0.5, 3)
    assert poly_geometric_tail(0.0, math.inf, 0.5, 3) == 0.0
    assert poly_geometric_tail(1.0, math.inf, 0.0, 3) == 0.0


def test_envelope_with_an_infinite_exponent_has_no_tail():
    assert Envelope(((1.0, math.inf, 0.5),)).tail(10) is None
    assert Envelope(((2.0, -2.0, 1.0), (1.0, math.inf, 0.999))).tail(10) is None
    assert Envelope(((1.0, math.inf, 0.0),)).tail(10) == 0.0
    assert Envelope(((0.0, math.inf, 0.5),)).tail(10) == 0.0


def test_tail_bound_input_validation():
    with pytest.raises(ValueError):
        power_tail(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        power_tail(1.0, -2.0, 0)
    with pytest.raises(ValueError):
        geometric_tail(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        geometric_tail(1.0, -0.1, 5)
    with pytest.raises(ValueError):
        poly_geometric_tail(1.0, -1.0, 0.5, 5)
    with pytest.raises(ValueError):
        poly_geometric_tail(1.0, 2.0, 1.0, 5)


@pytest.mark.parametrize("n", [-1, -3])
def test_geometric_tail_refuses_a_negative_start(n):
    with pytest.raises(ValueError, match="at least zero terms"):
        geometric_tail(1.0, 0.5, n)
    assert geometric_tail(1.0, 0.5, 0) == 1.0


@pytest.mark.parametrize("coeff,ratio", [(1.0, 0.5), (0.0, 0.5), (1.0, 0.0)])
def test_poly_geometric_tail_refuses_a_negative_start(coeff, ratio):
    # refused before the zero-coefficient and zero-ratio shortcuts
    with pytest.raises(ValueError, match="at least zero terms"):
        poly_geometric_tail(coeff, 2.0, ratio, -3)


@given(st.floats(0.01, 5.0), st.floats(-3.0, -1.2), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_power_tail_soundness_fuzz(c, e, n):
    bound = power_tail(c, e, n)
    sampled_tail = sum(c * i ** e for i in range(n + 1, n + 5000))
    assert bound + 1e-12 >= sampled_tail


@given(st.floats(0.0, 3.0), st.floats(0.0, 2.5), st.floats(0.05, 0.9),
       st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_poly_geometric_soundness_fuzz(c, e, r, n):
    bound = poly_geometric_tail(c, e, r, n)
    sampled_tail = sum(c * i ** e * r ** i for i in range(n + 1, n + 2000))
    assert bound + 1e-12 >= sampled_tail


def _two_pass_tail(c, q, r, n):
    """The tail as two walks: find the turning index, then add the head left to right."""
    n0 = max(n, 1)
    while (1.0 + 1.0 / n0) ** q * r >= 1.0:
        n0 += 1
    head = 0
    for i in range(n + 1, n0 + 1):
        head += c * float(i) ** q * r ** i
    return head + c * float(n0 + 1) ** q * r ** (n0 + 1) / (1.0 - (1.0 + 1.0 / n0) ** q * r)


def test_poly_geometric_tail_matches_the_two_pass_walk_bit_for_bit():
    rng = random.Random(2)
    cases = [(10.0 ** rng.uniform(-300, 300), rng.choice([0.0, 1.0, 2.5, rng.uniform(0.0, 4.0)]),
              1.0 - 10.0 ** -rng.uniform(0.01, 3.0), rng.choice([0, 1, 2, rng.randint(1, 500)]))
             for _ in range(300)]
    # heads of more than 10^4 terms
    cases += [(c, q, 1.0 - 1e-4, 20_000) for c, q in ((1.0, 4.0), (3.7, 3.5), (1e-200, 4.2))]
    cases += [(2.0, 0.0, 0.5, 0), (1.5, 3.0, 0.999, 0)]
    for c, q, r, n in cases:
        assert poly_geometric_tail(c, q, r, n).hex() == _two_pass_tail(c, q, r, n).hex(), (c, q, r, n)
    drift = poly_geometric_tail(9.79576180583024, 2.6583125757241723, 0.999594858783141, 1070)
    assert drift.hex() == (4.072984774907609e+17).hex()


# --- compensated summation ---


def test_neumaier_beats_naive_addition():
    vals = [1e16, 1.0, -1e16]
    assert neumaier_sum(vals) == 1.0
    assert sum(vals) != 1.0  # the naive sum actually loses the 1.0


def test_neumaier_matches_fsum():
    vals = [0.1] * 10 + [1e-9] * 1000
    assert neumaier_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-18)


def test_neumaier_infinity_short_circuit():
    assert neumaier_sum([1e308, 1e308, -5.0]) == math.inf


def test_running_sums_prefixes():
    vals = [0.5, 0.25, 0.125]
    sums = running_sums(vals)
    assert sums == pytest.approx([0.5, 0.75, 0.875])
    assert sums[-1] == neumaier_sum(vals)


def test_running_sums_stay_infinite_after_overflow():
    sums = running_sums([1e308, 1e308, 1.0])
    assert sums[0] == 1e308
    assert sums[1] == math.inf
    assert sums[2] == math.inf


# --- model construction and evaluation ---


def test_model_validation():
    with pytest.raises(ValueError):
        PowerModel(-1.0, -2.0)
    with pytest.raises(ValueError):
        GeometricModel(-0.5, 0.5)
    with pytest.raises(ValueError):
        GeometricModel(1.0, -0.5)
    with pytest.raises(ValueError):
        PowerModel(1.0, -2.0, relation="approximate")


def test_model_value_overflow_becomes_infinity():
    m = GeometricModel(1e300, 10.0, relation=MINORANT)
    assert m.value(20) == math.inf
    p = PowerModel(1e300, 100.0, relation=MINORANT)
    assert p.value(100) == math.inf


def test_model_values_prefix():
    assert model_values(PowerModel(2.0, -1.0), 3) == pytest.approx(
        [2.0, 1.0, 2.0 / 3.0])
    assert model_values(ExplicitModel((0.5, 0.25)), 5).tolist() == [0.5, 0.25]


def test_horizon_stops_at_the_shortest_explicit_prefix():
    assert horizon(10, PowerModel(1.0, 2.0), None) == 10
    assert horizon(10, ExplicitModel((1.0, 2.0, 3.0)), ExplicitModel((1.0, 2.0))) == 2
    assert horizon(1, ExplicitModel((1.0, 2.0))) == 1


def test_prefix_mismatch_checks_only_the_vouched_sides():
    above, below = "{i}: {a} > {v}", "{i}: {a} < {v}"
    assert prefix_mismatch([1.0, 3.0], [1.0, 2.0], EXACT, above, below) == "2: 3.0 > 2.0"
    assert prefix_mismatch([1.0, 3.0], [1.0, 2.0], MINORANT, above, below) is None
    assert prefix_mismatch([1.0, 1.5], [1.0, 2.0], MAJORANT, above, below) is None
    assert prefix_mismatch([1.0, 1.5], [1.0, 2.0], EXACT, above, below) == "2: 1.5 < 2.0"
    assert prefix_mismatch([1.0, 1.5], [1.0, 2.0], EXACT, above) is None
    # the window [v, v + width] and the relative slack 1e-9 (1 + |v|)
    assert prefix_mismatch([2, 3], [1.5, 2.0], EXACT, above, below, width=1.0) is None
    assert prefix_mismatch([2.0 + 2e-9], [1.0], EXACT, above, width=1.0) is None
    assert prefix_mismatch([2.0 + 3e-9], [1.0], EXACT, above, width=1.0) is not None


# --- verdicts: convergence needs exact or majorant ---


def test_exact_power_model_convergent_with_sound_tail():
    terms = [i ** -2.0 for i in range(1, 51)]
    v = diagnose_terms(terms, PowerModel(1.0, -2.0))
    assert v.verdict == PROVED_CONVERGENT
    assert v.terms_evaluated == 50
    true_total = math.pi ** 2 / 6.0
    assert v.partial_sum <= true_total
    assert v.partial_sum + v.tail_bound >= true_total
    assert "integral comparison" in v.tail_derivation


def test_majorant_power_model_convergent():
    terms = [0.5 * i ** -3.0 for i in range(1, 21)]
    v = diagnose_terms(terms, PowerModel(1.0, -2.0, relation=MAJORANT))
    assert v.verdict == PROVED_CONVERGENT


def test_minorant_cannot_certify_convergence():
    terms = [i ** -2.0 for i in range(1, 21)]
    v = diagnose_terms(terms, PowerModel(0.5, -2.0, relation=MINORANT))
    assert v.verdict == INCONCLUSIVE


def test_exact_harmonic_model_divergent():
    terms = [1.0 / i for i in range(1, 31)]
    v = diagnose_terms(terms, PowerModel(1.0, -1.0))
    assert v.verdict == PROVED_DIVERGENT
    assert "not summable" in v.witness


def test_minorant_constant_model_divergent():
    terms = [0.7] * 25
    v = diagnose_terms(terms, PowerModel(0.5, 0.0, relation=MINORANT))
    assert v.verdict == PROVED_DIVERGENT


def test_majorant_harmonic_model_inconclusive():
    terms = [0.5 / i for i in range(1, 31)]
    v = diagnose_terms(terms, PowerModel(1.0, -1.0, relation=MAJORANT))
    assert v.verdict == INCONCLUSIVE


def test_exact_geometric_model_convergent_tail():
    terms = [3.0 * 0.5 ** i for i in range(1, 11)]
    v = diagnose_terms(terms, GeometricModel(3.0, 0.5))
    assert v.verdict == PROVED_CONVERGENT
    # the model is exact, so partial + tail recovers the full sum 3.0
    assert v.partial_sum + v.tail_bound == pytest.approx(3.0, abs=1e-12)


def test_geometric_ratio_one_divergent_only_with_minorant_or_exact():
    terms = [2.0] * 10
    exact = diagnose_terms(terms, GeometricModel(2.0, 1.0))
    assert exact.verdict == PROVED_DIVERGENT
    floor = diagnose_terms(terms, GeometricModel(1.0, 1.0, relation=MINORANT))
    assert floor.verdict == PROVED_DIVERGENT
    ceiling = diagnose_terms(terms, GeometricModel(2.0, 1.0, relation=MAJORANT))
    assert ceiling.verdict == INCONCLUSIVE


def test_zero_coefficient_majorant_proves_zero_series():
    v = diagnose_terms([0.0, 0.0], PowerModel(0.0, 3.0, relation=MAJORANT))
    assert v.verdict == PROVED_CONVERGENT
    assert v.tail_bound == 0.0


def test_explicit_model_never_claims_a_tail():
    v = diagnose_terms([0.5, 0.25], ExplicitModel((0.5, 0.25)))
    assert v.verdict == INCONCLUSIVE
    assert "no tail claims" in v.witness


def test_missing_model_is_inconclusive():
    v = diagnose_terms([0.1, 0.1], None)
    assert v.verdict == INCONCLUSIVE
    assert v.partial_sum == pytest.approx(0.2)


# --- consistency checks demote bad declarations ---


def test_term_exceeding_majorant_is_demoted():
    v = diagnose_terms([1.0, 0.1], PowerModel(0.5, -2.0))
    assert v.verdict == INCONCLUSIVE
    assert "exceeds" in v.witness


def test_term_below_minorant_is_demoted():
    v = diagnose_terms([0.1] * 5, PowerModel(1.0, 0.0, relation=MINORANT))
    assert v.verdict == INCONCLUSIVE
    assert "falls below" in v.witness


def test_negative_terms_rejected():
    with pytest.raises(ValueError):
        diagnose_terms([0.5, -0.5], None)


# --- whole-model diagnosis and tables ---


def test_diagnose_model_series_basel():
    v = diagnose_model_series(PowerModel(1.0, -2.0), 100)
    assert v.verdict == PROVED_CONVERGENT
    true_total = math.pi ** 2 / 6.0
    assert v.partial_sum <= true_total <= v.partial_sum + v.tail_bound


def test_diagnose_model_series_divergent_overflowing_minorant():
    v = diagnose_model_series(GeometricModel(1.0, 2.0, relation=MINORANT), 50)
    assert v.verdict == PROVED_DIVERGENT


def test_series_table_rows():
    rows = series_table([0.5, 0.25], GeometricModel(1.0, 0.5))
    assert rows[0] == (1, 0.5, pytest.approx(0.5), pytest.approx(0.5))
    assert rows[1][2] == pytest.approx(0.75)
    short = series_table([0.5, 0.25, 0.1], ExplicitModel((0.5, 0.25)))
    assert short[2][3] is None  # beyond the declared prefix
    bare = series_table([1.0], None)
    assert bare[0][3] is None


@given(st.floats(0.05, 4.0), st.floats(0.0, 0.95), st.integers(2, 25))
@settings(max_examples=40, deadline=None)
def test_geometric_verdict_soundness_fuzz(c, r, n):
    """An exact geometric declaration always certifies with a tail that
    covers the numerically summed remainder."""
    terms = [c * r ** i for i in range(1, n + 1)]
    v = diagnose_terms(terms, GeometricModel(c, r))
    assert v.verdict == PROVED_CONVERGENT
    rest = sum(c * r ** i for i in range(n + 1, n + 3000))
    assert v.tail_bound + 1e-12 >= rest


# --- the envelope algebra ---


def test_envelope_reciprocal_flips_the_relation():
    env = Envelope(((2.0, 3.0, 1.5),), MINORANT)
    inv = env.reciprocal(4.0)
    assert inv == Envelope(((2.0, -3.0, 1.0 / 1.5),), MAJORANT)
    assert inv.reciprocal(4.0).relation == MINORANT
    assert Envelope(((2.0, 3.0, 1.0),), EXACT).reciprocal().relation == EXACT
    # only a single positive term has a reciprocal envelope
    assert Envelope(((1.0, 0.0, 1.0), (1.0, 1.0, 1.0))).reciprocal() is None
    assert Envelope(((0.0, 1.0, 1.0),)).reciprocal() is None


def test_envelope_majorant_never_mixes_with_minorant():
    upper = Envelope(((1.0, -2.0, 1.0),), MAJORANT)
    lower = Envelope(((1.0, 0.0, 0.5),), MINORANT)
    assert upper.add(lower) is None
    assert upper.times(lower) is None
    assert lower.times(upper) is None
    exact = Envelope(((3.0, 1.0, 1.0),))
    assert upper.times(exact).relation == MAJORANT
    assert exact.add(lower).relation == MINORANT
    assert exact.times(exact).terms == ((9.0, 2.0, 1.0),)


def test_envelope_ceil_step_and_collapse():
    side = PowerModel(2.0, 1.5, MAJORANT).envelope
    stepped = side.plus(1)
    assert stepped.terms == ((2.0, 1.5, 1.0), (1.0, 0.0, 1.0))
    assert stepped.relation == MAJORANT
    single = stepped.collapse()
    assert single.terms == ((3.0, 1.5, 1.0),)
    assert all(single.value(i) >= stepped.value(i) for i in range(1, 50))
    assert side.lower() is None
    assert Envelope(side.terms, MINORANT).collapse() is None


def test_envelope_summability_predicates():
    assert Envelope(((1.0, -1.0, 1.0),)).diverges()
    assert not Envelope(((1.0, -1.5, 1.0),)).diverges()
    assert not Envelope(((0.0, 5.0, 2.0),)).diverges()
    assert Envelope(((1.0, -9.0, 1.01),)).diverges()
    assert Envelope(((1.0, 0.0, 1.0),)).bounded()
    assert Envelope(((1.0, 0.5, 1.0),)).unbounded()
    assert Envelope(((1.0, 5.0, 0.9),)).bounded()
    assert Envelope(((1.0, 0.0, 1.0),)).tail(10) is None
    assert Envelope(((0.0, 0.0, 1.0),)).tail(10) == 0.0


_TERM = st.tuples(st.floats(0.0, 5.0), st.floats(-4.0, 3.0),
                  st.one_of(st.just(1.0), st.floats(0.0, 0.95)))


@given(st.lists(_TERM, min_size=1, max_size=2), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_envelope_tail_dominates_brute_force_sum(terms, n):
    env = Envelope(tuple(terms), MAJORANT)
    tail = env.tail(n)
    if tail is None:
        assert any(c > 0 and r == 1.0 and q >= -1 for c, q, r in terms)
        return
    brute = math.fsum(env.value(i) for i in range(n + 1, n + 3000))
    assert tail >= brute * (1.0 - 1e-12)
