"""Product-type action scenarios, extension certificates and the class obstruction."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from twistlab.actions import (
    INNER_CERTIFIED,
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    OUTER_CERTIFIED,
    SCOPE_NOTE,
    ActionScenario,
    cohomological_obstruction,
    extension_condition,
    inner_outer_verdict,
    regular_trace_scenario,
    rep_trace_scenario,
    scenario_from_regular_vectors,
    scenario_from_rep_vectors,
    scenario_from_values,
    trace_condition,
)
from twistlab.cocycles import (
    MatrixCocycle,
    UnsupportedVariantError,
    constant_sequence,
    from_list,
    geometric_matrix_sequence,
    one_free_coboundary_sequence,
    pauli_cocycle,
    perturb,
    quadratic_phase,
    trivial_cocycle,
)
from twistlab.convergence import gauge_fix
from twistlab.groups import (
    FiniteAbelianGroup,
    FolnerBox,
    GroupMismatchError,
    IntegerLattice,
)
from twistlab.reps import box_vector, pauli_rep, point_mass, twisted_inner_product
from twistlab.series import (
    ExplicitModel,
    GeometricModel,
    INCONCLUSIVE,
    InvalidInnerProductError,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    PowerModel,
)

# --- oracles ---
#
# The two Pauli generators written out by hand; normalized traces follow by
# direct matrix arithmetic, with no representation machinery involved.

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI_WORDS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): FLIP,
    (0, 1): SIGN,
    (1, 1): FLIP @ SIGN,
}
PAULI_TRACES = {g: complex(np.trace(m)) / 2.0 for g, m in PAULI_WORDS.items()}

Z2Z2 = FiniteAbelianGroup((2, 2))
Z2 = FiniteAbelianGroup((2,))

ROTATION = np.array([[0.0, math.pi / 2], [-math.pi / 2, 0.0]])


def geometric_deficits(n):
    """Amplitudes 1 - 2^-i whose deficit series sums to 1 - 2^-n exactly."""
    return [1.0 - 2.0 ** (-i) for i in range(1, n + 1)]


def never_called(g, n):
    raise AssertionError("amplitudes must not be evaluated here")


# --- scenario construction and validation ---


def test_scenario_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        ActionScenario(Z2, "state", lambda i, g: 1.0)


def test_scenario_from_values_rejects_ragged_lists():
    with pytest.raises(ValueError, match="same length"):
        scenario_from_values(Z2, {(0,): [1.0, 1.0], (1,): [0.5]})


def test_scenario_from_values_rejects_empty_table():
    with pytest.raises(ValueError, match="at least one element"):
        scenario_from_values(Z2, {})


def test_scenario_from_values_missing_element_lookup():
    scn = scenario_from_values(FiniteAbelianGroup((4,)), {(1,): [0.5, 0.5]})
    with pytest.raises(KeyError, match="no amplitude data"):
        scn.amplitudes((2,), 2)


def test_scenario_from_values_records_length_and_indexes_from_one():
    scn = scenario_from_values(Z2, {(1,): [0.25, 0.75, 1.0]})
    assert scn.kind == "vector"
    assert scn.amplitudes((1,), 10).tolist() == [0.25, 0.75, 1.0]
    assert scn.amplitudes((1,), 1).tolist() == [0.25]


def test_scenario_from_rep_vectors_requires_unit_vectors():
    scn = scenario_from_rep_vectors(lambda i: pauli_rep(),
                                    lambda i: np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="unit vector"):
        scn.amplitudes((1, 0), 1)


def test_scenario_from_rep_vectors_pauli_spots():
    scn = scenario_from_rep_vectors(lambda i: pauli_rep(),
                                    lambda i: np.array([1.0, 0.0]))
    assert scn.group == Z2Z2
    # <U(g) e0, e0> is the upper-left entry of each hand-built word
    for g, m in PAULI_WORDS.items():
        assert scn.amplitudes(g, 1)[0] == pytest.approx(m[0, 0], abs=1e-15)


def test_scenario_from_regular_vectors_matches_twisted_inner_product():
    lat = IntegerLattice(2)
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    vectors = {i: box_vector(FolnerBox(2, i)) for i in (1, 2, 3)}
    scn = scenario_from_regular_vectors(lat, seq, lambda i: vectors[i])
    for x in [(1, 0), (0, 1), (2, -1)]:
        amplitudes = scn.amplitudes(lat.element(x), 3)
        for i in (1, 2, 3):
            direct = twisted_inner_product(seq.member(i), vectors[i], x)
            assert amplitudes[i - 1] == pytest.approx(direct, abs=1e-15)


def test_scenario_from_regular_vectors_inherits_sequence_length():
    u = MatrixCocycle(np.zeros((1, 1)))
    seq = from_list([u, u])
    scn = scenario_from_regular_vectors(IntegerLattice(1), seq,
                                        lambda i: point_mass((0,)))
    assert len(scn.amplitudes((1,), 10)) == 2


# --- trace scenarios ---


def test_rep_trace_scenario_pauli_amplitudes():
    scn = rep_trace_scenario(pauli_rep())
    assert scn.kind == "trace"
    for g, tr in PAULI_TRACES.items():
        for a in scn.amplitudes(g, 5):
            assert a == pytest.approx(tr, abs=1e-15)
    assert scn.term_model((1, 0)) == PowerModel(1.0, 0.0)
    assert scn.term_model((0, 0)) == PowerModel(0.0, 0.0)


def test_rep_trace_scenario_computes_each_trace_once_on_demand():
    pauli = pauli_rep()
    calls = []

    def matrix(g):
        calls.append(g)
        return pauli.matrix(g)

    scn = rep_trace_scenario(dataclasses.replace(pauli, matrix=matrix))
    assert calls == []
    verdict = trace_condition(scn, (1, 0), n_max=500)
    assert verdict.verdict == PROVED_DIVERGENT
    assert scn.amplitudes((0, 0), 3).tolist() == [1.0, 1.0, 1.0]
    assert calls == [(1, 0), (0, 0)]


def test_regular_trace_scenario_is_delta_at_identity():
    scn = regular_trace_scenario(Z2Z2)
    assert scn.amplitudes((0, 0), 1).tolist() == [1.0]
    for g in [(1, 0), (0, 1), (1, 1)]:
        assert scn.amplitudes(g, 1).tolist() == [0.0]
    lat_scn = regular_trace_scenario(IntegerLattice(1))
    assert lat_scn.amplitudes((0,), 3).tolist() == [1.0] * 3
    assert lat_scn.amplitudes((5,), 3).tolist() == [0.0] * 3
    assert lat_scn.term_model((5,)) == PowerModel(1.0, 0.0)
    assert lat_scn.term_model((0,)) == PowerModel(0.0, 0.0)


# --- extension condition ---


def test_extension_identity_short_circuits_without_amplitudes():
    scn = ActionScenario(Z2Z2, "vector", never_called)
    verdict = extension_condition(scn, (0, 0))
    assert verdict.verdict == PROVED_CONVERGENT
    assert verdict.partial_sum == 0.0
    assert verdict.terms_evaluated == 0
    assert verdict.tail_bound == 0.0
    assert "identity" in verdict.tail_derivation


def test_extension_point_mass_deficits_diverge():
    lat = IntegerLattice(1)
    scn = scenario_from_regular_vectors(
        lat, lambda i: MatrixCocycle(np.zeros((1, 1))),
        lambda i: point_mass((0,)))
    verdict = extension_condition(scn, (1,), model=PowerModel(1.0, 0.0), n_max=25)
    assert verdict.verdict == PROVED_DIVERGENT
    assert verdict.partial_sum == 25.0
    assert verdict.terms_evaluated == 25


def test_extension_explicit_model_overrides_attached_one():
    scn = regular_trace_scenario(Z2Z2)
    attached = extension_condition(scn, (1, 0), n_max=3)
    assert attached.verdict == PROVED_DIVERGENT
    override = extension_condition(scn, (1, 0),
                                   model=ExplicitModel((1.0, 1.0, 1.0)), n_max=3)
    assert override.verdict == INCONCLUSIVE
    assert "tail" in override.witness


def test_extension_respects_scenario_length():
    scn = scenario_from_values(Z2, {(1,): geometric_deficits(4)})
    verdict = extension_condition(scn, (1,), n_max=100)
    assert verdict.terms_evaluated == 4
    assert verdict.partial_sum == pytest.approx(1.0 - 2.0 ** -4, abs=1e-15)


def test_extension_rejects_oversize_amplitudes():
    scn = scenario_from_values(Z2, {(1,): [1.5, 0.2]})
    with pytest.raises(InvalidInnerProductError):
        extension_condition(scn, (1,))


# --- trace condition ---


def test_trace_condition_needs_trace_amplitudes():
    scn = scenario_from_values(Z2, {(1,): [0.5]}, kind="vector")
    with pytest.raises(ValueError, match="trace amplitudes"):
        trace_condition(scn, (1,))


def test_trace_condition_pauli_diverges_off_identity():
    scn = rep_trace_scenario(pauli_rep())
    for g in [(1, 0), (0, 1), (1, 1)]:
        verdict = trace_condition(scn, g, n_max=40)
        assert verdict.verdict == PROVED_DIVERGENT
        assert verdict.partial_sum == 40.0
    at_e = trace_condition(scn, (0, 0), n_max=40)
    assert at_e.verdict == PROVED_CONVERGENT
    assert at_e.partial_sum == 0.0


def test_trace_condition_geometric_amplitudes_converge():
    n = 12
    scn = scenario_from_values(Z2, {(1,): geometric_deficits(n)}, kind="trace")
    verdict = trace_condition(scn, (1,), model=GeometricModel(1.0, 0.5))
    assert verdict.verdict == PROVED_CONVERGENT
    assert verdict.partial_sum == pytest.approx(1.0 - 2.0 ** -n, abs=1e-15)
    assert verdict.tail_bound == pytest.approx(2.0 ** -n, rel=1e-12)
    assert verdict.partial_sum + verdict.tail_bound == pytest.approx(1.0, abs=1e-12)


# --- aggregated verdicts ---


def test_outer_certified_for_pauli_trace_scenario():
    scn = rep_trace_scenario(pauli_rep())
    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]
    verdict = inner_outer_verdict(scn, elements, n_max=30)
    assert verdict.status == OUTER_CERTIFIED
    assert "trace deficits diverge" in verdict.note
    assert SCOPE_NOTE in verdict.note
    assert [g for g, _ in verdict.reports] == [Z2Z2.element(g) for g in elements]
    assert verdict.reports[0][1].verdict == PROVED_CONVERGENT
    assert verdict.reports[0][1].partial_sum == 0.0
    for _, report in verdict.reports[1:]:
        assert report.verdict == PROVED_DIVERGENT


def test_vector_divergence_stays_inconclusive():
    lat = IntegerLattice(1)
    scn = scenario_from_regular_vectors(
        lat, lambda i: MatrixCocycle(np.zeros((1, 1))),
        lambda i: point_mass((0,)))
    verdict = inner_outer_verdict(scn, [(1,)],
                                  models={(1,): PowerModel(1.0, 0.0)}, n_max=20)
    assert verdict.status == INCONCLUSIVE
    assert "outerness itself needs trace amplitudes" in verdict.note
    assert SCOPE_NOTE in verdict.note
    assert verdict.reports[0][1].verdict == PROVED_DIVERGENT


def test_inner_certified_with_per_element_models():
    scn = scenario_from_values(Z2, {(1,): geometric_deficits(12)})
    verdict = inner_outer_verdict(scn, [(0,), (1,)],
                                  models={(1,): GeometricModel(1.0, 0.5)})
    assert verdict.status == INNER_CERTIFIED
    assert "absorb" in verdict.note
    assert all(r.verdict == PROVED_CONVERGENT for _, r in verdict.reports)


def test_missing_models_leave_verdict_inconclusive():
    scn = scenario_from_values(Z2, {(1,): geometric_deficits(12)})
    verdict = inner_outer_verdict(scn, [(1,)])
    assert verdict.status == INCONCLUSIVE
    assert "resists certification" in verdict.note


def test_inner_outer_needs_elements():
    scn = regular_trace_scenario(Z2)
    with pytest.raises(ValueError, match="at least one group element"):
        inner_outer_verdict(scn, [])


# --- gauge invariance of the deficit summands ---


def test_character_gauge_keeps_summands():
    lat = IntegerLattice(2)
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    phis = {i: box_vector(FolnerBox(2, 2)) for i in range(1, 7)}

    def character(i):
        return lambda x: cmath.exp(1j * (0.3 * x[0] - 0.2 * x[1]) / i)

    psis = {i: gauge_fix(character(i), phis[i], lat) for i in range(1, 7)}
    plain = scenario_from_regular_vectors(lat, seq, lambda i: phis[i])
    gauged = scenario_from_regular_vectors(lat, seq, lambda i: psis[i])
    for g in [(1, 0), (0, 1), (1, -1)]:
        x = lat.element(g)
        for i, a, b in zip(range(1, 7), plain.amplitudes(x, 6), gauged.amplitudes(x, 6)):
            # a character leaves the twist alone, so the amplitudes rotate by
            # the character value and the deficit summands coincide
            assert b == pytest.approx(character(i)(x) * a, abs=1e-12)
            assert (1.0 - abs(b)) == pytest.approx(1.0 - abs(a), abs=1e-12)
        lhs = extension_condition(plain, g, n_max=6)
        rhs = extension_condition(gauged, g, n_max=6)
        assert rhs.partial_sum == pytest.approx(lhs.partial_sum, abs=1e-12)


def test_quadratic_gauge_with_perturbed_twists_keeps_summands():
    lat = IntegerLattice(2)
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    phis = {i: box_vector(FolnerBox(2, 2)) for i in range(1, 6)}

    def rho(i):
        return quadratic_phase(0.1 * i, lat)

    plain = scenario_from_regular_vectors(lat, seq, lambda i: phis[i])
    gauged = scenario_from_regular_vectors(
        lat, lambda i: perturb(seq.member(i), rho(i)),
        lambda i: gauge_fix(rho(i), phis[i], lat))
    for g in [(1, 0), (0, 1), (2, 1)]:
        x = lat.element(g)
        for i, a, b in zip(range(1, 6), plain.amplitudes(x, 5), gauged.amplitudes(x, 5)):
            assert b == pytest.approx(rho(i)(x) * a, abs=1e-12)
        lhs = extension_condition(plain, g, n_max=5)
        rhs = extension_condition(gauged, g, n_max=5)
        assert rhs.partial_sum == pytest.approx(lhs.partial_sum, abs=1e-12)


# --- the class obstruction ---


def test_pauli_constant_family_is_obstructed():
    report = cohomological_obstruction(pauli_cocycle())
    assert report.status == OBSTRUCTED == "Obstructed"
    assert report.witness == ((1, 0), (0, 1))
    assert "not a coboundary" in report.detail


def test_trivial_reference_is_not_obstructed():
    report = cohomological_obstruction(trivial_cocycle(Z2Z2))
    assert report.status == NOT_OBSTRUCTED == "NotObstructed"
    assert report.witness is None
    assert "does not arise" in report.detail


def test_symmetric_matrix_classes_not_obstructed():
    u = MatrixCocycle(np.array([[0.3, 0.1], [0.1, -0.2]]))
    report = cohomological_obstruction([u, u])
    assert report.status == NOT_OBSTRUCTED


@pytest.mark.parametrize("epsilon", [0.2, 0.7, 1.3])
def test_obstruction_invariant_under_perturbation(epsilon):
    u = pauli_cocycle()
    rho = lambda x: cmath.exp(1j * epsilon * (x[0] + x[0] * x[1]))
    report = cohomological_obstruction([u, perturb(u, rho)], reference=u)
    assert report.status == OBSTRUCTED
    assert report.witness == ((1, 0), (0, 1))


def test_drifting_commutation_phases_are_inconclusive():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = cohomological_obstruction([MatrixCocycle(a), MatrixCocycle(2.0 * a)])
    assert report.status == INCONCLUSIVE == "Inconclusive"
    assert report.witness == ((1, 0), (0, 1))
    assert "drift" in report.detail


def test_reference_defaults_to_first_member():
    u = pauli_cocycle()
    assert cohomological_obstruction([u, u]) == cohomological_obstruction([u, u], reference=u)


def test_non_bicharacter_reference_raises():
    seq = one_free_coboundary_sequence(IntegerLattice(1), 3)
    # members share the trivial commutation phases but the reference variant
    # is outside the coboundary test's scope
    with pytest.raises(UnsupportedVariantError):
        cohomological_obstruction(seq)


def test_obstruction_group_mismatch():
    with pytest.raises(GroupMismatchError, match="different group"):
        cohomological_obstruction([pauli_cocycle()],
                                  reference=MatrixCocycle(np.zeros((2, 2))))


def test_unbounded_sequence_needs_count():
    seq = constant_sequence(pauli_cocycle())
    with pytest.raises(ValueError, match="explicit count"):
        cohomological_obstruction(seq)
    report = cohomological_obstruction(seq, count=3)
    assert report.status == OBSTRUCTED


def test_count_truncates_list_sources():
    u = pauli_cocycle()
    stranger = MatrixCocycle(np.zeros((2, 2)))
    report = cohomological_obstruction([u, stranger], count=1)
    assert report.status == OBSTRUCTED


def test_empty_class_list_rejected():
    with pytest.raises(ValueError, match="at least one"):
        cohomological_obstruction([])
