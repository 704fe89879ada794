"""Cocycle constructions, the commutator bicharacter and coboundary tests."""

import cmath
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.cocycles import (
    COBOUNDARY,
    CoboundaryCocycle,
    ConstructionError,
    MatrixBilinear,
    MatrixCocycle,
    NOT_COBOUNDARY,
    ProductCocycle,
    TableBilinear,
    TableCocycle,
    UnsupportedVariantError,
    bilinearity_residual,
    canonicalize_phases,
    check_cocycle_identity,
    coboundary_test,
    cocycle_from_bilinear,
    commutator_bicharacter,
    conjugate_cocycle,
    constant_sequence,
    flatten_matrix_cocycle,
    geometric_matrix_sequence,
    from_list,
    lift_bilinear,
    one_free_coboundary_sequence,
    partial_product,
    pauli_cocycle,
    pauli_sigma,
    perturb,
    quadratic_phase,
    residual_max,
    sample_triples,
    sign_cocycle_z2,
    trivial_cocycle,
)
from twistlab.groups import FiniteAbelianGroup, GroupMismatchError, IntegerLattice, sample_elements

RNG = np.random.default_rng(20240817)

ROTATION = np.array([[0.0, math.pi / 2], [-math.pi / 2, 0.0]])


# --- phase canonicalization ---


def test_canonicalize_into_half_open_interval():
    a = canonicalize_phases([[3 * math.pi, -math.pi, 2 * math.pi, 0.5]])
    assert a[0, 0] == pytest.approx(math.pi)
    assert a[0, 1] == pytest.approx(math.pi)  # -pi is folded to +pi
    assert a[0, 2] == pytest.approx(0.0)
    assert a[0, 3] == 0.5
    assert np.all(a <= math.pi) and np.all(a > -math.pi)


# --- matrix cocycles ---


def test_matrix_cocycle_value():
    u = MatrixCocycle(ROTATION)
    # x.(Ay) with x=(1,0), y=(0,1) is pi/2
    assert u.value((1, 0), (0, 1)) == pytest.approx(cmath.exp(1j * math.pi / 2))
    assert u.value((0, 1), (1, 0)) == pytest.approx(cmath.exp(-1j * math.pi / 2))
    assert u.value((0, 0), (5, -3)) == pytest.approx(1.0)


def test_matrix_cocycle_identity_exact():
    u = MatrixCocycle(ROTATION)
    triples = sample_triples(u.group, 300, 6, np.random.default_rng(3))
    assert check_cocycle_identity(u, triples) < 1e-12


def test_matrix_cocycle_is_read_only():
    u = MatrixCocycle(ROTATION)
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 1.0


def test_product_of_matrix_cocycles_adds_matrices():
    a = np.array([[0.3]])
    b = np.array([[0.4]])
    prod = ProductCocycle([MatrixCocycle(a), MatrixCocycle(b)])
    expect = MatrixCocycle(a + b)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert prod.value((x,), (y,)) == pytest.approx(
                expect.value((x,), (y,)))
    flat = flatten_matrix_cocycle(prod)
    assert flat is not None
    assert flat[0, 0] == pytest.approx(0.7)


def test_conjugate_cocycle_matrix():
    u = MatrixCocycle(ROTATION)
    v = conjugate_cocycle(u)
    for x in [(1, 0), (2, -1)]:
        for y in [(0, 1), (-1, 3)]:
            assert v.value(x, y) == pytest.approx(u.value(x, y).conjugate())


# --- tables ---


def test_pauli_table_spot_values():
    u = pauli_cocycle()
    # u((a1,b1),(a2,b2)) = (-1)^(a2 b1)
    assert u.value((1, 0), (0, 1)) == pytest.approx(1.0)
    assert u.value((0, 1), (1, 0)) == pytest.approx(-1.0)
    assert u.value((1, 1), (1, 1)) == pytest.approx(-1.0)
    assert u.value((0, 0), (1, 1)) == pytest.approx(1.0)


def test_pauli_cocycle_identity_exhaustive():
    u = pauli_cocycle()
    els = u.group.elements()
    triples = [(x, y, z) for x in els for y in els for z in els]
    assert check_cocycle_identity(u, triples) < 1e-12


def test_sign_z2_matches_one_coordinate_pattern():
    u = sign_cocycle_z2()
    assert u.value((1,), (1,)) == pytest.approx(-1.0)
    assert u.value((0,), (1,)) == pytest.approx(1.0)
    assert u.value((1,), (0,)) == pytest.approx(1.0)


def test_table_cocycle_from_function_vs_direct():
    g = FiniteAbelianGroup((2, 2))
    u = TableCocycle.from_function(g, lambda x, y: -1.0 if (y[0] * x[1]) % 2 else 1.0)
    v = pauli_cocycle()
    for x in g.elements():
        for y in g.elements():
            assert u.value(x, y) == pytest.approx(v.value(x, y))


def test_table_cocycle_rejects_non_unimodular():
    g = FiniteAbelianGroup((2,))
    with pytest.raises(ConstructionError):
        TableCocycle(g, [[1.0, 1.0], [1.0, 2.0]])


# --- commutator bicharacter ---


def test_kappa_of_matrix_cocycle_is_antisymmetrized_matrix():
    u = MatrixCocycle(np.array([[0.2, 0.5], [0.1, -0.3]]))
    k = commutator_bicharacter(u)
    assert isinstance(k, MatrixCocycle)
    expected = canonicalize_phases(u.matrix - u.matrix.T)
    assert np.allclose(k.matrix, expected)


def test_kappa_at_pi_edge_compares_by_value():
    # A with a pi entry: A - A^T has a -pi entry that canonicalization folds
    # to +pi, so the comparison has to happen on evaluated values.
    a = np.array([[0.0, math.pi], [0.0, 0.0]])
    k = commutator_bicharacter(MatrixCocycle(a))
    want = MatrixCocycle(np.array([[0.0, math.pi], [-math.pi, 0.0]]))
    for x in [(1, 0), (0, 1), (2, 3), (-1, 2)]:
        for y in [(1, 0), (0, 1), (1, -2)]:
            assert k.value(x, y) == pytest.approx(want.value(x, y), abs=1e-12)


def test_upper_triangular_pi_matrix_not_coboundary():
    u = MatrixCocycle(np.array([[0.0, math.pi], [0.0, 0.0]]))
    verdict = coboundary_test(u)
    assert verdict.status == NOT_COBOUNDARY


def test_squared_pauli_has_trivial_kappa():
    u = pauli_cocycle()
    squared = ProductCocycle([u, u])
    k = commutator_bicharacter(squared)
    for x in u.group.elements():
        for y in u.group.elements():
            assert k.value(x, y) == pytest.approx(1.0)


def test_kappa_pauli_spot_value():
    k = commutator_bicharacter(pauli_cocycle())
    assert k.value((1, 0), (0, 1)) == pytest.approx(-1.0)
    assert k.value((0, 1), (1, 0)) == pytest.approx(-1.0)
    assert k.value((1, 0), (1, 0)) == pytest.approx(1.0)


def test_kappa_invariant_under_perturbation_matrix():
    u = MatrixCocycle(ROTATION)
    rho = quadratic_phase(0.37, u.group)
    v = perturb(u, rho)
    ku = commutator_bicharacter(u)
    kv = commutator_bicharacter(v)
    pts = [(1, 0), (0, 1), (2, -1), (-3, 2)]
    for x in pts:
        for y in pts:
            assert kv.value(x, y) == pytest.approx(ku.value(x, y), abs=1e-12)


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_kappa_is_bimultiplicative(x1, x2, y1, y2, z1, z2):
    k = commutator_bicharacter(MatrixCocycle(ROTATION))
    x, y, z = (x1, x2), (y1, y2), (z1, z2)
    lhs = k.value((x1 + y1, x2 + y2), z)
    rhs = k.value(x, z) * k.value(y, z)
    assert lhs == pytest.approx(rhs, abs=1e-9)


# --- coboundary tests ---


def test_trivial_cocycle_is_coboundary():
    verdict = coboundary_test(trivial_cocycle(IntegerLattice(2)))
    assert verdict.status == COBOUNDARY


def test_sign_z2_is_coboundary():
    # (-1)^(xy) is symmetric, and H^2 of a cyclic group is trivial.
    verdict = coboundary_test(sign_cocycle_z2())
    assert verdict.status == COBOUNDARY


def test_pauli_is_not_coboundary():
    verdict = coboundary_test(pauli_cocycle())
    assert verdict.status == NOT_COBOUNDARY
    assert verdict.witness is not None
    x, y = verdict.witness
    k = commutator_bicharacter(pauli_cocycle())
    assert abs(k.value(x, y) - 1.0) > 0.5


def test_rotation_matrix_cocycle_not_coboundary():
    verdict = coboundary_test(MatrixCocycle(ROTATION))
    assert verdict.status == NOT_COBOUNDARY


def test_coboundary_test_rejects_product_variants():
    # Perturbations are products, not bicharacters; the decision procedure
    # only covers bicharacter variants and must say so.
    g = IntegerLattice(1)
    u = perturb(trivial_cocycle(g), quadratic_phase(0.2, g))
    with pytest.raises(UnsupportedVariantError):
        coboundary_test(u)


def test_coboundary_test_rejects_a_table_that_is_not_a_bicharacter():
    z4 = FiniteAbelianGroup((4,))
    table = TableCocycle.from_function(
        z4, CoboundaryCocycle(z4, quadratic_phase(0.3, z4)).value)
    with pytest.raises(UnsupportedVariantError,
                       match="table cocycle is not a bicharacter; coboundary test does not apply"):
        coboundary_test(table)


def test_perturb_by_character_changes_nothing():
    # Characters are additive in the exponent, so d rho is identically 1.
    g = IntegerLattice(1)
    u = perturb(trivial_cocycle(g), lambda x: cmath.exp(0.7j * x[0]))
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert u.value((x,), (y,)) == pytest.approx(1.0, abs=1e-12)


def test_coboundary_cocycle_values_match_definition():
    g = IntegerLattice(1)
    eps = 0.1
    u = CoboundaryCocycle(g, quadratic_phase(eps, g))
    # d rho (x, y) = exp(i eps (x^2 + y^2 - (x+y)^2)) = exp(-2 i eps x y)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert u.value((x,), (y,)) == pytest.approx(
                cmath.exp(-2j * eps * x * y))


# --- bilinear maps and lifted cocycles ---


def test_pauli_sigma_values():
    s = pauli_sigma()
    assert s.value((1,), (1,)) == pytest.approx(-1.0)
    assert s.value((0,), (1,)) == pytest.approx(1.0)
    assert bilinearity_residual(s, [((1,), (1,), (1,), (1,))]) < 1e-12


def test_bilinearity_residual_calls_no_image_and_no_value(monkeypatch):
    sigma = MatrixBilinear(np.array([[0.3, -1.1], [0.7, 0.2]]))
    rng = np.random.default_rng(4)
    samples = [tuple(tuple(int(v) for v in rng.integers(-2, 3, 2)) for _ in range(4))
               for _ in range(40)]
    expected = 0.0
    for (a, ap, b, bp) in samples:
        expected = max(expected, abs(
            sigma.value(sigma.a_group.add(a, ap), b) - sigma.value(a, b) * sigma.value(ap, b)))
        expected = max(expected, abs(
            sigma.value(a, sigma.b_group.add(b, bp)) - sigma.value(a, b) * sigma.value(a, bp)))
    calls = {"value": [], "image": []}
    for name in calls:
        method = getattr(MatrixBilinear, name)
        monkeypatch.setattr(MatrixBilinear, name, lambda self, *args, _name=name, _method=method:
                            calls[_name].append(args) or _method(self, *args))
    assert bilinearity_residual(sigma, samples) == expected
    # The images come from one stacked gemv (cocycles._gemv_rows).
    assert calls == {"value": [], "image": []}


def nan_max(worst, value):
    """Python's max, except that a NaN residual is kept: a NaN check never passes."""
    if math.isnan(worst) or math.isnan(value):
        return math.nan
    return max(worst, value)


def pointwise_bilinearity_residual(sigma, samples):
    """Reference: every value recomputed, complex arithmetic as Python does it."""
    worst = 0.0
    for a, ap, b, bp in samples:
        ab = sigma.value(a, b)
        worst = nan_max(worst, abs(sigma.value(sigma.a_group.add(a, ap), b)
                                   - ab * sigma.value(ap, b)))
        worst = nan_max(worst, abs(sigma.value(a, sigma.b_group.add(b, bp))
                                   - ab * sigma.value(a, bp)))
    return worst


def pointwise_cocycle_identity(u, triples):
    g = u.group
    worst = 0.0
    for x, y, z in triples:
        lhs = u.value(x, y) * u.value(g.add(x, y), z)
        worst = nan_max(worst, abs(lhs - u.value(y, z) * u.value(x, g.add(y, z))))
    return worst


small_moduli = st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple)


def random_phases(rng, shape, kind):
    """Quarter turns give exact zeros and ties; wide scales and NaN test the rest."""
    if kind == "quarter":
        return rng.integers(-4, 5, shape) * (math.pi / 2)
    phases = rng.uniform(-4.0, 4.0, shape) * rng.choice([1e-9, 1.0, 1e3], shape)
    if kind == "nan":
        phases[rng.random(shape) < 0.2] = math.nan
    return phases


@settings(max_examples=80, deadline=None)
@given(small_moduli, small_moduli, st.integers(0, 2**32 - 1), st.integers(0, 60),
       st.sampled_from(["quarter", "wide", "nan"]))
def test_table_bilinearity_residual_equals_the_pointwise_loop(a_moduli, b_moduli, seed,
                                                              count, kind):
    rng = np.random.default_rng(seed)
    a_group, b_group = FiniteAbelianGroup(a_moduli), FiniteAbelianGroup(b_moduli)
    sigma = TableBilinear(a_group, b_group,
                          random_phases(rng, (a_group.order, b_group.order), kind))
    draws = [sample_elements(g, count, 0, rng) for g in (a_group, a_group, b_group, b_group)]
    samples = list(zip(*draws))
    got = bilinearity_residual(sigma, samples)
    assert type(got) is float
    assert got.hex() == pointwise_bilinearity_residual(sigma, samples).hex()


def test_table_bilinearity_residual_names_a_stray_element():
    sigma = pauli_sigma()
    with pytest.raises(GroupMismatchError, match=r"\(2,\) is not an element"):
        bilinearity_residual(sigma, [((1,), (0,), (1,), (1,)), ((0,), (1,), (2,), (0,))])
    # the first stray one in sample order, a, b, a', b' within a sample
    with pytest.raises(GroupMismatchError, match=r"\(2,\) is not an element"):
        bilinearity_residual(sigma, [((1,), (0,), (2,), (1,)), ((3,), (1,), (0,), (0,))])


@settings(max_examples=60, deadline=None)
@given(small_moduli, st.integers(0, 2**32 - 1), st.integers(0, 80),
       st.sampled_from(["quarter", "wide"]), st.booleans())
def test_finite_cocycle_identity_equals_the_pointwise_loop(moduli, seed, count, kind, product):
    rng = np.random.default_rng(seed)
    group = FiniteAbelianGroup(moduli)
    n = group.order
    table = np.exp(1j * random_phases(rng, (n, n), kind))
    table[0, :] = table[:, 0] = 1.0
    u = TableCocycle(group, table)
    if product:
        u = ProductCocycle([u, CoboundaryCocycle(group, quadratic_phase(0.3, group))])
    triples = sample_triples(group, count, 0, rng)
    calls = []
    value = TableCocycle.value

    def counted(self, x, y):
        calls.append((x, y))
        return value(self, x, y)

    with patch.object(TableCocycle, "value", counted):
        got = check_cocycle_identity(u, triples)
    assert got.hex() == pointwise_cocycle_identity(u, triples).hex()
    assert len(calls) == len(set(calls))


def test_matrix_bilinear_value():
    s = MatrixBilinear(np.array([[math.pi / 2]]))
    assert s.value((1,), (1,)) == pytest.approx(1j)
    assert s.value((2,), (1,)) == pytest.approx(-1.0)


def test_lift_bilinear_orientation():
    """The lifted cocycle twists the second argument's a-part against the
    first argument's b-part: u((a1,b1),(a2,b2)) = conj(sigma(a2, b1))."""
    u = lift_bilinear(np.array([[math.pi / 2]]))
    assert u.value((1, 0), (0, 1)) == pytest.approx(1.0)
    assert u.value((0, 1), (1, 0)) == pytest.approx(cmath.exp(-1j * math.pi / 2))
    triples = sample_triples(u.group, 200, 4, np.random.default_rng(11))
    assert check_cocycle_identity(u, triples) < 1e-12


def test_cocycle_from_bilinear_matches_pauli_table():
    u = cocycle_from_bilinear(pauli_sigma())
    v = pauli_cocycle()
    for x in v.group.elements():
        for y in v.group.elements():
            assert u.value(x, y) == pytest.approx(v.value(x, y))


def test_table_bilinear_shape_validation():
    z2 = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError):
        TableBilinear(z2, z2, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


# --- sequences ---


def test_constant_sequence_is_unbounded():
    u = pauli_cocycle()
    seq = constant_sequence(u)
    assert seq.member(1) is u
    assert seq.member(100) is u
    assert seq.length is None
    with pytest.raises(IndexError):
        seq.member(0)


def test_from_list_enforces_length():
    u, v = pauli_cocycle(), sign_cocycle_z2()
    seq = from_list([u, v])
    assert seq.member(1) is u
    assert seq.member(2) is v
    with pytest.raises(IndexError):
        seq.member(3)


def test_geometric_matrix_sequence_norms_halve():
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    for i in range(1, 6):
        member = seq.member(i)
        assert member.sup_entry_norm == pytest.approx(
            (math.pi / 2) * 0.5 ** i)


def test_partial_product_of_geometric_members():
    """prod_{i<=n} u_{r^i A}(x, y) = u_{(r + ... + r^n) A}(x, y)."""
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    x, y = (1, 0), (0, 1)
    for n in [1, 3, 7]:
        got = partial_product(seq, n, x, y)
        scale = sum(0.5 ** i for i in range(1, n + 1))
        want = MatrixCocycle(scale * ROTATION).value(x, y)
        assert got == pytest.approx(want)


def test_one_free_coboundary_sequence_values():
    g = IntegerLattice(1)
    seq = one_free_coboundary_sequence(g, 6)
    x = (1,)
    # member i is d rho_i with rho_i = exp(i 2^-i x^2), so at (e1, e1) the
    # value is exp(-2 i 2^-i); the partial product telescopes the exponents.
    for i in range(1, 7):
        assert seq.member(i).value(x, x) == pytest.approx(
            cmath.exp(-2j * 2.0 ** -i))
    prod = partial_product(seq, 6, x, x)
    assert prod == pytest.approx(cmath.exp(-2j * (1 - 2.0 ** -6)))
    assert seq.witnesses is not None


def test_one_free_sequence_members_are_not_one():
    seq = one_free_coboundary_sequence(IntegerLattice(2), 8)
    wx, wy = seq.witnesses[0]
    for i in range(1, 9):
        assert abs(seq.member(i).value(wx, wy) - 1.0) > 1e-8
        triples = sample_triples(IntegerLattice(2), 30, 4,
                                 np.random.default_rng(i))
        assert check_cocycle_identity(seq.member(i), triples) < 1e-12


# --- unsupported variants ---


def test_coboundary_test_unsupported_callable_variant():
    g = IntegerLattice(1)

    class Odd:
        group = g

        def value(self, x, y):
            return 1.0

    with pytest.raises(UnsupportedVariantError):
        coboundary_test(Odd())


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0))
@settings(max_examples=50, deadline=None)
def test_random_matrix_cocycles_satisfy_identity(a, b, c, d):
    u = MatrixCocycle(np.array([[a, b], [c, d]]))
    triples = sample_triples(u.group, 40, 5, np.random.default_rng(1))
    assert check_cocycle_identity(u, triples) < 1e-11


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(-10, 10),
       st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
@settings(max_examples=80, deadline=None)
def test_matrix_product_law_and_chord_bound(a, b, x1, x2, y1, y2):
    ma = np.array([[a, 0.0], [0.0, 0.0]])
    mb = np.array([[0.0, b], [0.0, 0.0]])
    x, y = (x1, x2), (y1, y2)
    ua, ub = MatrixCocycle(ma), MatrixCocycle(mb)
    combined = MatrixCocycle(ma + mb)
    assert ua.value(x, y) * ub.value(x, y) == pytest.approx(
        combined.value(x, y), abs=1e-12)
    norm = max(abs(a), abs(b))
    l1x, l1y = abs(x1) + abs(x2), abs(y1) + abs(y2)
    assert abs(1.0 - combined.value(x, y)) <= norm * l1x * l1y + 1e-12


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60, deadline=None)
def test_matrix_cocycle_is_bicharacter(x1, x2, xp1, xp2, y1, y2):
    u = MatrixCocycle(ROTATION)
    x, xp, y = (x1, x2), (xp1, xp2), (y1, y2)
    lhs = u.value((x1 + xp1, x2 + xp2), y)
    assert lhs == pytest.approx(u.value(x, y) * u.value(xp, y), abs=1e-10)


def test_lift_diagonal_matches_bilinear_on_diagonal():
    d = np.array([[0.4, -0.2], [0.1, 0.9]])
    u = lift_bilinear(d)
    sigma = MatrixBilinear(d)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        b = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        assert u.value(a + b, a + b) == pytest.approx(
            sigma.value(a, b).conjugate(), abs=1e-12)


# --- table checks without order x order temporaries ---


def test_a_trivial_table_is_one_entry_and_its_check_stays_small():
    """Z64xZ64 once took a 268 MB table of ones and full-size temporaries."""
    g = FiniteAbelianGroup((64, 64))
    tracemalloc.start()
    try:
        u = trivial_cocycle(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert u.table.shape == (g.order, g.order) and u.table.strides == (0, 0)
    assert u.value((3, 5), (63, 1)) == 1.0 + 0.0j


def test_commutator_and_conjugate_keep_a_one_entry_table_one_entry():
    """The obstruction check on trivial Z64xZ64 once peaked near 800 MB:
    the commutator and the conjugate each rebuilt a full table."""
    from twistlab.actions import cohomological_obstruction

    g = FiniteAbelianGroup((64, 64))
    u = trivial_cocycle(g)
    tracemalloc.start()
    try:
        report = cohomological_obstruction(u)
        kappa, bar = commutator_bicharacter(u), conjugate_cocycle(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert report.status == "Inconclusive" and report.witness is None
    for w in (kappa, bar):
        assert w.table.shape == (g.order, g.order) and w.table.strides == (0, 0)
    # One entry broadcast or not, the entries are the full table's.
    small = FiniteAbelianGroup((3, 5))
    one, full = trivial_cocycle(small).table, np.ones((15, 15), dtype=complex)
    assert commutator_bicharacter(TableCocycle(small, one)).table.tobytes() == (
        full * np.conj(full.T)).tobytes()
    assert conjugate_cocycle(TableCocycle(small, one)).table.tobytes() == np.conj(full).tobytes()


def test_commutator_and_conjugate_of_a_full_table_are_unchanged():
    u = pauli_cocycle()
    assert commutator_bicharacter(u).table.tobytes() == (u.table * np.conj(u.table.T)).tobytes()
    assert conjugate_cocycle(u).table.tobytes() == np.conj(u.table).tobytes()
    assert commutator_bicharacter(u).table.strides != (0, 0)


@pytest.mark.parametrize("moduli", [(3,), (300,), (17, 19)])
@pytest.mark.parametrize("bad", [1.0 + 1e-9, 0.5, math.nan, math.inf])
def test_the_blocked_modulus_check_decides_as_one_whole_table_check(moduli, bad):
    """Row blocks of 218 and 202 rows split the larger tables; a NaN entry
    passes, as it passed the one-expression check."""
    g = FiniteAbelianGroup(moduli)
    n = g.order
    for row in (1, n // 2, n - 1):
        tab = np.ones((n, n), dtype=complex)
        tab[row, n - 1] = bad
        whole_check_refuses = bool(np.max(np.abs(np.abs(tab) - 1.0)) > 1e-12)
        assert whole_check_refuses != math.isnan(bad)
        if whole_check_refuses:
            with pytest.raises(ConstructionError, match="modulus 1"):
                TableCocycle(g, tab)
        else:
            TableCocycle(g, tab)


def test_residual_folds_keep_a_nan():
    assert math.isnan(residual_max(0.0, math.nan))
    assert math.isnan(residual_max(math.nan, 1.0))
    assert residual_max(0.5, 0.25) == 0.5 and residual_max(0.25, 0.5) == 0.5
    group = FiniteAbelianGroup((3, 3))
    u = perturb(trivial_cocycle(group), quadratic_phase(math.nan, group))
    triples = [((1, 0), (1, 0), (2, 1)), ((0, 0), (0, 0), (0, 0))]
    assert math.isnan(check_cocycle_identity(u, triples))
    sigma = MatrixBilinear(np.array([[math.nan, 0.0], [0.0, 0.1]]))
    assert math.isnan(bilinearity_residual(sigma, [((1, 0), (0, 1), (1, 0), (0, 1))]))
