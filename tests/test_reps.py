"""Twisted regular representations, CCR pairs and the absorption check."""

import ast
import cmath
import copy
import math
import tracemalloc
from functools import cached_property
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench_support import DENSE_REPS_SEEDS, dense_reps_reports, one_blas_thread
from twistlab import cli, reps
from twistlab.cocycles import (
    BilinearCocycle,
    CoboundaryCocycle,
    Cocycle,
    MatrixBilinear,
    MatrixCocycle,
    ProductCocycle,
    TableBilinear,
    TableCocycle,
    cocycle_from_bilinear,
    pauli_cocycle,
    pauli_sigma,
    perturb,
    quadratic_phase,
    sign_cocycle_z2,
    trivial_cocycle,
)
from twistlab.groups import FiniteAbelianGroup, FolnerBox, GroupMismatchError, IntegerLattice
from twistlab.reps import (
    CCRPair,
    ConstructionError,
    DimensionCapError,
    ProjectiveRep,
    TruncatedVector,
    box_vector,
    ccr_pair,
    ccr_to_projective,
    fell_absorption_check,
    pauli_rep,
    point_mass,
    projective_relation_check,
    regular_rep,
    regular_rep_matrix,
    rep_inner_product,
    spectral_multiset_distance,
    tensor_rep,
    twisted_inner_product,
    unitarity_residual,
    weak_containment_overlap,
)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGN = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dense_window_inner_product(u, box, x):
    """Independent oracle: materialize lambda_u(x) on the window and take
    (M phi, phi) for the normalized box vector."""
    pts = tuple(box.points())
    idx = {p: i for i, p in enumerate(pts)}
    g = u.group
    n = len(pts)
    mat = np.zeros((n, n), dtype=complex)
    for z in pts:
        src = g.add(z, g.neg(g.element(x)))
        if src in idx:
            mat[idx[z], idx[src]] = u.value(g.neg(z), x)
    vec = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    return complex(np.vdot(vec, mat @ vec))


# --- regular representation ---


def test_regular_rep_matrix_spot_entries():
    g = FiniteAbelianGroup((2, 2))
    u = pauli_cocycle()
    m = regular_rep_matrix(u, g, (1, 0))
    # lambda(x) delta_g lands on delta_{x+g} with phase u(-(x+g), x)
    assert m[g.index((1, 1)), g.index((0, 1))] == pytest.approx(-1.0)
    assert m[g.index((1, 0)), g.index((0, 0))] == pytest.approx(1.0)
    # one nonzero entry per column
    assert np.count_nonzero(m) == g.order


def test_regular_rep_is_unitary_and_projective():
    g = FiniteAbelianGroup((2, 2))
    rep = regular_rep(pauli_cocycle(), g)
    assert rep.dimension == 4
    for x in g.elements():
        assert unitarity_residual(rep.matrix(x)) < 1e-12
    assert projective_relation_check(rep) < 1e-12


def test_regular_rep_identity_is_identity_matrix():
    g = FiniteAbelianGroup((3,))
    rep = regular_rep(trivial_cocycle(g), g)
    assert np.allclose(rep.matrix((0,)), np.eye(3))


def test_regular_rep_rejects_lattice_and_mismatch():
    with pytest.raises(GroupMismatchError):
        regular_rep_matrix(trivial_cocycle(IntegerLattice(1)), IntegerLattice(1), (0,))
    with pytest.raises(GroupMismatchError):
        regular_rep(sign_cocycle_z2(), FiniteAbelianGroup((2, 2)))


def test_regular_rep_dimension_cap(monkeypatch):
    g = FiniteAbelianGroup((5, 5))
    monkeypatch.setattr(reps, "DIMENSION_CAP", 24)
    with pytest.raises(DimensionCapError):
        regular_rep_matrix(trivial_cocycle(g), g, (0, 0))


def test_regular_rep_refuses_infinite_groups_caps_and_mismatches(monkeypatch):
    z2, z3, z5 = (FiniteAbelianGroup((k,)) for k in (2, 3, 5))
    with pytest.raises(GroupMismatchError, match="dense regular representation needs a finite group"):
        regular_rep(trivial_cocycle(IntegerLattice(1)), IntegerLattice(1))
    monkeypatch.setattr(reps, "DIMENSION_CAP", 4)
    with pytest.raises(DimensionCapError, match="group order 5 exceeds cap 4"):
        regular_rep(trivial_cocycle(z5), z5)
    with pytest.raises(GroupMismatchError, match="cocycle and group disagree"):
        regular_rep_matrix(trivial_cocycle(z2), z3, (0,))


def test_relation_check_needs_pairs_beyond_small_orders():
    g = FiniteAbelianGroup((3, 3, 3, 3))
    rep = regular_rep(trivial_cocycle(g), g)
    with pytest.raises(ValueError):
        projective_relation_check(rep)
    pairs = [((1, 0, 0, 0), (0, 1, 2, 0)), ((2, 2, 2, 2), (1, 1, 1, 1))]
    assert projective_relation_check(rep, pairs) < 1e-12


# --- the Pauli pair ---


def test_pauli_rep_matrices():
    rep = pauli_rep()
    assert np.allclose(rep.matrix((1, 0)), FLIP)
    assert np.allclose(rep.matrix((0, 1)), SIGN)
    assert np.allclose(rep.matrix((1, 1)), FLIP @ SIGN)
    assert projective_relation_check(rep) < 1e-15


def test_pauli_rep_cocycle_is_pauli_table():
    rep = pauli_rep()
    u = pauli_cocycle()
    for x in rep.group.elements():
        for y in rep.group.elements():
            assert rep.cocycle.value(x, y) == pytest.approx(u.value(x, y))


# --- truncated vectors ---


def test_truncated_vector_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TruncatedVector(((0,), (0,)), np.array([0.8, 0.6]))
    with pytest.raises(ConstructionError):
        TruncatedVector(((0,), (1,)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        TruncatedVector(((0,),), np.array([0.6, 0.8]))


def test_normalized_constructor():
    v = TruncatedVector.normalized([(0,), (1,)], [3.0, 4.0])
    assert v.value_at((0,)) == pytest.approx(0.6)
    assert v.value_at((2,)) == 0.0
    with pytest.raises(ConstructionError):
        TruncatedVector.normalized([(0,)], [0.0])


def test_box_vector_is_flat_unit_vector():
    v = box_vector(FolnerBox(2, 2))
    assert len(v.points) == 9
    assert float(np.linalg.norm(v.values)) == pytest.approx(1.0)
    assert v.value_at((1, 2)) == pytest.approx(1.0 / 3.0)


def test_point_mass_inner_products():
    u = MatrixCocycle(np.array([[0.3]]))
    phi = point_mass((0,))
    assert twisted_inner_product(u, phi, (0,)) == pytest.approx(1.0)
    assert twisted_inner_product(u, phi, (1,)) == pytest.approx(0.0)


# --- inner products against the dense oracle ---


def test_rep_inner_product_matches_dense_window():
    rng = np.random.default_rng(42)
    for rank in (1, 2):
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, size=(rank, rank))
            u = MatrixCocycle(a)
            for m in (0, 2, 5):
                box = FolnerBox(rank, m)
                for _ in range(4):
                    x = tuple(int(t) for t in rng.integers(-3, 4, size=rank))
                    got = rep_inner_product(u, box, x)
                    want = dense_window_inner_product(u, box, x)
                    assert got == pytest.approx(want, abs=1e-12)


def test_rep_inner_product_agrees_with_truncated_vector_path():
    u = MatrixCocycle(np.array([[0.2, -0.6], [0.4, 0.1]]))
    box = FolnerBox(2, 3)
    phi = box_vector(box)
    for x in [(0, 0), (1, 0), (2, -1), (3, 3)]:
        assert rep_inner_product(u, box, x) == pytest.approx(
            twisted_inner_product(u, phi, x), abs=1e-12)


def test_rep_inner_product_offset_box():
    u = MatrixCocycle(np.array([[0.5]]))
    box = FolnerBox(1, 4, offset=(7,))
    phi = box_vector(box)
    for x in [(0,), (1,), (-2,)]:
        assert rep_inner_product(u, box, x) == pytest.approx(
            twisted_inner_product(u, phi, x), abs=1e-12)


def test_rep_inner_product_vanishes_without_overlap():
    u = MatrixCocycle(np.array([[0.5]]))
    assert rep_inner_product(u, FolnerBox(1, 3), (9,)) == 0.0


def test_rep_inner_product_walks_non_matrix_variants():
    g = IntegerLattice(1)
    u = perturb(MatrixCocycle(np.array([[0.4]])), quadratic_phase(0.05, g))
    box = FolnerBox(1, 5)
    for x in [(1,), (2,)]:
        assert rep_inner_product(u, box, x) == pytest.approx(
            dense_window_inner_product(u, box, x), abs=1e-12)


def test_rep_inner_product_group_mismatch():
    u = MatrixCocycle(np.array([[0.4]]))
    with pytest.raises(GroupMismatchError):
        rep_inner_product(u, FolnerBox(2, 3), (1, 0))


def test_trivial_cocycle_inner_product_is_folner_ratio():
    u = trivial_cocycle(IntegerLattice(1))
    box = FolnerBox(1, 9)
    got = rep_inner_product(u, box, (1,))
    assert got == pytest.approx(9.0 / 10.0)


def test_weak_containment_overlap_matches_folner_ratio():
    box = FolnerBox(1, 9)
    phi = box_vector(box)
    assert weak_containment_overlap(phi, (1,)) == pytest.approx(9.0 / 10.0)
    box2 = FolnerBox(2, 4)
    phi2 = box_vector(box2)
    assert weak_containment_overlap(phi2, (1, 2)) == pytest.approx(
        (4.0 * 3.0) / 25.0)


# --- clock-and-shift pairs ---


def test_pauli_ccr_pair_matrices():
    pair = ccr_pair(pauli_sigma(), FiniteAbelianGroup((2,)))
    assert pair.dimension == 2
    assert not pair.truncated
    assert np.allclose(pair.clock((1,)), SIGN)
    assert np.allclose(pair.shift((1,)), FLIP)
    samples = [((a,), (b,)) for a in range(2) for b in range(2)]
    assert pair.relation_residual(samples) < 1e-15
    assert pair.boundary_deficit((1,)) == 0
    assert pair.unitarity_defect((1,)) < 1e-15


def test_ccr_pair_rejects_mismatched_sigma():
    with pytest.raises(GroupMismatchError):
        ccr_pair(pauli_sigma(), FiniteAbelianGroup((3,)))
    with pytest.raises(GroupMismatchError):
        ccr_pair(MatrixBilinear(np.array([[0.3]])), FiniteAbelianGroup((2,)))
    with pytest.raises(GroupMismatchError):
        ccr_pair(pauli_sigma(), FolnerBox(1, 3))


def test_ccr_pair_cap(monkeypatch):
    monkeypatch.setattr(reps, "DIMENSION_CAP", 50)
    with pytest.raises(DimensionCapError):
        ccr_pair(MatrixBilinear(np.array([[0.1]])), FolnerBox(1, 100))


def test_window_ccr_pair_truncation_accounting():
    theta = 0.7
    pair = ccr_pair(MatrixBilinear(np.array([[theta]])), FolnerBox(1, 4))
    assert pair.dimension == 5
    assert pair.truncated
    # clock is exact: diag(exp(i theta a y)) over the window
    got = np.diag(pair.clock((2,)))
    want = np.array([np.exp(2j * theta * y) for (y,) in pair.basis])
    assert np.allclose(got, want)
    # shifting by b pushes |b| points off a 5-point window
    assert pair.boundary_deficit((2,)) == 2
    assert pair.boundary_deficit((-1,)) == 1
    assert pair.boundary_deficit((0,)) == 0
    assert pair.unitarity_defect((2,)) == pytest.approx(1.0)
    assert pair.unitarity_defect((0,)) < 1e-15
    # the commutation relation survives truncation entrywise
    samples = [((a,), (b,)) for a in (-2, 0, 1) for b in (-1, 0, 2)]
    assert pair.relation_residual(samples) < 1e-12


def test_ccr_to_projective_reproduces_pauli_cocycle():
    pair = ccr_pair(pauli_sigma(), FiniteAbelianGroup((2,)))
    rep = ccr_to_projective(pair)
    assert rep.group.moduli == (2, 2)
    assert rep.dimension == 2
    u = pauli_cocycle()
    for x in rep.group.elements():
        for y in rep.group.elements():
            assert rep.cocycle.value(x, y) == pytest.approx(u.value(x, y))
    assert projective_relation_check(rep) < 1e-15


def test_ccr_to_projective_rejects_window_pairs():
    pair = ccr_pair(MatrixBilinear(np.array([[0.3]])), FolnerBox(1, 3))
    with pytest.raises(GroupMismatchError):
        ccr_to_projective(pair)


def test_window_targets_are_mixed_radix_indices():
    pair = ccr_pair(MatrixBilinear(np.array([[0.1, 0.2]])), FolnerBox(2, 2, (5, -1)))
    # basis (5..7) x (-1..1) in lexicographic order; (5, -1) + (1, 1) = (6, 0) is index 4
    assert pair.targets((1, 1)).tolist() == [4, 5, -1, 7, 8, -1, -1, -1, -1]
    assert pair.targets((3, 0)).tolist() == [-1] * 9
    assert pair.targets((2**62, 0)).tolist() == [-1] * 9


def test_group_targets_wrap_modulo_the_moduli():
    sigma = TableBilinear(FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 3)),
                          np.zeros((2, 6)))
    pair = ccr_pair(sigma, sigma.b_group)
    assert pair.targets((1, 2)).tolist() == [5, 3, 4, 2, 0, 1]
    assert pair.targets((2**64 + 1, -1)).tolist() == [5, 3, 4, 2, 0, 1]


# --- the dense formulas the index maps replace, kept as the oracle ---


class DenseCCRPair(CCRPair):
    """Diagonal clock, per-point shift loop and matrix products."""

    @cached_property
    def index(self):
        return {p: i for i, p in enumerate(self.basis)}

    def target(self, y, b):
        if isinstance(self.b_domain, FiniteAbelianGroup):
            t = self.b_domain.add(y, b)
        else:
            t = tuple(c + d for c, d in zip(y, b))
        return t if t in self.index else None

    def clock(self, a):
        return np.diag([self.sigma.value(a, y) for y in self.basis])

    def shift(self, b):
        n = self.dimension
        mat = np.zeros((n, n), dtype=complex)
        for j, y in enumerate(self.basis):
            t = self.target(y, b)
            if t is not None:
                mat[self.index[t], j] = 1.0
        return mat

    def boundary_deficit(self, b):
        return sum(1 for y in self.basis if self.target(y, b) is None)

    def unitarity_defect(self, b):
        return unitarity_residual(self.shift(b))

    def relation_residual(self, samples):
        worst = 0.0
        for a, b in samples:
            v = self.clock(a)
            w = self.shift(b)
            worst = max(worst, float(np.max(np.abs(
                v @ w - self.sigma.value(a, b) * (w @ v)))))
        return worst


def dense_ccr_to_projective(pair):
    sigma = pair.sigma
    dense = DenseCCRPair(sigma, pair.basis, pair.b_domain)
    g = FiniteAbelianGroup(sigma.a_group.moduli + sigma.b_group.moduli)
    p = sigma.a_group.rank

    def mat(x):
        x = g.require(x)
        return dense.clock(x[:p]) @ dense.shift(x[p:])

    return ProjectiveRep(g, cocycle_from_bilinear(sigma), mat, pair.dimension)


def assert_pair_matches_dense(pair, a_samples, b_samples):
    dense = DenseCCRPair(pair.sigma, pair.basis, pair.b_domain)
    samples = list(zip(a_samples, b_samples))
    assert pair.relation_residual(samples) == dense.relation_residual(samples)
    for a in a_samples:
        assert np.array_equal(pair.clock(a), dense.clock(a))
    for b in b_samples:
        assert np.array_equal(pair.shift(b), dense.shift(b))
        assert pair.boundary_deficit(b) == dense.boundary_deficit(b)
        assert pair.unitarity_defect(b) == dense.unitarity_defect(b)


@st.composite
def windows(draw):
    rank = draw(st.integers(1, 3))
    side = draw(st.integers(0, 5))
    offset = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)))
    a_rank = draw(st.integers(1, 2))
    d = draw(st.lists(st.floats(-math.pi, math.pi), min_size=a_rank * rank,
                      max_size=a_rank * rank))
    shifts = st.tuples(*[st.integers(-(side + 2), side + 2)] * rank)
    bs = draw(st.lists(shifts, min_size=1, max_size=6))
    a_samples = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * a_rank), min_size=len(bs),
                              max_size=len(bs)))
    sigma = MatrixBilinear(np.array(d).reshape(a_rank, rank))
    return ccr_pair(sigma, FolnerBox(rank, side, offset)), a_samples, bs


@settings(max_examples=80, deadline=None)
@given(windows())
def test_window_pair_equals_dense_reference(case):
    pair, a_samples, b_samples = case
    assert_pair_matches_dense(pair, a_samples, b_samples)


def random_table(rng, a_moduli, b_moduli):
    """Uniform phases with the identity row and column set to 0 (normalized)."""
    a, b = FiniteAbelianGroup(a_moduli), FiniteAbelianGroup(b_moduli)
    phases = rng.uniform(-math.pi, math.pi, size=(a.order, b.order))
    phases[0, :] = 0.0
    phases[:, 0] = 0.0
    return TableBilinear(a, b, phases)


moduli = st.lists(st.integers(2, 4), min_size=1, max_size=2).map(tuple)


@settings(max_examples=40, deadline=None)
@given(moduli, moduli, st.integers(0, 2**32 - 1))
def test_table_pair_equals_dense_reference(a_moduli, b_moduli, seed):
    sigma = random_table(np.random.default_rng(seed), a_moduli, b_moduli)
    pair = ccr_pair(sigma, sigma.b_group)
    a_els, b_els = sigma.a_group.elements(), sigma.b_group.elements()
    pairs = list(product(a_els, b_els))
    assert_pair_matches_dense(pair, [a for a, _ in pairs], [b for _, b in pairs])
    rep, ref = ccr_to_projective(pair), dense_ccr_to_projective(pair)
    els = rep.group.elements()
    for x in els:
        assert np.array_equal(rep.matrix(x), ref.matrix(x))
    for x, y in zip(els, els[::-1]):
        assert rep.cocycle.value(x, y) == ref.cocycle.value(x, y)
    assert projective_relation_check(rep, list(zip(els, els[::-1]))) == \
        projective_relation_check(ref, list(zip(els, els[::-1])))


def test_ccr_to_projective_evaluates_no_sigma_value(monkeypatch):
    z44 = FiniteAbelianGroup((4, 4))
    sigma = random_table(np.random.default_rng(5), (4, 4), (4, 4))
    pair = ccr_pair(sigma, z44)
    calls = []
    value = TableBilinear.value
    monkeypatch.setattr(TableBilinear, "value",
                        lambda self, a, b: calls.append((a, b)) or value(self, a, b))
    rep = ccr_to_projective(pair)
    assert calls == []
    rep.cocycle.value((1, 2, 3, 0), (0, 1, 2, 3))
    assert calls == [((0, 1), (3, 0))]


def memo_pairs():
    sigma = MatrixBilinear(np.array([[0.45, -1.3], [0.8, 0.25]]))
    table = random_table(np.random.default_rng(7), (3,), (2, 3))
    return [(ccr_pair(sigma, FolnerBox(2, 3, (1, -2))), [(1, -2), (0, 3), (1, -2), (-4, 1)],
             [(1, 0), (-2, 5), (1, 0), (0, 0)]),
            (ccr_pair(table, table.b_group), [(1,), (2,), (1,), (0,)],
             [(1, 2), (0, 1), (1, 2), (0, 0)])]


@pytest.mark.parametrize("case", range(2))
def test_pair_memos_match_the_dense_oracle_bit_for_bit(case):
    pair, a_samples, b_samples = memo_pairs()[case]
    dense = DenseCCRPair(pair.sigma, pair.basis, pair.b_domain)
    samples = list(zip(a_samples, b_samples)) * 2
    assert pair.relation_residual(samples) == dense.relation_residual(samples)
    for a in a_samples:
        assert pair.phases(a) is pair.phases(list(a))
        assert np.array_equal(pair.clock(a), dense.clock(a))
    for b in b_samples:
        assert pair.targets(b) is pair.targets(list(b))
        assert np.array_equal(pair.shift(b), dense.shift(b))
        assert pair.boundary_deficit(b) == dense.boundary_deficit(b)
    assert len(pair._phase_rows) == len(set(a_samples))
    assert len(pair._target_rows) == len(set(b_samples))


def test_matrix_phase_rows_run_once_per_distinct_a_and_images_once_per_point(monkeypatch):
    pair, a_samples, b_samples = memo_pairs()[0]
    counts = {"phase": 0, "image": 0}
    for name in counts:
        method = getattr(MatrixBilinear, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(MatrixBilinear, name, counted)
    rows = []
    dot_rows = reps._dot_rows
    monkeypatch.setattr(reps, "_dot_rows", lambda a, b: rows.append(len(a)) or dot_rows(a, b))
    for a in a_samples * 3:
        pair.phases(a)
        pair.clock(a)
    assert counts == {"phase": 0, "image": pair.dimension}
    assert sum(rows) == len(set(a_samples))
    # The relation adds one image per distinct sample b, and no phase row.
    samples = list(zip(a_samples, b_samples))
    pair.relation_residual(samples)
    assert counts == {"phase": 0, "image": pair.dimension + len(set(b_samples))}
    assert sum(rows) == len(set(a_samples))


@pytest.mark.parametrize("case", range(2))
def test_pair_memo_rows_are_read_only(case):
    pair, a_samples, b_samples = memo_pairs()[case]
    for row in (pair.phases(a_samples[0]), pair.targets(b_samples[0])):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0


def test_bilinear_cocycle_matches_the_tabulated_cocycle():
    sigma = random_table(np.random.default_rng(9), (2, 3), (3,))
    lazy, table = BilinearCocycle(sigma), cocycle_from_bilinear(sigma)
    assert lazy.group == table.group
    for x in lazy.group.elements():
        for y in lazy.group.elements():
            assert lazy.value(x, y) == table.value(x, y)


def test_bilinear_cocycle_rejects_an_unnormalized_table():
    z3 = FiniteAbelianGroup((3,))
    for phases in ([[0.0, 0.5, 0.0], [0.0] * 3, [0.0] * 3],
                   [[0.0] * 3, [0.5, 0.0, 0.0], [0.0] * 3]):
        with pytest.raises(ConstructionError, match="normalized at the identity"):
            BilinearCocycle(TableBilinear(z3, z3, phases))


def bilinear_table(k, m):
    """phases(a, b) = 2 pi (a^T m b mod k) / k on Z_k^p x Z_k^q."""
    p, q = len(m), len(m[0])
    return {"table": {"a_moduli": [k] * p, "b_moduli": [k] * q, "phases": [
        [2 * math.pi * (sum(a[i] * m[i][j] * b[j] for i in range(p) for j in range(q)) % k) / k
         for b in product(range(k), repeat=q)] for a in product(range(k), repeat=p)]}}


def ccr_docs():
    rng = np.random.default_rng(3)
    docs = []
    for side in range(15):
        rank = 1 + side % 2
        d = ";".join(",".join(repr(float(v)) for v in row)
                     for row in rng.uniform(-2.0, 2.0, size=(2, rank)))
        docs.append({"sigma": {"matrix": d}, "window": {"side": side},
                     "samples": {"count": 12, "bound": side + 2}})
    docs.append({"sigma": {"name": "pauli"}})
    docs.append({"sigma": bilinear_table(4, [[1, 3]])})
    docs.append({"sigma": bilinear_table(3, [[1, 2], [0, 1]])})
    table = random_table(rng, (3,), (2, 3))
    docs.append({"sigma": {"table": {"a_moduli": [3], "b_moduli": [2, 3],
                                     "phases": table.phases.tolist()}}})
    return [{"command": "ccr", "schema": 1, "seed": k, "params": params}
            for k, params in enumerate(docs)]


def test_ccr_reports_equal_the_dense_reference(monkeypatch):
    docs = ccr_docs()
    fast = [cli.run_scenario(copy.deepcopy(doc), "ccr") for doc in docs]
    assert all('"projective_residual":null' not in r for r in fast[15:])
    monkeypatch.setattr(reps, "CCRPair", DenseCCRPair)
    monkeypatch.setattr(cli, "ccr_to_projective", dense_ccr_to_projective)
    assert [cli.run_scenario(copy.deepcopy(doc), "ccr") for doc in docs] == fast


# --- tensor products ---


def test_tensor_rep_squares_the_cocycle():
    rep = tensor_rep([pauli_rep(), pauli_rep()])
    assert rep.dimension == 4
    u = pauli_cocycle()
    for x in rep.group.elements():
        for y in rep.group.elements():
            assert rep.cocycle.value(x, y) == pytest.approx(
                u.value(x, y) ** 2)
    assert projective_relation_check(rep) < 1e-12
    x = (1, 1)
    assert np.allclose(rep.matrix(x),
                       np.kron(pauli_rep().matrix(x), pauli_rep().matrix(x)))


def test_tensor_rep_needs_one_group():
    a = pauli_rep()
    b = regular_rep(sign_cocycle_z2(), FiniteAbelianGroup((2,)))
    with pytest.raises(GroupMismatchError):
        tensor_rep([a, b])


def test_tensor_rep_cap(monkeypatch):
    monkeypatch.setattr(reps, "DIMENSION_CAP", 100)
    with pytest.raises(DimensionCapError):
        tensor_rep([pauli_rep()] * 7)


# --- spectra and absorption ---


def test_spectral_multiset_distance_permutation_invariant():
    a = np.array([1.0, 1j, -1.0, -1j])
    b = np.array([-1j, 1.0, -1.0, 1j])
    assert spectral_multiset_distance(a, b) == 0.0
    c = np.array([1.0, 1j, -1.0, -1j * np.exp(0.001j)])
    assert spectral_multiset_distance(a, c) == pytest.approx(
        abs(-1j - c[3]), abs=1e-12)
    with pytest.raises(ValueError):
        spectral_multiset_distance(a, np.array([1.0]))


def test_fell_absorption_pauli():
    rep = pauli_rep()
    report = fell_absorption_check(pauli_cocycle(), rep)
    assert report.group_order == 4
    assert report.rep_dimension == 2
    assert report.max_residual < 1e-10
    assert report.max_spectral_distance < 1e-8
    assert report.intertwiner_unitarity < 1e-12
    assert len(report.per_element) == 4


def test_fell_absorption_sign_cocycle_on_z2():
    g = FiniteAbelianGroup((2,))
    u = sign_cocycle_z2()
    report = fell_absorption_check(u, regular_rep(u, g))
    assert report.max_residual < 1e-10
    assert report.max_spectral_distance < 1e-8


def test_fell_absorption_mismatch_and_cap(monkeypatch):
    with pytest.raises(GroupMismatchError):
        fell_absorption_check(sign_cocycle_z2(), pauli_rep())
    monkeypatch.setattr(reps, "DIMENSION_CAP", 7)
    with pytest.raises(DimensionCapError):
        fell_absorption_check(pauli_cocycle(), pauli_rep())


def test_twisted_inner_product_brute_formula():
    """Walk the defining sum independently of value_at caching."""
    u = MatrixCocycle(np.array([[0.0, 0.9], [-0.9, 0.0]]))
    g = u.group
    box = FolnerBox(2, 2)
    phi = box_vector(box)
    x = (1, -1)
    total = 0.0 + 0.0j
    for y in phi.points:
        shifted = g.add(y, g.neg(g.element(x)))
        if box.contains(shifted):
            total += u.value(g.neg(y), x) * (1.0 / 9.0)
    assert twisted_inner_product(u, phi, x) == pytest.approx(total, abs=1e-12)


# --- index tables and the per-element matrix cache ---


def pointwise_regular_rep_matrix(u, group, x):
    """Reference: one tuple add, index lookup and value call per column."""
    n = group.order
    mat = np.zeros((n, n), dtype=complex)
    for j, g in enumerate(group.elements()):
        tgt = group.add(x, g)
        mat[group.index(tgt), j] = u.value(group.neg(tgt), x)
    return mat


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
       st.integers(0, 2**32 - 1), st.sampled_from(["table", "coboundary", "product"]))
def test_regular_rep_matrix_equals_the_pointwise_fill(moduli, seed, form):
    g = FiniteAbelianGroup(moduli)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, (g.order, g.order))
    phases[0, :] = phases[:, 0] = 0.0
    u = TableCocycle(g, np.exp(1j * phases))
    if form != "table":
        u = perturb(u if form == "product" else trivial_cocycle(g),
                    quadratic_phase(float(rng.uniform(0.05, 1.5)), g))
    for x in g.elements():
        mat = regular_rep_matrix(u, g, x)
        assert not mat.flags.writeable
        assert mat.tobytes() == pointwise_regular_rep_matrix(u, g, x).tobytes()


def test_every_pair_of_a_table_builds_each_matrix_once(monkeypatch):
    """Z3 x Z3^2: the 729 pairs of the relation check read 27 matrices, each built once."""
    sigma = TableBilinear(FiniteAbelianGroup((3,)), FiniteAbelianGroup((3, 3)),
                          [[2 * math.pi * (a * (b1 + 2 * b2) % 3) / 3
                            for b1 in range(3) for b2 in range(3)] for a in range(3)])
    rep = ccr_to_projective(ccr_pair(sigma, sigma.b_group))
    built = []
    shift = CCRPair.shift
    monkeypatch.setattr(CCRPair, "shift", lambda self, b: built.append(b) or shift(self, b))
    assert projective_relation_check(rep) < 1e-12
    assert len(built) == rep.group.order == 27


def test_matrices_past_the_budget_are_built_on_every_call(monkeypatch):
    g = FiniteAbelianGroup((4,))
    u = perturb(trivial_cocycle(g), quadratic_phase(0.7, g))
    built = []
    fill = reps.regular_rep_matrix
    monkeypatch.setattr(reps, "regular_rep_matrix",
                        lambda *a, **k: built.append(a[2]) or fill(*a, **k))
    monkeypatch.setattr(reps, "MATRIX_CACHE_BYTES", 2 * 4 * 4 * 16)  # two 4 x 4 matrices
    rep = regular_rep(u, g)
    for x in [(0,), (1,), (2,), (0,), (1,), (2,), (3,)]:
        mat = rep.matrix(x)
        assert not mat.flags.writeable
        assert mat.tobytes() == pointwise_regular_rep_matrix(u, g, x).tobytes()
    assert built == [(0,), (1,), (2,), (2,), (3,)]
    with pytest.raises(GroupMismatchError):
        rep.matrix((4,))


def test_one_factor_z20xz20_tensor_check_keeps_at_most_the_budget():
    """The relation check of a 400-dimensional regular rep over 64 random
    pairs reads up to 192 matrices of 2.56 MB; only the budget's worth stay."""
    g = FiniteAbelianGroup((20, 20))
    rep = tensor_rep([regular_rep(trivial_cocycle(g), g)])
    one = 400 * 400 * 16
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        residual, pairs = cli._relation_residual(rep, np.random.default_rng(0))
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert residual == 0.0 and pairs == 64
    assert reps.MATRIX_CACHE_BYTES - one < kept <= reps.MATRIX_CACHE_BYTES + one


@pytest.mark.parametrize("seed", DENSE_REPS_SEEDS)
def test_dense_reps_reports_do_not_depend_on_the_matrix_cache(dense_reps_defaults, monkeypatch,
                                                              seed):
    monkeypatch.setattr(reps, "MATRIX_CACHE_BYTES", 0)
    with one_blas_thread():
        assert dense_reps_reports(seed) == dense_reps_defaults[seed]


def test_the_dimension_cap_has_one_owner():
    """One gate reads DIMENSION_CAP and raises; no function takes a cap of its own."""
    raised, cap_params = [], []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "twistlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "DimensionCapError":
                    raised.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "cap" for p in params):
                    cap_params.append(f"{path.name}:{node.lineno}")
    assert len(raised) == 1, f"DimensionCapError is constructed at {raised}"
    assert cap_params == [], f"functions with a cap parameter: {cap_params}"


class SpikedCocycle(Cocycle):
    """base, except that u(x, y) = spike at the one pair (x, y) = at."""

    def __init__(self, base, at, spike):
        self.group, self.base, self.at, self.spike = base.group, base, at, spike

    def value(self, x, y):
        return self.spike if (x, y) == self.at else self.base.value(x, y)


def test_relation_residuals_keep_a_nan():
    # max(worst, nan) is worst, so these folds used to report 0 and pass.
    group = FiniteAbelianGroup((2, 2))
    els = group.elements()
    u = perturb(trivial_cocycle(group), quadratic_phase(math.nan, group))
    finite = perturb(trivial_cocycle(group), quadratic_phase(0.3, group))
    q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(4, 4))
                        + 1j * np.random.default_rng(8).normal(size=(4, 4)))
    conjugated = regular_rep(u, group)
    dense_loops = []
    dense = reps._dense_relation_residual

    def counted_dense(rep, pairs):
        dense_loops.append(rep)
        return dense(rep, pairs)

    spiked = [SpikedCocycle(finite, ((1, 0), (0, 1)), spike)
              for spike in (complex(math.inf, 0.0), math.nan, complex(0.0, -math.inf))]
    cases = [
        regular_rep(u, group),
        # an infinite entry of U((0, 1)): u(-(x + g), x) = inf at x = (0, 1), g = (0, 0)
        regular_rep(SpikedCocycle(finite, ((0, 1), (0, 1)), complex(math.inf, 0.0)), group),
        # finite matrices, one nan or infinite cocycle value
        *(ProjectiveRep(group, v, regular_rep(finite, group).matrix, 4) for v in spiked),
        # not monomial: the dense loop answers
        ProjectiveRep(group, u, lambda x: q @ conjugated.matrix(x) @ q.conj().T, 4),
    ]
    assert np.isinf(cases[1].matrix((0, 1))).sum() == 1
    with pytest.MonkeyPatch.context() as m, np.errstate(invalid="ignore", over="ignore"):
        m.setattr(reps, "_dense_relation_residual", counted_dense)
        for rep in cases:
            got = projective_relation_check(rep)
            assert math.isnan(got)
            assert same_bits(got, dense(rep, [(x, y) for x in els for y in els]))
    assert dense_loops == cases
    pair = ccr_pair(MatrixBilinear(np.array([[math.nan, 0.0], [0.0, 0.1]])), FolnerBox(2, 3))
    assert math.isnan(pair.relation_residual([((0, 0), (0, 0)), ((1, 0), (0, 1))]))
    # Every point exits: the dense form's 0 * nan still filled its rows.
    assert math.isnan(dense_relation_residual(pair, (1, 0), (4, 0)))
    assert math.isnan(pair.relation_residual([((0, 0), (4, 4)), ((1, 0), (4, 0))]))


def test_a_nan_no_moved_point_reads_still_fails_the_relation():
    # a . (D y) = 1e308 (y1 + y2) overflows only at (1, 1), which the shift by
    # (1, -1) neither moves nor reaches: it sends (0, 1) to (1, 0).
    pair = ccr_pair(MatrixBilinear(np.array([[1.0, 1.0]])), FolnerBox(2, 1))
    a, b = (10 ** 308,), (1, -1)
    with np.errstate(over="ignore"):
        assert np.isnan(pair.phases(a)[pair.basis.index((1, 1))])
        assert pair.targets(b).tolist() == [-1, 2, -1, -1] and pair.sigma.value(a, b) == 1
        assert math.isnan(dense_relation_residual(pair, a, b))
        assert math.isnan(pair.relation_residual([(a, b)]))
        assert math.isnan(pair.relation_residual([(a, (2, 0))]))
        # Every phase is finite, but sigma(a, b) = exp(2e308 i) is NaN and
        # every point exits.
        a, b = (10 ** 307,), (20, 0)
        assert np.isfinite(pair.phases(a)).all() and pair.boundary_deficit(b) == 4
        assert cmath.isnan(pair.sigma.value(a, b))
        assert math.isnan(dense_relation_residual(pair, a, b))
        assert math.isnan(pair.relation_residual([(a, b)]))


def dense_relation_residual(pair, a, b):
    """One sample's relation residual in the n x n form the pair used to compute.

    Keep the expression as written: numpy's elision of the temporary w * c
    decides the operand order of its product with s, and so the last bits.
    """
    c, w = pair.phases(a), pair.shift(b)
    return float(np.max(np.abs(c[:, None] * w - pair.sigma.value(a, b) * (w * c))))


def elision_cases():
    """(pair, samples) on both sides of n = 128, where a complex n x n
    temporary reaches reps.ELISION_BYTES: rank-1 windows of 126 to 130 points,
    rank-2 windows of 121 and 144, and table b sides of 121 to 144; the last
    sample of each window pushes every point off."""
    rng = np.random.default_rng(25)
    cases = []
    for rank, side in [(1, side) for side in range(125, 130)] + [(2, 10), (2, 11)]:
        pair = ccr_pair(MatrixBilinear(rng.uniform(-4.0, 4.0, (2, rank))), FolnerBox(rank, side))
        a_samples = rng.integers(-40, 41, (30, 2)).tolist()
        b_samples = rng.integers(-side - 1, side + 2, (30, rank)).tolist()
        samples = [(tuple(a), tuple(b)) for a, b in zip(a_samples, b_samples)]
        cases.append((pair, samples + [((1, -1), (side + 1,) * rank)]))
    for b_moduli in [(11, 11), (127,), (128,), (12, 12)]:
        table = random_table(rng, (5,), b_moduli)
        a_els, b_els = table.a_group.elements(), table.b_group.elements()
        samples = [(a_els[i], b_els[j]) for i, j in zip(
            rng.integers(0, 5, 30).tolist(), rng.integers(0, table.b_group.order, 30).tolist())]
        cases.append((ccr_pair(table, table.b_group), samples))
    return cases


def elision_mismatches():
    """(dimension, a, b) of each elision_cases sample whose residual differs from
    the dense form's; NaN equals NaN."""
    return [(pair.dimension, a, b) for pair, samples in elision_cases() for a, b in samples
            if not same_bits(pair.relation_residual([(a, b)]), dense_relation_residual(pair, a, b))]


def same_bits(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


def test_relation_residual_equals_the_dense_form_bit_for_bit():
    dims = sorted({pair.dimension for pair, _ in elision_cases()})
    assert dims == [121, 126, 127, 128, 129, 130, 144]
    wrong = elision_mismatches()
    sides = {"n >= 128" if n >= 128 else "n < 128" for n, *_ in wrong}
    assert wrong == [], (f"{len(wrong)} samples differ, at {sides}; differences on one side "
                         "of n = 128 only mean numpy's elision threshold moved from "
                         f"reps.ELISION_BYTES = {reps.ELISION_BYTES}")


@pytest.mark.parametrize("threshold,moved", [(0, lambda n: n < 128),
                                             (1 << 62, lambda n: n >= 128)])
def test_the_bit_test_sees_a_moved_elision_threshold(monkeypatch, threshold, moved):
    # With the threshold at 0 every sample multiplies c_j * s, with a huge one
    # s * c_j: the dense form then disagrees below 128 or from 128 on.
    monkeypatch.setattr(reps, "ELISION_BYTES", threshold)
    wrong = elision_mismatches()
    assert wrong and all(moved(n) for n, *_ in wrong)


# --- the monomial relation residual against the dense loop ---


def random_monomial(rng, n):
    """(matrix, row index per column, entry per column) with unit entries."""
    rows = rng.permutation(n)
    entries = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, np.arange(n)] = entries
    return mat, rows, entries


def adjoint(monomial):
    """(M*, row index per column, entry per column) of a random_monomial M."""
    mat, rows, entries = monomial
    back = np.argsort(rows)
    return mat.conj().T, back, entries[back].conj()


# (A, B, A B as the live zgemm computes it) from two random unit monomials
# A and M: A @ M as the relation check had it, and the Fell check's
# np.matmul(P1, W*, out=...) and W* @ W, whose left or right operand is
# F-ordered.
LAYOUTS = {
    "A @ M": lambda a, m: (a, m, a[0] @ m[0]),
    "matmul(A, M*, out=)": lambda a, m: (a, adjoint(m), np.matmul(a[0], m[0].conj().T,
                                                                  out=np.empty_like(a[0]))),
    "M* @ M": lambda a, m: (adjoint(m), m, m[0].conj().T @ m[0]),
}


def zgemm_departures(sizes, seed, layout="A @ M", trials=3):
    """(n, column, kind) of each entry of A B in the layout, for random unit
    monomials, that reps._monomial_products rounds otherwise; kind is "main"
    for the columns j < 4 * (n // 4) (all of them at n = 1), else "last"."""
    rng = np.random.default_rng(seed)
    wrong = []
    for n in sizes:
        for _ in range(trials):
            (_, a_rows, a_entries), (_, c_rows, c_entries), live = LAYOUTS[layout](
                random_monomial(rng, n), random_monomial(rng, n))
            live = live[a_rows[c_rows], np.arange(n)]
            ours = reps._monomial_products(a_entries[c_rows][None], c_entries[None])[0]
            for j in np.flatnonzero((live.real != ours.real) | (live.imag != ours.imag)):
                wrong.append((n, int(j), "main" if j < 4 * (n // 4) or n == 1 else "last"))
    return wrong


# The dense loop is the reference only on a BLAS kernel whose zgemm rounds
# as the one the digests were recorded on; test_monomial_products_round_as_
# the_live_zgemm says where another kernel departs.
on_the_recording_kernel = pytest.mark.skipif(
    zgemm_departures([2, 3, 5, 6, 7, 127], seed=0) != [],
    reason="this BLAS kernel's zgemm rounds monomial products otherwise")


def test_monomial_products_round_as_the_live_zgemm():
    """reps._monomial_products against A @ B, for n = 1-70, 127-129 and 255-257.

    The rule was measured on OpenBLAS's SkylakeX kernel, on which the golden
    and reference digests were recorded: the main columns j < 4 * (n // 4)
    unfused, the last n mod 4 fused.  Another kernel can round otherwise:
    Sandybridge, which has no FMA, in the last columns, and Haswell in main
    columns too.  There this test fails, and the monomial path still gives
    the recording kernel's bits.
    """
    wrong = zgemm_departures([*range(1, 71), 127, 128, 129, 255, 256, 257], seed=26)
    assert wrong == [], (f"{len(wrong)} entries differ, as (n, column, kind): "
                         f"{sorted(set(wrong))[:12]}; zgemm no longer rounds as "
                         "reps._monomial_products says")


@pytest.mark.parametrize("layout", ["matmul(A, M*, out=)", "M* @ M"])
def test_monomial_products_round_as_the_live_zgemm_in_the_fell_layouts(layout):
    """The column rule in the Fell check's products, n = 1-70, 127-129, 225
    and 255-257: (W left) W* into a buffer, with W* F-ordered on the right,
    and the intertwiner's W* W, with W* F-ordered on the left."""
    wrong = zgemm_departures([*range(1, 71), 127, 128, 129, 225, 255, 256, 257], seed=27,
                             layout=layout)
    assert wrong == [], (f"{len(wrong)} entries of {layout} differ, as (n, column, kind): "
                         f"{sorted(set(wrong))[:12]}; zgemm no longer rounds as "
                         "reps._monomial_products says")


def barred_dense_loop(rep, pairs):
    raise AssertionError("the relation check took the dense loop")


def monomial_residual(monkeypatch, rep, pairs=None):
    """projective_relation_check with its dense loop barred, so the monomial path answers."""
    with monkeypatch.context() as m:
        m.setattr(reps, "_dense_relation_residual", barred_dense_loop)
        return projective_relation_check(rep, pairs)


def relation_mismatches(monkeypatch, rep, pairs=None):
    """Pairs whose one-pair residual differs from the dense loop's, plus
    "all" when the residual over every pair does; NaN equals NaN."""
    every = pairs
    if every is None:
        els = rep.group.elements()
        every = [(x, y) for x in els for y in els]
    dense = reps._dense_relation_residual
    wrong = [(x, y) for x, y in every if not same_bits(
        monomial_residual(monkeypatch, rep, [(x, y)]), dense(rep, [(x, y)]))]
    if not same_bits(monomial_residual(monkeypatch, rep, pairs), dense(rep, every)):
        wrong.append("all")
    return wrong


def random_cocycle(rng, g, form):
    """A random coboundary d rho, the quadratic perturbation of the trivial
    cocycle, or the product of both with a random (non-cocycle) table."""
    rho = dict(zip(g.elements(), np.exp(1j * rng.uniform(-math.pi, math.pi, g.order))))
    rho[g.identity] = 1.0
    coboundary = CoboundaryCocycle(g, rho.__getitem__)
    bumped = perturb(trivial_cocycle(g), quadratic_phase(float(rng.uniform(0.05, 1.5)), g))
    if form == "coboundary":
        return coboundary
    if form == "perturb":
        return bumped
    phases = rng.uniform(-math.pi, math.pi, (g.order, g.order))
    phases[0, :] = phases[:, 0] = 0.0
    return ProductCocycle([coboundary, bumped, TableCocycle(g, np.exp(1j * phases))])


# Orders 1 and 4 to 11: every n mod 4, and n = 1.
@on_the_recording_kernel
@pytest.mark.parametrize("moduli", [(1,), (4,), (5,), (2, 3), (7,), (2, 4), (3, 3), (10,),
                                    (11,)])
@pytest.mark.parametrize("form", ["coboundary", "perturb", "product"])
def test_regular_relation_residual_equals_the_dense_loop(monkeypatch, moduli, form):
    g = FiniteAbelianGroup(moduli)
    rep = regular_rep(random_cocycle(np.random.default_rng([g.order, len(form)]), g, form), g)
    assert relation_mismatches(monkeypatch, rep) == []


@on_the_recording_kernel
def test_one_dimensional_relation_residual_equals_the_dense_loop(monkeypatch):
    """n = 1 with random phases, x = y among the pairs."""
    g = FiniteAbelianGroup((6,))
    rng = np.random.default_rng(1)
    for form in ("coboundary", "perturb", "product"):
        phases = np.exp(1j * rng.uniform(-math.pi, math.pi, g.order))
        rep = ProjectiveRep(g, random_cocycle(rng, g, form),
                            lambda x, phases=phases: np.array([[phases[x[0]]]]), 1)
        assert relation_mismatches(monkeypatch, rep) == []


@on_the_recording_kernel
def test_tensor_and_ccr_relation_residuals_equal_the_dense_loop(monkeypatch):
    rng = np.random.default_rng(2)
    z2z2, z3 = FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((3,))
    tensors = [
        [regular_rep(random_cocycle(rng, z2z2, "perturb"), z2z2), pauli_rep(), pauli_rep()],
        [regular_rep(random_cocycle(rng, z3, form), z3) for form in ("coboundary", "product")],
        [pauli_rep()] * 5,
    ]
    for factors in tensors:
        assert relation_mismatches(monkeypatch, tensor_rep(factors)) == []
    for a_moduli, b_moduli in [((3,), (2, 3)), ((2, 2), (5,)), ((4,), (7,)), ((2,), (3, 3))]:
        table = random_table(rng, a_moduli, b_moduli)
        rep = ccr_to_projective(ccr_pair(table, table.b_group))
        assert relation_mismatches(monkeypatch, rep) == []


@on_the_recording_kernel
@pytest.mark.parametrize("block", [reps.RELATION_BLOCK_ENTRIES, 1, 100])
def test_relation_residual_over_explicit_pairs_equals_the_dense_loop(monkeypatch, block):
    """Groups past order 64, repeated pairs, pairs whose elements are not the
    group's own tuples, and blocks of one pair or a few."""
    monkeypatch.setattr(reps, "RELATION_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(3)
    g = FiniteAbelianGroup((6, 15))
    table = random_table(rng, (3, 3), (2, 5))
    for rep in [regular_rep(random_cocycle(rng, g, "product"), g),
                tensor_rep([regular_rep(random_cocycle(rng, g, "perturb"), g)]),
                ccr_to_projective(ccr_pair(table, table.b_group))]:
        els = rep.group.elements()
        pairs = [(els[i], tuple(els[j])) for i, j in rng.integers(0, len(els), (40, 2))]
        pairs += pairs[:3] + [(els[0], els[0]), (els[5], els[5])]
        assert relation_mismatches(monkeypatch, rep, pairs) == []
    assert monomial_residual(monkeypatch, rep, []) == 0.0


@on_the_recording_kernel
@pytest.mark.parametrize("budget", [reps.MATRIX_CACHE_BYTES, 0])
def test_relation_residual_from_n_128_equals_the_dense_loop(monkeypatch, budget):
    """Regular reps of orders 127 to 131, their matrices kept or built anew
    on every call; library matrices are read only, so numpy never reuses
    U(x y) in place."""
    monkeypatch.setattr(reps, "MATRIX_CACHE_BYTES", budget)
    rng = np.random.default_rng(4)
    for order in range(127, 132):
        g = FiniteAbelianGroup((order,))
        rep = regular_rep(random_cocycle(rng, g, "perturb"), g)
        els = g.elements()
        pairs = [(els[i], els[j]) for i, j in rng.integers(0, order, (12, 2))]
        assert relation_mismatches(monkeypatch, rep, pairs) == [], order


def fresh_matrix_rep(rep):
    """rep with every matrix a new writeable copy: numpy's unnamed temporary."""
    return ProjectiveRep(rep.group, rep.cocycle, lambda x: np.array(rep.matrix(x)),
                         rep.dimension)


def elided_mismatches(monkeypatch):
    """(n, pair) of each pair of fresh_matrix_rep on both sides of n = 128 whose
    residual differs from the dense loop's."""
    rng = np.random.default_rng(5)
    wrong = []
    for order in (126, 127, 128, 129):
        g = FiniteAbelianGroup((order,))
        rep = fresh_matrix_rep(regular_rep(random_cocycle(rng, g, "perturb"), g))
        els = g.elements()
        pairs = [(els[i], els[j]) for i, j in rng.integers(0, order, (12, 2))]
        wrong += [(order, p) for p in relation_mismatches(monkeypatch, rep, pairs)]
    return wrong


@on_the_recording_kernel
def test_relation_residual_of_fresh_matrices_equals_the_dense_loop(monkeypatch):
    wrong = elided_mismatches(monkeypatch)
    sides = {"n >= 128" if n >= 128 else "n < 128" for n, _ in wrong}
    assert wrong == [], (f"{len(wrong)} pairs differ, at {sides}; differences from n = 128 "
                         "on only mean numpy's elision threshold moved from "
                         f"reps.ELISION_BYTES = {reps.ELISION_BYTES}")


@on_the_recording_kernel
def test_the_fresh_matrix_test_sees_a_moved_elision_threshold(monkeypatch):
    monkeypatch.setattr(reps, "ELISION_BYTES", 1 << 62)
    wrong = elided_mismatches(monkeypatch)
    assert wrong and all(n >= 128 for n, _ in wrong)
