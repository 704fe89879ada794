"""Group, box and exhaustion behavior, checked against brute-force counting."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab.groups import (
    FiniteAbelianGroup,
    FolnerBox,
    GroupMismatchError,
    IntegerLattice,
    SupNormExhaustion,
    l1_norm,
    sample_elements,
    sup_norm,
)
from twistlab.cocycles import trivial_cocycle
from twistlab.reps import regular_rep


# --- brute-force oracles, written before the implementations were trusted ---


def brute_points(rank: int, side: int, offset=None):
    offset = offset or (0,) * rank
    axes = [range(o, o + side + 1) for o in offset]
    return set(product(*axes))


def brute_overlap(rank: int, side: int, x) -> int:
    pts = brute_points(rank, side)
    shifted = {tuple(c + d for c, d in zip(p, x)) for p in pts}
    return len(pts & shifted)


def brute_l1_mass(rank: int, side: int) -> int:
    return sum(sum(abs(c) for c in p) for p in brute_points(rank, side))


# --- lattice and finite group basics ---


def test_lattice_add_neg():
    g = IntegerLattice(3)
    assert g.add((1, 2, 3), (-1, 0, 5)) == (0, 2, 8)
    assert g.neg((1, -2, 0)) == (-1, 2, 0)
    assert g.identity == (0, 0, 0)


def test_lattice_rejects_wrong_rank():
    g = IntegerLattice(2)
    with pytest.raises(GroupMismatchError):
        g.require((1, 2, 3))


def test_finite_group_reduces_mod_k():
    g = FiniteAbelianGroup((2, 3))
    assert g.element((3, 7)) == (1, 1)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 2)
    assert g.order == 6


def test_finite_group_element_names_a_wrong_coordinate_count():
    g = FiniteAbelianGroup((2, 2))
    with pytest.raises(GroupMismatchError, match=r"^expected 2 coordinates, got 1$"):
        g.element((1,))
    with pytest.raises(GroupMismatchError, match=r"^expected 2 coordinates, got 3$"):
        g.element(iter((1, 0, 1)))


def reference_contains(group, x) -> bool:
    """The membership predicate as first written, kept as the oracle."""
    return (
        isinstance(x, tuple)
        and len(x) == group.rank
        and all(isinstance(c, int) and 0 <= c < k for c, k in zip(x, group.moduli))
    )


class _Residue(int):
    pass


_CANDIDATES = [
    (1, 0), (0, 2), (1, 2, 0), (True, 0), (_Residue(1), 1), (1.0, 0), (1, 0.0),
    (np.int64(1), 0), (0, np.int32(1)), (2, 0), (0, 3), (-1, 0), (0, -3), (1,), (1, 0, 0),
    (), [1, 0], "10", None, 1, ((1,), 0), ("1", 0), (1, None), (2 ** 70, 0),
]


@pytest.mark.parametrize("moduli", [(2, 3), (1,), (4, 1, 3)])
def test_contains_accepts_what_the_reference_predicate_accepts(moduli):
    g = FiniteAbelianGroup(moduli)
    for x in _CANDIDATES + list(g.elements()):
        assert g.contains(x) == reference_contains(g, x), x


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.lists(st.one_of(st.integers(-7, 7), st.floats(-7, 7), st.booleans()), max_size=4),
       st.booleans())
def test_contains_matches_the_reference_predicate(moduli, coords, as_list):
    g = FiniteAbelianGroup(tuple(moduli))
    x = coords if as_list else tuple(coords)
    assert g.contains(x) == reference_contains(g, x)


@pytest.mark.parametrize("stray", [(1.0, 0), (np.int64(1), 0), (1, 0.0), (3, 0), (-1, 0),
                                   (1,), (1, 0, 0), [1, 0]])
def test_a_representation_refuses_a_stray_element_after_a_cache_hit(stray):
    """(1.0, 0) and np.int64 keys hash like (1, 0): membership is checked first."""
    g = FiniteAbelianGroup((2, 2))
    rep = regular_rep(trivial_cocycle(g), g)
    rep.matrix((1, 0))
    assert rep.matrix((1, 0)) is rep.matrix((1, 0))
    with pytest.raises(GroupMismatchError):
        rep.matrix(stray)


def test_finite_group_elements_lexicographic():
    g = FiniteAbelianGroup((2, 2))
    assert g.elements() == ((0, 0), (0, 1), (1, 0), (1, 1))
    for i, x in enumerate(g.elements()):
        assert g.index(x) == i


@pytest.mark.parametrize("moduli", [(1,), (5,), (2, 3), (4, 1, 3), (3, 2, 2, 2)])
def test_index_arithmetic_matches_the_tuple_law(moduli):
    g = FiniteAbelianGroup(moduli)
    els = g.elements()
    i = np.arange(g.order)
    table = g.add_indices(i[:, None], i[None, :])
    assert table.tolist() == [[g.index(g.add(x, y)) for y in els] for x in els]
    assert g.neg_indices(i).tolist() == [g.index(g.neg(x)) for x in els]
    assert g.add_indices(3 % g.order, i).tolist() == table[3 % g.order].tolist()


def test_signed_representative():
    g = FiniteAbelianGroup((5,))
    assert g.signed_representative((3,)) == (-2,)
    assert g.signed_representative((2,)) == (2,)


def test_norms():
    assert l1_norm((1, -2, 3)) == 6
    assert sup_norm((1, -2, 3)) == 3
    assert l1_norm(()) == 0


# --- boxes ---


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("side", [0, 1, 2, 4])
def test_box_cardinality_and_points(rank, side):
    box = FolnerBox(rank, side)
    pts = list(box.points())
    assert len(pts) == box.cardinality() == (side + 1) ** rank
    assert set(pts) == brute_points(rank, side)
    assert pts == sorted(pts)


def test_box_points_with_offset():
    box = FolnerBox(2, 1, offset=(-1, 3))
    assert set(box.points()) == brute_points(2, 1, offset=(-1, 3))
    assert box.contains((-1, 4))
    assert not box.contains((1, 4))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_box_overlap_matches_brute_force(rank):
    for side in range(0, 7):
        box = FolnerBox(rank, side)
        for x in product(range(-8, 9), repeat=rank):
            assert box.overlap(x) == brute_overlap(rank, side, x), (side, x)


def test_box_overlap_offset_invariant():
    plain = FolnerBox(2, 3)
    shifted = FolnerBox(2, 3, offset=(5, -7))
    for x in product(range(-5, 6), repeat=2):
        assert plain.overlap(x) == shifted.overlap(x)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("side", [0, 1, 2, 3, 4, 5, 6])
def test_box_l1_mass_closed_form(rank, side):
    assert FolnerBox(rank, side).l1_mass() == brute_l1_mass(rank, side)


def test_box_l1_mass_needs_zero_offset():
    with pytest.raises(ValueError):
        FolnerBox(1, 2, offset=(1,)).l1_mass()


def test_overlap_bounds_describe_intersection():
    box = FolnerBox(2, 4)
    x = (2, -1)
    bounds = box.overlap_bounds(x)
    assert bounds is not None
    lows, highs = bounds
    count = 1
    for lo, hi in zip(lows, highs):
        count *= hi - lo + 1
    assert count == box.overlap(x)
    assert box.overlap_bounds((9, 0)) is None


@pytest.mark.parametrize("rank,side", [(1, 4), (2, 3), (3, 2)])
def test_defect_bound_exact_rational(rank, side):
    """1 - overlap/(side+1)^rank never exceeds |x|_1/(side+1), as rationals."""
    box = FolnerBox(rank, side)
    for x in product(range(-8, 9), repeat=rank):
        defect = 1 - Fraction(box.overlap(x), box.cardinality())
        assert defect <= Fraction(l1_norm(x), side + 1)


def test_box_translate():
    box = FolnerBox(2, 2)
    moved = box.translate((1, -1))
    assert set(moved.points()) == {tuple(c + d for c, d in zip(p, (1, -1)))
                                   for p in box.points()}


# --- exhaustions and sampling ---


def test_sup_exhaustion_nested_and_covering():
    exh = SupNormExhaustion(IntegerLattice(2))
    prev: set = set()
    for i in range(1, 5):
        cur = set(exh.subset(i))
        assert prev <= cur
        assert all(sup_norm(x) <= i for x in cur)
        assert len(cur) == (2 * i + 1) ** 2
        prev = cur


def test_sup_exhaustion_finite_group():
    g = FiniteAbelianGroup((2, 2))
    exh = SupNormExhaustion(g)
    assert set(exh.subset(3)) <= set(g.elements())
    assert set(exh.subset(10)) == set(g.elements())


def test_sample_elements_seeded():
    g = IntegerLattice(2)
    a = sample_elements(g, 20, 5, np.random.default_rng(7))
    b = sample_elements(g, 20, 5, np.random.default_rng(7))
    assert a == b
    assert all(sup_norm(x) <= 5 for x in a)


@given(st.integers(1, 3), st.integers(0, 8),
       st.lists(st.integers(-10, 10), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_overlap_symmetric_under_negation(rank, side, coords):
    x = tuple((coords * 3)[:rank])
    box = FolnerBox(rank, side)
    assert box.overlap(x) == box.overlap(tuple(-c for c in x))


@given(st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_l1_mass_formula_property(rank, side):
    assert FolnerBox(rank, side).l1_mass() == (
        rank * side * (side + 1) ** rank // 2)
