"""Box criteria, product diagnosis, selection and Dirichlet windows."""

import cmath
import math
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistlab import convergence
from twistlab.cocycles import (
    ConstructionError,
    MatrixCocycle,
    ProductCocycle,
    flatten_matrix_cocycle,
    geometric_matrix_sequence,
    pauli_cocycle,
    perturb,
    quadratic_phase,
    trivial_cocycle,
)
from twistlab.convergence import (
    CERTIFIED,
    REFUTED,
    SelectionError,
    UNDETERMINED,
    box_defect,
    box_defect_terms,
    box_sup_distance,
    box_twist_mean,
    ceil_schedule,
    dirichlet_condition,
    dirichlet_value,
    gauge_fix,
    geometric_box_family,
    geometric_matrix_family,
    inner_product_series,
    lattice_tensor_criteria,
    modulus_deficit_series,
    power_box_family,
    power_matrix_family,
    product_diagnose,
    select_product_subsequence,
    translation_series,
    twisted_rep_series,
)
from twistlab.groups import (
    FolnerBox,
    GroupMismatchError,
    IntegerLattice,
    SupNormExhaustion,
)
from twistlab.reps import box_vector, rep_inner_product, twisted_inner_product
from twistlab.series import (
    EXACT,
    ExplicitModel,
    GeometricModel,
    INCONCLUSIVE,
    InvalidInnerProductError,
    MAJORANT,
    MINORANT,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    PowerModel,
)

ROTATION = np.array([[0.0, math.pi / 2], [-math.pi / 2, 0.0]])


# --- infinite products of unit scalars ---


def test_product_of_halved_angles_converges_to_minus_one():
    n = 20
    diag = product_diagnose(
        [cmath.exp(1j * math.pi / 2 ** i) for i in range(1, n + 1)],
        GeometricModel(math.pi, 0.5, relation=MAJORANT),
        n_max=n)
    assert diag.series.verdict == PROVED_CONVERGENT
    # the closed-form partial product is e^{i pi (1 - 2^-n)}
    assert diag.partial_product == pytest.approx(
        cmath.exp(1j * math.pi * (1.0 - 2.0 ** -n)), abs=1e-12)
    # the limit -1 sits within the certified product tail of the prefix
    assert abs(diag.partial_product - (-1.0)) <= diag.product_tail + 1e-15


def test_constant_minus_one_product_is_divergent_series():
    diag = product_diagnose([-1.0] * 8, GeometricModel(2.0, 1.0), n_max=8)
    assert diag.series.verdict == PROVED_DIVERGENT
    assert diag.product_tail is None
    assert diag.partial_product == pytest.approx(1.0)  # (-1)^8


def test_product_rejects_non_unit_factors():
    with pytest.raises(ConstructionError):
        product_diagnose([0.5], None, n_max=1)


def test_inner_product_series_verdict_and_validation():
    terms, v = inner_product_series([1.0 - 0.5 / i ** 2 for i in range(1, 51)],
                                    PowerModel(0.5, -2.0), n_max=50)
    assert v.verdict == PROVED_CONVERGENT
    assert terms.tolist() == [abs(1.0 - (1.0 - 0.5 / i ** 2)) for i in range(1, 51)]
    with pytest.raises(InvalidInnerProductError):
        inner_product_series([1.5], None, n_max=1)


def test_modulus_deficit_ignores_phase():
    vals = [(1.0 - 2.0 ** -i) * cmath.exp(1j * 0.4 * i) for i in range(1, 12)]
    terms, v = modulus_deficit_series(vals, GeometricModel(1.0, 0.5), n_max=11)
    assert v.verdict == PROVED_CONVERGENT
    assert terms.tolist() == [max(0.0, 1.0 - abs(a)) for a in vals]
    assert v.partial_sum == pytest.approx(
        sum(2.0 ** -i for i in range(1, 12)), abs=1e-12)


# --- exact per-box quantities ---


def test_box_defect_exact_fraction():
    box = FolnerBox(2, 3)
    # overlap (4-1)(4-2) = 6 out of 16
    assert box_defect(box, (1, 2)) == float(1 - Fraction(6, 16))
    assert box_defect(box, (0, 0)) == 0.0
    assert box_defect(box, (9, 0)) == 1.0
    assert box_defect_terms([3, 5], (1, 2)) == [
        box_defect(FolnerBox(2, 3), (1, 2)),
        box_defect(FolnerBox(2, 5), (1, 2)),
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 600), st.data())
def test_box_defect_is_the_correctly_rounded_fraction(rank, side, data):
    """Sides up to 2^600 push the cardinality far past the float range."""
    box = FolnerBox(rank, side)
    x = tuple(data.draw(st.integers(-side - 2, side + 2)) for _ in range(rank))
    assert box_defect(box, x) == float(1 - Fraction(box.overlap(x), box.cardinality()))


def brute_twist_mean(matrix, box, x):
    u = MatrixCocycle(matrix)
    g = u.group
    total = math.fsum(abs(1.0 - u.value(g.neg(y), x)) for y in box.points())
    return total / box.cardinality()


def test_box_twist_mean_matches_pointwise_walk():
    rng = np.random.default_rng(7)
    for rank in (1, 2):
        for _ in range(6):
            a = rng.uniform(-1.5, 1.5, size=(rank, rank))
            box = FolnerBox(rank, int(rng.integers(0, 6)))
            x = tuple(int(t) for t in rng.integers(-4, 5, size=rank))
            got = box_twist_mean(a, box, x)
            assert got == pytest.approx(brute_twist_mean(a, box, x), abs=1e-11)


def test_box_twist_mean_validation():
    with pytest.raises(GroupMismatchError):
        box_twist_mean(np.zeros((2, 2)), FolnerBox(1, 3), (1,))
    with pytest.raises(GroupMismatchError):
        box_twist_mean(np.zeros((2, 2)), FolnerBox(2, 3), (1,))
    with pytest.raises(ConstructionError):
        box_twist_mean(np.zeros((2, 2)), FolnerBox(2, 99), (1, 0), grid_cap=100)


@given(st.floats(-1.0, 1.0), st.integers(0, 8), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_box_twist_mean_majorant(entry, side, x0):
    """Mean twist never exceeds (N |x|_1 / 2) * m * |A|_inf."""
    a = np.array([[entry]])
    box = FolnerBox(1, side)
    got = box_twist_mean(a, box, (x0,))
    bound = 0.5 * 1 * abs(x0) * side * abs(entry)
    assert got <= min(2.0, bound) + 1e-9


def test_box_sup_distance_matrix_and_pointwise_paths_agree():
    a = np.array([[0.3, -0.8], [0.2, 0.6]])
    u = MatrixCocycle(a)
    box = FolnerBox(2, 4)
    elements = [(1, 0), (0, 1), (2, -3)]
    fast = box_sup_distance(u, box, elements)
    slow = max(
        abs(1.0 - u.value(u.group.neg(y), x))
        for x in elements for y in box.points())
    assert fast == pytest.approx(slow, abs=1e-11)
    # a product wrapper loses the closed form but keeps the value
    wrapped = perturb(u, lambda z: 1.0 + 0.0j)
    assert box_sup_distance(wrapped, box, elements) == pytest.approx(fast, abs=1e-11)


# --- the full-grid kernels the blocked ones replace, kept as the oracle ---


def full_phase_grid(coeffs, box):
    total = None
    for j in range(box.rank):
        start = box.offset[j]
        axis = coeffs[j] * np.arange(start, start + box.side + 1, dtype=float)
        total = axis if total is None else total[..., None] + axis
    return total


def full_grid_twist_mean(matrix, box, x):
    coeffs = np.asarray(matrix, dtype=float) @ np.asarray(x, dtype=float)
    return float(np.mean(2.0 * np.abs(np.sin(0.5 * full_phase_grid(coeffs, box)))))


def per_element_sup(u, box, elements):
    flat = flatten_matrix_cocycle(u)
    best = 0.0
    for x in elements:
        coeffs = flat @ np.asarray(x, dtype=float)
        best = max(best, float(np.max(2.0 * np.abs(np.sin(0.5 * full_phase_grid(coeffs, box))))))
    return best


def bits(v):
    """Bit pattern of a float; NaN compares equal to NaN."""
    return float(v).hex()


@st.composite
def scaled_matrices(draw, rank):
    scale = 10.0 ** draw(st.floats(-12.0, 2.0))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=rank * rank,
                            max_size=rank * rank))
    return scale * np.array(entries).reshape(rank, rank)


@st.composite
def offset_boxes(draw, max_sides):
    rank = draw(st.integers(1, 3))
    side = draw(st.integers(0, max_sides[rank - 1]))
    offset = draw(st.lists(st.integers(-50, 50), min_size=rank, max_size=rank))
    return FolnerBox(rank, side, tuple(offset))


# Summation blocks of at least 128 points split like numpy's pairwise sum,
# so small blocks put many block boundaries inside small grids.
BLOCKS = st.sampled_from([128, 136, 1000, 1 << 15])


@settings(max_examples=150, deadline=None)
@given(offset_boxes((3000, 60, 15)), BLOCKS, st.data())
def test_blocked_twist_mean_equals_full_grid_mean(box, block, data):
    a = data.draw(scaled_matrices(box.rank))
    x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=box.rank,
                                 max_size=box.rank)))
    with patch.object(convergence, "_BLOCK_POINTS", block):
        got = box_twist_mean(a, box, x)
    assert bits(got) == bits(full_grid_twist_mean(a, box, x))


@pytest.mark.parametrize("box", [FolnerBox(1, 200_000, (-7,)), FolnerBox(2, 400),
                                 FolnerBox(2, 377, (3, -40)), FolnerBox(3, 60, (1, 0, -9))],
                         ids=repr)
def test_blocked_twist_mean_equals_full_grid_mean_past_one_block(box):
    rng = np.random.default_rng(box.side)
    a = rng.uniform(-1.0, 1.0, size=(box.rank, box.rank))
    x = tuple(int(t) for t in rng.integers(-3, 4, size=box.rank))
    assert box.cardinality() > 1 << 15
    assert bits(box_twist_mean(a, box, x)) == bits(full_grid_twist_mean(a, box, x))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_blocked_twist_mean_non_finite_entries(bad):
    a = np.array([[0.3, bad], [-0.2, 0.1]])
    for box in (FolnerBox(2, 0), FolnerBox(2, 300, (-5, 2))):
        for x in ((1, 1), (1, 0), (0, 0)):
            got = box_twist_mean(a, box, x)
            assert bits(got) == bits(full_grid_twist_mean(a, box, x))


# --- the leaves of box_twist_mean on threads ---
# The tests patch _THREADS, so they need no second CPU; small blocks give
# small grids many leaves for the threads to share.

THREAD_COUNTS = (1, 2, 3, 7)


def leaves_of(card):
    return convergence._pairwise(lambda start, count: [(start, count)], 0, card)


@settings(max_examples=150, deadline=None)
@given(offset_boxes((3000, 60, 15)), st.sampled_from([128, 136, 1000]),
       st.sampled_from(THREAD_COUNTS), st.data())
def test_threaded_twist_mean_equals_full_grid_mean(box, block, threads, data):
    a = data.draw(scaled_matrices(box.rank))
    x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=box.rank,
                                 max_size=box.rank)))
    running = threading.active_count()
    with patch.object(convergence, "_BLOCK_POINTS", block), \
            patch.object(convergence, "_THREADS", threads):
        got = box_twist_mean(a, box, x)
    assert bits(got) == bits(full_grid_twist_mean(a, box, x))
    assert threading.active_count() == running


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_threaded_twist_mean_non_finite_entries(bad):
    a = np.array([[0.3, bad], [-0.2, 0.1]])
    box = FolnerBox(2, 300, (-5, 2))
    assert len(leaves_of(box.cardinality())) > 3
    with patch.object(convergence, "_THREADS", 3):
        for x in ((1, 1), (1, 0), (0, 0)):
            got = box_twist_mean(a, box, x)
            assert bits(got) == bits(full_grid_twist_mean(a, box, x))


def test_threaded_twist_mean_under_fast_thread_switching():
    """More threads than CPUs, switched every microsecond: a leaf taken
    twice or never would change the bits or leave a sum missing."""
    box = FolnerBox(2, 300, (-5, 2))
    expected = bits(full_grid_twist_mean(ROTATION, box, (1, 2)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with patch.object(convergence, "_THREADS", 7), \
                patch.object(convergence, "_BLOCK_POINTS", 128):
            assert len(leaves_of(box.cardinality())) > 500
            for _ in range(20):
                assert bits(box_twist_mean(ROTATION, box, (1, 2))) == expected
    finally:
        sys.setswitchinterval(interval)


class CountingThreads:
    """Stands in for the threading module in convergence, keeping every
    thread it makes."""

    Lock = threading.Lock

    def __init__(self):
        self.made = []

    def Thread(self, *args, **kwargs):
        thread = threading.Thread(*args, **kwargs)
        self.made.append(thread)
        return thread


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_threaded_twist_mean_starts_and_joins_its_threads(threads):
    box = FolnerBox(2, 300, (-5, 2))
    workers = min(threads, len(leaves_of(box.cardinality()))) - 1
    made = CountingThreads()
    running = threading.active_count()
    with patch.object(convergence, "_THREADS", threads), \
            patch.object(convergence, "threading", made):
        got = box_twist_mean(ROTATION, box, (1, 2))
    assert bits(got) == bits(full_grid_twist_mean(ROTATION, box, (1, 2)))
    assert len(made.made) == workers
    assert not any(t.is_alive() for t in made.made)
    assert threading.active_count() == running


def test_one_thread_starts_no_thread():
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    box = FolnerBox(2, 400)
    assert len(leaves_of(box.cardinality())) > 1
    with patch.object(convergence, "_THREADS", 1), \
            patch.object(convergence, "threading",
                         SimpleNamespace(Thread=no_thread, Lock=threading.Lock)):
        got = box_twist_mean(ROTATION, box, (1, 0))
    assert bits(got) == bits(full_grid_twist_mean(ROTATION, box, (1, 0)))


def recorded_chords(spread):
    """A _chords that records the thread and the np.errstate of every leaf.
    With ``spread`` it holds the calling thread's first leaf until another
    thread has begun one, so that some leaf is summed off the caller's
    thread however the threads are scheduled."""
    chords = convergence._chords
    caller = threading.get_ident()
    other_began = threading.Event()
    seen = []

    def record(phases):
        me = threading.get_ident()
        seen.append((me, np.geterr()))
        if me != caller:
            other_began.set()
        elif spread and sum(t == caller for t, _ in seen) == 1:
            assert other_began.wait(10)
        return chords(phases)

    return record, seen


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_threaded_leaves_keep_the_callers_errstate(threads):
    """Rows 180 on overflow the phases to inf, whose sine is invalid, so the
    mean raises under invalid="raise"; every leaf, on whichever thread,
    must see the caller's np.errstate.  A NaN entry propagates quietly and
    raises nowhere, on the serial path too."""
    box = FolnerBox(2, 300)
    assert len(leaves_of(box.cardinality())) > 3
    record, seen = recorded_chords(spread=threads > 1)
    running = threading.active_count()
    with patch.object(convergence, "_THREADS", threads), \
            np.errstate(over="ignore", invalid="raise"):
        caller = np.geterr()
        with patch.object(convergence, "_chords", record), \
                pytest.raises(FloatingPointError, match="invalid value encountered in sin"):
            box_twist_mean(np.array([[1e306, 0.0], [0.0, 0.1]]), box, (1, 1))
        nan_mean = box_twist_mean(np.array([[0.3, math.nan], [-0.2, 0.1]]), box, (1, 1))
    assert math.isnan(nan_mean)
    assert all(err == caller for _, err in seen)
    assert (len({t for t, _ in seen}) > 1) == (threads > 1)
    assert threading.active_count() == running


class LeafError(Exception):
    pass


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_threaded_twist_mean_raises_the_first_leaf_error(threads):
    """On Z with A = 1 and x = 1 each leaf's first phase is its start, so a
    _chords that fails from the middle of the box on names the leaf that
    raised.  The first failing leaf fails last, after the leaves other
    threads took meanwhile, and its error must still reach the caller."""
    box = FolnerBox(1, 200_000)
    starts = [start for start, _ in leaves_of(box.cardinality())]
    expected = min(start for start in starts if start >= 100_000)

    def failing_chords(phases):
        if phases[0] == expected:
            time.sleep(0.05)
        if phases[0] >= 100_000:
            raise LeafError(phases[0])
        return chords(phases)

    chords = convergence._chords
    running = threading.active_count()
    with patch.object(convergence, "_THREADS", threads), \
            patch.object(convergence, "_chords", failing_chords):
        with pytest.raises(LeafError) as info:
            box_twist_mean(np.eye(1), box, (1,))
    assert info.value.args == (expected,)
    assert threading.active_count() == running


@st.composite
def matrix_cocycles(draw, rank):
    factors = [MatrixCocycle(draw(scaled_matrices(rank)))
               for _ in range(draw(st.integers(1, 3)))]
    return factors[0] if len(factors) == 1 else ProductCocycle(factors)


@settings(max_examples=150, deadline=None)
@given(offset_boxes((12, 6, 4)), BLOCKS, st.data())
def test_pruned_sup_equals_per_element_sup(box, block, data):
    u = data.draw(matrix_cocycles(box.rank))
    point = st.tuples(*[st.integers(-8, 8)] * box.rank)
    elements = data.draw(st.lists(point, max_size=120))
    with patch.object(convergence, "_BLOCK_POINTS", block):
        got = box_sup_distance(u, box, elements)
    assert bits(got) == bits(per_element_sup(u, box, elements))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pruned_sup_non_finite_entries_and_coefficients():
    box = FolnerBox(2, 5, (-2, 1))
    elements = [(1, 0), (0, 1), (3, -2), (0, 0)]
    nan_entry = MatrixCocycle(np.array([[0.3, math.nan], [-0.2, 0.1]]))
    assert box_sup_distance(nan_entry, box, elements) == per_element_sup(
        nan_entry, box, elements)
    # coordinates near the float range overflow the coefficients to inf,
    # whose chords are NaN; the finite elements still decide the sup
    u = MatrixCocycle(0.4 * ROTATION)
    huge = elements + [(10 ** 308, 1), (-(10 ** 308), 10 ** 308)]
    got = box_sup_distance(u, box, huge)
    assert got == per_element_sup(u, box, huge) == per_element_sup(u, box, elements)


def test_pruned_sup_validation():
    u = MatrixCocycle(ROTATION)
    assert box_sup_distance(u, FolnerBox(2, 3), []) == 0.0
    with pytest.raises(GroupMismatchError):
        box_sup_distance(u, FolnerBox(3, 3), [(1, 0, 0)])


def test_box_kernels_name_the_grid_cap():
    with pytest.raises(ConstructionError) as info:
        box_twist_mean(np.zeros((2, 2)), FolnerBox(2, 99), (1, 0), grid_cap=100)
    assert str(info.value) == (
        "box holds 10000 points, over the grid cap 100; lower the horizon or raise grid_cap")
    with pytest.raises(ConstructionError) as info:
        box_sup_distance(MatrixCocycle(ROTATION), FolnerBox(2, 99), [], grid_cap=100)
    assert str(info.value) == "box holds 10000 points, over the grid cap 100"


def test_pruned_sup_skips_elements_that_cannot_win(monkeypatch):
    """Small rotations bound most chords below the largest one, so the scan
    stops long before it has taken the sine of every element's grid."""
    u = MatrixCocycle(0.01 * ROTATION)
    box = FolnerBox(2, 3)
    window = SupNormExhaustion(IntegerLattice(2)).subset(5)
    sines = []
    real_sin = np.sin

    def counting_sin(t, *args, **kwargs):
        sines.append(t.size)
        return real_sin(t, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counting_sin)
    got = box_sup_distance(u, box, window)
    monkeypatch.undo()
    assert got == per_element_sup(u, box, window)
    assert sum(sines) <= len(window) * box.cardinality() // 4


# --- declared families ---


def test_family_constructors():
    sides, model = power_box_family(1.0, 2.0)
    assert [sides(i) for i in (1, 2, 3)] == [1, 4, 9]
    assert model == PowerModel(1.0, 2.0)
    gsides, gmodel = geometric_box_family(2.0, 3.0)
    assert gsides(2) == 18
    assert gmodel == GeometricModel(2.0, 3.0)
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    assert np.allclose(mats(3), ROTATION * 0.125)
    assert mmodel == GeometricModel(math.pi / 2, 0.5)
    pmats, pmodel = power_matrix_family(ROTATION, -2.0)
    assert np.allclose(pmats(2), ROTATION * 0.25)
    assert pmodel == PowerModel(math.pi / 2, -2.0)


def test_ceil_schedule_rounds_up_and_names_an_overflow():
    sides = ceil_schedule(PowerModel(1.5, 1.0), "side")
    assert [sides(i) for i in (1, 2, 3)] == [2, 3, 5]
    with pytest.raises(ConstructionError, match="window model overflows at index 800"):
        ceil_schedule(GeometricModel(1.0, 10.0), "window")(800)
    gsides, _ = geometric_box_family(1.0, 10.0)
    with pytest.raises(ConstructionError, match="side model overflows at index 400"):
        gsides(400)


def test_family_validation():
    with pytest.raises(ValueError):
        power_box_family(0.0, 2.0)
    with pytest.raises(ValueError):
        geometric_box_family(1.0, 0.0)
    with pytest.raises(ValueError):
        geometric_matrix_family(ROTATION, 1.0)
    with pytest.raises(ValueError):
        power_matrix_family(ROTATION, 0.5)


# --- the two-part box criterion ---


def test_twisted_rep_series_terms_are_the_exact_quantities():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    sides, smodel = power_box_family(1.0, 2.0)
    x = (1, 0)
    rep = twisted_rep_series(mats, mmodel, sides, smodel, x, n_max=6)
    for i in range(1, 7):
        box = FolnerBox(2, sides(i))
        assert rep.translation_terms[i - 1] == pytest.approx(
            box_defect(box, x), abs=1e-12)
        assert rep.twist_terms[i - 1] == pytest.approx(
            brute_twist_mean(mats(i), box, x), abs=1e-11)
    assert rep.sides == tuple(sides(i) for i in range(1, 7))


def test_twisted_rep_series_certifies_geometric_times_square():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    sides, smodel = power_box_family(1.0, 2.0)
    rep = twisted_rep_series(mats, mmodel, sides, smodel, (1, 1), n_max=8)
    assert rep.translation.verdict == PROVED_CONVERGENT
    assert rep.twist.verdict == PROVED_CONVERGENT
    assert rep.conclusion == PROVED_CONVERGENT
    assert rep.tail_bound is not None and rep.tail_bound > 0.0


def test_twisted_rep_series_dominates_inner_product_distance():
    """Per index, |1 - <lambda(x) phi, phi>| <= defect + twist mean."""
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    sides, smodel = power_box_family(1.0, 2.0)
    x = (2, -1)
    rep = twisted_rep_series(mats, mmodel, sides, smodel, x, n_max=6)
    for i in range(1, 7):
        u = MatrixCocycle(mats(i))
        box = FolnerBox(2, sides(i))
        d = abs(1.0 - rep_inner_product(u, box, x))
        assert d <= (rep.translation_terms[i - 1]
                     + rep.twist_terms[i - 1] + 1e-9)


def test_twisted_rep_series_divergent_translation_part():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    rep = twisted_rep_series(mats, mmodel, lambda i: 2, PowerModel(2.0, 0.0),
                             (1, 1), n_max=5)
    assert rep.translation.verdict == PROVED_DIVERGENT
    assert rep.conclusion == PROVED_DIVERGENT


def test_twisted_rep_series_identity_element():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    sides, smodel = power_box_family(1.0, 2.0)
    rep = twisted_rep_series(mats, mmodel, sides, smodel, (0, 0), n_max=3)
    assert rep.conclusion == PROVED_CONVERGENT
    assert rep.tail_bound == 0.0
    assert all(t == 0.0 for t in rep.translation_terms)
    assert all(t == 0.0 for t in rep.twist_terms)


def test_twisted_rep_series_without_models_is_inconclusive():
    mats, _ = geometric_matrix_family(ROTATION, 0.5)
    sides, _ = power_box_family(1.0, 2.0)
    rep = twisted_rep_series(mats, None, sides, None, (1, 0), n_max=4)
    assert rep.translation.verdict == INCONCLUSIVE
    assert rep.twist.verdict == INCONCLUSIVE
    assert rep.conclusion == INCONCLUSIVE


def test_twisted_rep_series_rejects_negative_sides():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    with pytest.raises(ConstructionError):
        twisted_rep_series(mats, mmodel, lambda i: -1, None, (1, 0), n_max=2)


def test_translation_series_wrapper():
    terms, verdict = translation_series([1, 4, 9, 16], PowerModel(1.0, 2.0), (1,))
    assert terms == box_defect_terms([1, 4, 9, 16], (1,))
    assert verdict.verdict == PROVED_CONVERGENT


# --- explicit models shorter than the horizon cap it ---


def test_twisted_rep_series_caps_at_an_explicit_side_model():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    rep = twisted_rep_series(mats, mmodel, lambda i: i * i,
                             ExplicitModel((1.0, 4.0, 9.0)), (1, 0), n_max=8)
    assert rep.sides == (1, 4, 9)
    assert len(rep.translation_terms) == len(rep.twist_terms) == 3
    assert rep.translation.witness == "declared side model certifies neither direction"
    assert rep.twist.witness == "explicit prefixes carry no tail claims"


def test_twisted_rep_series_caps_at_an_explicit_matrix_model():
    mats, mmodel = geometric_matrix_family(ROTATION, 0.5)
    sides, smodel = power_box_family(1.0, 2.0)
    norms = ExplicitModel((mmodel.value(1), mmodel.value(2)))
    rep = twisted_rep_series(mats, norms, sides, smodel, (1, 0), n_max=8)
    assert rep.sides == (1, 4)
    assert len(rep.twist_terms) == 2
    assert rep.translation.terms_evaluated == rep.twist.terms_evaluated == 2
    assert rep.twist.witness == "explicit prefixes carry no tail claims"


def test_criteria_cap_at_an_explicit_model():
    crit = lattice_tensor_criteria(ExplicitModel((1.0, 2.0, 3.0)),
                                   PowerModel(1.0, -2.0), n_max=10)
    assert crit.sides.tolist() == [1.0, 2.0, 3.0]
    assert crit.norms.tolist() == [1.0, 0.25, 1.0 / 9.0]
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   ExplicitModel((0.5, 0.25)), n_max=10)
    assert crit.sides.tolist() == [1.0, 4.0]
    assert crit.weighted_terms.tolist() == [0.5, 1.0]
    assert crit.clause("product_cocycle").series.terms_evaluated == 2


def test_dirichlet_condition_caps_at_an_explicit_model():
    report = dirichlet_condition(lambda j: j, ExplicitModel((1.0, 2.0, 3.0)),
                                 lambda j: 0.1 / j ** 2, PowerModel(0.1, -2.0), n_max=10)
    assert report.windows == (1, 2, 3)
    assert len(report.deviation_terms) == len(report.inverse_terms) == 3
    report = dirichlet_condition(lambda j: j, PowerModel(1.0, 1.0), lambda j: 0.1,
                                 ExplicitModel((0.1, 0.1)), n_max=10)
    assert report.angles == (0.1, 0.1)
    assert report.deviation.witness == "explicit prefixes carry no tail claims"


def test_dirichlet_condition_names_a_window_beyond_the_float_range():
    with pytest.raises(ConstructionError, match="window 3 is too large"):
        dirichlet_condition(lambda j: 10 ** 308 if j == 3 else j, None,
                            lambda j: 0.1, None, n_max=5)


def test_translation_series_caps_at_an_explicit_model():
    terms, verdict = translation_series([1, 4, 9, 16], ExplicitModel((1.0, 4.0)), (1,))
    assert terms == box_defect_terms([1, 4], (1,))
    assert verdict.terms_evaluated == 2
    assert verdict.verdict == INCONCLUSIVE


# --- the four-clause report ---


def test_all_four_clauses_certified():
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   GeometricModel(1.0, 0.5), n_max=200)
    for name in ("folner_sequence", "summable_folner", "product_cocycle",
                 "tensor_product_existence"):
        assert crit.clause(name).holds == CERTIFIED, name
    assert crit.tensor_exists == CERTIFIED


def test_linear_sides_refute_summability_but_not_existence():
    crit = lattice_tensor_criteria(PowerModel(1.0, 1.0),
                                   GeometricModel(1.0, 0.5), n_max=100)
    assert crit.clause("folner_sequence").holds == CERTIFIED
    assert crit.clause("summable_folner").holds == REFUTED
    assert crit.clause("product_cocycle").holds == CERTIFIED
    # the last clause is only sufficient, so it is never refuted
    assert crit.clause("tensor_product_existence").holds == UNDETERMINED


def test_bounded_sides_refute_folner_growth():
    crit = lattice_tensor_criteria(PowerModel(3.0, 0.0),
                                   GeometricModel(1.0, 0.5), n_max=50)
    assert crit.clause("folner_sequence").holds == REFUTED
    assert crit.clause("summable_folner").holds == REFUTED


def test_non_summable_norms_refute_product_cocycle():
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   PowerModel(0.5, -1.0), n_max=100)
    assert crit.clause("product_cocycle").holds == REFUTED
    assert crit.clause("tensor_product_existence").holds == UNDETERMINED


def test_explicit_models_leave_clauses_undetermined():
    crit = lattice_tensor_criteria(ExplicitModel((1.0, 2.0, 3.0)),
                                   ExplicitModel((0.5, 0.25, 0.125)), n_max=3)
    assert crit.clause("folner_sequence").holds == UNDETERMINED
    assert crit.clause("summable_folner").holds == UNDETERMINED
    assert crit.clause("tensor_product_existence").holds == UNDETERMINED


def test_weighted_series_partial_sum_matches_direct_sum():
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   GeometricModel(1.0, 0.5), n_max=200)
    weighted = crit.clause("tensor_product_existence").series
    direct = sum(math.ceil(float(i) ** 2) * 0.5 ** i for i in range(1, 201))
    assert weighted.partial_sum == pytest.approx(direct, rel=1e-12)


def test_zero_norms_certify_everything_cheaply():
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   GeometricModel(0.0, 0.5), n_max=20)
    assert crit.clause("product_cocycle").holds == CERTIFIED
    assert crit.clause("tensor_product_existence").holds == CERTIFIED


def test_criteria_validation_and_lookup():
    with pytest.raises(ConstructionError):
        lattice_tensor_criteria(PowerModel(0.0, 2.0), GeometricModel(1.0, 0.5))
    crit = lattice_tensor_criteria(PowerModel(1.0, 2.0),
                                   GeometricModel(1.0, 0.5), n_max=10)
    with pytest.raises(KeyError):
        crit.clause("nonexistent")


# --- greedy selection ---


def test_selection_picks_first_admissible_indices():
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    exhaustion = SupNormExhaustion(IntegerLattice(2))
    boxes = lambda k: FolnerBox(2, k ** 2)
    report = select_product_subsequence(seq, boxes, exhaustion, count=3)
    idx = report.indices
    assert len(idx) == 3
    assert idx[0] >= 1 and all(a < b for a, b in zip(idx, idx[1:]))
    prev = 0
    for step, chosen in enumerate(idx, start=1):
        thr = 1.0 / step ** 2
        window = exhaustion.subset(step)
        box = boxes(step)
        sup = box_sup_distance(seq.member(chosen), box, window)
        assert sup <= thr
        assert report.steps[step - 1].sup == pytest.approx(sup)
        # minimality: every skipped index really failed the threshold
        for j in range(prev + 1, chosen):
            assert box_sup_distance(seq.member(j), box, window) > thr
        prev = chosen


def test_selection_threshold_sum():
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    report = select_product_subsequence(
        seq, lambda k: FolnerBox(2, k ** 2),
        SupNormExhaustion(IntegerLattice(2)), count=3)
    assert report.threshold_sum == pytest.approx(1.0 + 0.25 + 1.0 / 9.0)


def test_selection_scan_exhaustion_reports_near_miss():
    # a constant sequence far from 1 can never meet the threshold
    seq = geometric_matrix_sequence(ROTATION, 0.999999)
    with pytest.raises(SelectionError) as err:
        select_product_subsequence(
            seq, lambda k: FolnerBox(2, 1),
            SupNormExhaustion(IntegerLattice(2)), count=1, scan_horizon=4)
    assert err.value.step == 1
    assert err.value.best_index is not None
    assert err.value.best_sup > 1.0


def test_selection_sequence_runs_out():
    from twistlab.cocycles import from_list
    seq = from_list([MatrixCocycle(ROTATION)])
    with pytest.raises(SelectionError) as err:
        select_product_subsequence(
            seq, lambda k: FolnerBox(2, 2),
            SupNormExhaustion(IntegerLattice(2)), count=2, scan_horizon=10)
    assert "ran out" in str(err.value)


def test_selection_input_validation():
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    ex = SupNormExhaustion(IntegerLattice(2))
    with pytest.raises(ValueError):
        select_product_subsequence(seq, lambda k: FolnerBox(2, 1), ex, count=0)
    with pytest.raises(ValueError):
        select_product_subsequence(seq, lambda k: FolnerBox(2, 1), ex, count=1,
                                   thresholds=lambda k: 0.0)


def test_selection_accepts_box_list():
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    boxes = [FolnerBox(2, 1), FolnerBox(2, 4)]
    report = select_product_subsequence(
        seq, boxes, SupNormExhaustion(IntegerLattice(2)), count=2)
    assert len(report.indices) == 2


def test_selected_twist_means_obey_thresholds_on_deep_window():
    """Post-selection, the twist mean at any x inside window N is bounded by
    the step threshold for every step k >= N."""
    seq = geometric_matrix_sequence(ROTATION, 0.5)
    exhaustion = SupNormExhaustion(IntegerLattice(2))
    boxes = lambda k: FolnerBox(2, k ** 2)
    count = 4
    report = select_product_subsequence(seq, boxes, exhaustion, count=count)
    big_n = 2
    for x in exhaustion.subset(big_n):
        for k in range(big_n, count + 1):
            j = report.indices[k - 1]
            mean = box_twist_mean(seq.member(j).matrix, boxes(k), x)
            assert mean <= 1.0 / k ** 2 + 1e-9


# --- Dirichlet windows ---


def brute_dirichlet(window, theta):
    total = sum(cmath.exp(1j * t * theta) for t in range(-window, window + 1))
    return total.real / (2 * window + 1)


def test_dirichlet_value_spots():
    assert dirichlet_value(1, math.pi / 2) == pytest.approx(1.0 / 3.0)
    assert dirichlet_value(1, math.pi) == pytest.approx(-1.0 / 3.0)
    assert dirichlet_value(0, 2.3) == 1.0
    assert dirichlet_value(5, 0.0) == 1.0
    assert dirichlet_value(3, 2.0 * math.pi) == pytest.approx(1.0)


def test_dirichlet_value_matches_brute_mean():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(0, 60))
        theta = float(rng.uniform(-8.0, 8.0))
        assert dirichlet_value(n, theta) == pytest.approx(
            brute_dirichlet(n, theta), abs=1e-12)


def test_dirichlet_value_periodic_reduction():
    assert dirichlet_value(7, 4.0 * math.pi + 0.3) == pytest.approx(
        dirichlet_value(7, 0.3), abs=1e-12)
    with pytest.raises(ValueError):
        dirichlet_value(-1, 0.5)


def test_dirichlet_value_of_the_smallest_subnormal_angle():
    # 0.5 * 5e-324 rounds to 0, so the sine quotient has no denominator;
    # 1 - D(n, theta) < (m theta)^2 / 24 is far below half an ulp of 1.
    for window in (0, 3, 10 ** 8, 10 ** 300):
        assert dirichlet_value(window, 5e-324) == 1.0
        assert dirichlet_value(window, -5e-324) == 1.0
    assert dirichlet_value(3, 1e-323) == 1.0


def test_dirichlet_condition_convergent_case():
    report = dirichlet_condition(
        lambda j: j ** 2, PowerModel(1.0, 2.0),
        lambda j: math.pi * float(j) ** -4.0,
        PowerModel(math.pi, -4.0, relation=MAJORANT),
        n_max=40)
    assert report.inverse_window.verdict == PROVED_CONVERGENT
    assert report.deviation.verdict == PROVED_CONVERGENT
    assert report.conclusion == PROVED_CONVERGENT
    # the certified deviation tail covers a numerically extended run
    extra = sum(abs(1.0 - dirichlet_value(j * j, math.pi * float(j) ** -4.0))
                for j in range(41, 400))
    assert report.deviation.tail_bound + 1e-12 >= extra


def test_dirichlet_condition_divergent_inverse_window():
    report = dirichlet_condition(
        lambda j: j, PowerModel(1.0, 1.0),
        lambda j: 1.0 / j ** 2, PowerModel(1.0, -2.0, relation=MAJORANT),
        n_max=30)
    assert report.inverse_window.verdict == PROVED_DIVERGENT
    assert report.conclusion == PROVED_DIVERGENT


def test_dirichlet_condition_no_summable_envelope():
    # windows j^2 against angles 1/j: the chord product grows, no certificate
    report = dirichlet_condition(
        lambda j: j ** 2, PowerModel(1.0, 2.0),
        lambda j: 1.0 / j, PowerModel(1.0, -1.0, relation=MAJORANT),
        n_max=25)
    assert report.inverse_window.verdict == PROVED_CONVERGENT
    assert report.deviation.verdict == INCONCLUSIVE
    assert report.conclusion == INCONCLUSIVE


def test_dirichlet_deviation_never_claims_divergence():
    # even with wide windows and big angles the deviation series stays
    # undetermined; the Dirichlet mean oscillates, so no minorant exists
    report = dirichlet_condition(
        lambda j: j ** 2, PowerModel(1.0, 2.0),
        lambda j: 2.5, None, n_max=20)
    assert report.deviation.verdict == INCONCLUSIVE


def test_dirichlet_condition_validation():
    with pytest.raises(ConstructionError):
        dirichlet_condition(lambda j: 0, None, lambda j: 0.1, None, n_max=3)
    with pytest.raises(ValueError):
        dirichlet_condition(lambda j: j, None, lambda j: 0.1, None, n_max=0)


# --- gauge fixing ---


def test_gauge_fix_intertwines_perturbed_inner_products():
    g = IntegerLattice(2)
    u = MatrixCocycle(np.array([[0.2, -0.5], [0.3, 0.1]]))
    rho = quadratic_phase(0.3, g)
    phi = box_vector(FolnerBox(2, 3))
    psi = gauge_fix(rho, phi, g)
    v = perturb(u, rho)
    for x in [(0, 0), (1, 0), (2, -1), (-3, 2)]:
        lhs = twisted_inner_product(v, psi, x)
        rhs = rho(g.element(x)) * twisted_inner_product(u, phi, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_gauge_fix_requires_unimodular_weights():
    g = IntegerLattice(1)
    phi = box_vector(FolnerBox(1, 2))
    with pytest.raises(ConstructionError):
        gauge_fix(lambda x: 0.5, phi, g)


def test_gauge_fix_on_finite_group():
    from twistlab.groups import FiniteAbelianGroup
    from twistlab.reps import TruncatedVector
    g = FiniteAbelianGroup((2, 2))
    u = pauli_cocycle()
    rho = lambda x: cmath.exp(0.7j * (x[0] * x[1]))
    pts = g.elements()
    phi = TruncatedVector(pts, np.full(4, 0.5, dtype=complex))
    psi = gauge_fix(rho, phi, g)
    v = perturb(u, rho)
    for x in pts:
        lhs = twisted_inner_product(v, psi, x)
        rhs = rho(x) * twisted_inner_product(u, phi, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
