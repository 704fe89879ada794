"""Array passes against the scalar values they replace, bit for bit.

``Cocycle.values``, ``MatrixCocycle.phases``, the bilinear maps'
``phase_array`` and ``CCRPair.phases`` must give the bits of one ``value``
or ``phase`` call per entry.  Parts are compared as int64 views, NaN equal to
any NaN.  The matrix phases rest on ``np.dot``'s rounding, which
``test_dot_rows_round_as_the_live_ddot`` pins.
"""

import cmath
import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cocycles import pointwise_cocycle_identity, random_phases, small_moduli
from test_report_golden import replay_without_fma
from test_reps import on_the_recording_kernel
from twistlab.cocycles import (
    _DOT_CHAIN_MAX,
    BilinearCocycle,
    CoboundaryCocycle,
    MatrixBilinear,
    MatrixCocycle,
    ProductCocycle,
    TableBilinear,
    TableCocycle,
    _dot_rows,
    _gemv_rows,
    check_cocycle_identity,
    normalization_residual,
    quadratic_phase,
    sample_triples,
    trivial_cocycle,
)
from twistlab.eft import fma
from twistlab.groups import FiniteAbelianGroup, FolnerBox, IntegerLattice, sample_elements
from twistlab.reps import ccr_pair

KINDS = st.sampled_from(["quarter", "wide", "nan"])


def same_bits(got, expected):
    """Equal shapes and dtypes, and every part with the same bits; NaN equals NaN."""
    got, expected = np.asarray(got), np.asarray(expected)
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return False
    parts = [(got.real, expected.real), (got.imag, expected.imag)] if got.dtype == complex \
        else [(got, expected)]
    for g, e in parts:
        g, e = np.ascontiguousarray(g), np.ascontiguousarray(e)
        if not ((g.view(np.int64) == e.view(np.int64)) | (np.isnan(g) & np.isnan(e))).all():
            return False
    return True


def scalar_values(u, xi, yi, points=None):
    """u.value per pair of the broadcast index arrays, in their shape."""
    xi, yi = np.broadcast_arrays(xi, yi)
    els = u.group.elements() if points is None else [tuple(p) for p in points.tolist()]
    return np.array([u.value(els[i], els[j]) for i, j in zip(xi.ravel().tolist(),
                                                              yi.ravel().tolist())],
                    dtype=complex).reshape(xi.shape)


def finite_cocycle(rng, a_moduli, b_moduli, form, kind):
    """A cocycle of the given form on A x B; a product nests a product."""
    group = FiniteAbelianGroup(a_moduli + b_moduli)
    n = group.order
    if form == "product":
        basic = ["table", "signed", "trivial", "coboundary", "bilinear"]
        f, g, h = (finite_cocycle(rng, a_moduli, b_moduli, basic[k], kind)
                   for k in rng.integers(0, 5, 3))
        return ProductCocycle([f, ProductCocycle([g, h])])
    if form in ("table", "signed"):
        # signed: exact quarter turns with signed zero parts, where a product
        # that skips the fold's first factor 1 + 0j moves the sign of a zero
        table = (np.exp(1j * random_phases(rng, (n, n), kind)) if form == "table" else
                 rng.choice([1, -1, 1j, -1j, complex(-0.0, -1.0), complex(-1.0, -0.0),
                             complex(-0.0, 1.0), complex(1.0, -0.0)], (n, n)))
        table[0, :] = table[:, 0] = 1.0
        return TableCocycle(group, table)
    if form == "trivial":
        return trivial_cocycle(group)
    if form == "coboundary":
        return CoboundaryCocycle(group, quadratic_phase(float(random_phases(rng, (1,), kind)[0]), group))
    a, b = FiniteAbelianGroup(a_moduli), FiniteAbelianGroup(b_moduli)
    phases = random_phases(rng, (a.order, b.order), kind)
    phases[0, :] = phases[:, 0] = 0.0
    return BilinearCocycle(TableBilinear(a, b, phases))


@settings(max_examples=200, deadline=None)
@given(small_moduli, small_moduli, st.integers(0, 2**32 - 1),
       st.sampled_from(["table", "signed", "trivial", "coboundary", "bilinear", "product"]),
       KINDS)
def test_finite_values_equal_the_scalar_values_bit_for_bit(a_moduli, b_moduli, seed, form,
                                                           kind):
    rng = np.random.default_rng(seed)
    u = finite_cocycle(rng, a_moduli, b_moduli, form, kind)
    n = u.group.order
    # every pair, the identity's row and column among them
    xi, yi = np.divmod(np.arange(n * n), n)
    assert same_bits(u.values(xi, yi), scalar_values(u, xi, yi))
    # a later call reads what an earlier one kept; indices broadcast
    pick = rng.integers(0, n, 7)
    assert same_bits(u.values(pick[:, None], pick), scalar_values(u, pick[:, None], pick))
    assert same_bits(u.values(pick, int(pick[0])), scalar_values(u, pick, int(pick[0])))
    assert u.values(pick[:0], pick[:0]).shape == (0,)


def test_the_broadcast_trivial_table_stays_one_entry():
    u = trivial_cocycle(FiniteAbelianGroup((64, 64)))
    idx = np.arange(0, 4096, 97)
    tracemalloc.start()
    try:
        values = u.values(idx[:, None], idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.table.strides == (0, 0) and peak < 1 << 16
    assert same_bits(values, scalar_values(u, idx[:, None], idx))


def test_a_coboundary_runs_rho_once_per_distinct_element():
    group = FiniteAbelianGroup((3, 4))
    seen = []
    rho = quadratic_phase(0.7, group)
    u = CoboundaryCocycle(group, lambda x: seen.append(x) or rho(x))
    seen.clear()
    xi, yi = np.divmod(np.arange(144), 12)
    for _ in range(2):
        assert same_bits(u.values(xi, yi), scalar_values(CoboundaryCocycle(group, rho), xi, yi))
    # rho runs once per element, the identity included: x + y = 0 reaches it
    assert sorted(seen) == sorted(group.elements())


@on_the_recording_kernel
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from(["matrix", "coboundary", "product"]), KINDS)
def test_lattice_values_equal_the_scalar_values_bit_for_bit(rank, seed, form, kind):
    rng = np.random.default_rng(seed)
    group = IntegerLattice(rank)

    def basic(name):
        if name == "matrix":
            return MatrixCocycle(random_phases(rng, (rank, rank), kind))
        return CoboundaryCocycle(group, quadratic_phase(float(random_phases(rng, (1,), kind)[0]), group))

    u = (ProductCocycle([basic("coboundary"), ProductCocycle([basic("matrix"), basic("matrix")])])
         if form == "product" else basic(form))
    points = rng.integers(-6, 7, (12, rank))
    points[0] = 0
    points[1] = points[2]
    xi, yi = np.divmod(np.arange(144), 12)
    assert same_bits(u.values(xi, yi, points), scalar_values(u, xi, yi, points))


@on_the_recording_kernel
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.integers(0, 60), KINDS, st.booleans())
def test_lattice_identity_and_normalization_equal_the_pointwise_folds(rank, seed, count, kind,
                                                                      perturbed):
    rng = np.random.default_rng(seed)
    group = IntegerLattice(rank)
    u = MatrixCocycle(random_phases(rng, (rank, rank), kind))
    if perturbed:
        u = ProductCocycle([CoboundaryCocycle(group, quadratic_phase(0.3, group)), u])
    triples = sample_triples(group, count, 5, rng)
    assert check_cocycle_identity(u, triples).hex() == \
        pointwise_cocycle_identity(u, triples).hex()
    xs = [x for x, _, _ in triples]
    expected = 0.0
    for x in xs:
        for a, b in ((group.identity, x), (x, group.identity)):
            d = abs(u.value(a, b) - 1.0)
            expected = d if d > expected or d != d else expected
    assert normalization_residual(u, xs).hex() == expected.hex()


def test_lattice_points_past_two_to_the_sixty_take_the_pointwise_folds():
    u = MatrixCocycle([[0.3, -0.2], [0.1, 0.25]])
    far = (1 << 61, 3)
    triples = [((1, 0), far, (0, 2)), ((1, 1), (2, -1), (0, 1))]
    assert check_cocycle_identity(u, triples) == pointwise_cocycle_identity(u, triples)
    assert normalization_residual(u, [far, (1, 2)]) == max(
        abs(u.value(a, b) - 1.0) for x in (far, (1, 2))
        for a, b in (((0, 0), x), (x, (0, 0))))


@settings(max_examples=60, deadline=None)
@given(small_moduli, small_moduli, st.integers(0, 2**32 - 1), st.integers(0, 60), KINDS)
def test_finite_normalization_equals_the_pointwise_fold(a_moduli, b_moduli, seed, count, kind):
    rng = np.random.default_rng(seed)
    u = finite_cocycle(rng, a_moduli, b_moduli, "product", kind)
    xs = sample_elements(u.group, count, 0, rng)
    e = u.group.identity
    expected = 0.0
    for x in xs:
        for a, b in ((e, x), (x, e)):
            d = abs(u.value(a, b) - 1.0)
            expected = d if d > expected or d != d else expected
    assert normalization_residual(u, xs).hex() == expected.hex()


# --- images: one stacked gemv against image per point ---


def gemv_layouts(rng, p, q):
    """One (p, q) matrix, wide-ranged, as a C-ordered array, an F-ordered one
    and a strided view."""
    m = rng.uniform(-4.0, 4.0, (p, q)) * rng.choice([1e-300, 1e-9, 1.0, 1e9], (p, q))
    wide = rng.uniform(-4.0, 4.0, (2 * p, 3 * q))
    wide[::2, ::3] = m
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "strided": wide[::2, ::3]}


def gemv_mismatches(seed=29):
    """(p, q, layout, count) where cocycles._gemv_rows departs from matrix @ v
    per row, or from the image methods per point; coordinates run up to
    about 2^60 and the counts include no point at all."""
    rng = np.random.default_rng(seed)
    wrong = []
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            coords = np.concatenate([rng.integers(-50, 51, (20, q)),
                                     rng.integers(-2**40, 2**40, (20, q)),
                                     rng.integers(2**60 - 2**12, 2**60, (20, q))
                                     * rng.choice([-1, 1], (20, q))])
            rng.shuffle(coords)
            points = [tuple(v) for v in coords.tolist()]
            for layout, m in gemv_layouts(rng, p, q).items():
                for count in (0, 1, 7, 60):
                    vectors = coords[:count].astype(float)
                    live = np.array([m @ v for v in vectors]).reshape(count, p)
                    if not same_bits(_gemv_rows(m, vectors), live):
                        wrong.append((p, q, layout, count))
            sigma = MatrixBilinear(m)
            images = np.array([sigma.image(y) for y in points])
            if not same_bits(_gemv_rows(sigma.d, coords.astype(float)), images):
                wrong.append((p, q, "MatrixBilinear.image", len(points)))
            if p == q:
                u = MatrixCocycle(m)
                images = np.array([u.image(y) for y in points])
                if not same_bits(_gemv_rows(u.matrix, coords.astype(float)), images):
                    wrong.append((p, q, "MatrixCocycle.image", len(points)))
    return wrong


def test_stacked_gemv_equals_the_gemv_per_point():
    """np.matmul over a stack of columns makes the gemv call of matrix @ v
    per column, so the images keep their bits on any BLAS kernel."""
    assert gemv_mismatches() == []


def test_stacked_gemv_equals_the_gemv_per_point_on_a_kernel_without_fma():
    found = replay_without_fma("from test_value_arrays import gemv_mismatches\n"
                               "print(json.dumps({'unfused': unfused, 'wrong': gemv_mismatches()}))")
    # the child's BLAS really is another kernel than the FMA ones
    assert found["unfused"] > 0
    assert found["wrong"] == []


# --- matrix phases: a . (D b) as np.dot rounds it ---


@on_the_recording_kernel
def test_dot_rows_round_as_the_live_ddot():
    """cocycles._dot_rows against np.dot at lengths 1 to 24.

    OpenBLAS's SkylakeX ddot, which the digests were recorded with, returns
    a0 * b0 for one term and adds 2 to _DOT_CHAIN_MAX terms as one forward
    chain of fused multiply-adds from +0, signed zeros and subnormals
    included; a kernel that rounds otherwise fails here, and the matrix
    phases then keep the recording kernel's bits.
    """
    rng = np.random.default_rng(28)
    wrong = []
    for p in range(1, 25):
        a = rng.integers(-3, 4, (400, p)).astype(float)
        a[::3] = 0.0  # zero products: ddot's chain starts from +0, one term is a0 * b0
        b = rng.uniform(-4.0, 4.0, (400, p)) * rng.choice([1e-9, 1.0, 1e3, 1e-320, 0.0], (400, p))
        live = np.array([np.dot(x, y) for x, y in zip(a, b)])
        if not same_bits(_dot_rows(a, b), live):
            wrong.append(p)
        if 1 < p <= _DOT_CHAIN_MAX:
            chain = np.zeros(400)
            for j in range(p):
                chain = fma(a[:, j], b[:, j], chain)
            if not same_bits(chain, live):
                wrong.append(("chain", p))
    assert wrong == [], f"np.dot rounds otherwise at lengths {wrong}"


@on_the_recording_kernel
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1), KINDS)
def test_matrix_sigma_phase_arrays_equal_per_point_phase(p, q, seed, kind):
    rng = np.random.default_rng(seed)
    sigma = MatrixBilinear(random_phases(rng, (p, q), kind))
    a = [tuple(v) for v in rng.integers(-40, 41, (30, p)).tolist()] + [(0,) * p]
    b = [tuple(v) for v in rng.integers(-6, 7, (30, q)).tolist()] + [(0,) * q]
    rng.shuffle(b)
    assert same_bits(sigma.phase_array(a, b), np.array([sigma.phase(x, y) for x, y in zip(a, b)]))
    side = int(rng.integers(0, 6))
    pair = ccr_pair(sigma, FolnerBox(q, side, tuple(rng.integers(-3, 4, q).tolist())))
    pair.relation_residual(list(zip(a[:5], b[:5])))  # fills five rows in one pass
    for x in a[:8]:
        expected = np.array([cmath.exp(1j * sigma.phase(x, y)) for y in pair.basis])
        assert same_bits(pair.phases(x), expected)


@on_the_recording_kernel
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), KINDS)
def test_matrix_cocycle_phases_equal_per_point_phase(rank, seed, kind):
    rng = np.random.default_rng(seed)
    u = MatrixCocycle(random_phases(rng, (rank, rank), kind))
    points = rng.integers(-50, 51, (15, rank))
    xi, yi = np.divmod(np.arange(225), 15)
    els = [tuple(p) for p in points.tolist()]
    expected = np.array([u.phase(els[i], els[j]) for i, j in zip(xi.tolist(), yi.tolist())])
    assert same_bits(u.phases(xi, yi, points), expected)


def test_table_sigma_phase_arrays_and_rows_equal_per_entry_values():
    rng = np.random.default_rng(5)
    a_group, b_group = FiniteAbelianGroup((3,)), FiniteAbelianGroup((2, 3))
    sigma = TableBilinear(a_group, b_group, random_phases(rng, (3, 6), "wide"))
    a = [a_group.elements()[i] for i in rng.integers(0, 3, 20)]
    b = [b_group.elements()[i] for i in rng.integers(0, 6, 20)]
    assert same_bits(sigma.phase_array(a, b), np.array([sigma.phase(x, y) for x, y in zip(a, b)]))
    pair = ccr_pair(sigma, b_group)
    for x in a_group.elements():
        assert same_bits(pair.phases(x), np.array([sigma.value(x, y) for y in pair.basis]))
    assert math.isnan(TableBilinear(a_group, b_group, np.full((3, 6), math.nan))
                      .phase_array([(1,)], [(0, 2)])[0])
