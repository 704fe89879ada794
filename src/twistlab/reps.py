"""Projective unitary representations and their truncations.

The twisted regular representation acts on l2 of a finite abelian group by
(lambda_u(x) f)(y) = u(y^{-1}, x) f(x^{-1} y), giving matrices with one
unit-modulus entry per column.  On Z^N only two realizations are used:
closed-form inner products against box vectors, and explicitly windowed
dense matrices whose boundary effects are reported, never hidden.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import eft
from .cocycles import (
    BilinearCocycle,
    Cocycle,
    ConstructionError,
    MatrixBilinear,
    ProductCocycle,
    TableBilinear,
    _dot_rows,
    _products,
    _unit_phases,
    canonicalize_phases,
    flatten_matrix_cocycle,
    pauli_cocycle,
    residual_max,
)
from .parallel import map_ordered
from .groups import (
    Element,
    FiniteAbelianGroup,
    FolnerBox,
    Group,
    GroupMismatchError,
    IntegerLattice,
)

DIMENSION_CAP = 4096


class DimensionCapError(ValueError):
    """A dense construction would exceed the configured dimension cap."""


def _check_dimension(what: str, n: int) -> None:
    """Refuse a dense construction of dimension n above DIMENSION_CAP, before any work."""
    if n > DIMENSION_CAP:
        raise DimensionCapError(f"{what} {n} exceeds cap {DIMENSION_CAP}")


def unitarity_residual(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(np.max(np.abs(m.conj().T @ m - np.eye(n))))


def regular_rep_matrix(u: Cocycle, group: FiniteAbelianGroup, x: Element) -> np.ndarray:
    """Dense matrix of lambda_u(x) in the fixed element basis.

    Column g holds u(-(x + g), x) in row x + g: one scatter from the group's
    index tables of one ``values`` call over the columns, in column order.
    """
    if not isinstance(group, FiniteAbelianGroup):
        raise GroupMismatchError("dense regular representation needs a finite group")
    if u.group != group:
        raise GroupMismatchError("cocycle and group disagree")
    n = group.order
    _check_dimension("group order", n)
    cols = np.arange(n)
    xi = group.index(group.require(x))
    rows = group.add_indices(xi, cols)
    mat = np.zeros((n, n), dtype=complex)
    mat[rows, cols] = u.values(group.neg_indices(rows), xi)
    mat.setflags(write=False)
    return mat


# Bytes of dense matrices one representation keeps.  A matrix that does not
# fit is built again on every call, so memory stays bounded for large groups.
MATRIX_CACHE_BYTES = 1 << 25


def _cached_matrices(group: FiniteAbelianGroup,
                     build: Callable[[Element], np.ndarray]) -> Callable[[Element], np.ndarray]:
    """x -> build(x) for group elements x, kept per element while the budget lasts.

    Every matrix is read only, since callers share the kept ones.
    """
    cache: dict[Element, np.ndarray] = {}
    kept = 0

    def matrix(x: Element) -> np.ndarray:
        nonlocal kept
        x = group.require(x)
        mat = cache.get(x)
        if mat is None:
            mat = build(x)
            mat.setflags(write=False)
            if kept + mat.nbytes <= MATRIX_CACHE_BYTES:
                cache[x] = mat
                kept += mat.nbytes
        return mat

    return matrix


@dataclass(frozen=True)
class ProjectiveRep:
    """A map x -> unitary matrix satisfying U(x) U(y) = u(x, y) U(x y)."""

    group: FiniteAbelianGroup
    cocycle: Cocycle
    matrix: Callable[[Element], np.ndarray]
    dimension: int


def regular_rep(u: Cocycle, group: FiniteAbelianGroup) -> ProjectiveRep:
    if not isinstance(group, FiniteAbelianGroup):
        raise GroupMismatchError("dense regular representation needs a finite group")
    if u.group != group:
        raise GroupMismatchError("cocycle and group disagree")
    _check_dimension("group order", group.order)
    return ProjectiveRep(group, u, _cached_matrices(
        group, lambda x: regular_rep_matrix(u, group, x)), group.order)


def pauli_rep() -> ProjectiveRep:
    """U((a, b)) = V^a W^b with V the flip and W the sign matrix on C^2."""
    g = FiniteAbelianGroup((2, 2))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sign = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return ProjectiveRep(g, pauli_cocycle(), _cached_matrices(
        g, lambda x: np.linalg.matrix_power(flip, x[0]) @ np.linalg.matrix_power(sign, x[1])), 2)


# numpy's NPY_MIN_ELIDE_BYTES: from 256 KiB on, an unnamed temporary is reused in place.
ELISION_BYTES = 1 << 18
# Entries of U(x) U(y) that one block of pairs of the monomial relation check holds.
RELATION_BLOCK_ENTRIES = 1 << 14
# Entries of the phase rows of a CCR pair computed in one array pass.
PHASE_BLOCK_ENTRIES = 1 << 15
# Bytes of matrices stacked at once to find the non-zero of each column.
_STACK_BYTES = 1 << 22


def projective_relation_check(rep: ProjectiveRep,
                              pairs: Optional[Sequence[tuple[Element, Element]]] = None) -> float:
    """Max entry residual |U(x) U(y) - u(x, y) U(x y)| over the pairs.

    When every matrix read is a C-ordered complex n x n array with one
    non-zero per column, each U(z) is read once as (row index, entry) per
    column, and a pair costs O(n): column j of U(x) U(y) holds one term
    a * c, at the row U(x) gives to the row of c in U(y), and column j of
    u(x, y) U(x y) holds s * e.  The residual has the bits of the dense form
    ``_dense_relation_residual``: a * c is rounded as zgemm rounds it
    (``_monomial_products``), s * e is ``np.multiply(s, e)`` as numpy ran
    ``s * U(x y)``, or ``np.multiply(e, s)`` where numpy reused the matrix
    in place (``_elided``), and every other entry is 0 - 0.  Any other
    matrix, a non-finite entry or cocycle value, or a non-finite residual
    takes the dense form.
    """
    g = rep.group
    if pairs is None:
        if g.order > 64:
            raise ValueError("supply explicit pairs for groups of order above 64")
        els = g.elements()
        pairs = [(x, y) for x in els for y in els]
        xi, yi = np.divmod(np.arange(len(pairs)), len(els))
    else:
        pairs = list(pairs)
        if not isinstance(g, FiniteAbelianGroup):
            return _dense_relation_residual(rep, pairs)
        xi = np.array([g.index(g.require(x)) for x, _ in pairs], dtype=np.intp)
        yi = np.array([g.index(g.require(y)) for _, y in pairs], dtype=np.intp)
    s = rep.cocycle.values(xi, yi)
    used, slots = np.unique(np.stack([xi, yi, g.add_indices(xi, yi)]).ravel(),
                            return_inverse=True)
    els = g.elements()
    columns = _monomial_columns(rep, [els[i] for i in used.tolist()])
    if columns is None or not (np.isfinite(s).all() and np.isfinite(columns[1]).all()):
        return _dense_relation_residual(rep, pairs)
    rows, entries, elided = columns
    xs, ys, zs = slots.reshape(3, -1)
    n = rep.dimension
    per = max(1, RELATION_BLOCK_ENTRIES // n)
    worst = 0.0
    for lo in range(0, len(pairs), per):
        x, y, z, sb = xs[lo:lo + per], ys[lo:lo + per], zs[lo:lo + per], s[lo:lo + per, None]
        k = rows[y]
        left = _monomial_products(entries[x[:, None], k], entries[y])
        right = np.multiply(sb, entries[z])
        swap = elided[z]
        if swap.any():
            right[swap] = np.multiply(entries[z[swap]], sb[swap])
        same = rows[x[:, None], k] == rows[z]
        worst = max(worst, np.max(np.abs(np.where(same, left - right, left))),
                    np.max(np.abs(right[~same]), initial=0.0))
    return float(worst) if math.isfinite(worst) else _dense_relation_residual(rep, pairs)


def _dense_relation_residual(rep: ProjectiveRep,
                             pairs: Sequence[tuple[Element, Element]]) -> float:
    """The relation residual with one n x n product per pair, for any matrices.

    Keep the expressions as written: zgemm's rounding of the product and
    numpy's elision of the temporary U(x y) set the last bits.
    """
    g = rep.group
    worst = 0.0
    for x, y in pairs:
        lhs = rep.matrix(x) @ rep.matrix(y)
        rhs = rep.cocycle.value(x, y) * rep.matrix(g.add(x, y))
        worst = residual_max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _monomial_columns(rep: ProjectiveRep, elements: Sequence[Element]
                      ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per element z, in order: the row index and the entry of the one
    non-zero in each column of U(z), and whether ``_elided`` holds; None
    unless every U(z) is a C-ordered complex n x n array with one non-zero
    per column."""
    n = rep.dimension
    rows = np.empty((len(elements), n), dtype=np.intp)
    entries = np.empty((len(elements), n), dtype=complex)
    elided = np.zeros(len(elements), dtype=bool)
    per = max(1, _STACK_BYTES // (16 * n * n))
    for lo in range(0, len(elements), per):
        zs = elements[lo:lo + per]
        mats = [rep.matrix(z) for z in zs]
        columns = _monomial_stack(mats, n)
        if columns is None:
            return None
        rows[lo:lo + len(zs)], entries[lo:lo + len(zs)] = columns
        elided[lo:lo + len(zs)] = [_elided(rep, z, mat) for z, mat in zip(zs, mats)]
    return rows, entries, elided


def _monomial_stack(mats: Sequence[np.ndarray], n: int
                    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The row index and the entry of the one non-zero in each column of each
    matrix, as two (len(mats), n) arrays, stacking at most _STACK_BYTES of
    matrices at a time; None unless every matrix is a C-ordered complex
    n x n array with one non-zero per column."""
    if not all(type(mat) is np.ndarray and mat.dtype == complex and mat.shape == (n, n)
               and mat.flags.c_contiguous for mat in mats):
        return None
    rows = np.empty((len(mats), n), dtype=np.intp)
    entries = np.empty((len(mats), n), dtype=complex)
    per = max(1, _STACK_BYTES // (16 * n * n))
    for lo in range(0, len(mats), per):
        stack = np.stack(mats[lo:lo + per])
        nonzero = stack != 0
        if not (np.count_nonzero(nonzero, axis=1) == 1).all():
            return None
        at = np.argmax(nonzero, axis=1)
        rows[lo:lo + len(stack)] = at
        entries[lo:lo + len(stack)] = np.take_along_axis(stack, at[:, None, :], axis=1)[:, 0]
    return rows, entries


def _elided(rep: ProjectiveRep, z: Element, mat: np.ndarray) -> bool:
    """Whether numpy computed the dense form's s * U(z) in place, as U(z) * s.

    numpy reuses an unnamed temporary that owns its writeable data from
    ELISION_BYTES on.  Every matrix this module builds is read only; a
    matrix the rep hands out again is not a temporary.
    """
    return (mat.flags.writeable and mat.flags.owndata and mat.nbytes >= ELISION_BYTES
            and rep.matrix(z) is not mat)


def _monomial_products(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a * c, over (pairs, n) blocks, as zgemm rounds the one term of an entry
    of a product of monomial matrices (OpenBLAS's SkylakeX kernel): unfused in
    CPython's order, re = ar cr - ai ci and im = ar ci + ai cr, except in the
    last n mod 4 columns for n >= 2, where re = fma(ar, cr, -(ai ci)) and
    im = fma(ar, ci, ai cr)."""
    out = _products(a, c)
    n = a.shape[1]
    if n > 1 and n % 4:
        ar, ai, cr, ci = a.real, a.imag, c.real, c.imag
        t = np.s_[:, 4 * (n // 4):]
        out.real[t] = eft.fma(ar[t], cr[t], -(ai[t] * ci[t]))
        out.imag[t] = eft.fma(ar[t], ci[t], ai[t] * cr[t])
    return out


def tensor_rep(reps: Sequence[ProjectiveRep]) -> ProjectiveRep:
    """Kronecker product of finitely many representations over one group.

    The cocycle multiplies; a single factor comes back unchanged.
    """
    reps = list(reps)
    if not reps:
        raise ValueError("need at least one representation")
    if len(reps) == 1:
        return reps[0]
    g = reps[0].group
    for r in reps[1:]:
        if r.group != g:
            raise GroupMismatchError("tensor factors must share one group")
    dim = 1
    for r in reps:
        dim *= r.dimension
    _check_dimension("tensor dimension", dim)

    def build(x: Element) -> np.ndarray:
        out = reps[0].matrix(x)
        for r in reps[1:]:
            out = np.kron(out, r.matrix(x))
        return out

    return ProjectiveRep(g, ProductCocycle([r.cocycle for r in reps]),
                         _cached_matrices(g, build), dim)


# ---------------------------------------------------------------------------
# truncated vectors and inner products


@dataclass(frozen=True)
class TruncatedVector:
    """Finitely supported unit vector: support points plus complex weights."""

    points: tuple[Element, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if len(self.points) != vals.shape[0]:
            raise ValueError("points and values must have equal length")
        lookup = {}
        for p, v in zip(self.points, vals):
            if p in lookup:
                raise ValueError(f"duplicate support point {p!r}")
            lookup[p] = complex(v)
        nrm = float(np.linalg.norm(vals))
        if abs(nrm - 1.0) > 1e-12:
            raise ConstructionError(f"vector norm {nrm} is not 1 within 1e-12")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def normalized(cls, points: Sequence[Element], values) -> "TruncatedVector":
        vals = np.asarray(values, dtype=complex)
        nrm = float(np.linalg.norm(vals))
        if nrm == 0.0:
            raise ConstructionError("cannot normalize the zero vector")
        return cls(tuple(points), vals / nrm)

    def value_at(self, x: Element) -> complex:
        return self._lookup.get(x, 0.0 + 0.0j)  # type: ignore[attr-defined]


def box_vector(box: FolnerBox) -> TruncatedVector:
    """Normalized characteristic vector of a box."""
    pts = tuple(box.points())
    w = 1.0 / math.sqrt(box.cardinality())
    return TruncatedVector(pts, np.full(len(pts), w, dtype=complex))


def point_mass(x: Element) -> TruncatedVector:
    return TruncatedVector((tuple(x),), np.array([1.0 + 0.0j]))


def twisted_inner_product(u: Cocycle, phi: TruncatedVector, x: Element) -> complex:
    """(lambda_u(x) phi, phi) = sum_y u(y^{-1}, x) phi(x^{-1} y) conj(phi(y))."""
    g = u.group
    x = g.element(x)
    nx = g.neg(x)
    total = 0.0 + 0.0j
    for y, vy in zip(phi.points, phi.values):
        w = phi.value_at(g.add(y, nx))
        if w:
            total += u.value(g.neg(y), x) * w * vy.conjugate()
    return total


def weak_containment_overlap(phi: TruncatedVector, x: Element,
                             group: Optional[Group] = None) -> float:
    """(lambda(x)|phi|, |phi|): the untwisted overlap of absolute amplitudes."""
    if group is None:
        group = IntegerLattice(len(phi.points[0]))
    x = group.element(x)
    nx = group.neg(x)
    total = 0.0
    for y, vy in zip(phi.points, phi.values):
        total += abs(phi.value_at(group.add(y, nx))) * abs(vy)
    return total


def _geometric_window_sum(delta: float, low: int, length: int) -> complex:
    """sum_{t=low}^{low+length-1} exp(-i delta t) with delta already in (-pi, pi]."""
    if delta == 0.0:
        return complex(length)
    mid = low + (length - 1) / 2.0
    return cmath.exp(-1j * delta * mid) * (math.sin(length * delta / 2.0) / math.sin(delta / 2.0))


def rep_inner_product(u: Cocycle, box: FolnerBox, x: Element) -> complex:
    """(lambda_u(x) phi_F, phi_F) = (1/#F) sum over F intersect xF of u(y^{-1}, x).

    Matrix cocycles factor into per-axis geometric sums; other lattice
    variants walk the overlap region directly.
    """
    if not isinstance(u.group, IntegerLattice) or u.group.rank != box.rank:
        raise GroupMismatchError("cocycle must live on the box's lattice")
    x = u.group.element(x)
    bounds = box.overlap_bounds(x)
    if bounds is None:
        return 0.0 + 0.0j
    lows, highs = bounds
    card = box.cardinality()
    flat = flatten_matrix_cocycle(u)
    if flat is not None:
        c = flat @ np.asarray(x, dtype=float)
        deltas = canonicalize_phases(c)
        total = 1.0 + 0.0j
        for lo, hi, d in zip(lows, highs, np.atleast_1d(deltas)):
            total *= _geometric_window_sum(float(d), lo, hi - lo + 1)
        return total / card
    re_parts: list[float] = []
    im_parts: list[float] = []
    g = u.group
    from itertools import product as cartesian

    for y in cartesian(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        val = u.value(g.neg(y), x)
        re_parts.append(val.real)
        im_parts.append(val.imag)
    return complex(math.fsum(re_parts), math.fsum(im_parts)) / card


# ---------------------------------------------------------------------------
# canonical commutation pairs V(a) W(b) = sigma(a, b) W(b) V(a)


BDomain = Union[FiniteAbelianGroup, FolnerBox]


@dataclass(frozen=True)
class CCRPair:
    """Clock-and-shift pair over l2 of a finite group or a lattice window.

    clock(a) multiplies by the phase row sigma(a, .); shift(b) translates by b
    along targets(b), an index map over the lexicographic basis ccr_pair
    builds.  Both rows are computed once per distinct argument and kept, read
    only, for the life of the pair; a dense matrix is built only on request.
    On a window, translations drop the basis points that exit; the relation
    holds entrywise, and boundary_deficit / unitarity_defect report the loss.
    """

    sigma: Union[MatrixBilinear, TableBilinear]
    basis: tuple[Element, ...]
    b_domain: BDomain
    _phase_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _target_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def truncated(self) -> bool:
        return isinstance(self.b_domain, FolnerBox)

    @cached_property
    def _shape(self) -> tuple[int, ...]:
        d = self.b_domain
        return (d.side + 1,) * d.rank

    @cached_property
    def _coords(self) -> np.ndarray:
        """Window coordinates of the basis points from its corner, one column per point."""
        return np.indices(self._shape).reshape(len(self._shape), -1)

    @cached_property
    def _images(self) -> np.ndarray:
        """D y per basis point y of a matrix sigma, one row each."""
        return np.array([self.sigma.image(y) for y in self.basis])

    def targets(self, b: Element) -> np.ndarray:
        """Basis index of y + b for each basis point y: the group's index law on
        a finite b side; on a window (offsets cancel) -1 for a point that exits."""
        key = tuple(b)
        idx = self._target_rows.get(key)
        if idx is None:
            d = self.b_domain
            if self.truncated:
                moved = self._coords + np.array(key)[:, None]
                idx = np.ravel_multi_index(moved, self._shape, mode="clip")
                idx[((moved < 0) | (moved > d.side)).any(axis=0)] = -1
            else:
                idx = d.add_indices(d.index(d.element(key)), np.arange(self.dimension))
            idx.setflags(write=False)
            self._target_rows[key] = idx
        return idx

    def phases(self, a: Element) -> np.ndarray:
        """sigma(a, y) for each basis point y, with the bits of MatrixBilinear / TableBilinear.value."""
        key = tuple(a)
        row = self._phase_rows.get(key)
        if row is None:
            self._add_phase_rows([key])
            row = self._phase_rows[key]
        return row

    def _add_phase_rows(self, keys: Sequence[Element]) -> None:
        """Compute and keep the phase rows of the distinct keys not kept yet.

        A table row is read whole: ccr_pair makes the basis the b group's
        elements, in the table's column order.  A matrix row is a . (D y)
        per basis point (``cocycles._dot_rows``), over blocks of rows of
        about PHASE_BLOCK_ENTRIES entries.  Both are exponentiated by
        ``_unit_phases``.
        """
        keys = list(dict.fromkeys(k for k in keys if k not in self._phase_rows))
        sigma = self.sigma
        per = max(1, PHASE_BLOCK_ENTRIES // self.dimension)
        for lo in range(0, len(keys), per):
            block = keys[lo:lo + per]
            if isinstance(sigma, TableBilinear):
                angles = sigma.phases[[sigma.a_group.index(k) for k in block]]
            else:
                av = np.array(block, dtype=float).reshape(len(block), -1)
                angles = _dot_rows(av[:, None, :], self._images)
            rows = _unit_phases(angles)
            rows.setflags(write=False)
            self._phase_rows.update(zip(block, rows))

    def clock(self, a: Element) -> np.ndarray:
        return np.diag(self.phases(a))

    def shift(self, b: Element) -> np.ndarray:
        t = self.targets(b)
        mat = np.zeros((self.dimension, self.dimension), dtype=complex)
        mat[t[t >= 0], np.flatnonzero(t >= 0)] = 1.0
        return mat

    def boundary_deficit(self, b: Element) -> int:
        """How many basis points the translation by b pushes off the window."""
        return int(np.count_nonzero(self.targets(b) < 0))

    def unitarity_defect(self, b: Element) -> float:
        """max |W*W - 1|: W*W is the 0/1 diagonal of the points that stay."""
        return 1.0 if self.boundary_deficit(b) else 0.0

    def relation_residual(self, samples: Sequence[tuple[Element, Element]]) -> float:
        """max |V W - sigma W V| over the n entries W can hold; no n x n array.

        Entry (t_j, j) of a point j that stays reads c[t_j] against s c_j, with
        c the clock row and s = sigma(a, b); every other entry is 0 - 0.  The
        bits are those of the old c[:, None] * w - s * (w * c), which numpy ran
        as (w * c) * s from ELISION_BYTES on: under FMA the operand order sets
        the last bit.  A non-finite c or s made that form NaN (0 * nan) even
        where no point moves.  The clock rows of the samples' distinct a, and
        every s, come from array passes with the bits of ``sigma.value``.
        """
        samples = [(tuple(a), tuple(b)) for a, b in samples]
        self._add_phase_rows([a for a, _ in samples])
        sigma_ab = _unit_phases(self.sigma.phase_array([a for a, _ in samples],
                                                        [b for _, b in samples])).tolist()
        swapped = 16 * self.dimension ** 2 >= ELISION_BYTES
        worst = 0.0
        for (a, b), s in zip(samples, sigma_ab):
            c, t = self.phases(a), self.targets(b)
            cols = np.flatnonzero(t >= 0)
            right = np.multiply(c[cols], s) if swapped else np.multiply(s, c[cols])
            finite = cmath.isfinite(s) and np.isfinite(c).all()
            worst = residual_max(worst, float(np.max(np.abs(c[t[cols]] - right), initial=0.0))
                                 if finite else math.nan)
        return worst


def ccr_pair(sigma: Union[MatrixBilinear, TableBilinear], b_domain: BDomain) -> CCRPair:
    if isinstance(b_domain, FiniteAbelianGroup):
        if not isinstance(sigma, TableBilinear) or sigma.b_group != b_domain:
            raise GroupMismatchError("finite b side needs a matching table bilinear map")
        _check_dimension("b side dimension", b_domain.order)
        return CCRPair(sigma, b_domain.elements(), b_domain)
    if not isinstance(sigma, MatrixBilinear) or sigma.b_rank != b_domain.rank:
        raise GroupMismatchError("window b side needs a matrix bilinear map of matching rank")
    _check_dimension("b side dimension", b_domain.cardinality())
    return CCRPair(sigma, tuple(b_domain.points()), b_domain)


def ccr_to_projective(pair: CCRPair) -> ProjectiveRep:
    """U(a, b) = clock(a) shift(b) as a projective rep of A x B with cocycle conj(sigma(a2, b1))."""
    sigma = pair.sigma
    if not isinstance(sigma, TableBilinear) or not isinstance(pair.b_domain, FiniteAbelianGroup):
        raise GroupMismatchError("projective packaging needs finite groups on both sides")
    u = BilinearCocycle(sigma)
    p = sigma.a_group.rank

    def build(x: Element) -> np.ndarray:
        return pair.phases(x[:p])[:, None] * pair.shift(x[p:])  # the rows of shift(b) scaled

    return ProjectiveRep(u.group, u, _cached_matrices(u.group, build), pair.dimension)


# ---------------------------------------------------------------------------
# tensor absorption check


def spectral_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy matching distance between two equal-size eigenvalue multisets.

    Each a_i in turn takes the nearest unmatched b_j, the first one on ties,
    and the result is the largest matched distance.  Distances come from one
    matrix of ``np.hypot`` of the differences, which is Python's complex abs
    bit for bit (``np.abs`` of a complex array is not).  NaN distances follow
    a sequential ``min``: a NaN in the first unmatched column wins, any other
    NaN never does, a row with no finite unmatched distance takes its first
    unmatched column, and the running maximum skips NaNs.

    Each row takes one argmin over its distances, with NaN read as +inf,
    plus a penalty row that is +inf at the matched columns and 0.0 at the
    others, which adds exactly.
    """
    if a.shape != b.shape:
        raise ValueError("spectra must have equal size")
    diff = np.asarray(b)[None, :] - np.asarray(a)[:, None]
    dist = np.hypot(diff.real, diff.imag)
    nan = np.isnan(dist)
    work = np.where(nan, np.inf, dist)
    penalty = np.zeros(dist.shape[1])
    free = np.ones(dist.shape[1], dtype=bool)
    first = 0
    worst = 0.0
    for i, row in enumerate(work):
        k = first
        if not nan[i, first]:
            row = row + penalty
            k = int(np.argmin(row))
            if row[k] == np.inf:
                k = first
        d = dist[i, k]
        if d > worst:
            worst = d
        penalty[k] = np.inf
        free[k] = False
        while first < free.size - 1 and not free[first]:
            first += 1
    return float(worst)


@dataclass(frozen=True)
class FellReport:
    group_order: int
    rep_dimension: int
    max_residual: float
    max_spectral_distance: float
    intertwiner_unitarity: float
    per_element: tuple[tuple[Element, float, float], ...]


# numpy releases the GIL for an eigvals call only when it returns more than
# this many eigenvalues.
_GIL_FREE_EIGENVALUES = 500


def _runs(count: int, per: int) -> list[range]:
    """range(count) cut into consecutive runs of ``per`` (at least 1), the
    last run taking the remainder; a single run when count < 2 * per."""
    per = max(1, min(count, per))
    stops = [k * per for k in range(1, count // per)] + [count]
    return [range(lo, hi) for lo, hi in zip([0] + stops, stops)]


def _fell_plan(n: int, d: int) -> list[tuple[range, list[range]]]:
    """Rounds of element indices whose matrices fit MATRIX_CACHE_BYTES, each
    with its eigvals stacks: runs of its 2 per element products (left, then
    right) that give more than _GIL_FREE_EIGENVALUES eigenvalues, or all of
    them when the group is too small for that."""
    dim = n * d
    rounds = _runs(n, MATRIX_CACHE_BYTES // (16 * (2 * n * n + d * d)))
    return [(r, _runs(2 * len(r), _GIL_FREE_EIGENVALUES // dim + 1)) for r in rounds]


def _intertwiner(blocks: Sequence[np.ndarray], d: int) -> np.ndarray:
    """W as a dense matrix: the block diagonal of the d x d blocks, in order."""
    dim = len(blocks) * d
    w = np.zeros((dim, dim), dtype=complex)
    for i, block in enumerate(blocks):
        w[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    return w


def _monomial_intertwiner(blocks: Sequence[np.ndarray], d: int
                          ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
    """Per column of W = ``_intertwiner(blocks, d)``: its row index, its entry
    and the row index of column c of W*, the column k with row c; then
    max |W* W - 1|.  W* W is diagonal, with the one term conj(e_c) e_c of
    entry c rounded as zgemm rounds it (``_monomial_products``).  None
    unless the blocks are monomial (``_monomial_stack``), W has one non-zero
    per row too, and the residual is finite; a non-finite entry never gives
    a finite one."""
    columns = _monomial_stack(blocks, d)
    if columns is None:
        return None
    rows = (columns[0] + d * np.arange(len(blocks))[:, None]).ravel()
    entries = columns[1].ravel()
    cols = np.arange(rows.size)
    back = np.zeros(rows.size, dtype=np.intp)
    back[rows] = cols
    if not (rows[back] == cols).all():
        return None
    with np.errstate(all="ignore"):  # an overflow takes the dense form, which warns
        diagonal = _monomial_products(entries.conj()[None], entries[None])[0]
        unitarity = float(np.max(np.abs(diagonal - 1.0)))
    return (rows, entries, back, unitarity) if math.isfinite(unitarity) else None


def _monomial_fell_residuals(w: tuple[np.ndarray, np.ndarray, np.ndarray, float],
                             mats: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                             n: int, d: int) -> Optional[list[float]]:
    """``_dense_fell_residuals`` of the elements whose (lambda_u(x), V(x),
    lambda_uv(x)) are ``mats``, bit for bit, in O(n d) each, from the columns
    of W (``_monomial_intertwiner``).

    Column j d + l of left = lambda_u(x) (x) V(x) holds a_j v_l
    (``np.multiply``, as ``np.kron`` runs it) in row r_j d + s_l, with
    (r_j, a_j) column j of lambda_u(x) and (s_l, v_l) column l of V(x).
    W left and then (W left) W* keep one term per column, rounded as zgemm
    rounds it (``_monomial_products``).  Column j d + l of right =
    lambda_uv(x) (x) 1 holds b_j in row t_j d + l: b_j times eye's 1.0 can
    differ from b_j only in the sign of a zero part, which |.| drops.  The
    residual takes |p - b| where the rows of the two columns agree, and |p|
    and |b| where they do not; every other entry is 0 - 0.  None unless the
    matrices are monomial and every residual is finite; a non-finite entry
    never gives a finite one.
    """
    w_rows, w_entries, back, _ = w
    columns = [_monomial_stack([m[k] for m in mats], size) for k, size in enumerate((n, d, n))]
    if None in columns:
        return None
    (ra, ea), (rv, ev), (rb, eb) = columns
    count, dim = len(mats), n * d
    left_rows = (ra[:, :, None] * d + rv[:, None, :]).reshape(count, dim)
    same = w_rows[left_rows][:, back] == (rb[:, :, None] * d + np.arange(d)).reshape(count, dim)
    with np.errstate(all="ignore"):  # an overflow takes the dense form, which warns
        left = np.multiply(ea[:, :, None], ev[:, None, :]).reshape(count, dim)
        wl = _monomial_products(w_entries[left_rows], left)
        p = _monomial_products(wl[:, back], w_entries[back].conj()[None])
        right = np.repeat(eb, d, axis=1)
        res = np.maximum(np.max(np.abs(np.where(same, p - right, p)), axis=1),
                         np.max(np.where(same, 0.0, np.abs(right)), axis=1))
    return res.tolist() if np.isfinite(res).all() else None


def _dense_fell_residuals(w: np.ndarray, count: int,
                          product: Callable[[int, np.ndarray], np.ndarray]) -> list[float]:
    """|W left W* - right| for elements 0 to count - 1 of a round, whose left
    and right Kronecker products ``product(2 k, out)`` and
    ``product(2 k + 1, out)`` write, with two dim x dim products each.

    Keep the expressions as written: zgemm's rounding sets the last bits.
    right and |.| reuse the slot of W left.
    """
    left, p1 = np.empty((2, *w.shape), dtype=complex)
    w_adj = w.conj().T
    out = []
    for m in range(0, 2 * count, 2):
        np.matmul(w, product(m, left), out=p1)
        np.matmul(p1, w_adj, out=left)
        np.subtract(left, product(m + 1, p1), out=left)
        out.append(float(np.max(np.abs(left, out=p1.real))))
    return out


def fell_absorption_check(u: Cocycle, vrep: ProjectiveRep) -> FellReport:
    """Verify W (lambda_u(x) tensor V(x)) W* = lambda_{uv}(x) tensor 1.

    W sends f tensor psi to the function x -> f(x) V(x^{-1}) psi, i.e. the
    block diagonal matrix with blocks V(g^{-1}) in the element basis.

    The calling thread reads every matrix in the one-element loop's order:
    the blocks of W, then one round of ``_fell_plan`` at a time.  When they
    are monomial, W is kept as its columns and each residual costs O(dim)
    (``_monomial_fell_residuals``); any other input, a non-finite entry or
    a non-finite residual takes the dense forms ``_dense_fell_residuals``
    and ``unitarity_residual``, with the same bits.  ``parallel.map_ordered``
    then shares out the round's eigvals stacks: one call per stack fills the
    stack with Kronecker products (``np.multiply`` as ``np.kron`` calls it)
    and takes their eigenvalues in one ``eigvals`` call, which frees the
    GIL.  Residuals and spectral matches are computed on the calling thread.
    Each eigvals, zgemm and multiply sees the operands the one-element loop
    gave it, so the report has the same bits on any number of CPUs.
    """
    g = vrep.group
    if u.group != g:
        raise GroupMismatchError("cocycle and representation must share the group")
    n = g.order
    d = vrep.dimension
    dim = n * d
    _check_dimension("absorption check dimension", dim)
    lam_u = regular_rep(u, g)
    lam_uv = regular_rep(ProductCocycle([u, vrep.cocycle]), g)
    els = g.elements()
    blocks = [vrep.matrix(g.neg(el)) for el in els]
    monomial_w = _monomial_intertwiner(blocks, d)
    w = None
    eye = np.eye(d)
    plan = _fell_plan(n, d)
    depth = max(len(stack) for _, stacks in plan for stack in stacks)
    rows = []
    worst_res = 0.0
    worst_spec = 0.0
    for elements, stacks in plan:
        mats = [(lam_u.matrix(els[i]), vrep.matrix(els[i]), lam_uv.matrix(els[i]))
                for i in elements]

        def product(m: int, out: np.ndarray) -> np.ndarray:
            """Product m of the round: the left one of element m // 2, then the right one."""
            a, v, b = mats[m // 2]
            if m % 2:
                a, v = b, eye
            np.multiply(a[:, None, :, None], v[None, :, None, :], out=out.reshape(n, d, n, d))
            return out

        def spectra(buf: np.ndarray, stack: range) -> np.ndarray:
            for k, m in enumerate(stack):
                product(m, buf[k])
            return np.linalg.eigvals(buf[:len(stack)])

        res = None if monomial_w is None else _monomial_fell_residuals(monomial_w, mats, n, d)
        if res is None:
            w = _intertwiner(blocks, d) if w is None else w
            res = _dense_fell_residuals(w, len(mats), product)
        eig = np.concatenate(map_ordered(
            lambda buf, j: spectra(buf, stacks[j]), len(stacks),
            lambda: np.empty((depth, dim, dim), dtype=complex), blas=True))
        for k, i in enumerate(elements):
            spec = spectral_multiset_distance(eig[2 * k], eig[2 * k + 1])
            rows.append((els[i], res[k], spec))
            worst_res = residual_max(worst_res, res[k])
            worst_spec = residual_max(worst_spec, spec)
    return FellReport(
        group_order=n,
        rep_dimension=d,
        max_residual=worst_res,
        max_spectral_distance=worst_spec,
        intertwiner_unitarity=(unitarity_residual(w) if monomial_w is None
                               else monomial_w[3]),
        per_element=tuple(rows),
    )
