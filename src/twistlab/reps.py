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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .cocycles import (
    BilinearCocycle,
    Cocycle,
    ConstructionError,
    MatrixBilinear,
    ProductCocycle,
    TableBilinear,
    canonicalize_phases,
    flatten_matrix_cocycle,
    pauli_cocycle,
)
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


def unitarity_residual(m: np.ndarray) -> float:
    n = m.shape[0]
    return float(np.max(np.abs(m.conj().T @ m - np.eye(n))))


def regular_rep_matrix(u: Cocycle, group: FiniteAbelianGroup, x: Element,
                       cap: int = DIMENSION_CAP) -> np.ndarray:
    """Dense matrix of lambda_u(x) in the fixed element basis."""
    if not isinstance(group, FiniteAbelianGroup):
        raise GroupMismatchError("dense regular representation needs a finite group")
    if u.group != group:
        raise GroupMismatchError("cocycle and group disagree")
    n = group.order
    if n > cap:
        raise DimensionCapError(f"group order {n} exceeds cap {cap}")
    x = group.require(x)
    mat = np.zeros((n, n), dtype=complex)
    for j, g in enumerate(group.elements()):
        tgt = group.add(x, g)
        mat[group.index(tgt), j] = u.value(group.neg(tgt), x)
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class ProjectiveRep:
    """A map x -> unitary matrix satisfying U(x) U(y) = u(x, y) U(x y)."""

    group: FiniteAbelianGroup
    cocycle: Cocycle
    matrix: Callable[[Element], np.ndarray]
    dimension: int


def regular_rep(u: Cocycle, group: FiniteAbelianGroup, cap: int = DIMENSION_CAP) -> ProjectiveRep:
    if not isinstance(group, FiniteAbelianGroup):
        raise GroupMismatchError("dense regular representation needs a finite group")
    if u.group != group:
        raise GroupMismatchError("cocycle and group disagree")
    if group.order > cap:
        raise DimensionCapError(f"group order {group.order} exceeds cap {cap}")
    cache: dict[Element, np.ndarray] = {}

    def mat(x: Element) -> np.ndarray:
        x = group.require(x)
        if x not in cache:
            cache[x] = regular_rep_matrix(u, group, x, cap=cap)
        return cache[x]

    return ProjectiveRep(group, u, mat, group.order)


def pauli_rep() -> ProjectiveRep:
    """U((a, b)) = V^a W^b with V the flip and W the sign matrix on C^2."""
    g = FiniteAbelianGroup((2, 2))
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sign = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    table = {}
    for (a, b) in g.elements():
        m = np.linalg.matrix_power(flip, a) @ np.linalg.matrix_power(sign, b)
        m.setflags(write=False)
        table[(a, b)] = m
    return ProjectiveRep(g, pauli_cocycle(), lambda x: table[g.require(x)], 2)


def projective_relation_check(rep: ProjectiveRep,
                              pairs: Optional[Sequence[tuple[Element, Element]]] = None) -> float:
    """Max entry residual |U(x) U(y) - u(x, y) U(x y)| over the pairs."""
    g = rep.group
    if pairs is None:
        if g.order > 64:
            raise ValueError("supply explicit pairs for groups of order above 64")
        els = g.elements()
        pairs = [(x, y) for x in els for y in els]
    worst = 0.0
    for x, y in pairs:
        lhs = rep.matrix(x) @ rep.matrix(y)
        rhs = rep.cocycle.value(x, y) * rep.matrix(g.add(x, y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def tensor_rep(reps: Sequence[ProjectiveRep], cap: int = DIMENSION_CAP) -> ProjectiveRep:
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
    if dim > cap:
        raise DimensionCapError(f"tensor dimension {dim} exceeds cap {cap}")

    def mat(x: Element) -> np.ndarray:
        out = reps[0].matrix(x)
        for r in reps[1:]:
            out = np.kron(out, r.matrix(x))
        return out

    return ProjectiveRep(g, ProductCocycle([r.cocycle for r in reps]), mat, dim)


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

    clock(a) multiplies by sigma(a, .); shift(b) translates by b along
    targets(b), an index map over the lexicographic basis ccr_pair builds.
    On a window, translations drop the basis points that exit; the relation
    holds entrywise, and boundary_deficit / unitarity_defect report the loss.
    """

    sigma: Union[MatrixBilinear, TableBilinear]
    basis: tuple[Element, ...]
    b_domain: BDomain

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def truncated(self) -> bool:
        return isinstance(self.b_domain, FolnerBox)

    def targets(self, b: Element) -> np.ndarray:
        """Mixed-radix index of y + b for each basis point y (offsets cancel); -1 off a window."""
        d = self.b_domain
        shape = (d.side + 1,) * d.rank if self.truncated else d.moduli
        b = b if self.truncated else d.element(b)  # residues, so the int64 sum cannot wrap
        moved = np.indices(shape).reshape(len(shape), -1) + np.array(b)[:, None]
        idx = np.ravel_multi_index(moved, shape, mode="wrap")
        if self.truncated:
            idx[((moved < 0) | (moved > d.side)).any(axis=0)] = -1
        return idx

    def phases(self, a: Element) -> np.ndarray:
        return np.array([self.sigma.value(a, y) for y in self.basis])

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
        """max |V W - sigma W V|; V W scales the rows of W by the clock, W V its columns.

        The clock phases are computed once per distinct a.  The residual keeps
        the n x n layout: a gathered O(n) form rounds s * (w * c) differently.
        """
        worst = 0.0
        clocks: dict[Element, np.ndarray] = {}
        for a, b in samples:
            key = tuple(a)
            if key not in clocks:
                clocks[key] = self.phases(a)
            c, w = clocks[key], self.shift(b)
            worst = max(worst, float(np.max(np.abs(
                c[:, None] * w - self.sigma.value(a, b) * (w * c)))))
        return worst


def ccr_pair(sigma: Union[MatrixBilinear, TableBilinear], b_domain: BDomain,
             cap: int = DIMENSION_CAP) -> CCRPair:
    if isinstance(b_domain, FiniteAbelianGroup):
        if not isinstance(sigma, TableBilinear) or sigma.b_group != b_domain:
            raise GroupMismatchError("finite b side needs a matching table bilinear map")
        basis = b_domain.elements()
    else:
        if not isinstance(sigma, MatrixBilinear) or sigma.b_rank != b_domain.rank:
            raise GroupMismatchError("window b side needs a matrix bilinear map of matching rank")
        basis = tuple(b_domain.points())
    if len(basis) > cap:
        raise DimensionCapError(f"b side dimension {len(basis)} exceeds cap {cap}")
    return CCRPair(sigma, basis, b_domain)


def ccr_to_projective(pair: CCRPair) -> ProjectiveRep:
    """U(a, b) = clock(a) shift(b) as a projective rep of A x B with cocycle conj(sigma(a2, b1))."""
    sigma = pair.sigma
    if not isinstance(sigma, TableBilinear) or not isinstance(pair.b_domain, FiniteAbelianGroup):
        raise GroupMismatchError("projective packaging needs finite groups on both sides")
    u = BilinearCocycle(sigma)
    p = sigma.a_group.rank

    def mat(x: Element) -> np.ndarray:
        x = u.group.require(x)
        return pair.phases(x[:p])[:, None] * pair.shift(x[p:])  # the rows of shift(b) scaled

    return ProjectiveRep(u.group, u, mat, pair.dimension)


# ---------------------------------------------------------------------------
# tensor absorption check


def spectral_multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy matching distance between two equal-size eigenvalue multisets.

    Each a_i in turn takes the nearest unmatched b_j, the first one on ties,
    and the result is the largest matched distance.  Distances come from one
    matrix of ``np.hypot`` of the differences, which is Python's complex abs
    bit for bit (``np.abs`` of a complex array is not).  NaN distances follow
    a sequential ``min``: a NaN in the first unmatched column wins, any other
    NaN never does, and the running maximum skips NaNs.
    """
    if a.shape != b.shape:
        raise ValueError("spectra must have equal size")
    diff = np.asarray(b)[None, :] - np.asarray(a)[:, None]
    dist = np.hypot(diff.real, diff.imag)
    free = np.ones(dist.shape[1], dtype=bool)
    worst = 0.0
    for row in dist:
        cols = np.flatnonzero(free)
        cand = row[cols]
        k = 0 if np.isnan(cand[0]) else int(np.argmin(np.where(np.isnan(cand), np.inf, cand)))
        free[cols[k]] = False
        worst = max(worst, cand[k])
    return float(worst)


@dataclass(frozen=True)
class FellReport:
    group_order: int
    rep_dimension: int
    max_residual: float
    max_spectral_distance: float
    intertwiner_unitarity: float
    per_element: tuple[tuple[Element, float, float], ...]


def fell_absorption_check(u: Cocycle, vrep: ProjectiveRep, cap: int = DIMENSION_CAP) -> FellReport:
    """Verify W (lambda_u(x) tensor V(x)) W* = lambda_{uv}(x) tensor 1.

    W sends f tensor psi to the function x -> f(x) V(x^{-1}) psi, i.e. the
    block diagonal matrix with blocks V(g^{-1}) in the element basis.
    """
    g = vrep.group
    if u.group != g:
        raise GroupMismatchError("cocycle and representation must share the group")
    n = g.order
    d = vrep.dimension
    if n * d > cap:
        raise DimensionCapError(f"absorption check dimension {n * d} exceeds cap {cap}")
    lam_u = regular_rep(u, g, cap=cap)
    lam_uv = regular_rep(ProductCocycle([u, vrep.cocycle]), g, cap=cap)
    w = np.zeros((n * d, n * d), dtype=complex)
    for i, el in enumerate(g.elements()):
        w[i * d:(i + 1) * d, i * d:(i + 1) * d] = vrep.matrix(g.neg(el))
    w_adj = w.conj().T
    eye = np.eye(d)
    rows = []
    worst_res = 0.0
    worst_spec = 0.0
    for x in g.elements():
        left = np.kron(lam_u.matrix(x), vrep.matrix(x))
        right = np.kron(lam_uv.matrix(x), eye)
        res = float(np.max(np.abs(w @ left @ w_adj - right)))
        spec = spectral_multiset_distance(np.linalg.eigvals(left), np.linalg.eigvals(right))
        rows.append((x, res, spec))
        worst_res = max(worst_res, res)
        worst_spec = max(worst_spec, spec)
    return FellReport(
        group_order=n,
        rep_dimension=d,
        max_residual=worst_res,
        max_spectral_distance=worst_spec,
        intertwiner_unitarity=unitarity_residual(w),
        per_element=tuple(rows),
    )
