"""Normalized T-valued 2-cocycles on lattices and finite abelian groups.

A cocycle u satisfies u(x,y) u(xy,z) = u(y,z) u(x,yz) and
u(x,e) = u(e,x) = 1.  The commutator bicharacter
kappa(x,y) = u(x,y) conj(u(y,x)) is invariant under coboundary
perturbations and detects whether a bicharacter is a coboundary.

Matrix cocycles on Z^N are u_A(x,y) = exp(i x.(A y)) with the entries
of A kept in (-pi, pi]; adding an integer multiple of 2 pi to an entry
never changes a value at integer arguments, so canonicalization is a
pure normal form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import eft
from .groups import (
    Element,
    FiniteAbelianGroup,
    Group,
    GroupMismatchError,
    IntegerLattice,
    sample_elements,
)

TWO_PI = 2.0 * math.pi

COBOUNDARY = "Coboundary"
NOT_COBOUNDARY = "NotCoboundary"
INCONCLUSIVE = "Inconclusive"


class UnsupportedVariantError(TypeError):
    """Operation restricted to specific cocycle variants."""


class ConstructionError(ValueError):
    """A constructor could not produce an object with the promised properties."""


def residual_max(worst: float, value: float) -> float:
    """max(worst, value) for residual folds, except that NaN on either side wins.

    Python's ``max`` keeps ``worst`` when ``value`` is NaN, since every
    comparison with NaN is false, so a fold built on it would pass a check
    whose entries are NaN.
    """
    return value if value > worst or value != value else worst


def _unit_phases(theta) -> np.ndarray:
    """cmath.exp(1j * theta) per angle, bit for bit, in the shape of theta.

    Python forms 1j * theta as complex(0.0 * theta - 0.0, 0.0 + theta), so
    theta = -0.0 gets imaginary part +0.0.  For finite theta the exponential
    is complex(cos, sin) of that imaginary part, and nan+nanj otherwise;
    np.cos and np.sin equal math.cos and math.sin and give both.
    """
    theta = np.asarray(theta, dtype=float)
    phases = np.empty(theta.shape, dtype=complex)
    with np.errstate(invalid="ignore"):
        phases.real = np.cos(0.0 + theta)
        phases.imag = np.sin(0.0 + theta)
    return phases


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise over complex arrays, as CPython multiplies two complex
    numbers: re = ar br - ai bi and im = ar bi + ai br, each product rounded
    on its own (numpy's complex multiply may fuse them)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


# OpenBLAS's ddot adds up to 15 terms in one forward chain of fused
# multiply-adds; from 16 on its vector kernel keeps several partial sums.
_DOT_CHAIN_MAX = 15


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float(np.dot(a[k], b[k])) for each k of two float arrays whose last
    axes have equal length p (the others broadcast), bit for bit.

    np.dot returns OpenBLAS's ddot, which gives the plain product a_0 b_0
    for p = 1 and runs d = fma(a_j, b_j, d) from d = +0 for j = 0, ..., p - 1
    while p <= _DOT_CHAIN_MAX; longer rows call np.dot, one row at a time.
    """
    p = a.shape[-1]
    if p != b.shape[-1]:
        raise ValueError(f"rows of length {p} and {b.shape[-1]} have no dot product")
    if p == 1:
        return a[..., 0] * b[..., 0]
    if p > _DOT_CHAIN_MAX:
        a, b = np.broadcast_arrays(a, b)
        return np.array([np.dot(x, y) for x, y in zip(a.reshape(-1, p), b.reshape(-1, p))]
                        ).reshape(a.shape[:-1])
    d = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for j in range(p):
        d = eft.fma(a[..., j], b[..., j], d)
    return d


def _distinct(points: Sequence[Element]) -> tuple[list[Element], np.ndarray]:
    """The distinct points in order of first appearance, and the position of
    each point among them."""
    rows: dict = {}
    slots = np.array([rows.setdefault(p, len(rows)) for p in points], dtype=np.intp)
    return list(rows), slots


def _stacked_images(image: Callable[[Element], np.ndarray], points: Sequence[Element],
                    rank: int) -> np.ndarray:
    """image(p) of each point p, computed once per distinct point, one row each."""
    distinct, slots = _distinct(points)
    return np.array([image(p) for p in distinct], dtype=float).reshape(len(distinct), rank)[slots]


def _lattice_points(elements) -> Optional[np.ndarray]:
    """Elements of a lattice as the rows of an int64 array, or None when one
    is past 2^60 in a coordinate or not a point of equal rank: sums of up to
    four of them then stay inside int64."""
    try:
        pts = np.array(elements, dtype=np.int64)
    except (OverflowError, ValueError):
        return None
    bound = 1 << 60
    if pts.ndim < 2 or ((pts > bound) | (pts < -bound)).any():
        return None
    return pts


def canonicalize_phases(a) -> np.ndarray:
    """Map phase entries into (-pi, pi] by subtracting multiples of 2 pi."""
    arr = np.asarray(a, dtype=float)
    out = arr - TWO_PI * np.ceil((arr - math.pi) / TWO_PI)
    # ceil can land exactly on -pi when (arr - pi) is a tiny negative float
    out = np.where(out <= -math.pi, out + TWO_PI, out)
    return out


class Cocycle:
    """Base for all cocycle variants; subclasses define value(x, y)."""

    group: Group

    def value(self, x: Element, y: Element) -> complex:
        raise NotImplementedError

    def values(self, xi, yi, points=None) -> np.ndarray:
        """value(points[i], points[j]) for each pair (i, j) of the index arrays
        xi and yi (they broadcast), with the bits of ``value``.

        ``points`` defaults to ``group.elements()`` on a finite group; on a
        lattice it is an (m, rank) integer array of coordinates.  The base
        class calls ``value`` once per pair, in order; variants override
        this with array passes.
        """
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=np.intp), np.asarray(yi, dtype=np.intp))
        els = (self.group.elements() if points is None
               else [tuple(p) for p in np.asarray(points).tolist()])
        out = np.array([self.value(els[i], els[j])
                        for i, j in zip(xi.ravel().tolist(), yi.ravel().tolist())], dtype=complex)
        return out.reshape(xi.shape)

    def __call__(self, x: Element, y: Element) -> complex:
        return self.value(x, y)


class MatrixCocycle(Cocycle):
    """u_A(x, y) = exp(i x.(A y)) on Z^rank, entries of A in (-pi, pi]."""

    def __init__(self, matrix) -> None:
        A = canonicalize_phases(matrix)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got shape {A.shape}")
        A.setflags(write=False)
        self.matrix = A
        self.group = IntegerLattice(A.shape[0])

    @property
    def sup_entry_norm(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.matrix.size else 0.0

    def image(self, y: Element) -> np.ndarray:
        """A y, the vector that x.(A y) dots x against."""
        return self.matrix @ np.asarray(y, dtype=float)

    def phase(self, x: Element, y: Element) -> float:
        if len(x) != self.group.rank or len(y) != self.group.rank:
            raise GroupMismatchError(
                f"arguments must have {self.group.rank} coordinates")
        return float(np.dot(np.asarray(x, dtype=float), self.image(y)))

    def phases(self, xi, yi, points) -> np.ndarray:
        """phase(points[i], points[j]) per pair of the index arrays, bit for
        bit: ``image`` once per distinct point j, then ``_dot_rows``."""
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != self.group.rank:
            raise GroupMismatchError(f"arguments must have {self.group.rank} coordinates")
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=np.intp), np.asarray(yi, dtype=np.intp))
        images = _stacked_images(self.image, [tuple(p) for p in pts[yi.ravel()].tolist()],
                                 self.group.rank)
        return _dot_rows(pts[xi.ravel()].astype(float), images).reshape(xi.shape)

    def value(self, x: Element, y: Element) -> complex:
        t = self.phase(x, y)
        return complex(math.cos(t), math.sin(t))

    def values(self, xi, yi, points=None) -> np.ndarray:
        if points is None:
            raise GroupMismatchError("a lattice cocycle needs the points its indices read")
        t = self.phases(xi, yi, points)
        out = np.empty(t.shape, dtype=complex)
        out.real, out.imag = np.cos(t), np.sin(t)
        return out

    def __repr__(self) -> str:
        return f"MatrixCocycle({self.matrix.tolist()!r})"


class TableCocycle(Cocycle):
    """Dense value table over a finite abelian group's fixed enumeration."""

    def __init__(self, group: FiniteAbelianGroup, table, tol: float = 1e-12) -> None:
        n = group.order
        tab = np.asarray(table, dtype=complex)
        if tab.shape != (n, n):
            raise ValueError(f"table shape {tab.shape} does not match group order {n}")
        # Row blocks of about 2^16 entries: no order x order temporary.
        step = max(1, (1 << 16) // n)
        if np.max([np.max(np.abs(np.abs(tab[i:i + step]) - 1.0))
                   for i in range(0, n, step)]) > tol:
            raise ConstructionError("table entries must have modulus 1")
        e = group.index(group.identity)
        if np.max(np.abs(tab[e, :] - 1.0)) > tol or np.max(np.abs(tab[:, e] - 1.0)) > tol:
            raise ConstructionError("table must be normalized at the identity")
        tab.setflags(write=False)
        self.group = group
        self.table = tab

    @classmethod
    def from_function(cls, group: FiniteAbelianGroup, f: Callable[[Element, Element], complex],
                      tol: float = 1e-12) -> "TableCocycle":
        els = group.elements()
        tab = np.array([[complex(f(x, y)) for y in els] for x in els])
        return cls(group, tab, tol=tol)

    def value(self, x: Element, y: Element) -> complex:
        return complex(self.table[self.group.index(x), self.group.index(y)])

    def values(self, xi, yi, points=None) -> np.ndarray:
        if points is not None:
            return super().values(xi, yi, points)
        # A broadcast table (trivial_cocycle) stays one entry: this only gathers.
        return self.table[np.asarray(xi, dtype=np.intp), np.asarray(yi, dtype=np.intp)]

    def __repr__(self) -> str:
        return f"TableCocycle(order={self.group.order})"


class CoboundaryCocycle(Cocycle):
    """d rho (x, y) = rho(x) rho(y) conj(rho(x y)) for a phase function rho."""

    def __init__(self, group: Group, rho: Callable[[Element], complex],
                 label: str = "", tol: float = 1e-12) -> None:
        e = group.identity
        if abs(complex(rho(e)) - 1.0) > tol:
            raise ConstructionError("rho must send the identity to 1")
        self.group = group
        self.rho = rho
        self.label = label
        # complex(rho(x)) by element index, filled as values() reaches elements
        self._rho_values: Optional[np.ndarray] = None
        self._rho_known: Optional[np.ndarray] = None

    def value(self, x: Element, y: Element) -> complex:
        e = self.group.identity
        if x == e or y == e:
            return 1.0 + 0.0j
        return complex(self.rho(x)) * complex(self.rho(y)) * complex(self.rho(self.group.add(x, y))).conjugate()

    def values(self, xi, yi, points=None) -> np.ndarray:
        """rho(x) rho(y) conj(rho(x + y)) in CPython's order (``_products``),
        and exactly 1 where x or y is the identity.  rho runs once per
        distinct element the call reaches; on a finite group its values are
        kept for later calls."""
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=np.intp), np.asarray(yi, dtype=np.intp))
        g = self.group
        if isinstance(g, FiniteAbelianGroup):
            if points is not None:
                return super().values(xi, yi, points)
            moved = (xi != 0) & (yi != 0)  # index 0 is the identity
            x, y = xi[moved], yi[moved]
            rho = self._rho_at(np.concatenate([x, y, g.add_indices(x, y)]))
        else:
            pts = np.asarray(points)
            xs, ys = pts[xi.ravel()], pts[yi.ravel()]
            moved = (xs.any(axis=1) & ys.any(axis=1)).reshape(xi.shape)
            xs, ys = xs[moved.ravel()], ys[moved.ravel()]
            reached, slots = _distinct([tuple(p) for p in np.concatenate([xs, ys, xs + ys]).tolist()])
            rho = np.array([complex(self.rho(p)) for p in reached], dtype=complex)[slots]
        rx, ry, rz = np.split(rho, 3)
        out = np.ones(xi.shape, dtype=complex)
        out[moved] = _products(_products(rx, ry), rz.conj())
        return out

    def _rho_at(self, indices: np.ndarray) -> np.ndarray:
        """complex(rho(x)) for each element index, each computed once per instance."""
        if self._rho_values is None:
            self._rho_values = np.empty(self.group.order, dtype=complex)
            self._rho_known = np.zeros(self.group.order, dtype=bool)
        # a mask, not np.unique, which imports numpy.ma (about 1.5 MB) on first use
        reached = np.zeros(self.group.order, dtype=bool)
        reached[indices] = True
        missing = np.flatnonzero(reached & ~self._rho_known)
        if missing.size:
            els = self.group.elements()
            self._rho_values[missing] = [complex(self.rho(els[i])) for i in missing.tolist()]
            self._rho_known[missing] = True
        return self._rho_values[indices]

    def __repr__(self) -> str:
        return f"CoboundaryCocycle({self.label or 'rho'})"


class ProductCocycle(Cocycle):
    """Pointwise product of cocycles over a common group."""

    def __init__(self, factors: Sequence[Cocycle]) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        g = factors[0].group
        for f in factors[1:]:
            if f.group != g:
                raise GroupMismatchError("product factors must share one group")
        self.group = g
        self.factors = factors

    def value(self, x: Element, y: Element) -> complex:
        out = 1.0 + 0.0j
        for f in self.factors:
            out *= f.value(x, y)
        return out

    def values(self, xi, yi, points=None) -> np.ndarray:
        """The factors' values folded from 1 in factor order, as ``value``
        multiplies them (``_products``)."""
        out = None
        for f in self.factors:
            v = f.values(xi, yi, points)
            out = _products(np.ones(v.shape, dtype=complex) if out is None else out, v)
        return out

    def __repr__(self) -> str:
        return f"ProductCocycle({len(self.factors)} factors)"


class PointwiseCommutator(Cocycle):
    """kappa(x, y) = u(x, y) conj(u(y, x)) evaluated lazily."""

    def __init__(self, base: Cocycle) -> None:
        self.base = base
        self.group = base.group

    def value(self, x: Element, y: Element) -> complex:
        return self.base.value(x, y) * self.base.value(y, x).conjugate()

    def __repr__(self) -> str:
        return f"PointwiseCommutator({self.base!r})"


def flatten_matrix_cocycle(u: Cocycle) -> Optional[np.ndarray]:
    """The exponent matrix of u when u is a (product of) matrix cocycles, else None.

    Values agree because u_A u_B = u_{A+B} pointwise at integer arguments.
    """
    if isinstance(u, MatrixCocycle):
        return u.matrix
    if isinstance(u, ProductCocycle):
        acc = None
        for f in u.factors:
            part = flatten_matrix_cocycle(f)
            if part is None:
                return None
            acc = part if acc is None else acc + part
        return acc
    return None


def trivial_cocycle(group: Group) -> Cocycle:
    """The constant cocycle 1; on a finite group its table is one entry, broadcast."""
    if isinstance(group, IntegerLattice):
        return MatrixCocycle(np.zeros((group.rank, group.rank)))
    return TableCocycle(group, np.broadcast_to(np.complex128(1), (group.order, group.order)))


def pauli_cocycle() -> TableCocycle:
    """u((a1,b1),(a2,b2)) = (-1)^(a2 b1) on Z2 x Z2."""
    g = FiniteAbelianGroup((2, 2))
    return TableCocycle.from_function(g, lambda x, y: -1.0 if (y[0] * x[1]) % 2 else 1.0)


def sign_cocycle_z2() -> TableCocycle:
    """u(x, y) = (-1)^(x y) on Z2; the one-coordinate pattern of the Pauli table."""
    g = FiniteAbelianGroup((2,))
    return TableCocycle.from_function(g, lambda x, y: -1.0 if (x[0] * y[0]) % 2 else 1.0)


def check_cocycle_identity(u: Cocycle, triples: Sequence[tuple[Element, Element, Element]]) -> float:
    """Max residual |u(x,y) u(xy,z) - u(y,z) u(x,yz)| over the triples.

    The four values of every triple come from one ``values`` call, over
    element indices on a finite group and over the coordinates of x, y, z,
    x + y and y + z on a lattice.  Products run in CPython's order
    (``_products``), ``np.hypot`` stands for ``abs``, and NaN wins the
    maximum, so the result has the bits of ``_pointwise_cocycle_identity``,
    which answers for lattice points past 2^60.
    """
    triples = list(triples)
    g = u.group
    call = _value_call(g, [p for t in triples for p in t])
    if call is None:
        return _pointwise_cocycle_identity(u, triples)
    indices, points = call
    x, y, z = indices.reshape(-1, 3).T
    if points is None:
        xy, yz = g.add_indices(x, y), g.add_indices(y, z)
    else:
        points = np.concatenate([points, points[x] + points[y], points[y] + points[z]])
        xy, yz = np.arange(3 * len(triples), 5 * len(triples)).reshape(2, -1)
    a, b, c, d = np.split(u.values(np.concatenate([x, xy, y, x]),
                                   np.concatenate([y, z, z, yz]), points), 4)
    lhs, rhs = _products(a, b), _products(c, d)
    return float(np.max(np.hypot(lhs.real - rhs.real, lhs.imag - rhs.imag), initial=0.0))


def _pointwise_cocycle_identity(u: Cocycle, triples: Sequence[tuple[Element, Element, Element]]
                                ) -> float:
    """``check_cocycle_identity`` with one ``value`` call per term."""
    g = u.group
    worst = 0.0
    for x, y, z in triples:
        lhs = u.value(x, y) * u.value(g.add(x, y), z)
        rhs = u.value(y, z) * u.value(x, g.add(y, z))
        worst = residual_max(worst, abs(lhs - rhs))
    return worst


def normalization_residual(u: Cocycle, elements: Sequence[Element]) -> float:
    """Max |u(e, x) - 1| and |u(x, e) - 1| over the elements x, from one
    ``values`` call, with ``np.hypot`` for ``abs`` and a maximum that NaN
    wins; one ``value`` call per term for lattice points past 2^60."""
    g = u.group
    elements = list(elements)
    call = _value_call(g, [g.identity] + elements)
    if call is None:
        return reduce(residual_max, (abs(u.value(a, b) - 1.0) for x in elements
                                     for a, b in ((g.identity, x), (x, g.identity))), 0.0)
    xi, points = call
    e = np.full(len(elements), xi[0])
    d = u.values(np.concatenate([e, xi[1:]]), np.concatenate([xi[1:], e]), points) - 1.0
    return float(np.max(np.hypot(d.real, d.imag), initial=0.0))


def _value_call(group: Group, elements: Sequence[Element]
                ) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
    """(indices, points) under which ``Cocycle.values`` reads the elements:
    their indices and None on a finite group; on a lattice their positions
    in the int64 coordinate array ``_lattice_points`` makes of them, or None
    when it makes none."""
    if isinstance(group, FiniteAbelianGroup):
        return np.array([group.index(x) for x in elements], dtype=np.intp), None
    points = _lattice_points(elements)
    return None if points is None else (np.arange(len(points)), points)


def sample_triples(group: Group, count: int, bound: int, rng) -> tuple[tuple[Element, Element, Element], ...]:
    flat = sample_elements(group, 3 * count, bound, rng)
    return tuple((flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]) for i in range(count))


def _entrywise(table: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f of a table; of its one entry, broadcast again, when the table is one
    entry broadcast (``trivial_cocycle``), so no order x order array is made."""
    if table.strides == (0, 0):
        return np.broadcast_to(f(table[:1, :1]), table.shape)
    return f(table)


def commutator_bicharacter(u: Cocycle) -> Cocycle:
    """kappa(x,y) = u(x,y) conj(u(y,x)); closed form for matrix and table variants."""
    if isinstance(u, MatrixCocycle):
        return MatrixCocycle(canonicalize_phases(u.matrix - u.matrix.T))
    if isinstance(u, TableCocycle):
        return TableCocycle(u.group, _entrywise(u.table, lambda t: t * np.conj(t.T)))
    return PointwiseCommutator(u)


@dataclass(frozen=True)
class CoboundaryVerdict:
    status: str  # COBOUNDARY | NOT_COBOUNDARY | INCONCLUSIVE
    witness: Optional[tuple[Element, Element]] = None
    note: str = ""


_BICHARACTER_EXHAUSTIVE_CAP = 64


def _is_bicharacter_table(u: TableCocycle, tol: float = 1e-9) -> Optional[bool]:
    """Exhaustive check for small groups; None when the group is too large to certify."""
    g = u.group
    if g.order > _BICHARACTER_EXHAUSTIVE_CAP:
        return None
    els = g.elements()
    for x in els:
        for xp in els:
            s = g.add(x, xp)
            for y in els:
                if abs(u.value(s, y) - u.value(x, y) * u.value(xp, y)) > tol:
                    return False
                if abs(u.value(y, s) - u.value(y, x) * u.value(y, xp)) > tol:
                    return False
    return True


def coboundary_test(u: Cocycle, tol: float = 1e-9) -> CoboundaryVerdict:
    """Decide whether a bicharacter cocycle is a coboundary.

    Ground truth: a bicharacter on a finitely generated abelian group is a
    coboundary exactly when it is symmetric, i.e. kappa identically 1, and
    kappa (itself a bicharacter) is 1 everywhere once it is 1 on all
    generator pairs.  Restricted to bicharacter variants; other variants
    raise UnsupportedVariantError.
    """
    if isinstance(u, MatrixCocycle):
        bichar = True
    elif isinstance(u, TableCocycle):
        bichar = _is_bicharacter_table(u)
        if bichar is False:
            raise UnsupportedVariantError(
                "table cocycle is not a bicharacter; coboundary test does not apply")
    else:
        raise UnsupportedVariantError(
            f"coboundary test supports bicharacter variants only, got {type(u).__name__}")

    kappa = commutator_bicharacter(u)
    gens = u.group.generators()
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            if abs(kappa.value(x, y) - 1.0) > tol:
                return CoboundaryVerdict(NOT_COBOUNDARY, witness=(x, y))
    if bichar is None:
        return CoboundaryVerdict(
            INCONCLUSIVE,
            note="group too large for exhaustive bicharacter certification")
    return CoboundaryVerdict(COBOUNDARY)


def perturb(u: Cocycle, rho: Callable[[Element], complex], label: str = "") -> ProductCocycle:
    """(d rho) . u; kappa is unchanged because coboundaries are symmetric."""
    return ProductCocycle([CoboundaryCocycle(u.group, rho, label=label), u])


class ConjugateCocycle(Cocycle):
    def __init__(self, base: Cocycle) -> None:
        self.group = base.group
        self.base = base

    def value(self, x: Element, y: Element) -> complex:
        return complex(self.base.value(x, y)).conjugate()

    def __repr__(self) -> str:
        return f"ConjugateCocycle({self.base!r})"


def conjugate_cocycle(u: Cocycle) -> Cocycle:
    """Pointwise complex conjugate, kept in closed form where possible."""
    if isinstance(u, MatrixCocycle):
        return MatrixCocycle(-u.matrix)
    if isinstance(u, TableCocycle):
        return TableCocycle(u.group, _entrywise(u.table, np.conj))
    if isinstance(u, ProductCocycle):
        return ProductCocycle([conjugate_cocycle(f) for f in u.factors])
    if isinstance(u, CoboundaryCocycle):
        rho = u.rho
        return CoboundaryCocycle(u.group, lambda x: complex(rho(x)).conjugate(),
                                 label=u.label)
    return ConjugateCocycle(u)


# ---------------------------------------------------------------------------
# bilinear maps sigma: A x B -> T and the associated cocycle on A x B


class MatrixBilinear:
    """sigma_D(a, b) = exp(i a.(D b)) for a in Z^P, b in Z^Q."""

    def __init__(self, d) -> None:
        D = canonicalize_phases(d)
        if D.ndim != 2:
            raise ValueError("D must be a matrix")
        D.setflags(write=False)
        self.d = D
        self.a_rank, self.b_rank = D.shape
        self.a_group = IntegerLattice(self.a_rank)
        self.b_group = IntegerLattice(self.b_rank)

    def image(self, b: Element) -> np.ndarray:
        """D b, the vector that sigma(a, b) dots a against for every a."""
        return self.d @ np.asarray(b, float)

    def phase(self, a: Element, b: Element) -> float:
        """a . (D b)."""
        return float(np.dot(np.asarray(a, float), self.image(b)))

    def value(self, a: Element, b: Element) -> complex:
        return cmath.exp(1j * self.phase(a, b))

    def phase_array(self, a: Sequence[Element], b: Sequence[Element]) -> np.ndarray:
        """phase(a[k], b[k]) for each k, bit for bit: ``image`` once per
        distinct b, then ``_dot_rows``."""
        images = _stacked_images(self.image, [tuple(y) for y in b], self.a_rank)
        return _dot_rows(np.array(a, dtype=float).reshape(len(a), self.a_rank), images)


class TableBilinear:
    """sigma(a, b) = exp(i phases[a, b]) over two finite abelian groups."""

    def __init__(self, a_group: FiniteAbelianGroup, b_group: FiniteAbelianGroup, phases) -> None:
        ph = np.asarray(phases, dtype=float)
        if ph.shape != (a_group.order, b_group.order):
            raise ValueError(
                f"phase table shape {ph.shape} does not match group orders "
                f"({a_group.order}, {b_group.order})")
        ph.setflags(write=False)
        self.a_group = a_group
        self.b_group = b_group
        self.phases = ph

    def phase(self, a: Element, b: Element) -> float:
        return float(self.phases[self.a_group.index(a), self.b_group.index(b)])

    def value(self, a: Element, b: Element) -> complex:
        return cmath.exp(1j * self.phase(a, b))

    def phase_array(self, a: Sequence[Element], b: Sequence[Element]) -> np.ndarray:
        """phase(a[k], b[k]) for each k, gathered from the table."""
        a_index, b_index = self.a_group.index, self.b_group.index
        return self.phases[np.array([a_index(tuple(x)) for x in a], dtype=np.intp),
                           np.array([b_index(tuple(y)) for y in b], dtype=np.intp)]


BilinearMap = Union[MatrixBilinear, TableBilinear]


def pauli_sigma() -> TableBilinear:
    """sigma(a, b) = (-1)^(a b) on Z2 x Z2."""
    z2 = FiniteAbelianGroup((2,))
    return TableBilinear(z2, z2, [[0.0, 0.0], [0.0, math.pi]])


def bilinearity_residual(sigma: BilinearMap, samples) -> float:
    """Max deviation of sigma from multiplicativity in each slot over sample pairs."""
    if isinstance(sigma, TableBilinear):
        return _table_bilinearity_residual(sigma, samples)
    return _matrix_bilinearity_residual(sigma, samples)


def _matrix_bilinearity_residual(sigma: MatrixBilinear, samples) -> float:
    """The pointwise maximum of ``bilinearity_residual``, from one
    ``phase_array`` call over the five pairs (a, b), (a + a', b), (a', b),
    (a, b + b') and (a, b') of every sample, exponentiated as ``value``
    does (``_unit_phases``), and folded by ``_bilinearity_fold``."""
    samples = list(samples)
    if not samples:
        return 0.0
    a, ap, b, bp = (list(part) for part in zip(*samples))
    left = a + [sigma.a_group.add(x, y) for x, y in zip(a, ap)] + ap + a + a
    right = b + b + b + [sigma.b_group.add(x, y) for x, y in zip(b, bp)] + bp
    return _bilinearity_fold(*_unit_phases(sigma.phase_array(left, right)).reshape(5, -1))


def _bilinearity_fold(ab: np.ndarray, a_whole: np.ndarray, a_part: np.ndarray,
                      b_whole: np.ndarray, b_part: np.ndarray) -> float:
    """max |sigma(whole) - sigma(a, b) * sigma(part)| over both slots of
    every sample, from value arrays in sample order.

    The complex arithmetic runs on real arrays in CPython's order
    (``_products`` and separate differences), ``np.hypot`` stands for
    ``abs``, and the maximum is one that NaN wins, as in the pointwise fold.
    """
    worst = 0.0
    for whole, part in ((a_whole, a_part), (b_whole, b_part)):
        prod = _products(ab, part)
        dist = np.hypot(whole.real - prod.real, whole.imag - prod.imag)
        worst = residual_max(worst, float(np.max(dist, initial=0.0)))
    return worst


def _table_bilinearity_residual(sigma: TableBilinear, samples) -> float:
    """The pointwise maximum above, from index arrays into the phase table.

    Each table entry the samples reach is exponentiated once, with the
    bits of ``cmath.exp`` that ``value`` uses (``_unit_phases``), and
    ``_bilinearity_fold`` takes the maximum.
    """
    a_index, b_index = sigma.a_group.index, sigma.b_group.index
    # One flat list, not a tuple per sample: 4,096 tuples fragmented the heap
    # and raised the process's peak RSS by about 0.5 MB.
    a, b, ap, bp = np.array([i for a, ap, b, bp in samples
                             for i in (a_index(a), b_index(b), a_index(ap), b_index(bp))],
                            dtype=np.intp).reshape(-1, 4).T
    width = sigma.b_group.order
    # flat table cells of (a, b), (a + a', b), (a', b), (a, b + b') and (a, b')
    cells = [a * width + b, sigma.a_group.add_indices(a, ap) * width + b, ap * width + b,
             a * width + sigma.b_group.add_indices(b, bp), a * width + bp]
    reached = np.zeros(sigma.phases.size, dtype=bool)
    for c in cells:
        reached[c] = True
    entries = np.flatnonzero(reached)
    values = np.zeros(sigma.phases.size, dtype=complex)
    values[entries] = _unit_phases(sigma.phases.ravel()[entries])
    return _bilinearity_fold(*(values[c] for c in cells))


def lift_bilinear(d) -> MatrixCocycle:
    """Cocycle of the CCR pair of sigma_D on Z^(P+Q).

    With x = (a1, b1) and y = (a2, b2), the pair relation
    V(a) W(b) = sigma(a, b) W(b) V(a) forces
    u(x, y) = conj(sigma_D(a2, b1)), which is the matrix cocycle of
    [[0, 0], [-D^T, 0]] in block form.
    """
    D = canonicalize_phases(d)
    p, q = D.shape
    block = np.zeros((p + q, p + q))
    block[p:, :p] = -D.T
    return MatrixCocycle(block)


class BilinearCocycle(Cocycle):
    """u((a1,b1),(a2,b2)) = conj(sigma(a2, b1)) on A x B, evaluated lazily.

    Only the identity row and column of the phase table (index 0) are read
    up front, to reject a sigma that is not normalized with the test and
    message of TableCocycle.
    """

    def __init__(self, sigma: TableBilinear) -> None:
        for edge in (sigma.phases[0, :], sigma.phases[:, 0]):
            if np.max(np.abs(_unit_phases(edge) - 1.0)) > 1e-12:
                raise ConstructionError("table must be normalized at the identity")
        self.sigma = sigma
        self.group = FiniteAbelianGroup(sigma.a_group.moduli + sigma.b_group.moduli)

    def value(self, x: Element, y: Element) -> complex:
        p = self.sigma.a_group.rank
        return self.sigma.value(y[:p], x[p:]).conjugate()

    def values(self, xi, yi, points=None) -> np.ndarray:
        """conj(exp(i phases[a2, b1])), read from the index of x = (a1, b1)
        modulo the order of B and the index of y = (a2, b2) divided by it."""
        if points is not None:
            return super().values(xi, yi, points)
        width = self.sigma.b_group.order
        t = self.sigma.phases[np.asarray(yi, dtype=np.intp) // width,
                              np.asarray(xi, dtype=np.intp) % width]
        return _unit_phases(t).conj()

    def __repr__(self) -> str:
        return f"BilinearCocycle(order={self.group.order})"


def cocycle_from_bilinear(sigma: BilinearMap) -> Cocycle:
    """The cocycle u((a1,b1),(a2,b2)) = conj(sigma(a2, b1)) on A x B, tabulated."""
    if isinstance(sigma, MatrixBilinear):
        return lift_bilinear(sigma.d)
    u = BilinearCocycle(sigma)
    return TableCocycle.from_function(u.group, u.value)


# ---------------------------------------------------------------------------
# sequences of cocycles


@dataclass(frozen=True)
class CocycleSequence:
    """Restartable 1-based sequence i -> cocycle, with optional metadata.

    ``length`` is None for unbounded sequences.  ``witnesses`` carries, for
    constructions that promise each member differs from 1, one pair per
    index where the member provably does.
    """

    factory: Callable[[int], Cocycle]
    length: Optional[int] = None
    witnesses: Optional[tuple[tuple[Element, Element], ...]] = None

    def member(self, i: int) -> Cocycle:
        if i < 1:
            raise IndexError("sequence indices start at 1")
        if self.length is not None and i > self.length:
            raise IndexError(f"sequence has length {self.length}, asked for {i}")
        return self.factory(i)


def constant_sequence(u: Cocycle) -> CocycleSequence:
    return CocycleSequence(lambda i: u)


def from_list(cocycles: Sequence[Cocycle]) -> CocycleSequence:
    items = tuple(cocycles)
    return CocycleSequence(lambda i: items[i - 1], length=len(items))


def geometric_matrix_sequence(matrix, ratio: float) -> CocycleSequence:
    """u_i = u_{ratio^i A}; |A_i|_inf = |A|_inf ratio^i while entries stay in range."""
    A = canonicalize_phases(matrix)
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1) so entries never need rewrapping")
    return CocycleSequence(lambda i: MatrixCocycle(A * (ratio ** i)))


def partial_product(seq: CocycleSequence, n: int, x: Element, y: Element) -> complex:
    """Product of the first n member values at (x, y), ascending index order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1.0 + 0.0j
    for i in range(1, n + 1):
        out *= seq.member(i).value(x, y)
    return out


def quadratic_phase(epsilon: float, group: Group) -> Callable[[Element], complex]:
    """rho(x) = exp(i epsilon x_1^2), using stored residues on finite groups."""

    def rho(x: Element) -> complex:
        return cmath.exp(1j * epsilon * (x[0] ** 2))

    return rho


def one_free_coboundary_sequence(group: Group, n: int) -> CocycleSequence:
    """Coboundaries d rho_i with rho_i = exp(i 2^-i x_1^2), none equal to 1.

    The phase exponent f(x) = x_1^2 is not additive, so each
    d rho_i (x, y) = exp(i eps_i (f(x) + f(y) - f(x + y))) is nontrivial at
    the witness pair (e_1, e_1); pointwise the distances from 1 are bounded
    by eps_i |f(x)+f(y)-f(x+y)| with sum_i eps_i = 1, so partial products
    converge at every fixed pair.
    """
    if n < 1:
        raise ValueError("need at least one member")
    e1 = group.element((1,) + (0,) * (group.rank - 1))
    members = []
    witnesses = []
    for i in range(1, n + 1):
        eps = 2.0 ** (-i)
        cob = CoboundaryCocycle(group, quadratic_phase(eps, group), label=f"eps=2^-{i} quadratic")
        val = cob.value(e1, e1)
        if abs(val - 1.0) <= 1e-12:
            raise ConstructionError(
                "phase exponent behaves additively at the witness pair; "
                "cannot certify a nontrivial coboundary")
        members.append(cob)
        witnesses.append((e1, e1))
    items = tuple(members)
    return CocycleSequence(lambda i: items[i - 1], length=n, witnesses=tuple(witnesses))
