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
from typing import Callable, Optional, Sequence, Union

import numpy as np

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

    def phase(self, x: Element, y: Element) -> float:
        if len(x) != self.group.rank or len(y) != self.group.rank:
            raise GroupMismatchError(
                f"arguments must have {self.group.rank} coordinates")
        c = self.matrix @ np.asarray(y, dtype=float)
        return float(np.dot(np.asarray(x, dtype=float), c))

    def value(self, x: Element, y: Element) -> complex:
        t = self.phase(x, y)
        return complex(math.cos(t), math.sin(t))

    def __repr__(self) -> str:
        return f"MatrixCocycle({self.matrix.tolist()!r})"


class TableCocycle(Cocycle):
    """Dense value table over a finite abelian group's fixed enumeration."""

    def __init__(self, group: FiniteAbelianGroup, table, tol: float = 1e-12) -> None:
        n = group.order
        tab = np.asarray(table, dtype=complex)
        if tab.shape != (n, n):
            raise ValueError(f"table shape {tab.shape} does not match group order {n}")
        if np.max(np.abs(np.abs(tab) - 1.0)) > tol:
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

    def value(self, x: Element, y: Element) -> complex:
        e = self.group.identity
        if x == e or y == e:
            return 1.0 + 0.0j
        return complex(self.rho(x)) * complex(self.rho(y)) * complex(self.rho(self.group.add(x, y))).conjugate()

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
    """The constant cocycle 1."""
    if isinstance(group, IntegerLattice):
        return MatrixCocycle(np.zeros((group.rank, group.rank)))
    return TableCocycle(group, np.ones((group.order, group.order), dtype=complex))


def pauli_cocycle() -> TableCocycle:
    """u((a1,b1),(a2,b2)) = (-1)^(a2 b1) on Z2 x Z2."""
    g = FiniteAbelianGroup((2, 2))
    return TableCocycle.from_function(g, lambda x, y: -1.0 if (y[0] * x[1]) % 2 else 1.0)


def sign_cocycle_z2() -> TableCocycle:
    """u(x, y) = (-1)^(x y) on Z2; the one-coordinate pattern of the Pauli table."""
    g = FiniteAbelianGroup((2,))
    return TableCocycle.from_function(g, lambda x, y: -1.0 if (x[0] * y[0]) % 2 else 1.0)


def check_cocycle_identity(u: Cocycle, triples: Sequence[tuple[Element, Element, Element]]) -> float:
    """Max residual |u(x,y) u(xy,z) - u(y,z) u(x,yz)| over the triples."""
    g = u.group
    worst = 0.0
    for x, y, z in triples:
        lhs = u.value(x, y) * u.value(g.add(x, y), z)
        rhs = u.value(y, z) * u.value(x, g.add(y, z))
        worst = max(worst, abs(lhs - rhs))
    return worst


def sample_triples(group: Group, count: int, bound: int, rng) -> tuple[tuple[Element, Element, Element], ...]:
    flat = sample_elements(group, 3 * count, bound, rng)
    return tuple((flat[3 * i], flat[3 * i + 1], flat[3 * i + 2]) for i in range(count))


def commutator_bicharacter(u: Cocycle) -> Cocycle:
    """kappa(x,y) = u(x,y) conj(u(y,x)); closed form for matrix and table variants."""
    if isinstance(u, MatrixCocycle):
        return MatrixCocycle(canonicalize_phases(u.matrix - u.matrix.T))
    if isinstance(u, TableCocycle):
        return TableCocycle(u.group, u.table * np.conj(u.table.T))
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


def coboundary_test(u: Cocycle, samples: Sequence[tuple[Element, Element]] = (),
                    tol: float = 1e-9) -> CoboundaryVerdict:
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
    for x, y in samples:
        if abs(kappa.value(x, y) - 1.0) > tol:
            return CoboundaryVerdict(NOT_COBOUNDARY, witness=(x, y))
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
        return TableCocycle(u.group, np.conj(u.table))
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

    def phase(self, a: Element, b: Element) -> float:
        return float(np.dot(np.asarray(a, float), self.d @ np.asarray(b, float)))

    def value(self, a: Element, b: Element) -> complex:
        return cmath.exp(1j * self.phase(a, b))


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


BilinearMap = Union[MatrixBilinear, TableBilinear]


def pauli_sigma() -> TableBilinear:
    """sigma(a, b) = (-1)^(a b) on Z2 x Z2."""
    z2 = FiniteAbelianGroup((2,))
    return TableBilinear(z2, z2, [[0.0, 0.0], [0.0, math.pi]])


def bilinearity_residual(sigma: BilinearMap, samples) -> float:
    """Max deviation of sigma from multiplicativity in each slot over sample pairs."""
    worst = 0.0
    for (a, ap, b, bp) in samples:
        worst = max(worst, abs(
            sigma.value(sigma.a_group.add(a, ap), b) - sigma.value(a, b) * sigma.value(ap, b)))
        worst = max(worst, abs(
            sigma.value(a, sigma.b_group.add(b, bp)) - sigma.value(a, b) * sigma.value(a, bp)))
    return worst


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


def cocycle_from_bilinear(sigma: BilinearMap) -> Cocycle:
    """The cocycle u((a1,b1),(a2,b2)) = conj(sigma(a2, b1)) on A x B."""
    if isinstance(sigma, MatrixBilinear):
        return lift_bilinear(sigma.d)
    g = FiniteAbelianGroup(sigma.a_group.moduli + sigma.b_group.moduli)
    p = sigma.a_group.rank

    def f(x: Element, y: Element) -> complex:
        return sigma.value(y[:p], x[p:]).conjugate()

    return TableCocycle.from_function(g, f)


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
