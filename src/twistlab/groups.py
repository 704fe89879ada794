"""Lattice points, finite abelian groups, boxes and exhaustions.

Elements are plain tuples of Python ints; group objects own the
arithmetic, the enumeration order and membership checks.  A finite group
also adds and negates element indices (positions in its enumeration) as
arrays, from cached mixed-radix tables.  All box combinatorics run in
exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian
from typing import Iterator, Union

import numpy as np

Element = tuple[int, ...]


class GroupMismatchError(ValueError):
    """An element does not live in the expected group, or ranks disagree."""


def l1_norm(x: Element) -> int:
    """Sum of absolute coordinates."""
    return sum(abs(c) for c in x)


def sup_norm(x: Element) -> int:
    """Largest absolute coordinate (0 for the empty tuple)."""
    return max((abs(c) for c in x), default=0)


@dataclass(frozen=True)
class IntegerLattice:
    """The free abelian group Z^rank under componentwise addition."""

    rank: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"rank must be a positive int, got {self.rank!r}")

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def element(self, coords) -> Element:
        x = tuple(int(c) for c in coords)
        if len(x) != self.rank:
            raise GroupMismatchError(
                f"expected {self.rank} coordinates, got {len(x)}")
        return x

    def contains(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.rank
            and all(isinstance(c, int) for c in x)
        )

    def require(self, x) -> Element:
        if not self.contains(x):
            raise GroupMismatchError(f"{x!r} is not a point of Z^{self.rank}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return tuple(a + b for a, b in zip(x, y, strict=True))

    def neg(self, x: Element) -> Element:
        return tuple(-a for a in x)

    def generators(self) -> tuple[Element, ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def sup_ball(self, radius: int) -> tuple[Element, ...]:
        """All x with sup_norm(x) <= radius, in lexicographic order."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        rng = range(-radius, radius + 1)
        return tuple(cartesian(rng, repeat=self.rank))


@lru_cache(maxsize=None)
def _enumerated(moduli: tuple[int, ...]) -> tuple[Element, ...]:
    return tuple(cartesian(*(range(k) for k in moduli)))


@lru_cache(maxsize=None)
def _index_of(moduli: tuple[int, ...]) -> dict[Element, int]:
    return {x: i for i, x in enumerate(_enumerated(moduli))}


@lru_cache(maxsize=None)
def _digits(moduli: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix digits: row a holds coordinate a of every element, in enumeration order."""
    digits = np.indices(moduli).reshape(len(moduli), -1)
    digits.setflags(write=False)
    return digits


@lru_cache(maxsize=None)
def _negation(moduli: tuple[int, ...]) -> np.ndarray:
    """Index of -x for each element index of x."""
    neg = np.ravel_multi_index(-_digits(moduli), moduli, mode="wrap")
    neg.setflags(write=False)
    return neg


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{k1} x ... x Z_{kN} with residue tuples (0 <= x_j < k_j) as elements.

    The enumeration order is lexicographic and fixed, so matrices built
    over the element basis are reproducible run to run.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        mods = tuple(int(k) for k in self.moduli)
        if not mods or any(k < 1 for k in mods):
            raise ValueError(f"moduli must be positive ints, got {self.moduli!r}")
        object.__setattr__(self, "moduli", mods)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        n = 1
        for k in self.moduli:
            n *= k
        return n

    @property
    def identity(self) -> Element:
        return (0,) * self.rank

    def element(self, coords) -> Element:
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise GroupMismatchError(
                f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(int(c) % k for c, k in zip(coords, self.moduli))

    def contains(self, x) -> bool:
        # A plain loop: this runs on every matrix lookup of a representation.
        if not isinstance(x, tuple) or len(x) != len(self.moduli):
            return False
        for c, k in zip(x, self.moduli):
            if not (isinstance(c, int) and 0 <= c < k):
                return False
        return True

    def require(self, x) -> Element:
        if not self.contains(x):
            raise GroupMismatchError(f"{x!r} is not a residue tuple for moduli {self.moduli}")
        return x

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % k for a, b, k in zip(x, y, self.moduli, strict=True))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % k for a, k in zip(x, self.moduli, strict=True))

    def elements(self) -> tuple[Element, ...]:
        return _enumerated(self.moduli)

    def index(self, x: Element) -> int:
        try:
            return _index_of(self.moduli)[x]
        except KeyError:
            raise GroupMismatchError(f"{x!r} is not an element of {self}") from None

    def add_indices(self, i, j) -> np.ndarray:
        """Index of x + y for index arrays i of x and j of y (they broadcast)."""
        out = 0
        for digits, k in zip(_digits(self.moduli), self.moduli):
            out = out * k + (digits[i] + digits[j]) % k
        return out

    def neg_indices(self, i) -> np.ndarray:
        """Index of -x for an index array i of x."""
        return _negation(self.moduli)[i]

    def generators(self) -> tuple[Element, ...]:
        n = self.rank
        return tuple(
            tuple(1 % self.moduli[i] if j == i else 0 for j in range(n))
            for i in range(n)
        )

    def signed_representative(self, x: Element) -> Element:
        """Residue tuple mapped coordinatewise into (-k/2, k/2]."""
        return tuple(c if 2 * c <= k else c - k for c, k in zip(x, self.moduli))

    def sup_ball(self, radius: int) -> tuple[Element, ...]:
        """Elements whose signed representative has sup norm <= radius."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return tuple(
            x for x in self.elements()
            if sup_norm(self.signed_representative(x)) <= radius
        )


Group = Union[IntegerLattice, FiniteAbelianGroup]


@dataclass(frozen=True)
class FolnerBox:
    """The translated box offset + {0, ..., side}^rank inside Z^rank."""

    rank: int
    side: int
    offset: Element = None  # type: ignore[assignment]  # normalized below

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.side < 0:
            raise ValueError("side must be nonnegative")
        off = self.offset
        if off is None:
            off = (0,) * self.rank
        off = tuple(int(c) for c in off)
        if len(off) != self.rank:
            raise GroupMismatchError(
                f"offset has {len(off)} coordinates, box rank is {self.rank}")
        object.__setattr__(self, "offset", off)

    def cardinality(self) -> int:
        return (self.side + 1) ** self.rank

    def contains(self, x: Element) -> bool:
        if len(x) != self.rank:
            raise GroupMismatchError(
                f"point has {len(x)} coordinates, box rank is {self.rank}")
        return all(o <= c <= o + self.side for c, o in zip(x, self.offset))

    def points(self) -> Iterator[Element]:
        """Lexicographic iterator over the box."""
        ranges = [range(o, o + self.side + 1) for o in self.offset]
        return cartesian(*ranges)

    def translate(self, x: Element) -> "FolnerBox":
        if len(x) != self.rank:
            raise GroupMismatchError(
                f"translation has {len(x)} coordinates, box rank is {self.rank}")
        return FolnerBox(self.rank, self.side, tuple(o + c for o, c in zip(self.offset, x)))

    def overlap(self, x: Element) -> int:
        """#(F intersect (x + F)); per axis max(0, side + 1 - |x_j|), offsets cancel."""
        if len(x) != self.rank:
            raise GroupMismatchError(
                f"shift has {len(x)} coordinates, box rank is {self.rank}")
        n = 1
        for c in x:
            n *= max(0, self.side + 1 - abs(int(c)))
            if n == 0:
                return 0
        return n

    def overlap_bounds(self, x: Element) -> tuple[Element, Element] | None:
        """Per-axis (lower, upper) coordinates of F intersect (x + F), or None."""
        lows, highs = [], []
        for o, c in zip(self.offset, x):
            lo = o + max(0, int(c))
            hi = o + self.side + min(0, int(c))
            if lo > hi:
                return None
            lows.append(lo)
            highs.append(hi)
        return tuple(lows), tuple(highs)

    def l1_mass(self) -> int:
        """Sum of |x|_1 over the zero-offset box; closed form rank*side*(side+1)^rank / 2."""
        if any(self.offset):
            raise ValueError("l1 mass closed form needs zero offset")
        total = self.rank * self.side * (self.side + 1) ** self.rank
        if total % 2:
            raise ArithmeticError("l1 mass closed form produced an odd doubled total")
        return total // 2


@dataclass(frozen=True)
class SupNormExhaustion:
    """Growing sup-norm balls H_1 <= H_2 <= ... whose union is the group."""

    group: Group

    def subset(self, i: int) -> tuple[Element, ...]:
        if i < 1:
            raise ValueError("exhaustion index starts at 1")
        return self.group.sup_ball(i)


def sample_elements(group: Group, count: int, bound: int, rng) -> tuple[Element, ...]:
    """Seeded uniform draws: coords in [-bound, bound] for lattices, residues otherwise."""
    if isinstance(group, IntegerLattice):
        arr = rng.integers(-bound, bound + 1, size=(count, group.rank))
    else:
        cols = [rng.integers(0, k, size=count) for k in group.moduli]
        arr = np.stack(cols, axis=1)
    return tuple(tuple(int(c) for c in row) for row in arr)
