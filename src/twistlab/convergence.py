"""Convergence diagnostics for infinite tensor products of twisted representations.

The questions answered here all reduce to nonnegative-term series built from
unit vectors in twisted regular representations of Z^N:

* does an infinite product of unit-modulus scalars converge (with a certified
  bound on how far the tail product sits from 1),
* does the two-part box criterion hold at a group element x, splitting the
  distance |1 - <lambda_u(x) phi, phi>| into a translation defect and a twist
  deviation averaged over the box,
* can a subsequence be greedily selected so that sup distances fall under a
  summable threshold schedule,
* and the rank-one Dirichlet analogue on centered windows.

Verdicts are three-valued (`ProvedConvergent`, `ProvedDivergent`,
`Inconclusive`); a proved verdict always names the comparison it rests on.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar, Union

import numpy as np

from .cocycles import (
    Cocycle,
    CocycleSequence,
    ConstructionError,
    TWO_PI,
    canonicalize_phases,
    flatten_matrix_cocycle,
)
from .groups import (
    Element,
    FolnerBox,
    GroupMismatchError,
    SupNormExhaustion,
    l1_norm,
    sup_norm,
)
from .reps import TruncatedVector
from .series import (
    Envelope,
    GeometricModel,
    INCONCLUSIVE,
    InvalidInnerProductError,
    MAJORANT,
    MINORANT,
    PROVED_CONVERGENT,
    PROVED_DIVERGENT,
    PowerModel,
    SeriesVerdict,
    TailModel,
    ZERO,
    certify,
    certify_model,
    diagnose_terms,
    horizon,
    inconclusive,
    model_values,
    neumaier_sum,
    prefix_mismatch,
)
# perfbench/tracer.py wraps the tail kernels where this module would look
# them up, so the names stay importable here; only Envelope.tail calls them.
from .series import geometric_tail, poly_geometric_tail, power_tail  # noqa: F401

DEFAULT_SCALAR_HORIZON = 10_000
DEFAULT_BOX_HORIZON = 25
DEFAULT_SCAN_HORIZON = 100_000
DEFAULT_GRID_CAP = 4_000_000

CERTIFIED = "Certified"
REFUTED = "Refuted"
UNDETERMINED = "Undetermined"

ScalarSource = Sequence[complex]


class SelectionError(RuntimeError):
    """Greedy subsequence selection ran out of candidates at some step."""

    def __init__(self, message: str, step: Optional[int] = None,
                 best_index: Optional[int] = None,
                 best_sup: Optional[float] = None) -> None:
        super().__init__(message)
        self.step = step
        self.best_index = best_index
        self.best_sup = best_sup


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# scalar products and inner-product series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProductDiagnosis:
    """Verdict for prod z_i together with the partial product over the prefix.

    When the defect series sum |1 - z_i| is proved convergent with tail bound
    t, every tail product sits within ``product_tail = e^t - 1`` of 1, so the
    full infinite product exists and differs from the reported prefix product
    by at most that factor.  ``terms`` are the defects |1 - z_i|.
    """

    series: SeriesVerdict
    partial_product: complex
    product_tail: Optional[float]
    terms: np.ndarray


def _complex_values(source: ScalarSource, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``n_max`` values as a complex array and their moduli.

    ``np.hypot`` of the parts is Python's ``abs`` of a complex number bit for
    bit, where ``np.abs`` of a complex array is not.
    """
    if n_max < 1:
        raise ValueError("need at least one term")
    z = np.asarray(source[:n_max], dtype=complex)
    with np.errstate(over="ignore"):  # the caller refuses the infinite moduli
        return z, np.hypot(z.real, z.imag)


def _distances_to_one(z: np.ndarray) -> np.ndarray:
    """|1 - z| per value, as Python's abs(1.0 - z) rounds it."""
    with np.errstate(over="ignore"):
        return np.hypot(1.0 - z.real, z.imag)


def product_diagnose(values: ScalarSource, model: Optional[TailModel] = None,
                     n_max: int = DEFAULT_SCALAR_HORIZON, tol: float = 1e-9,
                     declared: Optional[Sequence[float]] = None) -> ProductDiagnosis:
    """Diagnose convergence of an infinite product of unit-modulus scalars.

    ``declared`` is passed on to ``diagnose_terms``.
    """
    zs, moduli = _complex_values(values, n_max)
    i = _first(np.abs(moduli - 1.0) > tol)
    if i is not None:
        raise ConstructionError(
            f"factor {i + 1} has modulus {abs(complex(zs[i]))}, expected a unit scalar")
    prod = 1.0 + 0.0j
    for z in zs.tolist():  # Python's complex product, one factor at a time
        prod *= z
    terms = _distances_to_one(zs)
    verdict = diagnose_terms(terms, model, declared)
    tail = None
    if verdict.verdict == PROVED_CONVERGENT and verdict.tail_bound is not None:
        tail = math.expm1(verdict.tail_bound)
    return ProductDiagnosis(verdict, prod, tail, terms)


def _inner_products(values: ScalarSource, n_max: int,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The values as a complex array with their moduli, refusing any modulus
    beyond 1 + tol, since no pair of unit vectors produces such an inner product."""
    vals, moduli = _complex_values(values, n_max)
    i = _first(moduli > 1.0 + tol)
    if i is not None:
        raise InvalidInnerProductError(
            f"inner product {i + 1} has modulus {abs(complex(vals[i]))} > 1")
    return vals, moduli


def inner_product_series(values: ScalarSource, model: Optional[TailModel] = None,
                         n_max: int = DEFAULT_SCALAR_HORIZON, tol: float = 1e-9,
                         declared: Optional[Sequence[float]] = None
                         ) -> tuple[np.ndarray, SeriesVerdict]:
    """Terms |1 - a_i| for inner products a_i of unit vectors, with their verdict."""
    terms = _distances_to_one(_inner_products(values, n_max, tol)[0])
    return terms, diagnose_terms(terms, model, declared)


def modulus_deficit_series(values: ScalarSource, model: Optional[TailModel] = None,
                           n_max: int = DEFAULT_SCALAR_HORIZON,
                           tol: float = 1e-9) -> tuple[np.ndarray, SeriesVerdict]:
    """Terms max(0, 1 - |a_i|), the phase-insensitive variant, with their verdict."""
    deficits = 1.0 - _inner_products(values, n_max, tol)[1]
    terms = np.where(deficits > 0.0, deficits, 0.0)  # max(0.0, d); NaN becomes 0
    return terms, diagnose_terms(terms, model)


# ---------------------------------------------------------------------------
# exact per-box quantities
# ---------------------------------------------------------------------------


def box_defect(box: FolnerBox, x: Element) -> float:
    """Translation defect 1 - #(F cap (x+F)) / #F; int / int division rounds once."""
    card = box.cardinality()
    return (card - box.overlap(x)) / card


# Below 2^53 every integer is a float64, and one division of two such floats
# rounds as Python's int / int does.
_EXACT_INTS = 2.0 ** 53
# Sides per block of Python-int box defects, which hold a few object arrays.
_BIG_BLOCK = 1 << 12


def _box_defects(sides: np.ndarray, x: Element) -> np.ndarray:
    """``box_defect`` of the zero-offset boxes with integer sides m at x.

    The defect is (s^N - prod_j max(0, s - |x_j|)) / s^N with s = m + 1.
    While s^N < 2^53 both integers are exact in float64 and one division
    gives the correctly rounded ratio; past that the ratio is taken in
    Python ints.  ``sides`` holds integer-valued floats.
    """
    rank = len(x)
    if sides.size and rank < 1:
        raise ValueError("rank must be at least 1")
    if (sides < 0).any():
        raise ValueError("side must be nonnegative")
    reach = [abs(int(c)) for c in x]
    s = sides + 1.0
    card = np.ones_like(s)
    overlap = np.ones_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in map(float, reach):
            card *= s
            overlap *= np.where(s > a, s - a, 0.0)
        out = (card - overlap) / card
    big = np.flatnonzero(~(card < _EXACT_INTS))
    for start in range(0, big.size, _BIG_BLOCK):
        block = big[start:start + _BIG_BLOCK]
        # object arrays: every operation below is Python's own int arithmetic
        s = _python_ints(sides[block]) + 1
        card = s ** rank
        overlap = np.ones_like(s)
        for a in reach:
            overlap *= np.where(s > a, s - a, 0)
        out[block] = (card - overlap) / card
    return out


def _python_ints(values: np.ndarray) -> np.ndarray:
    """Integer-valued floats as an object array of Python ints."""
    return np.array(list(map(int, values.tolist())), dtype=object)


def box_defect_terms(sides: Sequence[int], x: Element) -> list[float]:
    """Defects of zero-offset boxes with the given integer sides at x.

    Sides are read as float64, so they are exact up to 2^53; beyond that
    they round to the nearest float.
    """
    return _box_defects(np.trunc(np.asarray(sides, dtype=float)), x).tolist()


def _side_ratio(num: int, sides: np.ndarray) -> np.ndarray:
    """num / (m + 1) per integer side m, rounded once as int / int rounds it.

    Float64 where num and m + 1 are below 2^53, Python ints elsewhere.
    """
    den = sides + 1.0
    if abs(num) < _EXACT_INTS:
        out = num / den
        inexact = np.flatnonzero(~(den < _EXACT_INTS))
    else:
        out = np.empty_like(den)
        inexact = np.arange(den.size)
    out[inexact] = num / (_python_ints(sides[inexact]) + 1)
    return out


# Points per leaf of the summation tree in box_twist_mean, and per batch of
# elements in box_sup_distance: one 256 KB block of phases at a time.
_BLOCK_POINTS = 1 << 15

# Threads that share the leaves of one box_twist_mean: the CPUs this process
# may run on.
try:
    _THREADS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    _THREADS = os.cpu_count() or 1

_T = TypeVar("_T")


def _axis_points(box: FolnerBox) -> list[np.ndarray]:
    """The coordinates along each axis of the box, as floats."""
    return [np.arange(o, o + box.side + 1, dtype=float) for o in box.offset]


def _chords(phases: np.ndarray) -> np.ndarray:
    """2 |sin(t/2)| = |1 - e^{it}|, overwriting the phases."""
    np.multiply(phases, 0.5, out=phases)
    np.sin(phases, out=phases)
    np.abs(phases, out=phases)
    np.multiply(phases, 2.0, out=phases)
    return phases


def _pairwise(leaf: Callable[[int, int], _T], start: int, count: int) -> _T:
    """``leaf`` over the blocks of at most _BLOCK_POINTS values into which
    numpy's pairwise summation splits ``count`` values from ``start``, joined
    with ``+`` along that tree, left block first.  With block sums this is
    the pairwise sum; with ``[(start, count)]`` it lists the blocks in tree
    order."""
    if count <= _BLOCK_POINTS:
        return leaf(start, count)
    half = count // 2
    half -= half % 8
    return _pairwise(leaf, start, half) + _pairwise(leaf, start + half, count - half)


def box_twist_mean(matrix, box: FolnerBox, x: Element,
                   grid_cap: int = DEFAULT_GRID_CAP) -> float:
    """(1/#F) sum_{y in F} |1 - e^{-i y.(A x)}|, summed block by block.

    The chord length |1 - e^{i t}| equals 2 |sin(t/2)|.  In lexicographic
    order the phase at point k of the box is lead[k // m] + last[k % m], with
    ``last`` the last axis (m points) and ``lead`` the grid of the others,
    added in the order a broadcast grid adds them.  Blocks of at most 2^15
    points are built from that, turned into chords in place and summed; they
    are the leaves of numpy's pairwise summation tree, so the mean equals
    ``np.mean`` over the full grid bit for bit while each thread holds one
    block.  The calling thread and up to _THREADS - 1 more, all in the
    caller's context (its ``np.errstate``), take the leaves in tree order
    from one queue, so a thread on a slow CPU takes fewer of them; every
    thread is joined before the leaf sums are folded along the tree.  The
    fold fixes the order of every addition, so the bits do not depend on
    the thread count.  Once a leaf fails the threads stop taking leaves, and
    the first exception in leaf order is re-raised.  ``grid_cap`` bounds the
    number of points, which is the work.
    """
    A = np.asarray(matrix, dtype=float)
    n = box.rank
    if A.shape != (n, n):
        raise GroupMismatchError(
            f"matrix shape {A.shape} does not match box rank {n}")
    if len(x) != n:
        raise GroupMismatchError(
            f"element has {len(x)} coordinates, box rank is {n}")
    card = box.cardinality()
    if card > grid_cap:
        raise ConstructionError(
            f"box holds {card} points, over the grid cap "
            f"{grid_cap}; lower the horizon or raise grid_cap")
    coeffs = A @ np.asarray(x, dtype=float)
    *head, last = [c * y for c, y in zip(coeffs, _axis_points(box))]
    # Rank 1 is a single row; adding 0.0 can only flip the sign of a zero
    # phase, and the chord erases that.
    lead = head[0] if head else np.zeros(1)
    for axis in head[1:]:
        lead = (lead[:, None] + axis).ravel()
    m = last.size

    def leaf(buf: np.ndarray, start: int, count: int) -> float:
        out = buf[:count]
        r0, c0 = divmod(start, m)
        r1, c1 = divmod(start + count, m)
        if r0 == r1:
            np.add(lead[r0], last[c0:c1], out=out)
        else:
            first = m - c0
            rows = r1 - r0 - 1
            mid = out[first:first + rows * m]
            np.add(lead[r0], last[c0:], out=out[:first])
            np.add(lead[r0 + 1:r1, None], last, out=mid.reshape(rows, m))
            np.add(lead[r1:r1 + 1], last[:c1], out=out[first + rows * m:])
        return np.add.reduce(_chords(out))

    leaves = _pairwise(lambda start, count: [(start, count)], 0, card)
    sums: list = [None] * len(leaves)
    errors: list[tuple[int, BaseException]] = []
    todo = iter(range(len(leaves)))
    lock = threading.Lock()

    def sum_leaves() -> None:
        buf = np.empty(min(card, _BLOCK_POINTS))
        while not errors:
            with lock:
                j = next(todo, None)
            if j is None:
                return
            try:
                sums[j] = leaf(buf, *leaves[j])
            except BaseException as exc:  # re-raised by the caller, in leaf order
                errors.append((j, exc))

    threads = []
    try:
        for _ in range(min(_THREADS, len(leaves)) - 1):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(sum_leaves,))
            thread.start()
            threads.append(thread)
        sum_leaves()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    folded = iter(sums)
    return float(_pairwise(lambda start, count: next(folded), 0, card)) / card


def box_sup_distance(u: Cocycle, box: FolnerBox, elements: Sequence[Element],
                     grid_cap: int = DEFAULT_GRID_CAP) -> float:
    """sup over x in elements, y in the box, of |1 - u(-y, x)|.

    For a (product of) matrix cocycle(s) with exponent matrix B the pruning
    is exact: the chord of x never exceeds min(2, sum_j c_j max(|o_j|,
    |o_j + m|)), c = |B| |x|, widened by a relative 1e-9 for rounding and
    by 1e-300 for underflow.  Elements are evaluated in descending order of
    that bound, in doubling batches of broadcast grids, until the next bound
    falls below the best chord found.  The max does not depend on the
    order, so the sup equals the element-by-element scan bit for bit;
    non-finite bounds switch the pruning off.
    """
    flat = flatten_matrix_cocycle(u)
    best = 0.0
    if flat is not None:
        card = box.cardinality()
        if card > grid_cap:
            raise ConstructionError(
                f"box holds {card} points, over the grid cap {grid_cap}")
        if len(elements) == 0:
            return best
        if flat.shape != (box.rank, box.rank):
            raise GroupMismatchError(
                f"matrix shape {flat.shape} does not match box rank {box.rank}")
        reach = np.array([max(abs(o), abs(o + box.side)) for o in box.offset], dtype=float)
        cbar = np.abs(flat) @ np.abs(np.asarray(elements, dtype=float)).T
        bounds = np.minimum(2.0, reach @ cbar) * (1.0 + 1e-9) + 1e-300
        if not np.isfinite(bounds).all():
            bounds[:] = np.inf  # a NaN bound has no place in the order
        order = np.argsort(-bounds, kind="stable")
        ys = _axis_points(box)
        batch_cap = max(1, _BLOCK_POINTS // card)
        pos, size = 0, 8
        while pos < len(order) and bounds[order[pos]] >= best:
            take = min(size, batch_cap)
            batch = order[pos:pos + take]
            batch = batch[bounds[batch] >= best]
            # One gemv per element: a batched gemm can differ from it in the
            # last bit of the coefficients, and so of the sup.
            coeffs = np.array([flat @ np.asarray(elements[i], dtype=float) for i in batch])
            k = len(batch)
            grid = coeffs[:, 0, None] * ys[0]
            for j in range(1, box.rank):
                grid = grid[..., None] + (coeffs[:, j, None] * ys[j]).reshape(
                    (k,) + (1,) * j + (-1,))
            for v in _chords(grid).reshape(k, -1).max(axis=1):
                best = max(best, float(v))
            pos += take
            size *= 2
        return best
    group = u.group
    if box.cardinality() * max(1, len(elements)) > grid_cap:
        raise ConstructionError("pointwise sup scan exceeds the grid cap")
    for x in elements:
        gx = group.element(x)
        for y in box.points():
            gy = group.element(y)
            best = max(best, abs(1.0 - u.value(group.neg(gy), gx)))
    return best


# ---------------------------------------------------------------------------
# declared growth families for box sides and matrix norms
# ---------------------------------------------------------------------------


def ceil_schedule(model: TailModel, what: str) -> Callable[[int], int]:
    """Integer sides (or windows) m_i = ceil(v_i) of the declared values v_i."""

    def fn(i: int) -> int:
        v = model.value(i)
        if not math.isfinite(v):
            raise ConstructionError(f"{what} model overflows at index {i}")
        return math.ceil(v)

    return fn


def power_box_family(coeff: float, exponent: float) -> tuple[Callable[[int], int], PowerModel]:
    """Sides m_i = ceil(coeff * i**exponent), with the declared growth model."""
    if coeff <= 0:
        raise ValueError("coeff must be positive so every box is nonempty")
    model = PowerModel(coeff, exponent)
    return ceil_schedule(model, "side"), model


def geometric_box_family(coeff: float, ratio: float) -> tuple[Callable[[int], int], GeometricModel]:
    """Sides m_i = ceil(coeff * ratio**i)."""
    if coeff <= 0:
        raise ValueError("coeff must be positive so every box is nonempty")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    model = GeometricModel(coeff, ratio)
    return ceil_schedule(model, "side"), model


def geometric_matrix_family(matrix, ratio: float) -> tuple[Callable[[int], np.ndarray], GeometricModel]:
    """Matrices A_i = ratio**i A with the exact sup-entry-norm model."""
    A = canonicalize_phases(matrix)
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1) so entries stay canonical")
    top = float(np.max(np.abs(A))) if A.size else 0.0

    def matrices(i: int) -> np.ndarray:
        return A * ratio ** i

    return matrices, GeometricModel(top, ratio)


def power_matrix_family(matrix, exponent: float) -> tuple[Callable[[int], np.ndarray], PowerModel]:
    """Matrices A_i = i**exponent A for nonincreasing scales (exponent <= 0)."""
    A = canonicalize_phases(matrix)
    if exponent > 0:
        raise ValueError("growing matrix scales would leave the canonical range")
    top = float(np.max(np.abs(A))) if A.size else 0.0

    def matrices(i: int) -> np.ndarray:
        return A * float(i) ** exponent

    return matrices, PowerModel(top, exponent)


def _ceil_mismatch(sides: Sequence[float], values: Sequence[float],
                   relation: str) -> Optional[str]:
    """The first realized side outside the ceil window [v, v + 1] of its declared value."""
    return prefix_mismatch(sides, values, relation,
                           "side {i} = {a} exceeds the declared ceiling {v} + 1",
                           "side {i} = {a} falls below the declared value {v}",
                           width=1.0, integral=True)


# ---------------------------------------------------------------------------
# certificate wording: the envelopes decide, these only phrase the verdict
# ---------------------------------------------------------------------------

_NEITHER_SIDE = "declared side model certifies neither direction"

_DESCRIBE = {"power": ("{c:g} * i^{q:g}",), "geometric": ("{c:g} * {r:g}^i",)}

_TRANSLATION_WORDS = {
    "power": ("defect_i <= |x|_1/(m_i+1) <= {up:g} * i^-{q:g}",
              "defect_i >= min(1, |x|_inf/(m_i+1)) >= "
              "min(1, {low:g} * i^-{growth:g}), not summable"),
    "geometric": ("defect_i <= |x|_1/(m_i+1) <= {up:g} * (1/{r:g})^i",
                  "sides stay at or below {cap:g}, so every defect is "
                  "at least min(1, {low:g})"),
}

_SIGMA_WORDS = {
    "power": ("1/m_i <= {up:g} * i^-{q:g}",
              "1/m_i >= {low:g} * i^-{growth:g}, not summable"),
    "geometric": ("1/m_i <= {up:g} * (1/{r:g})^i",
                  "sides stay at or below {cap:g}, so 1/m_i is bounded away from 0"),
}

_FOLNER_WORDS = {
    "power": ("box sides grow without bound, so translate overlaps fill up",
              "box sides stay bounded, so some translate keeps a fixed defect"),
    "geometric": ("box sides grow geometrically", "box sides stay bounded"),
}

# m_i a_i >= a_i since every side is at least 1 ...
_WEIGHTED_NORM_WORDS = {
    "power": ("m_i a_i >= {c:g} * i^{q:g} since every side is at least 1, "
              "and that power is not summable",),
    "geometric": ("m_i a_i >= {c:g} * {r:g}^i with ratio >= 1, "
                  "so the terms never decay",),
}
# ... and m_i a_i >= v_i a_i, phrased by the side family.
_WEIGHTED_SIDE_WORDS = {
    "power": ("m_i a_i >= {c:g} * i^{q:g}, not summable",),
    "geometric": ("m_i a_i >= {c:g} * i^{q:g} * {r:g}^i, which grows without bound",),
}


def _words(table: dict, family: str, term, **fields) -> tuple[str, ...]:
    c, q, r = term
    return tuple(t.format(c=c, q=q, r=r, **fields) for t in table[family])


def _describe(model: TailModel) -> str:
    return _words(_DESCRIBE, model.family, model.envelope.terms[0])[0]


def _inverse_side_verdict(terms: Sequence[float], model: TailModel,
                          up_num: float, low_num: float, plus: float,
                          words: dict) -> SeriesVerdict:
    """Certify terms with low_num / (v_i + plus) <= term_i <= up_num / v_i.

    The upper envelope needs sides m_i >= v_i.  The lower one needs the ceil
    step m_i <= v_i + 1 for terms at least low_num / (m_i + plus - 1), which
    may be capped at 1 without changing summability.
    """
    side = model.envelope
    if side is None or not side.terms[0][0] > 0:  # needs positive sides
        return inconclusive(terms, _NEITHER_SIDE)
    c, q, r = side.terms[0]
    floor, cap = side.lower(), side.upper()
    upper = floor.reciprocal(up_num) if floor else None
    lower = cap.plus(plus).collapse().reciprocal(low_num) if cap else None
    texts = _words(words, model.family, side.terms[0], up=up_num / c,
                   low=low_num / (c + plus), growth=max(q, 0.0), cap=c + 1)
    return certify(terms, upper, lower, texts + (_NEITHER_SIDE,))


def _product_majorant(left: TailModel, plus: float, factor: float,
                      right: TailModel) -> tuple[Optional[Envelope], str]:
    """factor * (left_i + plus) * right_i as a majorant, or why there is none."""
    if MINORANT in (left.relation, right.relation):
        return None, "declared relations give no upper envelope"
    if left.envelope is None or right.envelope is None:
        return None, "explicit prefixes carry no tail claims"
    upper = left.envelope.upper().plus(plus).scale(factor).times(right.envelope.upper())
    return upper, "declared models admit no summable envelope"


# ---------------------------------------------------------------------------
# two-part box criterion on Z^N
# ---------------------------------------------------------------------------


def _conclusion(necessary: SeriesVerdict, other: SeriesVerdict) -> str:
    """Both parts convergent prove the criterion; a divergent first part refutes it."""
    if necessary.verdict == PROVED_CONVERGENT and other.verdict == PROVED_CONVERGENT:
        return PROVED_CONVERGENT
    if necessary.verdict == PROVED_DIVERGENT:
        return PROVED_DIVERGENT
    return INCONCLUSIVE


@dataclass(frozen=True)
class TwistedRepSeries:
    """Split diagnosis of sum_i |1 - <lambda_{u_i}(x) phi_i, phi_i>|.

    ``translation`` tracks the box defect terms 1 - #(F cap (x+F))/#F and
    ``twist`` the box means of |1 - u_i(-y, x)|; the sum of the two term
    sequences dominates the distance series, so both parts convergent proves
    the criterion at x while a divergent translation part refutes it.
    ``translation_bounds`` and ``twist_bounds`` are the per-term envelopes
    min(1, |x|_1/(m_i+1)) and min(2, (N |x|_1 / 2) m_i a_i), with a_i the
    sup entry norm of the i-th phase matrix.
    """

    x: Element
    sides: tuple[int, ...]
    translation_terms: tuple[float, ...]
    twist_terms: tuple[float, ...]
    translation: SeriesVerdict
    twist: SeriesVerdict
    translation_bounds: tuple[float, ...] = ()
    twist_bounds: tuple[float, ...] = ()

    @property
    def conclusion(self) -> str:
        return _conclusion(self.translation, self.twist)

    @property
    def tail_bound(self) -> Optional[float]:
        if (self.translation.tail_bound is not None
                and self.twist.tail_bound is not None):
            return self.translation.tail_bound + self.twist.tail_bound
        return None


def _translation_verdict(terms: np.ndarray, bounds: np.ndarray, sides: np.ndarray,
                         model: Optional[TailModel],
                         values: Optional[Sequence[float]], x: Element) -> SeriesVerdict:
    """``sides`` holds the integer sides as floats."""
    if all(c == 0 for c in x):
        return certify(terms, ZERO, None, ("the identity never leaves the box", None, None))
    linf = sup_norm(x)
    floor = _side_ratio(linf, sides)
    with np.errstate(invalid="ignore"):
        floor = np.where(floor < 1.0, floor, 1.0)
        k = _first((terms > bounds + 1e-9) | (terms < floor - 1e-9))
    if k is not None:
        return inconclusive(terms, f"defect at side {int(sides[k])} escaped its proved envelope")
    if model is None:
        return inconclusive(terms, "no growth model declared for the box sides")
    mismatch = _ceil_mismatch(sides, values, model.relation)
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    # |x|_inf / (v_i + 2) <= defect_i <= |x|_1 / v_i
    return _inverse_side_verdict(terms, model, l1_norm(x), linf, 2.0, _TRANSLATION_WORDS)


def _twist_verdict(terms: np.ndarray, bounds: np.ndarray,
                   sides: np.ndarray, side_values: Optional[Sequence[float]],
                   norms: np.ndarray, side_model: Optional[TailModel],
                   matrix_model: Optional[TailModel], x: Element) -> SeriesVerdict:
    rank = len(x)
    l1 = l1_norm(x)
    if l1 == 0:
        return certify(terms, ZERO, None, ("x = 0 twists nothing", None, None))
    with np.errstate(invalid="ignore"):
        k = _first(terms > bounds + 1e-9)
    if k is not None:
        return inconclusive(terms, f"term {k + 1} escaped its proved envelope")
    if side_model is None or matrix_model is None:
        return inconclusive(terms, "twist certification needs both declared models")
    mismatch = _ceil_mismatch(sides, side_values, side_model.relation)
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    mismatch = prefix_mismatch(norms, model_values(matrix_model, len(norms)),
                               matrix_model.relation,
                               "matrix norm {i} = {a} exceeds its declared value {v}",
                               "matrix norm {i} = {a} falls below its declared value {v}")
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    upper, why = _product_majorant(side_model, 1.0, 0.5 * rank * l1, matrix_model)
    derivation = upper and (
        f"term_i <= (N |x|_1 / 2) m_i a_i with N={rank}, |x|_1={l1}, "
        f"m_i <= {_describe(side_model)} + 1, "
        f"a_i <= {_describe(matrix_model)}")
    return certify(terms, upper, None, (derivation, None, why))


def twisted_rep_series(matrices: Callable[[int], np.ndarray],
                       matrix_model: Optional[TailModel],
                       sides: Callable[[int], int],
                       side_model: Optional[TailModel],
                       x: Element,
                       n_max: int = DEFAULT_BOX_HORIZON,
                       grid_cap: int = DEFAULT_GRID_CAP) -> TwistedRepSeries:
    """Evaluate both parts of the box criterion at x over the first n_max indices.

    ``matrices(i)`` is the phase matrix of the i-th cocycle and ``sides(i)``
    the i-th box side; the declared models carry the growth claims that turn
    evaluated prefixes into certified tails.  An explicit model stops the
    horizon at the end of its prefix.
    """
    if n_max < 1:
        raise ValueError("need at least one index")
    n_max = horizon(n_max, side_model, matrix_model)
    x = tuple(int(c) for c in x)
    rank = len(x)
    side_list = []
    norm_list = []
    twist_terms = []
    for i in range(1, n_max + 1):
        m = int(sides(i))
        if m < 0:
            raise ConstructionError(f"side {i} is negative")
        box = FolnerBox(rank, m)
        A = canonicalize_phases(matrices(i))
        side_list.append(m)
        norm_list.append(float(np.max(np.abs(A))) if A.size else 0.0)
        twist_terms.append(box_twist_mean(A, box, x, grid_cap=grid_cap))
    side_values = model_values(side_model, n_max) if side_model is not None else None
    side_arr = np.array(side_list, dtype=float)
    norms = np.array(norm_list)
    trans_terms = _box_defects(side_arr, x)
    twist = np.array(twist_terms)
    trans_bounds = _translation_bounds(side_arr, x)
    twist_bounds = (0.5 * rank * l1_norm(x)) * side_arr * norms
    twist_bounds = np.where(twist_bounds < 2.0, twist_bounds, 2.0)
    translation = _translation_verdict(trans_terms, trans_bounds, side_arr,
                                       side_model, side_values, x)
    twist_verdict = _twist_verdict(twist, twist_bounds, side_arr, side_values, norms,
                                   side_model, matrix_model, x)
    return TwistedRepSeries(x, tuple(side_list), tuple(trans_terms.tolist()),
                            tuple(twist_terms), translation, twist_verdict,
                            tuple(trans_bounds.tolist()), tuple(twist_bounds.tolist()))


def _translation_bounds(sides: np.ndarray, x: Element) -> np.ndarray:
    """min(1, |x|_1 / (m_i + 1)) for integer sides, each ratio rounded once."""
    bounds = _side_ratio(l1_norm(x), sides)
    return np.where(bounds < 1.0, bounds, 1.0)


def translation_series(sides: Sequence[int], side_model: Optional[TailModel],
                       x: Element) -> tuple[list[float], SeriesVerdict]:
    """Exact defect terms for zero-offset boxes together with their verdict.

    Convenience wrapper for callers that already hold a realized side list
    (the box criteria below consume models directly instead); an explicit
    side model keeps only as many sides as it declares.  Sides are read as
    float64, exact up to 2^53.
    """
    sides = np.trunc(np.asarray(sides, dtype=float))[:horizon(len(sides), side_model)]
    terms = _box_defects(sides, x)
    values = model_values(side_model, len(sides)) if side_model is not None else None
    return terms.tolist(), _translation_verdict(terms, _translation_bounds(sides, x), sides,
                                                side_model, values, x)


# ---------------------------------------------------------------------------
# the four-clause decision for box sequences on Z^N
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClauseReport:
    name: str
    holds: str  # Certified | Refuted | Undetermined
    reason: str
    series: Optional[SeriesVerdict] = None


@dataclass(frozen=True, eq=False)
class CriteriaAt:
    """The translation part of the box criterion at one element x.

    ``translation`` is None when some declared side overflows to infinity;
    such a side contributes a zero defect and zero bound, and an infinite
    twist majorant unless its matrix norm vanishes.  The term vectors are
    float64 arrays.
    """

    x: Element
    twist_factor: float
    translation_terms: np.ndarray
    translation_bounds: np.ndarray
    twist_majorant: np.ndarray
    translation: Optional[SeriesVerdict]


@dataclass(frozen=True, eq=False)
class BoxCriteria:
    """The four clauses plus the term vectors they were certified from.

    ``sides`` are the realized sides ceil(v_i) of the declared side values
    ``side_values`` (inf once a value overflows), ``norms`` the declared
    matrix norms a_i, ``sigma_terms`` the reciprocals 1/m_i and
    ``weighted_terms`` the products m_i a_i, all float64 arrays.
    """

    side_model: TailModel
    matrix_model: TailModel
    clauses: tuple[ClauseReport, ...]
    side_values: np.ndarray
    sides: np.ndarray
    norms: np.ndarray
    sigma_terms: np.ndarray
    weighted_terms: np.ndarray

    def clause(self, name: str) -> ClauseReport:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def tensor_exists(self) -> str:
        return self.clause("tensor_product_existence").holds

    def at(self, x: Element) -> CriteriaAt:
        """Box defects, their bounds and the twist majorants at x for these sides."""
        x = tuple(int(c) for c in x)
        factor = 0.5 * len(x) * l1_norm(x)
        sides, norms = self.sides, self.norms
        overflowed = np.isinf(sides)
        terms = np.zeros(sides.size)
        terms[~overflowed] = _box_defects(sides[~overflowed], x)
        with np.errstate(over="ignore", invalid="ignore"):
            majorant = np.where(norms == 0.0, 0.0,
                                np.where(overflowed, math.inf, factor * sides * norms))
            # the float sides round m + 1 here, unlike the exact ratios of the check
            bounds = float(l1_norm(x)) / (sides + 1.0)
        bounds = np.where(bounds < 1.0, bounds, 1.0)
        translation = None
        if not overflowed.any():
            translation = _translation_verdict(terms, bounds, sides, self.side_model,
                                               self.side_values, x)
        return CriteriaAt(x, factor, terms, bounds, majorant, translation)


def _folner_clause(model: TailModel) -> ClauseReport:
    name = "folner_sequence"
    side = model.envelope
    if side is not None:
        grows, stays = _FOLNER_WORDS[model.family]
        floor, cap = side.lower(), side.upper()
        if floor is not None and floor.unbounded():
            return ClauseReport(name, CERTIFIED, grows)
        if cap is not None and cap.bounded():
            return ClauseReport(name, REFUTED, stays)
    return ClauseReport(name, UNDETERMINED,
                        "declared side model does not settle the growth question")


def _weighted_norm_verdict(terms: Sequence[float], side_model: TailModel,
                           matrix_model: TailModel) -> SeriesVerdict:
    """Verdict for sum m_i a_i from the two declared models."""
    side, norm = side_model.envelope, matrix_model.envelope
    norm_cap = norm.upper() if norm else None
    if norm_cap is not None and norm_cap.vanishes:
        return certify(terms, norm_cap, None, ("all matrix norms vanish", None, None))
    side_cap = side.upper() if side else None
    # m_i a_i <= (v_i + 1) a_i
    upper = side_cap.plus(1.0).times(norm_cap) if side_cap and norm_cap else None
    derivation = upper and (f"m_i a_i <= ({_describe(side_model)} + 1) "
                            f"* ({_describe(matrix_model)})")
    lower = witness = None
    norm_floor = norm.lower() if norm else None
    if side_model.relation != MAJORANT and norm_floor is not None:
        # m_i a_i >= a_i, and for power-law norms m_i a_i >= v_i a_i
        lower = norm_floor
        witness, = _words(_WEIGHTED_NORM_WORDS, matrix_model.family, norm_floor.terms[0])
        side_floor = side.lower() if side else None
        if (not norm_floor.diverges() and side_floor is not None
                and matrix_model.family == "power"):
            lower = side_floor.times(norm_floor)
            witness, = _words(_WEIGHTED_SIDE_WORDS, side_model.family, lower.terms[0])
    return certify(terms, upper, lower,
                   (derivation, witness, "declared models certify neither direction"))


def _clause(name: str, verdict: SeriesVerdict, proved: str, refuted: str,
            undetermined: str) -> ClauseReport:
    if verdict.verdict == PROVED_CONVERGENT:
        return ClauseReport(name, CERTIFIED, proved, verdict)
    if verdict.verdict == PROVED_DIVERGENT:
        return ClauseReport(name, REFUTED, refuted, verdict)
    return ClauseReport(name, UNDETERMINED, undetermined, verdict)


def lattice_tensor_criteria(side_model: TailModel, matrix_model: TailModel,
                            n_max: int = DEFAULT_SCALAR_HORIZON) -> BoxCriteria:
    """The four-clause report for boxes K_{m_i} and phase matrices A_i on Z^N.

    Clause names: ``folner_sequence`` (sides grow), ``summable_folner``
    (sum 1/m_i), ``product_cocycle`` (sum a_i with a_i the sup entry norm),
    and ``tensor_product_existence`` (sum m_i a_i together with the previous
    summability clause; a sufficient condition, so it is never refuted).
    Each declared value is evaluated once, up to n_max or the end of an
    explicit prefix; the term vectors ride along.
    """
    coeff = getattr(side_model, "coeff", None)
    if coeff is not None and coeff <= 0:
        raise ConstructionError("side model must produce positive sides")

    n_max = horizon(n_max, side_model, matrix_model)
    side_values = np.array(model_values(side_model, n_max), dtype=float)
    if np.isnan(side_values).any():
        raise ValueError("cannot convert float NaN to integer")  # math.ceil's message
    sides = np.ceil(side_values) + 0.0  # + 0.0 clears the sign of a zero ceiling
    norms = np.array(model_values(matrix_model, n_max), dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma_terms = np.where(sides >= 1, 1.0 / sides, math.inf)
        weighted_terms = np.where(norms == 0.0, 0.0, sides * norms)

    # 1/(v_i + 1) <= 1/m_i <= 1/v_i
    sigma = _inverse_side_verdict(sigma_terms, side_model, 1.0, 1.0, 1.0, _SIGMA_WORDS)
    sigma_clause = _clause(
        "summable_folner", sigma, "sum of reciprocal sides converges",
        "sum of reciprocal sides diverges",
        "reciprocal side series resists both certificates")
    norm_clause = _clause(
        "product_cocycle", certify_model(norms, matrix_model),
        "matrix norms are summable, so the pointwise product converges "
        "everywhere and the limit is again a phase-matrix cocycle",
        "matrix norms are not summable",
        "matrix norm series resists both certificates")

    weighted = _weighted_norm_verdict(weighted_terms, side_model, matrix_model)
    if _conclusion(sigma, weighted) == PROVED_CONVERGENT:
        holds, reason = CERTIFIED, ("reciprocal sides and side-weighted norms are both "
                                    "summable, so the product state converges on every "
                                    "group element")
    elif PROVED_DIVERGENT in (weighted.verdict, sigma.verdict):
        holds, reason = UNDETERMINED, ("the sufficient condition fails; existence is not "
                                       "settled one way or the other by this route")
    else:
        holds, reason = UNDETERMINED, "the sufficient condition resists certification"
    tensor_clause = ClauseReport("tensor_product_existence", holds, reason, weighted)

    return BoxCriteria(side_model, matrix_model,
                       (_folner_clause(side_model), sigma_clause, norm_clause,
                        tensor_clause),
                       side_values, sides, norms, sigma_terms, weighted_terms)


# ---------------------------------------------------------------------------
# greedy subsequence selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionStep:
    step: int
    index: int
    threshold: float
    sup: float


@dataclass(frozen=True)
class SelectionReport:
    steps: tuple[SelectionStep, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.steps)

    @property
    def threshold_sum(self) -> float:
        return neumaier_sum([s.threshold for s in self.steps])


def select_product_subsequence(seq: CocycleSequence,
                               boxes: Union[Callable[[int], FolnerBox], Sequence[FolnerBox]],
                               exhaustion: SupNormExhaustion,
                               count: int,
                               thresholds: Optional[Callable[[int], float]] = None,
                               scan_horizon: int = DEFAULT_SCAN_HORIZON,
                               grid_cap: int = DEFAULT_GRID_CAP) -> SelectionReport:
    """Greedily pick indices i_1 < i_2 < ... with small sup distances.

    At step k the candidate u_j must satisfy
    sup_{x in H_k, y in F_k} |1 - u_j(-y, x)| <= threshold(k), scanning at
    most ``scan_horizon`` indices past the previous pick; the default
    schedule 1/k^2 is summable, which is what downstream product arguments
    need.  Raises SelectionError when a step exhausts its scan, reporting the
    best near miss.
    """
    if count < 1:
        raise ValueError("need at least one selection step")
    if thresholds is None:
        thresholds = lambda k: 1.0 / k ** 2

    def box_at(k: int) -> FolnerBox:
        if callable(boxes):
            return boxes(k)
        return boxes[k - 1]

    steps: list[SelectionStep] = []
    prev = 0
    for step in range(1, count + 1):
        thr = float(thresholds(step))
        if thr <= 0:
            raise ValueError("thresholds must be positive")
        window = exhaustion.subset(step)
        box = box_at(step)
        best_sup = math.inf
        best_j: Optional[int] = None
        found = False
        for shift in range(1, scan_horizon + 1):
            j = prev + shift
            try:
                member = seq.member(j)
            except IndexError:
                raise SelectionError(
                    f"sequence ran out at index {j} during step {step}; "
                    f"best candidate so far was index {best_j} with sup {best_sup}",
                    step=step, best_index=best_j, best_sup=best_sup) from None
            sup = box_sup_distance(member, box, window, grid_cap=grid_cap)
            if sup <= thr:
                steps.append(SelectionStep(step, j, thr, sup))
                prev = j
                found = True
                break
            if sup < best_sup:
                best_sup, best_j = sup, j
        if not found:
            raise SelectionError(
                f"no candidate within {scan_horizon} indices met the "
                f"threshold {thr} at step {step}; best was index {best_j} "
                f"with sup {best_sup}",
                step=step, best_index=best_j, best_sup=best_sup)
    return SelectionReport(tuple(steps))


# ---------------------------------------------------------------------------
# rank-one Dirichlet windows
# ---------------------------------------------------------------------------


def dirichlet_value(window: int, theta: float) -> float:
    """Mean of e^{i t theta} over t in {-window, ..., window}.

    Equals sin((2w+1) theta/2) / ((2w+1) sin(theta/2)) away from multiples of
    2 pi, and 1 there; the argument is reduced with math.remainder first, so
    the sine quotient is evaluated only on [-pi, pi].
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    m = 2 * window + 1
    t = math.remainder(float(theta), TWO_PI)
    denominator = m * math.sin(0.5 * t)
    if denominator == 0.0:  # t is 0, or 0.5 t underflows to 0 and D rounds to 1
        return 1.0
    return math.sin(0.5 * m * t) / denominator


@dataclass(frozen=True)
class DirichletReport:
    """Both Dirichlet series with their terms.

    ``inverse_terms`` are 1/n_j and ``deviation_bounds`` the chord bounds
    min(2, (n_j + 1) |theta_j| / 2) that dominate ``deviation_terms``.
    """

    windows: tuple[int, ...]
    angles: tuple[float, ...]
    deviation_terms: tuple[float, ...]
    inverse_window: SeriesVerdict
    deviation: SeriesVerdict
    inverse_terms: tuple[float, ...] = ()
    deviation_bounds: tuple[float, ...] = ()

    @property
    def conclusion(self) -> str:
        return _conclusion(self.inverse_window, self.deviation)


def dirichlet_condition(windows: Callable[[int], int],
                        window_model: Optional[TailModel],
                        angles: Callable[[int], float],
                        angle_model: Optional[TailModel],
                        n_max: int = DEFAULT_SCALAR_HORIZON) -> DirichletReport:
    """Diagnose sum 1/n_j and sum |1 - D(n_j, theta_j)| for centered windows.

    ``angle_model`` declares |theta_j|; the deviation majorant is the chord
    bound |1 - D(n, theta)| <= (n+1) |theta| / 2, so certified tails need an
    upper envelope on both the windows and the angle sizes.  Divergence of
    the deviation series is never claimed: the Dirichlet mean oscillates and
    admits no useful minorant.  An explicit model stops the horizon at the
    end of its prefix.
    """
    if n_max < 1:
        raise ValueError("need at least one index")
    n_max = horizon(n_max, window_model, angle_model)
    win_list = []
    ang_list = []
    dev_terms = []
    for j in range(1, n_max + 1):
        w = int(windows(j))
        if w < 1:
            raise ConstructionError(f"window {j} must be a positive integer")
        if 2 * w + 1 > sys.float_info.max:
            raise ConstructionError(f"window {j} is too large: 2 n_j + 1 exceeds the float range")
        theta = float(angles(j))
        win_list.append(w)
        ang_list.append(theta)
        dev_terms.append(abs(1.0 - dirichlet_value(w, theta)))

    # Exact integers: w + 1 is formed before it is rounded to a float.
    wins = np.array(win_list, dtype=object)
    inverse_terms = 1.0 / wins.astype(float)
    window_values = model_values(window_model, n_max) if window_model is not None else None
    matched = window_model is not None and _ceil_mismatch(
        wins, window_values, window_model.relation) is None
    if matched:
        # 1/(v_j + 1) <= 1/n_j <= 1/v_j
        inverse = _inverse_side_verdict(inverse_terms, window_model, 1.0, 1.0, 1.0,
                                        _SIGMA_WORDS)
    else:
        inverse = inconclusive(inverse_terms, "window values lack a matching growth model")

    sizes = np.abs(np.array(ang_list))
    with np.errstate(over="ignore", invalid="ignore"):
        dev_bounds = 0.5 * (wins + 1).astype(float) * sizes
    dev_bounds = np.where(dev_bounds < 2.0, dev_bounds, 2.0)
    deviation = _deviation_verdict(np.array(dev_terms), dev_bounds, sizes, window_model,
                                   matched, angle_model)
    return DirichletReport(tuple(win_list), tuple(ang_list), tuple(dev_terms),
                           inverse, deviation, tuple(inverse_terms.tolist()),
                           tuple(dev_bounds.tolist()))


def _deviation_verdict(terms: np.ndarray, bounds: np.ndarray,
                       sizes: np.ndarray, window_model: Optional[TailModel],
                       windows_matched: bool,
                       angle_model: Optional[TailModel]) -> SeriesVerdict:
    """``sizes`` are the angle sizes |theta_j|."""
    with np.errstate(invalid="ignore"):
        k = _first(terms > bounds + 1e-9)
    if k is not None:
        return inconclusive(terms, f"term {k + 1} escaped the chord bound")
    if window_model is None or angle_model is None:
        return inconclusive(terms, "deviation certification needs both declared models")
    if not windows_matched:
        return inconclusive(terms, "window values do not match their declared model")
    mismatch = prefix_mismatch(sizes, model_values(angle_model, sizes.size),
                               angle_model.relation,
                               "angle {i} exceeds its declared size {v}")
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    upper, why = _product_majorant(window_model, 2.0, 0.5, angle_model)
    derivation = upper and (
        f"|1 - D(n_j, theta_j)| <= (n_j + 1) |theta_j| / 2 with "
        f"n_j <= {_describe(window_model)} + 1 and "
        f"|theta_j| <= {_describe(angle_model)}")
    return certify(terms, upper, None, (derivation, None, why))


# ---------------------------------------------------------------------------
# gauge fixing
# ---------------------------------------------------------------------------


def gauge_fix(rho: Callable[[Element], complex], phi: TruncatedVector,
              group) -> TruncatedVector:
    """Reweight phi by the gauge psi(y) = rho(-y) phi(y).

    Multiplication by a unimodular function is unitary, and it intertwines
    the representation twisted by u with the one twisted by the coboundary
    perturbation of u up to the scalar rho(x): inner products transform as
    <lambda_{d rho . u}(x) psi, psi> = rho(x) <lambda_u(x) phi, phi>, so the
    distance-from-1 terms of the perturbed family are controlled by the
    original ones together with |1 - rho(x)|.
    """
    values = []
    for y, v in zip(phi.points, phi.values):
        weight = complex(rho(group.neg(group.element(y))))
        if abs(abs(weight) - 1.0) > 1e-9:
            raise ConstructionError(
                f"gauge value at {y} has modulus {abs(weight)}, expected 1")
        values.append(weight * v)
    return TruncatedVector(phi.points, tuple(values))
