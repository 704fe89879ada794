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

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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

ScalarSource = Union[Sequence[complex], Callable[[int], complex]]


class SelectionError(RuntimeError):
    """Greedy subsequence selection ran out of candidates at some step."""

    def __init__(self, message: str, step: Optional[int] = None,
                 best_index: Optional[int] = None,
                 best_sup: Optional[float] = None) -> None:
        super().__init__(message)
        self.step = step
        self.best_index = best_index
        self.best_sup = best_sup


def _values(source: ScalarSource, n_max: int) -> list[complex]:
    if n_max < 1:
        raise ValueError("need at least one term")
    if callable(source):
        return [source(i) for i in range(1, n_max + 1)]
    return list(source)[:n_max]


# ---------------------------------------------------------------------------
# scalar products and inner-product series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductDiagnosis:
    """Verdict for prod z_i together with the partial product over the prefix.

    When the defect series sum |1 - z_i| is proved convergent with tail bound
    t, every tail product sits within ``product_tail = e^t - 1`` of 1, so the
    full infinite product exists and differs from the reported prefix product
    by at most that factor.
    """

    series: SeriesVerdict
    partial_product: complex
    product_tail: Optional[float]


def product_diagnose(values: ScalarSource, model: Optional[TailModel] = None,
                     n_max: int = DEFAULT_SCALAR_HORIZON,
                     tol: float = 1e-9) -> ProductDiagnosis:
    """Diagnose convergence of an infinite product of unit-modulus scalars."""
    zs = _values(values, n_max)
    terms = []
    prod = 1.0 + 0.0j
    for i, raw in enumerate(zs, start=1):
        z = complex(raw)
        if abs(abs(z) - 1.0) > tol:
            raise ConstructionError(
                f"factor {i} has modulus {abs(z)}, expected a unit scalar")
        terms.append(abs(1.0 - z))
        prod *= z
    verdict = diagnose_terms(terms, model)
    tail = None
    if verdict.verdict == PROVED_CONVERGENT and verdict.tail_bound is not None:
        tail = math.expm1(verdict.tail_bound)
    return ProductDiagnosis(verdict, prod, tail)


def _inner_products(values: ScalarSource, n_max: int, tol: float) -> list[complex]:
    """The values as complex numbers, refusing any modulus beyond 1 + tol,
    since no pair of unit vectors produces such an inner product."""
    vals = [complex(a) for a in _values(values, n_max)]
    for i, a in enumerate(vals, start=1):
        if abs(a) > 1.0 + tol:
            raise InvalidInnerProductError(f"inner product {i} has modulus {abs(a)} > 1")
    return vals


def inner_product_series(values: ScalarSource, model: Optional[TailModel] = None,
                         n_max: int = DEFAULT_SCALAR_HORIZON,
                         tol: float = 1e-9) -> SeriesVerdict:
    """Series sum |1 - a_i| for inner products a_i of unit vectors."""
    return diagnose_terms([abs(1.0 - a) for a in _inner_products(values, n_max, tol)], model)


def modulus_deficit_series(values: ScalarSource, model: Optional[TailModel] = None,
                           n_max: int = DEFAULT_SCALAR_HORIZON,
                           tol: float = 1e-9) -> SeriesVerdict:
    """Series sum (1 - |a_i|), the phase-insensitive variant."""
    return diagnose_terms([max(0.0, 1.0 - abs(a))
                           for a in _inner_products(values, n_max, tol)], model)


# ---------------------------------------------------------------------------
# exact per-box quantities
# ---------------------------------------------------------------------------


def box_defect(box: FolnerBox, x: Element) -> float:
    """Translation defect 1 - #(F cap (x+F)) / #F; int / int division rounds once."""
    card = box.cardinality()
    return (card - box.overlap(x)) / card


def box_defect_terms(sides: Sequence[int], x: Element) -> list[float]:
    rank = len(x)
    return [box_defect(FolnerBox(rank, int(m)), x) for m in sides]


def _phase_grid(coeffs: np.ndarray, box: FolnerBox) -> np.ndarray:
    """N-dimensional array of y . coeffs over y in the box, built by broadcasting."""
    total: Optional[np.ndarray] = None
    for j in range(box.rank):
        start = box.offset[j]
        axis = coeffs[j] * np.arange(start, start + box.side + 1, dtype=float)
        total = axis if total is None else total[..., None] + axis
    assert total is not None
    return total


def box_twist_mean(matrix, box: FolnerBox, x: Element,
                   grid_cap: int = DEFAULT_GRID_CAP) -> float:
    """(1/#F) sum_{y in F} |1 - e^{-i y.(A x)}|, evaluated on the full grid.

    The chord length |1 - e^{i t}| equals 2 |sin(t/2)|, so the mean is a dense
    sine evaluation; ``grid_cap`` bounds the grid size to keep memory sane.
    """
    A = np.asarray(matrix, dtype=float)
    n = box.rank
    if A.shape != (n, n):
        raise GroupMismatchError(
            f"matrix shape {A.shape} does not match box rank {n}")
    if len(x) != n:
        raise GroupMismatchError(
            f"element has {len(x)} coordinates, box rank is {n}")
    if box.cardinality() > grid_cap:
        raise ConstructionError(
            f"box holds {box.cardinality()} points, over the grid cap "
            f"{grid_cap}; lower the horizon or raise grid_cap")
    coeffs = A @ np.asarray(x, dtype=float)
    grid = _phase_grid(coeffs, box)
    return float(np.mean(2.0 * np.abs(np.sin(0.5 * grid))))


def box_sup_distance(u: Cocycle, box: FolnerBox, elements: Sequence[Element],
                     grid_cap: int = DEFAULT_GRID_CAP) -> float:
    """sup over x in elements, y in the box, of |1 - u(-y, x)|."""
    flat = flatten_matrix_cocycle(u)
    best = 0.0
    if flat is not None:
        if box.cardinality() > grid_cap:
            raise ConstructionError(
                f"box holds {box.cardinality()} points, over the grid cap {grid_cap}")
        for x in elements:
            coeffs = flat @ np.asarray(x, dtype=float)
            grid = _phase_grid(coeffs, box)
            best = max(best, float(np.max(2.0 * np.abs(np.sin(0.5 * grid)))))
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


# every realized side must sit in the ceil window [v, v + 1] of its declared value
_CEIL_WINDOW = ("side {i} = {a} exceeds the declared ceiling {v} + 1",
                "side {i} = {a} falls below the declared value {v}", 1.0)


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


def _translation_verdict(terms: Sequence[float], bounds: Sequence[float],
                         sides: Sequence[int], model: Optional[TailModel],
                         values: Optional[Sequence[float]], x: Element) -> SeriesVerdict:
    if all(c == 0 for c in x):
        return certify(terms, ZERO, None, ("the identity never leaves the box", None, None))
    linf = sup_norm(x)
    for m, d, hi in zip(sides, terms, bounds):
        if d > hi + 1e-9 or d < min(1.0, linf / (m + 1)) - 1e-9:
            return inconclusive(terms, f"defect at side {m} escaped its proved envelope")
    if model is None:
        return inconclusive(terms, "no growth model declared for the box sides")
    mismatch = prefix_mismatch(sides, values, model.relation, *_CEIL_WINDOW)
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    # |x|_inf / (v_i + 2) <= defect_i <= |x|_1 / v_i
    return _inverse_side_verdict(terms, model, l1_norm(x), linf, 2.0, _TRANSLATION_WORDS)


def _twist_verdict(terms: Sequence[float], bounds: Sequence[float],
                   sides: Sequence[int], side_values: Optional[Sequence[float]],
                   norms: Sequence[float], side_model: Optional[TailModel],
                   matrix_model: Optional[TailModel], x: Element) -> SeriesVerdict:
    rank = len(x)
    l1 = l1_norm(x)
    if l1 == 0:
        return certify(terms, ZERO, None, ("x = 0 twists nothing", None, None))
    for i, (t, b) in enumerate(zip(terms, bounds), start=1):
        if t > b + 1e-9:
            return inconclusive(terms, f"term {i} escaped its proved envelope")
    if side_model is None or matrix_model is None:
        return inconclusive(terms, "twist certification needs both declared models")
    mismatch = prefix_mismatch(sides, side_values, side_model.relation, *_CEIL_WINDOW)
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
    trans_terms = []
    twist_terms = []
    for i in range(1, n_max + 1):
        m = int(sides(i))
        if m < 0:
            raise ConstructionError(f"side {i} is negative")
        box = FolnerBox(rank, m)
        A = canonicalize_phases(matrices(i))
        side_list.append(m)
        norm_list.append(float(np.max(np.abs(A))) if A.size else 0.0)
        trans_terms.append(box_defect(box, x))
        twist_terms.append(box_twist_mean(A, box, x, grid_cap=grid_cap))
    side_values = model_values(side_model, n_max) if side_model is not None else None
    factor = 0.5 * rank * l1_norm(x)
    trans_bounds = _translation_bounds(side_list, x)
    twist_bounds = [min(2.0, factor * m * a) for m, a in zip(side_list, norm_list)]
    translation = _translation_verdict(trans_terms, trans_bounds, side_list,
                                       side_model, side_values, x)
    twist = _twist_verdict(twist_terms, twist_bounds, side_list, side_values, norm_list,
                           side_model, matrix_model, x)
    return TwistedRepSeries(x, tuple(side_list), tuple(trans_terms),
                            tuple(twist_terms), translation, twist,
                            tuple(trans_bounds), tuple(twist_bounds))


def _translation_bounds(sides: Sequence[float], x: Element) -> list[float]:
    l1 = l1_norm(x)
    return [min(1.0, l1 / (m + 1)) for m in sides]


def translation_series(sides: Sequence[int], side_model: Optional[TailModel],
                       x: Element) -> tuple[list[float], SeriesVerdict]:
    """Exact defect terms for zero-offset boxes together with their verdict.

    Convenience wrapper for callers that already hold a realized side list
    (the box criteria below consume models directly instead); an explicit
    side model keeps only as many sides as it declares.
    """
    sides = list(sides)[:horizon(len(sides), side_model)]
    terms = box_defect_terms(sides, x)
    values = model_values(side_model, len(sides)) if side_model is not None else None
    return terms, _translation_verdict(terms, _translation_bounds(sides, x), sides,
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


@dataclass(frozen=True)
class CriteriaAt:
    """The translation part of the box criterion at one element x.

    ``translation`` is None when some declared side overflows to infinity;
    such a side contributes a zero defect and zero bound, and an infinite
    twist majorant unless its matrix norm vanishes.
    """

    x: Element
    twist_factor: float
    translation_terms: tuple[float, ...]
    translation_bounds: tuple[float, ...]
    twist_majorant: tuple[float, ...]
    translation: Optional[SeriesVerdict]


@dataclass(frozen=True)
class BoxCriteria:
    """The four clauses plus the term vectors they were certified from.

    ``sides`` are the realized sides ceil(v_i) of the declared side values
    ``side_values`` (inf once a value overflows), ``norms`` the declared
    matrix norms a_i, ``sigma_terms`` the reciprocals 1/m_i and
    ``weighted_terms`` the products m_i a_i.
    """

    side_model: TailModel
    matrix_model: TailModel
    clauses: tuple[ClauseReport, ...]
    side_values: tuple[float, ...] = ()
    sides: tuple[float, ...] = ()
    norms: tuple[float, ...] = ()
    sigma_terms: tuple[float, ...] = ()
    weighted_terms: tuple[float, ...] = ()

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
        rank = len(x)
        factor = 0.5 * rank * l1_norm(x)
        terms = [0.0 if math.isinf(m) else box_defect(FolnerBox(rank, int(m)), x)
                 for m in self.sides]
        majorant = [0.0 if a == 0.0 else math.inf if math.isinf(m) else factor * m * a
                    for m, a in zip(self.sides, self.norms)]
        bounds = _translation_bounds(self.sides, x)
        translation = None
        if not any(math.isinf(m) for m in self.sides):
            translation = _translation_verdict(
                terms, bounds, [int(m) for m in self.sides], self.side_model,
                self.side_values, x)
        return CriteriaAt(x, factor, tuple(terms), tuple(bounds), tuple(majorant),
                          translation)


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
    side_values = model_values(side_model, n_max)
    sides = [v if math.isinf(v) else float(math.ceil(v)) for v in side_values]
    norms = model_values(matrix_model, n_max)
    sigma_terms = [1.0 / m if m >= 1 else math.inf for m in sides]
    weighted_terms = [0.0 if a == 0.0 else m * a for m, a in zip(sides, norms)]

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
                       tuple(side_values), tuple(sides), tuple(norms),
                       tuple(sigma_terms), tuple(weighted_terms))


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
    if t == 0.0:
        return 1.0
    return math.sin(0.5 * m * t) / (m * math.sin(0.5 * t))


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

    inverse_terms = [1.0 / w for w in win_list]
    matched = window_model is not None and prefix_mismatch(
        win_list, model_values(window_model, n_max), window_model.relation,
        *_CEIL_WINDOW) is None
    if matched:
        # 1/(v_j + 1) <= 1/n_j <= 1/v_j
        inverse = _inverse_side_verdict(inverse_terms, window_model, 1.0, 1.0, 1.0,
                                        _SIGMA_WORDS)
    else:
        inverse = inconclusive(inverse_terms, "window values lack a matching growth model")

    dev_bounds = [min(2.0, 0.5 * (w + 1) * abs(t)) for w, t in zip(win_list, ang_list)]
    deviation = _deviation_verdict(dev_terms, dev_bounds, ang_list, window_model,
                                   matched, angle_model)
    return DirichletReport(tuple(win_list), tuple(ang_list), tuple(dev_terms),
                           inverse, deviation, tuple(inverse_terms), tuple(dev_bounds))


def _deviation_verdict(terms: Sequence[float], bounds: Sequence[float],
                       angles: Sequence[float], window_model: Optional[TailModel],
                       windows_matched: bool,
                       angle_model: Optional[TailModel]) -> SeriesVerdict:
    for j, (t, b) in enumerate(zip(terms, bounds), start=1):
        if t > b + 1e-9:
            return inconclusive(terms, f"term {j} escaped the chord bound")
    if window_model is None or angle_model is None:
        return inconclusive(terms, "deviation certification needs both declared models")
    if not windows_matched:
        return inconclusive(terms, "window values do not match their declared model")
    mismatch = prefix_mismatch([abs(t) for t in angles],
                               model_values(angle_model, len(angles)), angle_model.relation,
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
