"""Three-valued series verdicts from envelope certificates.

A numeric partial sum never proves anything by itself.  Every proved verdict
rests on an envelope: a finite sum of terms c * i^q * r^i carrying a relation
to the sequence it describes, "exact" (the sequence itself), "majorant"
(bounds it above) or "minorant" (bounds it below).  Envelopes are closed under
scaling, sums and products (relations combine, and a majorant never mixes
with a minorant), the reciprocal of a single term (which swaps majorant and
minorant) and the ceil step "+k".  ``certify`` turns an evaluated prefix and
an upper and a lower envelope into a verdict: ProvedConvergent when the
majorant has a closed-form tail, ProvedDivergent when the minorant is not
summable, Inconclusive otherwise, with the compensated partial sum of the
prefix in every case.

Tail models are declared one-term envelopes: power c * i^p, geometric
c * r^i, or an explicit finite prefix, which has no envelope and so never
certifies anything.  A model whose relation cannot support a claim yields
Inconclusive, never a wrong proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Union

PROVED_CONVERGENT = "ProvedConvergent"
PROVED_DIVERGENT = "ProvedDivergent"
INCONCLUSIVE = "Inconclusive"

EXACT = "exact"
MAJORANT = "majorant"
MINORANT = "minorant"

_RELATIONS = (EXACT, MAJORANT, MINORANT)


class InvalidInnerProductError(ValueError):
    """An alleged inner product has modulus beyond 1 + 1e-9."""


@dataclass(frozen=True)
class SeriesVerdict:
    verdict: str
    partial_sum: float
    terms_evaluated: int
    tail_bound: Optional[float] = None
    tail_derivation: Optional[str] = None
    witness: Optional[str] = None


def running_sums(values: Sequence[float]) -> list[float]:
    """Neumaier-compensated running partial sums, ascending index order.

    Once a partial sum overflows it stays infinite.
    """
    out = []
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if math.isinf(t):
            out.append(t)
            total = t
            comp = 0.0
            continue
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out.append(total + comp)
    return out


def neumaier_sum(values: Sequence[float]) -> float:
    """Compensated sum; accumulation error stays near one ulp of the result."""
    sums = running_sums(values)
    return sums[-1] if sums else 0.0


def power_tail(coeff: float, exponent: float, n: int) -> float:
    """Upper bound for sum_{i>n} coeff * i**exponent when exponent < -1.

    Integral comparison: the summand is decreasing, so the tail is at most
    coeff * n**(exponent+1) / (-exponent - 1).
    """
    if exponent >= -1:
        raise ValueError("power tail needs exponent < -1")
    if n < 1:
        raise ValueError("tail starts after at least one term")
    return coeff * float(n) ** (exponent + 1.0) / (-exponent - 1.0)


def geometric_tail(coeff: float, ratio: float, n: int) -> float:
    """sum_{i>n} coeff * ratio**i = coeff * ratio**(n+1) / (1 - ratio) for ratio < 1."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("geometric tail needs ratio in [0, 1)")
    return coeff * ratio ** (n + 1) / (1.0 - ratio)


def poly_geometric_tail(coeff: float, exponent: float, ratio: float, n: int) -> float:
    """Upper bound for sum_{i>n} coeff * i**exponent * ratio**i, exponent >= 0, ratio < 1.

    Successive term ratios (1 + 1/i)**exponent * ratio decrease in i; once
    they drop below 1 at some index n0 the tail telescopes geometrically,
    and the finitely many terms between n and n0 are added in closed form.
    """
    if exponent < 0:
        raise ValueError("use power_tail for decaying exponents")
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    if coeff == 0.0 or ratio == 0.0:
        return 0.0

    def term(i: int) -> float:
        return coeff * float(i) ** exponent * ratio ** i

    def step_ratio(i: int) -> float:
        return (1.0 + 1.0 / i) ** exponent * ratio

    n0 = max(n, 1)
    while step_ratio(n0) >= 1.0:
        n0 += 1
    head = sum(term(i) for i in range(n + 1, n0 + 1))
    r = step_ratio(n0)
    return head + term(n0 + 1) / (1.0 - r)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

Term = tuple[float, float, float]  # (c, q, r) stands for c * i**q * r**i

_FLIPPED = {EXACT: EXACT, MAJORANT: MINORANT, MINORANT: MAJORANT}


def _combined(a: str, b: str) -> Optional[str]:
    """Relation of a sum or product of two nonnegative sequences."""
    if a == b or b == EXACT:
        return a
    if a == EXACT:
        return b
    return None


@dataclass(frozen=True)
class Envelope:
    """sum of c * i^q * r^i over ``terms`` (all c, r >= 0), valid for i >= 1.

    ``relation`` says how the envelope relates to the sequence it describes.
    Operations that cannot keep a one-sided bound return None.
    """

    terms: tuple[Term, ...]
    relation: str = EXACT

    def upper(self) -> Optional[Envelope]:
        """This envelope as a majorant, or None if it only bounds from below."""
        return None if self.relation == MINORANT else Envelope(self.terms, MAJORANT)

    def lower(self) -> Optional[Envelope]:
        """This envelope as a minorant, or None if it only bounds from above."""
        return None if self.relation == MAJORANT else Envelope(self.terms, MINORANT)

    def scale(self, k: float) -> Envelope:
        return Envelope(tuple((k * c, q, r) for c, q, r in self.terms), self.relation)

    def add(self, other: Envelope) -> Optional[Envelope]:
        relation = _combined(self.relation, other.relation)
        if relation is None:
            return None
        return Envelope(self.terms + other.terms, relation)

    def plus(self, k: float) -> Envelope:
        """The ceil step: m_i <= v_i + 1 turns a majorant of v into one of m."""
        return Envelope(self.terms + ((float(k), 0.0, 1.0),), self.relation)

    def times(self, other: Envelope) -> Optional[Envelope]:
        relation = _combined(self.relation, other.relation)
        if relation is None:
            return None
        return Envelope(tuple((c1 * c2, q1 + q2, r1 * r2)
                              for c1, q1, r1 in self.terms
                              for c2, q2, r2 in other.terms), relation)

    def reciprocal(self, numerator: float = 1.0) -> Optional[Envelope]:
        """numerator / E for a single term with c, r > 0; bounds swap sides."""
        if len(self.terms) != 1:
            return None
        (c, q, r), = self.terms
        if not (c > 0.0 and r > 0.0):
            return None
        return Envelope(((numerator / c, -q, 1.0 / r),), _FLIPPED[self.relation])

    def collapse(self) -> Optional[Envelope]:
        """One-term majorant (sum c) * i^(max q) * (max r)^i of an upper envelope."""
        if self.relation == MINORANT:
            return None
        return Envelope(((sum(c for c, _, _ in self.terms),
                          max(q for _, q, _ in self.terms),
                          max(r for _, _, r in self.terms)),), MAJORANT)

    def value(self, i: int) -> float:
        return sum(c * float(i) ** q * r ** i for c, q, r in self.terms)

    @property
    def vanishes(self) -> bool:
        return all(c == 0.0 for c, _, _ in self.terms)

    def tail(self, n: int) -> Optional[float]:
        """Closed-form bound on sum_{i>n} E(i), or None when some term is not summable."""
        total = 0.0
        for c, q, r in self.terms:
            if c == 0.0:
                part = 0.0
            elif r < 1.0:
                part = poly_geometric_tail(c, q, r, n) if q > 0.0 else geometric_tail(c, r, n)
            elif r == 1.0 and q < -1.0:
                part = power_tail(c, q, n)
            else:
                return None
            total += part
        return total

    def diverges(self) -> bool:
        """Some term is positive and not summable, so neither is the sum."""
        return any(c > 0.0 and (r > 1.0 or (r == 1.0 and q >= -1.0))
                   for c, q, r in self.terms)

    def bounded(self) -> bool:
        return all(r < 1.0 or (r == 1.0 and q <= 0.0) for _, q, r in self.terms)

    def unbounded(self) -> bool:
        return any(c > 0.0 and (r > 1.0 or (r == 1.0 and q > 0.0))
                   for c, q, r in self.terms)


ZERO = Envelope(((0.0, 0.0, 1.0),), MAJORANT)


def certify(terms: Sequence[float], upper: Optional[Envelope],
            lower: Optional[Envelope],
            texts: tuple[Optional[str], Optional[str], Optional[str]]) -> SeriesVerdict:
    """Verdict for a nonnegative-term series from its prefix and two envelopes.

    ``upper`` must dominate every term and ``lower`` must be dominated by
    every term, possibly after capping it at a positive constant, which does
    not change whether it is summable.  ``texts`` holds the tail derivation,
    the divergence witness and the Inconclusive witness.
    """
    derivation, witness, undecided = texts
    partial = neumaier_sum(terms)
    n = len(terms)
    if upper is not None and upper.relation != MINORANT:
        tail = upper.tail(max(n, 1))
        if tail is not None:
            return SeriesVerdict(PROVED_CONVERGENT, partial, n, tail_bound=tail,
                                 tail_derivation=derivation)
    if lower is not None and lower.relation != MAJORANT and lower.diverges():
        return SeriesVerdict(PROVED_DIVERGENT, partial, n, witness=witness)
    return SeriesVerdict(INCONCLUSIVE, partial, n, witness=undecided)


def inconclusive(terms: Sequence[float], witness: str) -> SeriesVerdict:
    """An Inconclusive verdict for the prefix, with the reason it stays open."""
    return certify(terms, None, None, (None, None, witness))


# ---------------------------------------------------------------------------
# declared tail models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerModel:
    """value(i) = coeff * i**exponent for i >= 1."""

    coeff: float
    exponent: float
    relation: str = EXACT
    family: ClassVar[str] = "power"

    def __post_init__(self) -> None:
        if self.coeff < 0:
            raise ValueError("coeff must be nonnegative for nonnegative-term series")
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def value(self, i: int) -> float:
        try:
            return self.coeff * float(i) ** self.exponent
        except OverflowError:
            return math.inf

    @property
    def envelope(self) -> Envelope:
        return Envelope(((self.coeff, self.exponent, 1.0),), self.relation)


@dataclass(frozen=True)
class GeometricModel:
    """value(i) = coeff * ratio**i for i >= 1."""

    coeff: float
    ratio: float
    relation: str = EXACT
    family: ClassVar[str] = "geometric"

    def __post_init__(self) -> None:
        if self.coeff < 0 or self.ratio < 0:
            raise ValueError("coeff and ratio must be nonnegative")
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def value(self, i: int) -> float:
        try:
            return self.coeff * self.ratio ** i
        except OverflowError:
            return math.inf

    @property
    def envelope(self) -> Envelope:
        return Envelope(((self.coeff, 0.0, self.ratio),), self.relation)


@dataclass(frozen=True)
class ExplicitModel:
    """A finite prefix of values; makes no claim about the tail."""

    values: tuple[float, ...]
    relation: ClassVar[str] = EXACT
    family: ClassVar[str] = "explicit"
    envelope: ClassVar[Optional[Envelope]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    def value(self, i: int) -> float:
        return self.values[i - 1]


TailModel = Union[PowerModel, GeometricModel, ExplicitModel]


def model_values(model: TailModel, n: int) -> list[float]:
    """First n declared values (the full prefix for explicit models)."""
    if isinstance(model, ExplicitModel):
        return list(model.values[:n])
    return [model.value(i) for i in range(1, n + 1)]


def model_bounds(model: TailModel, n: int) -> list[Optional[float]]:
    """Declared value per index 1..n, None past an explicit prefix."""
    values: list[Optional[float]] = [*model_values(model, n)]
    return values + [None] * (n - len(values))


_TERM_TEXTS = {
    "power": ("integral comparison against {c}*i^{q}",
              "terms at least {c}*i^{q}, which is not summable"),
    "geometric": ("geometric tail of {c}*{r}^i",
                  "terms at least {cr} from index 1 on"),
}


def _nonnegative(terms: Sequence[float]) -> list[float]:
    terms = [float(t) for t in terms]
    for i, t in enumerate(terms, start=1):
        if t < -1e-12:
            raise ValueError(f"term {i} is negative: {t}")
    return [max(t, 0.0) for t in terms]


def _consistency_witness(terms: Sequence[float], model: TailModel) -> Optional[str]:
    relation = model.relation
    for i, (t, claimed) in enumerate(zip(terms, model_values(model, len(terms))), start=1):
        slack = 1e-9 + 1e-9 * abs(claimed)
        if relation != MINORANT and t > claimed + slack:
            return f"term {i} = {t} exceeds declared bound {claimed}"
        if relation != MAJORANT and t < claimed - slack:
            return f"term {i} = {t} falls below declared bound {claimed}"
    return None


def _model_certificate(terms: list[float], model: TailModel) -> SeriesVerdict:
    env = model.envelope
    if env is None:
        return inconclusive(terms, "explicit prefix carries no tail claims")
    upper, lower = env.upper(), env.lower()
    c, q, r = env.terms[0]
    derivation, witness = [t.format(c=c, q=q, r=r, cr=c * r)
                           for t in _TERM_TEXTS[model.family]]
    if upper is not None and upper.vanishes:
        derivation = "all terms vanish under the declared model"
    return certify(terms, upper, lower,
                   (derivation, witness, "declared model cannot certify either direction"))


def diagnose_terms(terms: Sequence[float], model: Optional[TailModel]) -> SeriesVerdict:
    """Verdict for a nonnegative-term series from an evaluated prefix and a model."""
    terms = _nonnegative(terms)
    if model is None:
        return inconclusive(terms, "no tail model declared")
    mismatch = _consistency_witness(terms, model)
    if mismatch is not None:
        return inconclusive(terms, mismatch)
    return _model_certificate(terms, model)


def certify_model(values: Sequence[float], model: TailModel) -> SeriesVerdict:
    """Verdict for the series whose terms are the model's own declared values."""
    return _model_certificate(_nonnegative(values), model)


def diagnose_model_series(model: TailModel, n_max: int) -> SeriesVerdict:
    """Verdict for the series whose terms are exactly the model values."""
    return certify_model(model_values(model, n_max), model)


def series_table(terms: Sequence[float], model: Optional[TailModel]) -> list[tuple[int, float, float, Optional[float]]]:
    """Rows (index, term, partial_sum, declared bound or None) for reporting."""
    sums = running_sums([float(t) for t in terms])
    bounds = model_bounds(model, len(sums)) if model is not None else [None] * len(sums)
    return [(i, float(t), s, b)
            for i, (t, s, b) in enumerate(zip(terms, sums, bounds), start=1)]
