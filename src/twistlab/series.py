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

import errno
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

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


# Values per block of the Neumaier loop: the temporaries stay at a few 256 KB arrays.
_SUM_BLOCK = 1 << 15


def _neumaier(values: Sequence[float], out: Optional[np.ndarray] = None) -> float:
    """The Neumaier loop over ``values``: its final sum, and its running sums
    written into ``out`` when one is given.

    Bit for bit the sequential loop

        t = total + v
        comp += (total - t) + v  if |total| >= |v|  else  (v - t) + total
        total = t;  out = total + comp

    whose output, from the first infinite total on, is the total itself (it
    stays infinite, or turns NaN).  It is bit-exact because every operation
    is the loop's own, in the loop's order: ``np.add.accumulate`` adds
    strictly left to right, so the running totals and the running
    compensation are the same sequential IEEE additions, and the second
    branch of the correction is taken exactly where |total| >= |v| fails
    (NaN included).  Each accumulation starts from the carried value (0.0
    at first) rather than from the first element, so 0.0 + -0.0 rounds to
    0.0 as in the loop.  Blocks of 2^15 values carry the total and the
    compensation across.  Without ``out`` only the carried pair is kept, and
    the sum is the loop's last output: total + comp, or the total once it
    is not finite (0.0 for no values).
    """
    vals = np.asarray(values, dtype=float).ravel()
    total = comp = 0.0
    # The carried value, then the block: accumulated in place.
    acc = np.empty(min(vals.size, _SUM_BLOCK) + 1)
    corr = np.empty_like(acc)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, vals.size, _SUM_BLOCK):
            v = vals[start:start + _SUM_BLOCK]
            a, c = acc[:v.size + 1], corr[:v.size + 1]
            a[0], a[1:] = total, v
            np.add.accumulate(a, out=a)
            prev, t = a[:-1], a[1:]
            total = float(a[-1])
            if not math.isfinite(prev[0]):
                if out is not None:
                    out[start:start + v.size] = t
                continue
            c[0] = comp
            step = np.add(np.subtract(prev, t, out=c[1:]), v, out=c[1:])
            swap = ~(np.abs(prev) >= np.abs(v))
            if swap.any():
                step[swap] = (v[swap] - t[swap]) + prev[swap]
            np.add.accumulate(c, out=c)
            comp = float(c[-1])
            if out is not None:
                seg = out[start:start + v.size]
                np.add(t, c[1:], out=seg)
                overflow = np.flatnonzero(np.isinf(t))
                if overflow.size:
                    seg[overflow[0]:] = t[overflow[0]:]
    return total + comp if math.isfinite(total) else total


def running_sums(values: Sequence[float]) -> np.ndarray:
    """Neumaier-compensated running partial sums, ascending index order."""
    vals = np.asarray(values, dtype=float).ravel()
    out = np.empty(vals.size)
    _neumaier(vals, out)
    return out


def neumaier_sum(values: Sequence[float]) -> float:
    """Compensated sum, ``running_sums(values)[-1]`` bit for bit (0.0 for no
    values) without the running array; accumulation error stays near one
    ulp of the result."""
    return _neumaier(values)


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
    """sum_{i>n} coeff * ratio**i = coeff * ratio**(n+1) / (1 - ratio) for ratio < 1, n >= 0."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("geometric tail needs ratio in [0, 1)")
    if n < 0:
        raise ValueError("tail starts after at least zero terms")
    return coeff * ratio ** (n + 1) / (1.0 - ratio)


def pow_overflow() -> OverflowError:
    """The error Python's float ``**`` raises when a power of finite operands overflows."""
    return OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))


def locate(exc: Exception, what: str, index: int) -> Exception:
    """``exc`` marked with the term it failed at: its name and 1-based index.

    The type and the text stay as they are (they are Python's own for a
    failed power or sine); the mark, ``exc.located``, lets a caller that
    knows where the term came from name it.
    """
    exc.located = (what, index)
    return exc


# Indices in the first block of poly_geometric_tail's head walk; each later
# block doubles, up to _HEAD_BLOCK_MAX (a few 512 KB temporaries).
_HEAD_BLOCK = 16
_HEAD_BLOCK_MAX = 1 << 16


def poly_geometric_tail(coeff: float, exponent: float, ratio: float, n: int) -> float:
    """Upper bound for sum_{i>n} coeff * i**exponent * ratio**i, exponent >= 0, ratio < 1.

    Successive term ratios (1 + 1/i)**exponent * ratio decrease in i; once
    they drop below 1 at some index n0 the tail telescopes geometrically.
    The head between n and n0 is walked in blocks of indices, with the bits
    of the per-index walk

        i = max(n, 1);  head = 0 if n > 0 else coeff * ratio
        while (step := (1.0 + 1.0 / i) ** exponent * ratio) >= 1.0:
            i += 1;  head += coeff * float(i) ** exponent * ratio ** i
        return head + coeff * float(i + 1) ** exponent * ratio ** (i + 1) / (1.0 - step)

    Each block computes its steps and terms with ``np.float_power``, which
    calls libm's pow as Python's ``**`` does, takes the first step that is
    not >= 1 (NaN ends the walk, as it ended the loop), and adds the terms
    before it with ``np.add.accumulate``, which adds strictly left to right,
    so the bound has the same bits on every Python (builtin ``sum``
    compensates float additions from 3.12 on).  A power that overflows
    anywhere the loop would have evaluated it raises the loop's
    OverflowError, located (``locate``) at the first term whose power or
    step overflows.  Takes n >= 0.  An infinite exponent, whose terms are
    infinite and whose steps never drop below 1, raises ValueError unless
    the coefficient or the ratio is 0.
    """
    if exponent < 0:
        raise ValueError("use power_tail for decaying exponents")
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    if n < 0:
        raise ValueError("tail starts after at least zero terms")
    if coeff == 0.0 or ratio == 0.0:
        return 0.0
    if math.isinf(exponent):
        raise ValueError("poly-geometric tail needs a finite exponent")
    i = max(n, 1)
    head = 0.0 if n > 0 else coeff * ratio  # the term at i = 1; 0 + x is 0.0 + x
    size = _HEAD_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            at = np.arange(i, i + size, dtype=float)
            step_powers = np.float_power(1.0 + 1.0 / at, exponent)
            steps = step_powers * ratio
            nxt = at + 1.0  # the terms are those at i + 1, i + 2, ...
            term_powers = np.float_power(nxt, exponent)
            terms = coeff * term_powers * np.float_power(ratio, nxt)
            stop = np.flatnonzero(~(steps >= 1.0))
            k = int(stop[0]) if stop.size else size
            seen = slice(0, k + 1)  # the loop's last pass also reads the term at k
            over = np.flatnonzero(np.isinf(step_powers[seen]) | np.isinf(term_powers[seen]))
            if over.size:
                raise locate(pow_overflow(), "tail term", i + int(over[0]) + 1)
            head = float(np.add.accumulate(np.concatenate(([head], terms[:k])))[-1])
            if k < size:
                return head + float(terms[k]) / (1.0 - float(steps[k]))
            i += size
            size = min(2 * size, _HEAD_BLOCK_MAX)


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
        return Envelope(((math.fsum(c for c, _, _ in self.terms),
                          max(q for _, q, _ in self.terms),
                          max(r for _, _, r in self.terms)),), MAJORANT)

    def value(self, i: int) -> float:
        return math.fsum(c * float(i) ** q * r ** i for c, q, r in self.terms)

    @property
    def vanishes(self) -> bool:
        return all(c == 0.0 for c, _, _ in self.terms)

    def tail(self, n: int) -> Optional[float]:
        """Closed-form bound on sum_{i>n} E(i), or None when some term is not
        summable; a term with r > 0 and q = +inf is infinite at every i >= 2."""
        total = 0.0
        for c, q, r in self.terms:
            if c == 0.0:
                part = 0.0
            elif q == math.inf and r > 0.0:
                return None
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
    the divergence witness and the Inconclusive witness.  A NaN term, or a
    tail bound that is not finite, proves nothing.
    """
    derivation, witness, undecided = texts
    partial = neumaier_sum(terms)
    n = len(terms)
    if math.isnan(partial):  # a NaN term: no envelope bounds it or is bounded by it
        return SeriesVerdict(INCONCLUSIVE, partial, n, witness=undecided)
    if upper is not None and upper.relation != MINORANT:
        tail = upper.tail(max(n, 1))
        if tail is not None and math.isfinite(tail):
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


def horizon(n: int, *models: Optional[TailModel]) -> int:
    """The horizon n, cut to the shortest explicit prefix among the models."""
    return min([n] + [len(m.values) for m in models if isinstance(m, ExplicitModel)])


def model_powers(model: Union[PowerModel, GeometricModel],
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers float(i) ** q (power) or r ** i (geometric) for i = 1..n,
    and a mask of those Python's ``**`` refuses with OverflowError.

    ``np.float_power`` calls libm's pow, as Python's float ``**`` does, so
    the powers have Python's bits; ``np.power`` runs numpy's own SIMD kernel
    on some CPUs and does not.  A power overflows where it is infinite and
    both operands are finite: Python returns an infinite exponent's or
    base's power without raising.
    """
    i = np.arange(1, n + 1, dtype=float)
    with np.errstate(over="ignore"):
        if isinstance(model, PowerModel):
            powers, operand = np.float_power(i, model.exponent), model.exponent
        else:
            powers, operand = np.float_power(model.ratio, i), model.ratio
    return powers, np.isinf(powers) & math.isfinite(operand)


def model_values(model: TailModel, n: int) -> np.ndarray:
    """First n declared values (at most the prefix for explicit models).

    The values are Python's ``c * float(i) ** q`` and ``c * r ** i``, as
    ``value`` computes them, from ``model_powers``; where the power
    overflows, ``value`` returns inf.
    """
    if isinstance(model, ExplicitModel):
        return np.array(model.values[:n], dtype=float)
    powers, overflow = model_powers(model, n)
    with np.errstate(over="ignore", invalid="ignore"):
        values = model.coeff * powers
    values[overflow] = math.inf
    return values


def model_bounds(model: TailModel, n: int) -> list[Optional[float]]:
    """Declared value per index 1..n, None past an explicit prefix."""
    values: list[Optional[float]] = model_values(model, n).tolist()
    return values + [None] * (n - len(values))


_TERM_TEXTS = {
    "power": ("integral comparison against {c}*i^{q}",
              "terms at least {c}*i^{q}, which is not summable"),
    "geometric": ("geometric tail of {c}*{r}^i",
                  "terms at least {cr} from index 1 on"),
}


def _nonnegative(terms: Sequence[float]) -> np.ndarray:
    """The terms as floats, refusing any below -1e-12 and lifting the rest to 0.

    Negative zeros and NaNs pass unchanged, as ``max(t, 0.0)`` leaves them.
    """
    terms = np.array(terms, dtype=float)
    negative = np.flatnonzero(terms < -1e-12)
    if negative.size:
        i = negative[0]
        raise ValueError(f"term {i + 1} is negative: {float(terms[i])}")
    return np.where(terms < 0.0, 0.0, terms)


def _shown(value):
    """A sequence element as the Python number a witness prints."""
    return value.item() if isinstance(value, np.generic) else value


def prefix_mismatch(realized: Sequence[float], declared: Sequence[float],
                    relation: str, above: str, below: Optional[str] = None,
                    width: float = 0.0, integral: bool = False) -> Optional[str]:
    """The first realized a outside [v, v + width] on a side the relation vouches for.

    Both sides carry the slack 1e-9 + 1e-9 |v|, and the comparisons run in
    float64.  The texts are formatted with the index i, a and the declared
    value v as the inputs hold them (numpy elements as Python numbers);
    ``integral`` prints a as an integer, for sides held as floats.
    """
    n = min(len(realized), len(declared))
    a = np.asarray(realized, dtype=float)[:n]
    v = np.asarray(declared, dtype=float)[:n]
    slack = 1e-9 + 1e-9 * np.abs(v)
    low = np.zeros(n, dtype=bool)
    high = np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        if below is not None and relation != MAJORANT:
            low = a < v - slack
        if relation != MINORANT:
            high = a > (v + width) + slack
    hits = np.flatnonzero(low | high)
    if not hits.size:
        return None
    k = hits[0]
    text = below if low[k] else above
    a = int(realized[k]) if integral else _shown(realized[k])
    return text.format(i=k + 1, a=a, v=_shown(declared[k]))


def _model_certificate(terms: np.ndarray, model: TailModel) -> SeriesVerdict:
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


def diagnose_terms(terms: Sequence[float], model: Optional[TailModel],
                   declared: Optional[Sequence[float]] = None) -> SeriesVerdict:
    """Verdict for a nonnegative-term series from an evaluated prefix and a model.

    ``declared`` holds ``model_values(model, len(terms))`` when the caller
    has already read them.
    """
    terms = _nonnegative(terms)
    if model is None:
        return inconclusive(terms, "no tail model declared")
    if declared is None:
        declared = model_values(model, len(terms))
    mismatch = prefix_mismatch(terms, declared, model.relation,
                               "term {i} = {a} exceeds declared bound {v}",
                               "term {i} = {a} falls below declared bound {v}")
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
    sums = running_sums(terms).tolist()
    bounds = model_bounds(model, len(sums)) if model is not None else [None] * len(sums)
    return [(i, float(t), s, b)
            for i, (t, s, b) in enumerate(zip(terms, sums, bounds), start=1)]
