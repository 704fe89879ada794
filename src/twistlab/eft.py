"""Error-free transforms on float64 arrays, and a fused multiply-add built from them.

Each transform returns the rounding error of one floating-point operation as
a second float, exactly: Veltkamp's split and Dekker's product error ("A
floating-point technique for extending the available precision", Numer.
Math. 18, 1971), Knuth's two-sum and the fast two-sum for ordered operands.
``fma`` rounds a * b + c once, to nearest, as an FMA instruction does, by
rounding to odd (Boldo and Melquiond, "Emulation of FMA and correctly rounded
sums: proved algorithms using rounding to odd", IEEE Trans. Computers 57,
2008).  Entries the transforms cannot carry exactly, huge operands or
subnormal partial products, are rounded from ``fractions`` arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

# Veltkamp's constant 2^27 + 1.
_VELTKAMP = 134217729.0
# a * (2^27 + 1) overflows above about 2^997; a product or sum stays finite below 2^1021.
_SPLIT_MAX = 2.0 ** 996
_SUM_MAX = 2.0 ** 1021
_TINY = np.finfo(float).tiny


def split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo into halves of at most 26 significant bits.

    Exact wherever a * (2^27 + 1) does not overflow.  With the halves of two
    factors, ``product_error`` is Dekker's exact product.
    """
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


def product_error(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray,
                  p: np.ndarray) -> np.ndarray:
    """a * b - p for p = fl(a * b), from the ``split`` halves of a and b;
    exact wherever no partial product underflows."""
    return ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def fast_two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b as hi + lo exactly, for |a| >= |b| or a = 0."""
    hi = a + b
    return hi, b - (hi - a)


def two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b as hi + lo exactly (Knuth)."""
    hi = a + b
    bb = hi - a
    return hi, (a - (hi - bb)) + (b - bb)


def _odd_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b rounded to odd: the exact sum, or else the neighbouring float of
    the two around it whose last significand bit is 1."""
    s, e = two_sum(a, b)
    even = (s.view(np.int64) & 1) == 0
    return np.where((e != 0) & even, np.nextafter(s, np.copysign(np.inf, e)), s)


def _exact_fma(a: float, b: float, c: float) -> float:
    from fractions import Fraction  # only here: the import costs every process start

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def fma(a, b, c) -> np.ndarray:
    """a * b + c rounded once to nearest even, elementwise over broadcast arrays.

    With a * b = p + e exactly (Dekker) and c + p = t + f exactly (Knuth), the
    result is t + (e + f rounded to odd), rounded to nearest.  Where a or b is
    zero or not finite, the product is exact and p + c rounds once; where only
    c is not finite, the result is c.  An entry with |a| or |b| above 2^996,
    a product or addend above 2^1021, or a nonzero partial product of the
    split halves below the normal range is rounded from ``fractions``.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    with np.errstate(all="ignore"):
        (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
        p = a * b
        t, f = two_sum(c, p)
        out = t + _odd_sum(product_error(a_hi, a_lo, b_hi, b_lo, p), f)
        factors = np.isfinite(a) & np.isfinite(b)
        exact = ~factors | (a == 0) | (b == 0)
        out = np.where(exact, p + c, out)
        out = np.where(factors & ~np.isfinite(c), c, out)
        slow = ~exact & np.isfinite(c) & (
            (np.abs(a) > _SPLIT_MAX) | (np.abs(b) > _SPLIT_MAX)
            | (np.abs(p) > _SUM_MAX) | (np.abs(c) > _SUM_MAX)
            | np.logical_or.reduce([(x != 0) & (y != 0) & (np.abs(x * y) < _TINY)
                                    for x in (a_hi, a_lo) for y in (b_hi, b_lo)]))
    if slow.any():
        out[slow] = [_exact_fma(*v) for v in zip(a[slow].tolist(), b[slow].tolist(),
                                                 c[slow].tolist())]
    return out
