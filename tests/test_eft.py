"""Error-free transforms and the emulated FMA against exact rational arithmetic."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from twistlab import eft

SRC = Path(__file__).resolve().parents[1] / "src" / "twistlab"
N = 10_000


def exact_fma(a, b, c):
    """a * b + c rounded once to nearest even, from Fraction; +-inf past the largest double."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def fma_mismatches(a, b, c):
    got = eft.fma(a, b, c)
    want = [exact_fma(*v) for v in zip(a.tolist(), b.tolist(), c.tolist())]
    return [(x, y, z) for x, y, z, g, w in zip(a.tolist(), b.tolist(), c.tolist(),
                                                 got.tolist(), want) if g != w]


def scaled(rng, lo, hi, size=N):
    """Random doubles of either sign with binary exponents drawn from [lo, hi)."""
    significands = rng.uniform(1.0, 2.0, size) * rng.choice([-1.0, 1.0], size)
    return np.ldexp(significands, rng.integers(lo, hi, size))


def test_fma_rounds_random_operands_once():
    rng = np.random.default_rng(0)
    a, b = scaled(rng, -40, 40), scaled(rng, -40, 40)
    assert fma_mismatches(a, b, scaled(rng, -90, 90)) == []
    # unit phases, as the monomial relation check feeds them
    t = rng.uniform(-math.pi, math.pi, (4, N))
    assert fma_mismatches(np.cos(t[0]), np.cos(t[1]), -(np.sin(t[2]) * np.sin(t[3]))) == []


def test_fma_keeps_the_product_error_when_c_cancels_the_product():
    rng = np.random.default_rng(1)
    a, b = scaled(rng, -40, 40), scaled(rng, -40, 40)
    with np.errstate(under="ignore"):
        got = eft.fma(a, b, -(a * b))
    assert fma_mismatches(a, b, -(a * b)) == []
    # the result is the exact rounding error of a * b, zero only where a * b is exact
    assert np.count_nonzero(got) > N // 2


def test_fma_rounds_once_where_two_roundings_tie():
    """a = 1 + i 2^-52 and b = 2^-53 - (2i - 1) 2^-106 give a * b just above
    2^-53, which rounds down to it; 1 + 2^-53 is then a tie that rounds to
    even, 1, but 1 + a * b lies past it.  Rounding e + f to odd keeps that."""
    rng = np.random.default_rng(4)
    i = rng.integers(1, 1 << 20, N).astype(float)
    scale = np.exp2(rng.integers(-200, 200, N).astype(float)) * rng.choice([-1.0, 1.0], N)
    a = (1.0 + i * 2.0 ** -52) * scale
    b = 2.0 ** -53 - (2.0 * i - 1.0) * 2.0 ** -106
    assert fma_mismatches(a, b, scale) == []
    assert np.array_equal(a * b + scale, scale)
    assert np.array_equal(eft.fma(a, b, scale), np.nextafter(scale, 2.0 * scale))


def test_fma_with_subnormal_partial_products():
    rng = np.random.default_rng(2)
    a, b = scaled(rng, -560, -470), scaled(rng, -560, -470)
    assert np.any(np.abs(a * b) < np.finfo(float).tiny)
    with np.errstate(under="ignore"):
        assert fma_mismatches(a, b, -(a * b)) == []
        assert fma_mismatches(a, b, scaled(rng, -1074, -1000)) == []


def test_fma_past_the_split_range():
    rng = np.random.default_rng(3)
    a, b = scaled(rng, 997, 1020), scaled(rng, -30, -3)
    assert np.all(np.abs(a) > 2.0 ** 996) and np.isfinite(a * b).all()
    with np.errstate(over="ignore"):
        assert fma_mismatches(a, b, -(a * b)) == []
        assert fma_mismatches(a, b, scaled(rng, 990, 1020)) == []
        assert fma_mismatches(b, a, scaled(rng, 990, 1020)) == []
        # a product past the largest double that the addend brings back
        big = np.full(4, 2.0 ** 1000)
        c = np.array([-np.finfo(float).max, -2.0 ** 1023, 2.0 ** 1023, 0.0])
        assert fma_mismatches(big, np.full(4, 2.0 ** 24), c) == []


def test_fma_with_non_finite_operands():
    inf, nan = math.inf, math.nan
    a = np.array([inf, inf, 0.0, 2.0, 1e300, 1e300, nan, 1.0])
    b = np.array([2.0, 0.0, inf, 3.0, 1e300, 1e300, 1.0, 1.0])
    c = np.array([1.0, 1.0, 1.0, -inf, -inf, 1.0, 1.0, nan])
    want = [inf, nan, nan, -inf, -inf, inf, nan, nan]
    with np.errstate(invalid="ignore", over="ignore"):
        got = eft.fma(a, b, c)
    assert [str(g) for g in got.tolist()] == [str(w) for w in want]


def test_fma_broadcasts_and_signs_an_exact_zero():
    assert eft.fma(np.array([1.0, 2.0]), 3.0, 1.0).tolist() == [4.0, 7.0]
    got = eft.fma(np.array([0.0, -0.0, 1.0, -0.0]), np.array([1.0, 1.0, 1.0, 2.0 ** 1000]),
                  np.array([-0.0, -0.0, -1.0, -0.0]))
    assert [math.copysign(1.0, g) for g in got.tolist()] == [1.0, -1.0, 1.0, -1.0]


@pytest.mark.parametrize("seed", range(3))
def test_split_product_error_and_two_sums_are_exact(seed):
    rng = np.random.default_rng(seed)
    a, b = scaled(rng, -300, 300), scaled(rng, -300, 300)
    hi, lo = eft.split(a)
    assert all(Fraction(h) + Fraction(l) == Fraction(x)
               for h, l, x in zip(hi.tolist(), lo.tolist(), a.tolist()))
    assert np.all(np.abs(lo) <= np.abs(hi) * 2.0 ** -26)
    p = a * b
    e = eft.product_error(*eft.split(a), *eft.split(b), p)
    assert all(Fraction(x) * Fraction(y) == Fraction(q) + Fraction(r)
               for x, y, q, r in zip(a.tolist(), b.tolist(), p.tolist(), e.tolist()))
    big = np.where(np.abs(a) >= np.abs(b), a, b)
    small = np.where(np.abs(a) >= np.abs(b), b, a)
    for hi, lo in (eft.two_sum(a, b), eft.two_sum(b, a), eft.fast_two_sum(big, small)):
        assert all(Fraction(x) + Fraction(y) == Fraction(h) + Fraction(l)
                   for x, y, h, l in zip(a.tolist(), b.tolist(), hi.tolist(), lo.tolist()))
        assert np.array_equal(hi, a + b)


def test_no_error_free_transform_is_defined_twice():
    names = {"split", "product_error", "two_sum", "fast_two_sum", "fma", "_two_sum",
             "_fast_two_sum"}
    found = [f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name in names]
    assert sorted(found) == ["eft.py:fast_two_sum", "eft.py:fma", "eft.py:product_error",
                             "eft.py:split", "eft.py:two_sum"]
