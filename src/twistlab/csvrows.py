"""CSV rows as one byte array: Python's ``.17g`` float text, computed with numpy.

``rows_text(first, cells, missing)`` returns the text of a block of CSV rows
``index,cell,...,cell``, one per row of ``cells``, each row led by a newline.
Every cell reads exactly as ``float_repr`` prints it: ``format(v, ".17g")``
for a finite float, ``inf``, ``-inf`` or ``nan`` otherwise; a missing cell is
empty.

Digits.  A finite nonzero |x| is m * 2^e (``np.frexp``).  With k its decimal
exponent, v = |x| * 10^(16 - k) lies in [1e16, 1e17), and the 17 significant
digits are the integer nearest to v.  The table entry for s = 16 - k is a
double-double H + L with 10^s = (H + L) * 2^T and H in [1, 2]; m * H is
formed exactly with Dekker's split product (``series.split`` and
``series.product_error``, shared with the box defects), the rest is
added in one more double, and both parts are scaled by 2^(e + T).  That
gives v = P + R, P an integer, with an error of at most 2^-46.  So the
nearest integer is P + rint(R) unless frac(R) lies within the error of 1/2;
such a cell, where a true tie has to be rounded half to even as Python
does, is undecided and takes its text from ``float_repr``.  At the ends of
the decade the two readings of k print the same text, so no cell falls back
there.

Text.  A cell has a fixed slot of bytes; the row is laid out once and a
keep mask selects the bytes of each cell's text, so the block is one
``np.compress``.  Python's ``g`` rules: fixed notation for decimal exponents
-4 <= X < 17, otherwise d.ddde+XX with at least two exponent digits;
trailing zeros and a bare point are dropped; -0.0 prints as ``-0``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .series import product_error, split

# Table range of s = 16 - k: finite doubles have k in [-324, 308], and the
# correction of k from its log10 estimate moves it by one.
_S_LO, _S_HI = -294, 342
_E16, _E17 = 10 ** 16, 10 ** 17
_UNDECIDED = 2.0 ** -30

# A cell's slot of bytes: ',' then the sign, the "0." and up to three zeros
# of a fixed-notation number below 1, the 17 digits each followed by a
# point, and 'e' with the exponent's sign and three digits.  A keep mask
# selects the bytes of the cell's text.
_SIGN, _LEAD, _ZEROS, _DIGITS, _EXP = 1, 2, 4, 7, 41
_SLOT = 46
_TEMPLATE = np.frombuffer(b",-0.000" + b"0." * 17 + b"e+000", dtype=np.uint8)
# Keep-mask rows, by shape: 17 x 17 fixed numbers >= 1 (exponent, digits),
# 4 x 17 fixed numbers below 1, 2 x 17 exponent forms (two or three exponent
# digits), each unsigned and signed, then the empty (missing) cell.
_SHAPES = 2 * (17 * 17 + 4 * 17 + 2 * 17)
_MISSING = _SHAPES


class _Tables(NamedTuple):
    # 10^s = (H + L) * 2^T for s in [_S_LO, _S_HI], with H's split halves.
    t: np.ndarray
    h: np.ndarray
    h_hi: np.ndarray
    h_lo: np.ndarray
    lo: np.ndarray
    # "a.b.c.d." for every 4-digit chunk abcd, as one uint64 each.
    chunks: np.ndarray
    # Significant digits of every 4-digit chunk; -20 for 0000.
    significant: np.ndarray
    # Exponent sign and three digits for k + 324, as one uint32 each.
    exponents: np.ndarray
    # Keep-mask row of each shape, and the one of a missing cell.
    masks: np.ndarray


def float_repr(v: float) -> str:
    """The report text of one float: ``.17g``, or ``inf``, ``-inf``, ``nan``."""
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(float(v), ".17g")


@functools.cache
def _tables() -> _Tables:
    """Built on the first call, so that importing the module builds nothing.

    The powers of ten come from Python ints, whose true division is
    correctly rounded: H is 10^s * 2^-T rounded, and L the rounded rest.
    """
    ts, hs, ls = [], [], []
    for s in range(_S_LO, _S_HI + 1):
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        t = num.bit_length() - den.bit_length()
        if num < (den << t if t >= 0 else den >> -t):
            t -= 1
        if t >= 0:
            den <<= t
        else:
            num <<= -t
        h = num / den
        hn, hd = h.as_integer_ratio()
        ts.append(t)
        hs.append(h)
        ls.append((num * hd - hn * den) / (den * hd))
    h = np.array(hs)

    v = np.arange(10000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1)
    chunks = np.full((10000, 8), ord("."), dtype=np.uint8)
    chunks[:, ::2] = digits + ord("0")
    trailing = np.argmax(digits[:, ::-1] != 0, axis=1)
    significant = np.where(v == 0, -20, 4 - trailing)

    k = np.arange(-324, 325)
    exponents = np.empty((k.size, 4), dtype=np.uint8)
    exponents[:, 0] = np.where(k < 0, ord("-"), ord("+"))
    exponents[:, 1:] = chunks[np.abs(k), 2::2]

    # One exponent of each shape: every fixed one, then 17 and 100 for the
    # exponent forms with two and three digits.
    neg, k, count = (a.ravel() for a in np.meshgrid(
        [False, True], [*range(-4, 17), 17, 100], range(1, 18), indexing="ij"))
    masks = np.zeros((_SHAPES + 1, _SLOT), dtype=bool)
    masks[_shape(neg, k, count)] = _masks(neg, k, count)
    masks[_MISSING, 0] = True
    return _Tables(np.array(ts, dtype=np.int32), h, *split(h), np.array(ls),
                   chunks.view(np.uint64).ravel(), significant,
                   exponents.view(np.uint32).ravel(), masks)


def _shape(neg: np.ndarray, k: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The keep-mask row of a cell with sign, decimal exponent k and digit count."""
    whole = (k >= 0) & (k < 17)
    small = (k >= -4) & (k < 0)
    row = np.where(whole, k * 17, np.where(small, 289 - 17 * (k + 1),
                                            357 + 17 * (np.abs(k) >= 100)))
    return row + (count - 1) + neg * (_SHAPES // 2)


def _masks(neg: np.ndarray, k: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Keep masks of cells given by sign, decimal exponent k and digit count."""
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    whole = fixed & (k >= 0)
    sci = ~fixed
    # Digits shown: the significant ones, and zeros up to the point if whole.
    shown = np.where(whole, np.maximum(count, k + 1), count)
    # The point follows digit ``point``; -1 for no point.
    point = np.where(whole & (count > k + 1), k, np.where(sci & (count > 1), 0, -1))
    mask = np.zeros((k.size, _SLOT), dtype=bool)
    mask[:, 0] = True
    mask[:, _SIGN] = neg
    mask[:, _LEAD] = mask[:, _LEAD + 1] = small
    for z in range(3):
        mask[:, _ZEROS + z] = small & (k <= -2 - z)
    column = np.arange(17)
    mask[:, _DIGITS:_EXP:2] = column < shown[:, None]
    mask[:, _DIGITS + 1:_EXP:2] = column == point[:, None]
    mask[:, _EXP] = mask[:, _EXP + 1] = sci
    mask[:, _EXP + 2] = sci & (np.abs(k) >= 100)
    mask[:, _EXP + 3] = mask[:, _EXP + 4] = sci
    return mask


def _round(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """v = m * 2^e * 10^(16 - k) as P + R, and its nearest integer q.

    Also returns whether v < 1e16 and whether q > 1e17.  P is an integer
    wherever v passes 2^53, and |v - (P + R)| <= 2^-46 wherever v < 2^57.
    """
    tables = _tables()
    at = (16 - _S_LO) - k
    h = np.take(tables.h, at)
    hh = np.take(tables.h_hi, at)
    hl = np.take(tables.h_lo, at)
    mh, ml = split(m)
    p = m * h
    rest = product_error(mh, ml, hh, hl, p) + m * np.take(tables.lo, at)
    shift = e + np.take(tables.t, at)
    whole = np.ldexp(p, shift).astype(np.int64)
    r = np.ldexp(rest, shift)
    low = whole + np.floor(r).astype(np.int64) < _E16
    q = whole + np.rint(r).astype(np.int64)
    return q, r, low, q > _E17


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significand q, decimal exponent k and the undecided mask.

    ``a`` holds finite positive floats; |a - q * 10^(k - 16)| is at most half
    a unit of q wherever the mask is clear.
    """
    m, e = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int32)
    q, r, low, high = _round(m, e, k)
    # A low k (v < 1e16) moves down and a high one (q > 1e17) up.  Down,
    # 10 v < 1e17 + 10 * 2^-46 rounds to at most 1e17, so it is not high; up,
    # v / 10 > 1e16 is not low.  So k moves one way until it fits.
    wrong = np.flatnonzero(low | high)
    while wrong.size:
        k[wrong] += np.where(high[wrong], 1, -1)
        q[wrong], r[wrong], lo, high[wrong] = _round(m[wrong], e[wrong], k[wrong])
        wrong = wrong[lo | high[wrong]]
    carry = q == _E17
    q[carry] = _E16
    k[carry] += 1
    undecided = np.abs(r - np.floor(r) - 0.5) < _UNDECIDED
    return q, k, undecided


def _digits(q: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The digits of each q < 10^17, each followed by a point, and their count.

    The digits come as five rows of 8 bytes per value, from chunks of 1, 4,
    4, 4 and 4 digits (the first row's 6 leading bytes are padding).  The
    count is that of the significant digits, at least one.
    """
    hi = q // 10 ** 8
    lo = (q - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    chunks = np.empty((5, q.size), dtype=np.uint32)
    top = hi // 10000
    chunks[0] = top // 10000
    chunks[1] = top - chunks[0] * 10000
    chunks[2] = hi - top * 10000
    chunks[3] = lo // 10000
    chunks[4] = lo - chunks[3] * 10000
    chunks = chunks.astype(np.intp)
    significant = np.take(tables.significant, chunks[1:])
    count = np.maximum(np.maximum(significant[0] + 1, significant[1] + 5),
                       np.maximum(significant[2] + 9, significant[3] + 13))
    return np.take(tables.chunks, chunks), np.maximum(count, 1)


def _splice(body: np.ndarray, keep: np.ndarray, where: np.ndarray,
            values: np.ndarray) -> None:
    """Write ``float_repr`` of the cells at flat indices ``where`` into their slots."""
    width = body.shape[1]
    for at, v in zip(where.tolist(), values.tolist()):
        row, col = divmod(at, width)
        s = float_repr(v).encode("ascii")
        body[row, col, 1:1 + len(s)] = np.frombuffer(s, dtype=np.uint8)
        keep[row, col, 1:] = False
        keep[row, col, 1:1 + len(s)] = True


def rows_text(first: int, cells: np.ndarray, missing: np.ndarray) -> str:
    """Rows ``\\nfirst,c,...,c``, ``\\nfirst+1,...`` for an (n, c) float block.

    ``missing`` is an (n, c) bool mask of cells printed empty.  Cells whose
    digits the error bound leaves undecided, and non-finite cells, are
    written by ``float_repr``; every other cell is formatted here.
    """
    tables = _tables()
    n, width = cells.shape
    places = 10 ** np.arange(len(str(first + n - 1)) - 1, -1, -1)
    lead = 1 + places.size
    text = np.empty((n, lead + width * _SLOT), dtype=np.uint8)
    keep = np.empty(text.shape, dtype=bool)

    # Row index: a newline, then the decimal digits.
    index = np.arange(first, first + n, dtype=np.int64)
    text[:, 0] = ord("\n")
    keep[:, 0] = True
    for at, place in enumerate(places.tolist(), start=1):
        text[:, at] = index // place % 10 + ord("0")
        keep[:, at] = index >= place

    x = cells.reshape(-1)
    finite = np.isfinite(x)
    mag = np.abs(x)
    nonzero = finite & (mag != 0.0)
    q, k, undecided = _significands(np.where(nonzero, mag, 1.0))
    q[~nonzero] = 0
    k[~nonzero] = 0
    digits, count = _digits(q, tables)
    shape = _shape(np.signbit(x), k, count)
    shape[missing.reshape(-1)] = _MISSING

    body = text[:, lead:].reshape(n, width, _SLOT)
    body[...] = _TEMPLATE
    digits = digits.view(np.uint8).reshape(5, n, width, 8)
    body[..., _DIGITS:_DIGITS + 2] = digits[0, ..., 6:]
    for j in range(1, 5):
        body[..., _DIGITS + 8 * j - 6:_DIGITS + 8 * j + 2] = digits[j]
    del digits  # half a megabyte less at the peak, before the mask rows come
    body[..., _EXP + 1:] = np.take(tables.exponents, k + 324).view(np.uint8).reshape(
        n, width, 4)
    mask = keep[:, lead:].reshape(n, width, _SLOT)
    mask[...] = np.take(tables.masks, shape, axis=0).reshape(n, width, _SLOT)

    odd = np.flatnonzero((undecided & nonzero | ~finite) & ~missing.reshape(-1))
    if odd.size:
        _splice(body, mask, odd, x[odd])
    return np.compress(keep.reshape(-1), text.reshape(-1)).tobytes().decode("ascii")
