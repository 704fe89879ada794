"""CSV rows as one byte string: Python's ``.17g`` float text, computed with numpy.

``rows_text(first, cells, missing)`` returns the text of a block of CSV rows
``index,cell,...,cell``, one per row of ``cells``, each row led by a newline.
Every cell reads exactly as ``float_repr`` prints it: ``format(v, ".17g")``
for a finite float, ``inf``, ``-inf`` or ``nan`` otherwise; a missing cell is
empty.

Digits.  A finite nonzero |x| is m * 2^e (``np.frexp``).  With k its decimal
exponent, v = |x| * 10^(16 - k) lies in [1e16, 1e17), and the 17 significant
digits are the integer nearest to v.  The table entry for s = 16 - k is a
double-double H + L with 10^s = (H + L) * 2^T and H in [1, 2]; m * H is
formed exactly with Dekker's split product (``eft.split`` and
``eft.product_error``, shared with the box defects), the rest is
added in one more double, and both parts are scaled by 2^(e + T).  That
gives v = P + R, P an integer, with an error of at most 2^-46.  So the
nearest integer is P + rint(R) unless frac(R) lies within the error of 1/2;
such a cell, where a true tie has to be rounded half to even as Python
does, is undecided and takes its text from ``float_repr``.  At the ends of
the decade the two readings of k print the same text, so no cell falls back
there.

Text.  A row is a run of 8-byte words: a newline and the index digits,
then a slot of six words per column,

    word 0      ',' sign '0' '.' '0' '0' '0' d0
    words 1-4   '.' d1 '.' d2 ... '.' d16
    word 5      'e' sign and two or three exponent digits

and every byte a cell does not print holds NUL, so one ``bytes.translate``
that deletes NUL compacts the block.  Each word is written whole from a
table: word 0 by sign, shape and first digit (the comma, the sign, the "0."
and up to three zeros of a fixed-notation number below 1); words 1-4 by
4-digit chunk, ANDed with a mask chosen by shape and digit count, which
keeps the shown digits and the one point; word 5 by decimal exponent, all
NUL in fixed notation.  The index digits come from a 4-digit chunk table
whose leading zeros are NUL.  A column missing on every row of the block
has no slot, only a word holding its bare comma.  Python's ``g`` rules: fixed notation for decimal exponents -4 <= X < 17,
otherwise d.ddde+XX with at least two exponent digits; trailing zeros and
a bare point are dropped; -0.0 prints as ``-0``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

import numpy as np

from .eft import product_error, split

# Table range of s = 16 - k: finite doubles have k in [-324, 308], and the
# correction of k from its log10 estimate moves it by one.
_S_LO, _S_HI = -294, 342
_E16, _E17 = 10 ** 16, 10 ** 17
_UNDECIDED = 2.0 ** -30

# Words of a cell's slot.  A cell's shape key is its decimal exponent
# clipped to [-5, 17], plus 5: keys 0 and 22 are the exponent forms, 1-4 the
# fixed numbers below 1 and 5-21 the fixed numbers from 1 up; _MISSING is an
# empty cell.  Heads and masks are looked up by key and the first digit or
# the digit count.
_SLOT = 6
_MISSING = 23
_KEYS = _MISSING + 1


class _Tables(NamedTuple):
    # 10^s = (H + L) * 2^T for s in [_S_LO, _S_HI]: T, and one row
    # (H, H's split halves, L) per s.
    t: np.ndarray
    powers: np.ndarray
    # ".a.b.c.d" for every 4-digit chunk abcd, as one uint64 each.
    dotted: np.ndarray
    # Significant digits of every 4-digit chunk; -20 for 0000.
    significant: np.ndarray
    # The shape key of each decimal exponent k, by k + 324.
    keys: np.ndarray
    # "abcd" for every 4-digit chunk as one uint32 each, and the same with
    # the leading zeros as NUL (all NUL for 0000).
    plain: np.ndarray
    lead: np.ndarray
    # Slot word 0 by (sign * _KEYS + key) * 10 + first digit.
    heads: np.ndarray
    # Keep masks of slot words 1-4 by key * 18 + digit count, four words each.
    masks: np.ndarray
    # Slot word 5 by k + 324: the exponent, all NUL in fixed notation.
    exponents: np.ndarray


_COMMA = np.frombuffer(b",\0\0\0\0\0\0\0", dtype=np.uint64)[0]
_NEWLINE = np.frombuffer(b"\n\0\0\0", dtype=np.uint32)[0]


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
    text = (digits + ord("0")).astype(np.uint8)
    dotted = np.full((10000, 8), ord("."), dtype=np.uint8)
    dotted[:, 1::2] = text
    trailing = np.argmax(digits[:, ::-1] != 0, axis=1)
    significant = np.where(v == 0, -20, 4 - trailing).astype(np.int8)
    lead = np.where(v[:, None] >= 10 ** np.arange(3, -1, -1), text, 0).astype(np.uint8)

    # Word 0: the comma, the sign, "0." and the zeros of a number below 1,
    # then the first digit; a missing cell keeps only the comma.
    neg, key, first = (a.ravel() for a in np.meshgrid(
        [False, True], range(_KEYS), range(10), indexing="ij"))
    k = key - 5
    small = (k >= -4) & (k < 0)
    live = key != _MISSING
    heads = np.zeros((key.size, 8), dtype=np.uint8)
    heads[:, 0] = ord(",")
    heads[:, 1] = np.where(neg & live, ord("-"), 0)
    heads[:, 2] = np.where(small, ord("0"), 0)
    heads[:, 3] = np.where(small, ord("."), 0)
    for z in range(3):
        heads[:, 4 + z] = np.where(small & (k <= -2 - z), ord("0"), 0)
    heads[:, 7] = np.where(live, first + ord("0"), 0)

    # Words 1-4: byte 2i - 2 is the point before digit i, byte 2i - 1 the digit.
    key, count = (a.ravel() for a in np.meshgrid(range(_KEYS), range(18), indexing="ij"))
    k = key - 5
    whole = (k >= 0) & (k < 17)
    sci = (k < -4) | (k >= 17)
    shown = np.where(whole, np.maximum(count, k + 1), count)
    point = np.where(whole & (count > k + 1), k, np.where(sci & (count > 1), 0, -1))
    shown[key == _MISSING] = point[key == _MISSING] = -1
    i = np.arange(1, 17)
    masks = np.zeros((key.size, 32), dtype=np.uint8)
    masks[:, 0::2] = np.where(point[:, None] == i - 1, 0xFF, 0)
    masks[:, 1::2] = np.where(i < shown[:, None], 0xFF, 0)

    # Word 5: 'e', the sign and at least two digits, outside -4 <= k < 17.
    k = np.arange(-324, 325)
    exponents = np.zeros((k.size, 8), dtype=np.uint8)
    sci = (k < -4) | (k >= 17)
    exponents[:, 0] = np.where(sci, ord("e"), 0)
    exponents[:, 1] = np.where(sci, np.where(k < 0, ord("-"), ord("+")), 0)
    wide = np.abs(k) >= 100
    tail = text[np.abs(k), 1:]
    exponents[:, 2] = np.where(sci, np.where(wide, tail[:, 0], tail[:, 1]), 0)
    exponents[:, 3] = np.where(sci, np.where(wide, tail[:, 1], tail[:, 2]), 0)
    exponents[:, 4] = np.where(sci & wide, tail[:, 2], 0)
    return _Tables(np.array(ts, dtype=np.int32), np.stack((h, *split(h), np.array(ls)), axis=1),
                   dotted.view(np.uint64).ravel(), significant,
                   np.clip(k, -5, 17) + 5,
                   text.view(np.uint32).ravel(), lead.view(np.uint32).ravel(),
                   heads.view(np.uint64).ravel(), masks.view(np.uint64),
                   exponents.view(np.uint64).ravel())


def _round(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """v = m * 2^e * 10^(16 - k) as P + R, and its nearest integer q.

    Also returns whether v < 1e16 and whether q > 1e17.  P is an integer
    wherever v passes 2^53, and |v - (P + R)| <= 2^-46 wherever v < 2^57.
    """
    tables = _tables()
    at = (16 - _S_LO) - k
    h, hh, hl, lo = np.take(tables.powers, at, axis=0).T
    mh, ml = split(m)
    p = m * h
    rest = product_error(mh, ml, hh, hl, p) + m * lo
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


def _digits(q: np.ndarray, tables: _Tables) -> tuple[np.ndarray, ...]:
    """The first digit of each q < 10^17, its other 16 digits and their count.

    The 16 digits come as four rows of 4-digit chunks.  The count is that of
    the significant digits, at least one.
    """
    hi = q // 10 ** 8
    lo = (q - hi * 10 ** 8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    top = hi // 10000
    first = top // 10000
    chunks = np.empty((4, q.size), dtype=np.intp)
    chunks[0] = top - first * 10000
    chunks[1] = hi - top * 10000
    chunks[2] = lo // 10000
    chunks[3] = lo - chunks[2] * 10000
    significant = np.take(tables.significant, chunks)
    count = np.maximum(np.maximum(significant[0] + 1, significant[1] + 5),
                       np.maximum(significant[2] + 9, significant[3] + 13))
    return first, chunks, np.maximum(count, 1)


def _splice(row: np.ndarray, slots: np.ndarray, where: np.ndarray,
            values: np.ndarray) -> None:
    """Write ``float_repr`` of the cells at ``where`` into their slots.

    ``where`` counts cells column by column over the live columns, whose
    first words are ``slots``.
    """
    n = row.shape[0]
    text = row.view(np.uint8)
    for at, v in zip(where.tolist(), values.tolist()):
        column, r = divmod(at, n)
        start = 8 * int(slots[column])
        cell = ("," + float_repr(v)).encode("ascii").ljust(8 * _SLOT, b"\0")
        text[r, start:start + 8 * _SLOT] = np.frombuffer(cell, dtype=np.uint8)


def _index_chunks(last: int) -> int:
    """4-digit chunks of the index digits, for indices up to ``last``."""
    return (len(str(last)) + 3) // 4


def scratch(rows: int, last: int, width: int) -> np.ndarray:
    """A word buffer for ``rows_text`` blocks of up to ``rows`` rows of ``width``
    cells, with indices up to ``last``."""
    return np.empty(rows * (_index_chunks(last) // 2 + 1 + _SLOT * width), dtype=np.uint64)


def rows_text(first: int, cells: np.ndarray, missing: np.ndarray,
              words: Optional[np.ndarray] = None) -> str:
    """Rows ``\\nfirst,c,...,c``, ``\\nfirst+1,...`` for an (n, c) float block.

    ``missing`` is an (n, c) bool mask of cells printed empty.  Cells whose
    digits the error bound leaves undecided, and non-finite cells, are
    written by ``float_repr``; every other cell is formatted here.  The rows
    are built in ``words``, a buffer from ``scratch`` that a caller rendering
    many blocks passes to each of them; without it, one is made.
    """
    n, width = cells.shape
    if n == 0:
        return ""
    tables = _tables()
    last = first + n - 1
    live = np.array([not missing[:, j].all() for j in range(width)], dtype=bool)
    chunks = _index_chunks(last)
    lead = chunks // 2 + 1  # words of the newline, the chunks and a NUL pad
    spans = np.where(live, _SLOT, 1)
    starts = lead + np.cumsum(spans) - spans
    if words is None:
        words = scratch(n, last, width)
    row = words[:n * (lead + int(spans.sum()))].reshape(n, -1)

    # Newline and index: 4-digit chunks, leading zeros NUL, padded to a word.
    half = row[:, :lead].view(np.uint32)
    half[:, 0] = _NEWLINE
    half[:, -1] = 0
    index = np.arange(first, last + 1, dtype=np.int64)
    for at in range(chunks):
        place = 10 ** (4 * (chunks - 1 - at))
        values = index // place % 10000
        half[:, 1 + at] = np.where(index < 10000 * place, np.take(tables.lead, values),
                                   np.take(tables.plain, values))
    row[:, starts[~live]] = _COMMA
    if live.any():
        _write_cells(row, starts[live], cells.T[live], missing.T[live], tables)
    return row.tobytes().translate(None, b"\0").decode("ascii")


def _write_cells(row: np.ndarray, slots: np.ndarray, columns: np.ndarray,
                 gaps: np.ndarray, tables: _Tables) -> None:
    """Fill the slots starting at words ``slots`` of each row with the cells
    of ``columns`` (one row per column), empty where ``gaps`` is set."""
    n = row.shape[0]
    x = columns.reshape(-1)
    gaps = gaps.reshape(-1)
    finite = np.isfinite(x)
    mag = np.abs(x)
    nonzero = finite & (mag != 0.0)
    q, k, undecided = _significands(np.where(nonzero, mag, 1.0))
    q[~nonzero] = 0
    k[~nonzero] = 0
    digit0, chunks, count = _digits(q, tables)
    k += 324
    key = np.take(tables.keys, k)
    key[gaps] = _MISSING
    k[gaps] = 324
    head = np.take(tables.heads, (np.signbit(x) * _KEYS + key) * 10 + digit0)
    body = np.take(tables.dotted, chunks.T)
    body &= np.take(tables.masks, key * 18 + count, axis=0)
    tail = np.take(tables.exponents, k)
    for column, at in enumerate(slots.tolist()):
        cell = slice(column * n, column * n + n)
        row[:, at] = head[cell]
        row[:, at + 1:at + 5] = body[cell]
        row[:, at + 5] = tail[cell]

    odd = np.flatnonzero((undecided & nonzero | ~finite) & ~gaps)
    if odd.size:
        _splice(row, slots, odd, x[odd])
