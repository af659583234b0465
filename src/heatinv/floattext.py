"""The exact decimal text of float64 arrays, in numpy: '%.17g' and the
shortest repr.

Both read one exact 17-digit decimal of each value (_decimal17) and return
NUL-padded rows of ASCII, one per value, that the writers in io join.  The
values this vectorised rule does not cover are formatted by Python itself,
so the bytes are always those of '%.17g' % v and float.__repr__(v).
"""

from __future__ import annotations

import math

import numpy as np


_POW10 = np.array([float(10 ** k) for k in range(23)])  # each one an exact double


def _digit_words() -> np.ndarray:
    """The ASCII text of 0000..9999 as uint64 values whose little-endian
    bytes 0-3 are the four digits and bytes 4-7 zero."""
    digits = np.indices((10,) * 4, np.uint64).reshape(4, -1)  # thousands first
    return ((digits + np.uint64(48)) << np.arange(0, 32, 8, dtype=np.uint64)[:, None]).sum(0)


def _trailing_zeros() -> np.ndarray:
    """The trailing zero digits of 0000..9999 as four digits, 4 for 0000."""
    k = np.arange(10_000)
    return sum((k % p == 0).astype(np.uint8) for p in (10, 100, 1000, 10_000))


def _masks() -> np.ndarray:
    """The masks that lay out the text of sign d0.d1...d16 x 10**e in a row
    of 24 bytes, for e in [-4, 15], the last digit kept L in [0, 16] and the
    sign s (1 for '-'), as row (e + 4) * 34 + 2 L + s of nine uint64 words:
    for each word of the row, the bytes taken from the row moved one byte
    toward its start, the bytes taken from the row in place, and the bytes
    ORed in.

    The row holds d0 at byte 7 and d1..d16 at bytes 8-23.  For e >= 0 the
    shifted row gives d0..de at bytes 6..6+e, '.' goes to byte 7+e when a
    fraction digit is kept, and the row gives d(e+1)..dL in place.  For
    e < 0 the row gives d0..dL and '0.' and -e - 1 zeros go before them.
    The sign goes to byte 5 + min(e, 0), right before the text."""
    e = np.arange(-4, 16)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    sign = np.arange(2)[:, None]
    pos = np.arange(24)
    shifted = (e >= 0) & (pos >= 6) & (pos <= 6 + e)
    kept = (pos >= 7 + np.maximum(e + 1, 0)) & (pos <= 7 + last)
    text = np.where((pos == 7 + e) & (last > e), ord("."), 0)
    text = np.where((e < 0) & ((pos == 6 + e) | (pos >= 8 + e) & (pos <= 6)), ord("0"), text)
    text = np.where((sign == 1) & (pos == 5 + np.minimum(e, 0)), ord("-"), text)
    words = np.stack(np.broadcast_arrays(shifted * 255, kept * 255, text), -2).astype(np.uint8)
    words = words.reshape(-1, 3, 3, 8).transpose(0, 2, 1, 3)  # word-major: word j's three masks
    return np.ascontiguousarray(words).view("<u8").astype(np.uint64).reshape(-1, 9)


_DIGIT_WORDS, _TRAILING_ZEROS, _MASKS = _digit_words(), _trailing_zeros(), _masks()


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = a * b exactly (Dekker 1971), for products far
    from overflow and underflow; one ufunc per step, so none is fused."""
    def split(x):
        c = x * 134217729.0  # 2**27 + 1
        high = c - (c - x)
        return high, x - high
    hi = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return hi, al * bl - (((hi - ah * bh) - al * bh) - ah * bl)


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exact 17-digit decimal of each v in the 1-D float array x with
    1e-4 <= |v| < 1e16: (fast, e, n, r), where fast marks those v, e =
    floor(log10 |v|) and |v| 10**(16 - e) = n + r exactly, n (int64) rounded
    half to even, as CPython's dtoa rounds, and |r| <= 1/2.  The other v get
    the e, n and r of 1.0.

    The product is exact as hi + lo, and hi >= 1e16 > 2**53 is an even
    integer, so n = hi + rint(lo) and r = lo - rint(lo), which is exact too.
    np.log10 may be one off next to a power of ten; the exact product shows
    it.  n never rounds up to 10**17: the largest double below each power of
    ten in the range is 8 units of its 17th digit or more below it.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, _POW10[16 - e])
    off = ((hi > 1e17) | (hi == 1e17) & (lo >= 0)).astype(np.intp) - (
        (hi < 1e16) | (hi == 1e16) & (lo < 0))
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        hi[fix], lo[fix] = _two_product(a[fix], _POW10[16 - e[fix]])
    k = np.rint(lo)
    return fast, e, hi.astype(np.int64) + k.astype(np.int64), lo - k


def _digit_row(n: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The 17 digits d0..d16 of each n as three uint64 words, little-endian
    bytes 7 and 8-23 of a row, and the number of trailing zero digits."""
    def split(a, unit):
        high = a // unit  # numpy divides by a constant fast, but not mod
        return high, a - high * unit
    high, low = split(n, 10 ** 8)
    d0, mid = split(high, 10 ** 8)
    groups = np.empty((4, n.size), np.intp)  # d1..d4, d5..d8, d9..d12, d13..d16
    groups[0], groups[1] = split(mid, 10 ** 4)
    groups[2], groups[3] = split(low, 10 ** 4)
    text = _DIGIT_WORDS.take(groups)
    row = [(d0 + 48).astype(np.uint64) << np.uint64(56),
           text[0] | text[1] << np.uint64(32), text[2] | text[3] << np.uint64(32)]
    zeros = _TRAILING_ZEROS.take(groups)
    m = zeros[3]
    for j in (2, 1, 0):  # only a group of zeros has 4 trailing zeros
        m += (m == 12 - 4 * j) * zeros[j]
    return row, m


def _fixed_text(x: np.ndarray, e: np.ndarray, n: np.ndarray, point: int) -> np.ndarray:
    """The text of sign(v) n 10**(e - 16) for each v of x, with n of 17
    digits, as (x.size, 24) uint8 rows of ASCII padded with NUL bytes.
    Trailing zeros of the fraction are dropped; when none of its digits is
    left, the point goes too (`point` 0, '%g') or a 0 stays after it
    (`point` 1, repr).

    Each row is _digit_row's three words laid out by one row of _MASKS: the
    last digit kept is the last nonzero one, or d(e + point) when that is
    later."""
    row, zeros = _digit_row(n)
    last = np.maximum(16 - zeros, e + point)
    masks = _MASKS.take((e + 4) * 34 + 2 * last + (x < 0), axis=0)
    out = np.empty((x.size, 3), np.uint64)
    for j, word in enumerate(row):
        shifted = word >> np.uint64(8)
        if j < 2:
            shifted |= row[j + 1] << np.uint64(56)
        shifted &= masks[:, 3 * j]
        word &= masks[:, 3 * j + 1]
        word |= shifted
        np.bitwise_or(word, masks[:, 3 * j + 2], out=out[:, j])
    return out.astype("<u8", copy=False).view(np.uint8)


def _g17(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each v in the float array x, as (x.size, 24) uint8 rows
    of ASCII padded with NUL bytes; 24 is the longest such text.

    For 1e-4 <= |v| < 1e16 the text is fixed-point with the 17 digits of
    _decimal17.  Every other v (zero, subnormal, tiny, huge, nan, inf) is
    formatted by '%' itself.
    """
    x = np.ravel(x)
    fast, e, n, _ = _decimal17(x)
    out = _fixed_text(x, e, n, 0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], "S24")
        out[slow] = text.view(np.uint8).reshape(-1, 24)
    return out


def _json_floats(x: np.ndarray) -> np.ndarray:
    """The JSON text of each v in the 1-D float64 array x, float.__repr__(v)
    or null when v is not finite, as _g17's rows.

    repr is the shortest text that reads back as v: the first of v's
    correctly rounded 15, 16 and 17 digits that does.  A decimal of 15 digits
    or fewer that reads back as v is v's 15-digit rounding, and the 17 digits
    always read back.  The 16 and 15 digits are _decimal17's n + r rounded
    at its last one or two digits, and they read back as v when their
    distance to n + r is below v's half-ulp in units of the 17th digit,
    2**(exponent - 54) 10**(16 - e), an exact double.  float.__repr__ writes
    each v that _g17 sends to '%', and each v where this rule does not hold
    or its arithmetic may not decide: an exact power of two, whose lower
    half-ulp is half its upper one, a decimal tie, a distance within 1e-9 of
    the half-ulp, and digits that round up to the next power of ten.
    """
    fast, e, n, r = _decimal17(x)
    mantissa, exponent = np.frexp(x)
    half = np.ldexp(_POW10[16 - e], exponent - 54)
    digits, slow = n, ~fast | (np.abs(mantissa) == 0.5) | (np.abs(r) == 0.5)
    for unit in (10, 100):  # 16 digits, then 15
        rest = n % unit + r
        rounded = n - n % unit + unit * (rest > unit / 2)
        dist = np.abs(rounded - n - r)
        slow |= (rest == unit / 2) | (np.abs(dist - half) <= 1e-9 * half)
        digits = np.where(dist < half, rounded, digits)
    slow = np.flatnonzero(slow | (digits == 10 ** 17))
    out = _fixed_text(x, e, digits, 1)
    if slow.size:
        text = [float.__repr__(v) if math.isfinite(v) else "null" for v in x[slow].tolist()]
        out[slow] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return out
