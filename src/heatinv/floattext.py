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


def _digit_groups() -> np.ndarray:
    """The ASCII text of 0000..9999, four bytes per entry, viewed as uint32."""
    k = np.arange(10_000, dtype=np.uint16)[:, None]
    chars = (k // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    return chars.view(np.uint32)[:, 0]


def _layouts(point: bool) -> np.ndarray:
    """Where each byte of the fixed-point text of d0.d1...d16 x 10**e comes
    from, for e in [-4, 15] and m trailing zero digits, as row (e + 4) * 17 + m
    of 24 byte positions, right-aligned: source bytes 0-2 are '0', 3-19 the
    digits d0..d16, 20 is '.' and 21 NUL.  Column 0 is left for the sign.
    Trailing zeros of the fraction are dropped; when none of its digits is
    left, the point goes too ('%g') or a 0 stays after it (repr, `point`)."""
    rows = np.full((20 * 17, 24), 21, np.uint8)
    digits = list(range(3, 20))
    for e in range(-4, 16):
        text = (digits[:e + 1] + [20] + digits[e + 1:] if e >= 0
                else [0, 20] + [0] * (-e - 1) + digits)
        for m in range(17):
            cut = min(m, 16 - e)
            kept = text[:len(text) - cut]
            if cut == 16 - e:
                kept = kept + [0] if point else kept[:-1]
            rows[(e + 4) * 17 + m, 24 - len(kept):] = kept
    return rows


_DIGIT_GROUPS = _digit_groups()
_G17_LAYOUTS, _REPR_LAYOUTS = _layouts(False), _layouts(True)
_POINT = np.frombuffer(b".\0\0\0", np.uint32)[0]


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


def _fixed_text(x: np.ndarray, e: np.ndarray, n: np.ndarray, layouts: np.ndarray) -> np.ndarray:
    """The text of sign(v) n 10**(e - 16) for each v of x, with n of 17
    digits, as (x.size, 24) uint8 rows of ASCII padded with NUL bytes, laid
    out by `layouts`."""
    src = np.empty((x.size, 6), np.uint32)  # '000' d0, d1..d16 in fours, '.'
    for j in range(4, 0, -1):
        n, src[:, j] = np.divmod(n, 10_000)
    src[:, 0] = n
    src[:, :5] = _DIGIT_GROUPS.take(src[:, :5])
    src[:, 5] = _POINT
    src = src.view(np.uint8)
    m = np.argmax(src[:, 19:2:-1] != 48, axis=1)  # d0 > 0 ends every search
    where = layouts.take((e + 4) * 17 + m, axis=0) + np.arange(0, src.size, 24)[:, None]
    out = src.reshape(-1).take(where)
    out[:, 0] = np.where(x < 0, 45, 0)  # '-'
    return out


def _g17(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each v in the float array x, as (x.size, 24) uint8 rows
    of ASCII padded with NUL bytes; 24 is the longest such text.

    For 1e-4 <= |v| < 1e16 the text is fixed-point with the 17 digits of
    _decimal17.  Every other v (zero, subnormal, tiny, huge, nan, inf) is
    formatted by '%' itself.
    """
    x = np.ravel(x)
    fast, e, n, _ = _decimal17(x)
    out = _fixed_text(x, e, n, _G17_LAYOUTS)
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
    out = _fixed_text(x, e, digits, _REPR_LAYOUTS)
    if slow.size:
        text = [float.__repr__(v) if math.isfinite(v) else "null" for v in x[slow].tolist()]
        out[slow] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return out
