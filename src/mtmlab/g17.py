"""A vectorized float-to-decimal kernel with the bytes of `"%.17g" % v`.

`g17_cells(values)` gives every value's `%.17g` text in a fixed-width cell
of 48 NUL-padded ASCII bytes ending in `,`; `g17_csv_rows` lays a column of
cells and the cells of an array out as CSV rows and removes the padding
with `bytes.translate(None, b"\\0")`.

Digits.  With k = floor(log10|v|), y = |v| * 10^(16-k) is formed in
double-double arithmetic: 10^p comes from a table of hi + lo pairs and
|v| * hi from Dekker's exact two-product (no fused multiply-add needed), so
y's absolute error stays below 1e-14.  Rounding y to the nearest integer
gives the 17 significant digits D, 10^16 <= D < 10^17, that CPython's
correctly rounded conversion prints.  A value is formatted by `%` itself
instead when |v| is outside [1e-280, 1e280] (zeros excepted), when y's
fraction lies within 1e-9 of 1/2 (a tie or near-tie the error bound cannot
settle), or when floor(y) or D leaves [10^16, 10^17) (a log10 estimate off
by one, or rounding up to the next power of ten).  The range check on
floor(y) comes before the rounding increment: 9.9999999999999998e-13 has
floor(y) = 10^16 - 1 at the estimated k, and incrementing first would accept
D = 10^16 and print `1e-12`.

Layout.  The `%g` rules: the exponent X = k; positional form for
-4 <= X < 17, else d.ddd e+XX with at least two exponent digits; trailing
zeros stripped, but not the integer digits of the positional form (`100`);
the sign kept, `-0` included.  A cell has a slot for every character any
layout may need: sign, the `0.000` prefix, 17 digits each followed by a slot
for the point, `e`, the exponent sign and three exponent digits, then `,`.
Which slots carry which constant character, and which digit slots survive
the stripping, depends only on the sign, the clamped exponent and the
position of the last nonzero digit, so one table holds a template per such
case.  The cell is viewed as six little-endian uint64 words; the 16 digits
after the first come from a table of 4-digit groups, masked by the template.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_CELL_BYTES = 48

#: powers of ten 10^p for |p| <= _P as double-doubles: hi = fl(10^p), lo = fl(10^p - hi)
_P = 300


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """hi and lo of 10^p for p = -_P.._P, from exact integer arithmetic.

    For p >= 0, hi = float(10**p) and lo = float(10**p - int(hi)); for
    p = -q < 0, hi = 1 / 10**q (CPython's int true division rounds
    correctly) and lo = (1 - hi * 10**q) / 10**q from hi's exact ratio.
    """
    hi, lo = [0.0] * (2 * _P + 1), [0.0] * (2 * _P + 1)
    big = 1
    for p in range(_P + 1):                 # big = 10**p
        h = float(big)
        hi[_P + p], lo[_P + p] = h, float(big - int(h))
        if p > 0:
            h = 1 / big
            num, den = h.as_integer_ratio()
            hi[_P - p], lo[_P - p] = h, (den - num * big) / (den * big)
        big *= 10
    return np.array(hi), np.array(lo)


_DEKKER = 134217729.0     # 2^27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = h + l into halves of at most 26 significant bits."""
    c = _DEKKER * a
    h = c - (c - a)
    return h, a - h


# ---------------------------------------------------------------------------
# cell layout: byte offsets inside a 48-byte cell
# ---------------------------------------------------------------------------
# word 0: sign, '0', '.', '0', '0', '0' (the prefix of -4 <= X < 0), d0, point
# words 1-4: d1, point, d2, point, ..., d16, point
# word 5: 'e', exponent sign, three exponent digits, ',', two NULs

_SIGN, _PREFIX, _D0, _DIGITS, _EXP, _SEP = 0, 1, 6, 8, 40, 45
_X_LO, _X_HI = -5, 17     # clamped exponents: -5 and 17 stand for the exponent form
_N_X = _X_HI - _X_LO + 1


def _layout_table() -> np.ndarray:
    """The cell template of every case (sign, clamped exponent, last nonzero digit).

    Words 0 and 5 hold the constant characters of the case with d0 and the
    exponent digits NUL.  Words 1-4 are a mask for the digit groups: 0xff on
    the digit slots d1..d16 that are printed, the point where the case has
    one.  Case index: (sign * _N_X + X - _X_LO) * 17 + last.
    """
    sign = np.arange(2)[:, None, None]
    x = np.arange(_X_LO, _X_HI + 1)[None, :, None]
    last = np.arange(17)[None, None, :]
    fixed = (x >= -4) & (x < 17)
    below_one = fixed & (x < 0)
    point = np.where(fixed, x, 0)                       # the digit the point follows
    has_point = (fixed & (x >= 0) | ~fixed) & (last > point)
    keep = np.where(fixed & (x > last), x, last)        # the last digit printed

    cell = np.zeros((2, _N_X, 17, _CELL_BYTES), np.uint8)
    cell[..., _SIGN] = np.where(sign == 1, ord("-"), 0)
    cell[..., _PREFIX] = np.where(below_one, ord("0"), 0)
    cell[..., _PREFIX + 1] = np.where(below_one, ord("."), 0)
    for z in range(3):                                  # zeros after "0." when X <= -2
        cell[..., _PREFIX + 2 + z] = np.where(below_one & (z < -x - 1), ord("0"), 0)
    for j in range(17):
        if j > 0:                                       # the slot of digit j
            cell[..., _DIGITS + 2 * j - 2] = np.where(j <= keep, 0xFF, 0)
        if j < 16:                                      # the point slot after it
            slot = _D0 + 1 if j == 0 else _DIGITS + 2 * j - 1
            cell[..., slot] = np.where(has_point & (point == j), ord("."), 0)
    cell[..., _EXP] = np.where(~fixed, ord("e"), 0)
    cell[..., _EXP + 1] = np.where(~fixed, np.where(x < 0, ord("-"), ord("+")), 0)
    cell[..., _SEP] = ord(",")
    return cell.reshape(-1, _CELL_BYTES).view("<u8")


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables of the 4-digit groups 0000..9999 and of the exponents.

    groups: each group's digits as d\\xffd\\xffd\\xffd\\xff in one uint64,
    to be masked by the layout.  last[j]: the position 1 + 4j + i in the
    17-digit string of the group's last nonzero digit i when it is the
    (j+1)-th group, negative for 0000.  exponent: |X| <= 399 in word 5's
    bytes 2-4, two digits when |X| < 100.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T      # (10000, 4)
    groups = np.full((10000, 8), 0xFF, np.uint8)
    groups[:, ::2] = digits + np.uint8(ord("0"))
    last = np.where(digits != 0, np.arange(4, dtype=np.int8), np.int8(-64)).max(axis=1)
    last = last + np.arange(1, 17, 4, dtype=np.int8)[:, None]
    exponent = np.zeros((400, 8), np.uint8)
    exponent[:, 2:5] = digits[:400, 1:] + ord("0")
    exponent[:100, 2] = 0
    return groups.view("<u8")[:, 0], last, exponent.view("<u8")[:, 0]


class _Tables(NamedTuple):
    pow10_hi: np.ndarray
    pow10_lo: np.ndarray
    pow10_hi_split: tuple[np.ndarray, np.ndarray]
    layout: np.ndarray
    groups: np.ndarray
    group_last: np.ndarray
    exp_digits: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The lookup tables, built on the first call so that importing the module costs nothing."""
    hi, lo = _pow10_table()
    return _Tables(hi, lo, _split(hi), _layout_table(), *_digit_tables())


#: turns word 5's `,` into a newline
_COMMA_TO_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 8 * (_SEP % 8))


def g17_cells(values: np.ndarray) -> np.ndarray:
    """The `%.17g` text of every value, shape values.shape + (6,), dtype <u8.

    Each row of six words is one 48-byte cell: the text, NUL padding, and a
    `,` at byte 45.  The bytes without their NULs are exactly those of
    `"%.17g" % v` followed by `,`.  values must be finite float64.
    """
    tab = _tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)

    # y = a * 10^(16-k) = p + r exactly up to the rounding of r
    i = 16 - k + _P
    p = a * tab.pow10_hi[i]
    ah, al = _split(a)
    bh, bl = tab.pow10_hi_split[0][i], tab.pow10_hi_split[1][i]
    r = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * tab.pow10_lo[i]
    whole = np.floor(p)
    t = (p - whole) + r
    t_floor = np.floor(t)
    frac = t - t_floor
    y_floor = whole.astype(np.int64) + t_floor.astype(np.int64)
    d = y_floor + (frac > 0.5)
    slow = ~(fast | zero) | (np.abs(frac - 0.5) < 1e-9) | (y_floor < 10 ** 16) | (d >= 10 ** 17)
    d[slow | zero] = 0
    k[zero] = 0

    # d = d0 * 10^16 + g1 * 10^12 + g2 * 10^8 + g3 * 10^4 + g4; groups[:, j] = g(j+1)
    top = d // 10 ** 8
    low = d - top * 10 ** 8
    d0 = top // 10 ** 8
    mid = top - d0 * 10 ** 8
    groups = np.empty((v.size, 4), np.int64)
    for j, part in ((0, mid), (2, low)):
        np.floor_divide(part, 10 ** 4, out=groups[:, j])
        np.subtract(part, groups[:, j] * 10 ** 4, out=groups[:, j + 1])
    last = np.zeros(v.size, np.int8)
    for j in range(4):
        np.maximum(last, np.take(tab.group_last[j], groups[:, j]), out=last)
    case = (np.signbit(v) * _N_X + np.clip(k, _X_LO, _X_HI) - _X_LO) * 17 + last

    cells = np.take(tab.layout, case, axis=0)
    cells[:, 0] |= (d0.astype(np.uint64) + ord("0")) << np.uint64(8 * _D0)
    cells[:, 1:5] &= np.take(tab.groups, groups)
    exp_form = np.flatnonzero(((k < -4) | (k >= 17)) & ~slow)
    cells[exp_form, 5] |= tab.exp_digits[np.abs(k[exp_form])]

    slow = np.flatnonzero(slow)
    if slow.size:
        text = b"".join(("%.17g" % x).encode().ljust(_SEP, b"\0") + b",\0\0"
                        for x in v[slow].tolist())
        cells[slow] = np.frombuffer(text, "<u8").reshape(-1, 6)
    return cells.reshape(np.shape(values) + (6,))


#: values per kernel call in g17_csv_rows; on an n = 4096 snapshot (16,384
#: values, 2-vCPU Xeon) blocks of this size took 3.7-4.1 ms with 1.8 MB of
#: temporaries, one call over the whole array 5.5-6.7 ms with 5.6 MB
_BLOCK = 4096


def g17_csv_rows(values: np.ndarray, lead: np.ndarray) -> bytes:
    """CSV rows of lead and a 2-d array of values: `,` between columns, newline-ended.

    lead holds the cells (rows, 6) from `g17_cells` that start each row, such
    as a column formatted once and reused; values are formatted here.
    """
    values = np.asarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    step = max(1, _BLOCK // n_cols)
    text = []
    for start in range(0, n_rows, step):
        block = slice(start, min(start + step, n_rows))
        cells = np.empty((block.stop - start, n_cols + 1, 6), "<u8")
        cells[:, 0] = lead[block]
        cells[:, 1:] = g17_cells(values[block])
        cells[:, -1, 5] ^= _COMMA_TO_NEWLINE
        text.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(text)
