"""The exact '%.17g' text of a block of doubles, made with numpy operations.

Python's '%.17g' rounds each double to 17 significant digits, half to
even, and writes fixed notation for decimal exponents -4 to 16 and
exponent notation otherwise, without trailing zeros.  Every finite value
with 1e-4 <= |x| < 1e15 takes the fixed-notation path here, which gets the
same 17 digits by exact integer arithmetic; every other value (+-0, nan,
inf, tiny, huge) is formatted by '%' itself and put in its own place.
"""

import numpy as np

_PAD = 0x20  # a space, which '%.17g' never writes; dropped at the end
_WIDE = 24  # longest '%.17g' text: '-1.2345678901234567e-308'
_POW = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI
_SLOT = 25  # bytes per value: sign, '0.000', 18 digit or point slots, separator
_BLOCK_VALUES = 1 << 13  # values per _fields call, so its temporaries stay near 1 MB
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]
_ROW = np.arange(18, dtype=np.uint8)[:, None]


def _scaled(a, x):
    """round-half-even(a * 10**(16 - x)), exact where the product lies in
    [2**53, 2**63): there the two-product hi + lo is exact, hi an even
    integer, so rounding lo alone rounds the sum."""
    k = 16 - x
    hi = a * _POW[k]
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    lo = ((ah * _POW_HI[k] - hi) + ah * _POW_LO[k] + al * _POW_HI[k]) + al * _POW_LO[k]
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal(a):
    """(x, d) with d the 17 significant digits of each a > 0 as an integer
    and x its decimal exponent: a = d * 10**(x - 16), rounded half to even."""
    x = np.floor(np.log10(a)).astype(np.int64)
    d = _scaled(a, x)
    # the estimate was one off, or the rounding carried into a new decade.
    # d == 10**16 is never from the decade below for 1e-4 <= a < 1e15: no
    # double there lies within 10**(x - 16) / 2 below a power of ten.
    move = np.flatnonzero((d < 10**16) | (d >= 10**17))
    if move.size:
        x[move] += np.where(d[move] >= 10**17, 1, -1)
        d[move] = _scaled(a[move], x[move])
    return x, d


def format_csv(head, columns):
    """``head``, then one CSV line per row of the float columns side by side
    (a 2-d column adds one field per column of it), every value as '%.17g'
    writes it; about _BLOCK_VALUES values at a time into one buffer, which
    is decoded once."""
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    step = max(1, _BLOCK_VALUES // width)
    head = head.encode("ascii")
    buf = np.empty(len(head) + _SLOT * width * len(columns[0]), np.uint8)
    end = len(head)
    buf[:end] = np.frombuffer(head, np.uint8)
    for i in range(0, len(columns[0]), step):
        text = _fields(np.column_stack([c[i:i + step] for c in columns]).ravel(), width)
        buf[end:end + text.size] = text
        end += text.size
    return str(memoryview(buf)[:end], "ascii")


def _fields(v, width):
    """The bytes of whole CSV rows of ``width`` fields holding the values
    v: '%.17g' text, then ',' or, at the end of a row, '\\n'."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e15)
    x, d = _decimal(np.where(fast, a, 1.0))
    # g[1:18]: the digits of d, from two 9-digit int32 halves; g[0] and g[18] pad
    g = np.empty((19, v.size), np.uint8)
    for part, top in zip(np.divmod(d, 10**9), (8, 17)):
        part = part.astype(np.int32)
        for i in range(top, top - 9, -1):
            rest = part // 10
            g[i] = part - 10 * rest
            part = rest
    g[0] = g[18] = _PAD
    digits = g[1:18]
    last = ((digits != 0) * _ROW[:17]).max(axis=0)
    digits += ord("0")
    # trailing zeros go, except in the integer part
    np.copyto(digits, _PAD, where=_ROW[:17] > np.maximum(x, last))
    t = np.empty((_SLOT, v.size), np.uint8)
    t[0] = np.where(v < 0.0, ord("-"), _PAD)
    t[1:6] = _PAD
    np.copyto(t[1:6], _LEAD, where=_ROW[:5] < np.where(x < 0, 1 - x, 0))
    # digit j stays in slot j up to the point; the rest move one slot on
    k = np.maximum(x, -1)
    t[6:24] = g[0:18]
    np.copyto(t[6:24], g[1:19], where=_ROW <= k)
    np.copyto(t[6:24], np.where((x >= 0) & (last > x), ord("."), _PAD).astype(np.uint8),
              where=_ROW == k + 1)
    t[24] = ord(",")
    t[24, width - 1::width] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%-24.17g" * slow.size) % tuple(v[slow].tolist())
        t[:_WIDE, slow] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, _WIDE).T
    out = np.ascontiguousarray(t.T)
    return out[out != _PAD]
