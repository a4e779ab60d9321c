"""``float.__repr__`` of a float64 block as a byte matrix, without a Python call per value.

``repr_matrix(x)`` returns a ``(len(x), WIDTH)`` ``uint8`` matrix whose row i
holds the bytes of ``repr(float(x[i]))``, left-aligned and NUL-padded, and
each row's length.  Three stages, all numpy integer arithmetic:

- *Digits.*  The shortest round-trip digits follow the common path of Ryū
  (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018) for a binary
  exponent e2 < 0, that is |x| < 2**54.  With S the 125-bit scaled 5**i of
  Ryū's table and P = m2*S, the value and its bounds are v = 4P >> j,
  v+ = (4P + 2S) >> j and v- = (4P - (1 + mmShift)S) >> j: two 64x64->128
  products per value, from 32-bit halves, and 192-bit sums with carries.
  Digits are dropped while v+ // 10 > v- // 10; the last one dropped rounds.
- *Layout.*  Python prints fixed notation for a decimal point position
  -4 < decpt <= 16, else d.ddde[+-]XX.  A table keyed on (sign, digit count,
  decpt or exponent form) lists each output byte's source in a 32-byte
  source row: ``NUL 0 . - e``, the exponent's sign and two digits, then the
  17 digits zero-padded on the left, eight ASCII digits to a ``uint64``
  (SWAR).  Each row is then one gather.
- *Fallback.*  These rows go through ``float.__repr__``: nan, infinities,
  subnormals, |x| >= 2**54, exact small dyadics that need Ryū's trailing-zero
  bookkeeping (q <= 1, or mv divisible by 2**q), three-digit exponents, and
  every row when ``sys.float_repr_style`` is not ``"short"``.  ``0.0`` and
  ``-0.0`` stay on the fast path.

Every constant in ``uint64`` arithmetic is an ``np.uint64``, so the results
are the same under numpy 1.x value-based casting and numpy 2 (NEP 50).
"""

from __future__ import annotations

import sys
from functools import cache

import numpy as np

# The longest repr of a float64: "-2.2250738585072014e-308".
WIDTH = 24
# Rows formatted at a time.  This bounds the temporaries: the gather index
# alone takes 192 B a row.
FORMAT_ROWS = 4096

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW5_BITCOUNT = 125
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_MAX_DIGITS = 17
_FORMS = 21  # decpt -3 .. 16 in fixed notation, then the exponent form
# Source row bytes: 0 NUL, 1 "0", 2 ".", 3 "-", 4 "e", 5 the exponent's
# sign, 6 and 7 its digits; 15 .. 31 the 17 digits, zero-padded on the left.
_SRC = 32


@cache
def _exponent_tables() -> dict:
    """Per biased exponent E, the operands of Ryū's e2 < 0 path, built once from Python ints.

    ``s0`` .. ``s3``: the 32-bit quarters of the 125-bit 5**i; ``w0``, ``w1``
    and ``t0``, ``t1``: the words of 5**i and of 2*5**i; ``down``, ``up``:
    j - 64 and 128 - j; ``e10``; and ``tz``, a mask whose zero AND with m2
    sends a value to the fallback.  An exponent outside the fast range
    (subnormals, |x| >= 2**54, nan and inf) has a zero mask.
    """
    t = {k: np.zeros(2048, dtype=np.uint64) for k in ("s0", "s1", "s2", "s3", "w0", "w1", "t0", "t1", "tz")}
    t["down"] = np.full(2048, 32, dtype=np.uint64)
    t["e10"] = np.zeros(2048, dtype=np.int64)
    for E in range(1, 1077):
        e2 = E - 1077
        q = ((-e2 * 732923) >> 20) - (-e2 > 1)
        i = -e2 - q
        bits = ((i * 1217359) >> 19) + 1
        s = 5**i << (_POW5_BITCOUNT - bits) if bits <= _POW5_BITCOUNT else 5**i >> (bits - _POW5_BITCOUNT)
        for k in range(4):
            t[f"s{k}"][E] = (s >> (32 * k)) & 0xFFFFFFFF
        t["w0"][E], t["w1"][E] = s & (2**64 - 1), s >> 64
        t["t0"][E], t["t1"][E] = (2 * s) & (2**64 - 1), (2 * s) >> 64
        t["down"][E] = q - (bits - _POW5_BITCOUNT) - 64
        t["e10"][E] = q + e2
        # mv = 4*m2 is divisible by 2**q iff m2 is by 2**(q - 2); m2 < 2**53
        t["tz"][E] = 0 if q <= 1 else (1 << min(q - 2, 53)) - 1
    t["up"] = _U(64) - t["down"]
    return t


@cache
def _layout_table() -> tuple:
    """Per layout key, each output byte's source and the row length; and word 0 of a source row per exponent."""
    index = np.zeros((2, _MAX_DIGITS + 1, _FORMS, WIDTH), dtype=np.intp)
    length = np.zeros((2, _MAX_DIGITS + 1, _FORMS), dtype=np.intp)
    for neg in (0, 1):
        for n in range(1, _MAX_DIGITS + 1):
            d = list(range(_SRC - n, _SRC))
            for f in range(_FORMS):
                decpt = f - 3
                out = [3] if neg else []
                if f == _FORMS - 1:
                    out += d[:1] + ([2] + d[1:] if n > 1 else []) + [4, 5, 6, 7]
                elif decpt <= 0:
                    out += [1, 2] + [1] * -decpt + d
                elif decpt < n:
                    out += d[:decpt] + [2] + d[decpt:]
                else:
                    out += d + [1] * (decpt - n) + [2, 1]
                index[neg, n, f, : len(out)] = out
                length[neg, n, f] = len(out)
    word0 = np.array(
        [int.from_bytes(b"\x000.-e" + f"{e:+03d}".encode(), "little") for e in range(-99, 100)],
        dtype=np.uint64,
    )
    return index.reshape(-1, WIDTH), length.reshape(-1), word0


def _mul64(a_lo, a_hi, b_lo, b_hi):
    """The 128-bit products of 64-bit operands given as 32-bit halves: (high, low) words."""
    ll, lh, hl, hh = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    return hh + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32)), (mid << _U(32)) | (ll & _M32)


def _digits(bits):
    """Shortest digits of float64 ``bits``: (digits, digit count, decpt, fast-path mask).

    The digits of a row outside the mask are meaningless; ``repr`` gives its bytes.
    """
    t = _exponent_tables()
    E = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    m = bits & _U((1 << 52) - 1)
    m2 = m | _U(1 << 52)
    zero = (E == 0) & (m == _U(0))
    fast = ((m2 & t["tz"][E]) != _U(0)) | zero
    m_lo, m_hi = m2 & _M32, m2 >> _U(32)
    h0, l0 = _mul64(m_lo, m_hi, t["s0"][E], t["s1"][E])
    h1, l1 = _mul64(m_lo, m_hi, t["s2"][E], t["s3"][E])
    # 4P for P = m2*S, as the words W2:W1:W0
    w1 = l1 + h0
    w2 = h1 + (w1 < h0)
    W0 = l0 << _U(2)
    W1 = (w1 << _U(2)) | (l0 >> _U(62))
    W2 = (w2 << _U(2)) | (w1 >> _U(62))
    # v+ from 4P + 2S; v- from 4P - 2S, or 4P - S for a zero mantissa (mmShift 0)
    T0, T1 = t["t0"][E], t["t1"][E]
    low = W0 + T0 < W0
    s1 = W1 + T1
    vp = (W2 + ((s1 < W1) | (s1 + low < low)), s1 + low)
    power2 = m == _U(0)
    M0 = np.where(power2, t["w0"][E], T0)
    M1 = np.where(power2, t["w1"][E], T1)
    low = W0 < M0
    d1 = W1 - M1
    vm = (W2 - ((W1 < M1) | (d1 < low)), d1 - low)
    down, up = t["down"][E], t["up"][E]
    vr, vp, vm = ((hi << up) | (lo >> down) for hi, lo in ((W2, W1), vp, vm))

    # v+ // 10**k > v- // 10**k holds for every k up to the count of digits
    # to drop: test k = 1, 2, 3 on the block (most values drop one to
    # three), then every k at once on the values still dropping.
    ten = _U(10)
    p, q = vp, vm
    removed = np.zeros(len(bits), dtype=np.intp)
    for _ in range(3):
        p, q = p // ten, q // ten
        removed += p > q
    at = np.flatnonzero(p > q)
    p, q = p[at], q[at]
    removed[at] += (p[:, None] // _POW10[1:] > q[:, None] // _POW10[1:]).sum(axis=1)
    some = removed > 0
    r = vr // _POW10[np.maximum(removed - 1, 0)]
    vr = np.where(some, r // ten, r)
    round_up = some & (r - vr * ten >= _U(5))
    out = vr + ((vr == vm // _POW10[removed]) | round_up)
    out[zero] = 0
    n = np.searchsorted(_POW10[1:], out, side="right") + 1
    decpt = t["e10"][E] + removed + n
    decpt[zero] = 1
    fast &= decpt > -99  # a two-digit exponent: decpt - 1 >= -99
    return out, n, decpt, fast & (sys.float_repr_style == "short")


def _ascii8(x):
    """Eight ASCII digits of each x < 10**8, most significant first, as little-endian words."""
    hi = x // _U(10_000)
    v = hi | ((x - hi * _U(10_000)) << _U(32))
    q = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F_0000007F)  # // 100 per 32-bit lane
    v = q | ((v - q * _U(100)) << _U(16))
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # // 10 per 16-bit lane
    v = q | ((v - q * _U(10)) << _U(8))
    return v | _U(0x30303030_30303030)


def _layout(neg, out, n, decpt) -> tuple:
    """The repr bytes and lengths of sign ``neg``, ``n`` digits ``out`` and decimal point ``decpt``."""
    index, length, word0 = _layout_table()
    rows = len(out)
    src = np.empty((rows, 4), dtype="<u8")
    src[:, 0] = word0[np.clip(decpt, -98, 100) + 98]
    top = out // _U(10**16)
    rest = out - top * _U(10**16)
    mid = rest // _U(10**8)
    src[:, 1] = (top + _U(ord("0"))) << _U(56)
    src[:, 2] = _ascii8(mid)
    src[:, 3] = _ascii8(rest - mid * _U(10**8))
    form = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, _FORMS - 1)
    key = (neg * (_MAX_DIGITS + 1) + n) * _FORMS + form
    gather = np.take(index, key, axis=0)
    gather += np.arange(0, rows * _SRC, _SRC)[:, None]
    return src.view(np.uint8).reshape(-1)[gather], length[key]


def repr_matrix(x) -> tuple:
    """The bytes of ``float.__repr__`` of each value of ``x``: a NUL-padded matrix and the lengths."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    mat = np.empty((len(x), WIDTH), dtype=np.uint8)
    lengths = np.empty(len(x), dtype=np.intp)
    for a in range(0, len(x), FORMAT_ROWS):
        b = min(a + FORMAT_ROWS, len(x))
        bits = x[a:b].view(np.uint64)
        out, n, decpt, fast = _digits(bits)
        mat[a:b], lengths[a:b] = _layout((bits >> _U(63)).astype(np.intp), out, n, decpt)
        slow = a + np.flatnonzero(~fast)
        if slow.size:
            texts = list(map(float.__repr__, x[slow].tolist()))
            mat[slow] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
            lengths[slow] = list(map(len, texts))
    return mat, lengths


def fallback_rows(x) -> np.ndarray:
    """Positions of the values of ``x`` whose bytes ``repr_matrix`` takes from ``float.__repr__``."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(-1)
    return np.flatnonzero(~_digits(x.view(np.uint64))[3])
