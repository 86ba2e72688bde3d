"""Vectorized `'%.17g' % v` for float64 tables, byte for byte.

Each value v is written as a 17-digit integer D and a decimal exponent X
with |v| ~ D * 10**(X - 16), 10**16 <= D < 10**17, D rounded half to
even, as the correctly rounded `%.17g` conversion does. `%.17g` then
uses fixed notation for -4 <= X <= 16 and exponent notation otherwise,
and cuts trailing zeros after the point (and the point when nothing
follows it).

X is floor(log10|v|), and D comes from a double-double
|v| * 10**(16 - X) = hi + lo:

- 0 <= 16 - X <= 22: one TwoProduct (Dekker, Veltkamp split) against an
  exact power of ten, so hi + lo is exact. hi >= 2**53 is an even
  integer, so hi + rint(lo) rounds half to even.
- 16 - X > 22: a second TwoProduct of hi against 10**(16 - X - 22); the
  lo parts are combined inexactly, to about 1e-14 of a unit of D.
- 16 - X < 0: q = |v| / 10**(X - 16) with its exact remainder; lo is the
  remainder over the divisor, again inexact to about 1e-15.

Every value off this certain path is formatted by Python's own `%.17g`:
non-finite values, |v| outside [1e-28, 1e39), a value whose D would
fall outside [10**16, 10**17) (log10 put X one off next to a power of
ten, or v rounds up to one), and an inexact scaling within 1e-6 of a
rounding tie or at D = 10**16. Zero takes the fast path as D = 0, X = 0,
which lays out as "0" or "-0".

Each value gets a fixed cell of 29 bytes, [sign | prefix "0.000" |
17 digits with the point inserted | exponent suffix "e-05" |
separator], with NUL in the unused bytes; the cells are joined and the
NULs deleted.
"""
from __future__ import annotations

import numpy as np

_XMIN, _XMAX = -28, 38          # exponents on the fast path
_POW10 = np.array([float(10 ** k) for k in range(23)])  # all exact
_SPLIT = 134217729.0            # 2**27 + 1, Veltkamp's splitter
_TIE_GUARD = 1e-6
_D_MIN, _D_MAX = 10 ** 16, 10 ** 17
# a value's cell: sign, prefix, 18 body slots, suffix, separator
_PREFIX, _BODY, _SUFFIX = slice(1, 6), slice(6, 24), slice(24, 28)
_CELL = 29


def _layout_table() -> np.ndarray:
    """Per-exponent layout, column X - _XMIN for X in _XMIN.._XMAX.

    Rows: [0] body slot of the point, [1] most fraction digits that
    may be cut, [2] the point byte (NUL where the prefix holds it),
    [3:8] prefix, [8:12] exponent suffix; NUL padded.
    """
    rows = []
    for x in range(_XMIN, _XMAX + 1):
        if -4 <= x < 0:
            row = [17, 16, 0, *b"0." + b"0" * (-x - 1)]
        elif 0 <= x <= 16:
            row = [x + 1, 16 - x, ord(".")]
        else:
            row = [1, 16, ord("."), *b"\0" * 5, *b"e%+03d" % x]
        rows.append(row + [0] * (12 - len(row)))
    return np.array(rows, dtype=np.uint8).T.copy()


_LAYOUT = _layout_table()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo, each half 26 bits or fewer."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a * 10**k) and p + e = a * 10**k exactly, for
    0 <= k <= 22 (Dekker's TwoProduct)."""
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * (bh + bl)
    ah, al = _split(a)
    e = ah * bh
    e -= p
    e += ah * bl
    e += al * bh
    e += al * bl
    return p, e


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, ok) per value of the flat array v; where ok is False the
    value takes the `%.17g` fallback, and D is meaningless there."""
    a = np.abs(v)
    zero = a == 0.0
    normal = np.isfinite(a) & ~zero
    x = np.floor(np.log10(np.where(normal, a, 1.0))).astype(np.int64)
    fast = zero | normal & (x >= _XMIN) & (x <= _XMAX)
    a = np.where(fast, a, 1.0)
    x = np.where(fast, x, 0)

    p = 16 - x
    hi, lo = _times_pow10(a, np.clip(p, 0, 22))
    small = np.flatnonzero(p > 22)
    if small.size:
        k = p[small] - 22
        h2, l2 = _times_pow10(hi[small], k)
        lo[small] = l2 + lo[small] * _POW10.take(k)
        hi[small] = h2
    big = np.flatnonzero(p < 0)
    if big.size:
        ab, k = a[big], -p[big]
        d = _POW10.take(k)
        q = ab / d
        ph, pl = _times_pow10(q, k)
        hi[big] = q
        lo[big] = ((ab - ph) - pl) / d

    r = np.rint(lo)
    d = hi.astype(np.int64) + r.astype(np.int64)
    inexact = (p > 22) | (p < 0)
    ok = (d > _D_MIN) & (d < _D_MAX)
    ok |= (d == _D_MIN) & ~inexact & ((hi - 1e16) + lo >= 0.0)
    ok &= ~(inexact & (np.abs(np.abs(lo - r) - 0.5) < _TIE_GUARD))
    ok &= fast
    ok |= zero
    return d, x, ok


def format_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-d float64 array as `%.17g` fields, joined by ","
    and each ended by a newline: the bytes of
    `"".join(",".join("%.17g" % v for v in row) + "\\n" for row in table)`.
    """
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    n = v.size
    d, x, ok = _digits(v)
    lay = np.take(_LAYOUT, x - _XMIN, axis=1)
    ip, frac = lay[0], lay[1]

    # value-major rows throughout: cells[k] is byte k of every value's cell
    cells = np.zeros((_CELL, n), np.uint8)
    cells[0] = np.signbit(v) * np.uint8(ord("-"))
    cells[_PREFIX] = lay[3:8]
    cells[_SUFFIX] = lay[8:12]
    sep = cells[_CELL - 1].reshape(rows, cols)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")

    # 17 digits, most significant first, from two uint32 halves (numpy
    # divides those by a scalar quickly), counting on the way the zeros
    # that end digits 1..16 (all 16 of them for zero)
    dig = np.empty((17, n), np.uint8)
    high = d // 1_000_000_000
    low = (d - high * 1_000_000_000).astype(np.uint32)
    zeros = np.zeros(n, np.uint8)
    trailing = np.ones(n, bool)
    for part, span in ((low, range(16, 7, -1)),
                       (high.astype(np.uint32), range(7, -1, -1))):
        for j in span:
            q = part // 10
            np.subtract(part, q * 10, out=dig[j], casting="unsafe")
            part = q
            if j:
                trailing &= dig[j] == 0
                zeros += trailing
    dig += ord("0")

    # keep the first 17 - cut digits; body slot j holds digit j before
    # the point, the point at slot ip, digit j - 1 after it
    kept = 17 - np.minimum(zeros, frac)
    slot = np.arange(18, dtype=np.uint8)[:, None]
    body = cells[_BODY]
    np.multiply(dig, slot[:17] < np.minimum(ip, kept), out=body[:17])
    body[1:] += dig * ((slot[1:] > ip) & (slot[1:] <= kept))
    body += (lay[2] * (kept > ip)) * (slot == ip)

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array(["%.17g" % f for f in v[bad].tolist()],
                        dtype=f"S{_CELL - 1}")
        cells[:_CELL - 1, bad] = text.view(np.uint8).reshape(-1, _CELL - 1).T
    return np.ascontiguousarray(cells.T).tobytes().translate(None, b"\0")
