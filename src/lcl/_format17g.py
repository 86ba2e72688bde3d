"""Vectorized `'%.17g' % v` for float64 tables, byte for byte.

Each value v is written as a 17-digit integer D and a decimal exponent X
with |v| ~ D * 10**(X - 16), 10**16 <= D < 10**17, D rounded half to
even, as the correctly rounded `%.17g` conversion does. `%.17g` then
uses fixed notation for -4 <= X <= 16 and exponent notation otherwise,
and cuts trailing zeros after the point (and the point when nothing
follows it).

X is floor(log10|v|), and D comes from a double-double
|v| * 10**(16 - X) = hi + lo:

- 0 <= 16 - X <= 22: one TwoProduct (Dekker, Numer. Math. 18, 1971;
  Veltkamp split) against an exact power of ten, so hi + lo is exact.
  hi >= 2**53 is an even integer, so hi + rint(lo) rounds half to even.
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
NULs deleted. The cost is the number of whole-array passes, not the
arithmetic: the rare paths (two-step and divided scalings, the tie and
10**16 guards) run on their own values only, the layout of each value
is one gathered record, and the digits kept are one max-reduction.
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
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
# digit j of 1..16 weighted by j + 1, the digits kept when it is the
# last nonzero one
_LAST = np.arange(2, 18, dtype=np.uint8)[:, None]


def _layout_table() -> np.ndarray:
    """Per-exponent layout records, row X - _XMIN for X in _XMIN.._XMAX.

    Bytes: [0] body slot of the point, [1] fewest digits kept, [2:7]
    prefix, [7:11] exponent suffix; NUL padded to 16 bytes, so that one
    gather fetches a value's record. The point is written only where
    digits follow it, which never happens when the prefix holds it
    (slot 17).
    """
    rows = []
    for x in range(_XMIN, _XMAX + 1):
        if -4 <= x < 0:
            row = [17, 1, *b"0." + b"0" * (-x - 1)]
        elif 0 <= x <= 16:
            row = [x + 1, x + 1]
        else:
            row = [1, 1, *b"\0" * 5, *b"e%+03d" % x]
        rows.append(row + [0] * (16 - len(row)))
    return np.array(rows, dtype=np.uint8)


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
    p = a * _POW10.take(k)
    ah, al = _split(a)
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    np.multiply(al, bh, out=ah)
    e += ah
    al *= bl
    e += al
    return p, e


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, ok) per value of the flat array v; where ok is False the
    value takes the `%.17g` fallback, and D is meaningless there."""
    a = np.abs(v)
    zero = a == 0.0
    with np.errstate(divide="ignore"):
        x = np.log10(a)
    np.floor(x, out=x)
    # NaN, inf and zero (log10 -inf) fail both; every value off the fast
    # path is scaled as a zero, and D = 0 keeps it off
    off = ~((x >= _XMIN) & (x <= _XMAX))
    np.copyto(a, 0.0, where=off)
    np.copyto(x, 0.0, where=off)
    x = x.astype(np.int64)

    p = 16 - x
    hi, lo = _times_pow10(a, np.clip(p, 0, 22))
    inexact = np.flatnonzero(p.view(np.uint64) > 22)
    small = inexact[p[inexact] > 22]
    if small.size:
        k = p[small] - 22
        h2, l2 = _times_pow10(hi[small], k)
        lo[small] = l2 + lo[small] * _POW10.take(k)
        hi[small] = h2
    big = inexact[p[inexact] < 0]
    if big.size:
        ab, k = a[big], -p[big]
        d = _POW10.take(k)
        q = ab / d
        ph, pl = _times_pow10(q, k)
        hi[big] = q
        lo[big] = ((ab - ph) - pl) / d

    r = np.rint(lo)
    d = hi.astype(np.int64)
    d += r.astype(np.int64)
    ok = (d > _D_MIN) & (d < _D_MAX)
    edge = np.flatnonzero(d == _D_MIN)
    if edge.size:
        ok[edge] = ((hi[edge] - 1e16) + lo[edge] >= 0.0) \
            & (p[edge].view(np.uint64) <= 22)
    tie = np.abs(np.abs(lo[inexact] - r[inexact]) - 0.5) < _TIE_GUARD
    ok[inexact[tie]] = False
    ok |= zero
    return d, x, ok


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The 17 digits of every D, most significant first, as (17, n)
    uint8, from two uint32 halves (numpy divides those by a scalar
    quickly) and one reused quotient buffer."""
    n = d.size
    dig = np.empty((17, n), np.uint8)
    high = d // 1_000_000_000
    low = (d - high * 1_000_000_000).astype(np.uint32)
    q, tens = np.empty(n, np.uint32), np.empty(n, np.uint32)
    for part, span in ((low, range(16, 7, -1)),
                       (high.astype(np.uint32), range(7, -1, -1))):
        for j in span:
            np.floor_divide(part, 10, out=q)
            np.multiply(q, 10, out=tens)
            np.subtract(part, tens, out=dig[j], casting="unsafe")
            part, q = q, part
    return dig


def _fill_body(body: np.ndarray, d: np.ndarray, ip: np.ndarray,
               keep: np.ndarray) -> None:
    """Write the 18 body slots of every value: digit j of D at slot j
    before the point, the point at slot ip, digit j - 1 at slot j after
    it. Trailing zeros after the point are cut, and the point with them
    when nothing follows it; keep is the fewest digits kept."""
    dig = _digit_rows(d)
    # one work block for every mask, used as bool and as uint8 (a
    # product with a bool mask would cast it)
    m = np.empty(body.shape, np.uint8)
    mask = m.view(bool)
    np.not_equal(dig[1:], 0, out=mask[1:17])
    m[1:17] *= _LAST
    kept = np.maximum(m[1:17].max(axis=0), keep)
    dig += ord("0")

    before = np.minimum(ip, kept)
    np.less(_SLOT[:17], before, out=mask[:17])
    np.multiply(dig, m[:17], out=body[:17])
    body[17] = 0
    # slot j > ip holds digit j - 1 while j <= kept: j - ip - 1, wrapped
    # as uint8, is below kept - ip
    np.subtract(_SLOT[1:], ip + 1, out=m[1:])
    np.less(m[1:], kept - before, out=mask[1:])
    m[1:] *= dig
    body[1:] += m[1:]
    np.equal(_SLOT, ip, out=mask)
    m *= (kept > ip) * np.uint8(ord("."))
    body += m


def format_rows(table: np.ndarray) -> bytes:
    """The rows of a 2-d float64 array as `%.17g` fields, joined by ","
    and each ended by a newline: the bytes of
    `"".join(",".join("%.17g" % v for v in row) + "\\n" for row in table)`.
    """
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    n = v.size
    d, x, ok = _digits(v)

    # value-major rows throughout: cells[k] is byte k of every value's cell
    cells = np.empty((_CELL, n), np.uint8)
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=cells[0])
    lay = np.take(_LAYOUT, x - _XMIN, axis=0).T
    cells[_PREFIX] = lay[2:7]
    cells[_SUFFIX] = lay[7:11]
    sep = cells[_CELL - 1].reshape(rows, cols)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    # contiguous copies, so that the records are freed before the body's
    # work block is allocated
    ip, keep = lay[:2].copy()
    del lay
    _fill_body(cells[_BODY], d, ip, keep)

    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array(["%.17g" % f for f in v[bad].tolist()],
                        dtype=f"S{_CELL - 1}")
        cells[:_CELL - 1, bad] = text.view(np.uint8).reshape(-1, _CELL - 1).T
    return cells.T.tobytes().translate(None, b"\0")
