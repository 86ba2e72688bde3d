"""The vectorized CSV formatter against Python's `'%.17g' % v`, value by value."""

from decimal import Decimal

import numpy as np
import pytest

from lcl._format17g import _digits, format_rows


def _assert_matches_percent_format(values, cols=7):
    values = np.asarray(values, dtype=float).reshape(-1)
    pad = -values.size % cols
    table = np.concatenate([values, np.ones(pad)]).reshape(-1, cols)
    text = format_rows(table).decode("ascii")
    assert text.endswith("\n")
    got = [line.split(",") for line in text.split("\n")[:-1]]
    want = [["%.17g" % v for v in row] for row in table.tolist()]
    assert got == want


def _around(x, steps=2):
    """x and its `steps` nearest doubles on either side."""
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def test_random_bit_patterns_cover_every_exponent():
    # uniform bits: every binary exponent, subnormals, inf and nan
    bits = np.random.default_rng(15).integers(0, 2 ** 64, 40_000,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    _assert_matches_percent_format(values)
    # log-uniform magnitudes, so the fast path's exponents get most of them
    rng = np.random.default_rng(16)
    mags = 10.0 ** rng.uniform(-30.0, 40.0, 40_000)
    _assert_matches_percent_format(np.where(rng.random(mags.size) < 0.5,
                                            -mags, mags))


def test_signed_zeros():
    _assert_matches_percent_format([0.0, -0.0], cols=2)
    assert format_rows(np.array([[0.0, -0.0]])) == b"0,-0\n"


def test_notation_switch_overs_and_scaling_edges():
    # X = -5/-4 and 16/17 switch notation; 10**X scaled by 10**(16 - X)
    # lands on the 1e16 and 1e17 edges of the digit range
    values = []
    for k in range(-32, 42):
        for x in (10.0 ** k, float(Decimal(10) ** k)):
            values += _around(x) + _around(9.999999999999999 * x)
    values += _around(1e16) + _around(1e17) + _around(2.0 ** 53)
    _assert_matches_percent_format(values)


def test_values_just_under_a_power_of_ten_round_up():
    # doubles below 10**k that print as 10**k at 17 digits
    round_up = []
    for k in range(-32, 42):
        below = float(Decimal(10) ** k)
        while Decimal(below) >= Decimal(10) ** k:
            below = float(np.nextafter(below, 0.0))
        if ("%.17g" % below).lstrip("0.").startswith("1"):
            round_up.append(below)
    assert 1e-14 in round_up
    _assert_matches_percent_format(round_up + [-v for v in round_up])


def _ties():
    """Doubles whose exact decimal value has 18 significant digits ending
    in 5: v = m / 2**s with m odd and m * 5**s of 18 digits."""
    rng = np.random.default_rng(17)
    out = []
    for s in range(2, 26):
        lo = -(-10 ** 17 // 5 ** s)
        hi = min(10 ** 18 // 5 ** s, 2 ** 53)
        for m in rng.integers(lo, hi, 4):
            m = int(m) | 1
            v = m / 2 ** s
            digits = Decimal(v).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                out.append(v)
    return out


def test_exact_ties_round_half_to_even():
    ties = _ties()
    assert len(ties) > 60
    # from X = 15 down to X = -6 the exact scaling rounds them itself
    _, _, ok = _digits(np.array(ties))
    assert ok[np.array(ties) > 1e-6].all()
    _assert_matches_percent_format(ties + [-t for t in ties])
    assert format_rows(np.array([[1234567890123456.75]])) == \
        b"1234567890123456.8\n"


def test_values_off_the_certain_path_fall_back():
    fallback = [np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                1e-300, 1e-29, 1e39, 1e300, 1.7976931348623157e308]
    # an 18-digit tie at X = -8 is scaled inexactly, so the guard sends
    # it to the fallback
    fallback += [t for t in _ties() if t < 1e-6]
    _, _, ok = _digits(np.array(fallback))
    assert not ok.any()
    _assert_matches_percent_format(fallback)
