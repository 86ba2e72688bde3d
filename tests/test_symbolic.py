"""Symbolic certificates for closed forms the numerics rely on."""

import sympy as sp

from lcl.frames import FrameKind, frame_family


def test_h3_type3_axis_is_constant():
    # sigma = c tau, tau = v/sqrt(1 - c^2 v^2) with c v'' + v = 0, the
    # "h3-type3" generator row: U = -c v T + sqrt(1 - c^2 v^2) B1 - c v' B2
    # has coefficients u with u' + u A = 0; with no N coefficient it pairs
    # with B2 at zero
    s = sp.Symbol("s", real=True)
    c = sp.Symbol("c", negative=True)
    v = sp.Function("v")(s)
    root = sp.sqrt(1 - c**2 * v**2)
    tau = v / root
    curvatures = (sp.Integer(1), tau, c * tau)
    a = sp.zeros(4, 4)
    for row, col, k, sign in frame_family(FrameKind.PSEUDO_NULL).pattern:
        a[row, col] = sign * curvatures[k]
    u = sp.Matrix([[-c * v, 0, root, -c * v.diff(s)]])
    drift = (u.diff(s) + u * a).subs(v.diff(s, 2), -v / c)
    assert [sp.simplify(x) for x in drift] == [0, 0, 0, 0]


def test_psn_2_type_identity_integrated_twice():
    # psn_type2_check fits R = q T + int sigma + int int T + c (q + x^2/2)
    # - A x - B = 0. Written with P = int sigma and W = int int T (so
    # sigma = P', T = W'', tau = T'), R'' is the identity
    # I + (sigma + (q I)')' with I = c + T, and R' = int I + sigma + (q I)'
    # - A, whose vanishing gives the 2-type axis's T coefficient
    # -(sigma + (q I)') = int I - A
    s, s0, c, a, b = sp.symbols("s s0 c A B", real=True)
    p_int, w = sp.Function("P")(s), sp.Function("W")(s)
    sigma, t = p_int.diff(s), w.diff(s, 2)
    q = sigma / t.diff(s)
    x = s - s0
    i = c + t
    r = q * t + p_int + w + c * (q + x**2 / 2) - a * x - b
    identity = i + (sigma + (q * i).diff(s)).diff(s)
    assert sp.simplify(r.diff(s, 2) - identity) == 0
    int_i = c * x + w.diff(s)
    assert sp.simplify(r.diff(s) - (int_i + sigma + (q * i).diff(s) - a)) == 0
