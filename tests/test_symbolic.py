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
