"""Quadrature and finite-difference helpers.

Design notes:

* Antiderivatives are always anchored at an explicit lower limit. The
  classifier fits the remaining free constants instead of assuming they
  vanish.
* Expression-based and sampled profiles share one code path: a
  classification samples the profile once, on its integration lattice,
  and its checks and axis builders integrate those samples and never
  differentiate them; a sampled table need not have the derivatives a
  stencil would read.
* grid_derivative differentiates uniformly sampled values with 5-point
  stencils of 4th order (first and second derivatives); the two points
  at each end of the grid use shifted stencils of the same width, so no
  value outside the grid is ever needed. Axis validation differentiates
  a candidate with it, and resample_curvatures the frames.
* Integrals read the integrand on the same half-step lattice:
  lattice_integral is Simpson's rule over each integration step, the rule
  RK4 reduces to for a pure quadrature, with the half cells filled in by
  the quadratic through the cell's three values, so an integrand that
  holds an integral itself (the oscillator phase of the partially null
  2-type axis, the torsion integral that the pseudo null 2-type check
  integrates again) needs no other point.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def lattice_integral(values, h: float) -> np.ndarray:
    """F on the half-step lattice s_min + i*h/2 for F, the integral of f
    from s_min.

    values is f on the lattice, last axis 2n - 1; leading axes stack
    integrands. Each cell [s_i, s_i + h] adds Simpson's rule
    h/6 (f0 + 4 fm + f1) at the even points, which is what RK4 makes of
    y' = f(s), and each midpoint adds h/24 (5 f0 + 8 fm - f1) to the even
    point before it: the integral over the half cell of the quadratic
    through the cell's three values.
    """
    values = np.asarray(values, dtype=float)
    f0, fm, f1 = values[..., 0:-1:2], values[..., 1::2], values[..., 2::2]
    out = np.zeros(values.shape)
    np.cumsum(h / 6.0 * (f0 + 4.0 * fm + f1), axis=-1, out=out[..., 2::2])
    out[..., 1::2] = out[..., 0:-1:2] + h / 24.0 * (5.0 * f0 + 8.0 * fm - f1)
    return out


@functools.cache
def _stencil_weights(order: int, shift: int) -> np.ndarray:
    """Weights w with sum_j w_j f(s + o_j h) ~= h^order f^(order)(s).

    The offsets are o = (-2, -1, 0, 1, 2) + shift. Each (order, shift) pair
    is solved once and the shared result is read-only.
    """
    offsets = np.arange(-2, 3, dtype=float) + shift
    a = np.vander(offsets, 5, increasing=True).T
    rhs = np.zeros(5)
    rhs[order] = math.factorial(order)
    weights = np.linalg.solve(a, rhs)
    weights.flags.writeable = False
    return weights


def grid_derivative(values: np.ndarray, h: float, order: int = 1) -> np.ndarray:
    """Stencil derivative of uniformly sampled values along axis 0.

    Interior points use the central 5-point stencil, 4th order for the
    first (order=1) and second (order=2) derivative; the two points at
    each end fall back to shifted 5-point stencils of the same width.
    h must be a real number, positive and finite (not a bool or a
    string), else ValueError.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 5:
        raise ValueError(f"need at least 5 samples, got {n}")
    step = np.asarray(h)
    if step.ndim or step.dtype.kind not in "fiu" or not (
            np.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be positive and finite, got {h!r}")
    out = np.zeros_like(values)
    for j, w in enumerate(_stencil_weights(order, 0)):
        out[2:n - 2] += w * values[j:n - 4 + j]
    # edge rows: the (1, 5) x (5, rest) product tensordot would make
    flat = values.reshape(n, -1)
    for i, shift in ((0, 2), (1, 1), (n - 2, -1), (n - 1, -2)):
        w = _stencil_weights(order, shift)
        lo = i + shift - 2
        out[i] = np.dot(w[None, :], flat[lo:lo + 5]).reshape(values.shape[1:])
    return out / h**order
