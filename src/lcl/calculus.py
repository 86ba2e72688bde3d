"""Quadrature and finite-difference helpers used by the condition checks.

Design notes:

* Antiderivatives are always anchored at an explicit lower limit. The
  classifier fits the remaining free constants instead of assuming they
  vanish.
* Derivatives of curvature data are taken numerically even when closed
  forms exist, so expression-based and sampled profiles share one code
  path: a classification samples the profile once per grid (the check
  grid and the trace grid) and grid_derivative differentiates those
  samples with 5-point stencils. First and second derivatives are 4th
  order, third derivatives 2nd order; the two points at each end of the
  grid use shifted stencils of the same width, so no value outside the
  grid is ever needed.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# 5-point Gauss-Legendre rule on [-1, 1]; degree-9 exactness per cell is
# far below roundoff for the step sizes used here. The values are those of
# numpy.polynomial.legendre.leggauss(5) to the last bit (tested), written
# out so that importing lcl does not load numpy.polynomial.
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663,
                        0.5688888888888887, 0.4786286704993663,
                        0.23692688505618928])


def gauss_segments(f: Callable, a, b) -> np.ndarray:
    """Vectorized 5-point Gauss integral of f over each [a_i, b_i].

    f must accept a 1-d ndarray of points. It returns one value per
    point, or several integrands stacked on a leading axis, which then
    leads the result too. a and b broadcast elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[None, ...] + half[None, ...] * _GL_NODES.reshape(
        (-1,) + (1,) * a.ndim)
    vals = np.asarray(f(pts.ravel()), dtype=float)
    vals = vals.reshape(vals.shape[:-1] + pts.shape)
    return half * np.tensordot(_GL_WEIGHTS, vals,
                               axes=(0, vals.ndim - pts.ndim))


def cumulative_integral(f: Callable, grid: np.ndarray) -> np.ndarray:
    """F[i] = integral of f from grid[0] to grid[i]; F[0] = 0.

    For an f that stacks several integrands (see gauss_segments), F[j, i]
    is the integral of the j-th one.
    """
    grid = np.asarray(grid, dtype=float)
    seg = gauss_segments(f, grid[:-1], grid[1:])
    out = np.zeros(seg.shape[:-1] + grid.shape)
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    return out


def make_cumulative(f: Callable, grid: np.ndarray):
    """Return (values_on_grid, at) for the anchored antiderivative of f.

    `at(x)` evaluates the same antiderivative at arbitrary points by
    adding a Gauss segment from the nearest grid point below, so nested
    integrands (integrals of integrals) stay cheap and accurate.
    """
    grid = np.asarray(grid, dtype=float)
    values = cumulative_integral(f, grid)

    def at(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(grid, x, side="right") - 1,
                      0, grid.shape[0] - 2)
        return values[idx] + gauss_segments(f, grid[idx], x)

    return values, at


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

    Interior points use the central 5-point stencil (4th order for first
    and second derivatives, 2nd order for third); the two points at each
    end fall back to shifted 5-point stencils of the same width.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 5:
        raise ValueError(f"need at least 5 samples, got {n}")
    if not (np.isfinite(h) and h > 0.0):
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
