"""Quadrature and finite-difference helpers used by the condition checks.

Design notes:

* Antiderivatives are always anchored at an explicit lower limit. The
  classifier fits the remaining free constants instead of assuming they
  vanish.
* Derivatives of curvature data are taken numerically even when closed
  forms exist, so expression-based and sampled profiles share one code
  path: a classification samples the profile once, on its integration
  lattice, and grid_derivative differentiates those samples with 5-point
  stencils of 4th order (first and second derivatives); the two points
  at each end of the grid use shifted stencils of the same width, so no
  value outside the grid is ever needed.
* Integrals read the integrand at the Gauss nodes of each grid cell only:
  grid_integrals gives the antiderivative on the grid, and node_integrals
  at those nodes, for an integrand that holds an integral itself.
"""

from __future__ import annotations

import functools
import math

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


# [j, m]: integral from -1 to node j of the degree-4 Lagrange polynomial of
# node m, i.e. the integrals of t^q, q = 0..4, times inverse Vandermonde x_m^q
# (tested), written out: a LAPACK call at import would raise the peak RSS
# of every process (by ~0.6 MB with OpenBLAS).
_GL_ANTIDERIVATIVE = np.array([
    [0.11846344252809458, -0.03914072871815205, 0.022508801637285938,
     -0.011187587321624398, 0.003176225935732003],
    [0.25630201134009056, 0.23931433524968332, -0.049184229239284324,
     0.02063656134136667, -0.005537988797539162],
    [0.22755257600844922, 0.5200093033612834, 0.2844444444444449,
     -0.041380632861916705, 0.009374309047739884],
    [0.24246487385372828, 0.45799210915800015, 0.6180731181281738,
     0.23931433524968326, -0.019375126283901475],
    [0.23375065912045706, 0.4898162578209912, 0.5463800872516034,
     0.5177693992175187, 0.11846344252809454]])


def gauss_nodes(grid: np.ndarray) -> np.ndarray:
    """The 5 Gauss nodes of each cell [grid[i], grid[i+1]], shape (5, n - 1)."""
    grid = np.asarray(grid, dtype=float)
    a, b = grid[:-1], grid[1:]
    return 0.5 * (a + b)[None, :] + 0.5 * (b - a)[None, :] * _GL_NODES[:, None]


def grid_integrals(values, grid: np.ndarray) -> np.ndarray:
    """F on the grid for F, the integral of f from grid[0].

    values is f at gauss_nodes(grid), shape (..., 5, n - 1); a leading axis
    stacks integrands. F sums the 5-point Gauss rule of each cell.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    half = 0.5 * (grid[1:] - grid[:-1])
    seg = half * np.tensordot(_GL_WEIGHTS, values, axes=(0, values.ndim - 2))
    on_grid = np.zeros(seg.shape[:-1] + grid.shape)
    np.cumsum(seg, axis=-1, out=on_grid[..., 1:])
    return on_grid


def node_integrals(values, grid: np.ndarray,
                   on_grid: np.ndarray) -> np.ndarray:
    """F at gauss_nodes(grid), given on_grid = grid_integrals(values, grid).

    At a node it adds to F(grid[i]) the integral up to the node of the
    degree-4 interpolant through the cell's node values (a fixed 5x5
    matrix); the result has the shape of values.
    """
    grid = np.asarray(grid, dtype=float)
    half = 0.5 * (grid[1:] - grid[:-1])
    return on_grid[..., None, :-1] + half * (_GL_ANTIDERIVATIVE @ values)


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
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
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
