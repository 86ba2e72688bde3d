"""Quadrature and finite-difference helpers used by the condition checks.

Design notes:

* Antiderivatives are always anchored at an explicit lower limit. The
  classifier fits the remaining free constants instead of assuming they
  vanish.
* Derivatives of curvature data are taken numerically even when closed
  forms exist, so expression-based and sampled profiles share one code
  path. First and second derivatives use 4th-order stencils, third
  derivatives a 2nd-order stencil; near a domain edge the stencil shifts
  inside.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

# 5-point Gauss-Legendre rule on [-1, 1]; degree-9 exactness per cell is
# far below roundoff for the step sizes used here.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)

DEFAULT_ABS_TOL = 1e-10
DEFAULT_FD_SCALE = 1e-4


def antiderivative(f: Callable, s0: float, s1: float,
                   abs_tol: float = DEFAULT_ABS_TOL) -> float:
    """Adaptive integral of f from s0 to s1; antisymmetric in the limits.

    Raises QuadratureError (carrying the best estimate) when the adaptive
    scheme reports non-convergence or the estimate is not finite.
    scipy is imported here, on first call, so `import lcl` does not load it.
    """
    from scipy.integrate import quad

    res = quad(f, s0, s1, epsabs=abs_tol, epsrel=1e-12,
               limit=200, full_output=1)
    value = res[0]
    if len(res) > 3 or not np.isfinite(value):
        detail = res[3].strip() if len(res) > 3 else "non-finite estimate"
        raise QuadratureError(f"quadrature did not converge: {detail}",
                              best_estimate=value)
    return float(value)


def gauss_segments(f: Callable, a, b) -> np.ndarray:
    """Vectorized 5-point Gauss integral of f over each [a_i, b_i].

    f must accept ndarray input. a and b broadcast elementwise.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[None, ...] + half[None, ...] * _GL_NODES.reshape(
        (-1,) + (1,) * a.ndim)
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    return half * np.tensordot(_GL_WEIGHTS, vals, axes=(0, 0))


def cumulative_integral(f: Callable, grid: np.ndarray) -> np.ndarray:
    """F[i] = integral of f from grid[0] to grid[i]; F[0] = 0."""
    grid = np.asarray(grid, dtype=float)
    seg = gauss_segments(f, grid[:-1], grid[1:])
    out = np.empty(grid.shape[0])
    out[0] = 0.0
    np.cumsum(seg, out=out[1:])
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


def _stencil_weights(offsets, order: int) -> np.ndarray:
    """Weights w with sum_j w_j f(s + o_j h) ~= h^order f^(order)(s)."""
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.shape[0]
    a = np.vander(offsets, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(a, rhs)


# central 5-point weights, precomputed
_CENTRAL = {order: _stencil_weights(np.arange(-2, 3), order)
            for order in (1, 2, 3)}


def pointwise_derivative(f: Callable, s: np.ndarray, order: int = 1,
                         step: float | None = None,
                         domain: tuple[float, float] | None = None
                         ) -> np.ndarray:
    """Vectorized stencil derivative of a callable at many points.

    Default step is 1e-4 * (1 + |s|). With `domain` given, the 5-point
    stencil shifts to stay inside [domain[0], domain[1]], and a domain
    narrower than four steps shrinks the step to a quarter of its width.
    Points sharing the same stencil shift are evaluated in one batch, so f
    only needs a handful of array calls.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2, or 3, got {order}")
    s = np.asarray(s, dtype=float)
    h = step if step is not None else DEFAULT_FD_SCALE * (1.0 + np.abs(s))
    h = np.broadcast_to(np.asarray(h, dtype=float), s.shape).copy()
    shifts = np.zeros(s.shape)
    if domain is not None:
        lo, hi = domain
        tight = (hi - lo) < 4.0 * h
        h[tight] = (hi - lo) / 4.0
        up = np.ceil((lo - (s - 2.0 * h)) / h)
        down = np.floor((hi - (s + 2.0 * h)) / h)
        shifts = np.where(up > 0, up, np.minimum(down, 0.0))
    out = np.empty(s.shape)
    for shift in np.unique(shifts):
        mask = shifts == shift
        offsets = np.arange(-2, 3, dtype=float) + shift
        weights = _CENTRAL[order] if shift == 0 else _stencil_weights(offsets, order)
        pts = s[mask][None, :] + offsets[:, None] * h[mask][None, :]
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        out[mask] = (weights @ vals) / h[mask]**order
    return out


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
    center = _CENTRAL[order]
    for j, w in enumerate(center):
        out[2:n - 2] += w * values[j:n - 4 + j]
    for i, shift in ((0, 2.0), (1, 1.0), (n - 2, -1.0), (n - 1, -2.0)):
        w = _stencil_weights(np.arange(-2, 3, dtype=float) + shift, order)
        lo = i + int(shift) - 2
        out[i] = np.tensordot(w, values[lo:lo + 5], axes=(0, 0))
    return out / h**order
