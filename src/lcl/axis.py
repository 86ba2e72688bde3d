"""Axis candidates and the validator for the slant-helix definition.

A curve is a k-type slant helix when some fixed nonzero vector U pairs
constantly with the (k+1)-th frame vector. Constructions express U in
moving-frame coefficients (u1, u2, u3, u4); assembling those against a
trace must then give an ambient vector that does not move. Validation
checks exactly that, plus constancy of the defining pairing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .calculus import grid_derivative
from .errors import GridMismatchError
from .fits import Tolerances
from .integrator import CurveTrace
from .minkowski import pairing, row_norm


class AxisCandidate(NamedTuple):
    """Candidate axis sampled on a trace grid.

    k is the slant-helix order (pairing partner is frame row k), source
    names the construction that produced the candidate, coeffs holds the
    frame coefficients (n, 4), and U the assembled ambient vectors (n, 4).
    """

    k: int
    source: str
    s: np.ndarray
    coeffs: np.ndarray
    U: np.ndarray

    def u_at_start(self) -> np.ndarray:
        return self.U[0]


def assemble_axis(trace: CurveTrace, k: int, source: str,
                  u1, u2, u3, u4) -> AxisCandidate:
    """Build U(s_i) = u1 T + u2 N + u3 B1 + u4 B2 on the trace grid.

    Coefficients may be scalars or arrays of length trace.n.
    """
    n = trace.n
    coeffs = np.empty((n, 4))
    for col, u in enumerate((u1, u2, u3, u4)):
        coeffs[:, col] = u
    u_ambient = np.einsum("nj,njc->nc", coeffs, trace.frames)
    return AxisCandidate(k=int(k), source=source, s=trace.s,
                         coeffs=coeffs, U=u_ambient)


class AxisValidation(NamedTuple):
    max_du: float          # max interior ||dU/ds||_euclid
    g_mean: float          # mean of g(V_{k+1}, U)
    g_variance: float
    scale: float           # max ||U||_euclid over the grid
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "max_dU": self.max_du,
            "g_mean": self.g_mean,
            "g_variance": self.g_variance,
            "validated": self.passed,
        }


def validate_axis(trace: CurveTrace, candidate: AxisCandidate,
                  eps_axis: float = Tolerances().eps_axis) -> AxisValidation:
    """Check that the candidate is constant and pairs constantly.

    Pass requires max ||dU/ds|| < eps_axis * (1 + max ||U||) over the
    interior grid and variance of g(V_{k+1}, U) below eps_axis^2. Both
    metrics are invariant under rescaling U.
    """
    if candidate.U.shape[0] != trace.n:
        raise GridMismatchError(
            f"candidate sampled on {candidate.U.shape[0]} points, "
            f"trace has {trace.n}")
    # every built candidate carries trace.s itself; only another array
    # needs its values compared
    if candidate.s is not trace.s and not np.array_equal(candidate.s, trace.s):
        raise GridMismatchError(
            f"candidate sampled on another grid of {trace.n} points")
    if trace.n < 7:
        raise GridMismatchError("trace too short to validate an axis")
    du = grid_derivative(candidate.U, trace.h, order=1)
    max_du = float(row_norm(du[2:-2]).max())
    g_vals = pairing(trace.frames[:, candidate.k, :], candidate.U)
    g_mean = float(g_vals.mean())
    g_var = float(g_vals.var())
    scale = float(row_norm(candidate.U).max())
    passed = (max_du < eps_axis * (1.0 + scale)) and (g_var < eps_axis**2)
    return AxisValidation(max_du=max_du, g_mean=g_mean, g_variance=g_var,
                          scale=scale, passed=passed)
