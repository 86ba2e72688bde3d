"""Moving tetrads (T, N, B1, B2) for the two curve families.

Both families are spacelike unit-speed curves whose frames contain null
vectors, so there is no orthonormality in the usual sense; each family has
its own target Gram matrix and its own first-order frame equations.

partially null:  N spacelike, B1 and B2 lightlike with g(B1, B2) = 1
pseudo null:     N lightlike,  B1 spacelike, B2 lightlike with g(N, B2) = 1
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .minkowski import SIGNS, Vec4

_SQRT2 = np.sqrt(2.0)


class FrameKind(Enum):
    PARTIALLY_NULL = "partially_null"
    PSEUDO_NULL = "pseudo_null"


# Distinct frame pairs (i <= j) in a fixed order; labels for reporting.
PAIR_INDICES = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1),
                (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
PAIR_LABELS = ("TT", "TN", "TB1", "TB2", "NN",
               "NB1", "NB2", "B1B1", "B1B2", "B2B2")


def gram_targets(kind: FrameKind) -> np.ndarray:
    """Target Gram matrix G[i,j] = g(V_i, V_j) for an exact frame."""
    g = np.zeros((4, 4))
    g[0, 0] = 1.0
    if kind is FrameKind.PARTIALLY_NULL:
        g[1, 1] = 1.0
        g[2, 3] = g[3, 2] = 1.0
    elif kind is FrameKind.PSEUDO_NULL:
        g[2, 2] = 1.0
        g[1, 3] = g[3, 1] = 1.0
    else:
        raise ValueError(f"unknown frame kind {kind!r}")
    return g


@dataclass(frozen=True)
class Frame:
    """One frame instance; rows of the matrix form are T, N, B1, B2."""

    T: Vec4
    N: Vec4
    B1: Vec4
    B2: Vec4

    def to_matrix(self) -> np.ndarray:
        return np.stack([self.T.to_array(), self.N.to_array(),
                         self.B1.to_array(), self.B2.to_array()])

    @classmethod
    def from_matrix(cls, m) -> "Frame":
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4 x 4 matrix, got shape {m.shape}")
        return cls(*(Vec4.from_array(row) for row in m))


@dataclass(frozen=True)
class GramResidual:
    """Absolute deviations |g(V_i, V_j) - target| for the ten pairs."""

    tt: float
    tn: float
    tb1: float
    tb2: float
    nn: float
    nb1: float
    nb2: float
    b1b1: float
    b1b2: float
    b2b2: float

    def as_dict(self) -> dict:
        vals = (self.tt, self.tn, self.tb1, self.tb2, self.nn,
                self.nb1, self.nb2, self.b1b1, self.b1b2, self.b2b2)
        return dict(zip(PAIR_LABELS, vals))

    def max_entry(self) -> float:
        return max(self.as_dict().values())


def canonical_frame(kind: FrameKind) -> Frame:
    """Fixed reference frame satisfying the family Gram constraints exactly."""
    if kind is FrameKind.PARTIALLY_NULL:
        return Frame(
            T=Vec4(0.0, 1.0, 0.0, 0.0),
            N=Vec4(0.0, 0.0, 1.0, 0.0),
            B1=Vec4(1.0 / _SQRT2, 0.0, 0.0, 1.0 / _SQRT2),
            B2=Vec4(-1.0 / _SQRT2, 0.0, 0.0, 1.0 / _SQRT2),
        )
    if kind is FrameKind.PSEUDO_NULL:
        return Frame(
            T=Vec4(0.0, 0.0, 1.0, 0.0),
            N=Vec4(1.0, 1.0, 0.0, 0.0),
            B1=Vec4(0.0, 0.0, 0.0, 1.0),
            B2=Vec4(-0.5, 0.5, 0.0, 0.0),
        )
    raise ValueError(f"unknown frame kind {kind!r}")


def gram_matrix(frame_matrix: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows of a (..., 4, 4) stack under g."""
    f = np.asarray(frame_matrix, dtype=float)
    return (f * SIGNS) @ np.swapaxes(f, -1, -2)


def gram_residual(frame: Frame, kind: FrameKind) -> GramResidual:
    dev = np.abs(gram_matrix(frame.to_matrix()) - gram_targets(kind))
    return GramResidual(*(dev[i, j] for i, j in PAIR_INDICES))


def frenet_matrix(kappa, tau, sigma, kind: FrameKind) -> np.ndarray:
    """Coefficient matrix A with (T,N,B1,B2)' = A (T,N,B1,B2).

    Broadcasts over array curvatures, returning (..., 4, 4); scalar
    curvatures give one 4 x 4 matrix.
    """
    if kind not in (FrameKind.PARTIALLY_NULL, FrameKind.PSEUDO_NULL):
        raise ValueError(f"unknown frame kind {kind!r}")
    k, t, sg = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                     for x in (kappa, tau, sigma)))
    m = np.zeros(k.shape + (4, 4))
    m[..., 0, 1] = k
    if kind is FrameKind.PARTIALLY_NULL:
        m[..., 1, 0] = -k
        m[..., 1, 2] = t
        m[..., 2, 2] = sg
        m[..., 3, 1] = -t
        m[..., 3, 3] = -sg
    else:
        m[..., 1, 2] = t
        m[..., 2, 1] = sg
        m[..., 2, 3] = -t
        m[..., 3, 0] = -k
        m[..., 3, 2] = -sg
    return m


def frenet_rhs(frame: Frame, kappa: float, tau: float, sigma: float,
               kind: FrameKind) -> Frame:
    """Frame derivative at one parameter value.

    Pseudo null curves are normalized to kappa = 1; other values are let
    through with a warning so off-family experiments stay possible.
    """
    if kind is FrameKind.PSEUDO_NULL and abs(float(kappa) - 1.0) > 1e-9:
        warnings.warn(f"pseudo null frame expects kappa = 1, got {kappa}",
                      stacklevel=2)
    rhs = frenet_matrix(kappa, tau, sigma, kind) @ frame.to_matrix()
    return Frame.from_matrix(rhs)
