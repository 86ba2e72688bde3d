"""Moving tetrads (T, N, B1, B2) for the two curve families.

Both families are spacelike unit-speed curves whose frames contain null
vectors, so there is no orthonormality in the usual sense; each family has
its own target Gram matrix and its own first-order frame equations. A
frame is a 4 x 4 array whose rows are T, N, B1, B2; a stack of frames is
(..., 4, 4).

partially null:  N spacelike, B1 and B2 lightlike with g(B1, B2) = 1
pseudo null:     N lightlike,  B1 spacelike, B2 lightlike with g(N, B2) = 1
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .minkowski import SIGNS


class FrameKind(Enum):
    PARTIALLY_NULL = "partially_null"
    PSEUDO_NULL = "pseudo_null"


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


def canonical_frame(kind: FrameKind) -> np.ndarray:
    """Fixed reference frame (rows T, N, B1, B2) meeting the targets exactly."""
    if kind is FrameKind.PARTIALLY_NULL:
        r = 1.0 / np.sqrt(2.0)
        return np.array([[0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [r, 0.0, 0.0, r],
                         [-r, 0.0, 0.0, r]])
    if kind is FrameKind.PSEUDO_NULL:
        return np.array([[0.0, 0.0, 1.0, 0.0],
                         [1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0],
                         [-0.5, 0.5, 0.0, 0.0]])
    raise ValueError(f"unknown frame kind {kind!r}")


def gram_matrix(frame_matrix: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows of a (..., 4, 4) stack under g."""
    f = np.asarray(frame_matrix, dtype=float)
    return (f * SIGNS) @ np.swapaxes(f, -1, -2)


def gram_residual(frames: np.ndarray, kind: FrameKind) -> np.ndarray:
    """Largest |G(F) - G*| of each frame in a (..., 4, 4) stack."""
    dev = gram_matrix(frames)
    dev -= gram_targets(kind)
    np.abs(dev, out=dev)
    return dev.max(axis=(-2, -1))


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
