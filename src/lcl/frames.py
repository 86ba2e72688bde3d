"""Moving tetrads (T, N, B1, B2) for the two curve families.

Both families are spacelike unit-speed curves whose frames contain null
vectors, so there is no orthonormality in the usual sense. Each family's
frame data (Gram targets, frame equations, curvature pairings, trivial
axis, gauge) is its FrameFamily in FAMILIES, which the functions below
look up. A frame is a 4 x 4 array whose rows are T, N, B1, B2; a stack
of frames is (..., 4, 4).

partially null:  N spacelike, B1 and B2 lightlike with g(B1, B2) = 1
pseudo null:     N lightlike,  B1 spacelike, B2 lightlike with g(N, B2) = 1
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .minkowski import SIGNS

ROW_NAMES = ("T", "N", "B1", "B2")


class FrameKind(Enum):
    PARTIALLY_NULL = "partially_null"
    PSEUDO_NULL = "pseudo_null"


class FrameFamily(NamedTuple):
    """What one family's frame equations fix, as immutable tuples."""

    gram: tuple       # G*, the target Gram matrix G[i,j] = g(V_i, V_j)
    canonical: tuple  # a frame (rows T, N, B1, B2) meeting G* exactly
    pattern: tuple    # entries of A: (row, column, kappa|tau|sigma 0|1|2, sign)
    duals: tuple      # the rows T', N', B1' pair with for kappa, tau, sigma
    trivial: tuple    # rows pairing constantly with every frame vector
    gauge: tuple      # the component the family fixes, and its default


_R = 1.0 / np.sqrt(2.0)
FAMILIES = {
    FrameKind.PARTIALLY_NULL: FrameFamily(
        gram=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
        canonical=((0, 1, 0, 0), (0, 0, 1, 0), (_R, 0, 0, _R),
                   (-_R, 0, 0, _R)),
        pattern=((0, 1, 0, 1), (1, 0, 0, -1), (1, 2, 1, 1), (2, 2, 2, 1),
                 (3, 1, 1, -1), (3, 3, 2, -1)),
        duals=(1, 3, 3), trivial=(2,), gauge=("sigma", "0")),
    FrameKind.PSEUDO_NULL: FrameFamily(
        gram=((1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)),
        canonical=((0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1),
                   (-0.5, 0.5, 0, 0)),
        pattern=((0, 1, 0, 1), (1, 2, 1, 1), (2, 1, 2, 1), (2, 3, 1, -1),
                 (3, 0, 0, -1), (3, 2, 2, -1)),
        duals=(3, 2, 3), trivial=(), gauge=("kappa", "1")),
}


def frame_family(kind: FrameKind) -> FrameFamily:
    """The FAMILIES record of `kind`; ValueError for anything else."""
    if not isinstance(kind, FrameKind):
        raise ValueError(f"unknown frame kind {kind!r}")
    return FAMILIES[kind]


def gram_targets(kind: FrameKind) -> np.ndarray:
    """Target Gram matrix G[i,j] = g(V_i, V_j) for an exact frame."""
    return np.array(frame_family(kind).gram, dtype=float)


def canonical_frame(kind: FrameKind) -> np.ndarray:
    """Fixed reference frame (rows T, N, B1, B2) meeting the targets exactly."""
    return np.array(frame_family(kind).canonical, dtype=float)


def gram_matrix(frame_matrix: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows of a (..., 4, 4) stack under g.

    Both operands are contiguous: a swapaxes view would send every 4 x 4
    product down BLAS's slower transposed path. F S is a copy of F with
    its first coordinate negated, the one sign in SIGNS that is not +1:
    a broadcast multiply by SIGNS would run a length-4 loop per row.
    """
    f = np.asarray(frame_matrix, dtype=float)
    fs = f.copy()
    fs[..., 0] *= SIGNS[0]
    return fs @ np.ascontiguousarray(np.swapaxes(f, -1, -2))


def gram_residual(frames: np.ndarray, kind: FrameKind) -> np.ndarray:
    """Largest |G(F) - G*| of each frame in a (..., 4, 4) stack."""
    dev = gram_matrix(frames)
    dev -= gram_targets(kind)
    np.abs(dev, out=dev)
    # the 16 entries as rows of a (16, frames) copy: one vectorized max
    # down the columns instead of a short reduction per frame
    flat = dev.reshape(-1, 16).T.copy()
    res = flat.max(axis=0).reshape(dev.shape[:-2])
    return res[()]  # a numpy scalar, not a 0-d array, for one frame


def frenet_matrix(kappa, tau, sigma, kind: FrameKind) -> np.ndarray:
    """Coefficient matrix A with (T,N,B1,B2)' = A (T,N,B1,B2).

    Broadcasts over array curvatures, returning (..., 4, 4); scalar
    curvatures give one 4 x 4 matrix.
    """
    pattern = frame_family(kind).pattern
    curvatures = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                       for x in (kappa, tau, sigma)))
    m = np.zeros(curvatures[0].shape + (4, 4))
    for row, col, c, sign in pattern:
        np.multiply(curvatures[c], sign, out=m[..., row, col])
    return m
