"""Lorentzian linear algebra on 4-vectors with signature (-,+,+,+).

The bilinear form is g(v, w) = -v1*w1 + v2*w2 + v3*w3 + v4*w4. A 4-vector
is a float ndarray of shape (4,), and a set of them is a stack (..., 4);
there is no vector class. Everything downstream (frames, classifiers, the
nullspace oracle) goes through the helpers here rather than spelling the
signs out again.

pairing and row_norm sum the four components left to right, the order of
numpy's sum and norm over a trailing axis of length 4, so they match those
bit for bit without their set-up cost (matmul or einsum forms do not).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Metric signs as a coordinate array; g(v, w) = sum(SIGNS * v * w).
SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def pairing(a, b):
    """g applied to coordinate arrays with trailing axis 4; broadcasts."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (((-(a[..., 0] * b[..., 0]) + a[..., 1] * b[..., 1])
             + a[..., 2] * b[..., 2]) + a[..., 3] * b[..., 3])


def row_norm(x):
    """Euclidean norm over the trailing axis of length 4."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(((x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])
                    + x[..., 2] * x[..., 2]) + x[..., 3] * x[..., 3])


class NullspaceResult(NamedTuple):
    vector: np.ndarray       # (..., 4)
    sigma_min: np.ndarray    # (...)


def nullspace_min_singular(matrix) -> NullspaceResult:
    """Best unit-Euclidean-norm near-nullspace candidate of m x 4 matrices.

    `matrix` is one m x 4 matrix or a stack (..., m, 4) with m >= 4, the
    only shape the oracle builds (its stacks have at least 10 rows);
    fewer rows raise ValueError. The result's fields carry the stack's
    leading shape: for each matrix, the right singular vector for the
    smallest singular value, and that value. The SVD is taken of the
    4 x 4 R factor of a QR decomposition, which has the matrix's
    singular values and right vectors, so no m x 4 left vectors are
    formed.

    The SVD fixes the vector only up to sign, so the sign is chosen to
    make its first component above 1e-6 of its largest one positive.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.shape[-1] != 4 or a.shape[-2] < 4:
        raise ValueError(f"expected m x 4 matrices, m >= 4, got {a.shape}")
    _, s, vt = np.linalg.svd(np.linalg.qr(a, mode="r"))
    u = vt[..., -1, :]
    mag = np.abs(u)
    first = (mag > 1e-6 * mag.max(axis=-1, keepdims=True)).argmax(axis=-1)
    lead = np.take_along_axis(u, first[..., None], axis=-1)
    return NullspaceResult(np.where(lead < 0, -u, u), s[..., -1])
