"""Lorentzian linear algebra on 4-vectors with signature (-,+,+,+).

The bilinear form is g(v, w) = -v1*w1 + v2*w2 + v3*w3 + v4*w4. Everything
downstream (frames, classifiers, the nullspace oracle) goes through the
helpers here rather than spelling the signs out again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# Metric signs as a coordinate array; g(v, w) = sum(SIGNS * v * w).
SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


class CausalCharacter(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


@dataclass(frozen=True, slots=True)
class Vec4:
    """Immutable point/vector in coordinates (x1, x2, x3, x4)."""

    x1: float
    x2: float
    x3: float
    x4: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3", "x4"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"Vec4 component {name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)

    @classmethod
    def from_array(cls, a) -> "Vec4":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected shape (4,), got {a.shape}")
        return cls(a[0], a[1], a[2], a[3])

    def to_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3, self.x4])

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, c) -> "Vec4":
        c = float(c)
        return Vec4(c * self.x1, c * self.x2, c * self.x3, c * self.x4)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Vec4":
        return self * (1.0 / float(c))

    def euclid_norm(self) -> float:
        return math.sqrt(self.x1**2 + self.x2**2 + self.x3**2 + self.x4**2)


def metric(v: Vec4, w: Vec4) -> float:
    """Minkowski inner product g(v, w)."""
    return -v.x1 * w.x1 + v.x2 * w.x2 + v.x3 * w.x3 + v.x4 * w.x4


def pairing(a, b):
    """g applied to coordinate arrays with trailing axis 4; broadcasts."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sum(a * SIGNS * b, axis=-1)


def lorentz_norm(v: Vec4) -> float:
    """sqrt(|g(v, v)|); zero exactly for lightlike and zero vectors."""
    return math.sqrt(abs(metric(v, v)))


def causal_character(v: Vec4, eps_scale: float = 1e-9) -> CausalCharacter:
    """Classify v by the sign of g(v, v).

    The lightlike band is |g(v,v)| <= eps_scale * (1 + |v|_euclid^2) so that
    numerically integrated null vectors still classify as lightlike. The
    exact zero vector gets its own tag.
    """
    if v.x1 == 0.0 and v.x2 == 0.0 and v.x3 == 0.0 and v.x4 == 0.0:
        return CausalCharacter.ZERO
    g = metric(v, v)
    eps = eps_scale * (1.0 + v.euclid_norm() ** 2)
    if abs(g) <= eps:
        return CausalCharacter.LIGHTLIKE
    return CausalCharacter.SPACELIKE if g > 0 else CausalCharacter.TIMELIKE


class NullspaceResult(NamedTuple):
    vector: Vec4
    sigma_min: float
    degenerate: bool


def nullspace_min_singular(matrix) -> NullspaceResult:
    """Best unit-Euclidean-norm near-nullspace candidate of an m x 4 matrix.

    Returns the right singular vector for the smallest singular value,
    that value, and a degeneracy flag. An all-zero matrix is degenerate:
    the entire space is nullspace and an arbitrary unit vector is returned.
    Fewer than 4 rows cannot have full column rank, so sigma_min is 0 and
    the candidate spans the exact nullspace; only there is the full SVD
    needed, since the thin one returns fewer than 4 right vectors.

    The SVD fixes the vector only up to sign, so the sign is chosen to
    make its first component above 1e-6 of its largest one positive.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"expected an m x 4 matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must have at least one row")
    if not np.any(a):
        return NullspaceResult(Vec4(1.0, 0.0, 0.0, 0.0), 0.0, True)
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < 4)
    sigma_min = float(s[-1]) if len(s) == 4 else 0.0
    u = vt[-1]
    lead = u[np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u)))[0]]
    return NullspaceResult(Vec4.from_array(-u if lead < 0 else u),
                           sigma_min, False)
