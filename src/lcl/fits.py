"""Verdicts, check results and the small fits shared by the checks.

The classifier and the pseudohyperbolic diagnostics both build their
results from these; this module imports neither of them.
"""

from __future__ import annotations

import math
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ConfigError


class Verdict(Enum):
    YES = "Yes"
    NO = "No"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.YES if flag else cls.NO


class Tolerances:
    """Thresholds the CLI exposes; defaults match the acceptance suite.

    eps_cond is the relative residual for condition checks and the psn k2
    rank threshold (c_int is NaN below it), eps_axis the axis validation
    scale. Each must be finite and positive; anything else raises
    ConfigError, since a zero, negative or NaN threshold turns every
    verdict No and an infinite one every verdict Yes. Immutable once built.
    """

    __slots__ = ("eps_cond", "eps_axis")

    def __init__(self, eps_cond: float = 1e-6, eps_axis: float = 1e-6):
        for name, value in (("eps_cond", eps_cond), ("eps_axis", eps_axis)):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"tolerance {name} must be finite and "
                                  f"positive, got {value!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Tolerances are immutable; cannot set {name}")


class CheckResult(NamedTuple):
    verdict: Verdict
    residual: float
    constants: Mapping = MappingProxyType({})  # name -> float
    flags: tuple = ()
    extras: Mapping = MappingProxyType({})


def _jsonable(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _lstsq(a: np.ndarray, b: np.ndarray) -> tuple[list, float]:
    """Undamped least squares a x ~= b by one thin SVD of a with unit
    columns: (x as Python floats, sigma_min / sigma_max). Singular values
    under numpy's lstsq cutoff are dropped, so a rank-deficient design
    gets the minimum-norm fit and the ratio tells the caller; an all-zero
    column stays unscaled, so its coefficient and the ratio read 0."""
    norms = np.linalg.norm(a, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    u, sv, vt = np.linalg.svd(a / norms, full_matrices=False)
    keep = sv > sv[0] * np.finfo(float).eps * max(a.shape)
    x = vt[keep].T @ ((u[:, keep].T @ b) / sv[keep])
    return (x / norms).tolist(), float(sv[-1] / sv[0])


def _constant_fit(values: np.ndarray, eps: float) -> tuple[bool, float, float]:
    """(is_constant, mean, relative spread) for a sampled function."""
    mean = float(np.mean(values))
    spread = float(np.max(values) - np.min(values))
    residual = spread / (1.0 + abs(mean))
    return residual < eps, mean, residual
