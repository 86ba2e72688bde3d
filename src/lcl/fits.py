"""Verdicts, check results and the one fit kernel shared by the checks.

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


# the sigma_min / sigma_max below which a fit counts as rank deficient
RANK_RATIO_MIN = 1e-6


class Verdict(Enum):
    YES = "Yes"
    NO = "No"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.YES if flag else cls.NO


class Tolerances:
    """Thresholds the CLI exposes; defaults match the acceptance suite.

    eps_cond is the relative residual for condition checks, eps_axis the
    axis validation scale (the fits' rank threshold is RANK_RATIO_MIN).
    Each must be finite and positive; anything else raises ConfigError,
    since a zero, negative or NaN threshold turns every verdict No and an
    infinite one every verdict Yes. Immutable once built.
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


def linear_fit(design: np.ndarray, target: np.ndarray
               ) -> tuple[list, np.ndarray, float]:
    """Least squares design x ~= target, the one fit of the checks and the
    sphere fit: one thin SVD of the design with unit columns gives (x as
    Python floats, target - design x, sigma_min / sigma_max). Singular
    values under numpy's lstsq cutoff are dropped, so a rank-deficient
    design gets the minimum-norm fit and the ratio tells the caller; an
    all-zero column stays unscaled, so its coefficient and the ratio read
    0. Each caller scores the deviation in its own norm and scale."""
    norms = np.linalg.norm(design, axis=0)
    norms = np.where(norms > 0.0, norms, 1.0)
    u, sv, vt = np.linalg.svd(design / norms, full_matrices=False)
    keep = sv > sv[0] * np.finfo(float).eps * max(design.shape)
    x = vt[keep].T @ ((u[:, keep].T @ target) / sv[keep]) / norms
    return x.tolist(), target - design @ x, float(sv[-1] / sv[0])
