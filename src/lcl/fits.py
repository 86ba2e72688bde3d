"""Verdicts, check results and the small fits shared by the checks.

The classifier and the pseudohyperbolic diagnostics both build their
results from these; this module imports neither of them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError


class Verdict(Enum):
    YES = "Yes"
    NO = "No"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.YES if flag else cls.NO


# Tikhonov damping for the small fits; keeps a degenerate fit finite.
DAMPING = 1e-12


class Tolerances:
    """Thresholds the CLI exposes; defaults match the acceptance suite.

    eps_cond is the relative residual for condition checks, eps_axis the
    axis validation scale. Each must be finite and positive; anything else
    raises ConfigError, since a zero, negative or NaN threshold turns every
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


class FittedConstant:
    """A fitted value and the residual of its fit; equal when both are."""

    __slots__ = ("value", "residual")

    def __init__(self, value: float, residual: float):
        self.value = float(value)
        self.residual = float(residual)

    def __eq__(self, other):
        if type(other) is not FittedConstant:
            return NotImplemented
        return (self.value, self.residual) == (other.value, other.residual)

    def __hash__(self):
        return hash((self.value, self.residual))

    def to_json_dict(self) -> dict:
        return {"value": _jsonable(self.value), "residual": _jsonable(self.residual)}


class CheckResult:
    __slots__ = ("verdict", "residual", "constants", "flags", "extras")

    def __init__(self, verdict: Verdict, residual: float,
                 constants: Optional[dict] = None,
                 flags: Optional[list] = None,
                 extras: Optional[dict] = None):
        self.verdict = verdict
        self.residual = residual
        self.constants = {} if constants is None else constants
        self.flags = [] if flags is None else flags
        self.extras = {} if extras is None else extras


def _jsonable(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _damped_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normal-equation least squares with Tikhonov damping (DAMPING).

    The damping keeps degenerate fits finite instead of letting one
    coefficient wander off; callers still flag degeneracy explicitly.
    """
    ata = a.T @ a + DAMPING * np.eye(a.shape[1])
    return np.linalg.solve(ata, a.T @ b)


def _constant_fit(values: np.ndarray, eps: float) -> tuple[bool, float, float]:
    """(is_constant, mean, relative spread) for a sampled function."""
    mean = float(np.mean(values))
    spread = float(np.max(values) - np.min(values))
    residual = spread / (1.0 + abs(mean))
    return residual < eps, mean, residual
