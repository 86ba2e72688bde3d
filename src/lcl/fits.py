"""Verdicts, check results and the small fits shared by the checks.

The classifier and the pseudohyperbolic diagnostics both build their
results from these; this module imports neither of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import ConfigError


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    UNDETERMINED = "Undetermined"

    @classmethod
    def of(cls, flag: bool) -> "Verdict":
        return cls.YES if flag else cls.NO


# Tikhonov damping for the small fits; keeps a degenerate fit finite.
DAMPING = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Thresholds the CLI exposes; defaults match the acceptance suite.

    Each must be finite and positive; anything else raises ConfigError,
    since a zero, negative or NaN threshold turns every verdict No and an
    infinite one every verdict Yes.
    """

    eps_cond: float = 1e-6          # relative residual for condition checks
    eps_axis: float = 1e-6          # axis validation scale

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"tolerance {f.name} must be finite and "
                                  f"positive, got {value!r}")


@dataclass(frozen=True)
class FittedConstant:
    value: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "residual", float(self.residual))

    def to_json_dict(self) -> dict:
        return {"value": _jsonable(self.value), "residual": _jsonable(self.residual)}


@dataclass
class CheckResult:
    verdict: Verdict
    residual: float
    constants: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


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
