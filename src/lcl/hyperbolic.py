"""Pseudohyperbolic checks for pseudo null curves.

The pseudohyperbolic space of radius r about x0 is the set of points x
with g(x - x0, x - x0) = -r^2. A pseudo null curve lies on one exactly
when sigma/tau is a negative constant c, in which case the center is
x(s) + c N(s) + B2(s) (constant in s) and r = sqrt(-2c).

Everything here is diagnostic support for the classifier: the family
test, a sphere fit that corroborates it from the trace alone, the
exponential torsion form that characterizes 2-type members, and the
advisory third-order residual for 3-type members.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import grid_derivative, pointwise_derivative
from .errors import ProfileError
from .fits import (CheckResult, FittedConstant, Tolerances, Verdict,
                   _constant_fit, _damped_lstsq, _guard_nonzero, _jsonable)
from .frames import FrameKind
from .integrator import CurveTrace
from .minkowski import SIGNS, Vec4, pairing
from .profiles import CurvatureProfile

log = logging.getLogger("lcl.hyperbolic")


def h3_ratio_check(p: CurvatureProfile,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """Family test: sigma/tau constant and negative."""
    if p.kind is not FrameKind.PSEUDO_NULL:
        raise ProfileError("pseudohyperbolic checks apply to pseudo null "
                           "profiles only")
    grid = p.grid(tol.grid_points)
    _, tau, sigma = p.evaluate_arrays(grid)
    _guard_nonzero(tau, "tau")
    constant, mean, residual = _constant_fit(sigma / tau, tol.eps_cond)
    negative = mean < -tol.eps_cond
    flags = []
    if constant and not negative:
        flags.append("ratio is constant but not negative; curve is outside "
                     "the pseudohyperbolic family")
    return CheckResult(Verdict.of(constant and negative), residual,
                       constants={"c": FittedConstant(mean, residual)},
                       flags=flags, extras={"constant": constant})


def h3_membership(trace: CurveTrace, center: Vec4, radius: float) -> float:
    """Relative deviation of the trace from the sphere g = -r^2."""
    diff = trace.positions - center.to_array()
    g_vals = pairing(diff, diff)
    return float(np.max(np.abs(g_vals + radius * radius)) / (radius * radius))


@dataclass
class SphereFit:
    center: Vec4
    radius: float
    radius_sq: float
    max_deviation: float       # max |g(x - x0) + r^2|
    rel_deviation: float       # normalized by r^2
    converged: bool
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "center": [_jsonable(v) for v in self.center.to_array()],
            "radius": _jsonable(self.radius),
            "max_deviation": _jsonable(self.max_deviation),
            "rel_deviation": _jsonable(self.rel_deviation),
            "converged": self.converged,
            "iterations": self.iterations,
        }


def fit_pseudohyperbolic(trace: CurveTrace) -> SphereFit:
    """Least-squares fit of center and squared radius to the positions.

    Residuals F_i = g(x_i - x0, x_i - x0) + rho with rho = r^2. Written as
    g(x_i, x_i) - 2 g(x_i, x0) + c with c = g(x0, x0) + rho they are linear
    in (x0, c), and (x0, rho) <-> (x0, c) is a bijection, so one linear
    solve gives the nonlinear minimizer. The solve runs on positions minus
    their centroid for conditioning; `converged` is always True and
    `iterations` always 1.
    """
    pts = trace.positions
    mean = pts.mean(axis=0)
    y = pts - mean
    design = np.hstack([-2.0 * y * SIGNS, np.ones((pts.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(design, -pairing(y, y), rcond=None)
    rho = float(sol[4] - pairing(sol[:4], sol[:4]))
    x0 = mean + sol[:4]
    diff = pts - x0
    f_res = pairing(diff, diff) + rho
    max_dev = float(np.max(np.abs(f_res)))
    rel = max_dev / max(abs(rho), 1e-300)
    radius = math.sqrt(rho) if rho > 0.0 else float("nan")
    return SphereFit(Vec4.from_array(x0), radius, rho, max_dev, rel,
                     True, 1)


def closed_form_center(trace: CurveTrace, c: float) -> tuple[Vec4, float]:
    """Center x + c N + B2 of the sphere through a family member.

    Returns (mean center, relative spread of the pointwise centers); the
    spread is a consistency diagnostic and should sit at integrator
    accuracy for true members.
    """
    centers = (trace.positions + c * trace.frames[:, 1, :]
               + trace.frames[:, 3, :])
    mean = centers.mean(axis=0)
    spread = float(np.max(np.linalg.norm(centers - mean, axis=1)))
    return Vec4.from_array(mean), spread / (1.0 + float(np.linalg.norm(mean)))


@dataclass(frozen=True)
class TauForm:
    """Exponential torsion lam e^{s/w} + mu e^{-s/w}, w = sqrt(-2c).

    Closed under two derivatives: the second derivative is tau / w^2
    exactly, which is what makes 2 c tau'' + tau vanish identically for
    this family. second() uses that identity, so the form supplies an
    exact derivative oracle independent of finite differences.
    """
    c: float
    lam: float
    mu: float

    @property
    def w(self) -> float:
        return math.sqrt(-2.0 * self.c)

    def __call__(self, s):
        return (self.lam * np.exp(np.asarray(s, dtype=float) / self.w)
                + self.mu * np.exp(-np.asarray(s, dtype=float) / self.w))

    def second(self, s):
        return self(s) / (self.w * self.w)

    def to_expressions(self) -> tuple[str, str]:
        """(tau, sigma) expression strings for profile construction."""
        tau = f"{self.lam!r}*exp(s/{self.w!r}) + {self.mu!r}*exp(-s/{self.w!r})"
        return tau, f"{self.c!r}*({tau})"


def make_h3_type2_profile(c: float, lam: float, mu: float,
                          domain: tuple[float, float],
                          label: str = "") -> CurvatureProfile:
    """Pseudo null profile whose curve is a 2-type pseudohyperbolic member."""
    if c >= 0.0:
        raise ProfileError("the ratio constant c must be negative")
    if lam == 0.0 and mu == 0.0:
        raise ProfileError("lam and mu cannot both vanish")
    form = TauForm(c, lam, mu)
    tau, sigma = form.to_expressions()
    return CurvatureProfile.create(kind=FrameKind.PSEUDO_NULL, tau=tau,
                                   sigma=sigma, domain=domain,
                                   label=label or f"h3-type2(c={c:g})")


def h3_type2_tau_form(p: CurvatureProfile, c: float,
                      tol: Tolerances = Tolerances()) -> CheckResult:
    """2-type within the family iff tau is the exponential form for c.

    Fits (lam, mu) linearly, then scores the oscillator identity
    2 c tau'' + tau with the fitted form's exact second derivative. A
    finite-difference cross-check of the same identity is reported in the
    extras; it carries FD roundoff (~1e-8 at best) and is advisory.
    """
    if c >= 0.0:
        raise ProfileError("the ratio constant c must be negative")
    grid = p.grid(tol.grid_points)
    tau_vals = p.tau(grid)
    w = math.sqrt(-2.0 * c)
    design = np.column_stack([np.exp(grid / w), np.exp(-grid / w)])
    lam, mu = _damped_lstsq(design, tau_vals, tol.damping)
    form = TauForm(c, float(lam), float(mu))
    scale = 1.0 + float(np.max(np.abs(tau_vals)))
    ode_residual = float(np.max(np.abs(2.0 * c * form.second(grid) + tau_vals))) / scale
    step = grid[1] - grid[0]
    fd_second = grid_derivative(tau_vals, step, order=2)
    fd_residual = float(np.max(np.abs(2.0 * c * fd_second[2:-2]
                                      + tau_vals[2:-2]))) / scale
    verdict = Verdict.of(ode_residual < tol.eps_cond)
    flags = []
    if abs(lam) < 1e-12 * scale and abs(mu) < 1e-12 * scale:
        verdict = Verdict.NO
        flags.append("fitted exponential coefficients both vanish")
    return CheckResult(verdict, ode_residual,
                       constants={"lam": FittedConstant(float(lam), ode_residual),
                                  "mu": FittedConstant(float(mu), ode_residual)},
                       flags=flags,
                       extras={"fd_residual": fd_residual, "form": form})


def h3_type1_nonexistence(type1: CheckResult) -> CheckResult:
    """No family member is 1-type; cross-check against the global verdict.

    The family forces a constant ratio, which is never the reference
    quadratic, so this holds identically. A global 1-type Yes on a family
    member is an internal inconsistency, reported here.
    """
    flags = []
    if type1.verdict is Verdict.YES:
        flags.append("internal-inconsistency: 1-type verdict Yes on a "
                     "pseudohyperbolic family member")
    return CheckResult(Verdict.YES, type1.residual, flags=flags,
                       extras={"meaning": "1-type ruled out"})


def h3_type3_residual(p: CurvatureProfile, c: float,
                      tol: Tolerances = Tolerances()) -> Optional[float]:
    """Advisory third-order residual for 3-type family members.

    Scores max |L - R| with

        L = 2 c^2 tau tau' tau''',
        R = c tau'' [5 tau^2 (1 + c^2 tau^2) + c (3 tau'^2 + 4 tau tau'')]
            + c^2 tau^5 (2 + c^2 tau^2) + tau^3 (1 - 15 c^3 tau'^2),

    normalized by the magnitudes of both sides. Diagnostic only: the
    third derivative comes from low-order stencils and the condition
    itself is advisory. Returns None when evaluation fails.
    """
    try:
        grid = p.grid(tol.grid_points)
        tau = p.tau(grid)
        tau1 = pointwise_derivative(p.tau, grid, order=1, domain=p.domain)
        tau2 = pointwise_derivative(p.tau, grid, order=2, domain=p.domain)
        tau3 = pointwise_derivative(p.tau, grid, order=3, domain=p.domain)
        lhs = 2.0 * c * c * tau * tau1 * tau3
        rhs = (c * tau2 * (5.0 * tau**2 * (1.0 + c * c * tau**2)
                           + c * (3.0 * tau1**2 + 4.0 * tau * tau2))
               + c * c * tau**5 * (2.0 + c * c * tau**2)
               + tau**3 * (1.0 - 15.0 * c**3 * tau1**2))
        scale = 1.0 + float(np.max(np.abs(lhs))) + float(np.max(np.abs(rhs)))
        residual = float(np.max(np.abs(lhs - rhs)) / scale)
        log.info("third-order residual %.6e (advisory)", residual)
        return residual
    except Exception as exc:  # advisory only
        log.info("third-order residual evaluation failed: %s", exc)
        return None


def pseudohyperbolic_block(p: CurvatureProfile, trace: CurveTrace,
                           tol: Tolerances = Tolerances(),
                           type1: Optional[CheckResult] = None) -> dict:
    """Report block assembled by the classifier for pseudo null curves."""
    ratio = h3_ratio_check(p, tol)
    notes = list(ratio.flags)
    is_family = ratio.verdict is Verdict.YES
    c_val = ratio.constants["c"].value if ratio.extras["constant"] else None

    try:
        fit = fit_pseudohyperbolic(trace)
        fit_dict = fit.to_json_dict()
    except Exception as exc:
        fit = None
        fit_dict = None
        notes.append(f"sphere fit failed: {exc}")

    block = {
        "is_h3_family": is_family,
        "c_ratio": _jsonable(c_val) if c_val is not None else None,
        "ratio_residual": _jsonable(ratio.residual),
        "sphere_fit": fit_dict,
        "notes": notes,
        "type1_nonexistence": None,
        "type2_tau": None,
        "type3_residual": None,
        "closed_center": None,
    }
    if not is_family:
        if fit is not None and fit.rel_deviation < tol.eps_cond:
            notes.append("internal-inconsistency: sphere fit succeeded but "
                         "the ratio test rejects the family")
        return block

    c = float(c_val)
    center, center_spread = closed_form_center(trace, c)
    expected_r = math.sqrt(-2.0 * c)
    block["closed_center"] = {
        "center": [_jsonable(v) for v in center.to_array()],
        "spread": _jsonable(center_spread),
        "radius": _jsonable(expected_r),
        "membership_deviation": _jsonable(h3_membership(trace, center,
                                                        expected_r)),
    }
    if fit is not None:
        if fit.rel_deviation > tol.eps_cond * 100:
            notes.append("internal-inconsistency: family member but sphere "
                         f"fit deviates ({fit.rel_deviation:.3g})")
        if math.isfinite(fit.radius) and abs(fit.radius - expected_r) > \
                1e-3 * (1.0 + expected_r):
            notes.append(f"fitted radius {fit.radius:.6g} differs from "
                         f"sqrt(-2c) = {expected_r:.6g}")

    if type1 is not None:
        non1 = h3_type1_nonexistence(type1)
        notes.extend(non1.flags)
        block["type1_nonexistence"] = non1.verdict.value

    tau_form = h3_type2_tau_form(p, c, tol)
    block["type2_tau"] = {
        "verdict": tau_form.verdict.value,
        "ode_residual": _jsonable(tau_form.residual),
        "fd_residual": _jsonable(tau_form.extras["fd_residual"]),
        "lam": tau_form.constants["lam"].to_json_dict(),
        "mu": tau_form.constants["mu"].to_json_dict(),
    }
    block["type3_residual"] = _jsonable(h3_type3_residual(p, c, tol))
    block["notes"] = notes
    return block
