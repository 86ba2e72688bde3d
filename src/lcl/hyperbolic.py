"""Pseudohyperbolic checks for pseudo null curves.

The pseudohyperbolic space of radius r about x0 is the set of points x
with g(x - x0, x - x0) = -r^2. A pseudo null curve lies on one exactly
when sigma/tau is a negative constant c, in which case the center is
x(s) + c N(s) + B2(s) (constant in s) and r = sqrt(-2c).

Everything here is diagnostic support for the classifier: the family
test, a sphere fit that corroborates it from the trace alone, and the
exponential torsion form that characterizes 2-type members. 3-type is
the k = 3 oracle's verdict, as for every pseudo null curve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ProfileError
from .fits import CheckResult, Tolerances, Verdict, _jsonable, linear_fit
from .frames import FrameKind
from .integrator import CurveTrace
from .minkowski import SIGNS, pairing, row_norm


def h3_ratio_check(trace: CurveTrace,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """Family test: sigma/tau constant and negative."""
    if trace.kind is not FrameKind.PSEUDO_NULL:
        raise ProfileError("pseudohyperbolic checks apply to pseudo null "
                           "profiles only")
    ratio = trace.sigma / trace.tau
    (mean,), dev, _ = linear_fit(np.ones((ratio.size, 1)), ratio)
    residual = float(np.ptp(dev)) / (1.0 + abs(mean))
    constant = residual < tol.eps_cond
    negative = mean < -tol.eps_cond
    flags = (("ratio is constant but not negative; curve is outside the "
              "pseudohyperbolic family",) if constant and not negative else ())
    return CheckResult(Verdict.of(constant and negative), residual,
                       constants={"c": mean},
                       flags=flags, extras={"constant": constant})


def h3_membership(trace: CurveTrace, center: np.ndarray,
                  radius: float) -> float:
    """Relative deviation of the trace from the sphere g = -r^2."""
    diff = trace.positions - center
    g_vals = pairing(diff, diff)
    return float(np.max(np.abs(g_vals + radius * radius)) / (radius * radius))


class SphereFit(NamedTuple):
    center: np.ndarray
    radius: float
    radius_sq: float
    max_deviation: float       # max |g(x - x0) + r^2|
    rel_deviation: float       # normalized by r^2
    iterations: int            # always 1: one linear solve

    def to_json_dict(self) -> dict:
        return {
            "center": [_jsonable(v) for v in self.center],
            "radius": _jsonable(self.radius),
            "max_deviation": _jsonable(self.max_deviation),
            "rel_deviation": _jsonable(self.rel_deviation),
        }


def fit_pseudohyperbolic(trace: CurveTrace) -> SphereFit:
    """Least-squares fit of center and squared radius to the positions.

    Residuals F_i = g(x_i - x0, x_i - x0) + rho with rho = r^2. Written as
    g(x_i, x_i) - 2 g(x_i, x0) + c with c = g(x0, x0) + rho they are linear
    in (x0, c), and (x0, rho) <-> (x0, c) is a bijection, so one linear
    solve gives the nonlinear minimizer, and `iterations` is always 1; the
    fit's deviation is F itself. The solve runs on positions minus their
    centroid for conditioning.
    """
    pts = trace.positions
    mean = pts.mean(axis=0)
    y = pts - mean
    design = np.hstack([2.0 * y * SIGNS, -np.ones((pts.shape[0], 1))])
    sol, f_res, _ = linear_fit(design, pairing(y, y))
    shift = np.array(sol[:4])
    rho = float(sol[4] - pairing(shift, shift))
    max_dev = float(np.max(np.abs(f_res)))
    rel = max_dev / max(abs(rho), 1e-300)
    radius = math.sqrt(rho) if rho > 0.0 else float("nan")
    return SphereFit(mean + shift, radius, rho, max_dev, rel, 1)


def closed_form_center(trace: CurveTrace,
                       c: float) -> tuple[np.ndarray, float]:
    """Center x + c N + B2 of the sphere through a family member.

    Returns (mean center, relative spread of the pointwise centers); the
    spread is a consistency diagnostic and should sit at integrator
    accuracy for true members.
    """
    centers = (trace.positions + c * trace.frames[:, 1, :]
               + trace.frames[:, 3, :])
    mean = centers.mean(axis=0)
    spread = float(np.max(row_norm(centers - mean)))
    return mean, spread / (1.0 + float(np.linalg.norm(mean)))


def h3_type2_form(c: float, lam: float, mu: float) -> tuple[str, str]:
    """(tau, sigma) expression strings of a 2-type pseudohyperbolic member:
    tau = lam e^{s/w} + mu e^{-s/w} with w = sqrt(-2c), sigma = c tau.
    ProfileError unless c < 0 and lam, mu do not both vanish."""
    if c >= 0.0:
        raise ProfileError("the ratio constant c must be negative")
    if lam == 0.0 and mu == 0.0:
        raise ProfileError("lam and mu cannot both vanish")
    w = math.sqrt(-2.0 * c)
    tau = f"{lam!r}*exp(s/{w!r}) + {mu!r}*exp(-s/{w!r})"
    return tau, f"{c!r}*({tau})"


def h3_type2_tau_form(trace: CurveTrace, c: float,
                      tol: Tolerances = Tolerances()) -> CheckResult:
    """2-type within the family iff tau is the exponential form for c.

    Fits (lam, mu) linearly. The oscillator identity 2 c tau_fit'' + tau,
    scored with the fitted form's exact second derivative tau_fit / w^2,
    is tau - tau_fit since 2c / w^2 = -1, so the ode_residual is the fit's
    max deviation over 1 + max |tau|; no derivative of the data is taken.
    """
    if c >= 0.0:
        raise ProfileError("the ratio constant c must be negative")
    grid, tau_vals = trace.s, trace.tau
    w = math.sqrt(-2.0 * c)
    design = np.column_stack([np.exp(grid / w), np.exp(-grid / w)])
    (lam, mu), dev, _ = linear_fit(design, tau_vals)
    ode_residual = float(np.max(np.abs(dev))) / (
        1.0 + float(np.max(np.abs(tau_vals))))
    return CheckResult(Verdict.of(ode_residual < tol.eps_cond), ode_residual,
                       constants={"lam": lam, "mu": mu})


def pseudohyperbolic_block(trace: CurveTrace, tol: Tolerances = Tolerances()
                           ) -> tuple[dict, list]:
    """Report block assembled by the classifier for pseudo null curves,
    and the internal inconsistencies it found, which the classifier adds
    to the report's flags.

    The ratio and tau-form fits read the trace's curvatures, and the
    sphere fit and closed-form center its positions and frames.

    No family member is 1-type: the family forces a constant ratio, which
    is never the 1-type quadratic, and the classifier flags a 1-type Yes
    on a member. A sphere fit that passes off the family is flagged only
    with a finite radius: a constant positive ratio puts the curve on a
    de Sitter pseudosphere (fitted r^2 < 0). type2_tau holds the
    exponential torsion form's fit (ode_residual, lam, mu) on members; its
    verdict is the report's k2 verdict, stated there once.
    """
    ratio = h3_ratio_check(trace, tol)
    notes, flags = list(ratio.flags), []
    is_family = ratio.verdict is Verdict.YES
    c_val = ratio.constants["c"] if ratio.extras["constant"] else None

    try:
        fit = fit_pseudohyperbolic(trace)
        fit_dict = fit.to_json_dict()
    except np.linalg.LinAlgError as exc:
        fit = None
        fit_dict = None
        notes.append(f"sphere fit failed: {exc}")

    block = {
        "is_h3_family": is_family,
        "c_ratio": _jsonable(c_val),
        "ratio_residual": _jsonable(ratio.residual),
        "sphere_fit": fit_dict,
        "notes": notes,
        "type2_tau": None,
        "closed_center": None,
    }
    if not is_family:
        if (fit is not None and math.isfinite(fit.radius)
                and fit.rel_deviation < tol.eps_cond):
            flags.append("internal-inconsistency: sphere fit succeeded but "
                         "the ratio test rejects the family")
        return block, flags

    center, center_spread = closed_form_center(trace, c_val)
    expected_r = math.sqrt(-2.0 * c_val)
    block["closed_center"] = {
        "center": [_jsonable(v) for v in center],
        "spread": _jsonable(center_spread),
        "membership_deviation": _jsonable(h3_membership(trace, center,
                                                        expected_r)),
    }
    if fit is not None:
        if fit.rel_deviation > tol.eps_cond * 100:
            flags.append("internal-inconsistency: family member but sphere "
                         f"fit deviates ({fit.rel_deviation:.3g})")
        if math.isfinite(fit.radius) and abs(fit.radius - expected_r) > \
                1e-3 * (1.0 + expected_r):
            notes.append(f"fitted radius {fit.radius:.6g} differs from "
                         f"sqrt(-2c) = {expected_r:.6g}")

    tau_form = h3_type2_tau_form(trace, c_val, tol)
    block["type2_tau"] = {
        "ode_residual": _jsonable(tau_form.residual),
        "lam": _jsonable(tau_form.constants["lam"]),
        "mu": _jsonable(tau_form.constants["mu"]),
    }
    return block, flags
