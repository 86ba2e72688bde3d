"""Slant-helix condition checks, axis constructions, and the oracle.

For k in 0..3, a k-type slant helix admits a fixed vector pairing
constantly with the k-th frame row (T, N, B1, B2). Each family has
closed-form conditions on the curvature functions for some k; every
condition here is paired with an independent nullspace oracle on the
integrated trace so the two routes can disagree loudly instead of
silently.

Partially null curves are classified with sigma identically 0; the frame
freedom that makes other sigma choices equivalent is not modeled here.
The trivial axis B1 (which pairs constantly with everything) is excluded
from oracle verdicts and reported separately.

Fit conventions: antiderivatives are anchored at s_min and the dropped
integration constants (c0 for the affine ratio condition, c_int for the
torsion-integral condition) are fitted, never assumed zero.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import hyperbolic
from .axis import AxisCandidate, assemble_axis, validate_axis
from .calculus import (cumulative_integral, grid_derivative, make_cumulative,
                       pointwise_derivative)
from .errors import DegenerateAxisError, ProfileError
from .fits import (CheckResult, FittedConstant, Tolerances, Verdict,
                   _constant_fit, _damped_lstsq, _guard_nonzero, _jsonable,
                   _rms)
from .frames import FrameKind
from .integrator import CurveTrace, integrate_frame
from .minkowski import SIGNS, Vec4, nullspace_min_singular, pairing
from .profiles import CurvatureProfile

log = logging.getLogger("lcl.classifier")


@dataclass
class OracleResult:
    verdict: Verdict
    vector: Optional[Vec4]
    sigma_min: float
    threshold: float
    note: str = ""
    g_mean: float = float("nan")
    g_variance: float = float("nan")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "U": list(self.vector.to_array()) if self.vector else None,
            "sigma_min": _jsonable(self.sigma_min),
            "threshold": _jsonable(self.threshold),
            "note": self.note,
            "g_mean": _jsonable(self.g_mean),
            "g_variance": _jsonable(self.g_variance),
        }


# ---------------------------------------------------------------------------
# oracle

def oracle_detect(trace: CurveTrace, k: int,
                  tol: Tolerances = Tolerances()) -> OracleResult:
    """Decide k-type numerically from the trace alone.

    Rows M (V(s_i) - V(s_0)) with M = diag(-1,1,1,1) annihilate exactly
    the vectors whose pairing with V stays constant, so the smallest
    singular value measures how far the curve is from k-type. For
    partially null traces a unit B1 row is appended, which removes the
    trivial axis from the nullspace; the recovered vector is then the
    Euclidean projection of any true axis away from B1.
    """
    if k not in (0, 1, 2, 3):
        raise ValueError(f"k must be in 0..3, got {k}")
    v = trace.frames[:, k, :]
    rows = (v[1:] - v[0]) * SIGNS
    scale = 1.0 + float(np.max(np.linalg.norm(v, axis=1)))
    max_row = float(np.max(np.linalg.norm(rows, axis=1)))
    threshold = tol.eps_oracle_coeff * math.sqrt(rows.shape[0])
    if max_row < 1e-9 * scale:
        u = v[0] * SIGNS
        u = u / np.linalg.norm(u)
        g_vals = pairing(v, u)
        return OracleResult(Verdict.YES, Vec4.from_array(u), max_row,
                            threshold, note="indicatrix constant",
                            g_mean=float(np.mean(g_vals)),
                            g_variance=float(np.var(g_vals)))
    note = ""
    if trace.kind is FrameKind.PARTIALLY_NULL:
        b1 = trace.frames[0, 2]
        rows = np.vstack([rows, b1 / np.linalg.norm(b1)])
        note = "trivial B1 direction excluded"
        threshold = tol.eps_oracle_coeff * math.sqrt(rows.shape[0])
    cand = nullspace_min_singular(rows)
    g_vals = pairing(v, cand.vector.to_array())
    g_var = float(np.var(g_vals))
    verdict = Verdict.of(cand.sigma_min < threshold)
    if verdict is Verdict.YES and g_var >= tol.eps_axis:
        verdict = Verdict.NO
        note = (note + "; " if note else "") + "candidate failed pairing validation"
    return OracleResult(verdict, cand.vector, cand.sigma_min, threshold,
                        note=note, g_mean=float(np.mean(g_vals)),
                        g_variance=g_var)


# ---------------------------------------------------------------------------
# partially null family (sigma identically 0)

def pn_type0_check(p: CurvatureProfile,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """0-type (general helix) iff tau/kappa is constant."""
    _require_kind(p, FrameKind.PARTIALLY_NULL)
    grid = p.grid(tol.grid_points)
    kappa, tau, _ = p.evaluate_arrays(grid)
    _guard_nonzero(kappa, "kappa")
    ok, mean, residual = _constant_fit(tau / kappa, tol.eps_cond)
    return CheckResult(Verdict.of(ok), residual,
                       constants={"ratio": FittedConstant(mean, residual)})


def pn_type0_axes(p: CurvatureProfile, trace: CurveTrace,
                  tol: Tolerances = Tolerances()) -> list[AxisCandidate]:
    """Axes for a constant-ratio curve.

    Primary candidate (tau/kappa) T + B1 + B2; the B1-free variant
    (tau/kappa) T + B2 is emitted second. Both are constant whenever the
    ratio is, and both also certify k = 3 (their B2 pairing is constant).
    """
    kappa, tau, _ = p.evaluate_arrays(trace.s)
    ratio = tau / kappa
    return [
        assemble_axis(trace, 0, "helix-ratio", ratio, 0.0, 1.0, 1.0),
        assemble_axis(trace, 0, "helix-ratio-tangent", ratio, 0.0, 0.0, 1.0),
    ]


def pn_type1_check(p: CurvatureProfile,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff tau/kappa is affine in the anchored integral of kappa.

    Model: tau/kappa = C * (c0 + K(s)) with K(s) the integral of kappa
    from s_min. The fit is linear in (C*c0, C). A constant ratio makes the
    C direction unidentifiable; that degenerate fit is still a Yes (the
    constant-ratio axes pair constantly with N as well) and is flagged,
    with both the product C*c0 and the raw coefficients reported.
    """
    _require_kind(p, FrameKind.PARTIALLY_NULL)
    grid = p.grid(tol.grid_points)
    kappa, tau, _ = p.evaluate_arrays(grid)
    _guard_nonzero(kappa, "kappa")
    ratio = tau / kappa
    kint = cumulative_integral(p.kappa, grid)
    design = np.column_stack([np.ones_like(kint), kint])
    a0, c_lin = _damped_lstsq(design, ratio, tol.damping)
    residual = _rms(ratio - design @ (a0, c_lin)) / (1.0 + _rms(ratio))
    verdict = Verdict.of(residual < tol.eps_cond)
    degenerate = abs(c_lin) * (kint.max() - kint.min()) < tol.eps_cond * (1.0 + abs(a0))
    constants = {
        "C": FittedConstant(c_lin, residual),
        "C_c0": FittedConstant(a0, residual),
        "c0": FittedConstant(a0 / c_lin if not degenerate else float("nan"),
                             residual),
    }
    flags = ["degenerate-linear-coefficient"] if degenerate else []
    return CheckResult(verdict, residual, constants=constants, flags=flags,
                       extras={"degenerate": degenerate})


def pn_type1_axis(p: CurvatureProfile, trace: CurveTrace, c_lin: float,
                  c0: float, tol: Tolerances = Tolerances()) -> AxisCandidate:
    """Axis (c0 + K) T + N - (Int tau) B1 + (1/C) B2 for the affine family.

    The B2 coefficient carries the 1/C factor: with g(N, U) normalized to
    1 the frame equations force kappa u1 = tau u4, and u1 tracks c0 + K
    while tau/kappa = C (c0 + K). The B1 coefficient only enters through
    its derivative, so its integration constant is arbitrary (zero here).
    """
    if not math.isfinite(c_lin) or abs(c_lin) < 1e-12:
        raise DegenerateAxisError(
            "affine axis undefined: fitted linear coefficient is zero "
            "(constant ratio); use the constant-ratio axes instead")
    kint = cumulative_integral(p.kappa, trace.s)
    tint = cumulative_integral(p.tau, trace.s)
    return assemble_axis(trace, 1, "curvature-integral",
                         c0 + kint, 1.0, -tint, 1.0 / c_lin)


def pn_type2_axis(p: CurvatureProfile, trace: CurveTrace,
                  c: tuple[float, float, float] = (1.0, 0.0, 0.0),
                  tol: Tolerances = Tolerances()) -> AxisCandidate:
    """Universal 2-type axis for partially null curves.

    With theta the anchored integral of kappa, the N coefficient solves
    the driven oscillator u'' + u = tau/kappa in theta, written with two
    free constants (c1, c2) by variation of parameters:

        v1 = cos(theta) (c1 - I1) + sin(theta) (c2 + I2),
        I1 = Int tau sin(theta) ds,  I2 = Int tau cos(theta) ds.

    The axis is v1 T + (v1'/kappa) N + (c3 - Int tau (v1'/kappa) ds) B1
    + B2. Every choice of (c1, c2, c3) gives a constant vector with
    g(B1, U) = 1, which is why the 2-type verdict for this family is
    yes by construction (checked against the oracle anyway).
    """
    c1, c2, c3 = (float(x) for x in c)
    grid = trace.s
    tau_fn = p.tau
    theta, theta_at = make_cumulative(p.kappa, grid)
    i1 = cumulative_integral(lambda t: tau_fn(t) * np.sin(theta_at(t)), grid)
    i2 = cumulative_integral(lambda t: tau_fn(t) * np.cos(theta_at(t)), grid)
    u1 = np.cos(theta) * (c1 - i1) + np.sin(theta) * (c2 + i2)
    u2 = -np.sin(theta) * (c1 - i1) + np.cos(theta) * (c2 + i2)
    # tau u2 = (-c1 I1 + c2 I2 + (I1^2 + I2^2) / 2)', so Int tau u2 is exact
    u3 = c3 + c1 * i1 - c2 * i2 - 0.5 * (i1**2 + i2**2)
    return assemble_axis(trace, 2, "oscillator-solution", u1, u2, u3, 1.0)


def pn_type3_check(p: CurvatureProfile, tol: Tolerances = Tolerances(),
                   type0: Optional[CheckResult] = None) -> CheckResult:
    """3-type coincides with 0-type for partially null curves.

    Pass the k = 0 result as `type0` to reuse it; it is not modified.
    """
    if type0 is None:
        type0 = pn_type0_check(p, tol)
    return replace(type0, extras={**type0.extras, "equivalent_to": "k0"})


PN_IMPLICATIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 1), (3, 2))


# ---------------------------------------------------------------------------
# pseudo null family (kappa = 1)

def psn_type0_check(p: CurvatureProfile, trace: CurveTrace,
                    tol: Tolerances = Tolerances(),
                    oracle: Optional[OracleResult] = None) -> CheckResult:
    """No pseudo null curve is a general helix; assert the oracle agrees.

    The verdict is always No. The oracle margin (sigma_min over its
    threshold) is reported, and an oracle Yes is flagged as an internal
    inconsistency rather than believed.
    """
    _require_kind(p, FrameKind.PSEUDO_NULL)
    if oracle is None:
        oracle = oracle_detect(trace, 0, tol)
    flags = []
    if oracle.verdict is Verdict.YES:
        flags.append("internal-inconsistency: oracle found a tangent axis "
                     "for a pseudo null curve")
    margin = oracle.sigma_min / oracle.threshold if oracle.threshold else float("inf")
    return CheckResult(Verdict.NO, oracle.sigma_min, flags=flags,
                       extras={"margin": margin, "oracle": oracle})


def psn_type1_check(p: CurvatureProfile,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff sigma/tau = -s^2/2 + a s + b; fits (a, b)."""
    _require_kind(p, FrameKind.PSEUDO_NULL)
    grid = p.grid(tol.grid_points)
    _, tau, sigma = p.evaluate_arrays(grid)
    _guard_nonzero(tau, "tau")
    q = sigma / tau
    target = q + 0.5 * grid**2
    design = np.column_stack([grid, np.ones_like(grid)])
    a_fit, b_fit = _damped_lstsq(design, target, tol.damping)
    residual = _rms(target - design @ (a_fit, b_fit)) / (
        1.0 + _rms(q) + _rms(0.5 * grid**2))
    verdict = Verdict.of(residual < tol.eps_cond)
    return CheckResult(verdict, residual, constants={
        "a": FittedConstant(a_fit, residual),
        "b": FittedConstant(b_fit, residual),
    })


def psn_type1_axis(p: CurvatureProfile, trace: CurveTrace,
                   tol: Tolerances = Tolerances(),
                   k: int = 1) -> AxisCandidate:
    """Axis -(sigma/tau)' T + (sigma/tau) N + B2 for the quadratic family.

    The ratio derivative is taken numerically (stencils shift inside the
    domain near the edges). g(N, U) = 1 and g(B1, U) = 0, so the same
    vector certifies k = 2 with a vanishing pairing constant; pass k = 2
    to relabel it for that use.
    """
    sigma_fn, tau_fn = p.sigma, p.tau

    def q_fn(t):
        return sigma_fn(t) / tau_fn(t)

    q_vals = q_fn(trace.s)
    qp = pointwise_derivative(q_fn, trace.s, order=1, domain=p.domain)
    return assemble_axis(trace, k, "ratio-derivative", -qp, q_vals, 0.0, 1.0)


def psn_type2_check(p: CurvatureProfile, tol: Tolerances = Tolerances(),
                    type1: Optional[CheckResult] = None) -> CheckResult:
    """2-type via the torsion-integral identity, with its blind spot covered.

    Identity route: with I = c_int + Int tau, require
    I + d/ds[sigma + d/ds((sigma/tau) I)] = 0, minimizing over the one
    free constant c_int. That route assumes the axis pairs with B1 with a
    NONZERO constant. Quadratic-ratio curves (the 1-type family) carry a
    2-type axis whose B1 pairing constant is zero and genuinely fail the
    identity, so the verdict is the disjunction: identity holds, or the
    1-type condition holds. The identity residual is always reported.
    """
    _require_kind(p, FrameKind.PSEUDO_NULL)
    grid = p.grid(tol.grid_points)
    step = grid[1] - grid[0]
    _, tau, sigma = p.evaluate_arrays(grid)
    _guard_nonzero(tau, "tau")
    q = sigma / tau
    tint = cumulative_integral(p.tau, grid)
    # R(c_int) = R0 + c_int * R1, linear because differentiation is
    inner0 = grid_derivative(q * tint, step)
    inner1 = grid_derivative(q, step)
    outer0 = grid_derivative(sigma + inner0, step)
    outer1 = grid_derivative(inner1, step)
    r0 = tint + outer0
    r1 = 1.0 + outer1
    core = slice(4, -4)  # two stencil passes eat two points per end each
    denom = float(r1[core] @ r1[core]) + tol.damping
    c_int = float(-(r1[core] @ r0[core]) / denom)
    r_min = r0[core] + c_int * r1[core]
    i_vals = tint[core] + c_int
    outer_vals = outer0[core] + c_int * outer1[core]
    scale = 1.0 + _rms(i_vals) + _rms(outer_vals)
    residual = _rms(r_min) / scale
    identity_ok = residual < tol.eps_cond

    if type1 is None:
        type1 = psn_type1_check(p, tol)
    branch = None
    if identity_ok:
        branch = "torsion-integral"
    elif type1.verdict is Verdict.YES:
        branch = "ratio-quadratic"
    flags = []
    if branch == "ratio-quadratic":
        flags.append("2-type via zero-pairing axis; torsion-integral "
                     "identity does not apply")
    return CheckResult(Verdict.of(branch is not None), residual,
                       constants={"c_int": FittedConstant(c_int, residual)},
                       flags=flags, extras={"branch": branch})


def psn_type2_axis(p: CurvatureProfile, trace: CurveTrace, c_int: float,
                   tol: Tolerances = Tolerances()) -> AxisCandidate:
    """Axis for the torsion-integral branch, unit B1 pairing.

    U = -[sigma + ((sigma/tau) I)'] T + (sigma/tau) I N + B1 + I B2 with
    I = c_int + Int tau. Only valid when the identity residual is small;
    callers gate on psn_type2_check.
    """
    grid = trace.s
    _, tau, sigma = p.evaluate_arrays(grid)
    q = sigma / tau
    i_vals = c_int + cumulative_integral(p.tau, grid)
    w = q * i_vals
    wp = grid_derivative(w, trace.h)
    return assemble_axis(trace, 2, "torsion-integral",
                         -(sigma + wp), w, 1.0, i_vals)


def psn_type3_check(p: CurvatureProfile, trace: CurveTrace,
                    tol: Tolerances = Tolerances(),
                    oracle: Optional[OracleResult] = None) -> CheckResult:
    """3-type is decided by the oracle; the closed form is advisory only.

    The published closed-form condition for this case is internally
    inconsistent, so its residual is evaluated and logged but never
    decides. A disagreement between the two is flagged.
    """
    _require_kind(p, FrameKind.PSEUDO_NULL)
    if oracle is None:
        oracle = oracle_detect(trace, 3, tol)
    residual, note = _binormal_closed_form_residual(p, tol)
    if residual is None:
        log.info("closed-form 3-type residual unavailable (%s)", note)
    else:
        log.info("closed-form 3-type residual %.6e (advisory)", residual)
    flags = []
    if residual is not None:
        closed_says_yes = residual < tol.eps_cond
        if Verdict.of(closed_says_yes) is not oracle.verdict:
            flags.append("closed-form 3-type residual disagrees with oracle "
                         f"(residual {residual:.3g}, oracle {oracle.verdict.value})")
    return CheckResult(oracle.verdict, oracle.sigma_min, flags=flags,
                       extras={"oracle": oracle,
                               "closed_form_residual": residual,
                               "closed_form_note": note})


def _binormal_closed_form_residual(p: CurvatureProfile, tol: Tolerances
                                   ) -> tuple[Optional[float], str]:
    """Advisory residual of the published second-binormal condition.

    phi = tau / sqrt(1 + sigma^2) + d/ds [ sqrt(1 + sigma^2)
          (sigma tau' (1 + sigma^2) + tau sigma' (2 - sigma^2))
          / (tau (1 + sigma^2)^2 - 3 tau tau'^2 + sigma'' (1 + sigma^2)) ]

    Returns (normalized max |phi| on the interior grid, note). Vanishing
    denominators or evaluation faults degrade to (None, reason); this
    must never crash a classification.
    """
    try:
        grid = p.grid(tol.grid_points)
        step = grid[1] - grid[0]
        _, tau, sigma = p.evaluate_arrays(grid)
        taup = pointwise_derivative(p.tau, grid, order=1, domain=p.domain)
        sigp = pointwise_derivative(p.sigma, grid, order=1, domain=p.domain)
        sigpp = pointwise_derivative(p.sigma, grid, order=2, domain=p.domain)
        one = 1.0 + sigma**2
        numer = np.sqrt(one) * (sigma * taup * one + tau * sigp * (2.0 - sigma**2))
        denom = tau * one**2 - 3.0 * tau * taup**2 + sigpp * one
        if np.min(np.abs(denom)) < 1e-9 * (1.0 + np.max(np.abs(denom))):
            return None, "denominator vanishes on the grid"
        phi = tau / np.sqrt(one) + grid_derivative(numer / denom, step)
        core = phi[2:-2]
        lead = np.max(np.abs(tau / np.sqrt(one)))
        return float(np.max(np.abs(core)) / (1.0 + lead)), ""
    except Exception as exc:  # advisory only, never fatal
        return None, f"evaluation failed: {exc}"


PSN_IMPLICATIONS = ((1, 2),)


def _require_kind(p: CurvatureProfile, kind: FrameKind) -> None:
    if p.kind is not kind:
        raise ProfileError(f"check requires a {kind.value} profile, "
                           f"got {p.kind.value}")


# ---------------------------------------------------------------------------
# report and pipeline

@dataclass
class ClassificationReport:
    label: str
    kind: FrameKind
    verdicts: dict                    # k -> Verdict, after closure
    raw_verdicts: dict                # k -> Verdict, before closure
    condition_residuals: dict         # k -> float | None
    constants: dict                   # name -> FittedConstant
    axes: list                        # (AxisCandidate, AxisValidation) pairs
    oracle: dict                      # k -> OracleResult
    agreement: dict                   # k -> bool
    closure_notes: list
    flags: list
    max_gram_residual: float
    trivial_axis: Optional[dict] = None
    pseudohyperbolic: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind.value,
            "verdicts": {f"k{k}": v.value for k, v in sorted(self.verdicts.items())},
            "raw_verdicts": {f"k{k}": v.value
                             for k, v in sorted(self.raw_verdicts.items())},
            "condition_residuals": {f"k{k}": _jsonable(r)
                                    for k, r in sorted(self.condition_residuals.items())},
            "constants": {name: c.to_json_dict()
                          for name, c in sorted(self.constants.items())},
            "axes": [dict(val.to_json_dict(),
                          U_at_s0=[_jsonable(x) for x in cand.u_at_start()])
                     for cand, val in self.axes],
            "oracle": {f"k{k}": o.to_json_dict()
                       for k, o in sorted(self.oracle.items())},
            "agreement": {f"k{k}": bool(a)
                          for k, a in sorted(self.agreement.items())},
            "closure": list(self.closure_notes),
            "flags": list(self.flags),
            "gram": {"max_residual": _jsonable(self.max_gram_residual)},
            "trivial_axis": self.trivial_axis,
            "pseudohyperbolic": self.pseudohyperbolic,
        }


def classify_profile(p: CurvatureProfile,
                     h: Optional[float] = None,
                     drift_mode: str = "monitor",
                     tol: Tolerances = Tolerances(),
                     trace: Optional[CurveTrace] = None) -> ClassificationReport:
    """Full classification: checks, axes, oracle, closure, and flags.

    A family step returns the condition result for each k, its validated
    axes and their flags; everything after that is shared.
    """
    if trace is None:
        trace = integrate_frame(p, h=h, drift_mode=drift_mode,
                                eps_gram=tol.eps_gram)
    else:
        p.validate()
    oracle = {k: oracle_detect(trace, k, tol) for k in range(4)}
    if p.kind is FrameKind.PARTIALLY_NULL:
        checks, axes, flags = _partially_null_checks(p, trace, tol)
        implications = PN_IMPLICATIONS
    else:
        checks, axes, flags = _pseudo_null_checks(p, trace, tol, oracle)
        implications = PSN_IMPLICATIONS

    raw = {k: res.verdict for k, res in checks.items()}
    closed, notes, inconsistencies = implication_closure(raw, implications)
    flags.extend(f"closure-inconsistency: {msg}" for msg in inconsistencies)
    for res in checks.values():
        flags.extend(res.flags)
    agreement = {k: oracle[k].verdict is closed[k] for k in range(4)}
    for k, ok in agreement.items():
        if not ok:
            flags.append(f"oracle-condition-disagreement: k{k} condition "
                         f"{closed[k].value}, oracle {oracle[k].verdict.value}")
    constants = {}
    for res in checks.values():
        constants.update(res.constants)

    trivial = hyp = None
    if p.kind is FrameKind.PARTIALLY_NULL:
        b1 = trace.frames[0, 2]
        trivial = {
            "note": "B1 pairs constantly with every frame vector and is "
                    "excluded from oracle verdicts",
            "g_values": {f"k{k}": _jsonable(pairing(trace.frames[0, k], b1))
                         for k in range(4)},
        }
    else:
        hyp = hyperbolic.pseudohyperbolic_block(p, trace, tol, type1=checks[1])
        if hyp.get("is_h3_family") and checks[1].verdict is Verdict.YES:
            flags.append("internal-inconsistency: constant-ratio curve "
                         "classified 1-type")
    return ClassificationReport(
        label=p.label, kind=p.kind,
        verdicts=closed, raw_verdicts=raw,
        condition_residuals={k: res.residual for k, res in checks.items()},
        constants=constants, axes=axes, oracle=oracle, agreement=agreement,
        closure_notes=notes, flags=flags,
        max_gram_residual=trace.max_gram_residual, trivial_axis=trivial,
        pseudohyperbolic=hyp)


def implication_closure(raw: dict, implications) -> tuple[dict, list, list]:
    """Propagate verdicts along the edges (a, b), read "k = a implies k = b".

    The graphs are PN_IMPLICATIONS (0 => {1,2,3}, 1 => 2, 3 => {0,1,2})
    and PSN_IMPLICATIONS (1 => 2). Yes propagates forward, No propagates
    backward (contrapositive), and a raw No that an implication says must
    be Yes is reported as an inconsistency instead of being overwritten.
    Idempotent and monotone: no Yes ever becomes No.
    """
    closed = {k: raw.get(k, Verdict.UNDETERMINED) for k in range(4)}
    notes, inconsistencies = [], []
    changed = True
    while changed:
        changed = False
        for a, b in implications:
            if closed[a] is Verdict.YES and closed[b] is Verdict.NO:
                msg = f"k{a}=Yes implies k{b}=Yes but k{b}=No"
                if msg not in inconsistencies:
                    inconsistencies.append(msg)
            elif closed[a] is Verdict.YES and closed[b] is Verdict.UNDETERMINED:
                closed[b] = Verdict.YES
                notes.append(f"k{b}=Yes from k{a}=Yes")
                changed = True
            elif closed[b] is Verdict.NO and closed[a] is Verdict.UNDETERMINED:
                closed[a] = Verdict.NO
                notes.append(f"k{a}=No from k{b}=No")
                changed = True
    return closed, notes, inconsistencies


def _validated(trace, candidates, tol, flags, context):
    out = []
    for cand in candidates:
        val = validate_axis(trace, cand, tol.eps_axis)
        if not val.passed:
            flags.append(f"internal-inconsistency: {context} axis "
                         f"'{cand.source}' (k={cand.k}) failed validation "
                         f"(max_dU {val.max_du:.3g})")
        out.append((cand, val))
    return out


def _partially_null_checks(p, trace, tol) -> tuple[dict, list, list]:
    """Condition results for k = 0..3, validated axes and axis flags."""
    sigma_vals = p.evaluate_arrays(p.grid(65))[2]
    if np.max(np.abs(sigma_vals)) > 1e-12:
        raise ProfileError("classification requires sigma = 0 for "
                           "partially null profiles")
    flags = []
    # 2-type axis exists for every admissible profile; verdict is its
    # validation, and a failure there is an internal inconsistency.
    axis2 = pn_type2_axis(p, trace, (1.0, 0.0, 0.0), tol)
    val2 = validate_axis(trace, axis2, tol.eps_axis)
    if not val2.passed:
        flags.append("internal-inconsistency: universal 2-type axis failed "
                     f"validation (max_dU {val2.max_du:.3g})")
    axes = [(axis2, val2)]
    r0, r1 = pn_type0_check(p, tol), pn_type1_check(p, tol)
    checks = {0: r0, 1: r1,
              2: CheckResult(Verdict.of(val2.passed), val2.max_du),
              3: pn_type3_check(p, tol, type0=r0)}

    degenerate1 = r1.verdict is Verdict.YES and r1.extras.get("degenerate")
    if r0.verdict is Verdict.YES or degenerate1:
        ratio_axes = pn_type0_axes(p, trace, tol)
    if r0.verdict is Verdict.YES:
        axes.extend(_validated(trace, ratio_axes, tol, flags, "constant-ratio"))
        axes.extend(_validated(trace, [replace(ratio_axes[0], k=3)],
                               tol, flags, "constant-ratio"))
    if r1.verdict is Verdict.YES:
        if degenerate1:
            axes.extend(_validated(trace, [replace(ratio_axes[0], k=1)],
                                   tol, flags, "degenerate affine"))
        else:
            axis1 = pn_type1_axis(p, trace, r1.constants["C"].value,
                                  r1.constants["c0"].value, tol)
            axes.extend(_validated(trace, [axis1], tol, flags, "affine"))
    return checks, axes, flags


def _pseudo_null_checks(p, trace, tol, oracle) -> tuple[dict, list, list]:
    """Condition results for k = 0..3, validated axes and axis flags.

    The k = 3 verdict is the oracle's; its reported residual is the
    advisory closed form, since sigma_min is already in the oracle block.
    """
    flags, axes = [], []
    r1 = psn_type1_check(p, tol)
    r2 = psn_type2_check(p, tol, type1=r1)
    r3 = psn_type3_check(p, trace, tol, oracle=oracle[3])
    checks = {0: psn_type0_check(p, trace, tol, oracle=oracle[0]), 1: r1,
              2: r2,
              3: replace(r3, residual=r3.extras.get("closed_form_residual"))}

    if r1.verdict is Verdict.YES:
        axis1 = psn_type1_axis(p, trace, tol)
        axes.extend(_validated(trace, [axis1], tol, flags, "quadratic-ratio"))
    if r2.verdict is Verdict.YES:
        if r2.extras.get("branch") == "torsion-integral":
            axis2 = psn_type2_axis(p, trace, r2.constants["c_int"].value, tol)
        else:
            axis2 = psn_type1_axis(p, trace, tol, k=2)
        axes.extend(_validated(trace, [axis2], tol, flags, "2-type"))
    return checks, axes, flags
