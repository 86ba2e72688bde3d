"""Slant-helix condition checks, axis constructions, and the oracle.

For k in 0..3, a k-type slant helix admits a fixed vector pairing
constantly with the k-th frame row (T, N, B1, B2). Each family has
closed-form conditions on the curvature functions for some k; every
condition here is paired with an independent nullspace oracle on the
integrated trace so the two routes can disagree loudly instead of
silently.

One classification samples each grid once. The checks read one Samples
bundle on the check grid (profile.sample()); the axis builders read the
curvatures the trace carries on its own grid; the oracle decides all
four k from one stacked SVD of the trace.

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
from .calculus import cumulative_integral, grid_derivative, make_cumulative
from .errors import DegenerateAxisError, ProfileError
from .fits import (DAMPING, CheckResult, FittedConstant, Tolerances, Verdict,
                   _constant_fit, _damped_lstsq, _guard_nonzero, _jsonable,
                   _rms)
from .frames import FrameKind
from .integrator import CurveTrace, integrate_frame
from .minkowski import SIGNS, nullspace_min_singular, pairing, row_norm
from .profiles import CurvatureProfile, Samples

log = logging.getLogger("lcl.classifier")

# The oracle's threshold on sigma_min is this times sqrt(row count).
EPS_ORACLE_COEFF = 1e-7


@dataclass
class OracleResult:
    verdict: Verdict
    vector: Optional[np.ndarray]
    sigma_min: float
    threshold: float
    note: str = ""
    g_mean: float = float("nan")
    g_variance: float = float("nan")

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "U": list(self.vector) if self.vector is not None else None,
            "sigma_min": _jsonable(self.sigma_min),
            "threshold": _jsonable(self.threshold),
            "note": self.note,
            "g_mean": _jsonable(self.g_mean),
            "g_variance": _jsonable(self.g_variance),
        }


# ---------------------------------------------------------------------------
# oracle

def oracle_detect(trace: CurveTrace,
                  tol: Tolerances = Tolerances()) -> dict:
    """Decide k-type numerically from the trace alone, for k = 0..3.

    Rows M (V(s_i) - V(s_0)) with M = diag(-1,1,1,1) annihilate exactly
    the vectors whose pairing with V stays constant, so the smallest
    singular value measures how far the curve is from k-type. For
    partially null traces a unit B1 row is appended, which removes the
    trivial axis from the nullspace; the recovered vector is then the
    Euclidean projection of any true axis away from B1. The rows of all
    four k stack to (4, m, 4) for one SVD call; a row that never moves
    ("indicatrix constant") is its own axis and skips the SVD's answer.
    """
    v = trace.frames.transpose(1, 0, 2)          # v[k]: row k of each frame
    rows = (v[:, 1:] - v[:, :1]) * SIGNS
    max_row = np.max(row_norm(rows), axis=1)
    constant = max_row < 1e-9 * (1.0 + np.max(row_norm(v), axis=1))
    constant_threshold = EPS_ORACLE_COEFF * math.sqrt(rows.shape[1])
    note = ""
    if trace.kind is FrameKind.PARTIALLY_NULL:
        b1 = trace.frames[0, 2]
        unit = np.broadcast_to(b1 / np.linalg.norm(b1), (4, 1, 4))
        rows = np.concatenate([rows, unit], axis=1)
        note = "trivial B1 direction excluded"
    threshold = EPS_ORACLE_COEFF * math.sqrt(rows.shape[1])
    cand = nullspace_min_singular(rows)
    results = {}
    for k in range(4):
        if constant[k]:
            u = v[k, 0] * SIGNS
            u = u / np.linalg.norm(u)
        else:
            u = cand.vector[k]
        g_vals = pairing(v[k], u)
        g_mean, g_var = float(np.mean(g_vals)), float(np.var(g_vals))
        if constant[k]:
            results[k] = OracleResult(
                Verdict.YES, u, float(max_row[k]),
                constant_threshold, "indicatrix constant", g_mean, g_var)
            continue
        sigma_min = float(cand.sigma_min[k])
        verdict, k_note = Verdict.of(sigma_min < threshold), note
        if verdict is Verdict.YES and g_var >= tol.eps_axis:
            verdict = Verdict.NO
            k_note = (note + "; " if note else "") + "candidate failed pairing validation"
        results[k] = OracleResult(verdict, u, sigma_min,
                                  threshold, k_note, g_mean, g_var)
    return results


# ---------------------------------------------------------------------------
# partially null family (sigma identically 0)

def pn_type0_check(smp: Samples,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """0-type (general helix) iff tau/kappa is constant."""
    _require_kind(smp, FrameKind.PARTIALLY_NULL)
    _guard_nonzero(smp.kappa, "kappa")
    ok, mean, residual = _constant_fit(smp.tau / smp.kappa, tol.eps_cond)
    return CheckResult(Verdict.of(ok), residual,
                       constants={"ratio": FittedConstant(mean, residual)})


def pn_type0_axes(trace: CurveTrace) -> list[AxisCandidate]:
    """Axes for a constant-ratio curve.

    Primary candidate (tau/kappa) T + B1 + B2; the B1-free variant
    (tau/kappa) T + B2 is emitted second. Both are constant whenever the
    ratio is, and both also certify k = 3 (their B2 pairing is constant).
    """
    ratio = trace.tau / trace.kappa
    return [
        assemble_axis(trace, 0, "helix-ratio", ratio, 0.0, 1.0, 1.0),
        assemble_axis(trace, 0, "helix-ratio-tangent", ratio, 0.0, 0.0, 1.0),
    ]


def pn_type1_check(smp: Samples,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff tau/kappa is affine in the anchored integral of kappa.

    Model: tau/kappa = C * (c0 + K(s)) with K(s) the integral of kappa
    from s_min. The fit is linear in (C*c0, C). A constant ratio makes the
    C direction unidentifiable; that degenerate fit is still a Yes (the
    constant-ratio axes pair constantly with N as well) and is flagged,
    with both the product C*c0 and the raw coefficients reported.
    """
    _require_kind(smp, FrameKind.PARTIALLY_NULL)
    _guard_nonzero(smp.kappa, "kappa")
    ratio = smp.tau / smp.kappa
    kint = cumulative_integral(smp.profile.kappa, smp.s)
    design = np.column_stack([np.ones_like(kint), kint])
    a0, c_lin = _damped_lstsq(design, ratio)
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


def pn_type1_axis(trace: CurveTrace, c_lin: float,
                  c0: float) -> AxisCandidate:
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
    p = trace.profile
    kint = cumulative_integral(p.kappa, trace.s)
    tint = cumulative_integral(p.tau, trace.s)
    return assemble_axis(trace, 1, "curvature-integral",
                         c0 + kint, 1.0, -tint, 1.0 / c_lin)


def pn_type2_axis(trace: CurveTrace,
                  c: tuple[float, float, float] = (1.0, 0.0, 0.0)
                  ) -> AxisCandidate:
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
    grid, p = trace.s, trace.profile
    theta, theta_at = make_cumulative(p.kappa, grid)

    def integrands(t):
        # tau and theta once per Gauss node, shared by I1 and I2
        tau, th = p.tau(t), theta_at(t)
        return np.stack([tau * np.sin(th), tau * np.cos(th)])

    i1, i2 = cumulative_integral(integrands, grid)
    u1 = np.cos(theta) * (c1 - i1) + np.sin(theta) * (c2 + i2)
    u2 = -np.sin(theta) * (c1 - i1) + np.cos(theta) * (c2 + i2)
    # tau u2 = (-c1 I1 + c2 I2 + (I1^2 + I2^2) / 2)', so Int tau u2 is exact
    u3 = c3 + c1 * i1 - c2 * i2 - 0.5 * (i1**2 + i2**2)
    return assemble_axis(trace, 2, "oscillator-solution", u1, u2, u3, 1.0)


PN_IMPLICATIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 1), (3, 2))


# ---------------------------------------------------------------------------
# pseudo null family (kappa = 1)

def psn_type1_check(smp: Samples,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff sigma/tau = -s^2/2 + a s + b; fits (a, b)."""
    _require_kind(smp, FrameKind.PSEUDO_NULL)
    grid = smp.s
    _guard_nonzero(smp.tau, "tau")
    q = smp.sigma / smp.tau
    target = q + 0.5 * grid**2
    design = np.column_stack([grid, np.ones_like(grid)])
    a_fit, b_fit = _damped_lstsq(design, target)
    residual = _rms(target - design @ (a_fit, b_fit)) / (
        1.0 + _rms(q) + _rms(0.5 * grid**2))
    verdict = Verdict.of(residual < tol.eps_cond)
    return CheckResult(verdict, residual, constants={
        "a": FittedConstant(a_fit, residual),
        "b": FittedConstant(b_fit, residual),
    })


def psn_type1_axis(trace: CurveTrace, k: int = 1) -> AxisCandidate:
    """Axis -(sigma/tau)' T + (sigma/tau) N + B2 for the quadratic family.

    The ratio is sampled on the trace grid and differentiated there with
    grid_derivative; its 5-point stencils are exact on the quadratic
    ratios of this family. g(N, U) = 1 and g(B1, U) = 0, so the same
    vector certifies k = 2 with a vanishing pairing constant; pass k = 2
    to relabel it for that use.
    """
    q = trace.sigma / trace.tau
    qp = grid_derivative(q, trace.h)
    return assemble_axis(trace, k, "ratio-derivative", -qp, q, 0.0, 1.0)


def psn_type2_check(smp: Samples, type1: CheckResult,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """2-type via the torsion-integral identity, with its blind spot covered.

    Identity route: with I = c_int + Int tau, require
    I + d/ds[sigma + d/ds((sigma/tau) I)] = 0, minimizing over the one
    free constant c_int. That route assumes the axis pairs with B1 with a
    NONZERO constant. Quadratic-ratio curves (the 1-type family) carry a
    2-type axis whose B1 pairing constant is zero and genuinely fail the
    identity, so the verdict is the disjunction: identity holds, or the
    1-type condition holds (`type1`, the k = 1 result on the same
    samples). The identity residual is always reported.
    """
    _require_kind(smp, FrameKind.PSEUDO_NULL)
    step, sigma = smp.h, smp.sigma
    _guard_nonzero(smp.tau, "tau")
    q = sigma / smp.tau
    tint = cumulative_integral(smp.profile.tau, smp.s)
    # R(c_int) = R0 + c_int * R1, linear because differentiation is
    inner0 = grid_derivative(q * tint, step)
    inner1 = grid_derivative(q, step)
    outer0 = grid_derivative(sigma + inner0, step)
    outer1 = grid_derivative(inner1, step)
    r0 = tint + outer0
    r1 = 1.0 + outer1
    core = slice(4, -4)  # two stencil passes eat two points per end each
    denom = float(r1[core] @ r1[core]) + DAMPING
    c_int = float(-(r1[core] @ r0[core]) / denom)
    r_min = r0[core] + c_int * r1[core]
    i_vals = tint[core] + c_int
    outer_vals = outer0[core] + c_int * outer1[core]
    scale = 1.0 + _rms(i_vals) + _rms(outer_vals)
    residual = _rms(r_min) / scale
    identity_ok = residual < tol.eps_cond

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


def psn_type2_axis(trace: CurveTrace, c_int: float) -> AxisCandidate:
    """Axis for the torsion-integral branch, unit B1 pairing.

    U = -[sigma + ((sigma/tau) I)'] T + (sigma/tau) I N + B1 + I B2 with
    I = c_int + Int tau. Only valid when the identity residual is small;
    callers gate on psn_type2_check.
    """
    q = trace.sigma / trace.tau
    i_vals = c_int + cumulative_integral(trace.profile.tau, trace.s)
    w = q * i_vals
    wp = grid_derivative(w, trace.h)
    return assemble_axis(trace, 2, "torsion-integral",
                         -(trace.sigma + wp), w, 1.0, i_vals)


def psn_type3_check(smp: Samples, oracle: OracleResult,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """3-type is decided by the k = 3 oracle; the closed form is advisory.

    The published closed-form condition for this case is internally
    inconsistent: its residual is logged and is the result's residual
    (None when it cannot be evaluated), but never decides. A disagreement
    between the two is flagged.
    """
    _require_kind(smp, FrameKind.PSEUDO_NULL)
    residual, note = _binormal_closed_form_residual(smp)
    flags = []
    if residual is None:
        log.info("closed-form 3-type residual unavailable (%s)", note)
    else:
        log.info("closed-form 3-type residual %.6e (advisory)", residual)
        if Verdict.of(residual < tol.eps_cond) is not oracle.verdict:
            flags.append("closed-form 3-type residual disagrees with oracle "
                         f"(residual {residual:.3g}, oracle {oracle.verdict.value})")
    return CheckResult(oracle.verdict, residual, flags=flags)


def _binormal_closed_form_residual(
        smp: Samples) -> tuple[Optional[float], str]:
    """Advisory residual of the published second-binormal condition.

    phi = tau / sqrt(1 + sigma^2) + d/ds [ sqrt(1 + sigma^2)
          (sigma tau' (1 + sigma^2) + tau sigma' (2 - sigma^2))
          / (tau (1 + sigma^2)^2 - 3 tau tau'^2 + sigma'' (1 + sigma^2)) ]

    Returns (normalized max |phi| on the interior grid, note). Vanishing
    denominators or evaluation faults degrade to (None, reason); this
    must never crash a classification.
    """
    try:
        step, tau, sigma = smp.h, smp.tau, smp.sigma
        taup = grid_derivative(tau, step)
        sigp = grid_derivative(sigma, step)
        sigpp = grid_derivative(sigma, step, order=2)
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


def _require_kind(smp: Samples, kind: FrameKind) -> None:
    if smp.kind is not kind:
        raise ProfileError(f"check requires a {kind.value} profile, "
                           f"got {smp.kind.value}")


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
                     tol: Tolerances = Tolerances()) -> ClassificationReport:
    """Full classification: checks, axes, oracle, closure, and flags.

    A family step returns the condition result for each k, its validated
    axes and their flags; everything after that is shared.
    """
    trace = integrate_frame(p, h=h)
    smp = p.sample()
    oracle = oracle_detect(trace, tol)
    if p.kind is FrameKind.PARTIALLY_NULL:
        checks, axes, flags = _partially_null_checks(smp, trace, tol)
        implications = PN_IMPLICATIONS
    else:
        checks, axes, flags = _pseudo_null_checks(smp, trace, tol, oracle)
        implications = PSN_IMPLICATIONS

    raw = {k: res.verdict for k, res in checks.items()}
    closed, notes, inconsistencies = implication_closure(raw, implications)
    flags.extend(f"closure-inconsistency: {msg}" for msg in inconsistencies)
    constants = {}
    for res in checks.values():
        flags.extend(res.flags)
        constants.update(res.constants)
    agreement = {k: oracle[k].verdict is closed[k] for k in range(4)}
    for k, ok in agreement.items():
        if not ok:
            flags.append(f"oracle-condition-disagreement: k{k} condition "
                         f"{closed[k].value}, oracle {oracle[k].verdict.value}")

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
        hyp = hyperbolic.pseudohyperbolic_block(smp, trace, tol)
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


def _partially_null_checks(smp, trace, tol) -> tuple[dict, list, list]:
    """Condition results for k = 0..3, validated axes and axis flags."""
    if np.max(np.abs(smp.sigma)) > 1e-12:
        raise ProfileError("classification requires sigma = 0 for "
                           "partially null profiles")
    flags = []
    # 2-type axis exists for every admissible profile; verdict is its
    # validation, and a failure there is an internal inconsistency.
    axes = _validated(trace, [pn_type2_axis(trace)], tol, flags, "universal")
    val2 = axes[0][1]
    r0, r1 = pn_type0_check(smp, tol), pn_type1_check(smp, tol)
    # 3-type coincides with 0-type for partially null curves
    checks = {0: r0, 1: r1,
              2: CheckResult(Verdict.of(val2.passed), val2.max_du), 3: r0}

    degenerate1 = r1.verdict is Verdict.YES and r1.extras.get("degenerate")
    if r0.verdict is Verdict.YES or degenerate1:
        ratio_axes = pn_type0_axes(trace)
    if r0.verdict is Verdict.YES:
        axes.extend(_validated(trace, ratio_axes, tol, flags, "constant-ratio"))
        axes.extend(_validated(trace, [replace(ratio_axes[0], k=3)],
                               tol, flags, "constant-ratio"))
    if r1.verdict is Verdict.YES:
        if degenerate1:
            axes.extend(_validated(trace, [replace(ratio_axes[0], k=1)],
                                   tol, flags, "degenerate affine"))
        else:
            axis1 = pn_type1_axis(trace, r1.constants["C"].value,
                                  r1.constants["c0"].value)
            axes.extend(_validated(trace, [axis1], tol, flags, "affine"))
    return checks, axes, flags


def _pseudo_null_checks(smp, trace, tol, oracle) -> tuple[dict, list, list]:
    """Condition results for k = 0..3, validated axes and axis flags.

    No pseudo null curve is 0-type: k0 is No with the oracle's sigma_min
    as its residual, and an oracle Yes shows as the k0 disagreement.
    """
    flags, axes = [], []
    r1 = psn_type1_check(smp, tol)
    r2 = psn_type2_check(smp, r1, tol)
    checks = {0: CheckResult(Verdict.NO, oracle[0].sigma_min), 1: r1, 2: r2,
              3: psn_type3_check(smp, oracle[3], tol)}

    if r1.verdict is Verdict.YES:
        axis1 = psn_type1_axis(trace)
        axes.extend(_validated(trace, [axis1], tol, flags, "quadratic-ratio"))
    if r2.verdict is Verdict.YES:
        if r2.extras.get("branch") == "torsion-integral":
            axis2 = psn_type2_axis(trace, r2.constants["c_int"].value)
        else:
            axis2 = psn_type1_axis(trace, k=2)
        axes.extend(_validated(trace, [axis2], tol, flags, "2-type"))
    return checks, axes, flags
