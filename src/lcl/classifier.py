"""Slant-helix condition checks, axis constructions, and the oracle.

For k in 0..3, a k-type slant helix admits a fixed vector pairing
constantly with the k-th frame row (T, N, B1, B2). Each family has
closed-form conditions on the curvature functions for some k; every
condition here is paired with an independent nullspace oracle on the
integrated trace so the two routes can disagree loudly instead of
silently. Where a family has no usable closed form (pseudo null k = 0
and k = 3) the oracle decides. Every reported condition residual is the
number that decided its verdict: a fit residual, the max_dU of the one
axis that decides, or the oracle's sigma_min; except for a pseudo null
k = 2 Yes by the quadratic-ratio route, which k = 1 decided.

A family is its FAMILIES entry: rows (k, check, build), its implication
graph and its report block; its frame data is frames.FAMILIES.
classify_profile walks the entry with the same code for every family.
Each row's verdict is final when the row decides it; the implication
graph only flags the edges those verdicts break.

One classification evaluates each profile component once, on the
integration's half-step lattice, where the family rules were checked.
The checks and the axis builders read the trace's curvatures on its
grid, every integral is Simpson's rule on that lattice
(CurveTrace.curvature_integrals, lattice_integral), no curvature is
differentiated, and the oracle decides all four k from one stacked SVD
of the trace.

Partially null curves are classified with sigma identically 0; the frame
freedom that makes other sigma choices equivalent is not modeled here.
The trivial axis B1 (which pairs constantly with everything) is excluded
from oracle verdicts, and each oracle entry's note says so.

Fit conventions: antiderivatives are anchored at s_min and the dropped
integration constants (c0 for the affine ratio condition; c_int, A and
B for the twice-integrated torsion-integral condition) are fitted,
never assumed zero. Every fit is fits.linear_fit, undamped; a constant
its design cannot identify (rank ratio < fits.RANK_RATIO_MIN) is NaN.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import hyperbolic
from .axis import AxisCandidate, assemble_axis, validate_axis
from .calculus import lattice_integral
from .errors import DegenerateAxisError, ProfileError
from .fits import (RANK_RATIO_MIN, CheckResult, Tolerances, Verdict, _jsonable,
                   _rms, linear_fit)
from .frames import ROW_NAMES, FrameKind, frame_family
from .integrator import CurveTrace, integrate_frame
from .minkowski import SIGNS, nullspace_min_singular, pairing, row_norm
from .profiles import CurvatureProfile

# The oracle's threshold on sigma_min is this times sqrt(row count).
EPS_ORACLE_COEFF = 1e-7


class OracleResult(NamedTuple):
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
    singular value measures how far the curve is from k-type. A unit row
    is appended for each of the family's trivial axes (FrameFamily.trivial:
    B1 for partially null traces), which removes it from the nullspace;
    the recovered vector is then the Euclidean projection of any true
    axis away from it. The rows of all four k stack to (4, m, 4) for one
    SVD call; a row that never moves ("indicatrix constant") is its own
    axis and skips the SVD's answer. The rows are written into one
    preallocated stack, and the pairings of all four candidates come from
    one call, as a C-contiguous (4, n) array whose mean and variance over
    axis 1 run along its rows with the pairwise sum of a 1-D reduction.
    """
    frames = trace.frames
    n = frames.shape[0]
    trivial = frame_family(trace.kind).trivial
    # v[k]: row k of each frame, stored coordinate-major so that each
    # coordinate of each row is contiguous along the grid: every pairing,
    # norm and difference below (a coordinate at a time for the rows) is
    # then a long loop
    v = np.ascontiguousarray(frames.transpose(2, 1, 0)).transpose(1, 2, 0)
    rows = np.empty((4, n - 1 + len(trivial), 4))
    moved = rows[:, :n - 1]
    for c in range(4):
        np.subtract(v[:, 1:, c], v[:, :1, c], out=moved[..., c])
    moved[..., 0] *= SIGNS[0]
    max_row = np.max(row_norm(moved), axis=1)
    constant = max_row < 1e-9 * (1.0 + np.max(row_norm(v), axis=1))
    constant_threshold = EPS_ORACLE_COEFF * math.sqrt(n - 1)
    rows[:, n - 1:] = np.reshape([b / np.linalg.norm(b)
                                  for b in frames[0, list(trivial)]], (-1, 4))
    note = "; ".join(f"trivial {ROW_NAMES[r]} direction excluded"
                     for r in trivial)
    threshold = EPS_ORACLE_COEFF * math.sqrt(rows.shape[1])
    cand = nullspace_min_singular(rows)
    u = cand.vector
    for k in np.flatnonzero(constant):
        u[k] = v[k, 0] * SIGNS
        u[k] /= np.linalg.norm(u[k])
    g_vals = pairing(v, u[:, None, :])
    g_means, g_vars = g_vals.mean(axis=1), g_vals.var(axis=1)
    results = {}
    for k in range(4):
        g_mean, g_var = float(g_means[k]), float(g_vars[k])
        if constant[k]:
            results[k] = OracleResult(
                Verdict.YES, u[k], float(max_row[k]),
                constant_threshold, "indicatrix constant", g_mean, g_var)
            continue
        sigma_min = float(cand.sigma_min[k])
        verdict, k_note = Verdict.of(sigma_min < threshold), note
        if verdict is Verdict.YES and g_var >= tol.eps_axis:
            verdict = Verdict.NO
            k_note = (note + "; " if note else "") + "candidate failed pairing validation"
        results[k] = OracleResult(verdict, u[k], sigma_min,
                                  threshold, k_note, g_mean, g_var)
    return results


# ---------------------------------------------------------------------------
# partially null family (sigma identically 0)

def pn_type0_check(trace: CurveTrace,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """0-type (general helix) iff tau/kappa is constant."""
    _require_kind(trace, FrameKind.PARTIALLY_NULL)
    ratio = trace.tau / trace.kappa
    (mean,), dev, _ = linear_fit(np.ones((ratio.size, 1)), ratio)
    residual = float(np.ptp(dev)) / (1.0 + abs(mean))
    return CheckResult(Verdict.of(residual < tol.eps_cond), residual,
                       constants={"ratio": mean})


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


def pn_type1_check(trace: CurveTrace,
                   tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff tau/kappa is affine in the anchored integral of kappa.

    Model: tau/kappa = C * (c0 + K(s)) with K(s) the integral of kappa
    from s_min. The fit is linear in (C*c0, C). A constant ratio makes the
    C direction unidentifiable; that degenerate fit is still a Yes (the
    constant-ratio axes pair constantly with N as well) and is flagged,
    with both the product C*c0 and the raw coefficients reported.
    """
    _require_kind(trace, FrameKind.PARTIALLY_NULL)
    ratio = trace.tau / trace.kappa
    kint = trace.curvature_integrals[0, ::2]
    design = np.column_stack([np.ones_like(kint), kint])
    (a0, c_lin), dev, _ = linear_fit(design, ratio)
    residual = _rms(dev) / (1.0 + _rms(ratio))
    verdict = Verdict.of(residual < tol.eps_cond)
    degenerate = abs(c_lin) * (kint.max() - kint.min()) < tol.eps_cond * (1.0 + abs(a0))
    constants = {"C": c_lin, "C_c0": a0,
                 "c0": a0 / c_lin if not degenerate else float("nan")}
    flags = ("degenerate-linear-coefficient",) if degenerate else ()
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
    kint, tint = trace.curvature_integrals[:, ::2]
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
    yes by construction (checked against the oracle anyway). I1 and I2
    integrate on the half-step lattice, where theta is known too, so no
    other point is evaluated.
    """
    c1, c2, c3 = (float(x) for x in c)
    th = trace.curvature_integrals[0]
    tau = trace.lattice[1]
    i1, i2 = lattice_integral([tau * np.sin(th), tau * np.cos(th)],
                              trace.h)[:, ::2]
    theta = th[::2]
    u1 = np.cos(theta) * (c1 - i1) + np.sin(theta) * (c2 + i2)
    u2 = -np.sin(theta) * (c1 - i1) + np.cos(theta) * (c2 + i2)
    # tau u2 = (-c1 I1 + c2 I2 + (I1^2 + I2^2) / 2)', so Int tau u2 is exact
    u3 = c3 + c1 * i1 - c2 * i2 - 0.5 * (i1**2 + i2**2)
    return assemble_axis(trace, 2, "oscillator-solution", u1, u2, u3, 1.0)


PN_IMPLICATIONS = ((0, 1), (0, 2), (0, 3), (1, 2), (3, 0), (3, 1), (3, 2))


# ---------------------------------------------------------------------------
# pseudo null family (kappa = 1)

def psn_type1_check(trace: CurveTrace,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """1-type iff sigma/tau = -s^2/2 + a s + b; fits (a, b)."""
    _require_kind(trace, FrameKind.PSEUDO_NULL)
    grid = trace.s
    q = trace.sigma / trace.tau
    target = q + 0.5 * grid**2
    design = np.column_stack([grid, np.ones_like(grid)])
    (a_fit, b_fit), dev, _ = linear_fit(design, target)
    residual = _rms(dev) / (1.0 + _rms(q) + _rms(0.5 * grid**2))
    verdict = Verdict.of(residual < tol.eps_cond)
    return CheckResult(verdict, residual,
                       constants={"a": a_fit, "b": b_fit})


def psn_type1_axis(trace: CurveTrace, a: float) -> AxisCandidate:
    """Axis -(sigma/tau)' T + (sigma/tau) N + B2 for the quadratic family.

    On the family sigma/tau = -s^2/2 + a s + b, so (sigma/tau)' = a - s
    with a from psn_type1_check's fit: the ratio is read on the trace
    grid and never differentiated. g(N, U) = 1 and g(B1, U) = 0, so the
    same vector certifies k = 2 with a vanishing pairing constant,
    relabeled with axis._replace(k=2).
    """
    q = trace.sigma / trace.tau
    return assemble_axis(trace, 1, "ratio-derivative", trace.s - a, q,
                         0.0, 1.0)


def psn_type2_check(trace: CurveTrace, type1: CheckResult,
                    tol: Tolerances = Tolerances()) -> CheckResult:
    """2-type via the torsion-integral identity, with its blind spot covered.

    Identity route: with q = sigma/tau, T = Int tau and I = c_int + T,
    I + (sigma + (q I)')' = 0, fitted integrated twice from s_min so that
    no derivative is taken: with x = s - s_min, one least-squares fit of
    q T + Int sigma + Int Int T + c_int (q + x^2/2) - A x - B = 0 for
    (c_int, A, B); A goes to psn_type2_axis through the extras. Where
    q + x^2/2 is affine c_int cannot be fitted: the design's
    sigma_min / sigma_max < RANK_RATIO_MIN and c_int reads NaN.

    The identity assumes the axis pairs with B1 with a NONZERO constant.
    Quadratic-ratio curves (the 1-type family) carry a 2-type axis whose
    B1 pairing constant is zero and genuinely fail it, so the verdict is
    the disjunction: identity holds, or `type1` (the k = 1 result on the
    same trace) is Yes. The identity residual is always reported.
    """
    _require_kind(trace, FrameKind.PSEUDO_NULL)
    q = trace.sigma / trace.tau
    tint = trace.curvature_integrals[1]
    sint, ttint = lattice_integral([trace.lattice[2], tint], trace.h)
    base = q * tint[::2] + sint[::2] + lattice_integral(ttint, trace.h)[::2]
    x = trace.s - trace.s[0]
    design = np.column_stack([q + 0.5 * x * x, -x, -np.ones_like(x)])
    coef, dev, rank_ratio = linear_fit(design, -base)
    residual = _rms(dev) / (1.0 + _rms(base))
    c_int = coef[0] if rank_ratio >= RANK_RATIO_MIN else float("nan")

    branch = None
    if residual < tol.eps_cond and math.isfinite(c_int):
        branch = "torsion-integral"
    elif type1.verdict is Verdict.YES:
        branch = "ratio-quadratic"
    flags = (("2-type via zero-pairing axis; torsion-integral identity "
              "does not apply",) if branch == "ratio-quadratic" else ())
    return CheckResult(Verdict.of(branch is not None), residual,
                       constants={"c_int": c_int},
                       flags=flags, extras={"branch": branch, "A": coef[1]})


def psn_type2_axis(trace: CurveTrace, c_int: float, a: float) -> AxisCandidate:
    """Axis for the torsion-integral branch, unit B1 pairing.

    U = -[sigma + ((sigma/tau) I)'] T + (sigma/tau) I N + B1 + I B2 with
    I = c_int + Int tau. The identity integrated once from s_min gives the
    T coefficient without a derivative: -[sigma + ((sigma/tau) I)'] =
    c_int x + Int Int tau - A, with x = s - s_min and A the constant
    psn_type2_check fits (its extras["A"]). Only valid when the identity
    residual is small; callers gate on psn_type2_check.
    """
    tint = trace.curvature_integrals[1]
    i_vals = c_int + tint[::2]
    x = trace.s - trace.s[0]
    u1 = c_int * x + lattice_integral(tint, trace.h)[::2] - a
    return assemble_axis(trace, 2, "torsion-integral",
                         u1, trace.sigma / trace.tau * i_vals, 1.0, i_vals)


PSN_IMPLICATIONS = ((1, 2),)


def _require_kind(trace: CurveTrace, kind: FrameKind) -> None:
    if trace.kind is not kind:
        raise ProfileError(f"check requires a {kind.value} profile, "
                           f"got {trace.kind.value}")


# ---------------------------------------------------------------------------
# report and pipeline

class ClassificationReport(NamedTuple):
    label: str
    kind: FrameKind
    verdicts: dict              # k -> Verdict
    condition_residuals: dict   # k -> float
    constants: dict             # name -> float
    axes: list                  # (AxisCandidate, AxisValidation)
    oracle: dict                # k -> OracleResult
    agreement: dict             # k -> bool
    flags: list
    max_gram_residual: float
    pseudohyperbolic: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind.value,
            "verdicts": {f"k{k}": v.value for k, v in sorted(self.verdicts.items())},
            "condition_residuals": {f"k{k}": _jsonable(r)
                                    for k, r in sorted(self.condition_residuals.items())},
            "constants": {name: _jsonable(value)
                          for name, value in sorted(self.constants.items())},
            "axes": [dict(val.to_json_dict(), k=cand.k, source=cand.source,
                          U_at_s0=[_jsonable(x) for x in cand.u_at_start()])
                     for cand, val in self.axes],
            "oracle": {f"k{k}": o.to_json_dict()
                       for k, o in sorted(self.oracle.items())},
            "agreement": {f"k{k}": bool(a)
                          for k, a in sorted(self.agreement.items())},
            "flags": list(self.flags),
            "gram": {"max_residual": _jsonable(self.max_gram_residual)},
            "pseudohyperbolic": self.pseudohyperbolic,
        }


def classify_profile(p: CurvatureProfile,
                     h: Optional[float] = None,
                     tol: Tolerances = Tolerances()) -> ClassificationReport:
    """Full classification: checks, axes, oracle, and flags.

    Walks the family's FAMILIES entry: each row in turn decides its k and,
    on a Yes, builds the axes behind it, which are validated here and
    flagged if they fail. A row's verdict is final; an edge of the
    family's implication graph that the verdicts break is flagged as a
    closure-inconsistency, and the family's report block comes last.
    """
    trace = integrate_frame(p, h=h)
    c = _Classification(trace, oracle_detect(trace, tol), tol)
    family = FAMILIES[p.kind]
    axes = []
    for k, check, build in family.rows:
        c.checks[k] = result = check(c)  # its build may read it
        yes = result is None or result.verdict is Verdict.YES
        for cand, context in build(c, result) if yes else ():
            val = validate_axis(trace, cand, tol.eps_axis)
            if not val.passed:
                c.flags.append(f"internal-inconsistency: {context} axis "
                               f"'{cand.source}' (k={cand.k}) failed "
                               f"validation (max_dU {val.max_du:.3g})")
            axes.append((cand, val))
        if result is None:  # its one axis decides
            c.checks[k] = CheckResult(Verdict.of(val.passed), val.max_du)

    checks = {k: c.checks[k] for k in range(4)}
    flags, oracle = c.flags, c.oracle
    verdicts = {k: res.verdict for k, res in checks.items()}
    flags.extend(f"closure-inconsistency: {msg}" for msg in
                 implication_conflicts(verdicts, family.implications))
    constants = {}
    for res in checks.values():
        flags.extend(res.flags)
        constants.update(res.constants)
    agreement = {k: oracle[k].verdict is verdicts[k] for k in range(4)}
    for k, ok in agreement.items():
        if not ok:
            flags.append(f"oracle-condition-disagreement: k{k} condition "
                         f"{verdicts[k].value}, oracle {oracle[k].verdict.value}")
    return ClassificationReport(
        label=p.label, kind=p.kind, verdicts=verdicts,
        condition_residuals={k: res.residual for k, res in checks.items()},
        constants=constants, axes=axes, oracle=oracle, agreement=agreement,
        flags=flags, max_gram_residual=trace.max_gram_residual,
        **family.report(c))


def implication_conflicts(verdicts: dict, implications) -> list[str]:
    """The edges (a, b), read "k = a implies k = b", that verdicts break.

    The graphs are PN_IMPLICATIONS (0 => {1,2,3}, 1 => 2, 3 => {0,1,2})
    and PSN_IMPLICATIONS (1 => 2). Every verdict is final, so an edge
    whose a is Yes and whose b is No is a conflict, reported in edge order.
    """
    return [f"k{a}=Yes implies k{b}=Yes but k{b}=No"
            for a, b in implications
            if verdicts[a] is Verdict.YES and verdicts[b] is Verdict.NO]


# ---------------------------------------------------------------------------
# family tables

class _Classification:
    """One classification's inputs and the checks its rows have decided."""

    def __init__(self, trace: CurveTrace, oracle: dict, tol: Tolerances):
        self.trace = trace
        self.oracle = oracle
        self.tol = tol
        self.checks = {}   # k -> CheckResult
        self.flags = []

    @cached_property
    def ratio_axes(self) -> list:  # built once, for every row relabeling it
        return pn_type0_axes(self.trace)

    @cached_property
    def quadratic_axis(self) -> AxisCandidate:  # psn k1, relabeled for k2
        return psn_type1_axis(self.trace, self.checks[1].constants["a"])


def _pn_universal(c) -> None:
    """k = 2 is left to the universal axis. The pn conditions assume sigma
    = 0, so this first pn row checks it on the integration's half-step
    lattice before any axis is built."""
    if np.max(np.abs(c.trace.lattice[2])) > 1e-12:
        raise ProfileError("classification requires sigma = 0 for "
                           "partially null profiles")


def _pn_affine_axes(c, r1) -> list:
    """A degenerate (constant-ratio) fit relabels the constant-ratio axis."""
    if r1.extras["degenerate"]:
        return [(c.ratio_axes[0]._replace(k=1), "degenerate affine")]
    return [(pn_type1_axis(c.trace, r1.constants["C"], r1.constants["c0"]),
             "affine")]


def _psn_report(c) -> dict:
    hyp, flags = hyperbolic.pseudohyperbolic_block(c.trace, c.tol)
    c.flags.extend(flags)
    if hyp["is_h3_family"] and c.checks[1].verdict is Verdict.YES:
        c.flags.append("internal-inconsistency: constant-ratio curve "
                       "classified 1-type")
    return {"pseudohyperbolic": hyp}


class Family(NamedTuple):
    """Rows (k, check, build), in the order their axes are reported: check(c)
    is the CheckResult for k, or None to let the validation of its one axis
    decide; build(c, result) gives the (axis, context) pairs behind a Yes."""

    rows: tuple
    implications: tuple   # edges (a, b): k = a implies k = b
    report: Callable      # classification -> the family's report fields


FAMILIES = {
    FrameKind.PARTIALLY_NULL: Family((
        (2, _pn_universal,
         lambda c, _: [(pn_type2_axis(c.trace), "universal")]),
        (0, lambda c: pn_type0_check(c.trace, c.tol),
         lambda c, _: [(cand, "constant-ratio") for cand in c.ratio_axes]),
        # 3-type coincides with 0-type for partially null curves
        (3, lambda c: c.checks[0],
         lambda c, _: [(c.ratio_axes[0]._replace(k=3), "constant-ratio")]),
        (1, lambda c: pn_type1_check(c.trace, c.tol), _pn_affine_axes),
    ), PN_IMPLICATIONS, lambda c: {}),
    FrameKind.PSEUDO_NULL: Family((
        (1, lambda c: psn_type1_check(c.trace, c.tol),
         lambda c, _: [(c.quadratic_axis, "quadratic-ratio")]),
        (2, lambda c: psn_type2_check(c.trace, c.checks[1], c.tol),
         lambda c, r: [(psn_type2_axis(c.trace, r.constants["c_int"],
                                       r.extras["A"])
                        if r.extras["branch"] == "torsion-integral"
                        else c.quadratic_axis._replace(k=2), "2-type")]),
        # no pseudo null curve is 0-type: the oracle's sigma_min is the
        # residual, and an oracle Yes shows as the k0 disagreement
        (0, lambda c: CheckResult(Verdict.NO, c.oracle[0].sigma_min),
         lambda c, _: []),
        # the published 3-type condition is internally inconsistent, so
        # the k = 3 oracle decides, and its sigma_min is the residual
        (3, lambda c: CheckResult(c.oracle[3].verdict, c.oracle[3].sigma_min),
         lambda c, _: []),
    ), PSN_IMPLICATIONS, _psn_report),
}
