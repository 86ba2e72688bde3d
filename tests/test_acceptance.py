"""Acceptance gate: one test and one printed verdict line per criterion.

Run with -s (or read the captured stdout) to see the per-criterion lines:

    [criterion N] PASS  <name>: <measurements>

Every criterion asserts at the tolerance it reports, so a regression
fails the corresponding test rather than silently degrading.
"""

import time

import numpy as np

from lcl import (CurvatureProfile, Verdict, classify_profile,
                 h3_type2_tau_form, integrate_frame, oracle_detect, pairing,
                 pn_type0_axes, pn_type0_check, pn_type1_axis, pn_type1_check,
                 pn_type2_axis, psn_type1_axis, psn_type1_check,
                 psn_type2_axis, psn_type2_check, resample_curvatures,
                 run_theorem_suite, validate_axis)
from lcl.calculus import grid_derivative, lattice_integral
from lcl.cli import main
from lcl.suite import generate

Y, N = Verdict.YES, Verdict.NO
SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def _verdict(n, name, checks):
    """Print the one-line verdict, then assert every sub-check."""
    ok = all(passed for _, passed, _ in checks)
    detail = ", ".join(f"{label} {text}" for label, _, text in checks)
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    failed = [label for label, passed, _ in checks if not passed]
    assert not failed, f"criterion {n} failed: {failed}"


def test_criterion_1_explicit_helix_reproduction():
    start = time.perf_counter()
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0 * np.pi))
    tr = integrate_frame(p, h=1e-3)
    kap, tau, _ = resample_curvatures(tr)
    runtime = time.perf_counter() - start
    interior = slice(4, -4)
    kap_err = float(np.max(np.abs(kap[interior] - 1.0)))
    tau_err = float(np.max(np.abs(tau[interior] - 1.0)))

    # alpha'' from the positions has unit Lorentz norm (it equals kappa N)
    acc = grid_derivative(tr.positions, tr.h, order=2)
    acc_dev = float(np.max(np.abs(pairing(acc, acc) - 1.0)))

    # N stays in a fixed 2-plane: centered SVD leaves two directions
    rows = tr.frames[:, 1, :]
    centered = rows - rows.mean(axis=0)
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    plane_res = float(s[2] / s[0])
    plane = vt[:2]
    induced = np.array([[pairing(a, b) for b in plane] for a in plane])
    eigs = np.linalg.eigvalsh(induced)

    # metric circle fit in that plane: radius must be 1
    design = np.hstack([rows, np.ones((len(rows), 1))])
    coef, *_ = np.linalg.lstsq(design, pairing(rows, rows), rcond=None)
    center = SIGNS * coef[:4] / 2.0
    r_sq = float(coef[4] + pairing(center, center))
    circle_dev = float(np.max(np.abs(
        pairing(rows - center, rows - center) - r_sq)))

    _verdict(1, "explicit helix reproduction", [
        ("kappa", kap_err < 1e-6, f"err {kap_err:.2e}"),
        ("tau", tau_err < 1e-6, f"err {tau_err:.2e}"),
        ("gram", tr.max_gram_residual < 1e-8,
         f"{tr.max_gram_residual:.2e}"),
        ("runtime", runtime < 1.0, f"{runtime:.3f}s"),
        ("acc-norm", acc_dev < 1e-6, f"dev {acc_dev:.2e}"),
        ("plane", plane_res < 1e-6, f"res {plane_res:.2e}"),
        ("spacelike", bool(np.all(eigs > 0.0)),
         f"eigs {eigs[0]:.2f},{eigs[1]:.2f}"),
        ("circle", abs(r_sq - 1.0) < 1e-6 and circle_dev < 1e-6,
         f"r^2 {r_sq:.12f} dev {circle_dev:.2e}"),
    ])


def test_criterion_2_constant_ratio_round_trip():
    p = CurvatureProfile.create("partially_null", kappa="1 + s^2",
                                tau="3*(1 + s^2)", domain=(0.0, 1.0))
    tr = integrate_frame(p)
    res = pn_type0_check(tr)
    ratio = res.constants["ratio"]
    axes = pn_type0_axes(tr)
    val = validate_axis(tr, axes[0])
    oracle = oracle_detect(tr)[0]

    # oracle folds out the trivial B1 direction, so compare against the
    # axis with its Euclidean B1 component removed
    b1 = tr.frames[0][2]
    b1 = b1 / np.linalg.norm(b1)
    d = axes[0].U[0] - (axes[0].U[0] @ b1) * b1
    u = oracle.vector
    cos = abs(d @ u) / (np.linalg.norm(d) * np.linalg.norm(u))

    _verdict(2, "constant ratio round trip", [
        ("verdict", res.verdict is Y, res.verdict.value),
        ("ratio", abs(ratio - 3.0) < 1e-9, f"{ratio:.12f}"),
        ("axis", val.passed and val.max_du < 1e-6,
         f"max_dU {val.max_du:.2e}"),
        ("oracle", oracle.verdict is Y, oracle.verdict.value),
        ("cosine", cos > 1.0 - 1e-6, f"{cos:.12f}"),
    ])


def test_criterion_3_affine_ratio_round_trip():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    tr = integrate_frame(p)
    res = pn_type1_check(tr)
    c_lin = res.constants["C"]
    c0 = res.constants["c0"]
    cand = pn_type1_axis(tr, c_lin, c0)
    val = validate_axis(tr, cand)
    g_n = pairing(tr.frames[:, 1, :], cand.U[0])
    g_dev = float(np.max(np.abs(g_n - 1.0)))
    rep = classify_profile(p)

    _verdict(3, "affine ratio round trip", [
        ("verdict", res.verdict is Y, res.verdict.value),
        ("C", abs(c_lin - 1.0) < 1e-8, f"{c_lin:.12f}"),
        ("c0", abs(c0 - 0.1) < 1e-8, f"{c0:.12f}"),
        ("axis", val.passed, f"max_dU {val.max_du:.2e}"),
        ("g(N,D)", g_dev < 1e-8, f"dev {g_dev:.2e}"),
        ("report-k2", rep.verdicts[2] is Y, rep.verdicts[2].value),
    ])


def test_criterion_4_oscillator_axis_construction():
    profiles = [("1", "1", (0.0, 2.0)), ("2", "6", (0.0, 1.5)),
                ("1 + s^2", "3*(1 + s^2)", (0.0, 1.0)),
                ("1", "s", (0.1, 1.0)), ("2 + sin(s)", "1", (0.0, 2.0))]
    triples = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 2.0, 3.0),
               (0.0, 0.0, 0.0), (-1.0, 1.0, 0.0)]
    worst_du, worst_spread = 0.0, 0.0
    all_pass = True
    for kappa, tau, domain in profiles:
        p = CurvatureProfile.create("partially_null", kappa=kappa, tau=tau,
                                    domain=domain)
        tr = integrate_frame(p)
        for c in triples:
            cand = pn_type2_axis(tr, c)
            val = validate_axis(tr, cand, eps_axis=1e-5)
            g_b1 = pairing(tr.frames[:, 2, :], cand.U[0])
            spread = float(np.ptp(g_b1))
            worst_du = max(worst_du, val.max_du)
            worst_spread = max(worst_spread, spread)
            all_pass = all_pass and val.passed

    _verdict(4, "oscillator axis construction", [
        ("validated", all_pass, f"{len(profiles) * len(triples)} cases"),
        ("max_dU", worst_du < 1e-5, f"worst {worst_du:.2e}"),
        ("g(B1,U)", worst_spread < 1e-7, f"worst spread {worst_spread:.2e}"),
    ])


def test_criterion_5_pseudo_null_0_type_nonexistence():
    rng = np.random.default_rng(20240817)
    tau_shapes = ["{a!r} + s", "exp({b!r}*s)", "{a!r}", "2 + sin(s)",
                  "1/(1 + s)"]
    sigma_shapes = ["{c!r} + s^2", "exp(-s)", "{c!r}*s - 3", "cos(s) + 2"]
    margins, verdicts = [], []
    for i in range(10):
        a = float(rng.uniform(0.5, 2.5))
        b = float(rng.uniform(0.2, 0.8))
        c = float(rng.uniform(0.3, 1.5))
        p = CurvatureProfile.create(
            "pseudo_null", tau=tau_shapes[i % 5].format(a=a, b=b),
            sigma=sigma_shapes[i % 4].format(c=c), domain=(0.0, 1.5))
        res = oracle_detect(integrate_frame(p))[0]
        margins.append(res.sigma_min)
        verdicts.append(res.verdict)

    _verdict(5, "0-type nonexistence for pseudo null", [
        ("verdicts", all(v is N for v in verdicts),
         f"{sum(v is N for v in verdicts)}/10 No"),
        ("margin", min(margins) > 1e-3, f"min {min(margins):.2e}"),
    ])


def test_criterion_6_quadratic_ratio_round_trip():
    p = CurvatureProfile.create("pseudo_null", tau="1",
                                sigma="-s^2/2 + 0.3*s + 0.1",
                                domain=(0.0, 2.0))
    tr = integrate_frame(p)
    res = psn_type1_check(tr)
    a = res.constants["a"]
    b = res.constants["b"]
    cand = psn_type1_axis(tr, a)
    val = validate_axis(tr, cand)
    g_n = pairing(tr.frames[:, 1, :], cand.U[0])
    g_b1 = pairing(tr.frames[:, 2, :], cand.U[0])
    n_dev = float(np.max(np.abs(g_n - 1.0)))
    b1_dev = float(np.max(np.abs(g_b1)))
    rep = classify_profile(p)
    r2 = psn_type2_check(tr, res)

    _verdict(6, "quadratic ratio round trip", [
        ("verdict", res.verdict is Y, res.verdict.value),
        ("a", abs(a - 0.3) < 1e-7, f"{a:.12f}"),
        ("b", abs(b - 0.1) < 1e-7, f"{b:.12f}"),
        ("axis", val.passed and val.max_du < 1e-6,
         f"max_dU {val.max_du:.2e}"),
        ("g(N,U)", n_dev < 1e-8, f"dev {n_dev:.2e}"),
        ("g(B1,U)", b1_dev < 1e-8, f"dev {b1_dev:.2e}"),
        ("report-k2", rep.verdicts[2] is Y, rep.verdicts[2].value),
        ("2-type", r2.verdict is Y, r2.verdict.value),
    ])


def test_criterion_7_exponential_family():
    cases = [(-0.5, 1.0, 0.0), (-2.0, 0.0, 3.0), (-1.0, 1.0, 1.0)]
    checks = []
    for c, lam, mu in cases:
        p = generate("h3-exponential", {"c": c, "lam": lam, "mu": mu},
                     (0.0, 1.5)).profile
        tr = integrate_frame(p)
        form = h3_type2_tau_form(tr, c)
        r1 = psn_type1_check(tr)
        r2 = psn_type2_check(tr, r1)
        cand = psn_type2_axis(tr, r2.constants["c_int"], r2.extras["A"])
        val = validate_axis(tr, cand, eps_axis=1e-5)
        tag = f"({c},{lam},{mu})"
        checks.extend([
            (f"ode{tag}", form.residual < 1e-10, f"{form.residual:.2e}"),
            (f"k2{tag}", r2.verdict is Y, r2.verdict.value),
            (f"axis{tag}", val.passed and val.max_du < 1e-5,
             f"max_dU {val.max_du:.2e}"),
            (f"k1{tag}", r1.verdict is N, r1.verdict.value),
        ])
    _verdict(7, "pseudohyperbolic exponential family", checks)


def test_criterion_8_suite_agreement_and_runtime():
    start = time.perf_counter()
    summary = run_theorem_suite()
    runtime = time.perf_counter() - start
    # every reported condition residual is the finite number that decided
    # its verdict; pseudo null k3 is the k = 3 oracle's sigma_min
    # (a crashed fixture has no report and fails the fixtures row)
    reports = [r.report for r in summary.results if r.report is not None]
    psn_reports = [rep for rep in reports if rep.kind.value == "pseudo_null"]
    finite = all(isinstance(x, float) and np.isfinite(x)
                 for rep in reports for x in rep.condition_residuals.values())
    oracle_k3 = bool(psn_reports) and all(
        rep.condition_residuals[3] == rep.oracle[3].sigma_min
        and rep.verdicts[3] is rep.oracle[3].verdict
        for rep in psn_reports)

    _verdict(8, "oracle agreement on the bundled suite", [
        ("fixtures", summary.passed,
         f"{summary.n_pass}/{len(summary.results)} pass"),
        ("disagreements", summary.disagreement_count == 0,
         str(summary.disagreement_count)),
        ("residuals", finite, f"{len(reports)} reports"),
        ("oracle-k3", oracle_k3, f"{len(psn_reports)} pseudo null"),
        ("runtime", runtime < 60.0, f"{runtime:.1f}s"),
    ])


def test_criterion_9_numerical_hygiene(tmp_path, capsys):
    # RK4 order: halving h shrinks the endpoint error by about 2^4
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="1 + s^2/4", domain=(0.0, 2.0))
    ref = integrate_frame(p, h=0.02 / 16)
    errs = [float(np.max(np.abs(integrate_frame(p, h=h).frames[-1]
                                - ref.frames[-1])))
            for h in (0.02, 0.01)]
    ratio = errs[0] / errs[1]

    # additivity of the pipeline's quadrature, on grids of step 0.01
    f = lambda s: np.exp(np.sin(3.0 * s))

    def integral(a, b, n):
        lattice = np.linspace(a, b, 2 * n - 1)
        return lattice_integral(f(lattice), (b - a) / (n - 1))[-1]

    add_err = abs(integral(0.0, 0.7, 71) + integral(0.7, 2.0, 131)
                  - integral(0.0, 2.0, 201))

    grid = np.linspace(0.0, 1.0, 1001)
    h = grid[1] - grid[0]
    fd1 = float(np.max(np.abs(grid_derivative(np.sin(grid), h)
                              - np.cos(grid))))
    fd2 = float(np.max(np.abs(grid_derivative(np.sin(grid), h, order=2)
                              + np.sin(grid))))

    rc1 = main(["verify", "--json"])
    out1 = capsys.readouterr().out
    rc2 = main(["verify", "--json"])
    out2 = capsys.readouterr().out

    _verdict(9, "numerical hygiene", [
        ("rk4-ratio", 12.0 < ratio < 20.0, f"{ratio:.1f}"),
        ("additivity", add_err < 1e-9, f"{add_err:.2e}"),
        ("fd-orders", fd1 < 1e-10 and fd2 < 1e-7,
         f"d1 {fd1:.2e} d2 {fd2:.2e}"),
        ("determinism", rc1 == 0 and rc2 == 0 and out1 == out2,
         f"{len(out1)} bytes x2"),
    ])
