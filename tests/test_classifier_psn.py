"""Pseudo null slant conditions, axes, and the two-route 2-type verdict."""

import math

import numpy as np
import pytest

from lcl import (CurvatureProfile, FrameKind, Tolerances, Verdict,
                 assemble_axis, classify_profile, default_suite,
                 h3_type2_tau_form, integrate_frame, oracle_detect, pairing,
                 psn_type1_axis, psn_type1_check, psn_type2_axis,
                 psn_type2_check, validate_axis)
from lcl.errors import ProfileError
from lcl.suite import generate

Y, N = Verdict.YES, Verdict.NO


def test_quadratic_ratio_is_1_type_with_recovered_coefficients(
        quad_psn_trace):
    # sigma/tau = -s^2/2 + 0.5 s, so a = 0.5 and b = 0
    res = psn_type1_check(quad_psn_trace)
    assert res.verdict is Y
    assert res.constants["a"] == pytest.approx(0.5, abs=1e-9)
    assert res.constants["b"] == pytest.approx(0.0, abs=1e-9)
    assert res.residual < 1e-9


def test_shifted_quadratic_recovers_both_coefficients():
    p = CurvatureProfile.create("pseudo_null", tau="1",
                                sigma="-s^2/2 + 0.3*s + 0.1",
                                domain=(0.0, 2.0))
    res = psn_type1_check(integrate_frame(p))
    assert res.verdict is Y
    assert res.constants["a"] == pytest.approx(0.3, abs=1e-9)
    assert res.constants["b"] == pytest.approx(0.1, abs=1e-9)


def test_wrong_quadratic_coefficient_is_rejected():
    # leading coefficient -1 instead of -1/2 breaks the required shape
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-s^2 + s",
                                domain=(0.0, 1.0))
    res = psn_type1_check(integrate_frame(p))
    assert res.verdict is N
    assert res.residual > 1e-3


def test_generic_ratio_is_not_1_type():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="exp(s)",
                                domain=(0.0, 1.5))
    assert psn_type1_check(integrate_frame(p)).verdict is N


def _quadratic_axis(trace):
    return psn_type1_axis(trace, psn_type1_check(trace).constants["a"])


def test_1_type_axis_has_unit_normal_pairing(quad_psn_profile,
                                             quad_psn_trace):
    cand = _quadratic_axis(quad_psn_trace)
    assert cand.source == "ratio-derivative"
    val = validate_axis(quad_psn_trace, cand)
    assert val.passed
    f0 = quad_psn_trace.frames[0]
    assert pairing(cand.U[0], f0[1]) == pytest.approx(1.0, abs=1e-9)
    assert pairing(cand.U[0], f0[2]) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(cand.u_at_start(), [-0.5, 0.5, -0.5, 0.0], atol=1e-8)


def test_1_type_axis_relabels_for_the_binormal_claim(quad_psn_profile,
                                                     quad_psn_trace):
    cand = _quadratic_axis(quad_psn_trace)._replace(k=2)
    assert cand.k == 2
    val = validate_axis(quad_psn_trace, cand)
    assert val.passed


def test_1_type_axis_is_constant_to_roundoff_on_the_suite_quadratics():
    # sigma/tau is quadratic and its derivative a - s comes from the k1
    # fit, so only integration and roundoff error remain in dU/ds
    fixtures = [f for f in default_suite() if f.label.startswith("psn-quad-")]
    assert len(fixtures) == 8
    for fx in fixtures:
        tr = integrate_frame(fx.profile)
        val = validate_axis(tr, _quadratic_axis(tr))
        assert val.max_du <= 1e-9 * (1.0 + val.scale), fx.label


def test_2_type_identity_route_on_the_exponential_family(h3_trace):
    res = psn_type2_check(h3_trace, psn_type1_check(h3_trace))
    assert res.verdict is Y
    assert res.extras["branch"] == "torsion-integral"
    assert res.residual < 1e-6
    assert res.constants["c_int"] == pytest.approx(1.0, abs=1e-6)


def test_2_type_quadratic_route_when_the_identity_fails(quad_psn_trace):
    res = psn_type2_check(quad_psn_trace, psn_type1_check(quad_psn_trace))
    assert res.verdict is Y
    assert res.extras["branch"] == "ratio-quadratic"
    # the identity residual itself stays large on this family
    assert res.residual > 1e-4
    assert any("zero-pairing" in f for f in res.flags)


def test_2_type_fails_when_neither_route_holds():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="exp(s)",
                                domain=(0.0, 1.5))
    tr = integrate_frame(p)
    res = psn_type2_check(tr, psn_type1_check(tr))
    assert res.verdict is N
    assert res.extras["branch"] is None


def test_the_integrated_identity_decides_with_a_margin():
    # the identity integrated twice is a linear fit, so a member reads at
    # roundoff and the tightest non-member three decades above eps_cond
    yes, no = [], []
    for fx in default_suite():
        if fx.profile.kind is FrameKind.PSEUDO_NULL:
            tr = integrate_frame(fx.profile)
            res = psn_type2_check(tr, psn_type1_check(tr))
            identity = res.extras["branch"] == "torsion-integral"
            (yes if identity else no).append(res.residual)
    assert len(yes) == 8 and no
    assert max(yes) <= 1e-13
    assert min(no) >= 1e3 * Tolerances().eps_cond


def test_c_int_is_nan_where_the_design_cannot_fit_it():
    # on the 1-type family q + x^2/2 is affine, so the c_int column lies in
    # the span of (x, 1): a rank test, as for the partially null c0
    fixtures = {fx.label: fx.profile for fx in default_suite()}
    assert math.isnan(
        classify_profile(fixtures["psn-quad-0"]).constants["c_int"])
    assert math.isfinite(
        classify_profile(fixtures["psn-h3exp-0"]).constants["c_int"])


def test_a_vanishing_c_int_column_is_rank_deficient_not_nan():
    # a = b = 0 on a domain from 0: q + x^2/2 is exactly zero at every
    # point, so the column has no norm to scale by
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-s^2/2",
                                domain=(0.0, 1.5))
    rep = classify_profile(p)
    assert rep.verdicts[1] is Y and rep.verdicts[2] is Y
    assert math.isnan(rep.constants["c_int"])
    assert math.isfinite(rep.condition_residuals[2])


def test_a_looser_eps_cond_keeps_the_exponential_rank(h3_trace):
    # a member's design ratio sits far above fits.RANK_RATIO_MIN, and a
    # thousandfold looser eps_cond still passes its identity residual
    res = psn_type2_check(h3_trace, psn_type1_check(h3_trace),
                          Tolerances(eps_cond=1e-3))
    assert res.extras["branch"] == "torsion-integral"
    assert math.isfinite(res.constants["c_int"])


def test_the_c_int_rank_test_does_not_read_eps_cond():
    # psn-h3exp-0's design reads sigma_min / sigma_max = 3.0e-2, under this
    # eps_cond; the rank test reads fits.RANK_RATIO_MIN, so c_int and the
    # torsion-integral route (whose axis validates) stay
    fx = next(f for f in default_suite() if f.label == "psn-h3exp-0")
    tol = Tolerances(eps_cond=5e-2)
    tr = integrate_frame(fx.profile)
    res = psn_type2_check(tr, psn_type1_check(tr, tol), tol)
    assert res.extras["branch"] == "torsion-integral" and not res.flags
    assert res.constants["c_int"] == pytest.approx(1.5928181427608, rel=1e-9)
    rep = classify_profile(fx.profile, tol=tol)
    assert rep.constants["c_int"] == res.constants["c_int"]
    assert [val.passed for cand, val in rep.axes
            if cand.source == "torsion-integral"] == [True]


@pytest.mark.parametrize("freq", [1, 20])
def test_2_type_rejects_a_small_sigma_wobble_on_a_long_domain(freq):
    # sigma enters q T undifferentiated, so a wobble of any frequency
    # shows at the same size; the denominator grows with the domain
    # (1 + rms(base) is about 105 here against 4 on the suite), which
    # puts the floor near a 1e-4 amplitude on this length-10 domain
    fx = generate("h3-exponential", {"c": -2.5, "lam": 0.5, "mu": 0.5},
                  (-5.0, 5.0), "h3-wobble",
                  sigma_extra=f"1e-3*sin({freq}*s)")
    tr = integrate_frame(fx.profile)
    res = psn_type2_check(tr, psn_type1_check(tr))
    assert res.verdict is N
    assert res.residual > 5 * Tolerances().eps_cond
    rep = classify_profile(fx.profile)
    assert rep.verdicts[2] is N and rep.agreement[2]


def test_2_type_on_a_tabulated_exponential_member():
    # sigma tabulated at 101 points (a PCHIP table): the integrated identity
    # needs no derivative the table cannot give, so k2 agrees with the
    # oracle and with the exponential torsion form of the member's c (the
    # table's ratio is off constant by 3e-6, outside the family test)
    fx = next(f for f in default_suite(1) if f.label == "psn-h3exp-0")
    d = fx.profile.to_json_dict()
    s = np.linspace(fx.profile.s_min, fx.profile.s_max, 101)
    sigma = fx.profile.sigma(s)
    d["sigma"] = {"s": s.tolist(), "values": sigma.tolist()}
    table = CurvatureProfile.from_json_dict(d)
    rep = classify_profile(table)
    assert rep.verdicts[2] is Y and rep.agreement[2]
    c = float(np.mean(sigma / fx.profile.tau(s)))
    form = h3_type2_tau_form(integrate_frame(table), c)
    assert form.verdict is rep.verdicts[2]


def test_2_type_axis_on_the_identity_route(h3_trace):
    res = psn_type2_check(h3_trace, psn_type1_check(h3_trace))
    cand = psn_type2_axis(h3_trace, res.constants["c_int"], res.extras["A"])
    assert cand.source == "torsion-integral"
    val = validate_axis(h3_trace, cand)
    assert val.passed
    assert np.allclose(cand.u_at_start(), [-2.5, -1.5, 6.0, 1.0], atol=1e-6)
    # unit B1 pairing by construction
    assert pairing(cand.U[0], h3_trace.frames[0][2]) == pytest.approx(
        1.0, abs=1e-9)


def test_0_type_is_always_refuted_by_the_oracle(quad_psn_trace,
                                                quad_psn_profile):
    rep = classify_profile(quad_psn_profile)
    assert rep.verdicts[0] is N
    # the oracle's k0 sigma_min, not a fitted residual
    sigma_min = oracle_detect(quad_psn_trace)[0].sigma_min
    assert rep.condition_residuals[0] == sigma_min
    assert sigma_min > 1e-3


def test_3_type_follows_the_oracle(quad_psn_profile):
    # the k = 3 oracle decides, and its sigma_min is the residual, as for
    # k0: every reported residual is the number behind its verdict
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="exp(s)",
                                domain=(0.0, 1.5))
    for rep in (classify_profile(quad_psn_profile), classify_profile(p)):
        assert rep.verdicts[3] is rep.oracle[3].verdict is N
        assert rep.condition_residuals[3] == rep.oracle[3].sigma_min > 1e-3
        assert all(isinstance(r, float) and np.isfinite(r)
                   for r in rep.condition_residuals.values())


def test_h3_type3_members_are_3_type_and_nothing_else():
    # sigma = c tau with tau = v/sqrt(1 - c^2 v^2), c v'' + v = 0: the
    # oracle finds the k3 axis, and so does the closed form
    # U = -c v T + sqrt(1 - c^2 v^2) B1 - c v' B2
    rng = np.random.default_rng(0)
    members = 0
    for _ in range(20):
        c, lam, mu = (rng.uniform(-2.5, -0.3), rng.uniform(0.05, 0.3),
                      rng.uniform(0.0, 0.3))
        w = np.sqrt(-c)

        def v(s, d=0):  # v, or v' for d = 1
            return lam * np.exp(s / w) + (-1) ** d * mu * np.exp(-s / w)

        ends = np.array([0.0, 1.5])
        peak = np.max(c * c * v(ends)**2)  # v is convex: its ends bound it
        if peak >= 1.0:  # tau is undefined where c^2 v^2 reaches 1
            continue
        members += 1
        p = generate("h3-type3", {"c": c, "lam": lam, "mu": mu},
                     tuple(ends)).profile
        rep = classify_profile(p)
        assert rep.verdicts == {0: N, 1: N, 2: N, 3: Y}
        assert rep.flags == []
        if peak >= 0.9:
            # tau steepens toward c^2 v^2 = 1 and the default step's error
            # with it: at 0.979 the exact axis moves by 3e-5 and sigma_min
            # reads 4.4e-3 of the threshold
            continue
        assert rep.oracle[3].sigma_min <= 1e-3 * rep.oracle[3].threshold
        trace = integrate_frame(p)
        vs = v(trace.s)
        axis = assemble_axis(trace, 3, "h3-type3", -c * vs, 0.0,
                             np.sqrt(1.0 - c * c * vs**2),
                             -c * v(trace.s, 1) / w)
        val = validate_axis(trace, axis)
        assert val.passed and abs(val.g_mean) < 1e-9
    assert members >= 8


def test_checks_reject_wrong_frame_kind(circle_trace):
    with pytest.raises(ProfileError):
        psn_type1_check(circle_trace)


def test_classify_quadratic_report(quad_psn_profile):
    rep = classify_profile(quad_psn_profile)
    assert {k: v for k, v in rep.verdicts.items()} == {0: N, 1: Y, 2: Y, 3: N}
    assert all(rep.agreement[k] for k in range(4))
    sources = {c.source for c, _ in rep.axes}
    assert "ratio-derivative" in sources
    assert all(v.passed for _, v in rep.axes)
    # not a pseudohyperbolic member: the ratio is not constant
    assert rep.pseudohyperbolic["is_h3_family"] is False


def test_classify_exponential_member_report(h3_profile):
    rep = classify_profile(h3_profile)
    assert {k: v for k, v in rep.verdicts.items()} == {0: N, 1: N, 2: Y, 3: N}
    assert rep.pseudohyperbolic["is_h3_family"] is True
    assert rep.pseudohyperbolic["c_ratio"] == pytest.approx(-2.0, abs=1e-9)
    assert all(rep.agreement[k] for k in range(4))


def test_classify_generic_pseudo_null():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="exp(s)",
                                domain=(0.0, 1.5), label="generic")
    rep = classify_profile(p)
    assert {k: v for k, v in rep.verdicts.items()} == {0: N, 1: N, 2: N, 3: N}
    assert all(rep.agreement[k] for k in range(4))


def test_kappa_within_the_validation_tolerance_classifies():
    # the family rules accept kappa within 1e-9 of 1; classification tests no
    # pseudo null gauge again (only the partially null sigma = 0)
    p = CurvatureProfile.create("pseudo_null", kappa="1 + 1e-10*s", tau="1",
                                sigma="exp(s)", domain=(0.0, 1.5))
    rep = classify_profile(p)
    assert rep.verdicts == {0: N, 1: N, 2: N, 3: N}


def test_missing_sigma_is_a_profile_error():
    with pytest.raises(ProfileError):
        CurvatureProfile.create("pseudo_null", tau="1", domain=(0.0, 1.0))
