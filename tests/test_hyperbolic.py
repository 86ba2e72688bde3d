"""Pseudohyperbolic membership: ratio test, sphere fit, tau evolution."""

import numpy as np
import pytest

from lcl import (CurvatureProfile, Vec4, Verdict, classify_profile,
                 closed_form_center, fit_pseudohyperbolic, h3_membership,
                 h3_ratio_check, h3_type1_nonexistence, h3_type2_tau_form,
                 h3_type3_residual, integrate_frame, pairing,
                 psn_type1_check)
from lcl.errors import ProfileError
from lcl.hyperbolic import TauForm, make_h3_type2_profile
from lcl.minkowski import SIGNS
from lcl.suite import default_suite

Y, N = Verdict.YES, Verdict.NO


def test_ratio_check_accepts_constant_negative_ratio():
    p = CurvatureProfile.create("pseudo_null", tau="1 + s", sigma="-2 - 2*s",
                                domain=(0.0, 1.0))
    res = h3_ratio_check(p)
    assert res.verdict is Y
    assert res.constants["c"].value == pytest.approx(-2.0, abs=1e-12)


def test_ratio_check_rejects_varying_ratio(quad_psn_profile):
    assert h3_ratio_check(quad_psn_profile).verdict is N


def test_ratio_check_flags_constant_but_nonnegative():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="2",
                                domain=(0.0, 1.0))
    res = h3_ratio_check(p)
    assert res.verdict is N
    assert any("not negative" in f for f in res.flags)
    assert res.extras["constant"] is True


def test_tau_form_solves_its_own_evolution_equation():
    form = TauForm(c=-2.0, lam=1.0, mu=0.5)
    grid = np.linspace(0.0, 1.5, 101)
    # 2 c tau'' + tau = 0 holds identically for the two-exponential form
    resid = 2.0 * (-2.0) * form.second(grid) + form(grid)
    assert np.max(np.abs(resid)) < 1e-12


def test_make_h3_profile_round_trips_tau_text():
    p = make_h3_type2_profile(-2.0, 1.0, 0.5, (0.0, 1.5))
    grid = np.linspace(0.0, 1.5, 33)
    form = TauForm(c=-2.0, lam=1.0, mu=0.5)
    assert np.max(np.abs(p.tau(grid) - form(grid))) < 1e-12
    # sigma is c * tau by construction
    assert np.max(np.abs(p.sigma(grid) + 2.0 * p.tau(grid))) < 1e-12


def test_make_h3_profile_rejects_bad_parameters():
    with pytest.raises(ProfileError):
        make_h3_type2_profile(0.5, 1.0, 0.5, (0.0, 1.0))  # c must be < 0
    with pytest.raises(ProfileError):
        make_h3_type2_profile(-1.0, 0.0, 0.0, (0.0, 1.0))  # tau == 0


def test_sphere_fit_recovers_center_and_radius(h3_trace):
    fit = fit_pseudohyperbolic(h3_trace)
    assert fit.converged
    assert fit.iterations <= 10
    assert np.allclose(fit.center.to_array(), [-2.5, -1.5, 0.0, 0.0],
                       atol=1e-9)
    assert fit.radius == pytest.approx(2.0, abs=1e-9)
    assert fit.rel_deviation < 1e-12


def test_membership_deviation_small_on_family_member(h3_trace):
    center = Vec4(-2.5, -1.5, 0.0, 0.0)
    assert h3_membership(h3_trace, center, 2.0) < 1e-12
    # wrong center produces an order-one deviation
    assert h3_membership(h3_trace, Vec4(0.0, 0.0, 0.0, 0.0), 2.0) > 0.1


def test_sphere_fit_diverges_gracefully_off_family(quad_psn_trace):
    fit = fit_pseudohyperbolic(quad_psn_trace)
    # no pseudosphere carries this short arc exactly; the best fit still
    # deviates by orders of magnitude more than a true member does
    assert (not fit.converged) or fit.rel_deviation > 1e-8


def test_sphere_fit_converges_in_one_solve_on_a_large_trace():
    fx = next(f for f in default_suite() if f.profile.label == "psn-generic-1")
    fit = fit_pseudohyperbolic(integrate_frame(fx.profile))
    assert fit.converged
    assert fit.iterations == 1


def test_sphere_fit_is_a_stationary_point_of_the_nonlinear_problem(
        quad_psn_trace):
    fit = fit_pseudohyperbolic(quad_psn_trace)
    diff = quad_psn_trace.positions - fit.center.to_array()
    f_res = pairing(diff, diff) + fit.radius_sq
    jac = np.hstack([-2.0 * diff * SIGNS, np.ones((diff.shape[0], 1))])
    grad = jac.T @ f_res
    scale = np.linalg.norm(jac) * np.linalg.norm(f_res)
    # each F_i carries roundoff eps * r^2, far above eps * |F| on a close
    # fit, so the floor is ~2e-11; shifting x0 by 1e-10 gives ~5e-5
    assert np.linalg.norm(grad) < 1e-9 * scale


def test_closed_form_center_matches_the_fit(h3_trace):
    center, spread = closed_form_center(h3_trace, -2.0)
    assert spread < 1e-12
    assert np.allclose(center.to_array(), [-2.5, -1.5, 0.0, 0.0], atol=1e-9)


def test_tau_form_fit_recovers_lam_and_mu(h3_profile):
    res = h3_type2_tau_form(h3_profile, -2.0)
    assert res.verdict is Y
    assert res.constants["lam"].value == pytest.approx(1.0, abs=1e-9)
    assert res.constants["mu"].value == pytest.approx(0.5, abs=1e-9)
    assert res.residual < 1e-12
    assert res.extras["fd_residual"] < 1e-6


def test_tau_form_fit_rejects_non_member():
    # constant tau on the family ratio cannot satisfy 2c tau'' + tau = 0
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-2",
                                domain=(0.0, 1.5))
    res = h3_type2_tau_form(p, -2.0)
    assert res.verdict is N
    assert res.residual > 1e-2


def test_type1_nonexistence_on_the_family():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-2",
                                domain=(0.0, 1.5))
    res = h3_type1_nonexistence(psn_type1_check(p))
    assert res.verdict is Y
    assert not res.flags


def test_type3_residual_is_advisory_and_positive_for_constant_tau():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-2",
                                domain=(0.0, 1.5))
    r = h3_type3_residual(p, -2.0)
    assert r is not None
    assert r == pytest.approx(0.9615384625895602, abs=1e-6)


def test_full_report_block_for_a_family_member(h3_profile):
    rep = classify_profile(h3_profile)
    hyp = rep.pseudohyperbolic
    assert hyp["is_h3_family"] is True
    assert hyp["c_ratio"] == pytest.approx(-2.0, abs=1e-9)
    assert hyp["sphere_fit"]["radius"] == pytest.approx(2.0, abs=1e-9)
    assert hyp["type2_tau"]["verdict"] == "Yes"
    assert hyp["type2_tau"]["ode_residual"] < 1e-12
    assert hyp["type2_tau"]["lam"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert hyp["type2_tau"]["mu"]["value"] == pytest.approx(0.5, abs=1e-9)
    assert hyp["closed_center"]["radius"] == pytest.approx(2.0, abs=1e-9)
    assert hyp["closed_center"]["membership_deviation"] < 1e-9
    assert hyp["type1_nonexistence"] == "Yes"


def test_full_report_block_for_a_non_member(quad_psn_profile):
    rep = classify_profile(quad_psn_profile)
    hyp = rep.pseudohyperbolic
    assert hyp["is_h3_family"] is False
    assert hyp["c_ratio"] is None
    assert hyp.get("type2_tau") is None
