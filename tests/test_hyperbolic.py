"""Pseudohyperbolic membership: ratio test, sphere fit, tau evolution."""

import math

import numpy as np
import pytest

from lcl import (CurvatureProfile, Verdict, classify_profile,
                 closed_form_center, fit_pseudohyperbolic, h3_membership,
                 h3_ratio_check, h3_type2_tau_form, integrate_frame,
                 pairing)
from lcl.errors import ProfileError
from lcl.hyperbolic import h3_type2_form
from lcl.minkowski import SIGNS
from lcl.suite import default_suite, generate

Y, N = Verdict.YES, Verdict.NO


def test_ratio_check_accepts_constant_negative_ratio():
    p = CurvatureProfile.create("pseudo_null", tau="1 + s", sigma="-2 - 2*s",
                                domain=(0.0, 1.0))
    res = h3_ratio_check(integrate_frame(p))
    assert res.verdict is Y
    assert res.constants["c"] == pytest.approx(-2.0, abs=1e-12)


def test_ratio_check_rejects_varying_ratio(quad_psn_trace):
    assert h3_ratio_check(quad_psn_trace).verdict is N


def test_ratio_check_flags_constant_but_nonnegative():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="2",
                                domain=(0.0, 1.0))
    res = h3_ratio_check(integrate_frame(p))
    assert res.verdict is N
    assert any("not negative" in f for f in res.flags)
    assert res.extras["constant"] is True


def _exponential_tau(grid, lam=1.0, mu=0.5, w=2.0):
    """lam e^{s/w} + mu e^{-s/w}; w = sqrt(-2c) = 2 for c = -2."""
    return lam * np.exp(grid / w) + mu * np.exp(-grid / w)


def _h3_exponential(c, lam, mu, domain):
    return generate("h3-exponential", {"c": c, "lam": lam, "mu": mu},
                    domain).profile


def test_tau_form_solves_its_own_evolution_equation():
    p = _h3_exponential(-2.0, 1.0, 0.5, (0.0, 1.5))
    grid = np.linspace(0.0, 1.5, 101)
    # the closed form's tau'' is tau / w^2, so 2 c tau'' + tau = 0 holds
    # identically for the generated profile's two-exponential tau
    resid = 2.0 * (-2.0) * _exponential_tau(grid) / 4.0 + p.tau(grid)
    assert np.max(np.abs(resid)) < 1e-12


def test_make_h3_profile_round_trips_tau_text():
    p = _h3_exponential(-2.0, 1.0, 0.5, (0.0, 1.5))
    grid = np.linspace(0.0, 1.5, 33)
    assert np.max(np.abs(p.tau(grid) - _exponential_tau(grid))) < 1e-12
    # sigma is c * tau by construction
    assert np.max(np.abs(p.sigma(grid) + 2.0 * p.tau(grid))) < 1e-12


def test_make_h3_profile_rejects_bad_parameters():
    with pytest.raises(ProfileError):
        _h3_exponential(0.5, 1.0, 0.5, (0.0, 1.0))  # c must be < 0
    with pytest.raises(ProfileError):
        _h3_exponential(-1.0, 0.0, 0.0, (0.0, 1.0))  # tau == 0


@pytest.mark.parametrize("c, lam, mu", [(0.5, 1.0, 0.5), (-1.0, 0.0, 0.0)])
def test_h3_generator_row_rejects_what_make_h3_profile_rejects(c, lam, mu):
    with pytest.raises(ProfileError) as direct:
        h3_type2_form(c, lam, mu)
    with pytest.raises(ProfileError) as row:
        generate("h3-exponential", {"c": c, "lam": lam, "mu": mu}, (0.0, 1.0))
    assert str(row.value) == str(direct.value)


@pytest.mark.parametrize("c, lam, mu", [(0.5, 0.1, 0.1), (-1.0, 0.0, 0.0)])
def test_h3_type3_row_shares_the_parameter_checks(c, lam, mu):
    with pytest.raises(ProfileError) as direct:
        h3_type2_form(c, lam, mu)
    with pytest.raises(ProfileError) as row:
        generate("h3-type3", {"c": c, "lam": lam, "mu": mu}, (0.0, 1.0))
    assert str(row.value) == str(direct.value)


def test_sphere_fit_recovers_center_and_radius(h3_trace):
    fit = fit_pseudohyperbolic(h3_trace)
    assert fit.iterations <= 10
    assert np.allclose(fit.center, [-2.5, -1.5, 0.0, 0.0],
                       atol=1e-9)
    assert fit.radius == pytest.approx(2.0, abs=1e-9)
    assert fit.rel_deviation < 1e-12


def test_membership_deviation_small_on_family_member(h3_trace):
    center = np.array([-2.5, -1.5, 0.0, 0.0])
    assert h3_membership(h3_trace, center, 2.0) < 1e-12
    # wrong center produces an order-one deviation
    assert h3_membership(h3_trace, np.zeros(4), 2.0) > 0.1


def test_sphere_fit_diverges_gracefully_off_family(quad_psn_trace):
    fit = fit_pseudohyperbolic(quad_psn_trace)
    # no pseudosphere carries this short arc exactly; the best fit still
    # deviates by orders of magnitude more than a true member does
    assert fit.rel_deviation > 1e-8


def test_constant_positive_ratio_is_off_family_without_a_false_note():
    # sigma/tau = 2: g(x - x0, x - x0) = 2c = 4 > 0, a de Sitter
    # pseudosphere; the fit finds it exactly, with r^2 = -4 and no radius
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="2",
                                domain=(0.0, 1.5))
    fit = fit_pseudohyperbolic(integrate_frame(p))
    assert fit.radius_sq == pytest.approx(-4.0, abs=1e-9)
    assert np.isnan(fit.radius)
    assert fit.rel_deviation < 1e-12
    rep = classify_profile(p)
    hyp = rep.pseudohyperbolic
    assert hyp["is_h3_family"] is False
    assert any("not negative" in n for n in hyp["notes"])
    assert not [n for n in hyp["notes"] + rep.flags
                if "internal-inconsistency" in n]


def test_sphere_fit_converges_in_one_solve_on_a_large_trace():
    fx = next(f for f in default_suite() if f.profile.label == "psn-generic-1")
    fit = fit_pseudohyperbolic(integrate_frame(fx.profile))
    assert fit.iterations == 1


@pytest.mark.parametrize("label", ["h3-exp", "psn-generic-1"])
def test_sphere_fit_deviation_is_the_residual_at_its_center(h3_trace, label):
    # the fit's own deviation is g(x - x0, x - x0) + r^2, which is not
    # evaluated again; r^2 < 0 off the family (psn-generic-1) counts too
    trace = h3_trace if label == "h3-exp" else integrate_frame(next(
        f for f in default_suite() if f.label == label).profile)
    fit = fit_pseudohyperbolic(trace)
    diff = trace.positions - fit.center
    again = np.max(np.abs(pairing(diff, diff) + fit.radius_sq))
    assert abs(fit.max_deviation - again) <= 1e-12 * abs(fit.radius_sq)
    assert fit.rel_deviation == fit.max_deviation / abs(fit.radius_sq)


def test_sphere_fit_is_a_stationary_point_of_the_nonlinear_problem(
        quad_psn_trace):
    fit = fit_pseudohyperbolic(quad_psn_trace)
    diff = quad_psn_trace.positions - fit.center
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
    assert np.allclose(center, [-2.5, -1.5, 0.0, 0.0], atol=1e-9)


def test_tau_form_fit_recovers_lam_and_mu(h3_trace):
    res = h3_type2_tau_form(h3_trace, -2.0)
    assert res.verdict is Y
    assert res.constants["lam"] == pytest.approx(1.0, abs=1e-9)
    assert res.constants["mu"] == pytest.approx(0.5, abs=1e-9)
    assert res.residual < 1e-12


def test_tau_form_fit_rejects_non_member():
    # constant tau on the family ratio cannot satisfy 2c tau'' + tau = 0
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-2",
                                domain=(0.0, 1.5))
    res = h3_type2_tau_form(integrate_frame(p), -2.0)
    assert res.verdict is N
    assert res.residual > 1e-2


def test_type1_nonexistence_on_the_family():
    p = CurvatureProfile.create("pseudo_null", tau="1", sigma="-2",
                                domain=(0.0, 1.5))
    rep = classify_profile(p)
    assert rep.pseudohyperbolic["is_h3_family"] is True
    assert rep.verdicts[1] is N
    assert not [f for f in rep.flags if "1-type" in f]


def test_full_report_block_for_a_family_member(h3_profile):
    rep = classify_profile(h3_profile)
    hyp = rep.pseudohyperbolic
    assert hyp["is_h3_family"] is True
    assert hyp["c_ratio"] == pytest.approx(-2.0, abs=1e-9)
    assert hyp["sphere_fit"]["radius"] == pytest.approx(2.0, abs=1e-9)
    assert rep.verdicts[2] is Y  # type2_tau's verdict, stated once
    assert hyp["type2_tau"]["ode_residual"] < 1e-12
    assert hyp["type2_tau"]["lam"] == pytest.approx(1.0, abs=1e-9)
    assert hyp["type2_tau"]["mu"] == pytest.approx(0.5, abs=1e-9)
    # the closed-form radius is sqrt(-2 c_ratio), so it is not restated
    assert math.sqrt(-2.0 * hyp["c_ratio"]) == pytest.approx(2.0, abs=1e-9)
    assert hyp["closed_center"]["membership_deviation"] < 1e-9
    # exact: k3 is the oracle's verdict, so there is no 3-type residual,
    # and no 1-type entry restates is_h3_family
    assert set(hyp) == {"is_h3_family", "c_ratio", "ratio_residual",
                        "sphere_fit", "notes", "type2_tau", "closed_center"}


def test_report_blocks_state_each_fitted_number_once(h3_profile,
                                                     quad_psn_profile):
    hyp = classify_profile(h3_profile).to_json_dict()["pseudohyperbolic"]
    assert set(hyp["sphere_fit"]) == {"center", "radius", "max_deviation",
                                      "rel_deviation"}
    assert set(hyp["closed_center"]) == {"center", "spread",
                                         "membership_deviation"}
    assert set(hyp["type2_tau"]) == {"ode_residual", "lam", "mu"}
    assert all(type(hyp["type2_tau"][k]) is float for k in ("lam", "mu"))
    axes = classify_profile(quad_psn_profile).to_json_dict()["axes"]
    assert set(axes[0]) == {"k", "source", "max_dU", "g_mean", "g_variance",
                            "validated", "U_at_s0"}
    assert (axes[0]["k"], axes[0]["source"]) == (1, "ratio-derivative")


@pytest.mark.parametrize("seed", [1, 8])
def test_a_block_inconsistency_is_a_report_flag(seed):
    # tabulated sigma on a family member: the table's interpolant moves
    # the ratio off constant while the positions still lie on the sphere
    fx = next(f for f in default_suite(seed)
              if f.profile.label == "psn-h3exp-0")
    d = fx.profile.to_json_dict()
    s = np.linspace(fx.profile.s_min, fx.profile.s_max, 101)
    d["sigma"] = {"s": s.tolist(), "values": fx.profile.sigma(s).tolist()}
    rep = classify_profile(CurvatureProfile.from_json_dict(d))
    assert rep.pseudohyperbolic["is_h3_family"] is False
    assert ("internal-inconsistency: sphere fit succeeded but the ratio "
            "test rejects the family") in rep.flags
    assert not [n for n in rep.pseudohyperbolic["notes"]
                if "internal-inconsistency" in n]


def test_a_deviating_sphere_fit_on_a_member_is_a_report_flag(h3_profile,
                                                             monkeypatch):
    fit = fit_pseudohyperbolic(integrate_frame(h3_profile))
    monkeypatch.setattr("lcl.hyperbolic.fit_pseudohyperbolic",
                        lambda trace: fit._replace(rel_deviation=1e-3))
    rep = classify_profile(h3_profile)
    assert rep.pseudohyperbolic["is_h3_family"] is True
    assert ("internal-inconsistency: family member but sphere fit deviates "
            "(0.001)") in rep.flags
    assert not [n for n in rep.pseudohyperbolic["notes"]
                if "internal-inconsistency" in n]


def test_a_singular_sphere_fit_is_a_note(h3_profile, monkeypatch):
    def singular(trace):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("lcl.hyperbolic.fit_pseudohyperbolic", singular)
    hyp = classify_profile(h3_profile).pseudohyperbolic
    assert hyp["sphere_fit"] is None
    assert "sphere fit failed: SVD did not converge" in hyp["notes"]
    assert hyp["is_h3_family"] is True


def test_any_other_sphere_fit_error_propagates(h3_profile, monkeypatch):
    def broken(trace):
        raise RuntimeError("a bug, not a singular system")

    monkeypatch.setattr("lcl.hyperbolic.fit_pseudohyperbolic", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        classify_profile(h3_profile)


def test_full_report_block_for_a_non_member(quad_psn_profile):
    rep = classify_profile(quad_psn_profile)
    hyp = rep.pseudohyperbolic
    assert hyp["is_h3_family"] is False
    assert hyp["c_ratio"] is None
    assert hyp.get("type2_tau") is None
