"""Partially null slant conditions, axes, and implication closure."""

import numpy as np
import pytest

from lcl import (PN_IMPLICATIONS, CurvatureProfile, Tolerances, Verdict,
                 classify_profile, implication_closure, integrate_frame,
                 pairing, pn_type0_axes, pn_type0_check, pn_type1_axis,
                 pn_type1_check, pn_type2_axis, pn_type3_check,
                 validate_axis)
from lcl.calculus import cumulative_integral, make_cumulative
from lcl.errors import DegenerateAxisError, ProfileError

Y, N, U = Verdict.YES, Verdict.NO, Verdict.UNDETERMINED


def test_constant_ratio_is_0_type():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    res = pn_type0_check(p)
    assert res.verdict is Y
    assert res.constants["ratio"].value == pytest.approx(3.0, abs=1e-12)
    assert res.residual < 1e-12


def test_growing_ratio_is_not_0_type():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    res = pn_type0_check(p)
    assert res.verdict is N
    assert res.residual > 1e-2


def test_0_type_axes_validate_and_pair_with_the_tangent():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    axes = pn_type0_axes(p, tr)
    assert [a.source for a in axes] == ["helix-ratio", "helix-ratio-tangent"]
    for cand in axes:
        val = validate_axis(tr, cand)
        assert val.passed, cand.source
        # both axes carry the ratio as their tangent pairing
        assert pairing(cand.U[0], tr.frames[0][0]) == pytest.approx(3.0,
                                                                    abs=1e-9)
    assert np.allclose(axes[0].u_at_start(), [0.0, 3.0, 0.0, np.sqrt(2.0)],
                       atol=1e-9)


def test_affine_ratio_is_1_type_with_recovered_constants():
    # tau/kappa = 0.1 + s = C (c0 + K) with kappa = 1, C = 1, c0 = 0.1
    p = CurvatureProfile.create("partially_null", kappa="1", tau="0.1 + s",
                                domain=(0.0, 1.0))
    res = pn_type1_check(p)
    assert res.verdict is Y
    assert res.constants["C"].value == pytest.approx(1.0, abs=1e-9)
    assert res.constants["c0"].value == pytest.approx(0.1, abs=1e-9)
    assert not res.flags


def test_scaled_affine_ratio_recovers_both_constants():
    # kappa = 2 gives K = 2s, and tau = kappa * C (c0 + K)
    p = CurvatureProfile.create("partially_null", kappa="2",
                                tau="2*0.7*(0.4 + 2*s)", domain=(0.0, 1.0))
    res = pn_type1_check(p)
    assert res.verdict is Y
    assert res.constants["C"].value == pytest.approx(0.7, abs=1e-9)
    assert res.constants["c0"].value == pytest.approx(0.4, abs=1e-9)


def test_quadratic_ratio_is_not_1_type():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1 + s^2",
                                domain=(0.0, 1.0))
    res = pn_type1_check(p)
    assert res.verdict is N
    assert res.residual > 1e-3


def test_constant_ratio_degenerates_the_affine_fit():
    # constant tau/kappa satisfies the affine condition with C = 0; the
    # verdict stays Yes but the flag and nan c0 mark the degeneracy
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    res = pn_type1_check(p)
    assert res.verdict is Y
    assert "degenerate-linear-coefficient" in res.flags
    assert res.constants["C"].value == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(res.constants["c0"].value)


def test_1_type_axis_validates_and_pairs_with_the_normal():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="0.1 + s",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    res = pn_type1_check(p)
    cand = pn_type1_axis(p, tr, res.constants["C"].value,
                         res.constants["c0"].value)
    assert cand.source == "curvature-integral"
    val = validate_axis(tr, cand)
    assert val.passed
    assert val.max_du < 1e-9
    assert pairing(cand.U[0], tr.frames[0][1]) == pytest.approx(1.0, abs=1e-9)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(cand.u_at_start(), [-r, 0.1, 1.0, r], atol=1e-9)


def test_1_type_axis_requires_a_nonzero_linear_coefficient():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    tr = integrate_frame(p)
    with pytest.raises(DegenerateAxisError):
        pn_type1_axis(p, tr, 0.0, 1.0)


def test_2_type_axis_from_the_oscillator_solution(circle_profile,
                                                  circle_trace):
    cand = pn_type2_axis(circle_profile, circle_trace)
    assert cand.source == "oscillator-solution"
    val = validate_axis(circle_trace, cand)
    assert val.passed
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(cand.u_at_start(), [-r, 1.0, 0.0, r], atol=1e-9)


def test_2_type_axis_for_linear_torsion_closed_form():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p, validate=False)
    cand = pn_type2_axis(p, tr)
    val = validate_axis(tr, cand)
    assert val.passed
    assert val.max_du < 1e-9


def _nested_oscillator_coeffs(p, grid, c):
    """Reference coefficients with u3 = c3 - Int tau u2 as a third
    quadrature of nested interpolants (no closed-form antiderivative)."""
    c1, c2, c3 = c
    theta_vals, theta_at = make_cumulative(p.kappa, grid)
    i1_vals, i1_at = make_cumulative(
        lambda t: p.tau(t) * np.sin(theta_at(t)), grid)
    i2_vals, i2_at = make_cumulative(
        lambda t: p.tau(t) * np.cos(theta_at(t)), grid)

    def u2_at(t):
        th = theta_at(t)
        return -np.sin(th) * (c1 - i1_at(t)) + np.cos(th) * (c2 + i2_at(t))

    u1 = (np.cos(theta_vals) * (c1 - i1_vals)
          + np.sin(theta_vals) * (c2 + i2_vals))
    u2 = u2_at(grid)
    u3 = c3 - cumulative_integral(lambda t: p.tau(t) * u2_at(t), grid)
    return np.column_stack([u1, u2, u3, np.ones_like(grid)])


@pytest.mark.parametrize("kappa,tau,domain", [
    ("1", "1", (0.0, 2.0)), ("2", "6", (0.0, 1.5)),
    ("1 + s^2", "3*(1 + s^2)", (0.0, 1.0)),
    ("1", "s", (0.1, 1.0)), ("2 + sin(s)", "1", (0.0, 2.0))])
def test_2_type_axis_matches_the_nested_integral_reference(kappa, tau,
                                                          domain):
    p = CurvatureProfile.create("partially_null", kappa=kappa, tau=tau,
                                domain=domain)
    tr = integrate_frame(p)
    for c in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 2.0, 3.0),
              (0.0, 0.0, 0.0), (-1.0, 1.0, 0.0)]:
        ref = _nested_oscillator_coeffs(p, tr.s, c)
        got = pn_type2_axis(p, tr, c).coeffs
        bound = 1e-12 * (1.0 + np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < bound, c


def test_3_type_reduces_to_0_type():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    r3 = pn_type3_check(p)
    r0 = pn_type0_check(p)
    assert r3.verdict is r0.verdict is Y
    assert r3.extras.get("equivalent_to") == "k0"
    q = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    assert pn_type3_check(q).verdict is N


def test_3_type_reuses_a_given_0_type_result():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    r0 = pn_type0_check(p)
    extras = dict(r0.extras)
    r3 = pn_type3_check(p, Tolerances(), type0=r0)
    assert r3.verdict is r0.verdict is N
    assert r3.residual == r0.residual
    assert r3.constants == r0.constants
    assert r3.extras["equivalent_to"] == "k0"
    assert r0.extras == extras


def test_closure_propagates_0_type_to_everything():
    closed, notes, inc = implication_closure({0: Y}, PN_IMPLICATIONS)
    assert {k: v for k, v in closed.items()} == {0: Y, 1: Y, 2: Y, 3: Y}
    assert not inc


def test_closure_propagates_1_type_forward_only():
    closed, _, inc = implication_closure({0: N, 1: Y}, PN_IMPLICATIONS)
    assert closed[2] is Y
    assert closed[3] is N  # 3 => 0 contrapositive
    assert not inc


def test_closure_detects_contradiction():
    closed, _, inc = implication_closure({0: N, 3: Y}, PN_IMPLICATIONS)
    assert inc and "k3=Yes implies k0=Yes" in inc[0]
    # forward propagation from k3 still happens for the other targets
    assert closed[1] is Y and closed[2] is Y


def test_classify_report_for_the_circle(circle_profile):
    rep = classify_profile(circle_profile, h=1e-3)
    assert rep.kind.value == "partially_null"
    assert {k: v for k, v in rep.verdicts.items()} == {0: Y, 1: Y, 2: Y, 3: Y}
    assert all(rep.agreement[k] for k in range(4))
    assert rep.max_gram_residual < 1e-12
    # B1 is excluded from axis claims: its direction is trivially fixed
    assert "B1" in rep.trivial_axis["note"]
    assert rep.trivial_axis["g_values"]["k3"] == pytest.approx(1.0, abs=1e-12)
    sources = {c.source for c, _ in rep.axes}
    assert "oscillator-solution" in sources
    assert all(v.passed for _, v in rep.axes)


def test_classify_generic_profile_is_2_type_only():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="exp(s)",
                                domain=(0.0, 1.0))
    rep = classify_profile(p)
    assert {k: v for k, v in rep.verdicts.items()} == {0: N, 1: N, 2: Y, 3: N}
    assert all(rep.agreement[k] for k in range(4))
    assert not [f for f in rep.flags if f.startswith("oracle-condition")]


def test_classify_rejects_partially_null_with_nonzero_sigma():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                sigma="0.5", domain=(0.0, 1.0))
    with pytest.raises(ProfileError):
        classify_profile(p)


def test_report_json_is_deterministic(circle_profile):
    import json
    a = classify_profile(circle_profile, h=1e-3).to_json_dict()
    b = classify_profile(circle_profile, h=1e-3).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert set(a) >= {"label", "kind", "verdicts", "condition_residuals",
                      "constants", "axes", "oracle", "agreement", "flags"}


def test_tolerances_are_immutable_defaults():
    tol = Tolerances()
    assert tol.eps_cond == 1e-6
    assert tol.eps_axis == 1e-6
    with pytest.raises(Exception):
        tol.eps_cond = 1.0
