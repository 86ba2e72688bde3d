"""Partially null slant conditions, axes, and implication conflicts."""

import re

import numpy as np
import pytest

from lcl import (PN_IMPLICATIONS, CurvatureProfile, Fixture, Tolerances,
                 Verdict, assemble_axis, classify_profile,
                 implication_conflicts, integrate_frame, pairing,
                 pn_type0_axes, pn_type0_check, pn_type1_axis, pn_type1_check,
                 pn_type2_axis, run_theorem_suite, validate_axis)
from lcl import classifier
from lcl.errors import ConfigError, DegenerateAxisError, ProfileError

Y, N = Verdict.YES, Verdict.NO


def test_constant_ratio_is_0_type():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    res = pn_type0_check(integrate_frame(p))
    assert res.verdict is Y
    assert res.constants["ratio"] == pytest.approx(3.0, abs=1e-12)
    assert res.residual < 1e-12


def test_growing_ratio_is_not_0_type():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    res = pn_type0_check(integrate_frame(p))
    assert res.verdict is N
    assert res.residual > 1e-2


def test_0_type_axes_validate_and_pair_with_the_tangent():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    axes = pn_type0_axes(tr)
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
    res = pn_type1_check(integrate_frame(p))
    assert res.verdict is Y
    assert res.constants["C"] == pytest.approx(1.0, abs=1e-9)
    assert res.constants["c0"] == pytest.approx(0.1, abs=1e-9)
    assert not res.flags


def test_scaled_affine_ratio_recovers_both_constants():
    # kappa = 2 gives K = 2s, and tau = kappa * C (c0 + K)
    p = CurvatureProfile.create("partially_null", kappa="2",
                                tau="2*0.7*(0.4 + 2*s)", domain=(0.0, 1.0))
    res = pn_type1_check(integrate_frame(p))
    assert res.verdict is Y
    assert res.constants["C"] == pytest.approx(0.7, abs=1e-9)
    assert res.constants["c0"] == pytest.approx(0.4, abs=1e-9)


def test_quadratic_ratio_is_not_1_type():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1 + s^2",
                                domain=(0.0, 1.0))
    res = pn_type1_check(integrate_frame(p))
    assert res.verdict is N
    assert res.residual > 1e-3


def test_constant_ratio_degenerates_the_affine_fit():
    # constant tau/kappa satisfies the affine condition with C = 0; the
    # verdict stays Yes but the flag and nan c0 mark the degeneracy
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    res = pn_type1_check(integrate_frame(p))
    assert res.verdict is Y
    assert "degenerate-linear-coefficient" in res.flags
    assert res.constants["C"] == pytest.approx(0.0, abs=1e-12)
    assert np.isnan(res.constants["c0"])


def test_1_type_axis_validates_and_pairs_with_the_normal():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="0.1 + s",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    res = pn_type1_check(tr)
    cand = pn_type1_axis(tr, res.constants["C"],
                         res.constants["c0"])
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
        pn_type1_axis(tr, 0.0, 1.0)


def test_2_type_axis_from_the_oscillator_solution(circle_profile,
                                                  circle_trace):
    cand = pn_type2_axis(circle_trace)
    assert cand.source == "oscillator-solution"
    val = validate_axis(circle_trace, cand)
    assert val.passed
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(cand.u_at_start(), [-r, 1.0, 0.0, r], atol=1e-9)


def test_2_type_axis_for_linear_torsion_closed_form():
    # the domain starts past s = 0, where tau = s would fail validation
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    tr = integrate_frame(p)
    cand = pn_type2_axis(tr)
    val = validate_axis(tr, cand)
    assert val.passed
    assert val.max_du < 1e-9


_LG_NODES, _LG_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _gauss_segment(f, a, b):
    """5-point Gauss integral of f over each [a, b], elementwise."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = _LG_NODES.reshape((-1,) + (1,) * np.ndim(a))
    return half * np.tensordot(_LG_WEIGHTS, f(mid + half * t), axes=(0, 0))


def _nested_cumulative(f, grid):
    """(values on grid, at) for the integral of f from grid[0]: at(x) adds a
    Gauss segment of f from the grid point below x, so f may itself call
    another at()."""
    values = np.concatenate(
        [[0.0], np.cumsum(_gauss_segment(f, grid[:-1], grid[1:]))])

    def at(x):
        idx = np.clip(np.searchsorted(grid, x, side="right") - 1,
                      0, grid.shape[0] - 2)
        return values[idx] + _gauss_segment(f, grid[idx], x)

    return values, at


def _nested_oscillator_coeffs(p, grid, c):
    """Reference coefficients with u3 = c3 - Int tau u2 as a third
    quadrature of nested interpolants (no closed-form antiderivative)."""
    c1, c2, c3 = c
    theta_vals, theta_at = _nested_cumulative(p.kappa, grid)
    i1_vals, i1_at = _nested_cumulative(
        lambda t: p.tau(t) * np.sin(theta_at(t)), grid)
    i2_vals, i2_at = _nested_cumulative(
        lambda t: p.tau(t) * np.cos(theta_at(t)), grid)

    def u2_at(t):
        th = theta_at(t)
        return -np.sin(th) * (c1 - i1_at(t)) + np.cos(th) * (c2 + i2_at(t))

    u1 = (np.cos(theta_vals) * (c1 - i1_vals)
          + np.sin(theta_vals) * (c2 + i2_vals))
    u2 = u2_at(grid)
    u3 = c3 - _nested_cumulative(lambda t: p.tau(t) * u2_at(t), grid)[0]
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
        got = pn_type2_axis(tr, c).coeffs
        bound = 1e-12 * (1.0 + np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < bound, c


def test_3_type_reduces_to_0_type():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0))
    rep = classify_profile(p)
    assert rep.verdicts[3] is rep.verdicts[0] is Y
    q = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    rep = classify_profile(q)
    assert rep.verdicts[3] is rep.verdicts[0] is N


def test_3_type_reuses_a_given_0_type_result():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    r0 = pn_type0_check(integrate_frame(p))
    rep = classify_profile(p)
    assert rep.verdicts[3] is rep.verdicts[0] is r0.verdict is N
    assert (rep.condition_residuals[3] == rep.condition_residuals[0]
            == r0.residual)
    assert rep.constants["ratio"] == r0.constants["ratio"]


def test_a_failing_universal_axis_is_flagged_like_any_other(monkeypatch):
    import lcl.classifier

    def drifting_axis(trace):
        # a frame row is not a constant vector: T moves along the curve
        return assemble_axis(trace, 2, "oscillator-solution", 1.0, 0.0, 0.0,
                             0.0)

    monkeypatch.setattr(lcl.classifier, "pn_type2_axis", drifting_axis)
    # a generic member breaks no implication; on a constant-ratio member
    # k0, k1 and k3 are Yes, so the k2 No breaks every edge into k2
    into_k2 = [f"closure-inconsistency: k{a}=Yes implies k2=Yes but k2=No"
               for a in (0, 1, 3)]
    for kappa, tau, conflicts in (("1", "exp(s)", []), ("2", "6", into_k2)):
        p = CurvatureProfile.create("partially_null", kappa=kappa, tau=tau,
                                    domain=(0.0, 1.0))
        rep = classify_profile(p)
        assert rep.verdicts[2] is N
        assert rep.condition_residuals[2] > 1e-3
        failed = [f for f in rep.flags if "failed validation" in f]
        assert len(failed) == 1
        assert re.fullmatch(r"internal-inconsistency: universal axis "
                            r"'oscillator-solution' \(k=2\) failed "
                            r"validation \(max_dU \S+\)", failed[0])
        closure = [f for f in rep.flags
                   if f.startswith("closure-inconsistency:")]
        assert closure == conflicts, (kappa, tau)
        summary = run_theorem_suite([Fixture("drift", p, {})])
        (result,) = summary.results
        assert not result.passed
        assert set(closure) <= set(result.failures)


def test_closure_detects_contradiction():
    inc = implication_conflicts({0: N, 1: Y, 2: Y, 3: Y}, PN_IMPLICATIONS)
    assert inc == ["k3=Yes implies k0=Yes but k0=No"]


def test_classify_report_for_the_circle(circle_profile):
    rep = classify_profile(circle_profile, h=1e-3)
    assert rep.kind.value == "partially_null"
    assert {k: v for k, v in rep.verdicts.items()} == {0: Y, 1: Y, 2: Y, 3: Y}
    assert all(rep.agreement[k] for k in range(4))
    assert rep.max_gram_residual < 1e-12
    # B1 pairs constantly with every row, so each oracle entry that reads
    # the SVD says it is excluded; B1 itself never moves on a pn curve
    assert {k: o.note for k, o in rep.oracle.items()} == {
        0: "trivial B1 direction excluded", 1: "trivial B1 direction excluded",
        2: "indicatrix constant", 3: "trivial B1 direction excluded"}
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


@pytest.mark.parametrize("kind, curvatures", [
    ("partially_null", {"kappa": "1", "tau": "1"}),
    ("pseudo_null", {"tau": "1", "sigma": "-2"}),
], ids=["partially_null", "pseudo_null"])
def test_report_json_is_deterministic(kind, curvatures):
    import json
    p = CurvatureProfile.create(kind, domain=(0.0, 1.5), **curvatures)
    a = classify_profile(p).to_json_dict()
    b = classify_profile(p).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # exact: a removed key cannot come back, and a new one shows here
    assert set(a) == {"label", "kind", "verdicts", "condition_residuals",
                      "constants", "axes", "oracle", "agreement", "flags",
                      "gram", "pseudohyperbolic"}
    assert (a["pseudohyperbolic"] is None) == (kind == "partially_null")


def test_tolerances_are_immutable_defaults():
    tol = Tolerances()
    assert tol.eps_cond == 1e-6
    assert tol.eps_axis == 1e-6
    with pytest.raises(Exception):
        tol.eps_cond = 1.0


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["eps_cond", "eps_axis"])
def test_tolerances_reject_meaningless_thresholds(name, value):
    with pytest.raises(ConfigError, match=name):
        Tolerances(**{name: value})


def test_sigma_probe_reads_the_whole_check_grid(monkeypatch):
    # nonzero sigma that vanishes on 65 evenly spaced points, the old
    # probe; the half-step lattice the checks read sees it, before any
    # axis is built
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                sigma="1e-3*sin(32*pi*(s - 0.5))",
                                domain=(0.5, 2.5))
    probe = np.linspace(0.5, 2.5, 65)
    assert np.max(np.abs(p.evaluate_arrays(probe)[2])) <= 1e-12

    def no_axis(*args, **kwargs):
        raise AssertionError("an axis was built for a sigma != 0 profile")

    for name in ("pn_type0_axes", "pn_type1_axis", "pn_type2_axis"):
        monkeypatch.setattr(classifier, name, no_axis)
    with pytest.raises(ProfileError, match="sigma = 0"):
        classify_profile(p)
