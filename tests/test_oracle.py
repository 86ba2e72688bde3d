"""Nullspace axis detection, independent of the symbolic conditions."""

import json

import numpy as np
import pytest

import lcl.cli
from lcl import (CurvatureProfile, FrameKind, OracleResult, Tolerances,
                 Verdict, classify_profile, closed_form_center,
                 default_suite, fit_pseudohyperbolic, integrate_frame,
                 oracle_detect, pairing)
from lcl.classifier import EPS_ORACLE_COEFF
from lcl.minkowski import SIGNS

Y, N = Verdict.YES, Verdict.NO


def test_circle_has_an_axis_for_every_row(circle_trace):
    for k, res in oracle_detect(circle_trace).items():
        assert res.verdict is Y, f"k{k}"
        assert res.vector is not None
        assert res.sigma_min < res.threshold


def test_circle_tangent_axis_direction(circle_trace):
    res = oracle_detect(circle_trace)[0]
    u = res.vector
    expected = np.array([0.5, -1.0 / np.sqrt(2.0), 0.0, -0.5])
    cos = abs(u @ expected) / (np.linalg.norm(u) * np.linalg.norm(expected))
    assert cos == pytest.approx(1.0, abs=1e-9)


def test_constant_frame_row_returns_the_degenerate_note(circle_trace):
    # B1' = 0 for partially null frames with sigma = 0, so the indicatrix
    # degenerates to a point and any vector would do; the row itself wins
    res = oracle_detect(circle_trace)[2]
    assert res.verdict is Y
    assert res.note == "indicatrix constant"
    r = 1.0 / np.sqrt(2.0)
    u = res.vector
    assert np.allclose(np.abs(u), [r, 0.0, 0.0, r], atol=1e-12)


def test_generic_profile_keeps_only_the_2_type_axis():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="exp(s)",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    verdicts = {k: r.verdict for k, r in oracle_detect(tr).items()}
    assert verdicts[0] is N
    assert verdicts[1] is N
    assert verdicts[2] is Y  # trivial B1 row is excluded, but the 2-type
    assert verdicts[3] is N  # axis survives through the N indicatrix


def test_pairing_constancy_across_samples(circle_trace):
    res = oracle_detect(circle_trace)[0]
    rows = circle_trace.frames[:, 0, :]
    g = pairing(rows, res.vector)
    assert np.ptp(g) < 1e-9
    assert res.g_variance < 1e-12
    assert res.g_mean == pytest.approx(np.mean(g), abs=1e-12)


def test_oracle_rejects_near_miss_profiles():
    # small sigma perturbation of an exact quadratic family member kills
    # each axis; the detector must not hallucinate one
    p = CurvatureProfile.create("pseudo_null", tau="2",
                                sigma="-s^2 + s + 0.05*sin(5*s)",
                                domain=(0.0, 1.0))
    tr = integrate_frame(p)
    res = oracle_detect(tr)[1]
    assert res.verdict is N


def test_quadratic_family_normal_axis(quad_psn_trace):
    res1 = oracle_detect(quad_psn_trace)[1]
    assert res1.verdict is Y
    res0 = oracle_detect(quad_psn_trace)[0]
    assert res0.verdict is N


def test_threshold_scales_with_row_count(circle_trace):
    res = oracle_detect(circle_trace)[0]
    # n-1 difference rows plus the appended row for the trivial direction
    rows = len(circle_trace.s) - 1 + 1
    assert res.threshold == pytest.approx(
        EPS_ORACLE_COEFF * np.sqrt(rows), rel=1e-12)


def test_oracle_json_payload(circle_trace):
    res = oracle_detect(circle_trace)[0]
    obj = res.to_json_dict()
    assert obj["verdict"] == "Yes"
    assert isinstance(obj["U"], list) and len(obj["U"]) == 4
    assert obj["sigma_min"] <= obj["threshold"]


def test_vectors_are_arrays_and_a_missing_one_reads_none(
        circle_profile, circle_trace, h3_trace, tmp_path, monkeypatch, capsys):
    # 4-vectors are (4,) arrays, whose truth value is ambiguous, so a
    # missing oracle vector must be told apart by `is None`
    for res in oracle_detect(circle_trace).values():
        assert isinstance(res.vector, np.ndarray) and res.vector.shape == (4,)
    center, _ = closed_form_center(h3_trace, -2.0)
    for v in (fit_pseudohyperbolic(h3_trace).center, center):
        assert isinstance(v, np.ndarray) and v.shape == (4,)

    empty = OracleResult(Verdict.NO, None, 1.0, 1e-6)
    assert empty.to_json_dict()["U"] is None
    monkeypatch.setattr(lcl.cli, "oracle_detect", lambda trace, tol: {0: empty})
    path = tmp_path / "circle.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circle_profile.to_json_dict(), fh)
    assert lcl.cli.main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("U = (none)")
    assert lcl.cli.main(["oracle", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["k0"]["U"] is None


def test_failed_pairing_validation_note():
    # an axis direction exists for the nullspace but the pairing check
    # can still refuse it; engineer this with a tiny grid where noise
    # dominates. The verdict must come back No with the explaining note,
    # or Yes when the pairing truly is constant; either way it never
    # crashes and the note field stays a string.
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1 + s",
                                domain=(0.0, 0.5))
    tr = integrate_frame(p, h=0.05)
    res = oracle_detect(tr)[1]
    assert isinstance(res.note, str)
    assert res.verdict in (Y, N)


@pytest.mark.parametrize("kind, curvatures", [
    ("partially_null", {"kappa": "1", "tau": "1 + s"}),
    ("pseudo_null", {"tau": "2", "sigma": "1 + s"}),
])
def test_coarsest_grid_stacks_at_least_ten_rows(kind, curvatures,
                                                monkeypatch):
    # nullspace_min_singular needs m >= 4 rows; the coarsest step
    # integrate_frame accepts, span/10, still gives every k ten or more
    p = CurvatureProfile.create(kind, domain=(0.0, 0.5), **curvatures)
    trace = integrate_frame(p, h=p.span / 10)
    shapes = []
    kernel = lcl.classifier.nullspace_min_singular

    def recording(rows):
        shapes.append(rows.shape)
        return kernel(rows)

    monkeypatch.setattr(lcl.classifier, "nullspace_min_singular", recording)
    assert sorted(oracle_detect(trace)) == [0, 1, 2, 3]
    assert len(shapes) == 1 and shapes[0][0] == 4 and shapes[0][1] >= 10


def _oracle_one_row(trace, k, tol=Tolerances()):
    """The k-th oracle verdict from its own SVD: the per-row reference."""
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    v = trace.frames[:, k, :]
    rows = (v[1:] - v[0]) * signs
    max_row = np.max(np.linalg.norm(rows, axis=1))
    if max_row < 1e-9 * (1.0 + np.max(np.linalg.norm(v, axis=1))):
        u = v[0] * signs / np.linalg.norm(v[0] * signs)
        return (Y, u, max_row, EPS_ORACLE_COEFF * np.sqrt(len(rows)),
                "indicatrix constant")
    note = ""
    if trace.kind is FrameKind.PARTIALLY_NULL:
        b1 = trace.frames[0, 2]
        rows = np.vstack([rows, b1 / np.linalg.norm(b1)])
        note = "trivial B1 direction excluded"
    threshold = EPS_ORACLE_COEFF * np.sqrt(len(rows))
    _, sv, vt = np.linalg.svd(rows, full_matrices=False)
    u = vt[-1]
    lead = u[np.flatnonzero(np.abs(u) > 1e-6 * np.max(np.abs(u)))[0]]
    u = -u if lead < 0 else u
    verdict = Y if sv[-1] < threshold else N
    if verdict is Y and np.var(np.sum(v * signs * u, axis=-1)) >= tol.eps_axis:
        verdict = N
        note = ((note + "; " if note else "")
                + "candidate failed pairing validation")
    return verdict, u, sv[-1], threshold, note


def _short_pn_trace():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1 + s",
                                domain=(0.0, 0.5))
    return integrate_frame(p, h=0.05)


@pytest.mark.parametrize("name", ["circle_trace", "quad_psn_trace",
                                  "affine_trace", "short"])
def test_batched_oracle_matches_one_svd_per_row(name, request):
    trace = _short_pn_trace() if name == "short" else \
        request.getfixturevalue(name)
    batched = oracle_detect(trace)
    assert sorted(batched) == [0, 1, 2, 3]
    for k, res in batched.items():
        verdict, u, sigma_min, threshold, note = _oracle_one_row(trace, k)
        assert res.verdict is verdict, k
        assert res.sigma_min == sigma_min, k
        assert res.threshold == threshold, k
        assert res.note == note, k
        assert np.array_equal(res.vector, u), k


def test_batched_oracle_keeps_the_constant_row_branch(circle_trace):
    # partially null B1 never moves: k2 takes the indicatrix branch, with
    # the threshold of the rows before the B1 row is appended
    res = oracle_detect(circle_trace)
    assert res[2].note == "indicatrix constant"
    assert res[2].threshold == pytest.approx(
        EPS_ORACLE_COEFF * np.sqrt(len(circle_trace.s) - 1),
        rel=1e-15)
    assert all(res[k].note == "trivial B1 direction excluded"
               for k in (0, 1, 3))


def test_validated_suite_axes_lie_in_the_oracle_nullspace():
    # a closed-form axis that validates is a vector the oracle's rows
    # (V_k(s_i) - V_k(s_0)) M annihilate: |R_k U| for its unit mean vector
    # U sits far below the threshold an oracle Yes needs
    checked = 0
    for fx in default_suite():
        v = integrate_frame(fx.profile).frames.transpose(1, 0, 2)
        rows = (v[:, 1:] - v[:, :1]) * SIGNS
        report = classify_profile(fx.profile)
        for cand, val in report.axes:
            if not val.passed:
                continue
            u = np.mean(cand.U, axis=0)
            u /= np.linalg.norm(u)
            ratio = (np.linalg.norm(rows[cand.k] @ u)
                     / report.oracle[cand.k].threshold)
            assert ratio <= 1e-3, (fx.label, cand.k, cand.source, ratio)
            checked += 1
    assert checked == 99  # every axis the suite builds validates


def test_pairing_mean_and_variance_match_per_k_reductions():
    # the oracle reduces its (4, n) pairings along axis 1, once for the mean
    # and once for the variance; each row must read bit for bit what a 1-D
    # reduction of that k's pairings alone reads
    for fx in default_suite():
        trace = integrate_frame(fx.profile)
        for k, res in oracle_detect(trace).items():
            g = pairing(trace.frames[:, k], res.vector)
            assert (res.g_mean, res.g_variance) == (
                float(g.mean()), float(g.var())), (fx.label, k)
