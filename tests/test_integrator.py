"""Frame integration: accuracy, drift control, resampling, CSV output."""

import numpy as np
import pytest

from lcl import (CurvatureProfile, FrameKind, canonical_frame, gram_matrix,
                 gram_targets, integrate_frame, pairing, resample_curvatures,
                 write_trace_csv)
from lcl.errors import ConfigError, FrameError, IntegrationError
from lcl.integrator import (CSV_HEADER, _frenet_matrices, _project_matrix,
                            project_frame)

PN = FrameKind.PARTIALLY_NULL


def test_sample_count_and_step(circle_trace):
    # uniform grid s_i = i*h up to floor(span/h), trailing remainder dropped
    assert len(circle_trace.s) == 6284
    assert circle_trace.s[0] == 0.0
    assert circle_trace.s[-1] == pytest.approx(6.283, abs=1e-12)
    steps = np.diff(circle_trace.s)
    assert np.allclose(steps, 1e-3, atol=1e-15)


def test_gram_residual_stays_tiny_over_a_full_period(circle_trace):
    assert circle_trace.max_gram_residual < 1e-12
    # and the stored per-sample residuals agree with a direct recompute
    mid = len(circle_trace.s) // 2
    g = gram_matrix(circle_trace.frames[mid])
    res = np.max(np.abs(g - gram_targets(PN)))
    assert res == pytest.approx(circle_trace.gram_res[mid], abs=1e-15)


def test_initial_frame_is_canonical(circle_trace):
    assert np.allclose(circle_trace.frames[0],
                       canonical_frame(PN).to_matrix(), atol=1e-15)
    assert np.allclose(circle_trace.positions[0], 0.0)


def test_period_return_of_tangent_and_normal(circle_trace):
    # kappa = tau = 1 closes the (T, N) rotation after 2*pi
    end = circle_trace.frames[-1]
    start = circle_trace.frames[0]
    assert np.max(np.abs(end[0] - start[0])) < 5e-4
    assert np.max(np.abs(end[1] - start[1])) < 5e-4


def test_normal_samples_lie_on_a_metric_circle(circle_trace):
    # N sweeps a circle for constant curvatures; fit center and radius in
    # the ambient metric and check every sample stays on it
    rows = circle_trace.frames[:, 1, :]
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    design = np.hstack([rows, np.ones((len(rows), 1))])
    target = pairing(rows, rows)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    center = signs * coef[:4] / 2.0
    r_sq = coef[4] + pairing(center, center)
    dev = pairing(rows - center, rows - center) - r_sq
    assert r_sq == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(dev)) < 1e-12


def test_fourth_order_convergence():
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="1 + s^2/4", domain=(0.0, 2.0))
    ref = integrate_frame(p, h=0.02 / 16)
    err = []
    for h in (0.02, 0.01):
        tr = integrate_frame(p, h=h)
        err.append(np.max(np.abs(tr.frames[-1] - ref.frames[-1])))
    ratio = err[0] / err[1]
    # RK4 halving should shrink the endpoint error by about 16
    assert 12.0 < ratio < 20.0


def test_default_step_is_a_thousandth_of_the_span():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    tr = integrate_frame(p)
    assert tr.h == pytest.approx(2e-3)
    assert len(tr.s) == 1001


def test_step_validation():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    with pytest.raises(ConfigError):
        integrate_frame(p, h=0.0)
    with pytest.raises(ConfigError):
        integrate_frame(p, h=-1e-3)
    with pytest.raises(ConfigError):
        integrate_frame(p, h=0.5)  # more than a tenth of the span


def test_initial_frame_must_satisfy_the_gram_targets():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    with pytest.raises(FrameError):
        integrate_frame(p, eps_gram=1e-18)  # canonical frame cannot pass


def test_integration_aborts_when_drift_passes_the_hard_limit():
    p = CurvatureProfile.create("partially_null", kappa="3 + 2*sin(2*s)",
                                tau="2 + s", domain=(0.0, 30.0))
    with pytest.raises(IntegrationError, match=r"at step 25 \(s = 0\.075\)"):
        integrate_frame(p, h=0.003, eps_gram=3e-16)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("drift_mode", ["monitor", "project"])
def test_overflowing_frames_abort_at_the_first_step(drift_mode):
    p = CurvatureProfile.create("partially_null", kappa="1e60", tau="1",
                                domain=(0.0, 1.0))
    with pytest.raises(IntegrationError, match=r"at step 1 \(s = 0\.1\)"):
        integrate_frame(p, h=0.1, drift_mode=drift_mode)


def test_project_mode_reduces_long_run_drift():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 12.0))
    monitor = integrate_frame(p, h=1e-3, drift_mode="monitor")
    project = integrate_frame(p, h=1e-3, drift_mode="project")
    assert project.max_gram_residual < monitor.max_gram_residual


def test_unknown_drift_mode_is_a_config_error():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 1.0))
    with pytest.raises(ConfigError):
        integrate_frame(p, drift_mode="abort")


def test_project_frame_restores_the_targets():
    f = canonical_frame(PN)
    noisy = f.to_matrix() + 1e-8 * np.arange(16.0).reshape(4, 4)
    from lcl.frames import Frame
    fixed, singular = project_frame(Frame.from_matrix(noisy), PN)
    assert not singular
    # one Newton step contracts the 4e-7 residual quadratically
    res = np.max(np.abs(gram_matrix(fixed.to_matrix()) - gram_targets(PN)))
    assert res < 1e-12


def test_project_frame_refuses_distant_frames():
    from lcl.frames import Frame
    far = canonical_frame(PN).to_matrix() + 0.5
    with pytest.raises(FrameError):
        project_frame(Frame.from_matrix(far), PN)


def test_position_derivative_matches_tangent(circle_trace):
    # central difference of alpha against the stored T rows
    s = circle_trace.s
    h = s[1] - s[0]
    dpos = (circle_trace.positions[2:] - circle_trace.positions[:-2]) / (2 * h)
    err = np.max(np.abs(dpos - circle_trace.frames[1:-1, 0, :]))
    assert err < 1e-6


def test_resample_curvatures_recovers_the_profile():
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="1 + s^2/4", domain=(0.0, 2.0))
    tr = integrate_frame(p)
    kap, tau, sig = resample_curvatures(tr)
    interior = slice(4, -4)
    assert np.max(np.abs(kap[interior] - p.kappa(tr.s)[interior])) < 1e-8
    assert np.max(np.abs(tau[interior] - p.tau(tr.s)[interior])) < 1e-8
    assert np.max(np.abs(sig[interior])) < 1e-8


def test_csv_layout_and_first_row(circle_trace, tmp_path):
    out = tmp_path / "trace.csv"
    write_trace_csv(circle_trace, out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6285
    first = lines[1].split(",")
    assert first[0] == "0"
    # canonical start: alpha = 0, T = e2, N = e3, B1 and B2 null
    assert first[1:5] == ["0", "0", "0", "0"]
    assert first[5:9] == ["0", "1", "0", "0"]
    assert first[9:13] == ["0", "0", "1", "0"]
    r = 0.70710678118654746
    assert [float(x) for x in first[13:17]] == [r, 0.0, 0.0, r]
    assert [float(x) for x in first[17:21]] == [-r, 0.0, 0.0, r]


def test_csv_floats_round_trip_exactly(circle_trace, tmp_path):
    out = tmp_path / "trace.csv"
    write_trace_csv(circle_trace, out)
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    i = len(circle_trace.s) // 3
    assert data[i, 0] == circle_trace.s[i]
    assert np.array_equal(data[i, 5:9], circle_trace.frames[i, 0, :])


def test_pseudo_null_integration_respects_its_targets(quad_psn_trace):
    assert quad_psn_trace.max_gram_residual < 1e-12
    f0 = quad_psn_trace.frames[0]
    assert np.allclose(f0, canonical_frame(FrameKind.PSEUDO_NULL).to_matrix())


def _per_step_rk4(p, h, drift_mode):
    """Classical RK4, one stage at a time, as a reference for the sweep."""
    steps = int(np.floor(p.span / h + 1e-9))
    s_half = p.s_min + (h / 2.0) * np.arange(2 * steps + 1)
    mats = _frenet_matrices(*p.evaluate_arrays(s_half), p.kind)
    f = canonical_frame(p.kind).to_matrix()
    alpha = np.zeros(4)
    frames, positions = [f], [alpha]
    for i in range(steps):
        a0, am, a1 = mats[2 * i], mats[2 * i + 1], mats[2 * i + 2]
        k1 = a0 @ f
        g1 = f + (h / 2.0) * k1
        k2 = am @ g1
        g2 = f + (h / 2.0) * k2
        k3 = am @ g2
        g3 = f + h * k3
        k4 = a1 @ g3
        alpha = alpha + (h / 6.0) * (f[0] + 2.0 * g1[0] + 2.0 * g2[0] + g3[0])
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if drift_mode == "project":
            f, _ = _project_matrix(f, p.kind)
        frames.append(f)
        positions.append(alpha)
    frames = np.array(frames)
    gram_res = np.abs(gram_matrix(frames) - gram_targets(p.kind))
    return frames, np.array(positions), gram_res.reshape(-1, 16).max(axis=1)


@pytest.mark.parametrize("drift_mode", ["monitor", "project"])
@pytest.mark.parametrize("family,curvatures", [
    ("partially_null", {"kappa": "2 + sin(s)", "tau": "1 + s^2/4"}),
    ("pseudo_null", {"tau": "2", "sigma": "-s^2 + s"}),
])
def test_batched_sweep_matches_per_step_rk4(family, curvatures, drift_mode):
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    tr = integrate_frame(p, h=2e-3, drift_mode=drift_mode)
    frames, positions, gram_res = _per_step_rk4(p, 2e-3, drift_mode)
    f_scale = np.max(np.abs(frames))
    assert np.max(np.abs(tr.frames - frames)) <= 1e-12 * f_scale
    assert (np.max(np.abs(tr.positions - positions))
            <= 1e-12 * np.max(np.abs(positions)))
    # Gram entries are quadratic in the frame
    assert np.max(np.abs(tr.gram_res - gram_res)) <= 1e-12 * f_scale ** 2


def test_csv_bytes_match_per_value_formatting(tmp_path):
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="1 + s^2/4", domain=(0.0, 1.0))
    tr = integrate_frame(p, h=0.05)
    out = tmp_path / "trace.csv"
    write_trace_csv(tr, out)
    expected = [CSV_HEADER]
    for i in range(tr.n):
        row = [tr.s[i], *tr.positions[i], *tr.frames[i].reshape(16),
               tr.gram_res[i]]
        expected.append(",".join(f"{v:.17g}" for v in row))
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()
