"""Frame integration: accuracy, the Gram-drift abort, resampling, CSV output."""

import re
import tracemalloc

import numpy as np
import pytest

import lcl.integrator
from lcl import (CurvatureProfile, FrameKind, canonical_frame,
                 classify_profile, frenet_matrix, gram_matrix, gram_residual,
                 gram_targets, integrate_frame, pairing, resample_curvatures,
                 run_theorem_suite, write_trace_csv)
from lcl.errors import ConfigError, FrameError, IntegrationError, ProfileError
from lcl.integrator import (_CSV_BLOCK_ROWS, CSV_HEADER,
                            _prefix_increments, _rk4_increments)

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
                       canonical_frame(PN), atol=1e-15)
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


@pytest.mark.parametrize("h", [True, "0.01", np.array([0.01])],
                         ids=["bool", "string", "array"])
def test_a_step_that_is_not_a_real_number_is_a_config_error(h):
    # float() takes all three; True would integrate at h = 1.0 and fail on
    # Gram drift (exit 3) on this span, not as a bad input (exit 2)
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1 + s",
                                domain=(0.0, 20.0))
    for run in (lambda: integrate_frame(p, h=h),
                lambda: classify_profile(p, h=h),
                lambda: run_theorem_suite(fixtures=[], h=h)):
        with pytest.raises(ConfigError, match="step h must be a real number"):
            run()


@pytest.mark.parametrize("h", [1, np.float64(0.5), np.int64(1),
                               np.float32(0.5)])
def test_ints_and_numpy_scalars_are_steps(h):
    p = CurvatureProfile.create("partially_null", kappa="0.01", tau="0.01",
                                domain=(0.0, 20.0))
    tr = integrate_frame(p, h=h)
    assert type(tr.h) is float and tr.h == float(h)


def test_initial_frame_must_satisfy_the_gram_targets(monkeypatch):
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    monkeypatch.setattr(lcl.integrator, "EPS_GRAM", 1e-18)
    with pytest.raises(FrameError):
        integrate_frame(p)  # canonical frame cannot pass


FAMILIES = [
    ("partially_null", {"kappa": "2 + sin(s)", "tau": "1 + s^2/4"}),
    ("pseudo_null", {"tau": "2", "sigma": "-s^2 + s"}),
]


def _boost_x1x2(rapidity):
    """Lorentz boost mixing x1 (timelike) and x2."""
    lam = np.eye(4)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    lam[:2, :2] = [[c, s], [s, c]]
    return lam


@pytest.mark.parametrize("family,curvatures", FAMILIES)
def test_boosted_initial_frame_boosts_the_whole_run(family, curvatures):
    # F' = A F and alpha' = T are linear and act on rows, so starting from
    # F0 L^T gives F(s) L^T and alpha(s) L^T, up to roundoff
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    lam = _boost_x1x2(1.0)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(lam.T @ eta @ lam, eta, rtol=0.0, atol=1e-14)
    base = integrate_frame(p, h=2e-3)
    boosted = integrate_frame(p, h=2e-3,
                              initial=canonical_frame(p.kind) @ lam.T)
    frames, positions = base.frames @ lam.T, base.positions @ lam.T
    # measured about 2e-15 on both families
    assert (np.max(np.abs(boosted.frames - frames))
            <= 1e-13 * np.max(np.abs(frames)))
    assert (np.max(np.abs(boosted.positions - positions))
            <= 1e-13 * np.max(np.abs(positions)))


@pytest.mark.parametrize("family,curvatures", FAMILIES)
def test_alpha0_shifts_the_positions(family, curvatures):
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    alpha0 = [1.5, -2.0, 0.25, 3.0]
    base = integrate_frame(p, h=2e-3)
    shifted = integrate_frame(p, h=2e-3, alpha0=alpha0)
    assert np.array_equal(shifted.frames, base.frames)
    assert np.array_equal(shifted.positions[0], alpha0)
    assert np.allclose(shifted.positions, base.positions + alpha0,
                       rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("initial,match", [
    (np.eye(3), r"must be 4 x 4, got shape \(3, 3\)"),
    ([[1.0, 0.0], [0.0]], "not a numeric array"),
    (np.full((4, 4), np.nan), "non-finite"),
    (2.0 * canonical_frame(PN), "Gram residual 3 exceeds"),
], ids=["wrong-shape", "ragged", "nan", "off-gram"])
def test_bad_initial_frames_are_rejected(initial, match):
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    with pytest.raises(FrameError, match=match):
        integrate_frame(p, initial=initial)


@pytest.mark.parametrize("alpha0,match", [
    (np.zeros(3), r"alpha0 must be length 4, got shape \(3,\)"),
    (np.zeros((1, 4)), r"alpha0 must be length 4, got shape \(1, 4\)"),
    ([0.0, np.nan, 0.0, 0.0], "alpha0 has a non-finite entry"),
    (["a", "b", "c", "d"], "alpha0 is not a numeric array"),
], ids=["short", "row-matrix", "nan", "strings"])
def test_bad_alpha0_is_rejected(alpha0, match):
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.0, 2.0))
    with pytest.raises(FrameError, match=match):
        integrate_frame(p, alpha0=alpha0)


def test_integration_aborts_when_drift_passes_the_hard_limit(monkeypatch):
    p = CurvatureProfile.create("partially_null", kappa="3 + 2*sin(2*s)",
                                tau="2 + s", domain=(0.0, 30.0))
    monkeypatch.setattr(lcl.integrator, "EPS_GRAM", 3e-16)
    with pytest.raises(IntegrationError, match=r"at step 25 \(s = 0\.075\)"):
        integrate_frame(p, h=0.003)


def test_overflowing_frames_abort_at_the_first_step():
    # no overflow warning either: the suite turns warnings into errors
    p = CurvatureProfile.create("partially_null", kappa="1e60", tau="1",
                                domain=(0.0, 1.0))
    with pytest.raises(IntegrationError, match=r"at step 1 \(s = 0\.1\)"):
        integrate_frame(p, h=0.1)


def test_overflowing_increments_abort_without_a_warning():
    # kappa = 1e308 overflows in the RK4 stages themselves, before the scan
    p = CurvatureProfile.create("partially_null", kappa=1e308, tau="1",
                                domain=(0.0, 1.0))
    with pytest.raises(IntegrationError,
                       match=r"Gram drift nan .* at step 1 \(s = 0\.001\)"):
        integrate_frame(p)


def test_pseudo_null_run_rejects_kappa_other_than_one():
    p = CurvatureProfile.create("pseudo_null", kappa="1.5", tau="2",
                                sigma="s", domain=(0.0, 1.0))
    with pytest.raises(ProfileError, match="requires kappa = 1"):
        integrate_frame(p, h=0.01)


def test_position_derivative_matches_tangent(circle_trace):
    # central difference of alpha against the stored T rows
    s = circle_trace.s
    h = s[1] - s[0]
    dpos = (circle_trace.positions[2:] - circle_trace.positions[:-2]) / (2 * h)
    err = np.max(np.abs(dpos - circle_trace.frames[1:-1, 0, :]))
    assert err < 1e-6


@pytest.mark.parametrize("kind, curvatures", [
    ("partially_null", dict(kappa="2 + sin(s)", tau="1 + s^2/4")),
    ("pseudo_null", dict(tau="1 + s/3", sigma="0.5 + s^2/4")),
], ids=["partially_null", "pseudo_null"])
def test_resample_curvatures_recovers_the_profile(kind, curvatures):
    # each family pairs the frame derivatives against its own dual rows
    p = CurvatureProfile.create(kind, domain=(0.0, 2.0), **curvatures)
    tr = integrate_frame(p)
    interior = slice(4, -4)
    for got, want in zip(resample_curvatures(tr), p.evaluate_arrays(tr.s)):
        assert np.max(np.abs(got[interior] - want[interior])) < 1e-8


@pytest.mark.parametrize("tabulated", [False, True])
@pytest.mark.parametrize("divisions", [1000, 5000, 777])
def test_trace_curvatures_are_the_profile_on_its_grid(tabulated, divisions):
    # the trace reads them off the half-step lattice it integrated on,
    # as views, not copies; they must be what evaluating the profile on
    # trace.s gives, bit for bit
    domain = (0.3, 2.1)
    sigma = "-s^2/2 + 0.4*s + 0.2"
    if tabulated:
        knots = np.linspace(*domain, 101)
        sigma = {"s": knots.tolist(),
                 "values": (-knots**2 / 2 + 0.4 * knots + 0.2).tolist()}
    p = CurvatureProfile.create("pseudo_null", tau="1 + 0.3*sin(2*s)",
                                sigma=sigma, domain=domain)
    tr = integrate_frame(p, h=(domain[1] - domain[0]) / divisions)
    for got, want, lattice in zip((tr.kappa, tr.tau, tr.sigma),
                                  p.evaluate_arrays(tr.s), tr.lattice):
        assert got.shape == tr.s.shape
        assert np.array_equal(got, want)
        assert lattice.shape == (2 * tr.n - 1,)
        assert np.shares_memory(got, lattice)


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
    assert np.allclose(f0, canonical_frame(FrameKind.PSEUDO_NULL))


def _per_step_rk4(p, h):
    """Classical RK4, one stage at a time, as a reference for the sweep."""
    steps = int(np.floor(p.span / h + 1e-9))
    s_half = p.s_min + (h / 2.0) * np.arange(2 * steps + 1)
    mats = frenet_matrix(*p.evaluate_arrays(s_half), p.kind)
    f = canonical_frame(p.kind)
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
        frames.append(f)
        positions.append(alpha)
    frames = np.array(frames)
    gram_res = np.abs(gram_matrix(frames) - gram_targets(p.kind))
    return frames, np.array(positions), gram_res.reshape(-1, 16).max(axis=1)


@pytest.mark.parametrize("family,curvatures", [
    ("partially_null", {"kappa": "2 + sin(s)", "tau": "1 + s^2/4"}),
    ("pseudo_null", {"tau": "2", "sigma": "-s^2 + s"}),
])
def test_batched_sweep_matches_per_step_rk4(family, curvatures):
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    tr = integrate_frame(p, h=2e-3)
    frames, positions, gram_res = _per_step_rk4(p, 2e-3)
    f_scale = np.max(np.abs(frames))
    assert np.max(np.abs(tr.frames - frames)) <= 1e-12 * f_scale
    assert (np.max(np.abs(tr.positions - positions))
            <= 1e-12 * np.max(np.abs(positions)))
    # Gram entries are quadratic in the frame
    assert np.max(np.abs(tr.gram_res - gram_res)) <= 1e-12 * f_scale ** 2


def _per_value_csv(tr):
    """The trace's CSV built one `'%.17g'` value at a time."""
    expected = [CSV_HEADER]
    for i in range(tr.n):
        row = [tr.s[i], *tr.positions[i], *tr.frames[i].reshape(16),
               tr.gram_res[i]]
        expected.append(",".join(f"{v:.17g}" for v in row))
    return ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("rows", [21, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                  2 * _CSV_BLOCK_ROWS + 1, 5001])
@pytest.mark.parametrize("family,curvatures", [
    ("partially_null", {"kappa": "2 + sin(s)", "tau": "1 + s^2/4"}),
    ("pseudo_null", {"tau": "2", "sigma": "-s^2 + s"}),
])
def test_csv_bytes_match_per_value_formatting(family, curvatures, rows,
                                              tmp_path):
    # part of one writer block, one full block, one row over it, two
    # blocks and a row over, and the 5,000 steps of a fine trace
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    tr = integrate_frame(p, h=p.span / (rows - 1))
    assert tr.n == rows
    out = tmp_path / "trace.csv"
    write_trace_csv(tr, out)
    assert out.read_bytes() == _per_value_csv(tr)
    if rows == 5001:
        # every block has values below 1e-6 (the Gram residuals,
        # roundoff-level frame entries), which the formatter scales by
        # two TwoProducts
        values = np.concatenate([tr.s[:, None], tr.positions,
                                 tr.frames.reshape(tr.n, 16),
                                 tr.gram_res[:, None]], axis=1)
        tiny = (values != 0.0) & (np.abs(values) < 1e-6)
        blocks = np.add.reduceat(tiny.any(axis=1),
                                 np.arange(0, tr.n, _CSV_BLOCK_ROWS))
        assert (blocks > 0).all()


def test_csv_writer_peak_memory_stays_below_the_integration_peak(tmp_path):
    # the writer formats a block of rows at a time; its block size must
    # keep it from raising the peak that integration already sets
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="1 + s^2/4", domain=(0.0, 1.0))
    tracemalloc.start()
    try:
        tr = integrate_frame(p, h=p.span / 5000)
        _, integrate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        write_trace_csv(tr, tmp_path / "trace.csv")
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert write_peak - held < integrate_peak



def _whole_grid_increments(mats, h):
    """The RK4 increments built for every step at once, from the Frenet
    matrices of the whole half-step lattice: the reference for the
    blocked build."""
    a0, am, a1 = mats[0:-1:2], mats[1::2], mats[2::2]
    k2 = np.matmul(am, a0)
    k2 *= h / 2.0
    k2 += am
    k3 = np.matmul(am, k2)
    k3 *= h / 2.0
    k3 += am
    q = a0[:, 0, :] + k2[:, 0, :] + k3[:, 0, :]
    q *= h * h / 6.0
    q[:, 0] += h
    d = np.matmul(a1, k3)
    d *= h
    d += a1
    d += a0
    k2 += k3
    k2 *= 2.0
    d += k2
    d *= h / 6.0
    return d, q


# one step, a block's edge on either side, two full blocks and a
# one-step tail, and a long run; integrate_frame takes at least 10 steps
@pytest.mark.parametrize("steps", [1, 1023, 1024, 1025, 2049, 5000])
@pytest.mark.parametrize("family,curvatures", FAMILIES,
                         ids=[f[0] for f in FAMILIES])
def test_blocked_integration_is_bit_identical_to_the_whole_grid(
        family, curvatures, steps):
    p = CurvatureProfile.create(family, domain=(0.0, 1.0), **curvatures)
    h = p.span / steps
    lattice = p.evaluate_arrays(p.s_min + (h / 2.0) * np.arange(2 * steps + 1))
    d_ref, q_ref = _whole_grid_increments(frenet_matrix(*lattice, p.kind), h)
    d, q = _rk4_increments(lattice, p.kind, h)
    assert np.array_equal(d, d_ref) and np.array_equal(q, q_ref)
    if steps < 10:
        return
    frame0 = canonical_frame(p.kind)
    frames = np.empty((steps + 1, 4, 4))
    frames[0] = frame0
    np.matmul(_prefix_increments(d_ref).reshape(-1, 4), frame0,
              out=frames[1:].reshape(-1, 4))
    frames[1:] += frame0
    positions = np.zeros((steps + 1, 4))
    np.matmul(q_ref[:, None, :], frames[:-1], out=positions[1:, None, :])
    np.cumsum(positions, axis=0, out=positions)
    tr = integrate_frame(p, h=h)
    assert tr.n == steps + 1
    assert np.array_equal(tr.frames, frames)
    assert np.array_equal(tr.positions, positions)
    assert np.array_equal(tr.gram_res, gram_residual(frames, p.kind))


def test_integration_holds_little_beyond_its_trace():
    # past the trace, integration holds the increments, the scan's
    # carries and one step block's temporaries: at most two (n, 4, 4)
    # stacks; whole-grid Frenet matrices, RK4 stages or Gram temporaries
    # would take about four
    p = CurvatureProfile.create("pseudo_null", tau="2", sigma="2*(s + 3)",
                                domain=(0.0, 1.0))
    steps = 50_000
    tracemalloc.start()
    try:
        tr = integrate_frame(p, h=p.span / steps)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tr.n == steps + 1
    assert peak - held <= 2 * steps * 128


# the prefix scan halves the step count at each level, so step counts on
# both sides of a power of two meet odd lengths at different levels;
# psn-generic-1 of the default suite, at its default 1000 steps, has
# frames up to 9.3e4
SCAN_CASES = [(family, curvatures, (0.0, 1.0), steps)
              for family, curvatures in FAMILIES
              for steps in (10, 16, 17, 1023, 1025)]
SCAN_CASES.append(("pseudo_null", {"tau": "2", "sigma": "2*(s + 3)"},
                   (0.0, 2.0), 1000))


@pytest.mark.parametrize("family,curvatures,domain,steps", SCAN_CASES,
                         ids=[f"{c[0]}-{c[3]}" for c in SCAN_CASES[:-1]]
                         + ["psn-generic-1"])
def test_prefix_scan_matches_per_step_rk4_at_any_step_count(
        family, curvatures, domain, steps):
    p = CurvatureProfile.create(family, domain=domain, **curvatures)
    h = p.span / steps
    tr = integrate_frame(p, h=h)
    assert tr.n == steps + 1
    frames, positions, gram_res = _per_step_rk4(p, h)
    f_scale = np.max(np.abs(frames))
    assert np.max(np.abs(tr.frames - frames)) <= 1e-12 * f_scale
    assert (np.max(np.abs(tr.positions - positions))
            <= 1e-12 * np.max(np.abs(positions)))
    assert np.max(np.abs(tr.gram_res - gram_res)) <= 1e-12 * f_scale ** 2


def _sequential_increments(d):
    """E_j of (I + E_j) = (I + D_j) ... (I + D_0), one step at a time."""
    e = np.empty_like(d)
    e[0] = d[0]
    for j in range(1, len(d)):
        e[j] = d[j] + (e[j - 1] + d[j] @ e[j - 1])
    return e


def test_prefix_scan_matches_a_sequential_fold_at_every_short_length():
    # integrate_frame takes at least 10 steps; the scan itself must also
    # handle 1, 2 and 3, and every odd and even split below 40
    rng = np.random.default_rng(16)
    for n in range(1, 41):
        d = 0.1 * rng.normal(size=(n, 4, 4))
        expected = _sequential_increments(d)
        got = _prefix_increments(d.copy())
        assert np.max(np.abs(got - expected)) <= 1e-14 * max(
            1.0, np.max(np.abs(expected))), n


@pytest.mark.parametrize("n,k", [(2, 1), (17, 8), (17, 9), (40, 31),
                                 (40, 32), (1025, 512)])
def test_prefix_scan_is_causal(n, k):
    # a step that blows up leaves every earlier cumulative product as it
    # was, bit for bit, so the abort can name the first bad step
    rng = np.random.default_rng(n + k)
    d = 0.1 * rng.normal(size=(n, 4, 4))
    clean = _prefix_increments(d.copy())
    d[k] = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        spoiled = _prefix_increments(d)
    assert spoiled[:k].tobytes() == clean[:k].tobytes()
    assert not np.all(np.isfinite(spoiled[k]))


def test_mid_run_abort_names_the_first_step_past_the_limit():
    # kappa = s^2 outgrows the step, so RK4's Gram drift (truncation, not
    # roundoff: the frames stay near unit size) passes 1000 * EPS_GRAM
    # partway through a 1500-step run; the scan must not let the later
    # steps move the first index past the limit
    p = CurvatureProfile.create("partially_null", kappa="s^2", tau="1",
                                domain=(0.5, 10.0))
    steps = 1500
    h = p.span / steps
    _, _, gram_res = _per_step_rk4(p, h)
    first = int(np.flatnonzero(gram_res > 1000 * 1e-6)[0])
    assert steps // 2 < first < steps
    where = f"at step {first} (s = {p.s_min + first * h:.6g})"
    with pytest.raises(IntegrationError, match=re.escape(where)):
        integrate_frame(p, h=h)
