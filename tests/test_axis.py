"""Axis assembly from frame coefficients and constancy validation."""

import inspect

import numpy as np
import pytest

from lcl import (AxisCandidate, CurvatureProfile, CurveTrace,
                 GridMismatchError, Tolerances, assemble_axis,
                 integrate_frame, pairing, validate_axis)

# A probe candidate repeats one fixed ambient vector on the trace grid; it
# has no frame coefficients, so coeffs is NaN.


def test_constant_coefficients_reproduce_an_ambient_vector(circle_trace):
    # D = (tau/kappa) T + B1 + B2 with constant ratio 1
    n = len(circle_trace.s)
    ones = np.ones(n)
    cand = assemble_axis(circle_trace, 0, "probe", ones, np.zeros(n),
                         ones, ones)
    # the combination is s-independent, so every sample gives the same U
    spread = np.max(np.ptp(cand.U, axis=0))
    assert spread < 1e-9
    assert np.allclose(cand.u_at_start(), [0.0, 1.0, 0.0, np.sqrt(2.0)],
                       atol=1e-12)


def test_validate_axis_accepts_a_true_axis(circle_trace):
    D = np.array([0.0, 1.0, 0.0, np.sqrt(2.0)])
    n = circle_trace.n
    cand = AxisCandidate(0, "probe", circle_trace.s, np.full((n, 4), np.nan),
                         np.tile(D, (n, 1)))
    val = validate_axis(circle_trace, cand)
    assert val.passed
    assert val.max_du < 1e-9
    assert val.g_mean == pytest.approx(1.0, abs=1e-9)
    assert val.g_variance < 1e-12


def test_validate_axis_is_scale_invariant(circle_trace):
    D = np.array([0.0, 1.0, 0.0, np.sqrt(2.0)])
    n = circle_trace.n
    outs = []
    for scale in (1.0, 7.0, 0.01):
        cand = AxisCandidate(0, "probe", circle_trace.s,
                             np.full((n, 4), np.nan), np.tile(scale * D, (n, 1)))
        outs.append(validate_axis(circle_trace, cand))
    assert all(v.passed for v in outs)
    # the pairing mean scales linearly, the verdict must not change
    assert outs[1].g_mean == pytest.approx(7.0 * outs[0].g_mean, rel=1e-9)


def test_validate_axis_rejects_a_frame_row_snapshot(circle_trace):
    # N(s0) is not an axis: its pairing with N(s) oscillates
    n = circle_trace.n
    cand = AxisCandidate(1, "probe", circle_trace.s, np.full((n, 4), np.nan),
                         np.tile(circle_trace.frames[0][1], (n, 1)))
    val = validate_axis(circle_trace, cand)
    assert not val.passed
    assert val.g_variance > 1e-3


def test_validate_axis_rejects_drifting_coefficients(circle_trace):
    n = len(circle_trace.s)
    drift = 1.0 + 0.01 * np.linspace(0.0, 1.0, n)
    cand = assemble_axis(circle_trace, 0, "probe", drift, np.zeros(n),
                         np.ones(n), np.ones(n))
    val = validate_axis(circle_trace, cand)
    assert not val.passed
    assert val.max_du > 1e-3


def test_closed_form_axis_for_linear_torsion():
    # kappa = 1, tau = s: D = s T + N - (s^2/2) B1 + B2 stays constant.
    # The domain starts past s = 0, where tau = s would fail validation.
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s",
                                domain=(0.1, 1.0))
    tr = integrate_frame(p)
    s = tr.s
    cand = assemble_axis(tr, 2, "closed-form", s, np.ones_like(s),
                         -s**2 / 2.0, np.ones_like(s))
    val = validate_axis(tr, cand)
    assert val.passed
    assert val.max_du < 1e-9
    # the combination at the start, s0 = 0.1
    t0, n0, b10, b20 = tr.frames[0]
    expected = 0.1 * t0 + n0 - 0.005 * b10 + b20
    assert np.allclose(cand.u_at_start(), expected, atol=1e-12)


def test_axis_json_payload_keys(circle_trace):
    D = np.array([0.0, 1.0, 0.0, np.sqrt(2.0)])
    n = circle_trace.n
    cand = AxisCandidate(0, "probe", circle_trace.s, np.full((n, 4), np.nan),
                         np.tile(D, (n, 1)))
    val = validate_axis(circle_trace, cand)
    payload = val.to_json_dict()
    # k and source are the candidate's; the report adds them to each entry
    assert set(payload) == {"max_dU", "g_mean", "g_variance", "validated"}
    assert payload["validated"] is True


def test_ambient_axis_pairing_against_named_row(quad_psn_trace):
    # for pseudo null frames g(N, N) = 0, so pairing a candidate with the
    # N row measures the B2 component; B2(s0) itself pairs to 1
    n = quad_psn_trace.n
    cand = AxisCandidate(1, "probe", quad_psn_trace.s, np.full((n, 4), np.nan),
                         np.tile(quad_psn_trace.frames[0][3], (n, 1)))
    g0 = pairing(quad_psn_trace.frames[0][1], cand.U[0])
    assert g0 == pytest.approx(1.0, abs=1e-12)


def test_validate_axis_defaults_to_the_tolerances_eps_axis():
    default = inspect.signature(validate_axis).parameters["eps_axis"].default
    assert default == Tolerances().eps_axis == 1e-6


def _probe_on(s):
    """The true circle axis (0, 1, 0, sqrt 2), repeated on the grid s."""
    n = s.shape[0]
    D = np.array([0.0, 1.0, 0.0, np.sqrt(2.0)])
    return AxisCandidate(0, "probe", s, np.full((n, 4), np.nan),
                         np.tile(D, (n, 1)))


def test_validate_axis_rejects_a_candidate_of_another_length(circle_trace):
    with pytest.raises(GridMismatchError, match="sampled on"):
        validate_axis(circle_trace, _probe_on(circle_trace.s[:-1]))


def test_validate_axis_rejects_a_candidate_on_a_shifted_grid(circle_trace):
    # same length, other points: only the grids' values tell them apart,
    # so a candidate that does not carry trace.s itself is compared
    shifted = circle_trace.s + 0.5 * circle_trace.h
    with pytest.raises(GridMismatchError, match="another grid"):
        validate_axis(circle_trace, _probe_on(shifted))
    assert validate_axis(circle_trace, _probe_on(circle_trace.s.copy())).passed
    assert validate_axis(circle_trace, _probe_on(circle_trace.s)).passed


def test_validate_axis_rejects_a_trace_of_fewer_than_7_points(circle_trace):
    t, n = circle_trace, 6
    short = CurveTrace(t.profile, t.s[:n], t.h,
                       tuple(c[:2 * n - 1] for c in t.lattice),
                       t.positions[:n], t.frames[:n], t.gram_res[:n])
    with pytest.raises(GridMismatchError, match="too short"):
        validate_axis(short, _probe_on(short.s))
