"""Curvature profile construction, validation, and JSON round-trips."""

import json
import tracemalloc

import numpy as np
import pytest

from lcl import (CurvatureProfile, FrameKind, integrate_frame, load_profile,
                 save_profile)
from lcl.errors import OutOfDomainError, ProfileError
from lcl.profiles import SampleTable, require_family_rules


def test_create_partially_null_defaults_sigma_to_zero():
    p = CurvatureProfile.create("partially_null", kappa="2", tau="1")
    assert np.array_equal(p.evaluate_arrays(0.5), [2.0, 1.0, 0.0])
    assert p.kind is FrameKind.PARTIALLY_NULL


def test_create_pseudo_null_defaults_kappa_to_one():
    p = CurvatureProfile.create("pseudo_null", tau="2", sigma="-s^2 + s",
                                domain=(0.0, 1.0))
    k, t, sg = p.evaluate_arrays(0.5)
    assert k == 1.0
    assert t == 2.0
    assert sg == pytest.approx(0.25)


def test_create_accepts_kind_enum_or_string():
    a = CurvatureProfile.create(FrameKind.PARTIALLY_NULL, kappa="1", tau="1")
    b = CurvatureProfile.create("partially_null", kappa="1", tau="1")
    assert a.kind is b.kind


def test_create_rejects_unknown_kind():
    with pytest.raises((ProfileError, ValueError)):
        CurvatureProfile.create("totally_null", kappa="1", tau="1")


def test_create_rejects_backwards_domain():
    with pytest.raises(ProfileError):
        CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(1.0, 0.0))


def test_pseudo_null_requires_tau_and_sigma():
    with pytest.raises(ProfileError):
        CurvatureProfile.create("pseudo_null", tau="1")


def test_partially_null_requires_kappa_and_tau():
    with pytest.raises(ProfileError):
        CurvatureProfile.create("partially_null", kappa="1")


def test_validate_rejects_vanishing_kappa():
    p = CurvatureProfile.create("partially_null", kappa="s - 0.5", tau="1",
                                domain=(0.0, 1.0))
    with pytest.raises(ProfileError):
        integrate_frame(p)


def test_validate_rejects_tau_sign_change():
    p = CurvatureProfile.create("partially_null", kappa="1", tau="s - 0.5",
                                domain=(0.0, 1.0))
    with pytest.raises(ProfileError):
        integrate_frame(p)


def test_pseudo_null_sigma_may_cross_zero():
    # the quadratic family crosses zero inside the domain by design;
    # nothing divides by sigma, so this integrates with only a warning
    p = CurvatureProfile.create("pseudo_null", tau="1",
                                sigma="-s^2/2 + 0.3*s + 0.1",
                                domain=(0.0, 2.0))
    integrate_frame(p)


def test_pseudo_null_tau_zero_is_still_fatal():
    p = CurvatureProfile.create("pseudo_null", tau="s - 0.5", sigma="1",
                                domain=(0.0, 1.0))
    with pytest.raises(ProfileError):
        integrate_frame(p)


def test_evaluate_arrays_matches_scalar_evaluate():
    p = CurvatureProfile.create("partially_null", kappa="1 + s^2",
                                tau="2 + sin(s)", domain=(0.0, 2.0))
    grid = np.linspace(0.0, 2.0, 17)
    ka, ta, sa = p.evaluate_arrays(grid)
    for i, s in enumerate(grid):
        k, t, sg = p.kappa(float(s)), p.tau(float(s)), p.sigma(float(s))
        assert ka[i] == pytest.approx(k, abs=1e-15)
        assert ta[i] == pytest.approx(t, abs=1e-15)
        assert sa[i] == pytest.approx(sg, abs=1e-15)


def test_evaluate_arrays_rejects_a_point_past_the_domain_slack():
    # the slack is 1e-12 (1 + span) = 3e-12 on [0, 2]
    p = CurvatureProfile.create("partially_null", kappa="1 + s^2",
                                tau="2 + sin(s)", domain=(0.0, 2.0))
    ka, _, _ = p.evaluate_arrays(np.array([-2e-12, 1.0, 2.0 + 2e-12]))
    assert ka[1] == 2.0
    with pytest.raises(OutOfDomainError, match=r"^s = 2\.5 outside domain "
                       r"\[0\.0, 2\.0\]$"):
        p.evaluate_arrays(np.array([1.0, 2.5, -1.0, 3.0]))
    with pytest.raises(OutOfDomainError, match=r"^s = -1e-09 "):
        p.evaluate_arrays(-1e-9)


def test_grid_spans_the_domain():
    # the integration grid, and its half-step lattice, from end to end
    p = CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                domain=(0.25, 1.75))
    tr = integrate_frame(p, h=0.015)
    g = tr.s
    assert g[0] == 0.25 and g[-1] == pytest.approx(1.75, abs=1e-12)
    assert len(g) == 101 and tr.lattice[0].shape == (201,)


def test_json_round_trip_preserves_evaluation():
    p = CurvatureProfile.create("pseudo_null", tau="2 + s",
                                sigma="-s^2/2 + 0.1", domain=(0.0, 1.5),
                                label="round-trip")
    q = CurvatureProfile.from_json_dict(p.to_json_dict())
    assert q.label == "round-trip"
    assert q.kind is p.kind
    assert q.domain == p.domain
    for s in np.linspace(0.0, 1.5, 7):
        assert q.evaluate_arrays(s) == pytest.approx(p.evaluate_arrays(s))


def test_save_and_load_profile(tmp_path):
    p = CurvatureProfile.create("partially_null", kappa="2", tau="6",
                                domain=(0.0, 1.0), label="disk")
    path = tmp_path / "p.json"
    save_profile(p, path)
    q = load_profile(path)
    assert q.label == "disk"
    assert q.evaluate_arrays(0.3) == pytest.approx(p.evaluate_arrays(0.3))
    # the file itself is plain JSON with the documented keys
    obj = json.loads(path.read_text())
    assert set(obj) >= {"kind", "domain", "kappa", "tau"}


def test_from_json_dict_rejects_missing_component():
    with pytest.raises(ProfileError):
        CurvatureProfile.from_json_dict({"kind": "pseudo_null",
                                         "domain": [0.0, 1.0], "tau": "1"})


def test_sample_table_interpolates_monotonically():
    s = np.linspace(0.0, 1.0, 9)
    table = SampleTable(s, 1.0 + s**2)
    mid = table(0.5)
    assert mid == pytest.approx(1.25, abs=1e-3)
    fine = table(np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(fine) > 0)


_POS_S = np.linspace(0.0, 2.0, 11)
PCHIP_TABLES = {
    "two-point": ([0.0, 1.5], [2.0, -1.0]),
    "three-point": ([0.0, 0.4, 2.0], [1.0, 3.0, 2.5]),
    "non-uniform": ([-1.0, -0.9, 0.2, 0.25, 1.7, 3.0],
                    [0.3, 1.1, 0.9, 4.0, -2.0, 5.0]),
    "flat-runs": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                  [0.0, -0.0, 0.0, 2.0, 2.0, 0.5, 0.5]),
    "sign-changes": ([0.0, 0.3, 1.0, 1.2, 2.5, 2.6],
                     [0.0, -1.0, 2.0, -3.0, 3.0, -0.5]),
    "steep-ends": ([0.0, 0.1, 1.0, 1.1], [0.0, 5.0, -5.0, 0.0]),
    "positive": (_POS_S**1.5, 1e-3 + np.exp(-8.0 * _POS_S)),
}


@pytest.mark.parametrize("name", sorted(PCHIP_TABLES))
def test_sample_table_matches_scipy_pchip(name):
    from scipy.interpolate import PchipInterpolator

    s, values = (np.asarray(a, dtype=float) for a in PCHIP_TABLES[name])
    table = SampleTable(s, values)
    ref = PchipInterpolator(s, values, extrapolate=True)
    span = s[-1] - s[0]
    x = np.concatenate(
        [np.linspace(s[0] - 0.3 * span, s[-1] + 0.3 * span, 401), s])
    got = table(x)
    want = ref(x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    bound = 1e-13 * (1.0 + np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) <= bound
    for xi in (s[0] - 0.2 * span, s[0], 0.5 * (s[0] + s[1]), s[-1],
               s[-1] + 0.2 * span):
        scalar = table(xi)
        assert isinstance(scalar, float)
        assert abs(scalar - float(ref(xi))) <= bound


def test_sample_table_keeps_a_positive_table_positive():
    s, values = PCHIP_TABLES["positive"]
    fine = SampleTable(s, values)(np.linspace(s[0], s[-1], 2001))
    assert np.all(fine > 0.0)


def test_sample_table_rejects_unsorted_or_short_input():
    with pytest.raises(ProfileError):
        SampleTable(np.array([0.0, 2.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ProfileError):
        SampleTable(np.array([0.0]), np.array([1.0]))


def test_profile_with_sampled_component():
    s = np.linspace(0.0, 1.0, 33)
    p = CurvatureProfile.create(
        "partially_null", kappa=SampleTable(s, 2.0 + np.sin(s)), tau="1",
        domain=(0.0, 1.0))
    k = p.kappa(0.5)
    assert k == pytest.approx(2.0 + np.sin(0.5), abs=1e-6)
    # sampled components survive the JSON round-trip as tables
    q = CurvatureProfile.from_json_dict(p.to_json_dict())
    k2 = q.kappa(0.5)
    assert k2 == pytest.approx(k, abs=1e-12)


@pytest.mark.parametrize("kind, kappa", [("partially_null", "2 + s"),
                                         ("pseudo_null", "1")])
def test_family_rules_copy_no_one_signed_array(kind, kappa):
    # min and max decide; |values| is formed only on the error path
    p = CurvatureProfile.create(kind, kappa=kappa, tau="-1 - s",
                                sigma="s", domain=(0.0, 1.0))
    k, t, sg = p.evaluate_arrays(np.linspace(0.0, 1.0, 10_001))
    k, t, sg = np.array(k), np.array(t), np.array(sg)
    tracemalloc.start()
    try:
        require_family_rules(p, k, t, sg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k.nbytes
