"""Metric algebra and nullspace extraction."""

import numpy as np
import pytest

from lcl import (CausalCharacter, Vec4, causal_character, lorentz_norm,
                 metric, nullspace_min_singular, pairing)


def test_metric_signature_on_basis_vectors():
    e = [Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0), Vec4(0, 0, 1, 0),
         Vec4(0, 0, 0, 1)]
    signs = [-1.0, 1.0, 1.0, 1.0]
    for i in range(4):
        for j in range(4):
            expected = signs[i] if i == j else 0.0
            assert metric(e[i], e[j]) == expected


def test_metric_is_symmetric_and_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = (Vec4(*rng.normal(size=4)) for _ in range(3))
        lam = float(rng.normal())
        assert metric(a, b) == pytest.approx(metric(b, a), abs=1e-15)
        left = metric(a + b * lam, c)
        assert left == pytest.approx(metric(a, c) + lam * metric(b, c),
                                     rel=1e-12, abs=1e-12)


def test_pairing_on_arrays_matches_metric_on_vectors():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([0.5, -1.0, 2.0, 1.5])
    expected = -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    assert pairing(a, b) == pytest.approx(expected, rel=1e-15)
    assert metric(Vec4(*a), Vec4(*b)) == pytest.approx(expected, rel=1e-15)


def test_pairing_broadcasts_over_sample_rows():
    rows = np.arange(12.0).reshape(3, 4)
    u = np.array([1.0, 0.0, 0.0, 2.0])
    out = pairing(rows, u)
    expected = -rows[:, 0] + 2.0 * rows[:, 3]
    assert np.allclose(out, expected)


def test_lorentz_norm_of_null_vector_is_zero():
    n = Vec4(1.0, 1.0, 0.0, 0.0)
    assert lorentz_norm(n) == 0.0
    s = Vec4(0.0, 2.0, 0.0, 0.0)
    assert lorentz_norm(s) == pytest.approx(2.0)


def test_causal_character_cases():
    assert causal_character(Vec4(0, 1, 0, 0)) is CausalCharacter.SPACELIKE
    assert causal_character(Vec4(2, 1, 0, 0)) is CausalCharacter.TIMELIKE
    assert causal_character(Vec4(1, 1, 0, 0)) is CausalCharacter.LIGHTLIKE
    assert causal_character(Vec4(0, 0, 0, 0)) is CausalCharacter.ZERO


def test_causal_character_scales_with_vector_magnitude():
    # the classification threshold is relative, so rescaling cannot flip it
    v = Vec4(1.0, 1.0 + 1e-12, 0.0, 0.0)
    big = Vec4(1e8, (1.0 + 1e-12) * 1e8, 0.0, 0.0)
    assert causal_character(v) is causal_character(big)


def test_vec4_rejects_non_finite_components():
    with pytest.raises(ValueError):
        Vec4(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec4(0.0, np.inf, 0.0, 0.0)


def test_nullspace_of_rank_deficient_matrix():
    # rows built to annihilate d exactly, so d spans the nullspace
    d = np.array([-1.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(3)
    m = rng.normal(size=(60, 4))
    m -= np.outer(m @ d, d) / (d @ d)
    res = nullspace_min_singular(m)
    assert res.sigma_min < 1e-12
    got = res.vector.to_array()
    cos = abs(got @ d) / (np.linalg.norm(got) * np.linalg.norm(d))
    assert cos == pytest.approx(1.0, abs=1e-10)


def test_nullspace_full_rank_has_large_min_singular():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(40, 4))
    res = nullspace_min_singular(m)
    assert res.sigma_min > 1e-2
    assert not res.degenerate


def test_nullspace_scale_of_rows_does_not_change_direction():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(30, 4))
    d = np.array([-1.0, 0.5, 2.0, 1.0])
    m -= np.outer(m @ d, d) / (d @ d)
    r1 = nullspace_min_singular(m)
    r2 = nullspace_min_singular(1e6 * m)
    v1, v2 = r1.vector.to_array(), r2.vector.to_array()
    cos = abs(v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    assert cos == pytest.approx(1.0, abs=1e-10)


def test_nullspace_sign_is_fixed_by_the_first_significant_component():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(50, 4))
    d = np.array([-1.0, 0.3, 0.0, 2.0])
    m -= np.outer(m @ d, d) / (d @ d)
    base = nullspace_min_singular(m).vector.to_array()
    assert base[0] > 0.0
    for other in (-m, m[rng.permutation(len(m))]):
        got = nullspace_min_singular(other).vector.to_array()
        assert np.allclose(got, base, rtol=0.0, atol=1e-12)


def test_nullspace_sign_skips_negligible_leading_components():
    # u1 is roundoff-sized, so u2 decides the sign
    d = np.array([1e-9, -1.0, 0.5, 0.0])
    rng = np.random.default_rng(19)
    m = rng.normal(size=(40, 4))
    m -= np.outer(m @ d, d) / (d @ d)
    for sign in (1.0, -1.0):
        got = nullspace_min_singular(sign * m).vector.to_array()
        assert got[1] > 0.0


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_nullspace_of_short_matrices_is_exact(rows):
    rng = np.random.default_rng(23 + rows)
    a = rng.normal(size=(rows, 4))
    res = nullspace_min_singular(a)
    v = res.vector.to_array()
    assert res.sigma_min == 0.0
    assert not res.degenerate
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(a @ v)) < 1e-14
