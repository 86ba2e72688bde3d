"""Metric algebra and nullspace extraction."""

import numpy as np
import pytest

from lcl import nullspace_min_singular, pairing, row_norm


def test_metric_signature_on_basis_vectors():
    e = np.eye(4)
    signs = [-1.0, 1.0, 1.0, 1.0]
    for i in range(4):
        for j in range(4):
            expected = signs[i] if i == j else 0.0
            assert pairing(e[i], e[j]) == expected
    assert np.array_equal(pairing(e[:, None, :], e[None, :, :]),
                          np.diag(signs))


def test_metric_is_symmetric_and_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c = rng.normal(size=(3, 4))
        lam = float(rng.normal())
        assert pairing(a, b) == pytest.approx(pairing(b, a), abs=1e-15)
        left = pairing(a + b * lam, c)
        assert left == pytest.approx(pairing(a, c) + lam * pairing(b, c),
                                     rel=1e-12, abs=1e-12)


def test_pairing_on_arrays_matches_metric_on_vectors():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([0.5, -1.0, 2.0, 1.5])
    expected = -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    assert pairing(a, b) == pytest.approx(expected, rel=1e-15)


def test_pairing_broadcasts_over_sample_rows():
    rows = np.arange(12.0).reshape(3, 4)
    u = np.array([1.0, 0.0, 0.0, 2.0])
    out = pairing(rows, u)
    expected = -rows[:, 0] + 2.0 * rows[:, 3]
    assert np.allclose(out, expected)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((1001, 4), (1001, 4)), ((1001, 4, 4), (1001, 4, 4)), ((1001, 4), (4,)),
    ((4,), (4,))])
def test_pairing_and_row_norm_are_bit_identical_to_numpy(shape_a, shape_b):
    # both sum the four components left to right, as numpy's reductions
    # over a trailing axis of length 4 do
    signs = np.array([-1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(len(shape_a) + len(shape_b))
    for _ in range(50):
        a = rng.standard_normal(shape_a) * 10.0 ** rng.uniform(-6, 6, shape_a)
        b = rng.standard_normal(shape_b) * 10.0 ** rng.uniform(-6, 6, shape_b)
        assert np.array_equal(pairing(a, b), np.sum(a * signs * b, axis=-1))
        assert np.array_equal(row_norm(a), np.linalg.norm(a, axis=-1))
    frames = rng.standard_normal((1001, 4, 4))
    assert np.array_equal(row_norm(frames[:, 2, :]),
                          np.linalg.norm(frames[:, 2, :], axis=1))


def test_nullspace_of_a_stack_is_each_matrix_on_its_own():
    rng = np.random.default_rng(29)
    stack = rng.normal(size=(3, 50, 4))
    d = np.array([1.0, 0.0, 2.0, 0.0])
    stack[1] -= np.outer(stack[1] @ d, d) / (d @ d)
    stack[2] = 0.0
    res = nullspace_min_singular(stack)
    assert res.vector.shape == (3, 4) and res.sigma_min.shape == (3,)
    for i in range(3):
        one = nullspace_min_singular(stack[i])
        assert np.array_equal(res.vector[i], one.vector)
        assert res.sigma_min[i] == one.sigma_min
        assert res.degenerate[i] == one.degenerate
    assert list(res.degenerate) == [False, False, True]


def test_nullspace_of_rank_deficient_matrix():
    # rows built to annihilate d exactly, so d spans the nullspace
    d = np.array([-1.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(3)
    m = rng.normal(size=(60, 4))
    m -= np.outer(m @ d, d) / (d @ d)
    res = nullspace_min_singular(m)
    assert res.sigma_min < 1e-12
    got = res.vector
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
    v1, v2 = r1.vector, r2.vector
    cos = abs(v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
    assert cos == pytest.approx(1.0, abs=1e-10)


def test_nullspace_sign_is_fixed_by_the_first_significant_component():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(50, 4))
    d = np.array([-1.0, 0.3, 0.0, 2.0])
    m -= np.outer(m @ d, d) / (d @ d)
    base = nullspace_min_singular(m).vector
    assert base[0] > 0.0
    for other in (-m, m[rng.permutation(len(m))]):
        got = nullspace_min_singular(other).vector
        assert np.allclose(got, base, rtol=0.0, atol=1e-12)


def test_nullspace_sign_skips_negligible_leading_components():
    # u1 is roundoff-sized, so u2 decides the sign
    d = np.array([1e-9, -1.0, 0.5, 0.0])
    rng = np.random.default_rng(19)
    m = rng.normal(size=(40, 4))
    m -= np.outer(m @ d, d) / (d @ d)
    for sign in (1.0, -1.0):
        got = nullspace_min_singular(sign * m).vector
        assert got[1] > 0.0


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_nullspace_of_short_matrices_is_exact(rows):
    rng = np.random.default_rng(23 + rows)
    a = rng.normal(size=(rows, 4))
    res = nullspace_min_singular(a)
    v = res.vector
    assert res.sigma_min == 0.0
    assert not res.degenerate
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(a @ v)) < 1e-14


@pytest.mark.parametrize("rows", [4, 9, 1001])
def test_nullspace_matches_the_thin_svd_of_tall_stacks(rows):
    # the R factor of a QR decomposition stands in for the matrix; its
    # smallest singular value and right vector must be the thin SVD's
    rng = np.random.default_rng(31 + rows)
    plain = rng.normal(size=(3, rows, 4))
    deficient = plain.copy()
    d = np.array([-1.0, 0.4, 2.0, 0.7])
    deficient -= (deficient @ d)[..., None] * d / (d @ d)
    for a in (plain, deficient, 1e6 * plain, 1e6 * deficient):
        res = nullspace_min_singular(a)
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        v = vt[..., -1, :]
        assert np.all(np.abs(res.sigma_min - s[..., -1]) <= 1e-14 * s[..., 0])
        # the reference vector carries LAPACK's sign, ours the sign rule
        flip = np.sign(np.sum(res.vector * v, axis=-1, keepdims=True))
        assert np.max(np.abs(res.vector - flip * v)) <= 1e-12
        assert not np.any(res.degenerate)
