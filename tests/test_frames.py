"""Frame targets, canonical frames, and the structure equations.

The load-bearing check is derivative compatibility: differentiating each
Gram pairing along the structure equations must give exactly zero, which
is what keeps long integrations on the constraint manifold.
"""

import numpy as np
import pytest

from lcl import (CurvatureProfile, FrameKind, canonical_frame, frenet_matrix,
                 gram_matrix, gram_residual, gram_targets, integrate_frame,
                 pairing, row_norm)
from lcl.suite import default_suite

PN = FrameKind.PARTIALLY_NULL
PSN = FrameKind.PSEUDO_NULL


def test_gram_targets_partially_null():
    g = gram_targets(PN)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1.0
    expected[2, 3] = expected[3, 2] = 1.0
    assert np.array_equal(g, expected)


def test_gram_targets_pseudo_null():
    g = gram_targets(PSN)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[2, 2] = 1.0
    expected[1, 3] = expected[3, 1] = 1.0
    assert np.array_equal(g, expected)


@pytest.mark.parametrize("kind", [PN, PSN])
def test_canonical_frame_meets_targets_exactly(kind):
    f = canonical_frame(kind)
    res = gram_residual(f, kind)
    assert res < 1e-15


def test_canonical_partially_null_rows():
    f = canonical_frame(PN)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(f[0], [0, 1, 0, 0])
    assert np.allclose(f[1], [0, 0, 1, 0])
    assert np.allclose(f[2], [r, 0, 0, r])
    assert np.allclose(f[3], [-r, 0, 0, r])


def test_canonical_pseudo_null_rows():
    f = canonical_frame(PSN)
    assert np.allclose(f[0], [0, 0, 1, 0])
    assert np.allclose(f[1], [1, 1, 0, 0])
    assert np.allclose(f[2], [0, 0, 0, 1])
    assert np.allclose(f[3], [-0.5, 0.5, 0, 0])


def test_gram_matrix_of_canonical_frames():
    for kind in (PN, PSN):
        m = canonical_frame(kind)
        assert np.allclose(gram_matrix(m), gram_targets(kind), atol=1e-15)


def test_frenet_matrix_partially_null_layout():
    k, t, sg = 1.3, -0.7, 0.4
    a = frenet_matrix(k, t, sg, PN)
    expected = np.array([
        [0.0, k, 0.0, 0.0],
        [-k, 0.0, t, 0.0],
        [0.0, 0.0, sg, 0.0],
        [0.0, -t, 0.0, -sg],
    ])
    assert np.array_equal(a, expected)


def test_frenet_matrix_pseudo_null_layout():
    k, t, sg = 1.0, 0.8, -0.3
    a = frenet_matrix(k, t, sg, PSN)
    expected = np.array([
        [0.0, k, 0.0, 0.0],
        [0.0, 0.0, t, 0.0],
        [0.0, sg, 0.0, -t],
        [-k, 0.0, -sg, 0.0],
    ])
    assert np.array_equal(a, expected)


@pytest.mark.parametrize("kind", [PN, PSN])
def test_frenet_matrix_broadcasts_over_arrays(kind):
    rng = np.random.default_rng(7)
    k, t, sg = rng.normal(size=(3, 2, 5))
    a = frenet_matrix(k, t, sg, kind)
    assert a.shape == (2, 5, 4, 4)
    for i, j in np.ndindex(2, 5):
        assert np.array_equal(a[i, j], frenet_matrix(k[i, j], t[i, j],
                                                     sg[i, j], kind))
    # a scalar sigma broadcasts against array kappa and tau
    assert frenet_matrix(k, t, 0.0, kind).shape == (2, 5, 4, 4)


@pytest.mark.parametrize("kind", [PN, PSN])
def test_structure_equations_preserve_every_pairing(kind):
    # d/ds g(Vi, Vj) = g(Vi', Vj) + g(Vi, Vj') must vanish identically
    # whenever g(Vi, Vj) already sits at its target, for ANY curvatures.
    rng = np.random.default_rng(42)
    g = gram_targets(kind)
    for _ in range(25):
        k, t, sg = rng.normal(size=3) * 3.0
        a = frenet_matrix(k, t, sg, kind)
        drift = a @ g + g @ a.T
        assert np.max(np.abs(drift)) < 1e-12


def test_partially_null_rhs_component_form():
    # T' = k N, N' = -k T + t B1, B1' = s B1, B2' = -t N - s B2
    f = canonical_frame(PN)
    T, N, B1, B2 = f
    k, t, sg = 1.5, -2.0, 0.7
    out = frenet_matrix(k, t, sg, PN) @ f
    assert np.allclose(out[0], k * N)
    assert np.allclose(out[1], -k * T + t * B1)
    assert np.allclose(out[2], sg * B1)
    assert np.allclose(out[3], -t * N - sg * B2)


def test_pseudo_null_rhs_component_form():
    # T' = k N, N' = t B1, B1' = s N - t B2, B2' = -k T - s B1
    f = canonical_frame(PSN)
    T, N, B1, B2 = f
    k, t, sg = 1.0, 0.9, -1.2
    out = frenet_matrix(k, t, sg, PSN) @ f
    assert np.allclose(out[0], k * N)
    assert np.allclose(out[1], t * B1)
    assert np.allclose(out[2], sg * N - t * B2)
    assert np.allclose(out[3], -k * T - sg * B1)


@pytest.mark.parametrize("lookup", [
    gram_targets, canonical_frame,
    lambda kind: frenet_matrix(1.0, 0.5, 0.0, kind),
    lambda kind: gram_residual(np.eye(4), kind),
], ids=["gram_targets", "canonical_frame", "frenet_matrix", "gram_residual"])
@pytest.mark.parametrize("kind", ["partially_null", None, ["pseudo_null"]])
def test_lookups_reject_anything_but_a_frame_kind(lookup, kind):
    # the family table is keyed by FrameKind; a bare KeyError or TypeError
    # from the dict would not say what was wrong
    with pytest.raises(ValueError, match="unknown frame kind"):
        lookup(kind)


@pytest.mark.parametrize("kind, sigma", [(PN, "0"), (PSN, "0.5 + s")])
def test_changing_a_looked_up_array_leaves_the_family_unchanged(kind, sigma):
    p = CurvatureProfile.create(kind, kappa="1", tau="1 + s/2", sigma=sigma,
                                domain=(0.0, 1.0))
    before = integrate_frame(p)
    for lookup in (canonical_frame, gram_targets):
        want = lookup(kind).copy()
        got = lookup(kind)
        got[0, 0] = 7.0
        got *= 2.0
        assert np.array_equal(lookup(kind), want)
    after = integrate_frame(p)
    assert np.array_equal(after.frames, before.frames)
    assert np.array_equal(after.gram_res, before.gram_res)


def _pairwise_gram_residual(frames, kind):
    """max |g(V_i, V_j) - G*_ij| of each frame, one pairing per (i, j)."""
    target = gram_targets(kind)
    return np.max([np.abs(pairing(frames[..., i, :], frames[..., j, :])
                          - target[i, j])
                   for i in range(4) for j in range(4)], axis=0)


@pytest.fixture(scope="module")
def suite_traces():
    # both families; psn-generic-1 has frames up to 9.3e4
    fixtures = {fx.label: fx for fx in default_suite()}
    return {label: integrate_frame(fixtures[label].profile)
            for label in ("pn-generic-0", "psn-quad-0", "psn-generic-1")}


@pytest.mark.parametrize("label", ["pn-generic-0", "psn-quad-0",
                                   "psn-generic-1"])
def test_gram_residual_matches_a_pairwise_computation(suite_traces, label):
    trace = suite_traces[label]
    frames, kind = trace.frames, trace.kind
    full = gram_residual(frames, kind)
    assert np.array_equal(full, trace.gram_res)
    round_trip = np.swapaxes(np.swapaxes(frames, -1, -2).copy(), -1, -2)
    assert not round_trip.flags.c_contiguous
    for picked, view in [(0, frames[0]), (slice(None, None, 3), frames[::3]),
                         (slice(None), round_trip)]:
        got = gram_residual(view, kind)
        # the memory layout of the stack must not change a single bit
        assert np.array_equal(got, full[picked])
        # roundoff of four products of entries up to |F|, no more
        scale = np.max(row_norm(view), axis=-1) ** 2
        want = _pairwise_gram_residual(view, kind)
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + scale))
    assert np.shape(gram_residual(frames[0], kind)) == ()
