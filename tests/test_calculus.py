"""Quadrature and differentiation helpers."""

import subprocess
import sys

import numpy as np
import pytest

from lcl import (CurvatureProfile, grid_derivative, integrate_frame,
                 run_theorem_suite)
from lcl.calculus import _stencil_weights, lattice_integral


def test_cumulative_integral_endpoint_and_monotone_grid():
    lattice = np.linspace(0.0, 2.0, 2001)
    cum = lattice_integral(np.exp(lattice), 0.002)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    # positive integrand, so the cumulative values must increase
    assert np.all(np.diff(cum) > 0)


def test_stacked_integrands_integrate_like_separate_ones():
    # one call integrates every row of a stack, as pn_type2_axis does
    lattice = np.linspace(0.0, 2.0, 2001)
    e = np.exp(lattice)
    stacked = lattice_integral(
        np.stack([e * np.sin(lattice), e * np.cos(lattice)]), 0.002)
    assert stacked.shape == (2, 2001)
    for row, f in zip(stacked, (lambda t: np.exp(t) * np.sin(t),
                                lambda t: np.exp(t) * np.cos(t))):
        alone = lattice_integral(f(lattice), 0.002)
        assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))


def test_lattice_integral_matches_the_integral_at_steps_and_midpoints():
    lattice = np.linspace(0.0, 2.0, 201)
    values = lattice_integral(np.exp(lattice), 0.02)
    assert np.max(np.abs(values - (np.exp(lattice) - 1.0))) <= 1e-8
    # Simpson's rule is exact for a cubic at the steps, and the half-cell
    # rule for a quadratic at the midpoints; positive coefficients and
    # prim(0) = 0 keep the exact values free of cancellation
    lattice = np.linspace(0.0, 2.0, 2001)
    cubic = lambda s: 2.0 + s + 3.0 * s**2 + 0.5 * s**3
    prim = lambda s: 2.0 * s + s**2 / 2 + s**3 + s**4 / 8
    steps = lattice_integral(cubic(lattice), 0.002)[2::2]
    assert np.max(np.abs(steps / prim(lattice[2::2]) - 1.0)) <= 1e-14
    quadratic = lambda s: 2.0 + s + 3.0 * s**2
    prim = lambda s: 2.0 * s + s**2 / 2 + s**3
    mids = lattice_integral(quadratic(lattice), 0.002)[1::2]
    assert np.max(np.abs(mids / prim(lattice[1::2]) - 1.0)) <= 1e-14


def test_curvature_integrals_are_lattice_integrals_of_the_lattice_values():
    # CurveTrace.curvature_integrals: kappa and tau as the integration
    # evaluated them on its half-step lattice, and their integrals there
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="exp(s)", domain=(0.0, 2.0))
    tr = integrate_frame(p)
    lattice = np.linspace(0.0, 2.0, 2 * tr.n - 1)
    kappa, tau, _ = tr.lattice
    assert np.array_equal(kappa, np.sin(lattice) + 2.0)
    assert np.array_equal(tau, np.exp(lattice))
    assert np.array_equal(tr.kappa, kappa[::2])
    assert np.array_equal(tr.curvature_integrals,
                          lattice_integral([kappa, tau], tr.h))
    assert tr.curvature_integrals[1, -1] == pytest.approx(np.exp(2.0) - 1.0,
                                                          abs=1e-12)


def test_grid_derivative_first_and_second_order():
    grid = np.linspace(0.0, 1.0, 1001)
    h = grid[1] - grid[0]
    d1 = grid_derivative(np.sin(grid), h)
    assert np.max(np.abs(d1 - np.cos(grid))) < 1e-10
    d2 = grid_derivative(np.sin(grid), h, order=2)
    assert np.max(np.abs(d2 + np.sin(grid))) < 1e-7


def test_grid_derivative_is_exact_on_low_degree_polynomials():
    grid = np.linspace(-1.0, 1.0, 41)
    h = grid[1] - grid[0]
    vals = 2.0 * grid**2 - 3.0 * grid + 1.0
    d1 = grid_derivative(vals, h)
    assert np.max(np.abs(d1 - (4.0 * grid - 3.0))) < 1e-12
    d2 = grid_derivative(vals, h, order=2)
    assert np.max(np.abs(d2 - 4.0)) < 1e-11


@pytest.mark.parametrize("shape", [(41,), (1001,), (1001, 4), (57, 4, 4)])
@pytest.mark.parametrize("order", [1, 2])
def test_grid_derivative_edge_rows_are_bit_identical_to_tensordot(shape,
                                                                   order):
    rng = np.random.default_rng([order, *shape])
    n = shape[0]
    for _ in range(25):
        vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
        h = float(rng.uniform(1e-3, 1.0))
        got = grid_derivative(vals, h, order=order)
        ref = np.zeros_like(vals)
        for j, w in enumerate(_stencil_weights(order, 0)):
            ref[2:n - 2] += w * vals[j:n - 4 + j]
        for i, shift in ((0, 2), (1, 1), (n - 2, -1), (n - 1, -2)):
            lo = i + shift - 2
            ref[i] = np.tensordot(_stencil_weights(order, shift),
                                  vals[lo:lo + 5], axes=(0, 0))
        assert np.array_equal(got, ref / h**order)


def test_grid_derivative_rejects_bad_step():
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(8), 0.0)
    for step in ("a", True, np.bool_(True), None, np.array([0.1, 0.1]),
                 -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="grid step must be positive"):
            grid_derivative(np.zeros(8), step)
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(3), 0.1)


def test_grid_derivative_rejects_bad_order():
    for order in (0, 3, 4):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
            grid_derivative(np.zeros(8), 0.1, order=order)


def test_each_stencil_is_solved_once_over_the_suite():
    _stencil_weights.cache_clear()
    run_theorem_suite()
    # two orders times the five shifts -2..2 bound the distinct stencils
    assert _stencil_weights.cache_info().misses <= 10
    powers = np.arange(5)[:, None]
    for order in (1, 2):
        for shift in range(-2, 3):
            offsets = np.arange(-2.0, 3.0) + shift
            rhs = np.zeros(5)
            rhs[order] = np.prod(np.arange(1.0, order + 1))
            fresh = np.linalg.solve(offsets[None, :] ** powers, rhs)
            assert np.array_equal(_stencil_weights(order, shift), fresh)


@pytest.mark.parametrize("module", ["numpy.polynomial", "dataclasses"])
def test_importing_the_cli_does_not_load(module):
    # numpy imports neither, so each would be lcl's own import cost
    script = ("import sys, lcl.cli; "
              "print(sorted(m for m in sys.modules "
              f"if m == {module!r} or m.startswith({module + '.'!r})))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
