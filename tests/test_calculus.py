"""Quadrature and differentiation helpers."""

import subprocess
import sys

import numpy as np
import pytest

from lcl import (cumulative_integral, grid_derivative, make_cumulative,
                 run_theorem_suite)
from lcl.calculus import _GL_NODES, _GL_WEIGHTS, _stencil_weights


def test_cumulative_integral_endpoint_and_monotone_grid():
    grid = np.linspace(0.0, 2.0, 101)
    cum = cumulative_integral(np.exp, grid)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    # positive integrand, so the cumulative values must increase
    assert np.all(np.diff(cum) > 0)


def test_stacked_integrands_integrate_like_separate_ones():
    # one call evaluates the shared factor once per Gauss node
    grid = np.linspace(0.0, 2.0, 1001)

    def pair(t):
        e = np.exp(t)
        return np.stack([e * np.sin(t), e * np.cos(t)])

    stacked = cumulative_integral(pair, grid)
    assert stacked.shape == (2, 1001)
    for row, f in zip(stacked, (lambda t: np.exp(t) * np.sin(t),
                                lambda t: np.exp(t) * np.cos(t))):
        alone = cumulative_integral(f, grid)
        assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))


def test_make_cumulative_interpolant_matches_integral_between_nodes():
    grid = np.linspace(0.0, 2.0, 101)
    values, at = make_cumulative(np.exp, grid)
    assert values[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    for s in (0.013, 0.5, 1.0, 1.731):
        assert at(s) == pytest.approx(np.exp(s) - 1.0, abs=1e-9)


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


def test_grid_third_derivative_of_a_quartic_on_every_row():
    # five points fit a quartic exactly, so every stencil, the shifted ones
    # on the two edge rows at each end included, is exact up to roundoff
    grid = np.linspace(-1.0, 1.0, 41)
    h = grid[1] - grid[0]
    d3 = grid_derivative(grid**4 - 2.0 * grid**3 + grid, h, order=3)
    assert np.max(np.abs(d3 - (24.0 * grid - 12.0))) < 1e-9


@pytest.mark.parametrize("shape", [(41,), (1001,), (1001, 4), (57, 4, 4)])
@pytest.mark.parametrize("order", [1, 2, 3])
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
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(3), 0.1)


def test_grid_derivative_rejects_bad_order():
    for order in (0, 4):
        with pytest.raises(ValueError, match="order must be 1, 2, or 3"):
            grid_derivative(np.zeros(8), 0.1, order=order)


def test_each_stencil_is_solved_once_over_the_suite():
    _stencil_weights.cache_clear()
    run_theorem_suite()
    # three orders times the five shifts -2..2 bound the distinct stencils
    assert _stencil_weights.cache_info().misses <= 15
    powers = np.arange(5)[:, None]
    for order in (1, 2, 3):
        for shift in range(-2, 3):
            offsets = np.arange(-2.0, 3.0) + shift
            rhs = np.zeros(5)
            rhs[order] = np.prod(np.arange(1.0, order + 1))
            fresh = np.linalg.solve(offsets[None, :] ** powers, rhs)
            assert np.array_equal(_stencil_weights(order, shift), fresh)


def test_gauss_rule_literals_are_leggauss_to_the_last_bit():
    nodes, weights = np.polynomial.legendre.leggauss(5)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    script = ("import sys, lcl.cli; "
              "print(sorted(m for m in sys.modules "
              "if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
