"""Quadrature and differentiation helpers."""

import subprocess
import sys

import numpy as np
import pytest

from lcl import CurvatureProfile, grid_derivative, run_theorem_suite
from lcl.calculus import (_GL_ANTIDERIVATIVE, _GL_NODES, _GL_WEIGHTS,
                          _stencil_weights, gauss_nodes, grid_integrals,
                          node_integrals)


def test_cumulative_integral_endpoint_and_monotone_grid():
    grid = np.linspace(0.0, 2.0, 101)
    cum = grid_integrals(np.exp(gauss_nodes(grid)), grid)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    # positive integrand, so the cumulative values must increase
    assert np.all(np.diff(cum) > 0)


def test_stacked_integrands_integrate_like_separate_ones():
    # one call evaluates the shared factor once per Gauss node
    grid = np.linspace(0.0, 2.0, 1001)
    nodes = gauss_nodes(grid)
    e = np.exp(nodes)
    stacked = grid_integrals(np.stack([e * np.sin(nodes), e * np.cos(nodes)]),
                             grid)
    assert stacked.shape == (2, 1001)
    for row, f in zip(stacked, (lambda t: np.exp(t) * np.sin(t),
                                lambda t: np.exp(t) * np.cos(t))):
        alone = grid_integrals(f(nodes), grid)
        assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))


def test_node_integrals_match_the_integral_on_the_grid_and_at_the_nodes():
    grid = np.linspace(0.0, 2.0, 101)
    nodes = gauss_nodes(grid)
    values = grid_integrals(np.exp(nodes), grid)
    at_nodes = node_integrals(np.exp(nodes), grid, values)
    assert values[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    assert np.max(np.abs(values - (np.exp(grid) - 1.0))) <= 1e-9
    assert np.max(np.abs(at_nodes - (np.exp(nodes) - 1.0))) <= 1e-9


def test_node_integrals_are_exact_for_a_quartic_and_match_nested_gauss():
    # the interpolant through five nodes is the quartic itself; positive
    # coefficients and prim(0) = 0 keep the exact values free of cancellation
    grid = np.linspace(0.0, 2.0, 1001)
    nodes = gauss_nodes(grid)
    quartic = lambda s: 2.0 + s + 3.0 * s**2 + 0.5 * s**3 + s**4
    prim = lambda s: 2.0 * s + s**2 / 2 + s**3 + s**4 / 8 + s**5 / 5
    at_nodes = node_integrals(quartic(nodes), grid,
                              grid_integrals(quartic(nodes), grid))
    assert np.max(np.abs(at_nodes / prim(nodes) - 1.0)) <= 1e-14
    # nested reference: a 5-point Gauss segment from the cell's left end
    kappa = lambda s: 2.0 + np.sin(s)
    values = grid_integrals(kappa(nodes), grid)
    at_nodes = node_integrals(kappa(nodes), grid, values)
    a = np.broadcast_to(grid[:-1], nodes.shape)
    mid, half = 0.5 * (a + nodes), 0.5 * (nodes - a)
    seg = half * np.tensordot(
        _GL_WEIGHTS, kappa(mid + half * _GL_NODES[:, None, None]), axes=1)
    ref = values[:-1] + seg
    assert np.max(np.abs(at_nodes - ref) / np.abs(ref)) <= 1e-13


def test_cumulative_integral_is_node_integrals_of_the_node_values():
    # Samples.curvature_integrals: kappa and tau read once at the Gauss
    # nodes of the sample grid, and their integrals from those values
    p = CurvatureProfile.create("partially_null", kappa="2 + sin(s)",
                                tau="exp(s)", domain=(0.0, 2.0))
    smp = p.sample()
    nodes = gauss_nodes(smp.s)
    on_grid, at_nodes = smp.curvature_integrals
    assert np.array_equal(at_nodes, np.stack([np.sin(nodes) + 2.0,
                                              np.exp(nodes)]))
    assert np.array_equal(on_grid, grid_integrals(at_nodes, smp.s))
    assert on_grid[1, -1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)


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
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(3), 0.1)


def test_grid_derivative_rejects_bad_order():
    for order in (0, 3, 4):
        with pytest.raises(ValueError, match="order must be 1 or 2"):
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


def test_antiderivative_literal_integrates_the_lagrange_basis():
    q1 = np.arange(1.0, 6.0)  # powers t^q, q = 0..4, integrate to t^(q+1)
    ref = ((_GL_NODES[:, None] ** q1 - (-1.0) ** q1) / q1
           @ np.linalg.inv(_GL_NODES[:, None] ** (q1 - 1.0)))
    assert np.max(np.abs(_GL_ANTIDERIVATIVE - ref)) <= 1e-15


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
