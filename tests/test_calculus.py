"""Quadrature and differentiation helpers."""

import numpy as np
import pytest

from lcl import (antiderivative, cumulative_integral, grid_derivative,
                 make_cumulative, pointwise_derivative)
from lcl.errors import QuadratureError


def test_antiderivative_exact_on_smooth_integrands():
    assert antiderivative(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-13)
    assert antiderivative(np.exp, 0.0, 1.0) == pytest.approx(np.e - 1.0,
                                                             abs=1e-13)


def test_antiderivative_is_additive_over_subintervals():
    f = lambda s: np.exp(np.sin(3.0 * s))
    whole = antiderivative(f, 0.0, 2.0)
    split = antiderivative(f, 0.0, 0.7) + antiderivative(f, 0.7, 2.0)
    assert abs(whole - split) < 1e-12 * (1.0 + abs(whole))


def test_antiderivative_reverses_sign_with_orientation():
    f = lambda s: 1.0 + s**2
    assert antiderivative(f, 2.0, 0.0) == pytest.approx(
        -antiderivative(f, 0.0, 2.0), abs=1e-13)


def test_antiderivative_zero_width_interval():
    assert antiderivative(np.exp, 1.3, 1.3) == 0.0


def test_cumulative_integral_endpoint_and_monotone_grid():
    grid = np.linspace(0.0, 2.0, 101)
    cum = cumulative_integral(np.exp, grid)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    # positive integrand, so the cumulative values must increase
    assert np.all(np.diff(cum) > 0)


def test_make_cumulative_interpolant_matches_integral_between_nodes():
    grid = np.linspace(0.0, 2.0, 101)
    values, at = make_cumulative(np.exp, grid)
    assert values[-1] == pytest.approx(np.exp(2.0) - 1.0, abs=1e-12)
    for s in (0.013, 0.5, 1.0, 1.731):
        assert at(s) == pytest.approx(np.exp(s) - 1.0, abs=1e-9)


def test_derivative_orders_against_closed_forms():
    s = np.array([0.3])
    d1, d2, d3 = (pointwise_derivative(np.sin, s, order=k)[0]
                  for k in (1, 2, 3))
    assert d1 == pytest.approx(np.cos(0.3), abs=1e-12)
    assert d2 == pytest.approx(-np.sin(0.3), abs=1e-7)
    assert d3 == pytest.approx(-np.cos(0.3), abs=1e-4)


def test_derivative_respects_domain_clipping_at_edges():
    # one-sided evaluation at the right edge of a tight domain
    d = pointwise_derivative(lambda s: s**3, np.array([1.0]),
                             domain=(0.0, 1.0))[0]
    assert d == pytest.approx(3.0, abs=1e-9)
    d0 = pointwise_derivative(lambda s: s**3, np.array([0.0]),
                              domain=(0.0, 1.0))[0]
    assert d0 == pytest.approx(0.0, abs=1e-9)


def test_pointwise_derivative_rejects_bad_order():
    for order in (0, 4):
        with pytest.raises(ValueError, match="order must be 1, 2, or 3"):
            pointwise_derivative(np.sin, np.array([0.3]), order=order)


def test_pointwise_derivative_vectorizes_over_the_grid():
    grid = np.linspace(0.0, 1.0, 1001)
    out = pointwise_derivative(np.sin, grid, order=1, domain=(0.0, 1.0))
    assert out.shape == grid.shape
    assert np.max(np.abs(out - np.cos(grid))) < 1e-10


def test_pointwise_second_derivative():
    grid = np.linspace(0.0, 1.0, 201)
    out = pointwise_derivative(np.exp, grid, order=2, domain=(0.0, 1.0))
    assert np.max(np.abs(out - np.exp(grid))) < 1e-5


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


def test_grid_derivative_rejects_bad_step():
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(8), 0.0)
    with pytest.raises(ValueError):
        grid_derivative(np.zeros(3), 0.1)


def test_grid_derivative_rejects_bad_order():
    for order in (0, 4):
        with pytest.raises(ValueError, match="order must be 1, 2, or 3"):
            grid_derivative(np.zeros(8), 0.1, order=order)


def test_quadrature_error_on_non_finite_integrand():
    with pytest.raises(QuadratureError):
        antiderivative(lambda s: np.where(s > 0.5, np.nan, 1.0), 0.0, 1.0)
