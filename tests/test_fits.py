"""The one least-squares kernel every check and the sphere fit solve with."""

import warnings

import numpy as np

from lcl.fits import linear_fit


def test_a_full_rank_fit_recovers_its_coefficients():
    x = np.linspace(-1.0, 2.0, 41)
    a = np.column_stack([np.ones_like(x), x, np.exp(x)])
    b = a @ [0.5, -3.0, 1e-3] + 1e-4 * np.cos(7.0 * x)
    coef, dev, ratio = linear_fit(a, b)
    assert isinstance(coef, list) and all(type(v) is float for v in coef)
    assert np.array_equal(dev, b - a @ np.array(coef))
    assert np.allclose(coef, np.linalg.lstsq(a, b, rcond=None)[0],
                       rtol=1e-9, atol=1e-12)
    assert 1e-6 < ratio <= 1.0
    exact, dev, _ = linear_fit(a, a @ [0.5, -3.0, 1e-3])
    assert np.allclose(exact, [0.5, -3.0, 1e-3], rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(dev)) < 1e-14


def test_a_duplicated_column_gets_the_minimum_norm_fit():
    x = np.linspace(0.0, 1.0, 21)
    a = np.column_stack([x, x, np.ones_like(x)])
    coef, dev, ratio = linear_fit(a, 2.0 * x + 1.0)
    assert ratio < 1e-12
    # the weight 2 on x splits evenly between the two equal columns
    assert np.allclose(coef, [1.0, 1.0, 1.0], rtol=1e-12)
    assert np.max(np.abs(dev)) < 1e-14


def test_an_all_zero_column_reads_zero_without_a_warning():
    x = np.linspace(0.0, 1.0, 11)
    a = np.column_stack([np.ones_like(x), np.zeros_like(x)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef, dev, ratio = linear_fit(a, 3.0 + x)
    assert coef[1] == 0.0 and ratio == 0.0
    assert abs(coef[0] - 3.5) < 1e-14
    assert np.array_equal(dev, 3.0 + x - a @ np.array(coef))


def test_a_ones_column_gives_the_mean_and_the_spread():
    rng = np.random.default_rng(7)
    values = 0.25 + 1e-3 * rng.standard_normal(1001)
    (mean,), dev, ratio = linear_fit(np.ones((values.size, 1)), values)
    assert ratio == 1.0
    assert abs(mean - np.mean(values)) <= 4 * np.spacing(0.25)
    assert abs(np.ptp(dev) - np.ptp(values)) <= 4 * np.spacing(np.ptp(values))
