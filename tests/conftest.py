"""Shared fixtures: a few traces are expensive enough to build once."""

import numpy as np
import pytest

from lcl import CurvatureProfile, integrate_frame
from lcl.suite import generate


@pytest.fixture(scope="session")
def circle_profile():
    return CurvatureProfile.create("partially_null", kappa="1", tau="1",
                                   domain=(0.0, 2.0 * np.pi),
                                   label="unit-circle")


@pytest.fixture(scope="session")
def circle_trace(circle_profile):
    return integrate_frame(circle_profile, h=1e-3)


@pytest.fixture(scope="session")
def affine_profile():
    # tau/kappa = 0.1 + s is affine in the curvature integral with slope 1
    return CurvatureProfile.create("partially_null", kappa="1", tau="0.1 + s",
                                   domain=(0.0, 1.0), label="affine")


@pytest.fixture(scope="session")
def affine_trace(affine_profile):
    return integrate_frame(affine_profile)


@pytest.fixture(scope="session")
def quad_psn_profile():
    # sigma/tau = -s^2/2 + 0.5 s, the quadratic shape with a = 0.5, b = 0
    return CurvatureProfile.create("pseudo_null", tau="2", sigma="-s^2 + s",
                                   domain=(0.0, 1.0), label="quad")


@pytest.fixture(scope="session")
def quad_psn_trace(quad_psn_profile):
    return integrate_frame(quad_psn_profile)


@pytest.fixture(scope="session")
def h3_profile():
    return generate("h3-exponential", {"c": -2.0, "lam": 1.0, "mu": 0.5},
                    (0.0, 1.5), "h3-exp").profile


@pytest.fixture(scope="session")
def h3_trace(h3_profile):
    return integrate_frame(h3_profile)
