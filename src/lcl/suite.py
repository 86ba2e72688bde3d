"""Deterministic fixture families for the regression suite.

Fifty profiles with known classifications, generated from a seeded RNG
with constants rounded to four decimals before being embedded in the
expression strings, so a given seed always produces byte-identical
fixtures. Expected verdicts are "Y", "N", or "oracle" ("oracle" means no
fixed expectation; the numerical verdict is recorded but never failed).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .frames import FrameKind
from .hyperbolic import make_h3_type2_profile
from .profiles import CurvatureProfile, read_json_file

DEFAULT_SEED = 20240817


class Fixture(NamedTuple):
    label: str
    profile: CurvatureProfile
    expected: dict  # k -> "Y" | "N" | "oracle"


def _r(x: float) -> float:
    return round(float(x), 4)


def _pn(label, kappa, tau, s_min, s_max, expected) -> Fixture:
    p = CurvatureProfile.create(kind=FrameKind.PARTIALLY_NULL, kappa=kappa,
                                tau=tau, domain=(s_min, s_max), label=label)
    return Fixture(label, p, expected)


def _psn(label, tau, sigma, s_min, s_max, expected) -> Fixture:
    p = CurvatureProfile.create(kind=FrameKind.PSEUDO_NULL, tau=tau,
                                sigma=sigma, domain=(s_min, s_max),
                                label=label)
    return Fixture(label, p, expected)


ALL_YES = {0: "Y", 1: "Y", 2: "Y", 3: "Y"}
AFFINE_ONLY = {0: "N", 1: "Y", 2: "Y", 3: "N"}
GENERIC_PN = {0: "N", 1: "N", 2: "Y", 3: "N"}
QUADRATIC_PSN = {0: "N", 1: "Y", 2: "Y", 3: "oracle"}
EXPONENTIAL_PSN = {0: "N", 1: "N", 2: "Y", 3: "oracle"}
GENERIC_PSN = {0: "N", 1: "N", 2: "N", 3: "oracle"}


def _pn_constant_pairs(rng) -> list[Fixture]:
    out = []
    for i in range(5):
        kappa = _r(rng.uniform(0.5, 2.5))
        tau = _r(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        length = _r(rng.uniform(1.0, 2.5))
        out.append(_pn(f"pn-const-{i}", f"{kappa}", f"{tau}", 0.0, length,
                       ALL_YES))
    return out


def _pn_constant_ratio(rng) -> list[Fixture]:
    out = []
    for i in range(5):
        a = _r(rng.uniform(0.5, 1.5))
        b = _r(rng.uniform(0.2, 1.0))
        ratio = _r(rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.0))
        kappa = f"{a} + {b}*s^2"
        out.append(_pn(f"pn-ratio-{i}", kappa, f"{ratio}*({kappa})",
                       0.0, 1.5, ALL_YES))
    return out


def _pn_affine_constant_kappa(rng) -> list[Fixture]:
    # tau/kappa = C (c0 + K) with K = kappa * s on [0, L]
    out = []
    for i in range(5):
        kappa = _r(rng.uniform(0.6, 2.0))
        c_lin = _r(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        c0 = _r(rng.uniform(0.1, 0.6))
        length = _r(rng.uniform(0.8, 1.6))
        tau = f"{kappa}*{c_lin}*({c0} + {kappa}*s)"
        out.append(_pn(f"pn-affine-k-{i}", f"{kappa}", tau, 0.0, length,
                       AFFINE_ONLY))
    return out


def _pn_affine_poly_kappa(rng) -> list[Fixture]:
    # kappa = 1 + s^2, K = s + s^3/3 on [0, L]
    out = []
    for i in range(5):
        c_lin = _r(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        c0 = _r(rng.uniform(0.1, 0.6))
        length = _r(rng.uniform(0.8, 1.4))
        tau = f"(1 + s^2)*{c_lin}*({c0} + s + s^3/3)"
        out.append(_pn(f"pn-affine-poly-{i}", "1 + s^2", tau, 0.0, length,
                       AFFINE_ONLY))
    return out


def _pn_generic(rng) -> list[Fixture]:
    shapes = [
        ("1", "exp(s)"),
        ("1 + s", "1"),
        ("2 + sin(s)", "1"),
        ("exp(-s)", "1"),
        ("1 + s^2", "2 + s"),
    ]
    out = []
    for i, (kappa, tau) in enumerate(shapes):
        length = _r(rng.uniform(1.0, 2.0))
        out.append(_pn(f"pn-generic-{i}", kappa, tau, 0.0, length,
                       GENERIC_PN))
    return out


def _psn_quadratic(rng) -> list[Fixture]:
    taus = ["1", "2", "exp(s)", "1 + s^2", "2 + sin(s)", "1/(1 + s)",
            "exp(-s/2)", "1.5"]
    out = []
    for i, tau in enumerate(taus):
        a = _r(rng.uniform(-0.5, 0.5))
        b = _r(-0.2 - 2.0 * abs(a))
        sigma = f"({tau})*(-s^2/2 + {a}*s + {b})"
        out.append(_psn(f"psn-quad-{i}", tau, sigma, 0.0, 2.0,
                        QUADRATIC_PSN))
    return out


def _psn_exponential(rng) -> list[Fixture]:
    out = []
    for i in range(8):
        c = _r(rng.uniform(-2.5, -0.3))
        lam = _r(rng.uniform(0.3, 2.0))
        mu = _r(rng.uniform(0.0, 1.5))
        p = make_h3_type2_profile(c, lam, mu, (0.0, 1.5),
                                  label=f"psn-h3exp-{i}")
        out.append(Fixture(p.label, p, EXPONENTIAL_PSN))
    return out


def _psn_generic(rng) -> list[Fixture]:
    shapes = [
        ("1", "exp(s)", 0.0, 2.0),
        ("2", "2*(s + 3)", 0.0, 2.0),
        ("1 + s^2", "0.7*(1 + s^2)", 0.0, 2.0),
        ("1", "2/(1 + s)", 0.0, 2.0),
        ("exp(s)", "exp(s)*(s + 1)", 0.0, 1.5),
        ("1", "-3", 0.0, 2.0),
        ("2 + sin(s)", "(2 + sin(s))*exp(-s)", 0.0, 2.0),
        ("1", "s^2 + 1", 0.0, 2.0),
        ("1/(1 + s)", "3/(1 + s)", 0.0, 2.0),
    ]
    return [_psn(f"psn-generic-{i}", tau, sigma, lo, hi, GENERIC_PSN)
            for i, (tau, sigma, lo, hi) in enumerate(shapes)]


def default_suite(seed: int = DEFAULT_SEED) -> list[Fixture]:
    """The fifty-profile regression suite for run_theorem_suite."""
    rng = np.random.default_rng(seed)
    fixtures = []
    fixtures += _pn_constant_pairs(rng)
    fixtures += _pn_constant_ratio(rng)
    fixtures += _pn_affine_constant_kappa(rng)
    fixtures += _pn_affine_poly_kappa(rng)
    fixtures += _pn_generic(rng)
    fixtures += _psn_quadratic(rng)
    fixtures += _psn_exponential(rng)
    fixtures += _psn_generic(rng)
    assert len(fixtures) == 50
    return fixtures


def fixtures_from_json(obj) -> list[Fixture]:
    """Parse a suite file: a JSON array of {profile, expected} objects.

    Expected verdicts are keyed "k0".."k3" with values "Y", "N", or
    "oracle"; omitted keys default to "oracle" (recorded, never failed),
    and any other key is a ProfileError naming the entry and the key.
    Each profile must pass validate(); an entry that does not raises its
    input error with the entry's index and label in the message.
    """
    from .errors import LclError, ProfileError

    if not isinstance(obj, list):
        raise ProfileError("suite file must be a JSON array of fixtures")
    fixtures = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "profile" not in entry:
            raise ProfileError(f"suite entry {i} needs a profile object")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise ProfileError(f"suite entry {i}: label must be a string, "
                               f"got {label!r}")
        try:
            profile = CurvatureProfile.from_json_dict(entry["profile"])
            profile.validate()
        except LclError as exc:
            named = f"suite entry {i}" + (f" ({label!r})" if label else "")
            exc.args = (f"{named}: {exc}",)
            raise
        given = entry.get("expected", {})
        if not isinstance(given, dict):
            raise ProfileError(f"suite entry {i}: expected must be an object "
                               f"keyed k0..k3, got {given!r}")
        expected = dict.fromkeys(range(4), "oracle")
        for key, raw in given.items():
            if key not in ("k0", "k1", "k2", "k3"):
                raise ProfileError(f"suite entry {i}: unknown expected key "
                                   f"{key!r}, not one of k0..k3")
            if raw not in ("Y", "N", "oracle"):
                raise ProfileError(
                    f"suite entry {i}: expected {key} must be Y, N, or "
                    f"oracle, got {raw!r}")
            expected[int(key[1])] = raw
        label = label or profile.label or f"fixture-{i}"
        fixtures.append(Fixture(label, profile, expected))
    return fixtures


def load_suite(path) -> list[Fixture]:
    return fixtures_from_json(read_json_file(path))
