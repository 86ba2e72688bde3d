"""Deterministic fixture families for the regression suite.

GENERATORS is the one home of the theorem families: each row turns free
parameters into curvature expressions whose members all share a known
verdict vector, and generate() builds a fixture from a row. The bundled
suite and `lcl sweep` both build their profiles through it.

Fifty profiles with known classifications, generated from a seeded RNG
with constants rounded to four decimals before being embedded in the
expression strings, so a given seed always produces byte-identical
fixtures. Expected verdicts are "Y", "N", or "oracle" ("oracle" means no
fixed expectation; the numerical verdict is recorded but never failed).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .frames import FrameKind
from .hyperbolic import h3_type2_form
from .profiles import CurvatureProfile, read_json_file, require_family_rules

DEFAULT_SEED = 20240817


class Fixture(NamedTuple):
    label: str
    profile: CurvatureProfile
    expected: dict  # k -> "Y" | "N" | "oracle"


ALL_YES = {0: "Y", 1: "Y", 2: "Y", 3: "Y"}
AFFINE_ONLY = {0: "N", 1: "Y", 2: "Y", 3: "N"}
GENERIC_PN = {0: "N", 1: "N", 2: "Y", 3: "N"}
QUADRATIC_PSN = {0: "N", 1: "Y", 2: "Y", 3: "oracle"}
EXPONENTIAL_PSN = {0: "N", 1: "N", 2: "Y", 3: "oracle"}
GENERIC_PSN = {0: "N", 1: "N", 2: "N", 3: "N"}


class Generator(NamedTuple):
    """A theorem family: curvatures(params, s_min) gives the expression
    of each curvature component for one member."""

    kind: FrameKind
    required: tuple     # parameter names
    optional: dict      # parameter name -> default
    expected: dict      # k -> "Y" | "N" | "oracle", for every member
    curvatures: Callable


def _pn_ratio(p, s_min) -> dict:
    kappa = f"{p['a']!r} + {p['b']!r}*s^2"
    return {"kappa": kappa, "tau": f"{p['ratio']!r}*({kappa})"}


def _psn_quadratic(p, s_min) -> dict:
    tau = str(p["tau"])
    return {"tau": tau,
            "sigma": f"({tau})*(-s^2/2 + {p['a']!r}*s + {p['b']!r})"}


def _h3_exponential(p, s_min) -> dict:
    tau, sigma = h3_type2_form(p["c"], p["lam"], p["mu"])
    return {"tau": tau, "sigma": sigma}


def _h3_type3(p, s_min) -> dict:
    c = p["c"]
    # the 2-type tau at c/2 has w = sqrt(-c), so it solves c v'' + v = 0
    v, _ = h3_type2_form(0.5 * c, p["lam"], p["mu"])
    tau = f"({v})/sqrt(1 - {c * c!r}*({v})^2)"
    return {"tau": tau, "sigma": f"{c!r}*({tau})"}


GENERATORS = {
    # tau/kappa constant: kappa and tau constant, or kappa = a + b s^2
    "pn-constant": Generator(
        FrameKind.PARTIALLY_NULL, ("kappa", "tau"), {}, ALL_YES,
        lambda p, s_min: {"kappa": f"{p['kappa']!r}",
                          "tau": f"{p['tau']!r}"}),
    "pn-ratio": Generator(
        FrameKind.PARTIALLY_NULL, ("a", "b", "ratio"), {}, ALL_YES,
        _pn_ratio),
    # tau/kappa = C (c0 + K), K the integral of kappa from s_min
    "pn-affine": Generator(
        FrameKind.PARTIALLY_NULL, ("kappa", "C", "c0"), {}, AFFINE_ONLY,
        lambda p, s_min: {"kappa": f"{p['kappa']!r}",
                          "tau": f"{p['kappa']!r}*{p['C']!r}*({p['c0']!r} "
                                 f"+ {p['kappa']!r}*(s - {s_min!r}))"}),
    # kappa = 1 + s^2, K = s + s^3/3 up to a constant c0 absorbs
    "pn-affine-poly": Generator(
        FrameKind.PARTIALLY_NULL, ("C", "c0"), {}, AFFINE_ONLY,
        lambda p, s_min: {"kappa": "1 + s^2",
                          "tau": f"(1 + s^2)*{p['C']!r}*({p['c0']!r} "
                                 "+ s + s^3/3)"}),
    # sigma/tau = -s^2/2 + a s + b
    "psn-quadratic": Generator(
        FrameKind.PSEUDO_NULL, ("a", "b"), {"tau": "1"}, QUADRATIC_PSN,
        _psn_quadratic),
    # sigma = c tau, tau = lam e^{s/w} + mu e^{-s/w}, w = sqrt(-2c)
    "h3-exponential": Generator(
        FrameKind.PSEUDO_NULL, ("c", "lam", "mu"), {}, EXPONENTIAL_PSN,
        _h3_exponential),
    # sigma = c tau, tau = v/sqrt(1 - c^2 v^2), v = lam e^{s/w} + mu e^{-s/w},
    # w = sqrt(-c): U = -c v T + sqrt(1 - c^2 v^2) B1 - c v' B2 is constant.
    # Not in default_suite; a domain where c^2 v^2 >= 1 fails evaluation.
    "h3-type3": Generator(
        FrameKind.PSEUDO_NULL, ("c", "lam", "mu"), {},
        {0: "N", 1: "N", 2: "N", 3: "Y"}, _h3_type3),
}


def generate(name: str, params: dict, domain, label: str = "",
             sigma_extra: str | None = None) -> Fixture:
    """The member of GENERATORS[name] at params on domain, with
    `sigma_extra` added to sigma (families whose gauge leaves sigma free)."""
    gen = GENERATORS[name]
    curvatures = gen.curvatures(dict(gen.optional, **params), domain[0])
    if sigma_extra:
        curvatures["sigma"] = f"({curvatures['sigma']}) + {sigma_extra}"
    profile = CurvatureProfile.create(kind=gen.kind, domain=domain,
                                      label=label, **curvatures)
    return Fixture(label, profile, gen.expected)


# fixed members of no family: (kappa, tau) with a drawn length, and
# (tau, sigma) with their domains
_PN_GENERIC = (("1", "exp(s)"), ("1 + s", "1"), ("2 + sin(s)", "1"),
               ("exp(-s)", "1"), ("1 + s^2", "2 + s"))
_PSN_GENERIC = (
    ("1", "exp(s)", 0.0, 2.0),
    ("2", "2*(s + 3)", 0.0, 2.0),
    ("1 + s^2", "0.7*(1 + s^2)", 0.0, 2.0),
    ("1", "2/(1 + s)", 0.0, 2.0),
    ("exp(s)", "exp(s)*(s + 1)", 0.0, 1.5),
    ("1", "-3", 0.0, 2.0),
    ("2 + sin(s)", "(2 + sin(s))*exp(-s)", 0.0, 2.0),
    ("1", "s^2 + 1", 0.0, 2.0),
    ("1/(1 + s)", "3/(1 + s)", 0.0, 2.0),
)
_PSN_QUADRATIC_TAUS = ("1", "2", "exp(s)", "1 + s^2", "2 + sin(s)",
                       "1/(1 + s)", "exp(-s/2)", "1.5")


def _fixed(prefix, kind, names, members, expected) -> list[Fixture]:
    """Fixtures from (component values..., s_min, s_max) members."""
    out = []
    for i, (*values, lo, hi) in enumerate(members):
        label = f"{prefix}-{i}"
        out.append(Fixture(label, CurvatureProfile.create(
            kind=kind, domain=(lo, hi), label=label,
            **dict(zip(names, values))), expected))
    return out


def default_suite(seed: int = DEFAULT_SEED) -> list[Fixture]:
    """The fifty-profile regression suite for run_theorem_suite."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return round(float(rng.uniform(lo, hi)), 4)

    def signed(lo, hi):
        return round(float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)), 4)

    fixtures = []

    def add(name, prefix, members):  # members: (params, domain) pairs
        fixtures.extend(generate(name, params, domain, f"{prefix}-{i}")
                        for i, (params, domain) in enumerate(members))

    add("pn-constant", "pn-const",
        [({"kappa": draw(0.5, 2.5), "tau": signed(0.3, 2.0)},
          (0.0, draw(1.0, 2.5))) for _ in range(5)])
    add("pn-ratio", "pn-ratio",
        [({"a": draw(0.5, 1.5), "b": draw(0.2, 1.0),
           "ratio": signed(0.4, 2.0)}, (0.0, 1.5)) for _ in range(5)])
    add("pn-affine", "pn-affine-k",
        [({"kappa": draw(0.6, 2.0), "C": signed(0.5, 2.0),
           "c0": draw(0.1, 0.6)}, (0.0, draw(0.8, 1.6))) for _ in range(5)])
    add("pn-affine-poly", "pn-affine-poly",
        [({"C": signed(0.5, 2.0), "c0": draw(0.1, 0.6)},
          (0.0, draw(0.8, 1.4))) for _ in range(5)])
    fixtures += _fixed("pn-generic", FrameKind.PARTIALLY_NULL,
                       ("kappa", "tau"),
                       [shape + (0.0, draw(1.0, 2.0))
                        for shape in _PN_GENERIC],
                       GENERIC_PN)
    add("psn-quadratic", "psn-quad",
        [({"a": (a := draw(-0.5, 0.5)), "b": round(-0.2 - 2.0 * abs(a), 4),
           "tau": tau}, (0.0, 2.0)) for tau in _PSN_QUADRATIC_TAUS])
    add("h3-exponential", "psn-h3exp",
        [({"c": draw(-2.5, -0.3), "lam": draw(0.3, 2.0),
           "mu": draw(0.0, 1.5)}, (0.0, 1.5)) for _ in range(8)])
    fixtures += _fixed("psn-generic", FrameKind.PSEUDO_NULL,
                       ("tau", "sigma"), _PSN_GENERIC, GENERIC_PSN)
    assert len(fixtures) == 50
    return fixtures


def fixtures_from_json(obj) -> list[Fixture]:
    """Parse a suite file: a JSON array of {profile, expected} objects.

    Expected verdicts are keyed "k0".."k3" with values "Y", "N", or
    "oracle"; omitted keys default to "oracle" (recorded, never failed),
    and any other key is a ProfileError naming the entry and the key.
    Each profile must meet its family rules on 1001 points of its
    domain; an entry that does not raises its input error with the
    entry's index and label in the message.
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
            require_family_rules(profile, *profile.evaluate_arrays(
                np.linspace(profile.s_min, profile.s_max, 1001)))
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
