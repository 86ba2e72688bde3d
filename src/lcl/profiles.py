"""Curvature profiles: the function triple (kappa, tau, sigma) on a domain.

A profile fixes the curve family and the curvature functions over an
arc-length interval [s_min, s_max]. Components are either expression
strings in s or sample tables, interpolated by the in-package monotone
cubic (PCHIP) of SampleTable; both are plain callables afterwards, so
every consumer treats them uniformly.

Family rules, enforced by require_family_rules on the samples a caller
reads: by integrate_frame on the curvatures of its half-step lattice,
the only values a classification reads, and by the suite loader on 1001
points of the domain, where it checks its input:

    partially null: kappa != 0 and tau != 0 on the domain
    pseudo null:    kappa identically 1 and tau != 0; a sigma that
                    vanishes somewhere only logs a warning

JSON form:

    {"kind": "partially_null" | "pseudo_null",
     "domain": [s_min, s_max],
     "kappa": "<expr>" | {"s": [...], "values": [...]},
     "tau": ..., "sigma": ..., "label": "..."}

The family's gauge component (frames.FrameFamily.gauge) may be omitted:
kappa defaults to "1" for pseudo null profiles and sigma to "0" for
partially null ones.
"""

from __future__ import annotations

import json
import logging
import numbers
from typing import NamedTuple, Union

import numpy as np

from .errors import ConfigError, OutOfDomainError, ProfileError
from .expr import Expr, number, parse_expression
from .frames import FrameKind, frame_family

log = logging.getLogger("lcl.profiles")

_ZERO_TOL = 1e-9


def is_number(value) -> bool:
    """True for a real number, a numpy scalar included, and False for a
    bool (JSON true/false) or a numeric string, which float() would take."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_float(value, what: str) -> float:
    """float(value), and a ProfileError naming `what` where a JSON integer
    is too large for a float: float() raises OverflowError past about
    1.8e308."""
    try:
        return float(value)
    except OverflowError:
        raise ProfileError(f"{what} is too large for a float") from None


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, limited to keep the end shape."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class SampleTable:
    """Monotone cubic (PCHIP) interpolant of (s, value) samples.

    Fritsch-Carlson slopes with the same rules as scipy's
    PchipInterpolator: interior slopes are the weighted harmonic mean of
    the neighbouring secants, or 0 where those change sign or one is 0;
    end slopes use the three-point shape-preserving formula; two samples
    give a line. Monotone interpolation keeps the sign behavior of the
    samples, so a strictly positive table cannot acquire spurious zero
    crossings. Points outside the table follow the end cubics. s and
    values are int or float arrays, or lists of numbers (is_number).
    """

    def __init__(self, s, values):
        arrays = []
        for entries in (s, values):
            if isinstance(entries, np.ndarray) and entries.dtype.kind in "fiu":
                arrays.append(np.asarray(entries, dtype=float))
            elif (isinstance(entries, (list, tuple))
                  and all(map(is_number, entries))):
                arrays.append(np.array([as_float(x, "sample table entry")
                                        for x in entries], dtype=float))
            else:
                raise ProfileError("sample table entries must be numbers")
        s, values = arrays
        if s.ndim != 1 or s.shape != values.shape:
            raise ProfileError("sample table needs matching 1-d s and values")
        if s.shape[0] < 2:
            raise ProfileError("sample table needs at least two samples")
        if not np.all(np.diff(s) > 0):
            raise ProfileError("sample table s values must strictly increase")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(values))):
            raise ProfileError("sample table entries must be finite")
        self.s = s
        self.values = values
        h = np.diff(s)
        m = np.diff(values) / h
        d = np.empty_like(values)
        if m.shape[0] == 1:
            d[:] = m[0]
        else:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                    | (m[1:] == 0) | (m[:-1] == 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        # Cubic on [s_i, s_i+1] in t = x - s_i: ((c3 t + c2) t + d_i) t + y_i.
        c3 = (d[:-1] + d[1:] - 2.0 * m) / h
        self._c2 = (m - d[:-1]) / h - c3
        self._c3 = c3 / h
        self._d = d[:-1]

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.s, xs, side="right") - 1,
                    0, self.s.shape[0] - 2)
        t = xs - self.s[i]
        out = ((self._c3[i] * t + self._c2[i]) * t + self._d[i]) * t + self.values[i]
        return float(out) if np.ndim(x) == 0 else out

    def to_jsonable(self):
        return {"s": self.s.tolist(), "values": self.values.tolist()}


Component = Union[Expr, SampleTable]


def _as_component(value, default: str | None = None) -> Component:
    if value is None:
        if default is None:
            raise ProfileError("missing curvature component")
        return parse_expression(default)
    if isinstance(value, (Expr, SampleTable)):
        return value
    if isinstance(value, str):
        return parse_expression(value)
    if is_number(value):
        return number(as_float(value, "curvature component"))
    if isinstance(value, dict):
        try:
            return SampleTable(value["s"], value["values"])
        except KeyError as exc:
            raise ProfileError(f"sample table missing key {exc}") from None
    raise ProfileError(f"cannot interpret curvature component {value!r}")


def _component_jsonable(c: Component):
    return c.to_jsonable() if isinstance(c, SampleTable) else str(c)


class CurvatureProfile(NamedTuple):
    kind: FrameKind
    kappa: Component
    tau: Component
    sigma: Component
    s_min: float
    s_max: float
    label: str = ""

    @classmethod
    def create(cls, kind, kappa=None, tau=None, sigma=None,
               domain=(0.0, 1.0), label="") -> "CurvatureProfile":
        kind = FrameKind(kind) if not isinstance(kind, FrameKind) else kind
        try:
            s_min = as_float(domain[0], "domain endpoint")
            s_max = as_float(domain[1], "domain endpoint")
        except (TypeError, ValueError) as exc:
            raise ProfileError(f"bad domain {domain!r}: {exc}") from None
        if not (np.isfinite(s_min) and np.isfinite(s_max)) or s_min >= s_max:
            raise ProfileError(f"bad domain [{s_min}, {s_max}]")
        defaults = dict([frame_family(kind).gauge])  # {component: expr}
        return cls(kind=kind,
                   kappa=_as_component(kappa, defaults.get("kappa")),
                   tau=_as_component(tau),
                   sigma=_as_component(sigma, defaults.get("sigma")),
                   s_min=s_min, s_max=s_max, label=label)

    @property
    def span(self) -> float:
        return self.s_max - self.s_min

    def _check_domain(self, s):
        slack = 1e-12 * (1.0 + self.span)
        s = np.asarray(s, dtype=float)
        if np.any(s < self.s_min - slack) or np.any(s > self.s_max + slack):
            bad = s[(s < self.s_min - slack) | (s > self.s_max + slack)]
            first = bad.ravel()[0] if bad.ndim else float(bad)
            raise OutOfDomainError(
                f"s = {first} outside domain [{self.s_min}, {self.s_max}]")

    def evaluate_arrays(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        self._check_domain(s)
        s = np.asarray(s, dtype=float)
        return (np.broadcast_to(np.asarray(self.kappa(s)), s.shape),
                np.broadcast_to(np.asarray(self.tau(s)), s.shape),
                np.broadcast_to(np.asarray(self.sigma(s)), s.shape))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "domain": [self.s_min, self.s_max],
            "kappa": _component_jsonable(self.kappa),
            "tau": _component_jsonable(self.tau),
            "sigma": _component_jsonable(self.sigma),
            "label": self.label,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CurvatureProfile":
        if not isinstance(obj, dict):
            raise ProfileError(f"profile JSON must be an object, got {type(obj)}")
        try:
            kind = FrameKind(obj["kind"])
            domain = obj["domain"]
        except (KeyError, ValueError) as exc:
            raise ProfileError(f"bad profile JSON: {exc}") from None
        if not (isinstance(domain, (list, tuple)) and len(domain) == 2
                and all(map(is_number, domain))):
            raise ProfileError(f"bad profile domain {domain!r}")
        label = obj.get("label")
        if label is None:
            label = ""
        elif not isinstance(label, str):
            raise ProfileError(f"profile label must be a string, got {label!r}")
        return cls.create(kind,
                          kappa=obj.get("kappa"),
                          tau=obj.get("tau"),
                          sigma=obj.get("sigma"),
                          domain=domain,
                          label=label)


def read_json_file(path):
    """The JSON document in the file at `path`. ConfigError, naming the
    path, when the file is not UTF-8 text or not JSON (an integer literal
    past Python's 4300-digit limit included); OSError as open raises it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            raise ConfigError(f"{path}: {exc}") from exc


def load_profile(path) -> CurvatureProfile:
    return CurvatureProfile.from_json_dict(read_json_file(path))


def require_family_rules(p: CurvatureProfile, kappa: np.ndarray,
                         tau: np.ndarray, sigma: np.ndarray) -> None:
    """ProfileError unless the family rules hold on these samples of p: a
    pseudo null kappa stays within 1e-9 of 1, and tau and a partially null
    kappa neither vanish nor change sign. A pseudo null sigma that
    vanishes only logs a warning, since no check divides by sigma and
    useful reference profiles (the quadratic sigma/tau family on a wide
    interval) cross zero."""
    suffix = f" (profile {p.label!r})" if p.label else ""
    if p.kind is FrameKind.PARTIALLY_NULL:
        checked = (("kappa", kappa, True), ("tau", tau, True))
    elif kappa.max() - 1.0 <= _ZERO_TOL and 1.0 - kappa.min() <= _ZERO_TOL:
        checked = (("tau", tau, True), ("sigma", sigma, False))
    else:
        raise ProfileError("pseudo null profile requires kappa = 1, max "
                           f"deviation {np.max(np.abs(kappa - 1.0)):.3g}{suffix}")
    for name, values, required in checked:
        # |values| has the extremes of values, or of -values when they are
        # one-signed; only both signs or a NaN needs the copy
        lo, hi = values.min(), values.max()
        if lo >= 0.0:
            small, large = lo, hi
        elif hi <= 0.0:
            small, large = -hi, -lo
        else:
            size = np.abs(values)
            small, large = size.min(), size.max()
        if small < _ZERO_TOL * (1.0 + large):
            if required:
                raise ProfileError(f"{name} vanishes on the domain{suffix}")
            log.warning("%s vanishes somewhere on the domain%s", name, suffix)
        # no value is near 0, so both signs mean neighbours of opposite sign
        elif required and lo < 0.0 < hi:
            raise ProfileError(f"{name} changes sign on the domain{suffix}")
