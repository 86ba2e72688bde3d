"""Span recorder that rebinds lcl's public functions from outside the package.

Each traced function is replaced at the module attribute its caller looks
it up through (``lcl.classifier.nullspace_min_singular`` is the name
``oracle_detect`` calls, ``lcl.verifier.classify_profile`` the one the
suite runner calls), so no file under ``src/`` changes. A span records
its name, start, end, parent span and op id; spans stay in memory and
are written once, when the run ends.

Self time is a span's duration minus the durations of its children.
Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Span names that are summed into one group metric.
CHECKS = ("pn_type0_check", "pn_type1_check", "pn_type3_check",
          "psn_type0_check", "psn_type1_check", "psn_type2_check",
          "psn_type3_check")
AXES = ("pn_type0_axes", "pn_type1_axis", "pn_type2_axis",
        "psn_type1_axis", "psn_type2_axis")
GROUPS = {
    "classifier.checks": tuple(f"classifier.{n}" for n in CHECKS),
    "classifier.axes": tuple(f"classifier.{n}" for n in AXES),
}

# (module, attribute, span name): the names the workloads' call paths
# look functions up through. One function can be bound under several
# names; every call goes through exactly one of them.
BINDINGS = [
    ("lcl.suite", "default_suite", "suite.default_suite"),
    ("lcl.profiles", "parse_expression", "expr.parse_expression"),
    ("lcl.cli", "load_profile", "profiles.load_profile"),
    ("lcl.profiles.CurvatureProfile", "evaluate_arrays",
     "profiles.evaluate_arrays"),
    ("lcl.integrator", "integrate_frame", "integrator.integrate_frame"),
    ("lcl.classifier", "integrate_frame", "integrator.integrate_frame"),
    ("lcl.integrator", "write_trace_csv", "integrator.write_trace_csv"),
    ("lcl.verifier", "classify_profile", "classifier.classify_profile"),
    ("lcl.cli", "classify_profile", "classifier.classify_profile"),
    ("lcl.classifier", "oracle_detect", "classifier.oracle_detect"),
    ("lcl.classifier", "nullspace_min_singular",
     "minkowski.nullspace_min_singular"),
    *[("lcl.classifier", n, f"classifier.{n}") for n in CHECKS + AXES],
    ("lcl.classifier", "validate_axis", "axis.validate_axis"),
    ("lcl.hyperbolic", "pseudohyperbolic_block",
     "hyperbolic.pseudohyperbolic_block"),
    ("lcl.hyperbolic", "fit_pseudohyperbolic",
     "hyperbolic.fit_pseudohyperbolic"),
]


def _shape0(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


# Counters taken at the same boundary as the span: (args, result) -> amount.
COUNTERS = {
    "minkowski.nullspace_min_singular": (
        "rows", lambda args, result: _shape0(args[0])),
    "integrator.integrate_frame": (
        "steps", lambda args, result: result.n - 1),
    "integrator.write_trace_csv": (
        "bytes", lambda args, result: os.path.getsize(args[1])),
    "profiles.evaluate_arrays": (
        "points", lambda args, result: _size(args[1])),
    "axis.validate_axis": (
        "passed", lambda args, result: int(bool(result.passed))),
    "hyperbolic.fit_pseudohyperbolic": (
        "iterations", lambda args, result: int(result.iterations)),
}


def _resolve(path: str):
    """An already imported module, or a class in one; None if absent."""
    if path in sys.modules:
        return sys.modules[path]
    module, _, attr = path.rpartition(".")
    return getattr(sys.modules.get(module), attr, None)


class Tracer:
    """In-memory spans plus counters, keyed by span name."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, op]
        self.counts = {}     # "span.counter" -> total
        self.op = -1
        self.enabled = True   # off while the benchmark checks outputs
        self._stack = []
        self._saved = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span recorded from the benchmark side."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](
                    args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function that exists in this lcl version.

        Nothing is imported here: a binding whose module is not loaded,
        or whose attribute is gone, is skipped, so a refactor that drops
        a function reads as zero calls, not a crash.
        """
        for path, attr, name in BINDINGS:
            owner = _resolve(path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra},
                      fh)


def merge(tracer: Tracer, path: str, op: int) -> float:
    """Append a child process's spans to tracer, tagged with op.

    Returns the child's own ``import lcl.cli`` time in seconds.

    perf_counter reads the system-wide monotonic clock on Linux, so child
    times need no shift; parent indices are rebased onto the merged list.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    base = len(tracer.spans)
    for name, start, end, parent, _ in data["spans"]:
        tracer.spans.append([name, start, end,
                             parent + base if parent >= 0 else -1, op])
    for key, value in data["counts"].items():
        tracer.counts[key] = tracer.counts.get(key, 0) + value
    return data["import_s"]


def layer_totals(spans: list) -> dict:
    """Per span name and group: calls, busy time and self time.

    Busy time sums spans not nested inside a span of the same name (or
    group); self time sums each span's duration minus its children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    group_of = {member: group for group, members in GROUPS.items()
                for member in members}
    totals = {}

    def add(key, busy, self_s, outermost):
        t = totals.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["self_s"] += self_s
        if outermost:
            t["calls"] += 1
            t["busy_s"] += busy

    for i, (name, start, end, parent, _) in enumerate(spans):
        busy = end - start
        self_s = busy - child_time[i]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        add(name, busy, self_s, name not in ancestors)
        group = group_of.get(name)
        if group is not None:
            add(group, busy, self_s,
                not any(group_of.get(a) == group for a in ancestors))
    return totals


def covered_fraction(spans: list, root: str, parts: set) -> float:
    """Share of root's busy time spent inside the outermost spans in parts.

    parts holds span or group names. Used to check that the traced layers
    account for classify_profile.
    """
    parts = set(parts).union(*(GROUPS.get(p, ()) for p in parts))
    covered = 0.0
    busy = 0.0
    for name, start, end, parent, _ in spans:
        if name == root:
            busy += end - start
            continue
        if name not in parts:
            continue
        p, under_root = parent, False
        while p >= 0:
            if spans[p][0] in parts:
                break
            if spans[p][0] == root:
                under_root = True
                break
            p = spans[p][3]
        if under_root:
            covered += end - start
    return covered / busy if busy else 0.0


def import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        out.setdefault(module, int(fields[1]) / 1e6)
    return out
