"""Seeded inputs, operations and correctness gates of the three workloads.

suite50        one fixture of ``default_suite(seed)`` through
               ``run_theorem_suite``, then the summary's JSON, as
               ``lcl verify --json`` does once it has imported. The oracle
               SVDs, checks, axes and ``hyperbolic`` do most of the work.
cold_classify  a fresh ``python3 -m lcl.cli classify FILE`` per op. Import
               and set-up dominate; compute barely shows.
fine_synth     ``integrate_frame`` at h = span/5000, then
               ``write_trace_csv`` (about 2 MB). No oracle or classifier.

cold_classify and fine_synth share one rotation of eight profiles drawn
from ``default_suite(seed)``: four per family, and in each family two of
them carry a sample-table curvature, so both input kinds are covered.

Every call into lcl goes through a module attribute (``lcl.verifier.
run_theorem_suite``, ``lcl.integrator.integrate_frame``) so that the
traced run, which rebinds those attributes, sees it.

Run as a script this is the set-up probe: a fresh interpreter imports lcl
and builds one workload's inputs; run.py times it as ``setup_s``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

import lcl
import tracing

# Columns of the trace CSV, spelled out here so that a change of format
# is caught rather than copied.
CSV_HEADER = ",".join(
    ["s", "x1", "x2", "x3", "x4"]
    + [f"{v}{i}" for v in ("T", "N", "B1", "B2") for i in range(1, 5)]
    + ["gram_residual"])
# The integrator aborts once Gram drift passes 1000 * eps_gram (1e-6).
GRAM_ABORT = 1e-3
# Interior curvatures recovered by resample_curvatures must match the
# input within RESAMPLE_TOL + eps * max|F|^2 / h, as a share of
# (1 + max |curvature|). The second term is the roundoff of differencing
# the frames on the grid: it grows as h shrinks, and pseudo null frames
# reach 9e4 (psn-generic-1, error 2.5e-4 against a bound of 4.8e-3).
# Where frames stay small the error is below 1e-7.
RESAMPLE_TOL = 1e-6
SYNTH_STEPS = 5000
ROTATION = 8
TABLE_POINTS = 101
OP_TIMEOUT_S = 120.0


def _serialize(summary) -> str:
    """What ``lcl verify --json`` prints for a summary."""
    return json.dumps(summary.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))


def rotation(seed: int) -> list:
    """Profile JSON dicts: four per family, the odd ones tabulated.

    A tabulated profile replaces tau (partially null) or sigma (pseudo
    null) by ``{"s": [...], "values": [...]}`` sampled from the fixture's
    expression. The README's ``{"samples": [[s, v], ...]}`` form is not
    what ``lcl.profiles`` accepts; see NOTES.md.
    """
    fixtures = lcl.suite.default_suite(seed)
    rng = np.random.default_rng([seed, ROTATION])
    chosen = []
    for kind in ("partially_null", "pseudo_null"):
        family = [f for f in fixtures if f.profile.kind.value == kind]
        picks = rng.choice(len(family), ROTATION // 2, replace=False)
        chosen += [family[i] for i in sorted(picks)]
    out = []
    for i, fx in enumerate(chosen):
        d = fx.profile.to_json_dict()
        if i % 2:
            key = "tau" if d["kind"] == "partially_null" else "sigma"
            s = np.linspace(fx.profile.s_min, fx.profile.s_max, TABLE_POINTS)
            values = getattr(fx.profile, key)(s)
            d[key] = {"s": s.tolist(), "values": np.asarray(values).tolist()}
            d["label"] += "-table"
        out.append(d)
    return out


class Workload:
    """One workload: build() makes the inputs, execute() runs one op on
    one input and check() returns None or what was wrong with its output.
    A tracer, when set, is the one rebinding lcl for the traced run.
    ref_mix names the reference kernel that op costs are measured in."""

    name = ""
    ref_mix = "python"  # the reference kernel nearest the op's own work

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.inputs = []

    def build(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed expected outputs, where a gate needs them."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Suite50(Workload):
    """In-process suite fixtures; one op is one fixture plus its JSON."""

    name = "suite50"
    ref_mix = "mixed"

    def build(self) -> None:
        self.inputs = lcl.suite.default_suite(self.seed)

    def inject_fault(self, index: int) -> None:
        """Flip one fixture's expected k0 verdict."""
        fx = self.inputs[index]
        expected = dict(fx.expected)
        expected[0] = "N" if expected[0] == "Y" else "Y"
        self.inputs[index] = lcl.suite.Fixture(fx.label, fx.profile, expected)

    def execute(self, fx):
        summary = lcl.verifier.run_theorem_suite([fx])
        if self.tracer is not None:
            return self.tracer.span("verifier.serialize", _serialize, summary)
        return _serialize(summary)

    def check(self, fx, text) -> str | None:
        doc = json.loads(text)
        if doc["n_fixtures"] != 1 or doc["n_pass"] != 1:
            (res,) = doc["fixtures"]
            return f"{fx.label}: {res['failures'] or res['error']}"
        flags = doc["fixtures"][0]["report"]["flags"]
        bad = [f for f in flags if f.startswith(
            tuple(f"oracle-condition-disagreement: k{k}" for k in range(3)))]
        return f"{fx.label}: {bad}" if bad else None


class ColdClassify(Workload):
    """A fresh CLI process per op on the rotation's profile files.

    Expected verdicts come from an in-process classify_profile of the
    same files, computed untimed at set-up.
    """

    name = "cold_classify"
    ref_mix = "process"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.expected = {}
        self.max_rss_kb = 0
        self.process_minus_import_s = []

    def build(self) -> None:
        self.inputs = []
        for i, d in enumerate(rotation(self.seed)):
            path = os.path.join(self.workdir, f"profile-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(d, fh, sort_keys=True)
            self.inputs.append(path)

    def reference(self) -> None:
        for path in self.inputs:
            report = lcl.classifier.classify_profile(
                lcl.profiles.load_profile(path))
            self.expected[path] = report.to_json_dict()["verdicts"]

    def inject_fault(self, index: int) -> None:
        """Flip the expected k0 verdict of one profile."""
        verdicts = self.expected[self.inputs[index]]
        verdicts["k0"] = "No" if verdicts["k0"] == "Yes" else "Yes"

    def execute(self, path):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lcl.cli", "classify", path]
        else:
            spans = os.path.join(self.workdir, "child-spans.json")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__),
                                                "traced_cli.py"),
                   spans, "classify", path]
        start = time.perf_counter()
        code, out, err = self._spawn(cmd)
        wall = time.perf_counter() - start
        if self.tracer is not None and code == 0:
            import_s = tracing.merge(self.tracer, spans, self.tracer.op)
            self.process_minus_import_s.append(wall - import_s)
        return code, out, err

    def _spawn(self, cmd):
        """Run cmd to completion; wait4 gives this child's own peak RSS."""
        err_path = os.path.join(self.workdir, "child-stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            return proc.returncode, out, err.read()

    def check(self, path, output) -> str | None:
        code, out, err = output
        name = os.path.basename(path)
        if code != 0:
            tail = err.decode(errors="replace")[-200:]
            return f"{name}: exit {code}: {tail}"
        got = json.loads(out)["verdicts"]
        want = self.expected[path]
        return None if got == want else f"{name}: verdicts {got} != {want}"

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


class FineSynth(Workload):
    """In-process fine-step synthesis of the rotation to one CSV file."""

    name = "fine_synth"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.csv = os.path.join(workdir, "trace.csv")
        self.truncate_next = False

    def build(self) -> None:
        self.inputs = [lcl.profiles.CurvatureProfile.from_json_dict(d)
                       for d in rotation(self.seed)]

    def inject_fault(self, index: int) -> None:
        """Cut the next CSV in half before it is checked."""
        self.truncate_next = True

    def execute(self, profile):
        trace = lcl.integrator.integrate_frame(
            profile, h=profile.span / SYNTH_STEPS)
        lcl.integrator.write_trace_csv(trace, self.csv)
        return trace

    def check(self, profile, trace) -> str | None:
        if self.truncate_next:
            self.truncate_next = False
            os.truncate(self.csv, os.path.getsize(self.csv) // 2)
        label = profile.label
        with open(self.csv, "rb") as fh:
            header = fh.readline().decode().rstrip("\n")
            rows, last = 0, b""
            for line in fh:
                rows, last = rows + 1, line
        if header != CSV_HEADER:
            return f"{label}: CSV header {header[:60]!r}"
        if rows != trace.n:
            return f"{label}: CSV has {rows} rows, trace has {trace.n}"
        fields = last.decode().rstrip("\n").split(",")
        if len(fields) != 22 or float(fields[0]) != float(trace.s[-1]):
            return f"{label}: last CSV row does not end the trace"
        if not trace.max_gram_residual < GRAM_ABORT:
            return f"{label}: Gram residual {trace.max_gram_residual:.3g}"
        got = lcl.integrator.resample_curvatures(trace)
        want = profile.evaluate_arrays(trace.s)
        tol = RESAMPLE_TOL + (np.finfo(float).eps
                              * np.max(np.abs(trace.frames)) ** 2 / trace.h)
        for name, g, w in zip(("kappa", "tau", "sigma"), got, want):
            err = np.max(np.abs(g[2:-2] - w[2:-2])) / (1 + np.max(np.abs(w)))
            if not err < tol:
                return (f"{label}: resampled {name} off by {err:.3g}, "
                        f"tolerance {tol:.3g}")
        return None


WORKLOADS = {w.name: w for w in (Suite50, ColdClassify, FineSynth)}


if __name__ == "__main__":
    # Set-up probe: python3 perfbench/workloads.py WORKLOAD SEED WORKDIR
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3]).build()
