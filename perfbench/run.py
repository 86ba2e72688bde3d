"""Benchmark of lcl: three seeded workloads, end to end and layer by layer.

Run from the root of a checkout (no install needed; lcl is loaded from
``src``):

    python3 perfbench/run.py --workload suite50 --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one caller in one process sends the next
op when the last one has returned. BLAS and OpenMP are pinned to one
thread here and in every child process. Every op's output is checked;
``failed`` counts the ops whose check failed.

Op costs are reported in ``ref``: an op's latency over the mean time of
the workload's fixed reference kernel (reference.py) run just before and
just after it. This host's speed drifts by up to a factor of two for
minutes at a time, which moves wall-clock medians between runs by more
than any useful bound; the ratio cancels that drift. The wall-clock
figures are printed alongside and are per-layer metrics of a
``--trace 1`` run.

``--trace 0`` times set-up (a fresh interpreter that imports lcl and
builds the inputs, run several times) and then runs the timed loop for
``--seconds``; it prints the end-to-end metrics. ``--trace 1`` runs the
same timed loop untraced, then measures import times with ``-X
importtime`` and makes one traced pass: the inputs are built again and
every input is run once, with lcl's public functions rebound to a span
recorder (tracing.py). It prints the per-layer metrics, which are
totals over that pass, the wall-clock figures of the timed loop and the
tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with the
environment, goes to ``.perfbench_out/results.jsonl``, and the spans of
a traced run to ``.perfbench_out/spans-<workload>-<seed>.json``.

Exit status: 0 when every op passed its check, 1 when one did not, 2
when there is no lcl source to run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 120.0
SETUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
LAYERS = (
    "suite.default_suite", "expr.parse_expression", "profiles.load_profile",
    "profiles.evaluate_arrays", "integrator.integrate_frame",
    "integrator.write_trace_csv", "classifier.classify_profile",
    "classifier.oracle_detect", "minkowski.nullspace_min_singular",
    "classifier.checks", "classifier.axes", "classifier.pn_type2_axis",
    "axis.validate_axis", "hyperbolic.pseudohyperbolic_block",
    "hyperbolic.fit_pseudohyperbolic", "verifier.serialize",
)
# Layers whose busy time should account for classify_profile's.
CLASSIFY_PARTS = {"integrator.integrate_frame", "classifier.oracle_detect",
                  "classifier.axes", "axis.validate_axis",
                  "hyperbolic.pseudohyperbolic_block"}
IMPORTS = {"numpy": "numpy", "scipy.interpolate": "scipy_interpolate",
           "scipy.integrate": "scipy_integrate", "lcl": "lcl"}
PER_LAYER = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))},
    "profiles.evaluate_arrays.points": "count",
    "integrator.integrate_frame.steps": "count",
    "integrator.integrate_frame.us_per_step": "us",
    "integrator.write_trace_csv.bytes": "B",
    "classifier.classify_profile.covered_frac": "ratio",
    "minkowski.nullspace_min_singular.rows": "count",
    "axis.validate_axis.pass_ratio": "ratio",
    "hyperbolic.fit_pseudohyperbolic.iterations": "count",
    "cli.process_minus_import_s": "s",
    **{f"import.{short}_s": "s" for short in IMPORTS.values()},
    "wall.op_p50_s": "s",
    "wall.op_tail_s": "s",
    "ref.p50_s": "s",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("suite50", "cold_classify", "fine_synth"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", action="store_true",
                    help="corrupt the first op's expected output on the "
                         "benchmark side (self-test only)")
    return ap.parse_args(argv)


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failures = []

    def op(self, item) -> float:
        """One op: its latency; its check runs afterwards, untimed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.execute(item)
        except Exception:
            latency = time.perf_counter() - start
            self.failures.append(traceback.format_exc(limit=3))
            return latency
        latency = time.perf_counter() - start
        tracer = self.wl.tracer
        if tracer is not None:
            tracer.enabled = False
        try:
            problem = self.wl.check(item, out)
        except Exception:
            problem = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.enabled = True
        if problem:
            self.failures.append(problem)
        return latency

    def timed_loop(self, items, seconds: float) -> tuple[list, list]:
        """Latencies of ops run back to back until seconds have passed,
        and the reference kernel's time before each op and after the last.
        """
        mix = self.wl.ref_mix
        latencies, refs = [], [reference.timed(mix)]
        deadline = time.perf_counter() + seconds
        while True:
            latencies.append(self.op(next(items)))
            refs.append(reference.timed(mix))
            if time.perf_counter() >= deadline:
                return latencies, refs


def _in_ref(latencies: list, refs: list) -> list:
    """Each latency over the mean of the two kernel times bracketing it."""
    return [lat * 2.0 / (refs[i] + refs[i + 1])
            for i, lat in enumerate(latencies)]


def _tail(values: list) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples, and at
    least a tenth of them, beyond it. Returns (value, percentile).

    The tenth caps the tail at p90 on runs of short ops. On a shared
    machine a contention spell of a few seconds slows more than ten
    0.13 s suite50 ops, which moved suite50's p95 by 90% between runs;
    its p90 moved half as much. With at most ten samples no such
    percentile exists and the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(10, n // 10)
    k = n - 1 - beyond if n > beyond else n - 1
    return ordered[k], 100.0 * k / (n - 1) if n > 1 else 100.0


def _probe(cmd) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}:\n{done.stderr}")
    return wall, done.stderr


def _setup_seconds(args, workdir) -> float:
    """Median wall time of fresh processes that import lcl and build inputs."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           args.workload, str(args.seed), probe_dir]
    return statistics.median(_probe(cmd)[0] for _ in range(SETUP_PROBES))


def _import_seconds() -> dict:
    """Median cumulative import time of the modules in IMPORTS."""
    runs = [tracing.import_times(_probe(
        [sys.executable, "-X", "importtime", "-c", "import lcl"])[1])
        for _ in range(IMPORT_PROBES)]
    return {f"import.{short}_s": statistics.median(r.get(mod, 0.0)
                                                   for r in runs)
            for mod, short in IMPORTS.items()}


def _traced_pass(runner, order, untraced_ops_per_s, spans_path) -> dict:
    """Build the inputs again and run each once under the span recorder."""
    wl = runner.wl
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        wl.build()
        latencies = []
        for op_id, index in enumerate(order):
            tracer.op = op_id
            latencies.append(runner.op(wl.inputs[index]))
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.dump(spans_path)

    totals = tracing.layer_totals(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics = {}
    for layer in LAYERS:
        for key, value in totals.get(layer, empty).items():
            metrics[f"{layer}.{key}"] = value
    counts = tracer.counts
    steps = counts.get("integrator.integrate_frame.steps", 0)
    calls_va = metrics["axis.validate_axis.calls"]
    gaps = getattr(wl, "process_minus_import_s", [])
    traced_ops_per_s = len(latencies) / sum(latencies)
    metrics.update({
        "profiles.evaluate_arrays.points":
            counts.get("profiles.evaluate_arrays.points", 0),
        "integrator.integrate_frame.steps": steps,
        "integrator.integrate_frame.us_per_step":
            1e6 * metrics["integrator.integrate_frame.busy_s"] / steps
            if steps else 0.0,
        "integrator.write_trace_csv.bytes":
            counts.get("integrator.write_trace_csv.bytes", 0),
        "classifier.classify_profile.covered_frac": tracing.covered_fraction(
            tracer.spans, "classifier.classify_profile", CLASSIFY_PARTS),
        "minkowski.nullspace_min_singular.rows":
            counts.get("minkowski.nullspace_min_singular.rows", 0),
        "axis.validate_axis.pass_ratio":
            counts.get("axis.validate_axis.passed", 0) / calls_va
            if calls_va else 0.0,
        "hyperbolic.fit_pseudohyperbolic.iterations":
            counts.get("hyperbolic.fit_pseudohyperbolic.iterations", 0),
        "cli.process_minus_import_s":
            statistics.median(gaps) if gaps else 0.0,
        "trace.ops_per_s": traced_ops_per_s,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.overhead_frac": 1.0 - traced_ops_per_s / untraced_ops_per_s,
    })
    return metrics


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(".git"):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "lcl", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join("src", "lcl", "__init__.py")):
        print("perfbench: src/lcl not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Child processes inherit these.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.abspath("src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        metrics, tail = {}, None
        if not args.trace:
            metrics["setup_s"] = _setup_seconds(args, workdir)
        wl.build()
        wl.reference()
        order = list(range(len(wl.inputs)))
        random.Random(args.seed).shuffle(order)
        if args.inject:
            wl.inject_fault(order[0])
        runner = Runner(wl)
        items = (wl.inputs[i] for i in itertools.cycle(order))
        runner.op(next(items))  # warm-up: checked, not timed
        reference.timed(wl.ref_mix)
        latencies, refs = runner.timed_loop(items, args.seconds)
        costs = _in_ref(latencies, refs)
        ops_per_s = len(latencies) / sum(latencies)
        wall = {"wall.op_p50_s": statistics.median(latencies),
                "wall.op_tail_s": _tail(latencies)[0],
                "ref.p50_s": statistics.median(refs)}
        if args.trace:
            spans = os.path.join(OUT_DIR,
                                 f"spans-{args.workload}-{args.seed}.json")
            metrics.update(_import_seconds())
            metrics.update(_traced_pass(runner, order, ops_per_s, spans))
            metrics.update(wall)
            units = PER_LAYER
        else:
            tail, pct = _tail(costs)
            metrics.update(ops_per_ref=len(costs) / sum(costs),
                           op_p50_ref=statistics.median(costs),
                           op_tail_ref=tail, peak_rss_mb=wl.peak_rss_mb())
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(workload=args.workload, seconds=args.seconds,
                  trace=args.trace, env=_environment(args.seed),
                  latencies=latencies, refs=refs, wall=wall,
                  failures=runner.failures[:5], **result)
    if tail is not None:
        record["op_tail_percentile"] = pct
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a",
              encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<46} {failed / runner.attempted:>14.6g} ratio "
          f"({failed}/{runner.attempted})")
    if tail is not None:
        print(f"  op_tail_ref is the p{pct:.1f} cost of "
              f"{len(latencies)} timed ops")
        print(f"  {'wall.ops_per_s':<46} {ops_per_s:>14.6g} 1/s (wall clock)")
        for name, value in wall.items():
            print(f"  {name:<46} {value:>14.6g} s (wall clock)")
    for problem in runner.failures[:5]:
        print("  FAILED: " + problem.strip().replace("\n", "\n    "))
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
