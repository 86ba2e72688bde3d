"""Self-test of the benchmark at tiny sizes; about two minutes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
0. busy time, self time and coverage come out right on a made-up span
   forest;
1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and that every op passes;
2. a fault injected on the benchmark side (a wrong expected verdict for
   suite50 and cold_classify, a truncated CSV for fine_synth) is counted
   in ``failed`` and makes the run exit nonzero;
3. in a directory holding only BENCHMARK.json and the benchmark's files,
   the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import tracing

WORKLOADS = ("suite50", "cold_classify", "fine_synth")
TINY = ["--seed", "7", "--seconds", "0.5"]


def _run(command, args, cwd="."):
    done = subprocess.run([*command, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout + done.stderr


def _span_maths_ok() -> bool:
    # [name, start, end, parent, op]: classify holds an axis builder, an
    # oracle call with its SVD, and a check that calls another check.
    spans = [["classifier.classify_profile", 0, 10, -1, 0],
             ["classifier.pn_type2_axis", 1, 3, 0, 0],
             ["classifier.oracle_detect", 4, 8, 0, 0],
             ["minkowski.nullspace_min_singular", 5, 7, 2, 0],
             ["classifier.pn_type3_check", 8, 9.5, 0, 0],
             ["classifier.pn_type0_check", 8.25, 9, 4, 0]]
    totals = tracing.layer_totals(spans)
    covered = tracing.covered_fraction(
        spans, "classifier.classify_profile",
        {"classifier.axes", "classifier.oracle_detect"})
    return (totals["classifier.classify_profile"]
            == {"calls": 1, "busy_s": 10.0, "self_s": 2.5}
            and totals["classifier.oracle_detect"]["self_s"] == 2.0
            and totals["classifier.checks"]
            == {"calls": 1, "busy_s": 1.5, "self_s": 1.5}
            and covered == 0.6)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    command = spec["command"]
    errors = []

    def expect(ok, what, log=""):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            errors.append(what)
            print(log[-2000:])

    expect(_span_maths_ok(), "span maths: busy, self and covered time")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, log = _run(command, ["--workload", workload,
                                               *TINY, "--trace", str(trace)])
            what = f"{workload} trace={trace}"
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 2,
                   f"{what}: exits 0 with every op passing", log)
            if result is None:
                continue
            units = {name: m.get("unit") for name, m in
                     result["metrics"].items()}
            expect(units == declared[trace],
                   f"{what}: prints every declared metric with its unit",
                   json.dumps(sorted(set(units.items())
                                     ^ set(declared[trace].items()))))
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{what}: every value is a number", log)

    for workload in WORKLOADS:
        code, result, log = _run(command, ["--workload", workload, *TINY,
                                           "--trace", "0", "--inject"])
        expect(code == 1 and result is not None and result["failed"] >= 1
               and not result["correct"],
               f"{workload}: injected fault is counted as failed", log)

    bare = os.path.join(".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, result, log = _run(command, ["--workload", "suite50", *TINY,
                                       "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without lcl sources: exits nonzero, prints no result", log)

    print(f"selftest: {len(errors)} failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
