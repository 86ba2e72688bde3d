"""Median, quartiles and spread of recorded runs, per workload and metric.

    python3 perfbench/summarize.py [RESULTS_JSONL] [--json]

Reads the records run.py appends to ``.perfbench_out/results.jsonl``,
groups them by source digest, workload, run length and trace mode, and
prints for each metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median that
BENCHMARK.json's bounds are compared with. ``--json`` prints the same
as one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(records) -> dict:
    groups = {}
    for rec in records:
        key = (f"{rec['env']['src_sha256'][:12]} {rec['workload']} "
               f"seconds={rec['seconds']:g} trace={rec['trace']}")
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, recs in sorted(groups.items()):
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median,) * 3)
            metrics[name] = {
                "unit": recs[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        out[key] = {"runs": len(recs),
                    "seeds": sorted(r["env"]["seed"] for r in recs),
                    "failed": sum(r["failed"] for r in recs),
                    "metrics": metrics}
    return out


def main(argv) -> int:
    as_json = "--json" in argv
    paths = [a for a in argv if a != "--json"]
    path = paths[0] if paths else ".perfbench_out/results.jsonl"
    with open(path, encoding="utf-8") as fh:
        summary = summarize(json.loads(line) for line in fh if line.strip())
    if as_json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    for key, group in summary.items():
        print(f"{key}: {group['runs']} runs, {group['failed']} failed ops")
        for name, m in group["metrics"].items():
            print(f"  {name:<46} {m['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} "
                  f"spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
