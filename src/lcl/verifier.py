"""Regression runner: classify fixture suites and score the outcomes.

A fixture fails when an expected verdict is contradicted, when a
verdict and the oracle disagree at any k, when the verdicts break an
edge of the family's implication graph, or when classification raises.
"oracle" expectations never fail; their observed verdicts are recorded.
The pseudo null k3 verdict is the oracle's own and so never disagrees
with it; no k is exempt from the rule.
"""

from __future__ import annotations

import logging
import time
import traceback
from typing import Optional

from .classifier import (ClassificationReport, Tolerances, Verdict,
                         classify_profile)
from .integrator import check_step
from .suite import DEFAULT_SEED, Fixture, default_suite

log = logging.getLogger("lcl.verifier")

_FAIL_PREFIXES = ("closure-inconsistency:", "oracle-condition-disagreement:")

_EXPECT_TO_VERDICT = {"Y": Verdict.YES, "N": Verdict.NO}


class FixtureResult:
    __slots__ = ("label", "kind", "expected", "observed", "failures",
                 "diagnostics", "report", "error")

    def __init__(self, label: str, kind: str, expected: dict,
                 observed: Optional[dict] = None,
                 failures: Optional[list] = None,
                 diagnostics: Optional[list] = None,
                 report: Optional[ClassificationReport] = None,
                 error: Optional[str] = None):
        self.label = label
        self.kind = kind
        self.expected = expected
        self.observed = {} if observed is None else observed
        self.failures = [] if failures is None else failures
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.report = report
        self.error = error

    @property
    def passed(self) -> bool:
        return not self.failures and self.error is None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "expected": {f"k{k}": v for k, v in sorted(self.expected.items())},
            "observed": {f"k{k}": v.value
                         for k, v in sorted(self.observed.items())},
            "passed": self.passed,
            "failures": list(self.failures),
            "diagnostics": list(self.diagnostics),
            "error": self.error,
            "report": self.report.to_json_dict() if self.report else None,
        }


class SuiteSummary:
    __slots__ = ("results", "runtime")

    def __init__(self, results: list, runtime: float):
        self.results = results
        # seconds; excluded from JSON to keep output reproducible
        self.runtime = runtime

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def n_fail(self) -> int:
        return len(self.results) - self.n_pass

    @property
    def passed(self) -> bool:
        return self.n_fail == 0

    @property
    def disagreement_count(self) -> int:
        return sum(1 for r in self.results for f in r.failures
                   if f.startswith("oracle-condition-disagreement"))

    def to_json_dict(self) -> dict:
        return {
            "n_fixtures": len(self.results),
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "oracle_disagreements": self.disagreement_count,
            "fixtures": [r.to_json_dict() for r in self.results],
        }


def _run_fixture(fx: Fixture, tol: Tolerances,
                 h: Optional[float]) -> FixtureResult:
    result = FixtureResult(label=fx.label, kind=fx.profile.kind.value,
                           expected=dict(fx.expected))
    try:
        report = classify_profile(fx.profile, h=h, tol=tol)
    except Exception as exc:
        log.debug("fixture %s crashed:\n%s", fx.label, traceback.format_exc())
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.report = report
    result.observed = dict(report.verdicts)
    for k in sorted(fx.expected):
        want = fx.expected[k]
        got = report.verdicts[k]
        if want == "oracle":
            result.diagnostics.append(f"k{k} oracle-decided: {got.value}")
            continue
        if got is not _EXPECT_TO_VERDICT[want]:
            result.failures.append(
                f"k{k}: expected {_EXPECT_TO_VERDICT[want].value}, "
                f"got {got.value}")
    for flag in report.flags:
        if flag.startswith(_FAIL_PREFIXES):
            result.failures.append(flag)
        else:
            result.diagnostics.append(flag)
    return result


def run_theorem_suite(fixtures: Optional[list] = None,
                      seed: int = DEFAULT_SEED,
                      tol: Tolerances = Tolerances(),
                      h: Optional[float] = None) -> SuiteSummary:
    """Classify every fixture and collect pass/fail results. A step h
    that is not positive and finite raises ConfigError before any runs."""
    if h is not None:
        check_step(h)
    if fixtures is None:
        fixtures = default_suite(seed)
    t0 = time.perf_counter()
    results = []
    for fx in fixtures:
        res = _run_fixture(fx, tol, h)
        log.info("fixture %-18s %s", fx.label,
                 "pass" if res.passed else "FAIL")
        results.append(res)
    return SuiteSummary(results=results, runtime=time.perf_counter() - t0)


def render_table(summary: SuiteSummary) -> str:
    """Fixed-width text table, one row per fixture."""
    lines = [f"{'label':<20} {'kind':<14} {'k0':>2} {'k1':>2} {'k2':>2} "
             f"{'k3':>2}  {'expected':<12} status"]
    lines.append("-" * len(lines[0]))
    for r in summary.results:
        # "Yes" -> "Y", "No" -> "N"; a crashed fixture observed nothing
        obs = [r.observed[k].value[0] if k in r.observed else "-"
               for k in range(4)]
        exp = "".join("*" if r.expected.get(k) == "oracle"
                      else r.expected.get(k, "-") for k in range(4))
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.label:<20} {r.kind:<14} {obs[0]:>2} {obs[1]:>2} "
                     f"{obs[2]:>2} {obs[3]:>2}  {exp:<12} {status}")
        for msg in r.failures:
            lines.append(f"    ! {msg}")
        if r.error:
            lines.append(f"    ! crash: {r.error}")
    lines.append("-" * len(lines[0]))
    lines.append(f"{summary.n_pass} passed, {summary.n_fail} failed, "
                 f"{summary.disagreement_count} oracle disagreements "
                 f"(* = oracle-decided)")
    return "\n".join(lines)
