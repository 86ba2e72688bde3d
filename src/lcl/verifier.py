"""Regression runner: classify fixture suites and score the outcomes.

A fixture fails when an expected verdict is contradicted, when a
verdict and the oracle disagree at any k, when the verdicts break an
edge of the family's implication graph, or when classification raises;
"oracle" expectations never fail. The pseudo null k3 verdict is the
oracle's own and so never disagrees with it; no k is exempt from the rule.
"""

from __future__ import annotations

import logging
import time
import traceback
from typing import NamedTuple, Optional

from .classifier import (ClassificationReport, Tolerances, Verdict,
                         classify_profile)
from .integrator import check_step
from .suite import DEFAULT_SEED, Fixture, default_suite

log = logging.getLogger("lcl.verifier")

_FAIL_PREFIXES = ("closure-inconsistency:", "oracle-condition-disagreement:")

_EXPECT_TO_VERDICT = {"Y": Verdict.YES, "N": Verdict.NO}


class FixtureResult(NamedTuple):
    label: str
    kind: str
    expected: dict              # k -> "Y", "N" or "oracle"
    failures: list
    report: Optional[ClassificationReport] = None
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.failures and self.error is None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "expected": {f"k{k}": v for k, v in sorted(self.expected.items())},
            "passed": self.passed,
            "failures": list(self.failures),
            "error": self.error,
            "report": self.report.to_json_dict() if self.report else None,
        }


class SuiteSummary(NamedTuple):
    results: list
    runtime: float  # seconds; excluded from JSON to keep output reproducible

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
    label, kind, expected = fx.label, fx.profile.kind.value, dict(fx.expected)
    try:
        report = classify_profile(fx.profile, h=h, tol=tol)
    except Exception as exc:
        log.debug("fixture %s crashed:\n%s", label, traceback.format_exc())
        return FixtureResult(label, kind, expected, [],
                             error=f"{type(exc).__name__}: {exc}")
    failures = []
    for k, want in sorted(expected.items()):
        if want == "oracle":  # the report's verdict stands
            continue
        verdict, got = _EXPECT_TO_VERDICT[want], report.verdicts[k]
        if got is not verdict:
            failures.append(f"k{k}: expected {verdict.value}, got {got.value}")
    failures += [f for f in report.flags if f.startswith(_FAIL_PREFIXES)]
    return FixtureResult(label, kind, expected, failures, report)


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
        # "Yes" -> "Y", "No" -> "N"; a crashed fixture has no report
        obs = [r.report.verdicts[k].value[0] if r.report is not None else "-"
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
