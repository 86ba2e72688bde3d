"""Fixture suite construction and the verifier harness."""

import json

import numpy as np
import pytest

import lcl.verifier
from lcl import (CheckResult, Fixture, FixtureResult, FrameKind,
                 SuiteSummary, Verdict, classify_profile, default_suite,
                 fixtures_from_json, integrate_frame, load_suite,
                 render_table, run_theorem_suite)
from lcl.cli import main
from lcl.errors import ConfigError, ProfileError
from lcl.suite import DEFAULT_SEED, GENERATORS


def test_default_suite_is_deterministic():
    a = default_suite()
    b = default_suite()
    assert len(a) == 50
    assert [f.label for f in a] == [f.label for f in b]
    assert [f.profile.to_json_dict() for f in a] == \
           [f.profile.to_json_dict() for f in b]


def test_default_suite_seed_changes_parameters_not_shape():
    a = default_suite(seed=DEFAULT_SEED)
    b = default_suite(seed=1)
    assert len(b) == 50
    assert [f.label for f in a] == [f.label for f in b]
    assert [f.expected for f in a] == [f.expected for f in b]
    assert a[0].profile.to_json_dict() != b[0].profile.to_json_dict()


def test_default_suite_covers_both_frame_kinds():
    kinds = {f.profile.kind.value for f in default_suite()}
    assert kinds == {"partially_null", "pseudo_null"}


def test_default_suite_fixes_every_side_no_theorem_or_oracle_owns():
    pn, psn = FrameKind.PARTIALLY_NULL, FrameKind.PSEUDO_NULL
    fixtures = default_suite(DEFAULT_SEED)
    sides = {(f.profile.kind, k, want) for f in fixtures
             for k, want in f.expected.items() if want != "oracle"}
    every = {(kind, k, want) for kind in (pn, psn) for k in range(4)
             for want in "YN"}
    # theorems rule these out: no pseudo null curve is 0-type, and every
    # partially null curve is 2-type (the universal axis)
    ruled_out = {(psn, 0, "Y"), (pn, 2, "N")}
    # the one side the bundled suite leaves open, pseudo null k3 Yes, is
    # fixed by the h3-type3 generator row, which the suite does not draw
    assert every - sides == ruled_out | {(psn, 3, "Y")}
    assert any(gen.kind is psn and gen.expected[3] == "Y"
               for gen in GENERATORS.values())
    # partially null k3 coincides with k0, so it has no sides of its own
    assert all(f.expected[3] == f.expected[0] for f in fixtures
               if f.profile.kind is pn)


def test_fixtures_from_json_round_trip():
    obj = [
        {"label": "one",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y", "k1": "Y", "k2": "Y", "k3": "Y"}},
        {"profile": {"kind": "pseudo_null", "tau": "1", "sigma": "exp(s)",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "N"}},
    ]
    fixtures = fixtures_from_json(obj)
    assert len(fixtures) == 2
    assert fixtures[0].label == "one"
    assert fixtures[1].label == "fixture-1"
    # omitted expectations default to oracle-decided
    assert fixtures[1].expected == {0: "N", 1: "oracle", 2: "oracle",
                                    3: "oracle"}


def test_fixtures_from_json_rejects_bad_shapes():
    with pytest.raises(ProfileError):
        fixtures_from_json({"not": "a list"})
    with pytest.raises(ProfileError):
        fixtures_from_json([{"expected": {}}])  # no profile
    with pytest.raises(ProfileError):
        fixtures_from_json([{
            "profile": {"kind": "partially_null", "kappa": "1", "tau": "1",
                        "domain": [0.0, 1.0]},
            "expected": {"k0": "MAYBE"}}])


def test_load_suite_reads_a_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([
        {"profile": {"kind": "partially_null", "kappa": "1", "tau": "1",
                     "domain": [0.0, 2.0]},
         "expected": {"k0": "Y"}}]))
    fixtures = load_suite(path)
    assert len(fixtures) == 1
    assert fixtures[0].expected[0] == "Y"


def test_small_suite_passes_and_summarizes():
    fixtures = fixtures_from_json([
        {"label": "ratio",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y", "k1": "Y", "k2": "Y", "k3": "Y"}},
        {"label": "generic",
         "profile": {"kind": "partially_null", "kappa": "1", "tau": "s",
                     "domain": [0.1, 1.0]},
         "expected": {"k0": "N"}},
    ])
    summary = run_theorem_suite(fixtures=fixtures)
    assert summary.passed
    assert summary.n_pass == 2 and summary.n_fail == 0
    assert summary.disagreement_count == 0


def test_wrong_expectation_fails_the_fixture():
    fixtures = fixtures_from_json([
        {"label": "wrong",
         "profile": {"kind": "partially_null", "kappa": "1", "tau": "s",
                     "domain": [0.1, 1.0]},
         "expected": {"k0": "Y"}}])
    summary = run_theorem_suite(fixtures=fixtures)
    assert not summary.passed
    assert summary.n_fail == 1
    result = summary.results[0]
    assert not result.passed
    assert any("k0" in f for f in result.failures)


def test_crashing_fixture_is_reported_not_raised():
    fixtures = [Fixture(
        label="crash",
        profile=__import__("lcl").CurvatureProfile.create(
            "partially_null", kappa="1", tau="s - 0.5", domain=(0.0, 1.0)),
        expected={0: "N", 1: "N", 2: "N", 3: "N"})]
    summary = run_theorem_suite(fixtures=fixtures)
    assert not summary.passed
    assert summary.results[0].error


def test_oracle_expectation_is_diagnostic_only():
    fixtures = fixtures_from_json([
        {"label": "oracle-k3",
         "profile": {"kind": "pseudo_null", "tau": "2", "sigma": "-s^2 + s",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "N", "k1": "Y", "k2": "Y", "k3": "oracle"}}])
    summary = run_theorem_suite(fixtures=fixtures)
    assert summary.passed


def test_a_k3_disagreement_fails_like_any_other(monkeypatch):
    # no k is exempt: a partially null k3 verdict is the k0 closed form,
    # so its disagreement with the oracle must fail the fixture
    def disagreeing(p, **kw):
        report = classify_profile(p, **kw)
        report.flags.append("oracle-condition-disagreement: k3 condition "
                            "Yes, oracle No")
        return report

    monkeypatch.setattr(lcl.verifier, "classify_profile", disagreeing)
    fixtures = fixtures_from_json([
        {"label": "ratio",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y", "k1": "Y", "k2": "Y", "k3": "Y"}}])
    summary = run_theorem_suite(fixtures=fixtures)
    assert summary.results[0].failures == [
        "oracle-condition-disagreement: k3 condition Yes, oracle No"]
    assert summary.disagreement_count == 1


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan")])
def test_a_bad_step_raises_before_any_fixture_runs(h, monkeypatch):
    def unreachable(*args, **kw):
        raise AssertionError("classified with a bad step")

    monkeypatch.setattr(lcl.verifier, "classify_profile", unreachable)
    with pytest.raises(ConfigError, match="step h must be positive"):
        run_theorem_suite(h=h)


def test_render_table_layout():
    fixtures = fixtures_from_json([
        {"label": "ratio",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y", "k1": "Y", "k2": "Y", "k3": "Y"}}])
    summary = run_theorem_suite(fixtures=fixtures)
    text = render_table(summary)
    header = text.splitlines()[0]
    for col in ("label", "kind", "k0", "k1", "k2", "k3", "expected",
                "status"):
        assert col in header
    assert "ratio" in text
    assert "1 passed, 0 failed" in text


def test_summary_json_is_stable_across_runs():
    fixtures = fixtures_from_json([
        {"label": "stable",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y"}}])
    a = run_theorem_suite(fixtures=fixtures).to_json_dict()
    b = run_theorem_suite(fixtures=fixtures).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert "runtime" not in json.dumps(a)


def test_verify_json_states_each_fixture_fact_once(tmp_path, capsys):
    # verdicts and informational flags are read from the report alone
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([
        {"label": "ratio",
         "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]},
         "expected": {"k0": "Y"}},
        {"label": "crash",
         "profile": {"kind": "partially_null", "kappa": "1e60", "tau": "1",
                     "domain": [0.0, 1.0]}}]))
    assert main(["verify", "--suite", str(path), "--json"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"n_fixtures", "n_pass", "n_fail",
                            "oracle_disagreements", "fixtures"}
    ratio, crash = summary["fixtures"]
    keys = {"label", "kind", "expected", "passed", "failures", "error",
            "report"}
    assert set(ratio) == set(crash) == keys
    assert ratio["passed"] and ratio["report"]["verdicts"]["k1"] == "Yes"
    assert crash["report"] is None
    assert crash["error"].startswith("IntegrationError: Gram drift")


def test_result_records_are_read_only_tuples():
    summary = run_theorem_suite(fixtures=fixtures_from_json([
        {"profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                     "domain": [0.0, 1.0]}}]))
    records = (summary, summary.results[0], CheckResult(Verdict.YES, 0.0))
    for record, cls in zip(records, (SuiteSummary, FixtureResult,
                                     CheckResult)):
        assert type(record) is cls and isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)


def test_default_check_results_share_no_mutable_object():
    a, b = CheckResult(Verdict.YES, 0.0), CheckResult(Verdict.NO, 1.0)
    assert a.flags == b.flags == ()
    for empty in (a.constants, a.extras, b.constants, b.extras):
        assert empty == {}
        with pytest.raises(TypeError):
            empty["shared"] = True


def test_full_default_suite_posts_no_failures_or_disagreements():
    summary = run_theorem_suite()
    assert summary.passed, render_table(summary)
    assert summary.n_pass == 50
    assert summary.disagreement_count == 0


def test_every_fitted_constant_is_a_plain_float():
    summary = run_theorem_suite()
    reports = [r.report for r in summary.results]
    assert {name for rep in reports for name in rep.constants} == {
        "ratio", "C", "C_c0", "c0", "a", "b", "c_int"}
    for rep in reports:
        for name, value in rep.constants.items():
            assert type(value) is float, (rep.label, name, value)
    # the JSON states each constant once: its residual is the check's
    for fixture in summary.to_json_dict()["fixtures"]:
        for name, value in fixture["report"]["constants"].items():
            assert isinstance(value, (float, str)), (fixture["label"], name)


@pytest.mark.parametrize("h", [0.002, 0.0005])
def test_default_suite_passes_at_a_non_default_step(h):
    # the checks fit on the trace grid that h sets; fixture spans are
    # 0.8 to 2.5, so this covers 320 to 5,000 steps
    summary = run_theorem_suite(h=h)
    assert summary.passed, render_table(summary)
    assert summary.n_pass == 50
    assert summary.disagreement_count == 0


class _Counting:
    """A curvature component that records every argument it is called on."""

    def __init__(self, component):
        self.component, self.calls = component, []

    def __call__(self, s):
        self.calls.append(np.array(s, dtype=float))
        return self.component(s)


@pytest.mark.parametrize("cells", [None, 400])
@pytest.mark.parametrize("kind", [FrameKind.PARTIALLY_NULL,
                                  FrameKind.PSEUDO_NULL])
def test_a_classification_evaluates_each_grid_once(kind, cells):
    # one evaluation: each component once, on the trace's half-step
    # lattice, where the family rules were checked; at the default step
    # (1000 cells) that is 3 * 2001 = 6,003 points
    fixtures = [fx for fx in default_suite() if fx.profile.kind is kind]
    assert fixtures
    for fx in fixtures:
        h = None if cells is None else fx.profile.span / cells
        trace = integrate_frame(fx.profile, h=h)
        lattice = fx.profile.s_min + 0.5 * trace.h * np.arange(2 * trace.n - 1)
        names = ("kappa", "tau", "sigma")
        counted = {n: _Counting(getattr(fx.profile, n)) for n in names}
        p = fx.profile._replace(**counted)
        classify_profile(p, h=h)
        calls = [a for c in counted.values() for a in c.calls]
        budget = 3 * lattice.size
        assert budget == (6_003 if cells is None else 2_403)
        assert sum(a.size for a in calls) == budget, fx.label
        for n in names:
            got = counted[n].calls
            assert len(got) == 1 and np.array_equal(got[0], lattice), (
                fx.label, n)
