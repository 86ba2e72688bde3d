"""Command line surface: exit codes, JSON determinism, file outputs."""

import csv
import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from lcl import (CurvatureProfile, classify_profile, cli, errors,
                 integrate_frame)
from lcl.cli import main
from lcl.errors import LclError, ProfileError
from lcl.frames import FrameKind
from lcl.profiles import require_family_rules
from lcl.suite import GENERATORS, generate

CIRCLE = {"kind": "partially_null", "kappa": "1", "tau": "1",
          "domain": [0.0, 6.283185307179586], "label": "circle"}
QUAD = {"kind": "pseudo_null", "tau": "2", "sigma": "-s^2 + s",
        "domain": [0.0, 1.0], "label": "quad"}


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(CIRCLE))
    return str(path)


@pytest.fixture()
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(QUAD))
    return str(path)


def test_synth_writes_expected_row_count(circle_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["synth", circle_file, "-o", str(out), "--h", "1e-3"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6285  # header and 6284 samples
    assert "wrote 6284 samples" in capsys.readouterr().out


def test_synth_profile_flag_and_default_output(circle_file, tmp_path,
                                               capsys):
    rc = main(["synth", "-p", circle_file])
    assert rc == 0
    default_out = circle_file.replace(".json", "_trace.csv")
    assert "circle_trace.csv" in capsys.readouterr().out
    import os
    assert os.path.exists(default_out)


def test_synth_gnuplot_script(circle_file, tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = main(["synth", circle_file, "-o", str(out), "--emit-gnuplot"])
    assert rc == 0
    script = (tmp_path / "t.gp").read_text()
    assert "splot" in script and "t.csv" in script


def test_classify_default_output_is_compact_json(circle_file, capsys):
    rc = main(["classify", circle_file])
    assert rc == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["verdicts"] == {"k0": "Yes", "k1": "Yes", "k2": "Yes",
                               "k3": "Yes"}
    # compact separators, sorted keys, single line
    assert "\n" not in out.strip()
    assert '", "' not in out


def test_classify_json_flag_is_byte_identical_across_runs(circle_file,
                                                          capsys):
    main(["classify", circle_file, "--json"])
    first = capsys.readouterr().out
    main(["classify", circle_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_classify_pretty_renders_a_report(quad_file, capsys):
    rc = main(["classify", quad_file, "--pretty"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profile : quad" in out
    assert "verdicts:" in out
    assert "k1: Yes" in out


def test_classify_pretty_prints_each_constant_as_name_and_value(quad_file,
                                                               capsys):
    assert main(["classify", quad_file, "--pretty"]) == 0
    lines = capsys.readouterr().out.splitlines()
    constants = classify_profile(CurvatureProfile.from_json_dict(QUAD)
                                 ).constants
    start = lines.index("constants:") + 1
    assert lines[start:start + len(constants)] == [
        f"  {name} = {value!r}" for name, value in sorted(constants.items())]
    assert lines[start + len(constants)] == "axes:"


def test_classify_output_file(quad_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["classify", quad_file, "-o", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["kind"] == "pseudo_null"


def test_classify_requires_a_profile_somewhere(capsys):
    rc = main(["classify"])
    assert rc == 2
    assert "profile" in capsys.readouterr().err


def test_missing_file_is_a_validation_error(capsys):
    rc = main(["classify", "/nonexistent/prof.json"])
    assert rc == 2


def test_bad_expression_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "partially_null", "kappa": "sin(s",
                                "tau": "1", "domain": [0.0, 1.0]}))
    rc = main(["classify", str(path)])
    assert rc == 2
    assert "offset 5" in capsys.readouterr().err


def test_vanishing_tau_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "partially_null", "kappa": "1",
                                "tau": "s - 0.5", "domain": [0.0, 1.0]}))
    rc = main(["classify", str(path)])
    assert rc == 2


_OFF_GRID = "0.5 + sin(256*pi*s)"
_BETWEEN = "0.5 + sin(1000*pi*s)"
_PSN_SIGMA = "-s^2/2 + 0.3*s - 0.5"


def _rule_breakers(wave, kappa_off):
    return [{"kind": "partially_null", "kappa": wave, "tau": "1"},
            {"kind": "partially_null", "kappa": "1", "tau": wave},
            {"kind": "pseudo_null", "tau": wave, "sigma": _PSN_SIGMA},
            {"kind": "pseudo_null", "kappa": kappa_off, "tau": "1",
             "sigma": _PSN_SIGMA}]


@pytest.mark.parametrize("profile, on_loader_grid", [
    *((p, True) for p in _rule_breakers(_OFF_GRID, "1 + 1e-3*sin(256*pi*s)")),
    *((p, False) for p in _rule_breakers(_BETWEEN, "1 + 1e-3*sin(1000*pi*s)")),
], ids=["pn-kappa-sign", "pn-tau-sign", "psn-tau-sign", "psn-kappa-off",
        "pn-kappa-sign-lattice", "pn-tau-sign-lattice", "psn-tau-sign-lattice",
        "psn-kappa-off-lattice"])
def test_a_rule_broken_between_coarse_samples_is_a_validation_error(
        profile, on_loader_grid, tmp_path, capsys):
    # each rule holds at s = i/256 and fails between those points, where
    # the suite loader's 1001 points and the lattice see it; or it holds
    # at every loader point s = i/1000 and fails at the midpoints, which
    # only the half-step integration lattice, the values the checks read,
    # evaluates
    profile = dict(profile, domain=[0.0, 1.0])
    p = CurvatureProfile.from_json_dict(profile)
    if not on_loader_grid:
        require_family_rules(
            p, *p.evaluate_arrays(np.linspace(0.0, 1.0, 1001)))
    with pytest.raises(ProfileError):
        integrate_frame(p)
    path = tmp_path / "off.json"
    path.write_text(json.dumps(profile))
    for cmd in ("classify", "synth"):
        assert main([cmd, str(path), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), cmd


def test_zero_step_is_a_validation_error(circle_file, tmp_path, capsys):
    # one error line before any profile is classified, and no CSV
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_SWEEP))
    out = tmp_path / "out.csv"
    for h in ("0", "-1", "nan"):
        for argv in (["classify", circle_file], ["verify"],
                     ["sweep", str(spec), "-o", str(out)]):
            assert main(argv + ["--h", h]) == 2, argv
            assert capsys.readouterr().err.splitlines() == [
                f"error: step h must be positive and finite, got {float(h)}"]
    assert not out.exists()


def test_meaningless_tolerance_is_a_validation_error(circle_file, capsys):
    assert main(["classify", circle_file, "--tol-cond", "-1"]) == 2
    assert "error: tolerance eps_cond" in capsys.readouterr().err
    assert main(["classify", circle_file, "--tol-cond", "1e-3"]) == 0


_PROFILE = {"kind": "partially_null", "kappa": "1", "tau": "1",
            "domain": [0.0, 1.0]}
_SWEEP = {"family": "pn-constant", "domain": [0.0, 1.0],
          "parameters": {"kappa": [1.0], "tau": [1.0]}}
_HUGE = 10**400  # 401 digits: json writes it as an integer literal


@pytest.mark.parametrize("cmd, payload", [
    ("classify", dict(_PROFILE, domain=["a", 1])),
    ("classify", dict(_PROFILE, tau={"s": [0.0, 1.0], "values": "ab"})),
    ("verify", [{"profile": _PROFILE, "expected": "Y"}]),
    ("verify", [{"profile": _PROFILE, "expected": {"k5": "Y"}}]),
    ("verify", [{"profile": _PROFILE, "expected": {"1": "N"}}]),
    ("verify", [{"label": ["a"], "profile": _PROFILE}]),
    ("verify", [{"profile": dict(_PROFILE, label={"x": 1})}]),
    ("classify", dict(_PROFILE, label=3)),
    ("sweep", [_SWEEP]),
    ("sweep", dict(_SWEEP, domain=["a", 1])),
    ("sweep", dict(_SWEEP, parameters={"kappa": [1], "tua": [1]})),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": "ab"}}),
    ("sweep", dict(_SWEEP, domain=[0.3, float("inf")])),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": []}}),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": [float("inf")]}}),
    ("classify", dict(_PROFILE, tau="log(s)")),
    ("oracle", dict(_PROFILE, tau="log(s)")),
    ("synth", dict(_PROFILE, tau="log(s)")),
    ("classify", dict(_PROFILE, kappa=float("nan"))),
    ("classify", b"\xff\xfe not utf-8"),
    ("verify", b"\xff\xfe not utf-8"),
    ("sweep", b"\xff\xfe not utf-8"),
    # a JSON bool or numeric string is not a number, though float() takes it
    ("classify", dict(_PROFILE, domain=[False, True])),
    ("classify", dict(_PROFILE, domain=["0", "1"])),
    ("verify", [{"profile": dict(_PROFILE, domain=[False, True])}]),
    ("verify", [{"profile": dict(_PROFILE, domain=["0", "1"])}]),
    ("classify", dict(_PROFILE, kappa=True)),
    ("classify", dict(_PROFILE, tau={"s": [False, True],
                                     "values": [1.0, 2.0]})),
    ("classify", dict(_PROFILE, tau={"s": [0.0, 1.0],
                                     "values": ["0.1", "0.2"]})),
    ("sweep", dict(_SWEEP, domain=[False, True])),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": [True]}}),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": ["0.5"]}}),
    # a JSON integer too large for a float, which float() cannot convert
    ("classify", dict(_PROFILE, domain=[0, _HUGE])),
    ("classify", dict(_PROFILE, kappa=_HUGE)),
    ("classify", dict(_PROFILE, tau={"s": [0.0, 1.0],
                                     "values": [1.0, _HUGE]})),
    ("verify", [{"profile": dict(_PROFILE, domain=[0, _HUGE])}]),
    ("sweep", dict(_SWEEP, domain=[0.3, _HUGE])),
    ("sweep", {"family": "psn-quadratic", "domain": [0.0, 1.0],
               "parameters": {"a": [0.3], "b": [0.1]},
               "sigma_perturbation": {"expr": "s", "scales": [_HUGE]}}),
    # past Python's 4300-digit limit json.load itself refuses the literal
    ("classify", b'{"kind": "partially_null", "kappa": "1", "tau": "1", '
                 b'"domain": [0, 1' + b"0" * 5000 + b"]}"),
], ids=["profile-domain", "table-values", "suite-expected",
        "suite-expected-k5", "suite-expected-1", "suite-label",
        "suite-profile-label", "profile-label", "sweep-array", "sweep-domain",
        "sweep-param-name", "sweep-scales", "sweep-infinite-domain",
        "sweep-no-scales", "sweep-infinite-scale", "classify-log", "oracle-log", "synth-log",
        "nan-kappa", "classify-bytes", "verify-bytes", "sweep-bytes",
        "profile-domain-bool", "profile-domain-string", "suite-domain-bool",
        "suite-domain-string", "bool-kappa", "table-s-bool",
        "table-values-string", "sweep-domain-bool", "sweep-scales-bool",
        "sweep-scales-string", "profile-domain-huge", "huge-kappa",
        "table-values-huge", "suite-domain-huge", "sweep-domain-huge",
        "sweep-scales-huge", "classify-past-digit-limit"])
def test_malformed_input_file_is_a_validation_error(cmd, payload, tmp_path,
                                                    capsys):
    path = tmp_path / "input.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))  # json writes nan as NaN
    argv = {"classify": ["classify", str(path)],
            "oracle": ["oracle", str(path)],
            "synth": ["synth", str(path), "-o", str(tmp_path / "x.csv")],
            "verify": ["verify", "--suite", str(path)],
            "sweep": ["sweep", str(path), "-o", str(tmp_path / "x.csv")]}
    assert main(argv[cmd]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x.csv").exists()


_ERROR_CLASSES = [obj for obj in vars(errors).values()
                  if isinstance(obj, type) and issubclass(obj, LclError)]


@pytest.mark.parametrize("cls", _ERROR_CLASSES,
                         ids=[c.__name__ for c in _ERROR_CLASSES])
def test_every_error_class_has_its_exit_status(cls, monkeypatch,
                                               circle_file, capsys):
    want = 3 if cls in (errors.IntegrationError, errors.FrameError) else 2
    assert cls.exit_status == want

    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "load_profile", fail)
    assert main(["classify", circle_file]) == want
    assert capsys.readouterr().err == "error: boom\n"


def test_output_into_a_missing_directory_is_a_validation_error(
        circle_file, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["classify", circle_file, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_gram_drift_abort_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(_PROFILE, kappa="1e60")))
    assert main(["synth", str(path), "--h", "0.1"]) == 3
    assert capsys.readouterr().err.startswith("error: Gram drift")


def _run_cli(argv):
    # a fresh interpreter, so warnings print as they would for a user
    return subprocess.run([sys.executable, "-m", "lcl.cli"] + argv,
                          capture_output=True, text=True, timeout=120)


def test_an_overflowing_profile_prints_only_its_error(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(_PROFILE, kappa=1e308)))
    proc = _run_cli(["classify", str(path)])
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "error: Gram drift nan exceeded 0.001 at step 1 (s = 0.001); "
        "reduce h or check the profile"]


def test_an_overflowing_sweep_row_writes_nothing_to_stderr(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "out.csv"
    spec.write_text(json.dumps(dict(_SWEEP, parameters={"kappa": [1e308],
                                                        "tau": [1.0]})))
    proc = _run_cli(["sweep", str(spec), "-o", str(out)])
    assert proc.returncode == 0
    assert proc.stderr == ""
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"].startswith("error: Gram drift nan")


@pytest.mark.parametrize("cmd", ["synth", "classify", "oracle"])
def test_drift_option_is_rejected(cmd, circle_file, capsys):
    # RK4 with the Gram-drift abort is the only integration mode
    with pytest.raises(SystemExit) as exc:
        main([cmd, circle_file, "--drift", "monitor"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --drift" in capsys.readouterr().err


def test_oracle_all_rows(circle_file, capsys):
    rc = main(["oracle", circle_file, "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"k0", "k1", "k2", "k3"}
    assert all(obj[k]["verdict"] == "Yes" for k in obj)


def test_oracle_single_row_human_output(circle_file, capsys):
    rc = main(["oracle", circle_file, "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("k2: Yes")
    assert "indicatrix constant" in out


def test_oracle_takes_no_condition_tolerance(circle_file, capsys):
    # the oracle reads no condition residual, so --tol-cond is refused
    with pytest.raises(SystemExit) as exc:
        main(["oracle", circle_file, "--tol-cond", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-cond" in capsys.readouterr().err


def test_oracle_accepts_the_axis_tolerance(circle_file, capsys):
    assert main(["oracle", circle_file, "--tol-axis", "1e-3", "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"k0", "k1", "k2", "k3"}


def test_oracle_single_row_is_the_batched_row(quad_file, capsys):
    assert main(["oracle", quad_file, "--json"]) == 0
    every = json.loads(capsys.readouterr().out)
    for k in range(4):
        assert main(["oracle", quad_file, "--json", "--k", str(k)]) == 0
        assert json.loads(capsys.readouterr().out) == {f"k{k}": every[f"k{k}"]}


def test_verify_negative_seed_is_a_validation_error(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["verify", "synth"])
def test_a_closed_pipe_exits_quietly(cmd, circle_file, tmp_path):
    # the reader is gone before any output, as in `lcl verify --json | head`
    argv = (["verify", "--json"] if cmd == "verify"
            else ["synth", circle_file, "-o", str(tmp_path / "t.csv")])
    proc = subprocess.Popen([sys.executable, "-m", "lcl.cli"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err


def test_verify_small_suite_pass_and_fail(tmp_path, capsys):
    suite = [{"label": "good",
              "profile": {"kind": "partially_null", "kappa": "2", "tau": "6",
                          "domain": [0.0, 1.0]},
              "expected": {"k0": "Y", "k1": "Y", "k2": "Y", "k3": "Y"}}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    rc = main(["verify", "--suite", str(path)])
    assert rc == 0
    assert "1 passed, 0 failed" in capsys.readouterr().out

    suite[0]["expected"]["k0"] = "N"
    path.write_text(json.dumps(suite))
    rc = main(["verify", "--suite", str(path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_verify_missing_or_null_labels_keep_their_defaults(tmp_path, capsys):
    profile = {"kind": "partially_null", "kappa": "2", "tau": "6",
               "domain": [0.0, 1.0]}
    suite = [{"label": None, "profile": dict(profile, label=None)},
             {"profile": dict(profile, label="named")}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", "--suite", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in report["fixtures"]] == ["fixture-0", "named"]


def test_a_null_profile_label_classifies_like_an_omitted_one(tmp_path,
                                                              capsys):
    out = []
    for name, profile in (("null", dict(_PROFILE, label=None)),
                          ("omitted", _PROFILE)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(profile))
        assert main(["classify", str(path), "--json"]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    assert json.loads(out[0])["label"] == ""


def test_verify_empty_suite_warns_and_exits_zero(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    rc = main(["verify", "--suite", str(path)])
    assert rc == 0
    assert "zero fixtures" in capsys.readouterr().err


def test_verify_malformed_suite_is_a_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["verify", "--suite", str(path)])
    assert rc == 2


def test_verify_suite_input_error_exits_2_naming_the_fixture(tmp_path,
                                                           capsys):
    # a fixture whose profile fails validation is an input error, not a
    # fixture failure; a profile that integrates badly stays a crash
    suite = [{"label": "good", "profile": _PROFILE},
             {"label": "log-tau", "profile": dict(_PROFILE, tau="log(s)")}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["verify", "--suite", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: suite entry 1 ('log-tau'): ")

    path.write_text(json.dumps([{"label": "drift", "profile": dict(
        _PROFILE, kappa="1e60")}]))
    assert main(["verify", "--suite", str(path), "--h", "0.1"]) == 1
    assert "! crash: IntegrationError" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["classify", "verify", "sweep"])
def test_undecodable_input_file_error_names_the_file(cmd, tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe not utf-8")
    argv = {"classify": ["classify", str(path)],
            "verify": ["verify", "--suite", str(path)],
            "sweep": ["sweep", str(path), "-o", str(tmp_path / "x.csv")]}
    assert main(argv[cmd]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_sweep_writes_grid_csv(tmp_path):
    spec = {"family": "pn-constant", "domain": [0.0, 1.0],
            "parameters": {"kappa": [1.0, 2.0], "tau": [1.0, 3.0]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    rc = main(["sweep", str(spec_path), "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header and 2x2 combinations
    header = lines[0].split(",")
    assert header[:4] == ["family", "kappa", "tau", "perturbation_scale"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "pn-constant"
        assert cells[4] == "ok"
        assert cells[5] == "Yes"  # constant ratio is always 0-type


def test_sweep_perturbation_scales_add_rows(tmp_path):
    spec = {"family": "psn-quadratic", "domain": [0.0, 1.0],
            "parameters": {"a": [0.3], "b": [0.1], "tau": ["1"]},
            "sigma_perturbation": {"expr": "sin(3*s)",
                                   "scales": [0.0, 1e-3]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    rc = main(["sweep", str(spec_path), "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    base = lines[1].split(",")
    bent = lines[2].split(",")
    k1_col = lines[0].split(",").index("k1")
    assert base[k1_col] == "Yes"
    assert bent[k1_col] == "No"  # the perturbation breaks the quadratic


def test_sweep_h3_family_takes_a_perturbation(tmp_path):
    spec = {"family": "h3-exponential", "domain": [0.0, 1.0],
            "parameters": {"c": [-2.0], "lam": [1.0], "mu": [0.5]},
            "sigma_perturbation": {"expr": "s^3", "scales": [0.0, 1e-3]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    header, base, bent = (line.split(",")
                          for line in out.read_text().splitlines())
    k2_col = header.index("k2")
    assert base[k2_col] == "Yes"  # the exponential tau form is 2-type
    assert bent[k2_col] == "No"


# sweep parameter values are numbers, or expressions where the family's
# default is one
@pytest.mark.parametrize("parameters", [
    {"kappa": [True], "tau": [1.0]},
    {"kappa": [1.0], "tau": ["2", "s"]},
    {"kappa": [1.0], "tau": [_HUGE]},
    {"kappa": [float("nan")], "tau": [1.0]},
    {"kappa": [1.0], "tau": [float("inf")]},
    {"a": [0.2], "b": ["0.1"]},
    {"a": [0.2], "b": [0.1], "tau": ["exp(s)", None]},
], ids=["bool", "string", "huge", "nan", "inf", "psn-string", "psn-null"])
def test_sweep_checks_parameter_values_before_classifying(
        parameters, tmp_path, capsys, monkeypatch):
    def no_classify(*args, **kwargs):
        raise AssertionError("a profile was classified")

    monkeypatch.setattr(cli, "classify_profile", no_classify)
    family = "psn-quadratic" if "a" in parameters else "pn-constant"
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({"family": family, "domain": [0.3, 1.5],
                                     "parameters": parameters}))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_sweep_takes_expressions_where_the_default_is_one(tmp_path):
    # psn-quadratic's tau defaults to the expression "1"
    spec = {"family": "psn-quadratic", "domain": [0.3, 1.5],
            "parameters": {"a": [0.2], "b": [-0.9], "tau": ["exp(s)", 2]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["tau"], r["status"], r["k1"]) for r in rows] == [
        ("exp(s)", "ok", "Yes"), ("2", "ok", "Yes")]


def test_sweep_rejects_perturbation_for_partially_null(tmp_path, capsys):
    spec = {"family": "pn-constant", "domain": [0.0, 1.0],
            "parameters": {"kappa": [1.0], "tau": [1.0]},
            "sigma_perturbation": {"expr": "s", "scales": [0.1]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", str(spec_path), "-o", str(tmp_path / "x.csv")])
    assert rc == 2


# one parameter point per GENERATORS row
_ROW_POINTS = {"pn-constant": {"kappa": [1.2], "tau": [-0.7]},
               "pn-ratio": {"a": [0.8], "b": [0.5], "ratio": [1.3]},
               "pn-affine": {"kappa": [1.1], "C": [0.9], "c0": [0.3]},
               "pn-affine-poly": {"C": [-1.2], "c0": [0.4]},
               "psn-quadratic": {"a": [0.2], "b": [-0.9], "tau": ["exp(s)"]},
               "h3-exponential": {"c": [-1.5], "lam": [1.0], "mu": [0.5]},
               "h3-type3": {"c": [-1.5], "lam": [0.1], "mu": [0.1]}}


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_sweep_builds_every_generator_row(family, tmp_path):
    # s_min != 0, so pn-affine's K is anchored away from the origin
    spec = {"family": family, "domain": [0.3, 1.5],
            "parameters": _ROW_POINTS[family]}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    assert row[header.index("status")] == "ok"
    fixed = {k: want for k, want in GENERATORS[family].expected.items()
             if want != "oracle"}
    assert fixed
    for k, want in fixed.items():
        assert row[header.index(f"k{k}")] == {"Y": "Yes", "N": "No"}[want]


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_sweep_perturbs_sigma_only_for_pseudo_null_rows(family, tmp_path,
                                                        capsys):
    spec = {"family": family, "domain": [0.3, 1.5],
            "parameters": _ROW_POINTS[family],
            "sigma_perturbation": {"expr": "s^3", "scales": [1e-3]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", str(spec_path), "-o", str(tmp_path / "x.csv")])
    if GENERATORS[family].kind is FrameKind.PARTIALLY_NULL:
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: sigma perturbations only apply to pseudo null families"]
    else:
        assert rc == 0


def test_h3_type3_past_its_singularity_is_an_evaluation_error(tmp_path,
                                                             capsys):
    # tau = v/sqrt(1 - c^2 v^2) is undefined where c^2 v^2 reaches 1
    spec = {"family": "h3-type3", "domain": [0.3, 1.5],
            "parameters": {"c": [-1.5], "lam": [0.1, 0.3], "mu": [0.1]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "grid.csv"
    assert main(["sweep", str(spec_path), "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["k3"] for r in rows] == ["Yes", ""]
    assert rows[1]["status"].startswith("error: expression ")
    profile = generate("h3-type3", {"c": -1.5, "lam": 0.3, "mu": 0.1},
                       (0.3, 1.5)).profile
    path = tmp_path / "past.json"
    path.write_text(json.dumps(profile.to_json_dict()))
    capsys.readouterr()
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is not finite at s = " in err[0]


def test_partially_null_sigma_rule_reads_the_integration_lattice(tmp_path,
                                                                 capsys):
    # sigma is 0 to roundoff at every point s = i/1000 and +-1e-2 at the
    # midpoints of the half-step lattice the integration reads
    profile = {"kind": "partially_null", "kappa": "1", "tau": "1",
               "sigma": "1e-2*sin(1000*pi*s)", "domain": [0, 1]}
    sigma = CurvatureProfile.from_json_dict(profile).evaluate_arrays(
        np.linspace(0.0, 1.0, 1001))[2]
    assert np.max(np.abs(sigma)) <= 1e-12
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(profile))
    assert main(["classify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: classification requires sigma = 0 for partially null "
        "profiles"]
    # integration itself takes any sigma
    assert main(["synth", str(path), "-o", str(tmp_path / "x.csv")]) == 0


def test_sweep_rejects_unknown_family(tmp_path):
    spec = {"family": "nonsense", "domain": [0.0, 1.0],
            "parameters": {"kappa": [1.0]}}
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec))
    rc = main(["sweep", str(spec_path), "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_console_script_is_installed(circle_file):
    proc = subprocess.run([sys.executable, "-m", "lcl.cli", "classify",
                           circle_file], capture_output=True, text=True)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["label"] == "circle"


def test_classify_runs_without_importing_scipy(tmp_path):
    s = np.linspace(0.0, 1.0, 41)
    profile = dict(QUAD, sigma={"s": s.tolist(), "values": (0.5 * s + 0.1).tolist()})
    path = tmp_path / "table.json"
    path.write_text(json.dumps(profile))
    script = textwrap.dedent("""
        import sys
        import lcl, lcl.cli
        assert lcl.cli.main(["classify", sys.argv[1]]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
    """)
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["label"] == "quad"
