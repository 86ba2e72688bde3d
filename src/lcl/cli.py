"""Command line interface.

Subcommands: synth (integrate a profile to a CSV trace), classify (full
report for one profile), verify (regression suite), oracle (nullspace
detection only), sweep (parameter grids to CSV). JSON output is
deterministic: sorted keys, no timestamps, shortest round-trip floats.

Exit codes: 0 success, 1 fixture failures from verify, 2 input or
configuration validation errors (unreadable files included), 3 numerical
failures; each error class names its code as `exit_status`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import os
import sys
from typing import Optional

from .classifier import Tolerances, classify_profile, oracle_detect
from .errors import ConfigError, LclError
from .frames import frame_family
from .integrator import check_step, integrate_frame, write_trace_csv
from .profiles import as_float, is_number, load_profile, read_json_file
from .suite import DEFAULT_SEED, GENERATORS, generate, load_suite
from .verifier import render_table, run_theorem_suite

log = logging.getLogger("lcl.cli")


def _dumps(obj, pretty: bool) -> str:
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (`lcl ... | head`); point stdout
            # at devnull so the flush at exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())


def _tolerances(args) -> Tolerances:
    kw = {}
    if getattr(args, "tol_cond", None) is not None:
        kw["eps_cond"] = args.tol_cond
    if getattr(args, "tol_axis", None) is not None:
        kw["eps_axis"] = args.tol_axis
    return Tolerances(**kw)


def _add_common(sub, tols: bool = True) -> None:
    sub.add_argument("--h", type=float, default=None,
                     help="integration step (default: span/1000)")
    if tols:
        sub.add_argument("--tol-cond", type=float, default=None,
                         help="relative residual tolerance for checks")
        sub.add_argument("--tol-axis", type=float, default=None,
                         help="axis constancy tolerance")


def _add_profile_arg(sub) -> None:
    sub.add_argument("profile", nargs="?", default=None,
                     help="profile JSON file")
    sub.add_argument("-p", "--profile", dest="profile_opt", default=None,
                     help="profile JSON file (alternative to the positional)")


def _profile_path(args) -> str:
    path = args.profile_opt or args.profile
    if path is None:
        raise ConfigError("a profile JSON file is required "
                          "(positional or -p)")
    return path


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lcl",
        description="Curvature-profile laboratory for spacelike curves "
                    "with null frame directions")
    sub = ap.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="integrate a profile to a CSV trace")
    _add_profile_arg(synth)
    synth.add_argument("-o", "--output", default=None,
                       help="output CSV (default: <profile>_trace.csv)")
    synth.add_argument("--emit-gnuplot", action="store_true",
                       help="also write a gnuplot script next to the CSV")
    _add_common(synth, tols=False)

    cls = sub.add_parser("classify", help="classify one profile")
    _add_profile_arg(cls)
    cls.add_argument("--json", action="store_true", dest="as_json",
                     help="compact deterministic JSON (the default)")
    cls.add_argument("--pretty", action="store_true",
                     help="human-readable report instead of JSON")
    cls.add_argument("-o", "--output", default=None)
    _add_common(cls)

    ver = sub.add_parser("verify", help="run the regression suite")
    ver.add_argument("--suite", default=None,
                     help="suite JSON file (default: bundled fixtures)")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="non-negative seed of the bundled suite")
    ver.add_argument("--json", action="store_true", dest="as_json")
    ver.add_argument("--pretty", action="store_true",
                     help="indented JSON (implies --json)")
    ver.add_argument("-o", "--output", default=None)
    _add_common(ver)

    orc = sub.add_parser("oracle", help="nullspace axis detection only")
    _add_profile_arg(orc)
    orc.add_argument("--k", type=int, choices=(0, 1, 2, 3), default=None,
                     help="frame row to test (default: all four)")
    orc.add_argument("--json", action="store_true", dest="as_json")
    orc.add_argument("--pretty", action="store_true",
                     help="indented JSON (implies --json)")
    orc.add_argument("-o", "--output", default=None)
    # the oracle reads no condition residual, so it takes no --tol-cond
    _add_common(orc, tols=False)
    orc.add_argument("--tol-axis", type=float, default=None,
                     help="axis constancy tolerance")

    swp = sub.add_parser("sweep", help="classify a parameter grid to CSV")
    swp.add_argument("spec", help="sweep specification JSON file")
    swp.add_argument("-o", "--output", required=True, help="output CSV")
    _add_common(swp)
    return ap


def cmd_synth(args) -> int:
    path = _profile_path(args)
    profile = load_profile(path)
    trace = integrate_frame(profile, h=args.h)
    out = args.output
    if out is None:
        stem, _ = os.path.splitext(path)
        out = stem + "_trace.csv"
    write_trace_csv(trace, out)
    _emit(f"wrote {trace.n} samples to {out} "
          f"(max Gram residual {trace.max_gram_residual:.3e})", None)
    if args.emit_gnuplot:
        gp = os.path.splitext(out)[0] + ".gp"
        with open(gp, "w", encoding="utf-8") as fh:
            fh.write(_gnuplot_script(os.path.basename(out)))
        _emit(f"wrote {gp}", None)
    return 0


def _gnuplot_script(csv_name: str) -> str:
    return (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set title 'spatial projection (x2, x3, x4)'\n"
        f"splot '{csv_name}' using 3:4:5 with lines\n"
        "pause -1 'press enter for the Gram residual plot'\n"
        "set title 'frame orthonormality drift'\n"
        "set logscale y\n"
        f"plot '{csv_name}' using 1:22 with lines\n"
        "pause -1\n"
    )


def cmd_classify(args) -> int:
    profile = load_profile(_profile_path(args))
    report = classify_profile(profile, h=args.h, tol=_tolerances(args))
    if args.pretty and not args.as_json:
        _emit(_render_report(report), args.output)
    else:
        _emit(_dumps(report.to_json_dict(), pretty=False), args.output)
    return 0


def _render_report(report) -> str:
    lines = [f"profile : {report.label or '(unlabeled)'}",
             f"kind    : {report.kind.value}",
             f"max Gram residual : {report.max_gram_residual:.3e}",
             "verdicts:"]
    for k in range(4):
        ora = report.oracle[k]
        agree = "agrees" if report.agreement[k] else "DISAGREES"
        lines.append(f"  k{k}: {report.verdicts[k].value:<12} (residual "
                     f"{report.condition_residuals[k]:.3e}; "
                     f"oracle {ora.verdict.value}, sigma_min "
                     f"{ora.sigma_min:.3e}, {agree})")
    if report.constants:
        lines.append("constants:")
        lines.extend(f"  {name} = {value!r}"
                     for name, value in sorted(report.constants.items()))
    if report.axes:
        lines.append("axes:")
        for cand, val in report.axes:
            mark = "ok" if val.passed else "FAILED"
            u = ", ".join(f"{x:.6g}" for x in cand.u_at_start())
            lines.append(f"  k{cand.k} [{cand.source}] ({u}) "
                         f"max_dU {val.max_du:.3e} g_var {val.g_variance:.3e} "
                         f"{mark}")
    if report.pseudohyperbolic:
        hyp = report.pseudohyperbolic
        lines.append(f"pseudohyperbolic family: {hyp['is_h3_family']}"
                     + (f" (c = {hyp['c_ratio']})" if hyp["is_h3_family"] else ""))
    if report.flags:
        lines.append("flags:")
        lines.extend(f"  ! {f}" for f in report.flags)
    return "\n".join(lines)


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    fixtures = None
    if args.suite is not None:
        fixtures = load_suite(args.suite)
        if not fixtures:
            print("warning: suite file contains zero fixtures; "
                  "nothing to verify", file=sys.stderr)
            return 0
    summary = run_theorem_suite(fixtures=fixtures, seed=args.seed,
                                tol=_tolerances(args), h=args.h)
    if args.as_json or args.pretty:
        _emit(_dumps(summary.to_json_dict(), args.pretty), args.output)
    else:
        _emit(render_table(summary), args.output)
    log.info("suite runtime %.2f s", summary.runtime)
    return 0 if summary.passed else 1


def cmd_oracle(args) -> int:
    profile = load_profile(_profile_path(args))
    trace = integrate_frame(profile, h=args.h)
    results = oracle_detect(trace, _tolerances(args))
    if args.k is not None:
        results = {args.k: results[args.k]}
    if args.as_json or args.pretty:
        payload = {f"k{k}": r.to_json_dict() for k, r in results.items()}
        _emit(_dumps(payload, args.pretty), args.output)
    else:
        lines = []
        for k, r in results.items():
            u = (", ".join(f"{x:.6g}" for x in r.vector)
                 if r.vector is not None else "none")
            note = f" [{r.note}]" if r.note else ""
            lines.append(f"k{k}: {r.verdict.value:<3} sigma_min "
                         f"{r.sigma_min:.3e} threshold {r.threshold:.3e} "
                         f"U = ({u}){note}")
        _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------
# sweep

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def cmd_sweep(args) -> int:
    import csv as _csv

    spec = read_json_file(args.spec)
    if not isinstance(spec, dict):
        raise ConfigError("sweep spec must be a JSON object")
    family = spec.get("family")
    if not isinstance(family, str) or family not in GENERATORS:
        raise ConfigError(f"sweep spec needs a family in {list(GENERATORS)}")
    domain = spec.get("domain")
    if not (isinstance(domain, list) and len(domain) == 2
            and all(map(is_number, domain))
            and -math.inf < as_float(domain[0], "sweep domain endpoint")
            < as_float(domain[1], "sweep domain endpoint") < math.inf):
        raise ConfigError("sweep spec needs a domain [s_min, s_max], "
                          f"got {domain!r}")
    lo, hi = map(float, domain)
    raw_params = spec.get("parameters")
    if not isinstance(raw_params, dict) or not raw_params:
        raise ConfigError("sweep spec needs a non-empty parameters object")
    gen = GENERATORS[family]
    required, optional = gen.required, tuple(gen.optional)
    if not set(required) <= set(raw_params) <= set(required + optional):
        raise ConfigError(
            f"sweep family {family!r} takes parameters {list(required)}"
            + (f" and optionally {list(optional)}" if optional else "")
            + f", got {sorted(raw_params)}")
    names = sorted(raw_params)
    values = []
    for name in names:
        vals = raw_params[name]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"parameter {name!r} must map to a non-empty list")
        # a parameter with an expression default takes expressions too
        takes_expr = isinstance(gen.optional.get(name), str)
        for v in vals:
            number = is_number(v) and math.isfinite(
                as_float(v, f"parameter {name!r} value"))
            if not (number or takes_expr and isinstance(v, str)):
                raise ConfigError(
                    f"parameter {name!r} values must be finite numbers"
                    + (" or expression strings" if takes_expr else "")
                    + f", got {v!r}")
        values.append(vals)
    pert = spec.get("sigma_perturbation")
    scales = [None]
    if pert is not None:
        if frame_family(gen.kind).gauge[0] == "sigma":
            raise ConfigError("sigma perturbations only apply to pseudo "
                              "null families")
        if not isinstance(pert, dict) or "expr" not in pert:
            raise ConfigError("sigma_perturbation needs an expr")
        raw_scales = pert.get("scales", [1.0])
        scales = ([as_float(x, "sigma_perturbation scale")
                   for x in raw_scales]
                  if isinstance(raw_scales, list)
                  and all(map(is_number, raw_scales)) else [])
        if not (scales and all(map(math.isfinite, scales))):
            raise ConfigError("sigma_perturbation scales must be a non-empty "
                              "list of finite numbers")

    tol = _tolerances(args)
    header = (["family"] + names + ["perturbation_scale", "status",
               "k0", "k1", "k2", "k3", "residual_k1", "residual_k2",
               "sigma_min_k0", "sigma_min_k1", "sigma_min_k2",
               "sigma_min_k3", "agree_k0", "agree_k1", "agree_k2",
               "agree_k3", "max_gram_residual"])
    rows = []
    for combo in itertools.product(*values):
        params = dict(zip(names, combo))
        for scale in scales:
            extra = None
            scale_out = 0.0
            if scale is not None and scale != 0.0:
                extra = f"{scale!r}*({pert['expr']})"
                scale_out = scale
            row = [family] + [_fmt(v) for v in combo] + [_fmt(scale_out)]
            try:
                profile = generate(family, params, (lo, hi),
                                   sigma_extra=extra).profile
                report = classify_profile(profile, h=args.h, tol=tol)
            except Exception as exc:
                row += [f"error: {exc}"] + [""] * (len(header) - len(row) - 1)
                rows.append(row)
                continue
            row.append("ok")
            row += [report.verdicts[k].value for k in range(4)]
            row += [_fmt(report.condition_residuals[1]),
                    _fmt(report.condition_residuals[2])]
            row += [_fmt(report.oracle[k].sigma_min) for k in range(4)]
            row += [str(report.agreement[k]) for k in range(4)]
            row.append(_fmt(report.max_gram_residual))
            rows.append(row)

    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _emit(f"wrote {len(rows)} rows to {args.output}", None)
    return 0


_COMMANDS = {"synth": cmd_synth, "classify": cmd_classify,
             "verify": cmd_verify, "oracle": cmd_oracle, "sweep": cmd_sweep}


def _configure_logging() -> None:
    level = os.environ.get("LCL_LOG", "error").strip().lower()
    chosen = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}.get(level, logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=chosen,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: Optional[list] = None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        # every subcommand takes --h; h > span/10 fails per profile
        if args.h is not None:
            check_step(args.h)
        return _COMMANDS[args.command](args)
    except LclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_status
    except OSError as exc:
        # input files and -o targets
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
