"""Command-line front end.

Subcommands: ``run`` (scenario execution), ``catalog`` (built-in ids),
``fit`` (one model on a CSV file), ``mc`` (a Monte Carlo template).
Exit codes: 0 success, 2 validation, 3 runtime analysis failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import catalog_config, catalog_ids
from .config import (ScenarioConfig, _write_artifact, _write_output, artifact_json, check_out_path,
                     load_config, parse_config, run_scenario)
from .data import read_csv
from .errors import BiaslabError, Doc, ValidationError, shown
from .mc import summarize_series, write_mc_csv
from .regress import FitResult, Formula, fit

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ANALYSIS = 3
EXIT_IO = 4


def _sig6(v: float) -> str:
    if v != v:
        return "nan"
    return f"{v:.6g}"


def format_fit_table(name: str, result: FitResult) -> str:
    lines = [
        f"== {name}: {result.formula.text()} [{result.family}] "
        f"n={result.n_used} dropped={result.n_dropped}"
        + (f" R2={_sig6(result.r_squared)}" if result.r_squared is not None else "")
        + ("" if result.converged else "  (NOT CONVERGED)")
    ]
    # a space between every pair of columns keeps them apart when a value
    # (up to 13 characters from _sig6) or a term label overfills its width
    lines.append(f"{'term':<16} {'b':>13} {'SE':>13} {'stat':>11} {'p':>11} {'beta':>11}")
    for i, term in enumerate(result.terms):
        lines.append(
            f"{term:<16} {_sig6(result.b[i]):>13} {_sig6(result.se[i]):>13} "
            f"{_sig6(result.stat[i]):>11} {_sig6(result.p[i]):>11} {_sig6(result.beta[i]):>11}"
        )
    for j, cname in enumerate(result.cutpoint_names):
        lines.append(
            f"{cname:<16} {_sig6(result.cutpoints[j]):>13} {_sig6(result.cutpoint_se[j]):>13}"
        )
    return "\n".join(lines)


def _print_artifacts(run) -> None:
    for name, artifact in run.artifacts.items():
        if isinstance(artifact, FitResult):
            print(format_fit_table(name, artifact))
        else:
            print(f"== {name}")
            print(json.dumps(artifact_json(artifact), indent=2, default=str))
    for name, message in run.analysis_errors.items():
        print(f"== {name}: ERROR {message}", file=sys.stderr)


def _load_scenario(args) -> ScenarioConfig:
    """The scenario of ``--config`` or ``--catalog``, with ``--reps`` applied;
    ``--threads`` must be at least 1."""
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {shown(args.threads)}")
    if args.catalog and args.config:
        raise ValidationError("pass --config or --catalog, not both")
    if args.catalog:
        cfg = parse_config(catalog_config(args.catalog))
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ValidationError("one of --config PATH or --catalog ID is required")
    return cfg if args.reps is None else cfg.with_reps(args.reps)


def cmd_run(args) -> int:
    cfg = _load_scenario(args)
    run = run_scenario(cfg, out_dir=args.out, seed=args.seed, workers=args.threads,
                       default_format=args.format)
    _print_artifacts(run)
    if run.mc_result is not None:
        kept = len(run.mc_result)
        failed = len(run.mc_result.errors)
        print(f"== mc: {kept} replicates recorded ({failed} with errors), "
              f"template {run.mc_result.template_hash}")
    for path in run.files:
        print(f"wrote {path}")
    for path, name in run.skipped_outputs.items():
        print(f"skipped {path}: analysis {name!r} failed", file=sys.stderr)
    for path, message in run.output_errors.items():
        print(f"failed {path}: {message}", file=sys.stderr)
    # a skipped output always comes with an analysis error
    return EXIT_ANALYSIS if run.analysis_errors or run.output_errors else EXIT_OK


def cmd_catalog(_args) -> int:
    for ident in catalog_ids():
        print(ident)
    return EXIT_OK


def cmd_fit(args) -> int:
    data = read_csv(args.csv)
    formula = Formula.parse(args.formula)
    result = fit(data, formula, family=args.family)
    print(format_fit_table("fit", result))
    if args.json:
        _write_artifact(args.json, result, "json")
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = _load_scenario(args)
    if cfg.generator_kind != "mc":
        raise ValidationError(f"scenario {cfg.id!r} is not an mc template")
    if args.out:  # the loop is written to <--out>/<id>.csv
        check_out_path(Doc(f"{cfg.id}.csv", "id"))
    result = run_scenario(cfg, seed=args.seed, workers=args.threads).mc_result
    for series in result.series_names:
        try:
            s = summarize_series(result, series)
        except BiaslabError:
            continue
        print(
            f"{series:<12} min={_sig6(s.min)} q1={_sig6(s.q1)} median={_sig6(s.median)} "
            f"mean={_sig6(s.mean)} q3={_sig6(s.q3)} max={_sig6(s.max)}"
        )
    if args.out:
        path = os.path.join(args.out, f"{cfg.id}.csv")
        _write_output(lambda p, *_: write_mc_csv(result, p), path, None, result, {}, None)
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="biaslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="scenario config JSON path")
        p.add_argument("--catalog", help="built-in scenario id")
        p.add_argument("--seed", type=int, default=None, help="master seed (64-bit unsigned)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="json",
                       help="default format of the analysis: outputs")
        p.add_argument("--threads", type=int, default=1, help="processes for MC loops, this one counted (>= 1)")
        p.add_argument("--reps", type=int, default=None, help="override replicate count")

    p_run = sub.add_parser("run", help="run a scenario config")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cat = sub.add_parser("catalog", help="list built-in scenario ids")
    p_cat.set_defaults(func=cmd_catalog)

    p_fit = sub.add_parser("fit", help="fit one model on a CSV file")
    p_fit.add_argument("csv", help="CSV path (header row; empty field = missing)")
    p_fit.add_argument("--formula", required=True, help="e.g. 'Y ~ X + Z + X:Z + X^2'")
    p_fit.add_argument("--family", default="gaussian",
                       choices=("gaussian", "binomial", "ordered"))
    p_fit.add_argument("--json", default=None, help="also write the fit as JSON here")
    p_fit.set_defaults(func=cmd_fit)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo template")
    add_common(p_mc)
    p_mc.set_defaults(func=cmd_mc)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BiaslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
