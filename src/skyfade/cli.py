"""Command-line entry point.

Five subcommands cover the full workflow:

``skyfade simulate``  synthetic dataset + truth-model sidecar
``skyfade geometry``  annotate a measurement CSV with link geometry and SF
``skyfade fit``       estimate a correlation model from a training CSV
``skyfade predict``   Kriging predictions at target poses
``skyfade evaluate``  repeated-subsampling RMSE benchmark

Every command is deterministic for fixed inputs and seed; domain errors
exit with status 2 and a one-line message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataio
from .correlation import MODES, fit_correlation_model, load_model, save_model
from .errors import SchemaError, SkyfadeError, ValidationError
from .evaluation import run_evaluation
from .fieldsim import synthesize_dataset, truth_sidecar
from .kriging import predict_rsrp


def _parse_column_map(pairs) -> dict | None:
    if not pairs:
        return None
    mapping = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(
                f"--column-map expects canonical=actual, got {pair!r}"
            )
        canonical, actual = pair.split("=", 1)
        mapping[canonical] = actual
    return mapping


def _stem(out: Path) -> Path:
    """Sibling-path prefix for companion files of an output."""
    return out.with_suffix("") if out.suffix else out


def _load_config(args) -> tuple[dict, Path]:
    path = Path(args.config)
    return dataio.load_config(path), path.parent


def _ingest_options(config: dict, args) -> dict:
    section = dataio.config_section(config, "ingest")
    window = args.median_window
    if window is None:
        window = dataio.config_number(
            section, "median_window", "ingest.", 0, integer=True
        )
    column_map = _parse_column_map(getattr(args, "column_map", None))
    if column_map is None and "column_map" in section:
        column_map = dict(dataio.config_section(section, "column_map", "ingest."))
        for canonical, actual in column_map.items():
            if not isinstance(actual, str):
                path = f"ingest.column_map.{canonical}"
                raise SchemaError(
                    f"config field '{path}' must be a column name, got {actual!r}",
                    field=path,
                )
    return {
        "median_window": window,
        "column_map": column_map,
        "max_invalid_frac": dataio.config_number(
            section, "max_invalid_frac", "ingest.", 0.1
        ),
    }


def _fit_options(config: dict, args) -> dict:
    section = dataio.config_section(config, "fit")
    min_count = args.min_count
    if min_count is None:
        min_count = dataio.config_number(section, "min_count", "fit.", 30, integer=True)
    max_lag_m = None
    if section.get("max_lag_m") is not None:
        max_lag_m = dataio.config_number(section, "max_lag_m", "fit.")
    single_center = section.get("single_center", False)
    if not isinstance(single_center, bool):
        raise SchemaError(
            "config field 'fit.single_center' must be true or false,"
            f" got {single_center!r}",
            field="fit.single_center",
        )
    return {
        "max_lag_m": max_lag_m,
        "n_lags": dataio.config_number(section, "n_lags", "fit.", 24, integer=True),
        "min_count": min_count,
        "single_center": args.single_center or single_center,
        "nugget_factor": dataio.config_number(section, "nugget_factor", "fit.", 1e-6),
    }


def _warn_escalated(mode: str, what: str) -> None:
    print(
        f"warning: {mode}: {what} escalated the nugget above the model's"
        " (covariance not numerically positive definite)",
        file=sys.stderr,
    )


def cmd_geometry(args) -> int:
    config, base = _load_config(args)
    budget = dataio.budget_from_config(config, base)
    ingest = dataio.ingest_csv(args.input, budget, **_ingest_options(config, args))
    dataio.write_geometry_csv(args.out, ingest)
    for line, reason in ingest.skipped:
        print(f"skipped line {line}: {reason}", file=sys.stderr)
    print(
        f"{args.out}: {len(ingest.samples)} rows annotated,"
        f" {len(ingest.skipped)} skipped"
    )
    return 0


def cmd_fit(args) -> int:
    config, base = _load_config(args)
    budget = dataio.budget_from_config(config, base)
    bins = dataio.bins_from_config(config)
    options = _fit_options(config, args)
    ingest = dataio.ingest_csv(args.input, budget, **_ingest_options(config, args))
    fit = fit_correlation_model(ingest.samples, bins=bins, **options)

    out = Path(args.out)
    save_model(fit.model, out)
    stem = _stem(out)
    dataio.write_profile_csv(
        f"{stem}_tilt_profile.csv",
        fit.tilt_profile,
        "elev",
        "tilt",
        bins.elev_reps,
        bins.tilt_reps,
    )
    dataio.write_profile_csv(
        f"{stem}_elev_profile.csv",
        fit.elev_profile,
        "tilt",
        "elev",
        bins.tilt_reps,
        bins.elev_reps,
    )
    dataio.write_correlogram_csv(f"{stem}_correlogram.csv", fit.correlogram)
    dataio.write_coverage_report(f"{stem}_coverage.json", fit, ingest.skipped)
    for warning in fit.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{out}: model fitted from {len(ingest.samples)} samples")
    return 0


def cmd_predict(args) -> int:
    config, base = _load_config(args)
    budget = dataio.budget_from_config(config, base)
    model = load_model(args.model)
    options = _ingest_options(config, args)
    ingest = dataio.ingest_csv(args.input, budget, **options)
    targets, _rsrp = dataio.load_targets_csv(
        args.targets, budget, options["column_map"]
    )
    predictions = predict_rsrp(ingest.samples, targets, budget, model, args.mode)
    if predictions and predictions[0].nugget_used > model.nugget:
        _warn_escalated(args.mode, "the solve")
    dataio.write_predictions_csv(args.out, predictions)
    print(f"{args.out}: {len(predictions)} predictions ({args.mode})")
    return 0


def cmd_evaluate(args) -> int:
    config, base = _load_config(args)
    budget = dataio.budget_from_config(config, base)
    model = load_model(args.model)
    eval_config = dataio.eval_from_config(config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["modes"] = tuple(m.strip() for m in args.mode.split(","))
    if overrides:
        eval_config = dataclasses.replace(eval_config, **overrides)
    ingest = dataio.ingest_csv(args.input, budget, **_ingest_options(config, args))
    result = run_evaluation(ingest.samples, model, eval_config)
    stem = _stem(Path(args.out))
    dataio.write_trials_csv(f"{stem}_trials.csv", result)
    dataio.write_summary_json(f"{stem}_summary.json", result)
    for m in eval_config.m_values:
        for mode in eval_config.modes:
            print(
                f"M={m} {mode}: median RMSE"
                f" {result.median_rmse(m, mode):.3f} dB"
            )
    for mode in eval_config.modes:
        trials = [t for t in result.trials if t.mode == mode]
        escalated = sum(t.nugget_used > model.nugget for t in trials)
        if escalated:
            _warn_escalated(mode, f"{escalated} of {len(trials)} trials")
    return 0


def cmd_simulate(args) -> int:
    config, base = _load_config(args)
    budget = dataio.budget_from_config(config, base)
    sim = dataio.sim_from_config(config, budget, base)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n_samples is not None:
        overrides["n_samples"] = args.n_samples
    if overrides:
        sim = dataclasses.replace(sim, **overrides)
    samples = synthesize_dataset(sim)
    out = Path(args.out)
    dataio.write_dataset_csv(out, samples)
    sidecar = truth_sidecar(sim)
    Path(f"{_stem(out)}_truth.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )
    print(f"{out}: {len(samples)} samples (seed {sim.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyfade",
        description="Air-to-ground shadow-fading estimation and prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")

    def add_ingest_flags(p):
        p.add_argument(
            "--median-window",
            type=int,
            default=None,
            help="odd sliding-median window over RSRP (default: off)",
        )
        p.add_argument(
            "--column-map",
            action="append",
            metavar="CANONICAL=ACTUAL",
            help="remap an input CSV header (repeatable)",
        )

    p = sub.add_parser("geometry", help="annotate a CSV with link geometry and SF")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    add_common(p)
    add_ingest_flags(p)
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("fit", help="fit a correlation model from measurements")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument(
        "--single-center",
        action="store_true",
        help="fit one decay rate per conditioning bin, at the center reference bin",
    )
    add_common(p)
    add_ingest_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="Kriging predictions at target poses")
    p.add_argument("--input", required=True, help="tuning measurements CSV")
    p.add_argument("--targets", required=True, help="target poses CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES, default="angle_aware")
    add_common(p)
    add_ingest_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-subsampling RMSE benchmark")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--mode",
        default=None,
        help="comma-separated subset of " + ",".join(MODES),
    )
    add_common(p)
    add_ingest_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a truth model")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-samples", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SkyfadeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
