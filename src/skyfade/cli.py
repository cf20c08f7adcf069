"""Command-line entry point.

Five subcommands cover the full workflow:

``skyfade simulate``  synthetic dataset + truth-model sidecar
``skyfade geometry``  annotate a measurement CSV with link geometry and SF
``skyfade fit``       estimate a correlation model from a training CSV
``skyfade predict``   Kriging predictions at target poses
``skyfade evaluate``  repeated-subsampling RMSE benchmark

Each flag but predict's ``--mode`` sets the config field its ``dest``
names and wins over the file.  Every command is deterministic for fixed
inputs and seed; domain errors exit with status 2 and a one-line message
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataio
from .correlation import MODES, fit_correlation_model, load_model, save_model
from .errors import SkyfadeError, ValidationError
from .evaluation import run_evaluation
from .fieldsim import synthesize_dataset, truth_sidecar
from .kriging import predict_rsrp
from .schema import write_json


def _parse_column_map(pairs) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ValidationError(f"--column-map expects canonical=actual, got {pair!r}")
    return dict(pair.split("=", 1) for pair in pairs)


def _stem(out: Path) -> Path:
    """Sibling-path prefix for companion files of an output."""
    return out.with_suffix("") if out.suffix else out


def _load_config(args) -> tuple[dict, Path, dataio.LinkBudget]:
    """The ``--config`` document, its directory and its link budget.

    Each flag that is set is first written into the config field its
    ``dest`` names (``section.key``), so it is read and checked as that
    field.
    """
    path = Path(args.config)
    config = dataio.load_config(path)
    for dest, value in vars(args).items():
        name, dot, key = dest.partition(".")
        if dot and value is not None:
            if dest == "ingest.column_map":
                value = _parse_column_map(value)
            section = config.setdefault(name, {})
            if isinstance(section, dict):  # otherwise reading it names it
                section[key] = value
    return config, path.parent, dataio.budget_from_config(config, path.parent)


def _warn_escalated(mode: str, what: str) -> None:
    print(
        f"warning: {mode}: {what} escalated the nugget above the model's"
        " (covariance not numerically positive definite)",
        file=sys.stderr,
    )


def _warn_floored(mode: str, floored: int, total: int) -> None:
    if floored:
        print(
            f"warning: {mode}: {floored} of {total} prediction variances"
            " floored at zero",
            file=sys.stderr,
        )


def cmd_geometry(args) -> int:
    config, _base, budget = _load_config(args)
    ingest = dataio.ingest_csv(args.input, budget, **dataio.ingest_from_config(config))
    dataio.write_geometry_csv(args.out, ingest)
    for line, reason in ingest.skipped:
        print(f"skipped line {line}: {reason}", file=sys.stderr)
    print(
        f"{args.out}: {len(ingest.samples)} rows annotated,"
        f" {len(ingest.skipped)} skipped"
    )
    return 0


def cmd_fit(args) -> int:
    config, _base, budget = _load_config(args)
    bins = dataio.bins_from_config(config)
    options = dataio.fit_from_config(config)
    ingest = dataio.ingest_csv(args.input, budget, **dataio.ingest_from_config(config))
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
    config, _base, budget = _load_config(args)
    model = load_model(args.model)
    options = dataio.ingest_from_config(config)
    ingest = dataio.ingest_csv(args.input, budget, **options)
    targets, _rsrp = dataio.load_targets_csv(
        args.targets, budget, options.get("column_map")
    )
    w_hat, z_hat, variance, nugget = predict_rsrp(
        ingest.samples, targets, budget, model.restricted(args.mode)
    )
    if nugget > model.nugget:
        _warn_escalated(args.mode, "the solve")
    _warn_floored(args.mode, int((variance == 0.0).sum()), len(variance))
    dataio.write_predictions_csv(args.out, w_hat, z_hat, variance, nugget)
    print(f"{args.out}: {len(w_hat)} predictions ({args.mode})")
    return 0


def cmd_evaluate(args) -> int:
    config, _base, budget = _load_config(args)
    model = load_model(args.model)
    eval_config = dataio.eval_from_config(config)
    ingest = dataio.ingest_csv(args.input, budget, **dataio.ingest_from_config(config))
    result = run_evaluation(ingest.samples, model, eval_config)
    stem = _stem(Path(args.out))
    dataio.write_trials_csv(f"{stem}_trials.csv", result.trials)
    summary = result.summary()
    write_json(f"{stem}_summary.json", summary)
    for entry in summary["results"]:
        print(
            f"M={entry['m']} {entry['mode']}: median RMSE"
            f" {entry['median_rmse_db']:.3f} dB"
        )
    trials = result.trials
    for mode in eval_config.modes:
        in_mode = trials.mode == mode
        n_trials = int(in_mode.sum())
        escalated = int((in_mode & (trials.nugget_used > model.nugget)).sum())
        if escalated:
            _warn_escalated(mode, f"{escalated} of {n_trials} trials")
        _warn_floored(
            mode,
            int(trials.floored[in_mode].sum()),
            n_trials * eval_config.tests_per_trial,
        )
    return 0


def cmd_simulate(args) -> int:
    config, base, budget = _load_config(args)
    sim = dataio.sim_from_config(config, budget, base)
    samples = synthesize_dataset(sim)
    out = Path(args.out)
    dataio.write_dataset_csv(out, samples)
    write_json(f"{_stem(out)}_truth.json", truth_sidecar(sim))
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
            dest="ingest.median_window",
            type=int,
            help="odd sliding-median window over RSRP (default: off)",
        )
        p.add_argument(
            "--column-map",
            dest="ingest.column_map",
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
    p.add_argument("--min-count", dest="fit.min_count", type=int)
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
    p.add_argument("--seed", dest="eval.seed", type=int)
    p.add_argument(
        "--mode",
        dest="eval.modes",
        type=lambda text: [mode.strip() for mode in text.split(",")],
        help="comma-separated subset of " + ",".join(MODES),
    )
    add_common(p)
    add_ingest_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a truth model")
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument("--seed", dest="sim.seed", type=int)
    p.add_argument("--n-samples", dest="sim.n_samples", type=int)
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
