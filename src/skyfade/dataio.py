"""CSV ingestion, result writers, and config-file parsing.

The ingestion schema is a header row of
time_s, lat_deg, lon_deg, alt_m, yaw_deg, pitch_deg, roll_deg, rsrp_dbm
with '.' decimals; extra columns pass through untouched.  Rows that fail
validation are skipped and reported with their line numbers, and the run
aborts when more than the allowed fraction of rows is bad.  An optional
column map renames external headers onto the canonical ones, and an
optional centered sliding-window median (off by default) smooths the RSRP
sequence before decomposition.

All emitted files are UTF-8 with a mandatory header row; floats are
formatted with repr-style shortest round-trip so reruns are byte
identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import AngleBins, AngularProfile, Correlogram, FitResult
from .errors import IngestError, SchemaError, SkyfadeError, ValidationError
from .evaluation import EvalConfig, EvalResult
from .fieldsim import FlightSpec, SimConfig
from .geometry import MeasurementSample
from .propagation import GainTable, LinkBudget, SfSample, decompose_sf

CANONICAL_COLUMNS = (
    "time_s",
    "lat_deg",
    "lon_deg",
    "alt_m",
    "yaw_deg",
    "pitch_deg",
    "roll_deg",
    "rsrp_dbm",
)
ANNOTATION_COLUMNS = (
    "theta_deg",
    "delta_deg",
    "d2d_m",
    "d3d_m",
    "pl_est_dbm",
    "sf_db",
)
PREDICTION_COLUMNS = ("w_hat_db", "z_hat_dbm", "kriging_var_db2", "nugget_used")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class IngestResult:
    """Parsed dataset plus passthrough rows and the skip report."""

    samples: list[SfSample]
    measurements: list[MeasurementSample]
    passthrough: list[dict]
    extra_columns: list[str]
    skipped: list[tuple[int, str]]
    n_rows: int


def _median_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Centered sliding median; the window shrinks near the edges."""
    if window <= 1:
        return values
    if window % 2 == 0:
        raise ValidationError(f"median window must be odd: {window}")
    half = window // 2
    out = np.empty_like(values)
    for i in range(values.size):
        lo = max(0, i - half)
        hi = min(values.size, i + half + 1)
        out[i] = np.median(values[lo:hi])
    return out


@contextmanager
def _open_mapped(path, column_map: dict | None, required):
    """Open a CSV and map canonical column names onto its header.

    ``column_map`` renames canonical columns to the file's actual headers.
    Yields ``(reader, mapping, header)`` after checking that every column
    in ``required`` is present; raises :class:`SchemaError` otherwise.
    """
    mapping = {name: name for name in CANONICAL_COLUMNS}
    if column_map:
        for canonical, actual in column_map.items():
            if canonical not in CANONICAL_COLUMNS:
                raise SchemaError(
                    f"unknown canonical column in map: {canonical}", field=canonical
                )
            mapping[canonical] = actual
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: file is empty; expected a header row")
        header = list(reader.fieldnames)
        missing = [mapping[c] for c in required if mapping[c] not in header]
        if missing:
            raise SchemaError(
                f"{path}: missing required column(s): {', '.join(missing)}",
                field=missing[0],
            )
        yield reader, mapping, header


def ingest_csv(
    path: str | Path,
    budget: LinkBudget,
    *,
    median_window: int = 0,
    column_map: dict | None = None,
    max_invalid_frac: float = 0.1,
) -> IngestResult:
    """Read a measurement CSV and decompose every valid row.

    ``column_map`` maps canonical names to the file's actual headers for
    externally produced files.  Raises :class:`SchemaError` when required
    columns are missing and :class:`IngestError` when more than
    ``max_invalid_frac`` of the data rows fail validation.
    """
    with _open_mapped(path, column_map, CANONICAL_COLUMNS) as (reader, mapping, header):
        extra = [
            c
            for c in header
            if c not in set(mapping.values()) and c not in ANNOTATION_COLUMNS
        ]

        parsed: list[tuple[int, MeasurementSample, dict]] = []
        skipped: list[tuple[int, str]] = []
        n_rows = 0
        for row in reader:
            n_rows += 1
            line = reader.line_num
            try:
                values = {
                    c: float(row[mapping[c]]) for c in CANONICAL_COLUMNS
                }
            except (TypeError, ValueError):
                skipped.append((line, "non-numeric or missing value"))
                continue
            if not all(math.isfinite(v) for v in values.values()):
                skipped.append((line, "non-finite value"))
                continue
            try:
                sample = MeasurementSample(
                    time_s=values["time_s"],
                    lat_deg=values["lat_deg"],
                    lon_deg=values["lon_deg"],
                    alt_m=values["alt_m"],
                    yaw_deg=values["yaw_deg"],
                    pitch_deg=values["pitch_deg"],
                    roll_deg=values["roll_deg"],
                    rsrp_dbm=values["rsrp_dbm"],
                )
            except ValidationError as exc:
                skipped.append((line, str(exc)))
                continue
            parsed.append((line, sample, {c: row.get(c, "") for c in extra}))

    if n_rows == 0:
        raise SchemaError(f"{path}: no data rows")
    if len(skipped) > max_invalid_frac * n_rows:
        raise IngestError(
            f"{path}: {len(skipped)} of {n_rows} rows invalid"
            f" (limit {max_invalid_frac:.0%}); first failures: "
            + "; ".join(f"line {ln}: {why}" for ln, why in skipped[:5]),
            bad_rows=skipped,
        )

    if median_window > 1 and parsed:
        rsrp = np.array([s.rsrp_dbm for _ln, s, _x in parsed])
        filtered = _median_filter(rsrp, median_window)
        parsed = [
            (ln, dataclasses.replace(s, rsrp_dbm=float(v)), extra_cols)
            for (ln, s, extra_cols), v in zip(parsed, filtered)
        ]

    samples: list[SfSample] = []
    measurements: list[MeasurementSample] = []
    passthrough: list[dict] = []
    for line, sample, extra_cols in parsed:
        try:
            sf = decompose_sf(sample, budget)
        except SkyfadeError as exc:
            skipped.append((line, f"geometry/propagation: {exc}"))
            continue
        samples.append(sf)
        measurements.append(sample)
        passthrough.append(extra_cols)

    if len(skipped) > max_invalid_frac * n_rows:
        raise IngestError(
            f"{path}: {len(skipped)} of {n_rows} rows invalid"
            f" (limit {max_invalid_frac:.0%})",
            bad_rows=skipped,
        )
    return IngestResult(
        samples=samples,
        measurements=measurements,
        passthrough=passthrough,
        extra_columns=extra,
        skipped=skipped,
        n_rows=n_rows,
    )


def load_targets_csv(
    path: str | Path, budget: LinkBudget, column_map: dict | None = None
):
    """Read prediction targets: pose columns required, RSRP optional.

    Returns ``(geometries, measurements)`` where each measurement carries
    the parsed RSRP when the column is present and 0.0 otherwise.
    """
    required = [c for c in CANONICAL_COLUMNS if c != "rsrp_dbm"]

    from .propagation import link_geometry

    with _open_mapped(path, column_map, required) as (reader, mapping, header):
        has_rsrp = mapping["rsrp_dbm"] in header

        geometries = []
        measurements = []
        for row in reader:
            line = reader.line_num
            try:
                values = {c: float(row[mapping[c]]) for c in required}
                rsrp = float(row[mapping["rsrp_dbm"]]) if has_rsrp else 0.0
            except (TypeError, ValueError) as exc:
                raise IngestError(
                    f"{path}: line {line}: non-numeric value ({exc})",
                    bad_rows=[(line, "non-numeric value")],
                ) from exc
            sample = MeasurementSample(rsrp_dbm=rsrp, **values)
            geometries.append(link_geometry(sample, budget))
            measurements.append(sample)
    if not geometries:
        raise SchemaError(f"{path}: no data rows")
    return geometries, measurements


def write_dataset_csv(path: str | Path, samples) -> None:
    """Write measurement rows in the canonical ingestion schema."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for s in samples:
            writer.writerow(
                [
                    _fmt(s.time_s),
                    _fmt(s.lat_deg),
                    _fmt(s.lon_deg),
                    _fmt(s.alt_m),
                    _fmt(s.yaw_deg),
                    _fmt(s.pitch_deg),
                    _fmt(s.roll_deg),
                    _fmt(s.rsrp_dbm),
                ]
            )


def write_geometry_csv(path: str | Path, ingest: IngestResult) -> None:
    """Write the annotated dataset: canonical + passthrough + annotations.

    Annotation columns from the input (if any) are recomputed, so running
    the command on its own output is stable.
    """
    header = list(CANONICAL_COLUMNS) + list(ingest.extra_columns) + list(
        ANNOTATION_COLUMNS
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for meas, sf, extra in zip(
            ingest.measurements, ingest.samples, ingest.passthrough
        ):
            g = sf.geometry
            row = [
                _fmt(meas.time_s),
                _fmt(meas.lat_deg),
                _fmt(meas.lon_deg),
                _fmt(meas.alt_m),
                _fmt(meas.yaw_deg),
                _fmt(meas.pitch_deg),
                _fmt(meas.roll_deg),
                _fmt(meas.rsrp_dbm),
            ]
            row += [extra[c] for c in ingest.extra_columns]
            row += [
                _fmt(g.theta_deg),
                _fmt(g.delta_deg),
                _fmt(g.d2d_m),
                _fmt(g.d3d_m),
                _fmt(sf.pl_est_dbm),
                _fmt(sf.sf_db),
            ]
            writer.writerow(row)


def write_predictions_csv(path: str | Path, predictions) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for p in predictions:
            writer.writerow(
                [
                    _fmt(p.w_hat_db),
                    _fmt(p.z_hat_dbm),
                    _fmt(p.variance_db2),
                    _fmt(p.nugget_used),
                ]
            )


def write_profile_csv(
    path: str | Path,
    profile: AngularProfile,
    cond_label: str,
    ref_label: str,
    cond_reps,
    ref_reps,
) -> None:
    """Long-format export of a binned correlation profile."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                f"{cond_label}_rep_deg",
                f"{ref_label}_rep_i_deg",
                f"{ref_label}_rep_j_deg",
                "rho",
                "count_i",
                "count_j",
            ]
        )
        n_cond, n_ref = profile.counts.shape
        for c in range(n_cond):
            for i in range(n_ref):
                for j in range(n_ref):
                    rho = profile.rho[c, i, j]
                    writer.writerow(
                        [
                            _fmt(float(cond_reps[c])),
                            _fmt(float(ref_reps[i])),
                            _fmt(float(ref_reps[j])),
                            "" if not np.isfinite(rho) else _fmt(float(rho)),
                            int(profile.counts[c, i]),
                            int(profile.counts[c, j]),
                        ]
                    )


def write_correlogram_csv(path: str | Path, gram: Correlogram) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag_m", "rho", "count"])
        for lag, rho, count in zip(gram.lag_m, gram.rho, gram.counts):
            writer.writerow(
                [
                    "" if not np.isfinite(lag) else _fmt(float(lag)),
                    "" if not np.isfinite(rho) else _fmt(float(rho)),
                    int(count),
                ]
            )


def write_coverage_report(path: str | Path, fit: FitResult, ingest_skipped=None) -> None:
    """JSON report of excluded cells and fit warnings."""
    doc = {
        "excluded_cells": fit.excluded_cells,
        "warnings": fit.warnings,
    }
    if ingest_skipped is not None:
        doc["skipped_rows"] = [
            {"line": line, "reason": reason} for line, reason in ingest_skipped
        ]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_trials_csv(path: str | Path, result: EvalResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "mode", "trial", "rmse_db", "nugget_used"])
        for t in result.trials:
            writer.writerow(
                [t.m, t.mode, t.trial, _fmt(t.rmse_db), _fmt(t.nugget_used)]
            )


def write_summary_json(path: str | Path, result: EvalResult) -> None:
    Path(path).write_text(
        json.dumps(result.summary(), indent=2, sort_keys=True) + "\n"
    )


# ---------------------------------------------------------------------------
# Config files


def load_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: config root must be a JSON object")
    return doc


def budget_from_config(doc: dict, base_dir: Path | None = None) -> LinkBudget:
    """Build a link budget from the config's ``budget`` section."""
    section = doc.get("budget", {})
    kwargs = {}
    for key in (
        "tx_lat_deg",
        "tx_lon_deg",
        "tx_alt_m",
        "antenna_height_m",
        "tx_power_dbm",
        "freq_hz",
    ):
        if key in section:
            kwargs[key] = float(section[key])
    if "reflection" in section:
        value = section["reflection"]
        if isinstance(value, (list, tuple)):
            kwargs["reflection"] = complex(float(value[0]), float(value[1]))
        else:
            kwargs["reflection"] = complex(float(value), 0.0)
    for key, attr in (("gain_tx_csv", "gain_tx"), ("gain_uav_csv", "gain_uav")):
        if key in section:
            gain_path = Path(section[key])
            if base_dir is not None and not gain_path.is_absolute():
                gain_path = base_dir / gain_path
            kwargs[attr] = GainTable.from_csv(gain_path)
    if "tx_lat_deg" not in kwargs or "tx_lon_deg" not in kwargs:
        raise SchemaError(
            "config budget section must set tx_lat_deg and tx_lon_deg",
            field="budget",
        )
    return LinkBudget(**kwargs)


def bins_from_config(doc: dict) -> AngleBins:
    section = doc.get("bins")
    if not section:
        return AngleBins()

    def edges(values):
        return tuple(float(v) for v in values)

    kwargs = {}
    for key in ("tilt_edges", "tilt_reps", "elev_edges", "elev_reps"):
        if key in section:
            kwargs[key] = edges(section[key])
    return AngleBins(**kwargs)


def flight_from_config(section: dict) -> FlightSpec:
    kwargs = {}
    for key in (
        "altitude_m",
        "speed_mps",
        "sample_interval_s",
        "pitch_excitation_deg",
        "roll_excitation_deg",
    ):
        if key in section:
            kwargs[key] = float(section[key])
    for key in ("east_extent_m", "north_extent_m"):
        if key in section:
            kwargs[key] = (float(section[key][0]), float(section[key][1]))
    if "path" in section:
        kwargs["path"] = str(section["path"])
    if "n_passes" in section:
        kwargs["n_passes"] = int(section["n_passes"])
    return FlightSpec(**kwargs)


def sim_from_config(
    doc: dict, budget: LinkBudget, base_dir: Path | None = None
) -> SimConfig:
    from .correlation import deserialize_model, load_model

    section = doc.get("sim")
    if not section:
        raise SchemaError("config has no sim section", field="sim")
    if "truth" in section:
        truth = deserialize_model(section["truth"])
    elif "truth_path" in section:
        truth_path = Path(section["truth_path"])
        if base_dir is not None and not truth_path.is_absolute():
            truth_path = base_dir / truth_path
        truth = load_model(truth_path)
    else:
        raise SchemaError(
            "sim section needs 'truth' (inline model) or 'truth_path'",
            field="sim.truth",
        )
    return SimConfig(
        seed=int(section.get("seed", 0)),
        n_samples=int(section.get("n_samples", 1000)),
        truth=truth,
        budget=budget,
        flight=flight_from_config(section.get("flight", {})),
        noise_std_db=float(section.get("noise_std_db", 0.0)),
    )


def eval_from_config(doc: dict) -> EvalConfig:
    section = doc.get("eval", {})
    kwargs = {}
    if "m_values" in section:
        kwargs["m_values"] = tuple(int(m) for m in section["m_values"])
    if "tests_per_trial" in section:
        kwargs["tests_per_trial"] = int(section["tests_per_trial"])
    if "total_test_predictions" in section:
        kwargs["total_test_predictions"] = int(section["total_test_predictions"])
    if "seed" in section:
        kwargs["seed"] = int(section["seed"])
    if "modes" in section:
        kwargs["modes"] = tuple(str(m) for m in section["modes"])
    return EvalConfig(**kwargs)
