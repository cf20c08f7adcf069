"""CSV ingestion, result writers, and config-file parsing.

The ingestion schema is a header row of
time_s, lat_deg, lon_deg, alt_m, yaw_deg, pitch_deg, roll_deg, rsrp_dbm
with '.' decimals; extra columns pass through untouched.  A file is read
into columns and decomposed with one call into the column code of
:mod:`skyfade.propagation`.  Rows that fail validation (parse, pose,
geometry or two-ray rules) are skipped and reported with their line
numbers, sorted by line, and the run aborts when more than the allowed
fraction of rows is bad.  Target files go through the same rules and
fail on their first bad row, naming its line.  An optional column map
renames external headers onto the canonical ones, and an optional
centered sliding-window median (off by default) smooths the RSRP
sequence before decomposition.

All emitted files are UTF-8 with a mandatory header row; floats are
formatted with repr-style shortest round-trip so reruns are byte
identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlation import (
    AngleBins,
    AngularProfile,
    Correlogram,
    FitResult,
    _decode_number,
    deserialize_model,
    load_model,
)
from .errors import IngestError, RowErrors, SchemaError, ValidationError
from .evaluation import EvalConfig, EvalResult
from .fieldsim import FlightSpec, SimConfig
from .geometry import Geometry, check_poses, wrap_deg
from .propagation import GainTable, LinkBudget, SfTable, decompose

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
#: Rows :func:`_write_csv` formats per pass.
WRITE_BLOCK_ROWS = 4096


@dataclass
class IngestResult:
    """Parsed dataset plus passthrough columns and the skip report.

    ``measurements`` maps each canonical column to the kept rows' values,
    with yaw and roll wrapped and the RSRP median-filtered as decomposed;
    ``passthrough`` maps each extra column to the kept rows' text cells;
    ``skipped`` lists (line, reason) sorted by line.
    """

    samples: SfTable
    measurements: dict[str, np.ndarray]
    passthrough: dict[str, np.ndarray]
    extra_columns: list[str]
    skipped: list[tuple[int, str]]
    n_rows: int


def _median_filter(values: np.ndarray, window: int) -> np.ndarray:
    """Centered sliding median; the window shrinks near the edges.  A window
    of 0 or 1 leaves the values as they are."""
    if window < 0:
        raise ValidationError(f"median window must not be negative: {window}")
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


def _read_csv(path, column_map: dict | None, required):
    """Read a CSV in one pass, every canonical column in its header as floats.

    ``column_map`` renames canonical columns to the file's actual headers;
    a map that sends two canonical columns to one header, or a ``required``
    column that is absent, raises :class:`SchemaError`.  Returns
    ``(names, lines, table, failures, passthrough)``: the parsed names, the
    line of each parsed row and its values (one table column per name),
    ``(line, exception)`` per row whose cells did not parse, and each extra
    column (neither mapped nor an annotation) as the parsed rows' text.
    """
    mapping = {name: name for name in CANONICAL_COLUMNS}
    if column_map:
        for canonical, actual in column_map.items():
            if canonical not in CANONICAL_COLUMNS:
                raise SchemaError(
                    f"unknown canonical column in map: {canonical}", field=canonical
                )
            mapping[canonical] = actual
    claimed = {}
    for canonical, actual in mapping.items():
        if actual in claimed:
            raise SchemaError(
                f"column map sends {claimed[actual]} and {canonical} to the same"
                f" header: {actual}",
                field=canonical,
            )
        claimed[actual] = canonical
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
        names = [c for c in CANONICAL_COLUMNS if mapping[c] in header]
        keys = [mapping[c] for c in names]
        extra = {
            c: []
            for c in header
            if c not in set(mapping.values()) and c not in ANNOTATION_COLUMNS
        }
        lines, values, failures = [], [], []
        for row in reader:
            try:
                values.append([float(row[k]) for k in keys])
            except (TypeError, ValueError) as exc:
                failures.append((reader.line_num, exc))
                continue
            lines.append(reader.line_num)
            for c, cells in extra.items():
                cells.append(row[c] or "")
    table = np.array(values, dtype=float).reshape(-1, len(names))
    passthrough = {c: np.array(cells, dtype=object) for c, cells in extra.items()}
    return names, lines, table, failures, passthrough


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
    _names, lines, table, failures, passthrough = _read_csv(
        path, column_map, CANONICAL_COLUMNS
    )
    skipped = [(line, "non-numeric or missing value") for line, _exc in failures]
    n_rows = len(lines) + len(skipped)
    if n_rows == 0:
        raise SchemaError(f"{path}: no data rows")
    errors = RowErrors()
    errors.flag(
        ~np.isfinite(table).all(axis=1), lambda _i: ValidationError("non-finite value")
    )
    check_poses(dict(zip(CANONICAL_COLUMNS, table.T)), errors)
    skipped += [(lines[i], str(exc)) for i, exc in errors.items()]
    rows = np.delete(np.arange(len(lines)), list(errors))

    columns = _wrap_attitude(dict(zip(CANONICAL_COLUMNS, table[rows].T)))
    columns["rsrp_dbm"] = _median_filter(columns["rsrp_dbm"], median_window)
    errors = RowErrors()
    samples = decompose(columns, budget, errors)
    skipped += [
        (lines[rows[i]], f"geometry/propagation: {exc}") for i, exc in errors.items()
    ]
    skipped.sort()
    if len(skipped) > max_invalid_frac * n_rows:
        raise IngestError(
            f"{path}: {len(skipped)} of {n_rows} rows invalid"
            f" (limit {max_invalid_frac:.0%}); first failures: "
            + "; ".join(f"line {ln}: {why}" for ln, why in skipped[:5]),
            bad_rows=skipped,
        )
    keep = np.delete(np.arange(rows.size), list(errors))
    return IngestResult(
        samples=samples[keep],
        measurements={name: column[keep] for name, column in columns.items()},
        passthrough={name: cells[rows[keep]] for name, cells in passthrough.items()},
        extra_columns=list(passthrough),
        skipped=skipped,
        n_rows=n_rows,
    )


def _wrap_attitude(columns: dict) -> dict:
    """Wrap the yaw and roll columns into [-180, 180), as
    :class:`~skyfade.geometry.MeasurementSample` does."""
    for name in ("yaw_deg", "roll_deg"):
        columns[name] = wrap_deg(columns[name])
    return columns


def load_targets_csv(
    path: str | Path, budget: LinkBudget, column_map: dict | None = None
) -> tuple[Geometry, np.ndarray]:
    """Read prediction targets: pose columns required, RSRP optional.

    Returns ``(geometry, rsrp)``: the targets' link geometry and their
    RSRP column (zeros when the file has none).  Every row must pass the
    ingest rules (numeric cells, pose ranges, a UAV away from and above
    the transmitter's ground plane); the first row that does not raises
    :class:`IngestError` naming its line.
    """
    required = [c for c in CANONICAL_COLUMNS if c != "rsrp_dbm"]
    names, lines, table, failures, _ = _read_csv(path, column_map, required)
    if failures:
        line, exc = failures[0]
        raise IngestError(
            f"{path}: line {line}: non-numeric value ({exc})",
            bad_rows=[(line, "non-numeric value")],
        ) from exc
    if not lines:
        raise SchemaError(f"{path}: no data rows")
    columns = dict(zip(names, table.T))
    columns.setdefault("rsrp_dbm", np.zeros(len(lines)))
    errors = RowErrors()
    check_poses(columns, errors)
    targets = decompose(_wrap_attitude(columns), budget, errors)
    if errors:
        i = min(errors)
        reason = str(errors[i])
        raise IngestError(
            f"{path}: line {lines[i]}: {reason}", bad_rows=[(lines[i], reason)]
        )
    return targets.geometry, columns["rsrp_dbm"]


def _cells(values) -> list:
    """CSV cells of a column slice: floats (numpy's too) in shortest
    round-trip form, so reruns are byte identical; None stays None, which
    :mod:`csv` writes as an empty cell."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [repr(float(v)) if isinstance(v, float) else v for v in values]


def _record_columns(records, fields) -> list[list]:
    """One column per name in ``fields``, read off each of ``records``."""
    records = list(records)
    return [[getattr(r, name) for r in records] for name in fields]


def _blank_nonfinite(values) -> np.ndarray:
    """``values`` as floats, each non-finite one replaced by None."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, None)


def _write_csv(path: str | Path, header, columns) -> None:
    """Write ``header`` and then one row per index of ``columns``.

    The cells are formatted :data:`WRITE_BLOCK_ROWS` rows at a time, so
    the strings of a whole file are never held at once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r0 in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = slice(r0, r0 + WRITE_BLOCK_ROWS)
            writer.writerows(zip(*(_cells(column[block]) for column in columns)))


def write_dataset_csv(path: str | Path, samples) -> None:
    """Write measurement samples in the canonical ingestion schema."""
    _write_csv(path, CANONICAL_COLUMNS, _record_columns(samples, CANONICAL_COLUMNS))


def write_geometry_csv(path: str | Path, ingest: IngestResult) -> None:
    """Write the annotated dataset: canonical + passthrough + annotations.

    Annotation columns from the input (if any) are recomputed, so running
    the command on its own output is stable.
    """
    s = ingest.samples
    g = s.geometry
    _write_csv(
        path,
        list(CANONICAL_COLUMNS) + ingest.extra_columns + list(ANNOTATION_COLUMNS),
        [ingest.measurements[c] for c in CANONICAL_COLUMNS]
        + [ingest.passthrough[c] for c in ingest.extra_columns]
        + [g.theta_deg, g.delta_deg, g.d2d_m, g.d3d_m, s.pl_est_dbm, s.sf_db],
    )


def write_predictions_csv(path: str | Path, predictions) -> None:
    fields = ("w_hat_db", "z_hat_dbm", "variance_db2", "nugget_used")
    _write_csv(path, PREDICTION_COLUMNS, _record_columns(predictions, fields))


def write_profile_csv(
    path: str | Path,
    profile: AngularProfile,
    cond_label: str,
    ref_label: str,
    cond_reps,
    ref_reps,
) -> None:
    """Long-format export of a binned correlation profile: one row per
    (conditioning bin, reference bin i, reference bin j), with an empty
    ``rho`` where the profile has none."""
    counts = np.asarray(profile.counts, dtype=int)
    cond = np.asarray(cond_reps, dtype=float)[:, None, None]
    ref = np.asarray(ref_reps, dtype=float)
    rho = _blank_nonfinite(profile.rho)
    grid = [cond, ref[:, None], ref, rho, counts[:, :, None], counts[:, None, :]]
    _write_csv(
        path,
        [f"{cond_label}_rep_deg", f"{ref_label}_rep_i_deg", f"{ref_label}_rep_j_deg"]
        + ["rho", "count_i", "count_j"],
        [np.broadcast_to(a, profile.rho.shape).ravel() for a in grid],
    )


def write_correlogram_csv(path: str | Path, gram: Correlogram) -> None:
    """One row per lag bin, with empty cells where the bin has no pairs."""
    counts = np.asarray(gram.counts, dtype=int)
    columns = [_blank_nonfinite(gram.lag_m), _blank_nonfinite(gram.rho), counts]
    _write_csv(path, ["lag_m", "rho", "count"], columns)


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
    """One row per trial; a non-finite value is written as ``nan``/``inf``."""
    fields = "m mode trial rmse_db nugget_used pi95_coverage zscore_sd".split()
    _write_csv(path, fields, _record_columns(result.trials, fields))


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


def config_section(doc: dict, key: str, where: str = "") -> dict:
    """``doc[key]``, empty when absent; it must be a JSON object.  ``where``
    is the path of ``doc`` (empty at the top level, else ending in ".")."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise SchemaError(
            f"config field '{where}{key}' must be a JSON object", field=where + key
        )
    return section


def config_number(
    section: dict, key: str, where: str, default=None, integer: bool = False
):
    """``section[key]`` as a float (an int with ``integer``), or ``default``
    when the key is absent.  Raises :class:`SchemaError` naming the field
    for a value of the wrong type: booleans are not numbers, and an integer
    field rejects non-integral values."""
    if key not in section:
        return default
    return _decode_number(section[key], where + key, integer, doc="config")


def config_numbers(section: dict, key: str, where: str, integer: bool = False):
    """``section[key]``, a list of numbers, as a tuple; each entry is
    checked like :func:`config_number` and named by its index."""
    values = section[key]
    path = where + key
    if not isinstance(values, (list, tuple)):
        raise SchemaError(
            f"config field '{path}' must be a list, got {values!r}", field=path
        )
    return tuple(
        _decode_number(v, f"{path}[{k}]", integer, doc="config")
        for k, v in enumerate(values)
    )


def _config_path(section: dict, key: str, where: str, base_dir: Path | None) -> Path:
    """``section[key]`` as a path, relative paths taken from ``base_dir``."""
    value = section[key]
    if not isinstance(value, (str, Path)):
        raise SchemaError(
            f"config field '{where}{key}' must be a path string, got {value!r}",
            field=where + key,
        )
    path = Path(value)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return path


def budget_from_config(doc: dict, base_dir: Path | None = None) -> LinkBudget:
    """Build a link budget from the config's ``budget`` section."""
    section = config_section(doc, "budget")
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
            kwargs[key] = config_number(section, key, "budget.")
    if "reflection" in section:
        if isinstance(section["reflection"], (list, tuple)):
            parts = config_numbers(section, "reflection", "budget.")
            if len(parts) != 2:
                raise SchemaError(
                    "config field 'budget.reflection' must be a number or a"
                    " [real, imag] pair",
                    field="budget.reflection",
                )
            kwargs["reflection"] = complex(*parts)
        else:
            kwargs["reflection"] = complex(
                config_number(section, "reflection", "budget."), 0.0
            )
    for key, attr in (("gain_tx_csv", "gain_tx"), ("gain_uav_csv", "gain_uav")):
        if key in section:
            kwargs[attr] = GainTable.from_csv(
                _config_path(section, key, "budget.", base_dir)
            )
    if "tx_lat_deg" not in kwargs or "tx_lon_deg" not in kwargs:
        raise SchemaError(
            "config budget section must set tx_lat_deg and tx_lon_deg",
            field="budget",
        )
    return LinkBudget(**kwargs)


def bins_from_config(doc: dict) -> AngleBins:
    section = config_section(doc, "bins")
    kwargs = {}
    for key in ("tilt_edges", "tilt_reps", "elev_edges", "elev_reps"):
        if key in section:
            kwargs[key] = config_numbers(section, key, "bins.")
    return AngleBins(**kwargs)


def flight_from_config(section: dict) -> FlightSpec:
    """Flight layout from the config's ``sim.flight`` section."""
    where = "sim.flight."
    kwargs = {}
    for key in (
        "altitude_m",
        "speed_mps",
        "sample_interval_s",
        "pitch_excitation_deg",
        "roll_excitation_deg",
    ):
        if key in section:
            kwargs[key] = config_number(section, key, where)
    for key in ("east_extent_m", "north_extent_m"):
        if key in section:
            extent = config_numbers(section, key, where)
            if len(extent) != 2:
                raise SchemaError(
                    f"config field '{where}{key}' must be a [low, high] pair",
                    field=where + key,
                )
            kwargs[key] = extent
    if "path" in section:
        kwargs["path"] = str(section["path"])
    if "n_passes" in section:
        kwargs["n_passes"] = config_number(section, "n_passes", where, integer=True)
    return FlightSpec(**kwargs)


def sim_from_config(
    doc: dict, budget: LinkBudget, base_dir: Path | None = None
) -> SimConfig:
    section = config_section(doc, "sim")
    if not section:
        raise SchemaError("config has no sim section", field="sim")
    if "truth" in section:
        truth = deserialize_model(section["truth"])
    elif "truth_path" in section:
        truth = load_model(_config_path(section, "truth_path", "sim.", base_dir))
    else:
        raise SchemaError(
            "sim section needs 'truth' (inline model) or 'truth_path'",
            field="sim.truth",
        )
    return SimConfig(
        seed=config_number(section, "seed", "sim.", 0, integer=True),
        n_samples=config_number(section, "n_samples", "sim.", 1000, integer=True),
        truth=truth,
        budget=budget,
        flight=flight_from_config(config_section(section, "flight", "sim.")),
        noise_std_db=config_number(section, "noise_std_db", "sim.", 0.0),
    )


def eval_from_config(doc: dict) -> EvalConfig:
    section = config_section(doc, "eval")
    kwargs = {}
    if "m_values" in section:
        kwargs["m_values"] = config_numbers(section, "m_values", "eval.", integer=True)
    for key in ("tests_per_trial", "total_test_predictions", "seed"):
        if key in section:
            kwargs[key] = config_number(section, key, "eval.", integer=True)
    if "modes" in section:
        modes = section["modes"]
        if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
            raise SchemaError(
                "config field 'eval.modes' must be a list of mode names,"
                f" got {modes!r}",
                field="eval.modes",
            )
        kwargs["modes"] = tuple(modes)
    return EvalConfig(**kwargs)
