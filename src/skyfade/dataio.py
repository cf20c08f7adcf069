"""CSV ingestion, result writers, and config-file parsing.

The ingestion schema is a header row of
time_s, lat_deg, lon_deg, alt_m, yaw_deg, pitch_deg, roll_deg, rsrp_dbm
with '.' decimals; extra columns pass through untouched.  A file is read
into columns and decomposed with one call into the column code of
:mod:`skyfade.propagation`, which works through fixed blocks of rows.
:func:`ingest_csv` frees the parsed table once it has copied out the
kept rows, and returns the decomposed columns themselves unless
decomposition drops a row, so what it holds beyond its result is one
block's temporaries.  Rows that fail validation (parse, pose,
geometry or two-ray rules) are skipped and reported with their line
numbers, sorted by line, and the run aborts when more than the allowed
fraction of rows is bad.  Target files go through the same rules and
fail on their first bad row, naming its line.  An optional column map
renames external headers onto the canonical ones, and an optional
centered sliding-window median (off by default) smooths the RSRP
sequence before decomposition.

Every CSV is read as UTF-8 text; a byte that is not UTF-8 raises
:class:`SchemaError` naming the file.  The reader takes each row's cells
by position and parses each with ``float()``; like csv.DictReader, it
skips blank lines, ignores cells beyond the header, reads the cells a
short row lacks as missing values, and takes a repeated header's last
column.  Every 1024 parsed rows (:data:`READ_BLOCK_ROWS`), their values
become one float64 array and their line numbers one int64 array; the
blocks are joined once at the end, so a file's values are never held as
Python floats all at once.

All emitted files are UTF-8 with a mandatory header row, written as
csv.writer would write them but without its per-cell work: one
``float.__repr__`` per float (shortest round-trip digits, so reruns are
byte identical), an empty cell for None and ``str`` for anything else,
quoted only where csv's minimal quoting would quote it, rows joined and
ended with CRLF and written 1024 rows (:data:`WRITE_BLOCK_ROWS`) at a
time.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import (
    BIN_FIELDS,
    AngleBins,
    AngularProfile,
    Correlogram,
    FitResult,
    deserialize_model,
    load_model,
)
from .errors import IngestError, RowErrors, SchemaError, ValidationError
from .evaluation import TRIAL_FIELDS, EvalConfig, TrialTable
from .fieldsim import FlightSpec, SimConfig
from .geometry import check_poses, wrap_deg
from .propagation import GainTable, LinkBudget, SfTable, decompose
from .schema import JsonObject, open_csv, read_json, write_json

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
#: Rows :func:`_write_csv` formats and writes per pass.
WRITE_BLOCK_ROWS = 1024
#: Parsed rows :func:`_read_csv` gathers into one float64 block.  At 1024
#: rows a block of the eight canonical columns is 64 KiB: 4096-row blocks
#: (256 KiB) left fit-10k's peak resident memory 1 MB higher.
READ_BLOCK_ROWS = 1024
#: Finds a character that makes csv's minimal quoting quote a cell.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


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
    n, half = values.size, window // 2
    out = np.empty_like(values)
    if n >= window:  # full windows: one median call over all of them
        out[half:n - half] = np.median(sliding_window_view(values, window), axis=1)
    for i in (*range(min(half, n)), *range(max(n - half, half), n)):
        out[i] = np.median(values[max(0, i - half):i + half + 1])
    return out


def _read_csv(path, column_map: dict | None, required):
    """Read a CSV in one pass, every canonical column in its header as floats.

    ``column_map`` renames canonical columns to the file's actual headers;
    a map that sends two canonical columns to one header, or a ``required``
    column that is absent, raises :class:`SchemaError`.  Returns
    ``(names, lines, table, failures, passthrough)``: the parsed names, the
    line of each parsed row (an int64 array) and its values (one table
    column per name), ``(line, exception)`` per row whose cells did not
    parse (the exception without its traceback), and each extra column
    (neither mapped nor an annotation) as the parsed rows' text.  Each
    :data:`READ_BLOCK_ROWS` parsed rows' values and lines go into arrays
    at once.
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
    with open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: file is empty; expected a header row")
        # A repeated header names its last column, as in csv.DictReader.
        column = {name: j for j, name in enumerate(header)}
        missing = [mapping[c] for c in required if mapping[c] not in column]
        if missing:
            raise SchemaError(
                f"{path}: missing required column(s): {', '.join(missing)}",
                field=missing[0],
            )
        names = [c for c in CANONICAL_COLUMNS if mapping[c] in column]
        # names holds the seven required pose columns or more, so pick
        # returns a tuple (itemgetter of one index would return the cell).
        pick = itemgetter(*(column[mapping[c]] for c in names))
        extra = {
            c: column[c]
            for c in header
            if c not in claimed and c not in ANNOTATION_COLUMNS
        }
        texts = {c: [] for c in extra}
        lines, values, failures = [], [], []
        line_blocks, value_blocks = [], []
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) < len(header):  # missing cells read as None
                row += [None] * (len(header) - len(row))
            try:
                parsed = list(map(float, pick(row)))
            except (TypeError, ValueError) as exc:
                # Without its traceback: the traceback holds this frame,
                # whose failures list holds the exception, a cycle that
                # would keep every parsed block alive until a full
                # garbage collection.
                failures.append((reader.line_num, exc.with_traceback(None)))
                continue
            lines.append(reader.line_num)
            values += parsed
            for c, j in extra.items():
                texts[c].append(row[j] or "")
            if len(lines) == READ_BLOCK_ROWS:
                line_blocks.append(np.array(lines, dtype=np.int64))
                value_blocks.append(np.array(values, dtype=float))
                lines, values = [], []
    line_blocks.append(np.array(lines, dtype=np.int64))
    value_blocks.append(np.array(values, dtype=float))
    table = np.concatenate(value_blocks).reshape(-1, len(names))
    passthrough = {c: np.array(cells, dtype=object) for c, cells in texts.items()}
    return names, np.concatenate(line_blocks), table, failures, passthrough


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
    if not 0.0 <= max_invalid_frac < np.inf:
        raise ValidationError(
            f"max_invalid_frac must be finite and non-negative: {max_invalid_frac}"
        )
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
    skipped += [(int(lines[i]), str(exc)) for i, exc in errors.items()]
    rows = np.delete(np.arange(len(lines)), list(errors))

    columns = _wrap_attitude(dict(zip(CANONICAL_COLUMNS, table[rows].T)))
    del table  # free the parse before decomposing: the kept rows are a copy
    columns["rsrp_dbm"] = _median_filter(columns["rsrp_dbm"], median_window)
    errors = RowErrors()
    samples = decompose(columns, budget, errors)
    skipped += [
        (int(lines[rows[i]]), f"geometry/propagation: {exc}")
        for i, exc in errors.items()
    ]
    skipped.sort()
    if len(skipped) > max_invalid_frac * n_rows:
        raise IngestError(
            f"{path}: {len(skipped)} of {n_rows} rows invalid"
            f" (limit {max_invalid_frac:.0%}); first failures: "
            + "; ".join(f"line {ln}: {why}" for ln, why in skipped[:5]),
            bad_rows=skipped,
        )
    if errors:
        keep = np.delete(np.arange(rows.size), list(errors))
        samples, rows = samples[keep], rows[keep]
        columns = {name: column[keep] for name, column in columns.items()}
    return IngestResult(
        samples=samples,
        measurements=columns,
        passthrough={name: cells[rows] for name, cells in passthrough.items()},
        skipped=skipped,
        n_rows=n_rows,
    )


def _wrap_attitude(columns: dict) -> dict:
    """Wrap the yaw and roll columns into [-180, 180), as
    :class:`~skyfade.geometry.MeasurementSample` does, writing the wrapped
    values back into the columns: a new array would leave the unwrapped
    values allocated in the table the columns view."""
    for name in ("yaw_deg", "roll_deg"):
        columns[name][...] = wrap_deg(columns[name])
    return columns


def load_targets_csv(
    path: str | Path, budget: LinkBudget, column_map: dict | None = None
) -> SfTable:
    """Read prediction targets: pose columns required, RSRP optional.

    Returns the targets' :func:`~skyfade.propagation.decompose` table:
    their link geometry, two-ray estimate ``pl_est_dbm`` and RSRP column
    (zeros when the file has none).  ``sf_db`` means something only where
    the file has RSRP; without it, it is minus the estimate.  Every row
    must pass the ingest rules (numeric cells, pose ranges, a UAV away
    from and above the transmitter's ground plane); the first row that
    does not, whatever its failure, raises :class:`IngestError` naming its
    line.
    """
    required = [c for c in CANONICAL_COLUMNS if c != "rsrp_dbm"]
    names, lines, table, failures, _ = _read_csv(path, column_map, required)
    if not lines.size and not failures:
        raise SchemaError(f"{path}: no data rows")
    columns = dict(zip(names, table.T))
    columns.setdefault("rsrp_dbm", np.zeros(len(lines)))
    errors = RowErrors()
    check_poses(columns, errors)
    targets = decompose(_wrap_attitude(columns), budget, errors)
    # (line, message, reason, cause) of every failing row, of either kind.
    bad = [(line, f"non-numeric value ({exc})", "non-numeric value", exc)
           for line, exc in failures]
    bad += [(int(lines[i]), str(exc), str(exc), None) for i, exc in errors.items()]
    if bad:
        line, message, reason, cause = min(bad, key=lambda b: b[0])
        raise IngestError(
            f"{path}: line {line}: {message}", bad_rows=[(line, reason)]
        ) from cause
    return targets


def _text(value) -> str:
    """One non-float cell: None is empty, anything else its ``str``,
    quoted as :mod:`csv`'s excel dialect quotes it."""
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values) -> list[str]:
    """Text cells of a column slice: floats (numpy's too) in shortest
    round-trip form, so reruns are byte identical; see :func:`_text` for
    the rest."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return list(map(float.__repr__, values.tolist()))
        values = values.tolist()
    return [repr(float(v)) if isinstance(v, float) else _text(v) for v in values]


def _blank_nonfinite(values) -> np.ndarray:
    """``values`` as floats, each non-finite one replaced by None."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, None)


def _write_csv(path: str | Path, header, columns) -> None:
    """Write ``header`` and then one row per index of ``columns``.

    The bytes are those of :func:`csv.writer` on the same cells: rows end
    in CRLF and a cell is quoted only when it must be.  (csv also quotes a
    row whose one cell is empty; every file here has three or more
    columns.)  The rows are formatted and written :data:`WRITE_BLOCK_ROWS`
    at a time, so the strings of a whole file are never held at once.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_text, header)) + "\r\n")
        for r0 in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = slice(r0, r0 + WRITE_BLOCK_ROWS)
            rows = zip(*(_cells(column[block]) for column in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def write_dataset_csv(path: str | Path, samples) -> None:
    """Write measurement samples in the canonical ingestion schema."""
    samples = list(samples)
    columns = [[getattr(s, name) for s in samples] for name in CANONICAL_COLUMNS]
    _write_csv(path, CANONICAL_COLUMNS, columns)


def write_geometry_csv(path: str | Path, ingest: IngestResult) -> None:
    """Write the annotated dataset: canonical + passthrough + annotations.

    Annotation columns from the input (if any) are recomputed, so running
    the command on its own output is stable.
    """
    s = ingest.samples
    g = s.geometry
    _write_csv(
        path,
        [*CANONICAL_COLUMNS, *ingest.passthrough, *ANNOTATION_COLUMNS],
        [ingest.measurements[c] for c in CANONICAL_COLUMNS]
        + list(ingest.passthrough.values())
        + [g.theta_deg, g.delta_deg, g.d2d_m, g.d3d_m, s.pl_est_dbm, s.sf_db],
    )


def write_predictions_csv(
    path: str | Path, w_hat, z_hat, variance, nugget_used: float
) -> None:
    """One row per target of the columns ``w_hat``, ``z_hat`` (the
    target's two-ray estimate plus ``w_hat``) and ``variance``; each row
    repeats the solve's one ``nugget_used``."""
    nugget = np.full(len(w_hat), nugget_used, dtype=float)
    _write_csv(path, PREDICTION_COLUMNS, [w_hat, z_hat, variance, nugget])


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
    write_json(path, doc)


def write_trials_csv(path: str | Path, trials: TrialTable) -> None:
    """One row per trial; a non-finite value is written as ``nan``/``inf``."""
    _write_csv(path, TRIAL_FIELDS, [getattr(trials, name) for name in TRIAL_FIELDS])


# ---------------------------------------------------------------------------
# Config files


#: The config schema: the JSON kind of each field, by section path (see
#: :class:`~skyfade.schema.JsonObject`); "" is the root, whose fields are
#: the sections.  A field of kind None is read apart: a section, the column
#: map, the reflection, the gain tables and the ``sim`` truth.  A field not
#: named here is an error.
CONFIG_KINDS = {
    "": dict.fromkeys(("budget", "ingest", "fit", "bins", "sim", "eval")),
    "ingest": dict(median_window="integer", max_invalid_frac="number", column_map=None),
    "fit": dict(max_lag_m="number", n_lags="integer", min_count="integer"),
    "budget": dict.fromkeys(
        ("tx_lat_deg", "tx_lon_deg", "tx_alt_m", "antenna_height_m", "tx_power_dbm", "freq_hz"),
        "number",
    ) | dict.fromkeys(("reflection", "gain_tx_csv", "gain_uav_csv")),
    "bins": dict.fromkeys(BIN_FIELDS, ["number"]),
    "sim": dict(
        seed="integer", n_samples="integer", noise_std_db="number",
        truth=None, truth_path=None, flight=None,
    ),
    "sim.flight": dict(
        altitude_m="number", east_extent_m=["number", 2], north_extent_m=["number", 2],
        speed_mps="number", sample_interval_s="number", pitch_excitation_deg="number",
        roll_excitation_deg="number", path="string", n_passes="integer",
    ),
    "eval": dict(
        m_values=["integer"], tests_per_trial="integer", total_test_predictions="integer",
        seed="integer", modes=["string"],
    ),
}


def load_config(path: str | Path) -> dict:
    return read_json(path, "config")


def _section(doc: dict, key: str) -> JsonObject:
    """Top-level config section ``key``, empty when absent; the root's
    fields are checked against :data:`CONFIG_KINDS` first."""
    root = JsonObject(doc)
    root.read(CONFIG_KINDS[""])
    return root.section(key, {})


def _fields(section: JsonObject) -> dict:
    """The fields of ``section`` that are present and have a kind in its
    :data:`CONFIG_KINDS` entry, read; any field the entry does not name
    raises :class:`SchemaError`."""
    return section.read(CONFIG_KINDS[section.where])


def ingest_from_config(doc: dict) -> dict:
    """Keyword arguments of :func:`ingest_csv` set in the ``ingest`` section."""
    section = _section(doc, "ingest")
    options = _fields(section)
    if "column_map" in section:
        names = section.section("column_map")
        options["column_map"] = {key: names.get(key, "string") for key in names.value}
    return options


def fit_from_config(doc: dict) -> dict:
    """Keyword arguments of :func:`~skyfade.correlation.fit_correlation_model`
    set in the ``fit`` section."""
    return _fields(_section(doc, "fit"))


def budget_from_config(doc: dict, base_dir: Path | None = None) -> LinkBudget:
    """Build a link budget from the config's ``budget`` section."""
    section = _section(doc, "budget")
    kwargs = _fields(section)
    if isinstance(section.value.get("reflection"), (list, tuple)):
        kwargs["reflection"] = complex(*section.list("reflection", "number", 2))
    elif "reflection" in section:
        kwargs["reflection"] = complex(section.get("reflection"))
    for key, attr in (("gain_tx_csv", "gain_tx"), ("gain_uav_csv", "gain_uav")):
        if key in section:
            kwargs[attr] = GainTable.from_csv(section.path(key, base_dir))
    if "tx_lat_deg" not in kwargs or "tx_lon_deg" not in kwargs:
        raise SchemaError(
            "config budget section must set tx_lat_deg and tx_lon_deg",
            field="budget",
        )
    return LinkBudget(**kwargs)


def bins_from_config(doc: dict) -> AngleBins:
    return AngleBins(**_fields(_section(doc, "bins")))


def sim_from_config(
    doc: dict, budget: LinkBudget, base_dir: Path | None = None
) -> SimConfig:
    section = _section(doc, "sim")
    if not section.value:
        raise SchemaError("config has no sim section", field="sim")
    if "truth" in section:
        truth = deserialize_model(section.section("truth").value)
    elif "truth_path" in section:
        truth = load_model(section.path("truth_path", base_dir))
    else:
        raise SchemaError(
            "sim section needs 'truth' (inline model) or 'truth_path'",
            field="sim.truth",
        )
    flight = FlightSpec(**_fields(section.section("flight", {})))
    options = {"seed": 0, "n_samples": 1000, **_fields(section)}
    return SimConfig(truth=truth, budget=budget, flight=flight, **options)


def eval_from_config(doc: dict) -> EvalConfig:
    return EvalConfig(**_fields(_section(doc, "eval")))
