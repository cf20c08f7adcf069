"""CSV ingestion, exporters, and config parsing."""

import csv
import gc
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _recipes import BUDGET, same_geometry, trial_table
from skyfade import dataio, propagation
from skyfade.correlation import (
    AngularProfile,
    Correlogram,
    serialize_model,
)
from skyfade.dataio import (
    ANNOTATION_COLUMNS,
    CANONICAL_COLUMNS,
    _median_filter,
    bins_from_config,
    budget_from_config,
    eval_from_config,
    ingest_csv,
    load_config,
    load_targets_csv,
    sim_from_config,
    write_correlogram_csv,
    write_coverage_report,
    write_dataset_csv,
    write_geometry_csv,
    write_predictions_csv,
    write_profile_csv,
    write_trials_csv,
)
from skyfade.errors import IngestError, SchemaError, ValidationError
from skyfade.evaluation import EvalConfig, EvalResult
from skyfade.fieldsim import synthesize_dataset
from skyfade.geometry import MeasurementSample
from skyfade.propagation import GainTable
from skyfade.schema import write_json
from test_fieldsim import small_config

HEADER = ",".join(CANONICAL_COLUMNS)


def good_row(time=0.0, alt=30.0, rsrp=-75.0, lat=35.7205, lon=-78.699):
    return f"{time},{lat},{lon},{alt},10.0,1.0,-1.0,{rsrp}"


# A pose at the transmitter antenna (the budget's mast is 1.5 m high).
ANTENNA_ROW = "7,35.72,-78.7,1.5,10,1,-1,-75"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_round_trip_is_exact(self, tmp_path):
        rows = synthesize_dataset(small_config(seed=13, n=40))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(path, rows)
        ingest = ingest_csv(path, BUDGET)
        for name in CANONICAL_COLUMNS:
            assert ingest.measurements[name].tolist() == [getattr(r, name) for r in rows]
        assert ingest.skipped == []
        assert ingest.n_rows == 40
        samples = ingest.samples
        assert len(samples) == 40
        assert samples.rsrp_dbm.tolist() == [r.rsrp_dbm for r in rows]
        assert samples.pl_est_dbm + samples.sf_db == pytest.approx(
            [r.rsrp_dbm for r in rows], abs=1e-12
        )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            ingest_csv(path, BUDGET)

    def test_header_only_rejected(self, tmp_path):
        path = write_lines(tmp_path / "h.csv", [HEADER])
        with pytest.raises(SchemaError) as err:
            ingest_csv(path, BUDGET)
        assert "no data rows" in str(err.value)

    def test_missing_column_named(self, tmp_path):
        header = ",".join(c for c in CANONICAL_COLUMNS if c != "pitch_deg")
        path = write_lines(
            tmp_path / "m.csv", [header, "0,35.7205,-78.699,30,10,-1,-75"]
        )
        with pytest.raises(SchemaError) as err:
            ingest_csv(path, BUDGET)
        assert "pitch_deg" in str(err.value)

    def test_bad_rows_skipped_with_line_numbers(self, tmp_path):
        lines = [HEADER] + [good_row(time=float(i)) for i in range(20)]
        lines.insert(5, "4.5,35.7205,-78.699,not_a_number,10,1,-1,-75")
        path = write_lines(tmp_path / "skip.csv", lines)
        ingest = ingest_csv(path, BUDGET)
        assert ingest.n_rows == 21
        assert len(ingest.samples) == 20
        assert ingest.skipped == [(6, "non-numeric or missing value")]

    def test_non_finite_row_skipped(self, tmp_path):
        lines = [HEADER] + [good_row(time=float(i)) for i in range(15)]
        lines.append("99,35.7205,-78.699,nan,10,1,-1,-75")
        path = write_lines(tmp_path / "nan.csv", lines)
        ingest = ingest_csv(path, BUDGET)
        assert ingest.skipped == [(17, "non-finite value")]

    def test_invalid_pose_row_skipped(self, tmp_path):
        lines = [HEADER] + [good_row(time=float(i)) for i in range(15)]
        lines.append("99,95.0,-78.699,30,10,1,-1,-75")  # latitude out of range
        path = write_lines(tmp_path / "pose.csv", lines)
        ingest = ingest_csv(path, BUDGET)
        assert len(ingest.skipped) == 1
        assert ingest.skipped[0][0] == 17

    def test_one_row_per_rule_reports_its_reason(self, tmp_path):
        lines = [HEADER] + [good_row(time=float(i)) for i in range(12)]
        bad = [
            "1,35.7205,-78.699,30,10,1,-1,n/a",
            "2,,-78.699,30,10,1,-1,-75",
            "3,35.7205,-78.699,nan,10,1,-1,-75",
            "4,95.0,-78.699,30,10,1,-1,-75",
            "5,35.7205,181.0,30,10,1,-1,-75",
            "6,35.7205,-78.699,30,10,95.0,-1,-75",
            ANTENNA_ROW,
            "8,35.7205,-78.699,-5.0,10,1,-1,-75",
        ]
        for k, row in enumerate(bad):
            lines.insert(2 + 2 * k, row)
        path = write_lines(tmp_path / "rules.csv", lines)
        ingest = ingest_csv(path, BUDGET, max_invalid_frac=1.0)
        assert ingest.skipped == [
            (3, "non-numeric or missing value"),
            (5, "non-numeric or missing value"),
            (7, "non-finite value"),
            (9, "latitude out of range: 95.0"),
            (11, "longitude out of range: 181.0"),
            (13, "pitch out of range: 95.0"),
            (15, "geometry/propagation: UAV and transmitter positions coincide"),
            (17, "geometry/propagation: antenna heights must be above the ground plane"),
        ]
        assert ingest.n_rows == 20
        assert len(ingest.samples) == 12
        assert ingest.measurements["time_s"].tolist() == [float(i) for i in range(12)]
        assert ingest.passthrough == {}

    def test_skips_reported_in_line_order(self, tmp_path):
        lines = [HEADER, good_row(), ANTENNA_ROW, good_row(), "x,x,x,x,x,x,x,x"]
        lines += [good_row(), "2,35.7205,-78.699,-5.0,10,1,-1,-75"]
        lines += [good_row(time=float(i)) for i in range(30)]
        path = write_lines(tmp_path / "order.csv", lines)
        expected = [
            (3, "geometry/propagation: UAV and transmitter positions coincide"),
            (5, "non-numeric or missing value"),
            (7, "geometry/propagation: antenna heights must be above the ground plane"),
        ]
        assert ingest_csv(path, BUDGET).skipped == expected
        with pytest.raises(IngestError) as err:
            ingest_csv(path, BUDGET, max_invalid_frac=0.05)
        assert err.value.bad_rows == expected
        assert str(err.value) == (
            f"{path}: 3 of 36 rows invalid (limit 5%); first failures: "
            + "; ".join(f"line {ln}: {why}" for ln, why in expected)
        )

    def test_too_many_bad_rows_abort(self, tmp_path):
        lines = [HEADER, good_row(), good_row(time=1.0), "x,x,x,x,x,x,x,x"]
        path = write_lines(tmp_path / "bad.csv", lines)
        with pytest.raises(IngestError) as err:
            ingest_csv(path, BUDGET)
        assert err.value.bad_rows[0][0] == 4

    def test_column_map_renames_headers(self, tmp_path):
        header = "t,latitude,longitude,alt_m,yaw_deg,pitch_deg,roll_deg,power"
        path = write_lines(
            tmp_path / "ext.csv", [header, "0,35.7205,-78.699,30,10,1,-1,-75"]
        )
        ingest = ingest_csv(
            path,
            BUDGET,
            column_map={
                "time_s": "t",
                "lat_deg": "latitude",
                "lon_deg": "longitude",
                "rsrp_dbm": "power",
            },
        )
        assert len(ingest.samples) == 1
        assert ingest.measurements["rsrp_dbm"].tolist() == [-75.0]

    def test_unknown_canonical_name_in_map(self, tmp_path):
        path = write_lines(tmp_path / "x.csv", [HEADER, good_row()])
        with pytest.raises(SchemaError):
            ingest_csv(path, BUDGET, column_map={"signal": "rsrp_dbm"})

    def test_column_map_sharing_a_header_rejected(self, tmp_path):
        # time_s sent to lat_deg's header would read the latitude twice.
        path = write_lines(tmp_path / "x.csv", [HEADER, good_row()])
        with pytest.raises(SchemaError) as err:
            ingest_csv(path, BUDGET, column_map={"time_s": "lat_deg"})
        assert str(err.value) == (
            "column map sends time_s and lat_deg to the same header: lat_deg"
        )
        # Swapping two headers claims each once.
        swapped = write_lines(
            tmp_path / "swapped.csv",
            ["lat_deg,time_s," + HEADER.split(",", 2)[2], good_row()],
        )
        ingest = ingest_csv(
            swapped, BUDGET, column_map={"time_s": "lat_deg", "lat_deg": "time_s"}
        )
        assert ingest.measurements["lat_deg"].tolist() == [35.7205]

    def test_extra_columns_passed_through(self, tmp_path):
        path = write_lines(
            tmp_path / "extra.csv",
            [HEADER + ",site", good_row() + ",LW1", good_row(time=1.0) + ",LW2"],
        )
        ingest = ingest_csv(path, BUDGET)
        assert list(ingest.passthrough) == ["site"]
        assert ingest.passthrough["site"].tolist() == ["LW1", "LW2"]

    def test_blank_line_ignored_and_not_counted(self, tmp_path):
        lines = [HEADER, good_row(), "", "1,35.7205,-78.699,x,10,1,-1,-75"]
        lines += [good_row(time=float(i)) for i in range(2, 12)]
        path = write_lines(tmp_path / "blank.csv", lines)
        ingest = ingest_csv(path, BUDGET)
        assert ingest.n_rows == 12
        assert len(ingest.samples) == 11
        assert ingest.skipped == [(4, "non-numeric or missing value")]

    def test_short_row_skipped_on_its_line(self, tmp_path):
        lines = [HEADER] + [good_row(time=float(i)) for i in range(12)]
        lines.insert(4, "3,35.7205,-78.699,30")
        path = write_lines(tmp_path / "short.csv", lines)
        ingest = ingest_csv(path, BUDGET)
        assert ingest.n_rows == 13
        assert ingest.skipped == [(5, "non-numeric or missing value")]

    @pytest.mark.parametrize("read", [ingest_csv, load_targets_csv])
    def test_bytes_that_are_not_utf8_rejected(self, tmp_path, read):
        """A Latin-1 byte used to end in a UnicodeDecodeError."""
        path = tmp_path / "latin1.csv"
        rows = [HEADER] + [good_row(time=float(i)) for i in range(12)]
        latin1 = b"1,35.72,-78.70,30,10,1,-1,-75\xb0\n"
        path.write_bytes("\n".join(rows).encode() + b"\n" + latin1)
        with pytest.raises(SchemaError) as err:
            read(path, BUDGET)
        reason = "not UTF-8 text: byte 0xb0 (invalid start byte)"
        assert str(err.value) == f"{path}: {reason}"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """A leading UTF-8 byte-order mark, which spreadsheet exports write,
        used to glue itself to the first column's name."""
        lines = [HEADER] + [good_row(time=float(i)) for i in range(12)]
        lines.insert(4, "3,35.7205,-78.699,30")
        plain = write_lines(tmp_path / "plain.csv", lines)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, ref = ingest_csv(bom, BUDGET), ingest_csv(plain, BUDGET)
        assert got.skipped == ref.skipped == [(5, "non-numeric or missing value")]
        for name in CANONICAL_COLUMNS:
            assert got.measurements[name].tolist() == ref.measurements[name].tolist()
        del lines[4]
        write_lines(plain, lines)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        (got, _), (ref, _) = load_targets_csv(bom, BUDGET), load_targets_csv(plain, BUDGET)
        assert same_geometry(got, ref) and len(got) == 12

    def test_numpy_float_samples_round_trip(self, tmp_path):
        table = np.array(
            [
                [0.0, 35.7205, -78.699, 30.0, 10.0, 1.0, -1.0, -75.0],
                [1.0, 35.7206, -78.6991, 31.5, 12.0, 2.0, -2.0, -76.25],
            ]
        )
        path = tmp_path / "numpy.csv"
        write_dataset_csv(path, (MeasurementSample(*row) for row in table))
        ingest = ingest_csv(path, BUDGET)
        assert ingest.skipped == []
        for k, name in enumerate(CANONICAL_COLUMNS):
            assert ingest.measurements[name].tolist() == table[:, k].tolist()


class TestMedianFilter:
    def test_hand_oracle(self):
        out = _median_filter(np.array([5.0, 1.0, 4.0, 2.0, 8.0]), 3)
        assert out.tolist() == [3.0, 4.0, 2.0, 4.0, 5.0]

    @pytest.mark.parametrize("window", [3, 5, 7])
    def test_matches_per_row_loop(self, window):
        def per_row(values):
            half = window // 2
            out = np.empty_like(values)
            for i in range(values.size):
                lo, hi = max(0, i - half), min(values.size, i + half + 1)
                out[i] = np.median(values[lo:hi])
            return out

        rng = np.random.default_rng(window)
        for n in [*range(1, 21), 1000]:
            # Rounded values repeat, so windows hold ties.
            values = np.round(rng.normal(-90.0, 8.0, n), 1)
            out = _median_filter(values, window)
            assert out.tobytes() == per_row(values).tobytes(), n

    def test_window_one_is_identity(self):
        values = np.array([3.0, 1.0, 2.0])
        assert _median_filter(values, 1) is values

    def test_even_window_rejected(self):
        with pytest.raises(ValidationError):
            _median_filter(np.array([1.0, 2.0]), 4)

    def test_window_zero_is_off_and_negative_rejected(self, tmp_path):
        values = np.array([3.0, 1.0, 2.0])
        assert _median_filter(values, 0) is values
        for window in (-1, -3, -4):
            with pytest.raises(ValidationError, match="must not be negative"):
                _median_filter(values, window)
        path = write_lines(tmp_path / "f.csv", [HEADER, good_row()])
        with pytest.raises(ValidationError):
            ingest_csv(path, BUDGET, median_window=-3)

    def test_applied_before_decomposition(self, tmp_path):
        lines = [HEADER]
        for i, rsrp in enumerate((0.0, 10.0, 0.0)):
            lines.append(good_row(time=float(i), rsrp=rsrp))
        path = write_lines(tmp_path / "f.csv", lines)
        ingest = ingest_csv(path, BUDGET, median_window=3)
        assert ingest.measurements["rsrp_dbm"].tolist() == [5.0, 0.0, 5.0]
        assert ingest.samples.rsrp_dbm.tolist() == [5.0, 0.0, 5.0]
        raw = ingest_csv(path, BUDGET)
        assert ingest.samples.sf_db[0] == raw.samples.sf_db[0] + 5.0


class TestTargets:
    def test_rsrp_column_optional(self, tmp_path):
        header = ",".join(c for c in CANONICAL_COLUMNS if c != "rsrp_dbm")
        path = write_lines(
            tmp_path / "t.csv", [header, "0,35.7205,-78.699,30,10,1,-1"]
        )
        geoms, rsrp = load_targets_csv(path, BUDGET)
        assert len(geoms) == 1
        assert rsrp.tolist() == [0.0]
        assert geoms.d2d_m[0] > 0.0

    def test_rsrp_parsed_when_present(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [HEADER, good_row(rsrp=-64.5)])
        _, rsrp = load_targets_csv(path, BUDGET)
        assert rsrp.tolist() == [-64.5]

    def test_bad_value_names_line(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv",
            [HEADER, good_row(), "1,35.7205,-78.699,thirty,10,1,-1,-75"],
        )
        with pytest.raises(IngestError) as err:
            load_targets_csv(path, BUDGET)
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("1,35.7205,-78.699,30,10,95.0,-1", "pitch out of range: 95.0"),
            ("1,35.7205,-78.699,nan,10,1,-1", "altitude not finite: nan"),
            ("1,35.72,-78.7,1.5,10,1,-1", "UAV and transmitter positions coincide"),
            (
                "1,35.7205,-78.699,-5.0,10,1,-1",
                "antenna heights must be above the ground plane",
            ),
        ],
        ids=["pitch", "nan-altitude", "at-antenna", "below-ground"],
    )
    def test_invalid_pose_names_line(self, tmp_path, row, reason):
        header = ",".join(c for c in CANONICAL_COLUMNS if c != "rsrp_dbm")
        path = write_lines(
            tmp_path / "t.csv", [header, "0,35.7205,-78.699,30,10,1,-1", row]
        )
        with pytest.raises(IngestError) as err:
            load_targets_csv(path, BUDGET)
        assert str(err.value) == f"{path}: line 3: {reason}"
        assert err.value.bad_rows == [(3, reason)]

    def test_short_row_names_line(self, tmp_path):
        path = write_lines(
            tmp_path / "t.csv", [HEADER, good_row(), "", "1,35.7205,-78.699,30"]
        )
        with pytest.raises(IngestError) as err:
            load_targets_csv(path, BUDGET)
        assert str(err.value).startswith(f"{path}: line 4: non-numeric value (")
        assert err.value.bad_rows == [(4, "non-numeric value")]

    def test_missing_pose_column(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", ["time_s,lat_deg", "0,35.72"])
        with pytest.raises(SchemaError) as err:
            load_targets_csv(path, BUDGET)
        assert "lon_deg" in str(err.value)

    def test_column_map_renames_headers(self, tmp_path):
        header = "t,latitude,longitude,alt_m,yaw_deg,pitch_deg,roll_deg,power"
        path = write_lines(
            tmp_path / "ext.csv", [header, "0,35.7205,-78.699,30,10,1,-1,-64.5"]
        )
        column_map = {
            "time_s": "t",
            "lat_deg": "latitude",
            "lon_deg": "longitude",
            "rsrp_dbm": "power",
        }
        geoms, rsrp = load_targets_csv(path, BUDGET, column_map)
        ref_path = write_lines(tmp_path / "ref.csv", [HEADER, good_row(rsrp=-64.5)])
        ref_geoms, ref_rsrp = load_targets_csv(ref_path, BUDGET)
        assert same_geometry(geoms, ref_geoms)
        assert rsrp.tolist() == ref_rsrp.tolist() == [-64.5]
        # A mapped column that is absent is named by its actual header.
        with pytest.raises(SchemaError) as err:
            load_targets_csv(ref_path, BUDGET, {"lat_deg": "latitude"})
        assert err.value.field == "latitude"
        # Two canonical columns may not share one header.
        with pytest.raises(SchemaError, match="sends time_s and lat_deg"):
            load_targets_csv(ref_path, BUDGET, {"time_s": "lat_deg"})

    def test_unknown_canonical_name_in_map(self, tmp_path):
        path = write_lines(tmp_path / "t.csv", [HEADER, good_row()])
        with pytest.raises(SchemaError) as err:
            load_targets_csv(path, BUDGET, {"signal": "rsrp_dbm"})
        assert err.value.field == "signal"
        assert "unknown canonical column in map: signal" in str(err.value)


class TestWriters:
    def test_geometry_csv_layout_and_idempotence(self, tmp_path):
        path = write_lines(
            tmp_path / "in.csv",
            [HEADER + ",site", good_row() + ",LW1", good_row(time=1.0) + ",LW1"],
        )
        out1 = tmp_path / "out1.csv"
        write_geometry_csv(out1, ingest_csv(path, BUDGET))
        header = out1.read_text().splitlines()[0].split(",")
        assert header == list(CANONICAL_COLUMNS) + ["site"] + list(ANNOTATION_COLUMNS)
        out2 = tmp_path / "out2.csv"
        write_geometry_csv(out2, ingest_csv(out1, BUDGET))
        assert out2.read_bytes() == out1.read_bytes()

    def test_geometry_csv_passthrough_cells(self, tmp_path):
        path = write_lines(
            tmp_path / "in.csv",
            [
                HEADER + ",site,note",
                good_row() + ',"LW1, north","say ""hi"""',
                good_row(time=1.0) + ",LW2",  # no note cell
            ],
        )
        out1 = tmp_path / "out1.csv"
        write_geometry_csv(out1, ingest_csv(path, BUDGET))
        with open(out1, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["site"], r["note"]) for r in rows] == [
            ("LW1, north", 'say "hi"'),
            ("LW2", ""),
        ]
        out2 = tmp_path / "out2.csv"
        write_geometry_csv(out2, ingest_csv(out1, BUDGET))
        assert out2.read_bytes() == out1.read_bytes()

    def test_profile_csv(self, tmp_path):
        rho = np.full((1, 2, 2), np.nan)
        rho[0, 0, 0] = 1.0
        rho[0, 0, 1] = rho[0, 1, 0] = 0.5
        profile = AngularProfile(rho=rho, counts=np.array([[40, 35]]))
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile, "elev", "tilt", [20.0], [-5.0, 5.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "elev_rep_deg,tilt_rep_i_deg,tilt_rep_j_deg,rho,count_i,count_j"
        assert lines[1] == "20.0,-5.0,-5.0,1.0,40,40"
        assert lines[2] == "20.0,-5.0,5.0,0.5,40,35"
        assert lines[4].endswith(",,35,35")  # NaN diagonal under min-count

    def test_correlogram_csv(self, tmp_path):
        gram = Correlogram(
            lag_m=np.array([5.0, np.nan]),
            rho=np.array([0.25, np.nan]),
            counts=np.array([12, 0]),
        )
        path = tmp_path / "gram.csv"
        write_correlogram_csv(path, gram)
        lines = path.read_text().splitlines()
        assert lines == ["lag_m,rho,count", "5.0,0.25,12", ",,0"]

    def test_predictions_csv(self, tmp_path):
        path = tmp_path / "pred.csv"
        write_predictions_csv(
            path, np.array([1.5]), np.array([-70.25]), np.array([0.75]), 0.0
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "w_hat_db,z_hat_dbm,kriging_var_db2,nugget_used"
        assert lines[1] == "1.5,-70.25,0.75,0.0"

    def test_trials_csv(self, tmp_path):
        config = EvalConfig(m_values=(5,), tests_per_trial=2, total_test_predictions=2)
        trials = trial_table([(5, "baseline", 0, 3.5, 1e-06, 0.95, 1.25, 1)])
        result = EvalResult(config=config, trials=trials)
        path = tmp_path / "trials.csv"
        write_trials_csv(path, result.trials)
        lines = path.read_text().splitlines()
        # The calibration columns and the floored count come after the
        # original five.
        assert lines[0] == (
            "m,mode,trial,rmse_db,nugget_used,pi95_coverage,zscore_sd,floored"
        )
        assert lines[1] == "5,baseline,0,3.5,1e-06,0.95,1.25,1"

    def test_summary_json(self, tmp_path):
        config = EvalConfig(m_values=(5,), tests_per_trial=2, total_test_predictions=2)
        trials = trial_table([(5, "baseline", 0, 3.5, 0.0, 0.9, 1.5, 0)])
        result = EvalResult(config=config, trials=trials)
        path = tmp_path / "summary.json"
        write_json(path, result.summary())
        doc = json.loads(path.read_text())
        assert doc["results"][0]["median_rmse_db"] == 3.5
        assert doc["results"][0]["median_pi95_coverage"] == 0.9
        assert doc["results"][0]["median_zscore_sd"] == 1.5

    def test_coverage_report(self, tmp_path):
        class FakeFit:
            excluded_cells = [{"elev_bin": 0, "tilt_bin": 1, "count": 3, "min_count": 30}]
            warnings = ["tilt: conditioning bin 2 has no usable pairs"]

        path = tmp_path / "coverage.json"
        write_coverage_report(path, FakeFit(), ingest_skipped=[(7, "bad row")])
        doc = json.loads(path.read_text())
        assert doc["excluded_cells"][0]["count"] == 3
        assert doc["warnings"] == FakeFit.warnings
        assert doc["skipped_rows"] == [{"line": 7, "reason": "bad row"}]


def _dict_read_csv(path):
    """The reader as it was written with csv.DictReader (no column map),
    kept as the reference for :func:`skyfade.dataio._read_csv`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = list(reader.fieldnames)
        names = [c for c in CANONICAL_COLUMNS if c in header]
        extra = {c: [] for c in header if c not in CANONICAL_COLUMNS}
        lines, values, failures = [], [], []
        for row in reader:
            try:
                values.append([float(row[k]) for k in names])
            except (TypeError, ValueError) as exc:
                failures.append((reader.line_num, exc))
                continue
            lines.append(reader.line_num)
            for c, cells in extra.items():
                cells.append(row[c] or "")
    table = np.array(values, dtype=float).reshape(-1, len(names))
    passthrough = {c: np.array(cells, dtype=object) for c, cells in extra.items()}
    return names, lines, table, failures, passthrough


#: Text cells: the characters csv quotes for, spaces and non-ASCII.
TEXT = st.text(
    st.one_of(
        st.sampled_from(list(',"\r\n ab')),
        st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    ),
    max_size=6,
)
#: Floats, with the values where repr's form changes drawn often.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
         1e-05, 9.999999999999999e-06, 0.0001, 1e16, 9999999999999998.0, 1e15]
    ),
)
CELLS = st.one_of(FLOATS, st.integers(), st.none(), st.just(""), TEXT)


@st.composite
def csv_columns(draw):
    """A header and 2-4 equally long columns: float64 arrays, int arrays,
    object arrays or lists of any cells."""
    n_rows = draw(st.integers(0, 12))
    ints = st.integers(-(2**63), 2**63 - 1)
    columns = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(["float64", "int64", "object", "list"]))
        values = FLOATS if kind == "float64" else ints if kind == "int64" else CELLS
        column = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
        columns.append(column if kind == "list" else np.array(column, dtype=kind))
    header = draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestCsvBoundary:
    @given(csv_columns(), st.integers(1, 5))
    def test_writer_matches_csv_writer(self, table, block_rows):
        """The same bytes as csv.writer on the cells, floats in repr form."""
        header, columns = table
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(header)
        cells = [
            [repr(float(v)) if isinstance(v, float) else v for v in column]
            for column in columns
        ]
        writer.writerows(zip(*cells))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            with mock.patch.object(dataio, "WRITE_BLOCK_ROWS", block_rows):
                dataio._write_csv(path, header, columns)
            assert path.read_bytes() == reference.getvalue().encode("utf-8")

    def test_reader_matches_dict_reader(self, tmp_path):
        """Positional cells read as csv.DictReader read them: a repeated
        header names its last column, a short row reads its missing cells
        as None, blank lines are skipped, extra cells ignored, and each row
        is reported on the line it ends."""
        rows = [
            HEADER + ",site,alt_m,note,site",
            good_row() + ",A,31.5,plain,B",
            "",
            good_row(time=1.0) + ',A,32,"two\nlines, ""quoted""",C',
            "3,35.7205,-78.699,30",
            good_row(time=2.0) + ",A,33,short",
            "",
            "",
            good_row(time=3.0) + ",A,34,extra,D,x,y",
            " 1_0 ,35.7205,-78.699,30,infinity,1,-1,-75,A,35,n,E",
            good_row(time=5.0) + ",A,,n,F",
            "x,35.7205,-78.699,30,10,1,-1,-75,A,36,n,G",
            good_row(time=6.0) + ",,37.25,,",
        ]
        path = tmp_path / "quirks.csv"
        path.write_text("\r\n".join(rows), encoding="utf-8")
        names, lines, table, failures, passthrough = dataio._read_csv(
            path, None, CANONICAL_COLUMNS
        )
        ref = _dict_read_csv(path)
        assert names == ref[0] == list(CANONICAL_COLUMNS)
        assert lines.tolist() == ref[1] == [2, 5, 7, 10, 11, 14]
        assert np.array_equal(table, ref[2])
        assert table[:, 3].tolist() == [31.5, 32.0, 33.0, 34.0, 35.0, 37.25]
        assert table[4, 0] == 10.0 and table[4, 4] == math.inf
        assert [(n, type(e), str(e)) for n, e in failures] == [
            (n, type(e), str(e)) for n, e in ref[3]
        ]
        assert [n for n, _e in failures] == [6, 12, 13]
        assert list(passthrough) == list(ref[4]) == ["site", "note"]
        for c in passthrough:
            assert passthrough[c].tolist() == ref[4][c].tolist()
        assert passthrough["note"].tolist()[1] == 'two\nlines, "quoted"'
        assert passthrough["site"].tolist() == ["B", "C", "", "D", "E", ""]


def _per_row_read_csv(path, column_map, required):
    """:func:`_dict_read_csv`, a list per row, with its line numbers as the
    reader's int array: the per-row reference for files with every
    canonical column under its own name."""
    names, lines, table, failures, passthrough = _dict_read_csv(path)
    return names, np.array(lines, dtype=np.int64), table, failures, passthrough


def _outcome(read, *args, **options):
    """What ``read(*args, **options)`` returns, or the type, text and bad
    rows of the error it raises."""
    try:
        return read(*args, **options)
    except IngestError as exc:
        return type(exc), str(exc), exc.bad_rows


def assert_same_ingest(got, ref):
    """Two :func:`ingest_csv` outcomes are equal: the same IngestResult,
    value for value, or the same error."""
    if isinstance(ref, tuple):
        assert got == ref
        return
    assert same_geometry(got.samples.geometry, ref.samples.geometry)
    for name in ("sf_db", "rsrp_dbm", "pl_est_dbm"):
        assert np.array_equal(getattr(got.samples, name), getattr(ref.samples, name))
    assert list(got.measurements) == list(ref.measurements)
    for name, column in ref.measurements.items():
        assert np.array_equal(got.measurements[name], column)
    assert list(got.passthrough) == list(ref.passthrough)
    for name, cells in ref.passthrough.items():
        assert got.passthrough[name].tolist() == cells.tolist()
    assert got.skipped == ref.skipped
    assert all(type(line) is int for line, _why in got.skipped)
    assert got.n_rows == ref.n_rows


def ingest_both(path, block, **options):
    """(blocked, per-row) :func:`ingest_csv` outcomes, the reader's block
    set to ``block`` parsed rows."""
    with mock.patch.object(dataio, "READ_BLOCK_ROWS", block):
        got = _outcome(ingest_csv, path, BUDGET, **options)
    with mock.patch.object(dataio, "_read_csv", _per_row_read_csv):
        ref = _outcome(ingest_csv, path, BUDGET, **options)
    return got, ref


def numbered_rows(n):
    """n valid rows, each with its own time, altitude and RSRP."""
    return [
        good_row(time=float(i), alt=30.0 + i % 7, rsrp=-75.0 - i % 5) for i in range(n)
    ]


class TestBlockedReader:
    """_read_csv parses READ_BLOCK_ROWS rows at a time into float64 blocks;
    every outcome is the per-row reader's."""

    @pytest.mark.parametrize("block", [5, dataio.READ_BLOCK_ROWS])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_around_a_block(self, tmp_path, block, offset):
        n = block + offset
        rows = [HEADER + ",site"] + [r + f",s{i}" for i, r in enumerate(numbered_rows(n))]
        path = write_lines(tmp_path / "rows.csv", rows)
        with mock.patch.object(dataio, "READ_BLOCK_ROWS", block):
            names, lines, table, failures, passthrough = dataio._read_csv(
                path, None, CANONICAL_COLUMNS
            )
        ref = _dict_read_csv(path)
        assert lines.dtype == np.int64 and table.dtype == np.float64
        assert lines.tolist() == ref[1] == list(range(2, n + 2))
        assert np.array_equal(table, ref[2]) and table.shape == (n, 8)
        assert failures == ref[3] == []
        assert passthrough["site"].tolist() == ref[4]["site"].tolist()
        got, ref = ingest_both(path, block)
        assert_same_ingest(got, ref)
        assert got.n_rows == n

    @pytest.mark.parametrize("bad", ["x,35.7205,-78.699,30,10,1,-1,-75",
                                     "1,35.7205,-78.699,30,10,95.0,-1,-75"],
                             ids=["non-numeric", "pose"])
    def test_bad_row_on_each_side_of_a_block_boundary(self, tmp_path, bad):
        # Blocks of 4 parsed rows: a bad row just before the 4th parsed
        # row, one just after it and one after the 8th.  A non-numeric row
        # parses into no block; a bad pose is a row of its block.
        rows = numbered_rows(10)
        for at in (9, 5, 3):
            rows.insert(at, bad)
        path = write_lines(tmp_path / "bad.csv", [HEADER, *rows])
        got, ref = ingest_both(path, 4, max_invalid_frac=0.5)
        assert_same_ingest(got, ref)
        assert [line for line, _why in got.skipped] == [5, 8, 13]
        got, ref = ingest_both(path, 4, max_invalid_frac=0.2)
        assert got == ref and got[0] is IngestError

    def test_short_rows_blank_lines_and_passthrough(self, tmp_path):
        rows = [HEADER + ",site,note"]
        for i, row in enumerate(numbered_rows(12)):
            rows += [row + f",s{i},n{i}", "" if i % 4 == 1 else row + f",t{i}"]
        rows[7] = "3,35.7205,-78.699,30"  # short in the pose columns
        rows[12] = good_row(time=9.0) + ",only"  # short in the passthrough
        path = write_lines(tmp_path / "short.csv", rows)
        for block in (1, 3, 4):
            got, ref = ingest_both(path, block, max_invalid_frac=0.5)
            assert_same_ingest(got, ref)
            assert got.skipped == [(8, "non-numeric or missing value")]
            site = got.passthrough["site"].tolist()
            assert got.passthrough["note"].tolist()[site.index("only")] == ""

    @pytest.mark.parametrize(
        "rows, first",
        [
            # A bad pose before the boundary is named ahead of a
            # non-numeric row after it: the lowest failing line wins.
            (["1,35.7205,-78.699,30,10,95.0,-1", "1,35.7205,-78.699,thirty,10,1,-1"],
             "line 3: pitch out of range: 95.0"),
            # A bad pose on each side of the boundary: the first is named.
            (["1,35.7205,-78.699,30,10,1,-1", "1,35.7205,-78.699,30,10,95.0,-1",
              "1,35.7205,-78.699,-5.0,10,1,-1"],
             "line 5: pitch out of range: 95.0"),
        ],
        ids=["non-numeric", "pose"],
    )
    def test_targets_first_failure_message(self, tmp_path, rows, first):
        header = ",".join(c for c in CANONICAL_COLUMNS if c != "rsrp_dbm")
        good = "0,35.7205,-78.699,30,10,1,-1"
        path = write_lines(tmp_path / "t.csv", [header, good, rows[0], good, *rows[1:]])
        outcomes = []
        for patch in (mock.patch.object(dataio, "READ_BLOCK_ROWS", 2),
                      mock.patch.object(dataio, "_read_csv", _per_row_read_csv)):
            with patch:
                outcomes.append(_outcome(load_targets_csv, path, BUDGET))
        got, ref = outcomes
        assert got == ref
        assert got[1] == f"{path}: {first}"
        assert all(type(line) is int for line, _why in got[2])

    def test_reader_holds_no_python_float_per_value(self, tmp_path):
        # The table and line numbers are held twice while the blocks are
        # joined, 2 * (8 + 1) * 8 bytes a row, and one block's Python
        # lists (about 300 bytes a row; 1000 allowed) are alive at a time.
        # A list of Python floats for the whole file traces about 360
        # bytes a row, 7.3 MB here; this traces about 150, 3.1 MB.
        n = 20000
        path = write_lines(tmp_path / "big.csv", [HEADER, *numbered_rows(n)])
        tracemalloc.start()
        try:
            dataio._read_csv(path, None, CANONICAL_COLUMNS)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 9 * 8 * n + 1000 * dataio.READ_BLOCK_ROWS


def ingest_in_blocks(read, path, block, **options):
    """The outcome of ``read(path, BUDGET, **options)``, decompose's block
    set to ``block`` rows."""
    with mock.patch.object(propagation, "DECOMPOSE_BLOCK_ROWS", block):
        return _outcome(read, path, BUDGET, **options)


class TestBlockedDecomposition:
    """decompose runs in blocks of DECOMPOSE_BLOCK_ROWS rows; ingest and
    target loading give what one block over the whole file gives."""

    def test_ingest_with_failures_in_several_blocks(self, tmp_path):
        # Rows failing geometry or two-ray rules fall in the first, second
        # and fourth of decompose's 7-row blocks; rows failing the pose
        # rules or the parse never reach it and shift the blocks' rows.
        rows = [r + f",s{i}" for i, r in enumerate(numbered_rows(30))]
        rows[3] = ANTENNA_ROW + ",antenna"
        rows[9] = good_row(alt=-5.0) + ",below"
        rows[12] = "1,35.7205,-78.699,30,10,95.0,-1,-75,pitch"
        rows[17] = "x,35.7205,-78.699,30,10,1,-1,-75,text"
        rows[25] = good_row(alt=-1.0) + ",below"
        path = write_lines(tmp_path / "rows.csv", [HEADER + ",site", *rows])
        got = ingest_in_blocks(ingest_csv, path, 7, max_invalid_frac=0.5)
        ref = ingest_in_blocks(ingest_csv, path, 10**6, max_invalid_frac=0.5)
        assert_same_ingest(got, ref)
        assert [line for line, _why in got.skipped] == [5, 11, 14, 19, 27]
        assert len(got.samples) == 25

    def test_ingest_without_failures_returns_its_columns(self, tmp_path):
        path = write_lines(tmp_path / "rows.csv", [HEADER, *numbered_rows(17)])
        got = ingest_in_blocks(ingest_csv, path, 7)
        assert_same_ingest(got, ingest_in_blocks(ingest_csv, path, 10**6))
        assert got.samples.rsrp_dbm is got.measurements["rsrp_dbm"]

    def test_targets_keep_the_pose_rule_error(self, tmp_path):
        # Line 4 breaks a pose rule and sits at the antenna: the pose rule,
        # flagged before decompose, is what names it, ahead of the
        # below-ground row on line 11 in the next block.
        header = ",".join(c for c in CANONICAL_COLUMNS if c != "rsrp_dbm")
        rows = [f"{i},35.7205,-78.699,{30 + i},10,1,-1" for i in range(12)]
        rows[2] = "2,35.72,-78.7,1.5,10,95.0,-1"
        rows[9] = "9,35.7205,-78.699,-5.0,10,1,-1"
        path = write_lines(tmp_path / "t.csv", [header, *rows])
        got = ingest_in_blocks(load_targets_csv, path, 7)
        assert got == ingest_in_blocks(load_targets_csv, path, 10**6)
        reason = "pitch out of range: 95.0"
        assert got == (IngestError, f"{path}: line 4: {reason}", [(4, reason)])


class TestIngestMemory:
    def test_malformed_rows_leave_nothing_allocated(self, tmp_path):
        # A parse failure kept with its traceback held the reader's frame,
        # and so every parsed block, in a reference cycle: with the cycle
        # collector off, about 3 MB stayed allocated here after the result
        # was dropped.  Left over now are the interpreter's free lists of
        # small tuples and floats, some tens of kilobytes.
        rows = numbered_rows(10000)
        for i in range(50, len(rows), 100):
            rows[i] = "x,35.7205,-78.699,30,10,1,-1,-75"
        path = write_lines(tmp_path / "bad.csv", [HEADER, *rows])
        ingest_csv(path, BUDGET)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            result = ingest_csv(path, BUDGET)
            assert len(result.skipped) == 100
            del result
            after, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert after - before < 256 * 1024

    def test_peak_memory_per_row(self, tmp_path):
        # The result holds about 160 bytes a row: the SfTable's 80 and the
        # measurements' 80 (the kept rows' eight columns, wrapped yaw and
        # roll).  The peak adds the parsed table while its kept rows are
        # copied and one decompose block's temporaries, about 350 bytes a
        # block row: about 240 bytes a row here.  Whole-column temporaries
        # and copies of every kept column traced about 525 bytes a row.
        n = 20000
        rows = numbered_rows(n)
        for i in range(50, n, 100):
            rows[i] = "x,35.7205,-78.699,30,10,1,-1,-75"
        path = write_lines(tmp_path / "big.csv", [HEADER, *rows])
        tracemalloc.start()
        try:
            ingest_csv(path, BUDGET)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 240 * n + 500 * propagation.DECOMPOSE_BLOCK_ROWS

    def test_result_holds_only_its_columns(self, tmp_path):
        # The live columns need 144 bytes a row: the SfTable's ten and the
        # measurements' eight.  Wrapped yaw and roll put in new arrays left
        # the kept rows' unwrapped ones allocated too: about 159 bytes a row.
        n = 20000
        path = write_lines(tmp_path / "big.csv", [HEADER, *numbered_rows(n)])
        tracemalloc.start()
        try:
            before, _peak = tracemalloc.get_traced_memory()
            result = ingest_csv(path, BUDGET)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.samples) == n
        assert (held - before) / n <= 150


class TestConfigs:
    def test_budget_full_section(self, tmp_path):
        gain = tmp_path / "gain.csv"
        gain.write_text("angle_deg,gain_dbi\n-90,-3\n90,3\n")
        doc = {
            "budget": {
                "tx_lat_deg": 35.72,
                "tx_lon_deg": -78.70,
                "antenna_height_m": 2.0,
                "tx_power_dbm": 27.0,
                "freq_hz": 3.5e9,
                "reflection": [-0.8, 0.1],
                "gain_tx_csv": "gain.csv",
            }
        }
        budget = budget_from_config(doc, base_dir=tmp_path)
        assert budget.antenna_height_m == 2.0
        assert budget.reflection == complex(-0.8, 0.1)
        assert budget.gain_tx.lookup(90.0) == 3.0
        assert budget.gain_uav.lookup(0.0) == 0.0

    def test_gain_table_header_after_blank_lines(self, tmp_path):
        """The first non-blank row is the optional header; a blank first
        line used to make it fail as a non-numeric row 2."""
        gain = tmp_path / "gain.csv"
        text = "\n,\nélévation (°),gain_dbi\n-90,-3\n\n90,3\n"
        gain.write_text(text, encoding="utf-8")
        table = GainTable.from_csv(gain)
        assert table.angles_deg == (-90.0, 90.0)
        assert table.gains_dbi == (-3.0, 3.0)
        gain.write_text("angle_deg,gain_dbi\n-90,-3\nninety,3\n")
        with pytest.raises(SchemaError, match="non-numeric row 3"):
            GainTable.from_csv(gain)

    def test_gain_table_byte_order_mark_is_dropped(self, tmp_path):
        """Behind a byte-order mark, a headerless table's first row used to
        be taken for its header."""
        gain = tmp_path / "gain.csv"
        gain.write_bytes(b"\xef\xbb\xbf-90,-3\n0,1\n90,3\n")
        table = GainTable.from_csv(gain)
        assert table.angles_deg == (-90.0, 0.0, 90.0)
        assert table.gains_dbi == (-3.0, 1.0, 3.0)

    def test_gain_table_not_utf8(self, tmp_path):
        gain = tmp_path / "gain.csv"
        gain.write_bytes(b"\xe9l\xe9vation,gain_dbi\n-90,-3\n90,3\n")
        doc = {"budget": {"tx_lat_deg": 1.0, "tx_lon_deg": 2.0, "gain_uav_csv": str(gain)}}
        with pytest.raises(SchemaError) as err:
            budget_from_config(doc)
        assert str(err.value).startswith(f"{gain}: not UTF-8 text: byte 0xe9")

    def test_budget_scalar_reflection(self):
        doc = {"budget": {"tx_lat_deg": 1.0, "tx_lon_deg": 2.0, "reflection": -0.9}}
        assert budget_from_config(doc).reflection == complex(-0.9, 0.0)

    def test_budget_requires_transmitter_position(self):
        with pytest.raises(SchemaError) as err:
            budget_from_config({"budget": {"tx_lat_deg": 1.0}})
        assert err.value.field == "budget"

    def test_bins_default_and_custom(self):
        assert bins_from_config({}) == bins_from_config({"bins": {}})
        custom = bins_from_config(
            {
                "bins": {
                    "elev_edges": [0, 45, 90],
                    "elev_reps": [20, 70],
                }
            }
        )
        assert custom.n_elev == 2
        assert custom.elev_reps == (20.0, 70.0)

    def test_sim_inline_truth(self):
        from skyfade import CorrelationModel, DedmParams

        truth_doc = serialize_model(
            CorrelationModel.with_uniform_kernels(
                0.0, 4.0, DedmParams(0.5, 0.01, 0.001)
            )
        )
        doc = {
            "sim": {
                "truth": truth_doc,
                "seed": 9,
                "n_samples": 55,
                "flight": {"altitude_m": 40.0, "n_passes": 4},
                "noise_std_db": 0.5,
            }
        }
        config = sim_from_config(doc, BUDGET)
        assert config.seed == 9
        assert config.n_samples == 55
        assert config.flight.altitude_m == 40.0
        assert config.flight.n_passes == 4
        assert config.noise_std_db == 0.5

    def test_sim_truth_path_relative(self, tmp_path):
        from skyfade import CorrelationModel, DedmParams
        from skyfade.correlation import save_model

        model = CorrelationModel.with_uniform_kernels(
            0.0, 4.0, DedmParams(0.5, 0.01, 0.001)
        )
        save_model(model, tmp_path / "truth.json")
        doc = {"sim": {"truth_path": "truth.json"}}
        config = sim_from_config(doc, BUDGET, base_dir=tmp_path)
        assert config.truth.sigma2 == 4.0
        assert config.seed == 0
        assert config.n_samples == 1000

    def test_sim_missing_section(self):
        with pytest.raises(SchemaError) as err:
            sim_from_config({}, BUDGET)
        assert err.value.field == "sim"

    def test_sim_inline_truth_of_wrong_type(self):
        from skyfade import CorrelationModel, DedmParams
        from skyfade.correlation import serialize_model

        truth = serialize_model(
            CorrelationModel.with_uniform_kernels(0.0, 4.0, DedmParams(0.5, 0.01, 0.001))
        )
        truth["dedm"] = 3
        with pytest.raises(SchemaError) as err:
            sim_from_config({"sim": {"truth": truth}}, BUDGET)
        assert err.value.field == "dedm"

    def test_sim_missing_truth(self):
        with pytest.raises(SchemaError) as err:
            sim_from_config({"sim": {"seed": 1}}, BUDGET)
        assert err.value.field == "sim.truth"

    def test_eval_section(self):
        config = eval_from_config(
            {
                "eval": {
                    "m_values": [10, 20],
                    "tests_per_trial": 5,
                    "total_test_predictions": 50,
                    "seed": 3,
                    "modes": ["baseline"],
                }
            }
        )
        assert config.m_values == (10, 20)
        assert config.n_trials == 10
        assert config.modes == ("baseline",)
        assert eval_from_config({}) == EvalConfig()

    def test_load_config_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"eval": {"n_trials": 10}}')
        assert load_config(path) == {"eval": {"n_trials": 10}}

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            load_config(path)
        path.write_text("{broken")
        with pytest.raises(SchemaError):
            load_config(path)
