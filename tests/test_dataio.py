"""CSV ingestion, exporters, and config parsing."""

import csv
import json
import math

import numpy as np
import pytest

from _recipes import BUDGET, same_geometry
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
    write_summary_json,
    write_trials_csv,
)
from skyfade.errors import IngestError, SchemaError, ValidationError
from skyfade.evaluation import EvalConfig, EvalResult, TrialRecord
from skyfade.fieldsim import synthesize_dataset
from skyfade.geometry import MeasurementSample
from skyfade.kriging import Prediction
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
        assert ingest.extra_columns == ["site"]
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
            path,
            [
                Prediction(
                    w_hat_db=1.5, z_hat_dbm=-70.25, variance_db2=0.75, nugget_used=0.0
                )
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "w_hat_db,z_hat_dbm,kriging_var_db2,nugget_used"
        assert lines[1] == "1.5,-70.25,0.75,0.0"

    def test_trials_csv(self, tmp_path):
        config = EvalConfig(m_values=(5,), tests_per_trial=2, total_test_predictions=2)
        result = EvalResult(config=config)
        result.trials.append(
            TrialRecord(
                m=5,
                mode="baseline",
                trial=0,
                rmse_db=3.5,
                nugget_used=1e-06,
                pi95_coverage=0.95,
                zscore_sd=1.25,
            )
        )
        path = tmp_path / "trials.csv"
        write_trials_csv(path, result)
        lines = path.read_text().splitlines()
        # The calibration columns come after the original five.
        assert lines[0] == "m,mode,trial,rmse_db,nugget_used,pi95_coverage,zscore_sd"
        assert lines[1] == "5,baseline,0,3.5,1e-06,0.95,1.25"

    def test_summary_json(self, tmp_path):
        config = EvalConfig(m_values=(5,), tests_per_trial=2, total_test_predictions=2)
        result = EvalResult(config=config)
        result.trials.append(
            TrialRecord(
                m=5,
                mode="baseline",
                trial=0,
                rmse_db=3.5,
                nugget_used=0.0,
                pi95_coverage=0.9,
                zscore_sd=1.5,
            )
        )
        path = tmp_path / "summary.json"
        write_summary_json(path, result)
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

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            load_config(path)
        path.write_text("{broken")
        with pytest.raises(SchemaError):
            load_config(path)
