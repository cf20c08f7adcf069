"""End-to-end command-line workflow."""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import skyfade
from _recipes import BUDGET, gap_benchmark_rows, gap_benchmark_truth
from skyfade import CorrelationModel, DedmParams
from skyfade.cli import main
from skyfade.correlation import load_model, save_model, serialize_model
from skyfade.dataio import (
    budget_from_config,
    ingest_csv,
    load_config,
    write_dataset_csv,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_import_leaves_scipy_optimize_unloaded():
    """Only fitting uses scipy.optimize, so the other commands do not pay
    for importing it at start-up."""
    src = str(Path(skyfade.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import skyfade.cli;"
        " print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_public_names_resolve():
    """Every exported name resolves, and the one-row wrappers that the
    column functions replaced, and the kernel objects and scalar fit that
    the rate tables replaced, are exported nowhere."""
    assert len(set(skyfade.__all__)) == len(skyfade.__all__)
    for name in skyfade.__all__:
        assert getattr(skyfade, name) is not None
    modules = [skyfade] + [
        m for n, m in sys.modules.items() if n.startswith("skyfade.")
    ]
    for name in (
        "compute_elevation",
        "euler_zyx_matrix",
        "compute_tilt",
        "link_geometry",
        "decompose_sf",
        "PiecewiseExpKernel",
        "fit_piecewise_kernel",
    ):
        assert name not in skyfade.__all__
        assert not any(hasattr(m, name) for m in modules), name
    assert not hasattr(skyfade.CorrelationModel, "kernel_arrays")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Run the full simulate -> geometry -> fit -> predict -> evaluate chain once."""
    root = tmp_path_factory.mktemp("cli")
    truth = CorrelationModel.with_uniform_kernels(
        0.0,
        9.0,
        DedmParams(0.6, 0.05, 0.005),
        q_pos_deg=40.0,
        r_pos_deg=50.0,
        nugget=9e-6,
    )
    config = {
        "budget": {"tx_lat_deg": 35.72, "tx_lon_deg": -78.70},
        "sim": {
            "truth": serialize_model(truth),
            "seed": 3,
            "n_samples": 600,
            "noise_std_db": 0.0,
        },
        "eval": {
            "m_values": [40],
            "tests_per_trial": 25,
            "total_test_predictions": 100,
            "seed": 1,
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    exact_model = root / "exact_model.json"
    save_model(dataclasses.replace(truth, nugget=0.0), exact_model)

    paths = SimpleNamespace(
        root=root,
        config=config_path,
        config_doc=config,
        truth=truth,
        train=root / "train.csv",
        small=root / "small.csv",
        annotated=root / "annotated.csv",
        model=root / "model.json",
        exact_model=exact_model,
        predictions=root / "predictions.csv",
        eval_prefix=root / "eval",
    )
    cfg = str(config_path)
    paths.rc = [
        main(["simulate", "--config", cfg, "--out", str(paths.train)]),
        main(
            [
                "simulate",
                "--config",
                cfg,
                "--out",
                str(paths.small),
                "--n-samples",
                "120",
            ]
        ),
        main(
            [
                "geometry",
                "--config",
                cfg,
                "--input",
                str(paths.train),
                "--out",
                str(paths.annotated),
            ]
        ),
        main(
            [
                "fit",
                "--config",
                cfg,
                "--input",
                str(paths.train),
                "--out",
                str(paths.model),
                "--min-count",
                "10",
            ]
        ),
        main(
            [
                "predict",
                "--config",
                cfg,
                "--input",
                str(paths.small),
                "--targets",
                str(paths.small),
                "--model",
                str(exact_model),
                "--out",
                str(paths.predictions),
            ]
        ),
        main(
            [
                "evaluate",
                "--config",
                cfg,
                "--input",
                str(paths.train),
                "--model",
                str(paths.model),
                "--out",
                str(paths.eval_prefix),
            ]
        ),
    ]
    return paths


class TestPipeline:
    def test_every_command_exits_zero(self, ws):
        assert ws.rc == [0, 0, 0, 0, 0, 0]

    def test_simulate_dataset_and_sidecar(self, ws):
        assert len(read_rows(ws.train)) == 600
        sidecar = json.loads((ws.root / "train_truth.json").read_text())
        assert sidecar["sim"]["seed"] == 3
        assert sidecar["sim"]["n_samples"] == 600
        assert sidecar["sim"]["rng"] == "numpy-pcg64"
        assert sidecar["sigma2"] == 9.0

    def test_simulate_is_deterministic(self, ws, tmp_path):
        out = tmp_path / "again.csv"
        assert main(["simulate", "--config", str(ws.config), "--out", str(out)]) == 0
        assert out.read_bytes() == ws.train.read_bytes()

    def test_simulate_seed_changes_output(self, ws, tmp_path):
        out = tmp_path / "other.csv"
        args = ["simulate", "--config", str(ws.config), "--out", str(out)]
        assert main(args + ["--seed", "5", "--n-samples", "50"]) == 0
        base = tmp_path / "base.csv"
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(ws.config),
                    "--out",
                    str(base),
                    "--n-samples",
                    "50",
                ]
            )
            == 0
        )
        assert out.read_bytes() != base.read_bytes()

    def test_geometry_annotation_idempotent(self, ws, tmp_path):
        header = ws.annotated.read_text().splitlines()[0]
        assert header.startswith("time_s,lat_deg")
        assert header.endswith("theta_deg,delta_deg,d2d_m,d3d_m,pl_est_dbm,sf_db")
        out = tmp_path / "re_annotated.csv"
        assert (
            main(
                [
                    "geometry",
                    "--config",
                    str(ws.config),
                    "--input",
                    str(ws.annotated),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert out.read_bytes() == ws.annotated.read_bytes()

    def test_fit_writes_model_and_companions(self, ws):
        model = load_model(ws.model)
        assert model.sigma2 > 0.0
        tilt = (ws.root / "model_tilt_profile.csv").read_text().splitlines()
        assert tilt[0] == "elev_rep_deg,tilt_rep_i_deg,tilt_rep_j_deg,rho,count_i,count_j"
        elev = (ws.root / "model_elev_profile.csv").read_text().splitlines()
        assert elev[0] == "tilt_rep_deg,elev_rep_i_deg,elev_rep_j_deg,rho,count_i,count_j"
        gram = (ws.root / "model_correlogram.csv").read_text().splitlines()
        assert gram[0] == "lag_m,rho,count"
        assert len(gram) > 10
        coverage = json.loads((ws.root / "model_coverage.json").read_text())
        assert set(coverage) == {"excluded_cells", "warnings", "skipped_rows"}
        assert coverage["skipped_rows"] == []

    def test_fit_is_deterministic(self, ws, tmp_path):
        out = tmp_path / "model2.json"
        assert (
            main(
                [
                    "fit",
                    "--config",
                    str(ws.config),
                    "--input",
                    str(ws.train),
                    "--out",
                    str(out),
                    "--min-count",
                    "10",
                ]
            )
            == 0
        )
        assert out.read_bytes() == ws.model.read_bytes()
        assert (tmp_path / "model2_tilt_profile.csv").read_bytes() == (
            ws.root / "model_tilt_profile.csv"
        ).read_bytes()

    def test_predict_reproduces_training_points(self, ws):
        doc = load_config(ws.config)
        budget = budget_from_config(doc, ws.config.parent)
        ingest = ingest_csv(ws.small, budget)
        rows = read_rows(ws.predictions)
        assert len(rows) == 120
        for row, w, z in zip(
            rows, ingest.samples.sf_db.tolist(), ingest.measurements["rsrp_dbm"].tolist()
        ):
            assert abs(float(row["w_hat_db"]) - w) < 2e-6
            assert abs(float(row["z_hat_dbm"]) - z) < 2e-6
            assert float(row["kriging_var_db2"]) < 1e-4
            assert float(row["nugget_used"]) == 0.0

    def test_predict_maps_targets_with_config_column_map(self, ws, tmp_path):
        # One external header for tuning rows and targets, renamed by the
        # config's ingest.column_map alone.
        header, body = ws.small.read_text().split("\n", 1)
        assert header.startswith("time_s,")
        external = tmp_path / "external.csv"
        external.write_text(header.replace("time_s", "t", 1) + "\n" + body)
        doc = json.loads(json.dumps(ws.config_doc))
        doc["ingest"] = {"column_map": {"time_s": "t"}}
        config = tmp_path / "mapped.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "predictions.csv"
        rc = main(
            [
                "predict",
                "--config",
                str(config),
                "--input",
                str(external),
                "--targets",
                str(external),
                "--model",
                str(ws.exact_model),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.read_bytes() == ws.predictions.read_bytes()

    def test_predict_baseline_also_exact_here(self, ws, tmp_path):
        out = tmp_path / "baseline.csv"
        assert (
            main(
                [
                    "predict",
                    "--config",
                    str(ws.config),
                    "--input",
                    str(ws.small),
                    "--targets",
                    str(ws.small),
                    "--model",
                    str(ws.exact_model),
                    "--out",
                    str(out),
                    "--mode",
                    "baseline",
                ]
            )
            == 0
        )
        aware = read_rows(ws.predictions)
        base = read_rows(out)
        for a, b in zip(aware, base):
            assert abs(float(a["w_hat_db"]) - float(b["w_hat_db"])) < 2e-6

    def test_evaluate_outputs(self, ws):
        trials = read_rows(f"{ws.eval_prefix}_trials.csv")
        assert len(trials) == 8  # 1 M value x 2 modes x ceil(100/25) trials
        assert {t["mode"] for t in trials} == {"baseline", "angle_aware"}
        assert {t["m"] for t in trials} == {"40"}
        summary = json.loads((ws.root / "eval_summary.json").read_text())
        assert summary["seed"] == 1
        assert len(summary["results"]) == 2
        for entry in summary["results"]:
            assert entry["trials"] == 4
            assert entry["total_predictions"] == 100
            assert entry["median_rmse_db"] > 0.0

    def test_evaluate_deterministic_and_reported(self, ws, tmp_path, capsys):
        prefix = tmp_path / "eval2"
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(ws.config),
                    "--input",
                    str(ws.train),
                    "--model",
                    str(ws.model),
                    "--out",
                    str(prefix),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "M=40 baseline: median RMSE" in out
        assert "M=40 angle_aware: median RMSE" in out
        assert (tmp_path / "eval2_trials.csv").read_bytes() == Path(
            f"{ws.eval_prefix}_trials.csv"
        ).read_bytes()

    def test_evaluate_mode_subset(self, ws, tmp_path):
        prefix = tmp_path / "only"
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(ws.config),
                    "--input",
                    str(ws.train),
                    "--model",
                    str(ws.model),
                    "--out",
                    str(prefix),
                    "--mode",
                    "baseline",
                ]
            )
            == 0
        )
        summary = json.loads((tmp_path / "only_summary.json").read_text())
        assert [e["mode"] for e in summary["results"]] == ["baseline"]


class TestFailureModes:
    def test_missing_input_file(self, ws, capsys):
        rc = main(
            [
                "fit",
                "--config",
                str(ws.config),
                "--input",
                str(ws.root / "nope.csv"),
                "--out",
                str(ws.root / "never.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_json(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        rc = main(
            [
                "geometry",
                "--config",
                str(bad),
                "--input",
                str(ws.train),
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_dataset_too_small(self, ws, tmp_path, capsys):
        doc = dict(ws.config_doc)
        doc["eval"] = {
            "m_values": [200],
            "tests_per_trial": 25,
            "total_test_predictions": 50,
        }
        config = tmp_path / "big_m.json"
        config.write_text(json.dumps(doc))
        rc = main(
            [
                "evaluate",
                "--config",
                str(config),
                "--input",
                str(ws.small),
                "--model",
                str(ws.exact_model),
                "--out",
                str(tmp_path / "e"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_column_map_flag(self, ws, capsys):
        capsys.readouterr()
        rc = main(
            [
                "geometry",
                "--config",
                str(ws.config),
                "--input",
                str(ws.train),
                "--out",
                str(ws.root / "x.csv"),
                "--column-map",
                "no_equals_sign",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --column-map expects canonical=actual, got 'no_equals_sign'\n"
        )
        assert not (ws.root / "x.csv").exists()

    def test_column_map_sharing_a_header(self, ws, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "x.csv"
        rc = main(
            [
                "geometry",
                "--config",
                str(ws.config),
                "--input",
                str(ws.small),
                "--out",
                str(out),
                "--column-map",
                "time_s=lat_deg",
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: column map sends time_s and lat_deg to the same header:"
            " lat_deg\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_median_window(self, ws, tmp_path, capsys, source):
        config, flags = ws.config, []
        if source == "flag":
            flags = ["--median-window", "-4"]
        else:
            doc = json.loads(json.dumps(ws.config_doc))
            doc["ingest"] = {"median_window": -3}
            config = tmp_path / "negative_window.json"
            config.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "x.csv"
        rc = main(
            [
                "geometry",
                "--config",
                str(config),
                "--input",
                str(ws.small),
                "--out",
                str(out),
                *flags,
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: median window must not be negative: -")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_flag_required(self, ws, tmp_path):
        with pytest.raises(SystemExit):
            main(["fit", "--input", str(ws.train), "--out", str(tmp_path / "m.json")])

    @pytest.mark.parametrize(
        "command, section, key, value, field",
        [
            ("evaluate", "eval", "m_values", "abc", "eval.m_values"),
            ("evaluate", "eval", "m_values", 5, "eval.m_values"),
            ("evaluate", "eval", "m_values", [50.7], "eval.m_values[0]"),
            ("evaluate", "eval", "m_values", [40, True], "eval.m_values[1]"),
            ("evaluate", "eval", "tests_per_trial", None, "eval.tests_per_trial"),
            ("evaluate", "eval", "seed", "1", "eval.seed"),
            ("evaluate", "eval", "modes", 3, "eval.modes"),
            ("evaluate", "budget", "tx_alt_m", "high", "budget.tx_alt_m"),
            ("evaluate", "budget", "reflection", [-0.9], "budget.reflection"),
            ("evaluate", "ingest", "median_window", 2.5, "ingest.median_window"),
            (
                "geometry",
                "ingest",
                "max_invalid_frac",
                False,
                "ingest.max_invalid_frac",
            ),
            (
                "geometry",
                "ingest",
                "column_map",
                {"time_s": 5},
                "ingest.column_map.time_s",
            ),
            ("fit", "fit", "n_lags", "24", "fit.n_lags"),
            ("fit", "fit", "min_count", 10.5, "fit.min_count"),
            ("fit", "fit", "nugget_factor", [1e-6], "fit.nugget_factor"),
            ("fit", "fit", "single_center", "false", "fit.single_center"),
            ("fit", "bins", "elev_edges", [0, "45", 90], "bins.elev_edges[1]"),
            ("simulate", "sim", "n_samples", 600.5, "sim.n_samples"),
            ("simulate", "sim", "flight", 3, "sim.flight"),
        ],
    )
    def test_malformed_config_value(
        self, ws, tmp_path, capsys, command, section, key, value, field
    ):
        doc = json.loads(json.dumps(ws.config_doc))
        doc.setdefault(section, {})[key] = value
        config = tmp_path / "bad_value.json"
        config.write_text(json.dumps(doc))
        argv = {
            "evaluate": ["--input", str(ws.train), "--model", str(ws.exact_model)],
            "fit": ["--input", str(ws.train)],
            "geometry": ["--input", str(ws.train)],
            "simulate": [],
        }[command]
        out = tmp_path / "out"
        rc = main([command, "--config", str(config), "--out", str(out), *argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"'{field}'" in err
        assert not list(tmp_path.glob("out*"))

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_model_with_wrong_json_type(self, ws, tmp_path, capsys):
        doc = json.loads(ws.exact_model.read_text())
        doc["tilt_rates"] = 3
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            [
                "predict",
                "--config",
                str(ws.config),
                "--input",
                str(ws.small),
                "--targets",
                str(ws.small),
                "--model",
                str(bad),
                "--out",
                str(tmp_path / "never.csv"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: model document field 'tilt_rates' must be a list\n"
        )

    @pytest.mark.parametrize("field", ["sigma2", "nugget"])
    def test_model_with_infinite_variance(self, ws, tmp_path, capsys, field):
        doc = json.loads(ws.exact_model.read_text())
        doc[field] = "inf"
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(
            [
                "predict",
                "--config",
                str(ws.config),
                "--input",
                str(ws.small),
                "--targets",
                str(ws.small),
                "--model",
                str(bad),
                "--out",
                str(tmp_path / "never.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and field in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "never.csv").exists()

    def test_geometry_reports_skipped_rows(self, ws, tmp_path, capsys):
        lines = ws.train.read_text().splitlines()[:31]
        parts = lines[1].split(",")
        parts[3] = "nan"
        lines.append(",".join(parts))
        bad = tmp_path / "with_bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "geometry",
                "--config",
                str(ws.config),
                "--input",
                str(bad),
                "--out",
                str(tmp_path / "annotated.csv"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "skipped line" in captured.err
        assert "1 skipped" in captured.out


class TestNuggetEscalation:
    """A covariance that is not numerically positive definite is reported
    on stderr; valid models, fitted ones included, solve silently."""

    WARNING = (
        "warning: {mode}: {what} escalated the nugget above the model's"
        " (covariance not numerically positive definite)\n"
    )

    @pytest.fixture(scope="class")
    def gap(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gap")
        config = root / "config.json"
        config.write_text(
            json.dumps(
                {
                    "budget": {
                        "tx_lat_deg": BUDGET.tx_lat_deg,
                        "tx_lon_deg": BUDGET.tx_lon_deg,
                    },
                    "eval": {
                        "m_values": [150],
                        "tests_per_trial": 100,
                        "total_test_predictions": 400,
                    },
                }
            )
        )
        rows = gap_benchmark_rows()
        data = root / "flight.csv"
        write_dataset_csv(data, rows)
        targets = root / "targets.csv"
        write_dataset_csv(targets, rows[:5])
        tuning = root / "tuning.csv"
        write_dataset_csv(tuning, rows[::4])
        fitted = root / "fitted.json"
        argv = ["fit", "--config", str(config), "--input", str(data)]
        assert main([*argv, "--out", str(fitted)]) == 0
        truth = root / "truth.json"
        save_model(gap_benchmark_truth(), truth)
        return SimpleNamespace(
            root=root, config=config, data=data, targets=targets, tuning=tuning,
            fitted=fitted, truth=truth,
        )

    def evaluate(self, gap, model, capsys, config=None, data=None):
        capsys.readouterr()
        prefix = gap.root / model.stem
        argv = ["evaluate", "--config", str(config or gap.config)]
        argv += ["--input", str(data or gap.data)]
        argv += ["--model", str(model), "--out", str(prefix), "--mode", "elev_only"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        trials = read_rows(f"{prefix}_trials.csv")
        nugget = load_model(model).nugget
        escalated = sum(float(t["nugget_used"]) > nugget for t in trials)
        return out, err, escalated, len(trials)

    def predict(self, gap, model, capsys, tuning=None, mode="elev_only"):
        capsys.readouterr()
        out_csv = gap.root / f"{model.stem}_predictions.csv"
        argv = ["predict", "--config", str(gap.config), "--input", str(tuning or gap.tuning)]
        argv += ["--targets", str(gap.targets), "--model", str(model)]
        argv += ["--out", str(out_csv), "--mode", mode]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        nugget_used = {float(row["nugget_used"]) for row in read_rows(out_csv)}
        assert len(nugget_used) == 1
        return out, err, nugget_used.pop()

    def test_fitted_model_is_silent(self, gap, capsys):
        _out, err, escalated, total = self.evaluate(gap, gap.fitted, capsys)
        assert (escalated, total) == (0, 4)
        assert err == ""
        _out, err, nugget_used = self.predict(gap, gap.fitted, capsys)
        assert nugget_used == load_model(gap.fitted).nugget
        assert err == ""

    def test_truth_model_does_not_warn(self, gap, capsys):
        _out, err, escalated, _total = self.evaluate(gap, gap.truth, capsys)
        assert escalated == 0
        assert err == ""
        _out, err, nugget_used = self.predict(gap, gap.truth, capsys)
        assert nugget_used == load_model(gap.truth).nugget
        assert err == ""

    def test_semidefinite_covariance_warns(self, gap, capsys):
        # Rows at one lat/lon but different altitudes are distinct samples
        # at zero horizontal distance: with flat kernels and no nugget they
        # are perfectly correlated, so the covariance is singular.
        sigma2 = 25.0
        flat = gap.root / "flat.json"
        save_model(
            CorrelationModel.with_uniform_kernels(
                0.0, sigma2, DedmParams(0.5, 0.008, 0.001), nugget=0.0
            ),
            flat,
        )
        base = gap_benchmark_rows()[0]
        stack = [
            dataclasses.replace(base, alt_m=base.alt_m + 2.0 * k) for k in range(12)
        ]
        tuning = gap.root / "stacked_pair.csv"
        write_dataset_csv(tuning, stack[:2])
        for mode in ("elev_only", "baseline", "angle_aware"):
            out, err, nugget_used = self.predict(gap, flat, capsys, tuning, mode)
            assert nugget_used == pytest.approx(1e-6 * sigma2, rel=1e-12)
            assert err == self.WARNING.format(mode=mode, what="the solve")
            assert "warning" not in out

        data = gap.root / "stacked.csv"
        write_dataset_csv(data, stack)
        config = gap.root / "stacked_config.json"
        doc = json.loads(gap.config.read_text())
        doc["eval"] = {"m_values": [5], "tests_per_trial": 5, "total_test_predictions": 10}
        config.write_text(json.dumps(doc))
        out, err, escalated, total = self.evaluate(gap, flat, capsys, config, data)
        assert (escalated, total) == (2, 2)
        assert err == self.WARNING.format(mode="elev_only", what="2 of 2 trials")
        assert "warning" not in out
