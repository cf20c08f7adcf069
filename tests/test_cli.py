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
    load_targets_csv,
    write_dataset_csv,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_import_leaves_scipy_optimize_unloaded():
    """No command uses scipy.optimize (the DEDM fit is numpy only), so
    importing the package must not load it."""
    src = str(Path(skyfade.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import skyfade.cli;"
        " print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command",
    [None, "simulate", "geometry", "predict", "evaluate", "simulate-600", "fit"],
)
def test_no_command_loads_scipy(ws, tmp_path, command):
    """The Kriging solve, the field draw and the DEDM fit are numpy only,
    so importing the package and running any command loads no scipy
    module.  A 600-row draw factors its covariance in more than one tile."""
    argv = {
        None: None,
        "simulate": ["--n-samples", "60"],
        "simulate-600": ["--n-samples", "600"],
        "geometry": ["--input", str(ws.small)],
        "fit": ["--input", str(ws.train)],
        "predict": [
            "--input",
            str(ws.small),
            "--targets",
            str(ws.small),
            "--model",
            str(ws.exact_model),
        ],
        "evaluate": ["--input", str(ws.small), "--model", str(ws.exact_model)],
    }[command]
    if argv is not None:
        name = command.split("-")[0]
        argv = [name, "--config", str(ws.config), "--out", str(tmp_path / "out")] + argv
    src = str(Path(skyfade.__file__).parents[1])
    code = (
        f"import json, sys; sys.path.insert(0, {src!r}); import skyfade, skyfade.cli;"
        f" rc = skyfade.cli.main({argv!r}) if {argv!r} else 0;"
        " print(json.dumps([rc, sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    rc, modules = json.loads(out.stdout.splitlines()[-1])
    assert rc == 0
    assert modules == []


def test_public_names_resolve():
    """Every exported name resolves, and the one-row wrappers that the
    column functions replaced, the kernel objects and scalar fit that the
    rate tables replaced, the fit's stage wrappers and the two-ray paths
    that decompose's table replaced are exported nowhere."""
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
        "fit_dedm",
        "estimate_tilt_profile",
        "estimate_elev_profile",
        "predict_rsrp",
        "link_rsrp",
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

    def test_predict_z_is_estimate_plus_sf(self, ws, tmp_path):
        # z_hat is the target's two-ray estimate plus its Kriged SF, bitwise,
        # and depends on the pose alone: a targets file without rsrp_dbm
        # gives the same bytes.
        header, *rows = ws.train.read_text().splitlines()
        poses = tmp_path / "poses.csv"
        poses.write_text(
            "\n".join(line.rsplit(",", 1)[0] for line in [header, *rows]) + "\n"
        )
        assert header.endswith(",rsrp_dbm")
        budget = budget_from_config(load_config(ws.config), ws.config.parent)
        outputs = []
        for targets in (ws.train, poses):
            out = tmp_path / f"{targets.stem}_predictions.csv"
            argv = ["predict", "--config", str(ws.config), "--input", str(ws.small)]
            argv += ["--targets", str(targets), "--model", str(ws.model)]
            argv += ["--out", str(out)]
            assert main(argv) == 0
            estimate = load_targets_csv(targets, budget).pl_est_dbm
            predictions = read_rows(out)
            assert len(predictions) == len(estimate) == 600
            for row, pl_est in zip(predictions, estimate.tolist()):
                assert float(row["z_hat_dbm"]) == pl_est + float(row["w_hat_db"])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize(
        "command, flag, field, value, other",
        [
            ("geometry", ["--median-window", "3"], "ingest.median_window", 3, 5),
            ("geometry", ["--column-map", "time_s=t"], "ingest.column_map", {"time_s": "t"}, {}),
            ("fit", ["--min-count", "10"], "fit.min_count", 10, 25),
            ("evaluate", ["--seed", "7"], "eval.seed", 7, 1),
            ("evaluate", ["--mode", "baseline"], "eval.modes", ["baseline"], ["angle_aware"]),
            ("simulate", ["--seed", "5"], "sim.seed", 5, 3),
            ("simulate", ["--n-samples", "50"], "sim.n_samples", 50, 600),
        ],
    )
    def test_flag_is_its_config_field(self, ws, tmp_path, command, flag, field, value, other):
        """A flag writes the same files as its value in the config field it
        names, and wins over another value in that field."""
        header, body = ws.small.read_text().split("\n", 1)
        external = tmp_path / "external.csv"
        external.write_text(header.replace("time_s", "t", 1) + "\n" + body)
        argv = {
            "geometry": ["--input", str(external if "--column-map" in flag else ws.small)],
            "fit": ["--input", str(ws.train)],
            "evaluate": ["--input", str(ws.train), "--model", str(ws.exact_model)],
            "simulate": [],
        }[command]
        section, key = field.split(".")
        outputs = {}
        for source, setting, extra in (("flag", other, flag), ("config", value, [])):
            doc = json.loads(json.dumps(ws.config_doc))
            doc.setdefault(section, {})[key] = setting
            config = tmp_path / f"{source}.json"
            config.write_text(json.dumps(doc))
            out_dir = tmp_path / source
            out_dir.mkdir()
            rc = main(
                [command, "--config", str(config), "--out", str(out_dir / "out.csv"), *argv, *extra]
            )
            assert rc == 0
            outputs[source] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert outputs["flag"] == outputs["config"]
        assert outputs["flag"]

    def test_sidecar_loads_as_truth_model(self, ws, tmp_path):
        """A model document ignores fields it does not know: the truth
        sidecar, a model extended with a sim section, is a truth model."""
        doc = json.loads(json.dumps(ws.config_doc))
        del doc["sim"]["truth"]
        doc["sim"]["truth_path"] = str(ws.root / "train_truth.json")
        config = tmp_path / "sidecar.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "again.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == ws.train.read_bytes()


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

    def test_evaluate_repeated_mode(self, ws, tmp_path, capsys):
        """A mode listed twice would run twice per trial and be summarized
        twice; it is rejected before anything is read or written."""
        capsys.readouterr()
        rc = main(
            [
                "evaluate",
                "--config",
                str(ws.config),
                "--input",
                str(ws.train),
                "--model",
                str(ws.model),
                "--out",
                str(tmp_path / "e"),
                "--mode",
                "baseline,baseline",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mode 'baseline' is listed twice")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_min_count(self, ws, tmp_path, capsys, source):
        """A negative min count used to write the same model as 0."""
        doc, flags = json.loads(json.dumps(ws.config_doc)), []
        if source == "flag":
            flags = ["--min-count", "-5"]
        else:
            doc["fit"] = {"min_count": -5}
        config = tmp_path / "negative_min_count.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "never.json"
        rc = main(
            [
                "fit",
                "--config",
                str(config),
                "--input",
                str(ws.train),
                "--out",
                str(out),
                *flags,
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: min count must not be negative: -5\n"
        assert not list(tmp_path.glob("never*"))

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
            ("fit", "fit", "max_lag_m", "far", "fit.max_lag_m"),
            ("fit", "fit", "min_count", True, "fit.min_count"),
            ("fit", "bins", "elev_edges", [0, "45", 90], "bins.elev_edges[1]"),
            ("simulate", "sim", "n_samples", 600.5, "sim.n_samples"),
            ("simulate", "sim", "flight", 3, "sim.flight"),
            ("simulate", "sim", "flight", {"path": 5}, "sim.flight.path"),
            ("simulate", "sim", "truth", 3, "sim.truth"),
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

    @pytest.mark.parametrize(
        "command, path",
        [
            ("fit", "fit.min_cout"),
            ("fit", "fit.nugget_factor"),
            ("fit", "bins.tilt_edge"),
            ("geometry", "ingest.median"),
            ("geometry", "budget.gain_csv"),
            ("evaluate", "eval.mode"),
            ("simulate", "sim.flight.speed"),
            ("simulate", "sim.n_sample"),
            ("geometry", "fitt"),
            ("simulate", "evaluate"),
        ],
    )
    def test_unknown_config_field(self, ws, tmp_path, capsys, command, path):
        """A key the config schema does not name, in a section the command
        reads or at the top level, is an error, not a silent default."""
        doc = json.loads(json.dumps(ws.config_doc))
        *sections, key = path.split(".")
        node = doc
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = 10
        config = tmp_path / "unknown.json"
        config.write_text(json.dumps(doc))
        argv = {
            "evaluate": ["--input", str(ws.train), "--model", str(ws.exact_model)],
            "fit": ["--input", str(ws.train)],
            "geometry": ["--input", str(ws.train)],
            "simulate": [],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main([command, "--config", str(config), "--out", str(out), *argv])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config has unknown field '{path}'\n"
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, section", [("simulate", "sim"), ("evaluate", "eval")])
    def test_negative_seed(self, ws, tmp_path, capsys, command, section, source):
        """A negative seed used to end in numpy's ValueError traceback."""
        doc, flags = json.loads(json.dumps(ws.config_doc)), []
        if source == "flag":
            flags = ["--seed", "-1"]
        else:
            doc[section]["seed"] = -2
        config = tmp_path / "negative_seed.json"
        config.write_text(json.dumps(doc))
        argv = {
            "evaluate": ["--input", str(ws.train), "--model", str(ws.exact_model)],
            "simulate": [],
        }[command]
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main([command, "--config", str(config), "--out", str(out), *argv, *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must not be negative: -")
        assert len(err.splitlines()) == 1
        assert not list(tmp_path.glob("out*"))

    def test_tilt_representative_outside_its_bin(self, ws, tmp_path, capsys):
        doc = json.loads(json.dumps(ws.config_doc))
        doc.setdefault("bins", {})["tilt_reps"] = [50.0, -5.0, 0.0, 5.0, -60.0]
        config = tmp_path / "bad_reps.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "never.json"
        rc = main(
            ["fit", "--config", str(config), "--input", str(ws.train), "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tilt representative 50.0 outside bin")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("max_lag", ["inf", float("nan")])
    def test_non_finite_max_lag(self, ws, tmp_path, capsys, max_lag):
        doc = json.loads(json.dumps(ws.config_doc))
        doc.setdefault("fit", {})["max_lag_m"] = max_lag
        config = tmp_path / "bad_lag.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "never.json"
        rc = main(
            ["fit", "--config", str(config), "--input", str(ws.train), "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need a positive finite max lag, got")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("freq_hz", "inf"),
            ("freq_hz", float("nan")),
            ("antenna_height_m", "inf"),
            ("tx_power_dbm", "-inf"),
            ("tx_alt_m", float("nan")),
        ],
    )
    def test_non_finite_budget_value(self, ws, tmp_path, capsys, key, value):
        """An infinite frequency used to end in a ZeroDivisionError traceback,
        and the other values in rows of nan/inf SF with none skipped."""
        doc = json.loads(json.dumps(ws.config_doc))
        doc["budget"][key] = value
        config = tmp_path / "bad_budget.json"
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "never.csv"
        rc = main(
            ["geometry", "--config", str(config), "--input", str(ws.small), "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: link budget {key} must be finite")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("which", ["input", "targets", "gain_uav_csv"])
    def test_csv_that_is_not_utf8(self, ws, tmp_path, capsys, which):
        """A byte that is not UTF-8 in a measurement, target or gain CSV
        used to end in a UnicodeDecodeError traceback."""
        bad = tmp_path / "latin1.csv"
        doc = json.loads(json.dumps(ws.config_doc))
        if which == "gain_uav_csv":
            bad.write_bytes(b"angle_deg,gain_dbi\n-90,-3\n90,3\xff\n")
            doc["budget"][which] = str(bad)
        else:  # a Latin-1 byte at the start of the first data row
            bad.write_bytes(ws.small.read_bytes().replace(b"\n", b"\n\xff", 1))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "never.csv"
        argv = ["--config", str(config), "--out", str(out), "--input", str(ws.small)]
        if which == "input":
            argv[-1] = str(bad)
        if which == "targets":
            argv += ["--targets", str(bad), "--model", str(ws.exact_model)]
            argv = ["predict", *argv]
        else:
            argv = ["geometry", *argv]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not UTF-8 text: byte 0xff (invalid start byte)\n"
        assert not out.exists()

    def test_oversized_simulate_fails_before_the_walk(
        self, ws, tmp_path, capsys, monkeypatch
    ):
        """An oversized request used to walk the whole trajectory before the
        field draw rejected it."""

        def walk(_config):
            raise AssertionError("the trajectory walk ran")

        monkeypatch.setattr(skyfade.fieldsim, "_walk", walk)
        capsys.readouterr()
        out = tmp_path / "never.csv"
        rc = main(
            ["simulate", "--config", str(ws.config), "--out", str(out), "--n-samples", "5001"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: field synthesis capped at 5000 samples, got 5001\n"
        assert not out.exists()
        assert not (tmp_path / "never_truth.json").exists()

    @pytest.mark.parametrize("command", ["geometry", "simulate"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("tx_lat_deg", 95.0, "link budget tx_lat_deg must lie in [-90, 90]: 95.0"),
            ("tx_lon_deg", 181.0, "link budget tx_lon_deg must lie in [-180, 180]: 181.0"),
        ],
    )
    def test_transmitter_out_of_range_is_one_config_error(
        self, ws, tmp_path, capsys, command, key, value, message
    ):
        """An out-of-range transmitter position used to fail every row of
        geometry's input, one per line, and simulate past its walk."""
        doc = json.loads(json.dumps(ws.config_doc))
        doc["budget"][key] = value
        config = tmp_path / "bad_origin.json"
        config.write_text(json.dumps(doc))
        argv = ["--input", str(ws.train)] if command == "geometry" else []
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("out*"))

    def test_flight_box_within_the_walk_tolerance_fails(self, ws, tmp_path, capsys):
        """A box whose waypoints all lie within np.allclose of each other
        used to hang the trajectory walk."""
        doc = json.loads(json.dumps(ws.config_doc))
        doc["sim"]["flight"] = {
            "east_extent_m": [1000, 1000.001], "north_extent_m": [1000, 1000.001]
        }
        config = tmp_path / "tiny_box.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "never.csv"
        capsys.readouterr()
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: flight box too small")
        assert not list(tmp_path.glob("never*"))

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
    """A covariance that is not numerically positive definite, and a
    prediction variance floored at zero, are reported on stderr; valid
    models, fitted ones included, solve silently."""

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

    def twins(self, gap):
        """The no-nugget truth model and 100 gap-flight poses, each written
        twice with SF 3 dB apart (200 rows)."""
        exact = gap.root / "exact.json"
        save_model(dataclasses.replace(gap_benchmark_truth(), nugget=0.0), exact)
        rows = gap_benchmark_rows()[::20]
        twins = [dataclasses.replace(r, rsrp_dbm=r.rsrp_dbm + 3.0) for r in rows]
        data = gap.root / "twins.csv"
        write_dataset_csv(data, [r for pair in zip(rows, twins) for r in pair])
        return exact, data

    def test_floored_variance_warns(self, gap, capsys):
        # Every tuning geometry appears twice with different SF, and every
        # target is a tuning geometry: with no nugget the exact variance is
        # zero, so rounding leaves some computed variances below zero.
        exact, tuning = self.twins(gap)
        capsys.readouterr()
        out_csv = gap.root / "twins_predictions.csv"
        argv = ["predict", "--config", str(gap.config), "--input", str(tuning)]
        argv += ["--targets", str(tuning), "--model", str(exact), "--out", str(out_csv)]
        assert main([*argv, "--mode", "angle_aware"]) == 0
        out, err = capsys.readouterr()
        predictions = read_rows(out_csv)
        assert {float(row["nugget_used"]) for row in predictions} == {0.0}
        floored = sum(float(row["kriging_var_db2"]) == 0.0 for row in predictions)
        assert 0 < floored < len(predictions)
        assert err == (
            f"warning: angle_aware: {floored} of {len(predictions)} prediction"
            " variances floored at zero\n"
        )
        assert "warning" not in out

    def test_evaluate_counts_floored_variances(self, gap, capsys):
        # The same 200 rows as a flight: a test row whose twin was drawn
        # into the tuning set has exact variance zero, and evaluate counts
        # the floored ones per trial and warns once per mode.
        exact, data = self.twins(gap)
        config = gap.root / "twins_config.json"
        doc = json.loads(gap.config.read_text())
        doc["eval"] = {
            "m_values": [100], "tests_per_trial": 100, "total_test_predictions": 200
        }
        config.write_text(json.dumps(doc))
        capsys.readouterr()
        prefix = gap.root / "twins_eval"
        argv = ["evaluate", "--config", str(config), "--input", str(data)]
        argv += ["--model", str(exact), "--out", str(prefix), "--mode", "angle_aware"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        trials = read_rows(f"{prefix}_trials.csv")
        assert [float(t["nugget_used"]) for t in trials] == [0.0, 0.0]
        floored = sum(int(t["floored"]) for t in trials)
        assert 0 < floored < 200
        assert err == (
            f"warning: angle_aware: {floored} of 200 prediction variances"
            " floored at zero\n"
        )
        assert "warning" not in out
