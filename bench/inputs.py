"""Deterministic input generation for the benchmark workloads.

Every file a workload feeds to the CLI is built here from the workload
seed alone: pose logs come from ``skyfade.fieldsim`` trajectories and
datasets, drawn from the criterion-4 truth model (the angle-dependent
field of the acceptance suite).  Generated inputs are cached per (workload, seed) under the
benchmark cache directory, so generation is never inside a timed region.

Each ``build_*`` function writes its files into ``out_dir`` and returns a
manifest (JSON-ready dict) that names the files, the command-line
arguments that consume them, and the facts the output checks need.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np

from skyfade import CorrelationModel, DedmParams, FlightSpec, LinkBudget, SimConfig
from skyfade.correlation import save_model, serialize_model
from skyfade.dataio import CANONICAL_COLUMNS, write_dataset_csv
from skyfade.fieldsim import generate_trajectory, synthesize_dataset
from skyfade.geometry import project_enu

# Bump when any builder changes, so stale cached inputs are regenerated.
GENERATOR_VERSION = 1

TX_LAT_DEG = 35.72
TX_LON_DEG = -78.70
BUDGET = LinkBudget(tx_lat_deg=TX_LAT_DEG, tx_lon_deg=TX_LON_DEG)
CONFIG_BUDGET = {"tx_lat_deg": TX_LAT_DEG, "tx_lon_deg": TX_LON_DEG}

# Workload sizes.  fieldsim caps one field draw at 5,000 samples, so the
# 10k fit campaign is five independent flights of 2,000.
ANNOTATE_ROWS = 40_000
ANNOTATE_BAD_FRAC = 0.01
FIT_ALTITUDES_M = (28.0, 40.0, 55.0, 75.0, 100.0)
FIT_ROWS_PER_FLIGHT = 2_000
FIT_MAX_LAG_M = 400.0
FIT_N_LAGS = 24
EVAL_ROWS = 2_000
EVAL_M_VALUES = (50, 150, 250, 350)
EVAL_TESTS_PER_TRIAL = 100
EVAL_TRIALS_PER_M = 12
EVAL_MODES = ("baseline", "angle_aware")
PREDICT_TUNING = 4_000
PREDICT_TARGETS = 1_000
SIMULATE_ROWS = 4_000

# Stream offsets keep the per-purpose generators of one seed independent.
_STREAM = {
    "annotate": 101,
    "fit": 102,
    "evaluate": 103,
    "predict": 104,
    "simulate": 105,
}


def gap_truth() -> CorrelationModel:
    """The criterion-4 truth: strong tilt and elevation decay."""
    return CorrelationModel.with_uniform_kernels(
        0.0,
        25.0,
        DedmParams(0.5, 0.008, 0.001),
        q_pos_deg=8.0,
        r_pos_deg=15.0,
        nugget=1e-4 * 25.0,
    )


def _sub_seed(seed: int, purpose: str, *extra: int) -> int:
    """A 31-bit seed derived from the workload seed for one purpose."""
    ss = np.random.SeedSequence([seed, _STREAM[purpose], *extra])
    return int(ss.generate_state(1)[0] & 0x7FFFFFFF)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _lawnmower(seed: int, n: int, *, altitude_m=28.0, n_passes=12, box=300.0):
    flight = FlightSpec(
        altitude_m=altitude_m,
        east_extent_m=(-box, box),
        north_extent_m=(-box, box),
        n_passes=n_passes,
    )
    return SimConfig(
        seed=seed, n_samples=n, truth=gap_truth(), budget=BUDGET, flight=flight
    )


def build_annotate(seed: int, out_dir: Path) -> dict:
    """40,000-row pose log, distinct poses, ~1% malformed rows.

    Poses follow one random-waypoint flight, so no two rows share a pose.
    The shadow fading is white (the truth's sigma), because only the
    per-row decomposition is exercised here.  Malformed rows replace data
    rows at seeded positions; their 1-based file line numbers (the header
    is line 1) are recorded for the skip check.
    """
    rng = np.random.default_rng(_sub_seed(seed, "annotate", 0))
    flight = FlightSpec(
        altitude_m=40.0,
        east_extent_m=(-1500.0, 1500.0),
        north_extent_m=(-1500.0, 1500.0),
        path="waypoints",
    )
    sim = SimConfig(
        seed=_sub_seed(seed, "annotate", 1),
        n_samples=ANNOTATE_ROWS,
        truth=gap_truth(),
        budget=BUDGET,
        flight=flight,
    )
    points = generate_trajectory(sim)
    tx_enu = np.array([0.0, 0.0, BUDGET.antenna_height_m])
    d3d = np.array(
        [np.linalg.norm(project_enu(p.position, BUDGET.origin) - tx_enu) for p in points]
    )
    # Free-space received power plus white fading: plausible values are
    # all the decomposition needs, and the file stays independent of the
    # two-ray model it exercises.
    wavelength = 299_792_458.0 / BUDGET.freq_hz
    rsrp = (
        BUDGET.tx_power_dbm
        + 20.0 * np.log10(wavelength / (4.0 * math.pi * d3d))
        + rng.normal(0.0, math.sqrt(sim.truth.sigma2), d3d.size)
    )

    n_bad = int(round(ANNOTATE_BAD_FRAC * ANNOTATE_ROWS))
    bad_rows = np.sort(rng.choice(ANNOTATE_ROWS, size=n_bad, replace=False))
    bad_kind = {int(r): k % 4 for k, r in enumerate(bad_rows)}

    path = out_dir / "poses.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for i, p in enumerate(points):
            row = [
                repr(float(p.time_s)),
                repr(p.lat_deg),
                repr(p.lon_deg),
                repr(p.alt_m),
                repr(float(p.yaw_deg)),
                repr(float(p.pitch_deg)),
                repr(float(p.roll_deg)),
                repr(float(rsrp[i])),
            ]
            kind = bad_kind.get(i)
            if kind == 0:
                row[7] = "n/a"  # non-numeric
            elif kind == 1:
                row[1] = ""  # missing value
            elif kind == 2:
                row[3] = "nan"  # non-finite
            elif kind == 3:
                row[5] = "95.0"  # pitch out of range
            writer.writerow(row)

    _write_json(out_dir / "config.json", {"budget": CONFIG_BUDGET})
    return {
        "argv": ["geometry", "--input", "poses.csv", "--config", "config.json",
                 "--out", "{run}/annotated.csv"],
        "rows": ANNOTATE_ROWS,
        "bad_lines": [int(r) + 2 for r in bad_rows],
    }


def build_fit(seed: int, out_dir: Path) -> dict:
    """10,000-row campaign: five independent flights at five altitudes."""
    samples = []
    for k, altitude in enumerate(FIT_ALTITUDES_M):
        sim = _lawnmower(
            _sub_seed(seed, "fit", k), FIT_ROWS_PER_FLIGHT, altitude_m=altitude
        )
        t_offset = k * 10.0 * FIT_ROWS_PER_FLIGHT
        samples += [
            dataclasses.replace(s, time_s=s.time_s + t_offset)
            for s in synthesize_dataset(sim)
        ]
    write_dataset_csv(out_dir / "campaign.csv", samples)
    _write_json(
        out_dir / "config.json",
        {
            "budget": CONFIG_BUDGET,
            "fit": {"max_lag_m": FIT_MAX_LAG_M, "n_lags": FIT_N_LAGS},
        },
    )
    return {
        "argv": ["fit", "--input", "campaign.csv", "--config", "config.json",
                 "--out", "{run}/model.json"],
        "rows": len(samples),
        "max_lag_m": FIT_MAX_LAG_M,
        "n_lags": FIT_N_LAGS,
    }


def build_evaluate(seed: int, out_dir: Path) -> dict:
    """Criterion-4 inputs: 2,000-row lawnmower flight and the truth model."""
    sim = _lawnmower(_sub_seed(seed, "evaluate", 0), EVAL_ROWS)
    write_dataset_csv(out_dir / "flight.csv", synthesize_dataset(sim))
    save_model(gap_truth(), out_dir / "truth.json")
    trials = EVAL_TRIALS_PER_M
    _write_json(
        out_dir / "config.json",
        {
            "budget": CONFIG_BUDGET,
            "eval": {
                "m_values": list(EVAL_M_VALUES),
                "tests_per_trial": EVAL_TESTS_PER_TRIAL,
                "total_test_predictions": trials * EVAL_TESTS_PER_TRIAL,
                "seed": _sub_seed(seed, "evaluate", 1),
                "modes": list(EVAL_MODES),
            },
        },
    )
    return {
        "argv": ["evaluate", "--input", "flight.csv", "--model", "truth.json",
                 "--config", "config.json", "--out", "{run}/eval"],
        "rows": EVAL_ROWS,
        "trials_per_m": trials,
        "m_values": list(EVAL_M_VALUES),
        "modes": list(EVAL_MODES),
        "predictions": trials * EVAL_TESTS_PER_TRIAL * len(EVAL_M_VALUES)
        * len(EVAL_MODES),
    }


def build_predict(seed: int, out_dir: Path) -> dict:
    """One 5,000-sample field draw split into tuning rows and held-out targets.

    The targets file carries poses only; the held-out RSRP is kept in a
    separate truth file that only the output check reads.
    """
    n = PREDICT_TUNING + PREDICT_TARGETS
    sim = _lawnmower(_sub_seed(seed, "predict", 0), n, n_passes=24)
    samples = synthesize_dataset(sim)
    order = np.random.default_rng(_sub_seed(seed, "predict", 1)).permutation(n)
    tuning = [samples[i] for i in np.sort(order[:PREDICT_TUNING])]
    targets = [samples[i] for i in np.sort(order[PREDICT_TUNING:])]
    write_dataset_csv(out_dir / "tuning.csv", tuning)
    pose_columns = [c for c in CANONICAL_COLUMNS if c != "rsrp_dbm"]
    with open(out_dir / "targets.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(pose_columns)
        for s in targets:
            writer.writerow([repr(float(getattr(s, c))) for c in pose_columns])
    _write_json(
        out_dir / "holdout.json", {"rsrp_dbm": [s.rsrp_dbm for s in targets]}
    )
    save_model(gap_truth(), out_dir / "truth.json")
    _write_json(out_dir / "config.json", {"budget": CONFIG_BUDGET})
    return {
        "argv": ["predict", "--input", "tuning.csv", "--targets", "targets.csv",
                 "--model", "truth.json", "--config", "config.json",
                 "--out", "{run}/predictions.csv"],
        "rows": n,
        "targets": PREDICT_TARGETS,
    }


def build_simulate(seed: int, out_dir: Path) -> dict:
    """Config for a 4,000-row draw from the truth model."""
    sim_seed = _sub_seed(seed, "simulate", 0)
    _write_json(
        out_dir / "config.json",
        {
            "budget": CONFIG_BUDGET,
            "sim": {
                "truth": serialize_model(gap_truth()),
                "flight": {"n_passes": 12},
                "noise_std_db": 0.5,
            },
        },
    )
    return {
        "argv": ["simulate", "--config", "config.json", "--seed", str(sim_seed),
                 "--n-samples", str(SIMULATE_ROWS), "--out", "{run}/sim.csv"],
        "rows": SIMULATE_ROWS,
        "sim_seed": sim_seed,
    }


BUILDERS = {
    "annotate-40k": build_annotate,
    "fit-10k": build_fit,
    "evaluate-gap": build_evaluate,
    "predict-holdout": build_predict,
    "simulate-4k": build_simulate,
}


def ensure_inputs(workload: str, seed: int, cache_root: Path) -> tuple[Path, dict]:
    """Return the input directory and manifest, generating them if absent.

    A manifest file is written last, so a directory without one is an
    interrupted generation and is rebuilt from scratch.
    """
    out_dir = cache_root / f"v{GENERATOR_VERSION}" / workload / str(seed)
    manifest_path = out_dir / "manifest.json"
    if manifest_path.exists():
        return out_dir, json.loads(manifest_path.read_text())
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    manifest = BUILDERS[workload](seed, out_dir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    _write_json(manifest_path, manifest)
    return out_dir, manifest
