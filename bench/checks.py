"""Output checks, run untimed after each command.

Each check returns a :class:`Verdict`: how many operations it examined
(``attempted``), how many were wrong (``failed``), one-line descriptions
of the first problems, and the accuracy facts the workload reports
(RMSE, gap, coverage).  A command that exited non-zero is one failed
operation and its outputs are not examined.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from skyfade.correlation import load_model
from skyfade.geometry import project_enu

SKIP_LINE = re.compile(r"^skipped line (\d+): ")
# Relative width of the radius bracket used when counting pairs, so a pair
# sitting on a lag edge cannot flip between two equally valid roundings.
EDGE_EPS = 1e-9


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def expect(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_annotate(manifest: dict, in_dir: Path, out_dir: Path, stderr: str) -> Verdict:
    """Skipped lines equal the injected set; pl_est + sf == rsrp per row."""
    v = Verdict()
    skipped = {int(m.group(1)) for m in map(SKIP_LINE.match, stderr.splitlines()) if m}
    injected = set(manifest["bad_lines"])
    # Every input row is one operation: skipped exactly when it was injected.
    wrongly_skipped = sorted(skipped - injected)
    wrongly_accepted = sorted(injected - skipped)
    v.attempted += manifest["rows"]
    v.failed += len(wrongly_skipped) + len(wrongly_accepted)
    if wrongly_skipped:
        v.problems.append(f"good lines skipped: {wrongly_skipped[:5]}")
    if wrongly_accepted:
        v.problems.append(f"bad lines accepted: {wrongly_accepted[:5]}")
    rows = _read_rows(out_dir / "annotated.csv")
    expected = manifest["rows"] - len(injected)
    v.expect(len(rows) == expected, f"{len(rows)} annotated rows, expected {expected}")
    bad = sum(
        not math.isclose(
            float(row["pl_est_dbm"]) + float(row["sf_db"]),
            float(row["rsrp_dbm"]),
            rel_tol=0.0,
            abs_tol=1e-9,
        )
        for row in rows
    )
    v.attempted += len(rows)
    v.failed += bad
    if bad:
        v.problems.append(f"{bad} rows with pl_est_dbm + sf_db != rsrp_dbm")
    return v


def check_fit(manifest: dict, in_dir: Path, out_dir: Path, stderr: str) -> Verdict:
    """Model reloads; correlogram pair counts match an independent count."""
    v = Verdict()
    try:
        load_model(out_dir / "model.json")
        v.expect(True, "")
    except Exception as exc:  # any failure to reload is the finding
        v.expect(False, f"model does not reload: {exc}")

    config = json.loads((in_dir / "config.json").read_text())["budget"]
    origin = (config["tx_lat_deg"], config["tx_lon_deg"], 0.0)
    rows = _read_rows(in_dir / "campaign.csv")
    xy = np.array(
        [
            project_enu(
                (float(r["lat_deg"]), float(r["lon_deg"]), float(r["alt_m"])), origin
            )[:2]
            for r in rows
        ]
    )
    n = len(xy)
    n_lags = manifest["n_lags"]
    edges = manifest["max_lag_m"] / n_lags * np.arange(1, n_lags + 1)
    tree = cKDTree(xy)

    def pairs_within(radii):
        # Ordered pairs within each radius, self-pairs included.
        return (tree.count_neighbors(tree, radii) - n) // 2

    low = pairs_within(edges * (1.0 - EDGE_EPS))
    high = pairs_within(edges * (1.0 + EDGE_EPS))
    gram = _read_rows(out_dir / "model_correlogram.csv")
    counts = np.array([int(r["count"]) for r in gram])
    v.expect(counts.size == n_lags, f"{counts.size} lags, expected {n_lags}")
    if counts.size == n_lags:
        cumulative = np.cumsum(counts)
        for k in range(n_lags):
            v.expect(
                low[k] <= cumulative[k] <= high[k],
                f"lag {k}: {cumulative[k]} pairs below {edges[k]:.1f} m,"
                f" independent count {low[k]}",
            )
    v.facts["pairs_in_range"] = int(counts.sum())
    return v


def check_evaluate(manifest: dict, in_dir: Path, out_dir: Path, stderr: str) -> Verdict:
    """Every trial present and finite; the M=150 gap meets criterion 4."""
    v = Verdict()
    summary = json.loads((out_dir / "eval_summary.json").read_text())
    medians = {}
    for entry in summary["results"]:
        values = entry["rmse_db"]
        for x in values:
            v.expect(x is not None and math.isfinite(x), f"non-finite RMSE {x}")
        v.expect(
            len(values) == manifest["trials_per_m"],
            f"M={entry['m']} {entry['mode']}: {len(values)} trials",
        )
        medians[(entry["m"], entry["mode"])] = entry["median_rmse_db"]
    base = medians.get((150, "baseline"))
    aware = medians.get((150, "angle_aware"))
    gap = base - aware if base is not None and aware is not None else math.nan
    v.expect(gap >= 0.5, f"M=150 gap {gap:.3f} dB below the 0.5 dB criterion")
    v.facts["rmse_db"] = aware
    v.facts["gap_db"] = gap
    return v


def check_predict(manifest: dict, in_dir: Path, out_dir: Path, stderr: str) -> Verdict:
    """One row per target, finite non-negative variances; RMSE and coverage."""
    v = Verdict()
    rows = _read_rows(out_dir / "predictions.csv")
    truth = np.array(json.loads((in_dir / "holdout.json").read_text())["rsrp_dbm"])
    v.expect(len(rows) == truth.size, f"{len(rows)} predictions for {truth.size} targets")
    z_hat = np.array([float(r["z_hat_dbm"]) for r in rows])
    var = np.array([float(r["kriging_var_db2"]) for r in rows])
    ok = np.isfinite(var) & (var >= 0.0) & np.isfinite(z_hat)
    v.attempted += var.size
    v.failed += int(np.count_nonzero(~ok))
    if not ok.all():
        v.problems.append(f"{np.count_nonzero(~ok)} predictions with bad variance")
    if len(rows) == truth.size:
        err = z_hat - truth
        v.facts["rmse_db"] = float(np.sqrt(np.mean(err**2)))
        inside = np.abs(err) <= 1.96 * np.sqrt(np.maximum(var, 0.0))
        v.facts["pi95_coverage"] = float(np.mean(inside))
    return v


def check_simulate(manifest: dict, in_dir: Path, out_dir: Path, stderr: str) -> Verdict:
    """Right row count; the truth sidecar reloads and records the seed."""
    v = Verdict()
    rows = _read_rows(out_dir / "sim.csv")
    v.expect(len(rows) == manifest["rows"], f"{len(rows)} rows, expected {manifest['rows']}")
    sidecar = out_dir / "sim_truth.json"
    try:
        load_model(sidecar)
        seed = json.loads(sidecar.read_text())["sim"]["seed"]
        v.expect(seed == manifest["sim_seed"], f"sidecar seed {seed}")
    except Exception as exc:  # any failure to reload is the finding
        v.expect(False, f"truth sidecar does not reload: {exc}")
    return v


CHECKS = {
    "annotate-40k": check_annotate,
    "fit-10k": check_fit,
    "evaluate-gap": check_evaluate,
    "predict-holdout": check_predict,
    "simulate-4k": check_simulate,
}
