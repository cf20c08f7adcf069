"""Subsampled prediction-accuracy comparison across Kriging modes.

For each tuning-set size M the harness repeatedly draws M tuning samples
plus a disjoint block of test targets from the dataset, predicts RSRP at
the targets with each requested mode, and records one RMSE per trial.
Trials continue until the configured total number of test predictions is
reached.  Within a trial the tuning and test sets never overlap; across
trials rows may recur.  All modes see identical tuning/test draws so the
comparison is paired, and every trial's generator is derived from the
master seed plus the (M, trial) pair, which keeps runs reproducible and
lets trials run in any order.  Each mode predicts with the model
restricted to it.  The results come back as columns, one array per
trial field (:class:`TrialTable`), built once at the end.

What is per row is computed once per dataset, not per trial: the group
ids of exactly equal geometries (:func:`~skyfade.kriging.duplicate_groups`)
and, per mode, the rows' :class:`~skyfade.correlation.KernelPoints`.  So
every row of the dataset, drawn or not, must lie inside the model's angle
bins for an angular mode.  A trial averages its drawn tuning rows'
duplicates over their ids (:func:`~skyfade.kriging.average_duplicates`)
and indexes its tuning and test points out of the dataset's; every entry
of its covariances, and so every trial column, is bitwise what the drawn
rows themselves give through :func:`~skyfade.kriging.predict_sf_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .correlation import CorrelationModel, KernelPoints, check_mode
from .errors import ValidationError
from .geometry import Columns
from .kriging import (
    TrainingPoints,
    average_duplicates,
    duplicate_groups,
    predict_sf_batch,
)
from .propagation import SfTable
from .schema import encode_number

DEFAULT_M_VALUES = tuple(range(50, 451, 50))


@dataclass(frozen=True)
class EvalConfig:
    """Controls for one evaluation run."""

    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    tests_per_trial: int = 100
    total_test_predictions: int = 100000
    seed: int = 0
    modes: tuple[str, ...] = ("baseline", "angle_aware")

    def __post_init__(self):
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise ValidationError("m_values must be positive integers")
        for k, m in enumerate(self.m_values):
            if m in self.m_values[:k]:
                raise ValidationError(f"M={m} is listed twice")
        if self.tests_per_trial < 1 or self.total_test_predictions < 1:
            raise ValidationError("test counts must be positive")
        if self.seed < 0:
            raise ValidationError(f"seed must not be negative: {self.seed}")
        if not self.modes:
            raise ValidationError("need at least one mode")
        for k, mode in enumerate(self.modes):
            check_mode(mode)
            if mode in self.modes[:k]:
                raise ValidationError(f"mode {mode!r} is listed twice")

    @property
    def n_trials(self) -> int:
        return math.ceil(self.total_test_predictions / self.tests_per_trial)


@dataclass(frozen=True, eq=False)
class TrialTable(Columns):
    """Per-trial results, one entry per (M, trial, mode) in each column,
    in run order: by M, then trial, then mode.  ``floored`` counts the
    trial's prediction variances floored at zero."""

    m: np.ndarray
    mode: np.ndarray
    trial: np.ndarray
    rmse_db: np.ndarray
    nugget_used: np.ndarray
    pi95_coverage: np.ndarray
    zscore_sd: np.ndarray
    floored: np.ndarray


#: The trial columns, in the trials CSV's header order.
TRIAL_FIELDS = tuple(f.name for f in fields(TrialTable))


@dataclass
class EvalResult:
    config: EvalConfig
    trials: TrialTable

    def values(self, m: int, mode: str, name: str = "rmse_db") -> np.ndarray:
        """One trial column over the (m, mode) trials, in trial order."""
        t = self.trials
        return getattr(t, name)[(t.m == m) & (t.mode == mode)]

    def median_rmse(self, m: int, mode: str) -> float:
        return float(np.median(self.values(m, mode)))

    def summary(self) -> dict:
        """JSON-ready summary with per-(M, mode) medians and full RMSE lists;
        a NaN (a median over a floored variance's z-scores) is None."""

        def median(values):
            return encode_number(np.median(values)) if values.size else None

        results = []
        for m in self.config.m_values:
            for mode in self.config.modes:
                values = self.values(m, mode)
                results.append(
                    {
                        "m": m,
                        "mode": mode,
                        "trials": int(values.size),
                        "tests_per_trial": self.config.tests_per_trial,
                        "total_predictions": int(values.size)
                        * self.config.tests_per_trial,
                        "median_rmse_db": median(values),
                        "rmse_db": [encode_number(v) for v in values],
                        "median_pi95_coverage": median(
                            self.values(m, mode, "pi95_coverage")
                        ),
                        "median_zscore_sd": median(self.values(m, mode, "zscore_sd")),
                    }
                )
        return {
            "seed": self.config.seed,
            "tests_per_trial": self.config.tests_per_trial,
            "total_test_predictions": self.config.total_test_predictions,
            "results": results,
        }


def run_evaluation(
    samples,
    model: CorrelationModel,
    config: EvalConfig,
) -> EvalResult:
    """Run the full trial grid over a decomposed dataset.

    ``samples`` is an :class:`SfTable` or a sequence of SF samples
    (measured RSRP plus its decomposition); each trial takes its tuning
    and test rows by index, out of the per-dataset ids and points (see the
    module docstring).  The predicted z for a target reuses the target
    row's own two-ray estimate, so no link budget is needed here.
    """
    models = {mode: model.restricted(mode) for mode in config.modes}
    samples = SfTable.of(samples)
    n = len(samples)
    needed = max(config.m_values) + config.tests_per_trial
    if n < needed:
        raise ValidationError(
            f"dataset has {n} rows; need at least {needed} for"
            f" M={max(config.m_values)} plus {config.tests_per_trial} tests"
        )
    ids = duplicate_groups(samples.geometry)
    points = {
        mode: KernelPoints.of(restricted, samples.geometry)
        for mode, restricted in models.items()
    }
    rows = []
    for m in config.m_values:
        for trial in range(config.n_trials):
            rng = np.random.default_rng([config.seed, m, trial])
            draw = rng.choice(n, size=m + config.tests_per_trial, replace=False)
            train, test = draw[:m], draw[m:]
            first, w = average_duplicates(ids[train], samples.sf_db[train])
            kept = train[first]
            pl_est, rsrp = samples.pl_est_dbm[test], samples.rsrp_dbm[test]
            for mode, restricted in models.items():
                training = TrainingPoints(points[mode][kept], w)
                w_hat, var, nugget = predict_sf_batch(
                    training, points[mode][test], restricted
                )
                err = pl_est + w_hat - rsrp
                rmse = float(np.sqrt(np.mean(err**2)))
                sd = np.sqrt(var)
                # A floored (zero) variance gives an infinite z-score
                # unless the error is zero too.
                with np.errstate(divide="ignore", invalid="ignore"):
                    zscore_sd = float(np.std(err / sd))
                coverage = float(np.mean(np.abs(err) <= 1.96 * sd))
                floored = int(np.count_nonzero(var == 0.0))
                rows.append(
                    (m, mode, trial, rmse, nugget, coverage, zscore_sd, floored)
                )
    table = TrialTable(*(np.array(column) for column in zip(*rows)))
    return EvalResult(config=config, trials=table)
