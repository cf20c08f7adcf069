"""Mode-comparison evaluation harness: draws, pairing, and summaries."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from _recipes import (
    decompose_all,
    gap_benchmark_rows,
    gap_benchmark_sf,
    gap_benchmark_truth,
    trial_table,
)
from skyfade.correlation import CorrelationModel, DedmParams, fit_correlation_model
from skyfade.dataio import write_trials_csv
from skyfade.errors import ValidationError
from skyfade.evaluation import (
    DEFAULT_M_VALUES,
    TRIAL_FIELDS,
    EvalConfig,
    EvalResult,
    run_evaluation,
)
from skyfade.kriging import dedup_training, predict_sf_batch
from skyfade.schema import write_json
from test_correlation import mk_sf


def quick_samples(n, seed=30):
    rng = np.random.default_rng(seed)
    return [
        mk_sf(
            rng.normal(0.0, 2.0),
            east=float(rng.uniform(-250.0, 250.0)),
            north=float(rng.uniform(-250.0, 250.0)),
            theta=float(rng.uniform(5.0, 80.0)),
            delta=float(rng.uniform(-12.0, 12.0)),
        )
        for _ in range(n)
    ]


def quick_model(nugget=4e-6):
    return CorrelationModel.with_uniform_kernels(
        0.0, 4.0, DedmParams(0.6, 5e-3, 5e-4), nugget=nugget
    )


class TestConfig:
    def test_defaults(self):
        config = EvalConfig()
        assert config.m_values == tuple(range(50, 451, 50))
        assert config.n_trials == 1000

    def test_trial_count_covers_total(self):
        config = EvalConfig(tests_per_trial=30, total_test_predictions=100)
        assert config.n_trials == 4  # 120 >= 100, within one extra trial
        assert config.n_trials * config.tests_per_trial >= 100
        assert (config.n_trials - 1) * config.tests_per_trial < 100

    def test_validation(self):
        with pytest.raises(ValidationError):
            EvalConfig(m_values=())
        with pytest.raises(ValidationError):
            EvalConfig(m_values=(0,))
        with pytest.raises(ValidationError):
            EvalConfig(tests_per_trial=0)
        with pytest.raises(ValidationError):
            EvalConfig(modes=())
        with pytest.raises(ValidationError):
            EvalConfig(modes=("baseline", "psychic"))
        with pytest.raises(ValidationError, match="'baseline' is listed twice"):
            EvalConfig(modes=("baseline", "angle_aware", "baseline"))
        with pytest.raises(ValidationError, match="M=20 is listed twice"):
            EvalConfig(m_values=(20, 50, 20))
        with pytest.raises(ValidationError, match="seed must not be negative"):
            EvalConfig(seed=-3)


class TestResultAccessors:
    def build(self):
        config = EvalConfig(
            m_values=(10,), tests_per_trial=5, total_test_predictions=15
        )
        rows = [
            (10, "baseline", trial, rmse, 0.0, math.nan, math.nan, 0)
            for trial, rmse in enumerate((1.0, 9.0, 2.0))
        ]
        return EvalResult(config=config, trials=trial_table(rows))

    def test_median_is_order_statistic(self):
        result = self.build()
        assert result.median_rmse(10, "baseline") == 2.0

    def test_summary_shape(self):
        summary = self.build().summary()
        assert summary["seed"] == 0
        entry = summary["results"][0]
        assert entry["m"] == 10
        assert entry["trials"] == 3
        assert entry["total_predictions"] == 15
        assert entry["median_rmse_db"] == 2.0
        assert entry["rmse_db"] == [1.0, 9.0, 2.0]

    def test_interleaved_modes_keep_run_order(self, tmp_path):
        # Run order: by M, then trial, then mode, so the two modes
        # interleave; the RMSE values are deliberately unsorted.
        rows = [
            (10, "baseline", 0, 3.0, 0.0, 0.9, 1.25, 0),
            (10, "angle_aware", 0, 2.5, 1e-06, 0.95, 1.0, 0),
            (10, "baseline", 1, 1.0, 0.0, 1.0, math.inf, 0),
            (10, "angle_aware", 1, 0.5, 1e-05, 0.85, math.nan, 2),
            (10, "baseline", 2, 2.0, 0.0, 0.8, 0.75, 0),
            (20, "baseline", 0, 4.0, 0.0, 0.9, 1.5, 0),
        ]
        config = EvalConfig(
            m_values=(10, 20), tests_per_trial=5, total_test_predictions=30
        )
        result = EvalResult(config=config, trials=trial_table(rows))
        assert result.values(10, "baseline").tolist() == [3.0, 1.0, 2.0]
        assert result.values(10, "baseline", "trial").tolist() == [0, 1, 2]
        assert result.values(10, "angle_aware").tolist() == [2.5, 0.5]
        nuggets = result.values(10, "angle_aware", "nugget_used")
        assert nuggets.tolist() == [1e-06, 1e-05]
        assert result.values(20, "baseline").tolist() == [4.0]
        assert result.values(20, "angle_aware").size == 0

        path = tmp_path / "trials.csv"
        write_trials_csv(path, result.trials)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *written = csv.reader(fh)
        assert header == list(TRIAL_FIELDS)
        columns = [getattr(result.trials, name).tolist() for name in TRIAL_FIELDS]
        expected = [
            [v if isinstance(v, str) else repr(v) for v in row] for row in zip(*columns)
        ]
        assert written == expected
        assert written[3] == ["10", "angle_aware", "1", "0.5", "1e-05", "0.85", "nan", "2"]


class TestRunEvaluation:
    def test_deterministic_and_paired(self):
        samples = quick_samples(80)
        model = quick_model()
        config = EvalConfig(
            m_values=(10, 20),
            tests_per_trial=10,
            total_test_predictions=30,
            seed=5,
        )
        a = run_evaluation(samples, model, config)
        b = run_evaluation(samples, model, config)
        for name in TRIAL_FIELDS:
            assert getattr(a.trials, name).tolist() == getattr(b.trials, name).tolist()
        # Both modes appear once per (m, trial) pair: the draws are shared.
        t = a.trials

        def keys(mode):
            in_mode = t.mode == mode
            return list(zip(t.m[in_mode].tolist(), t.trial[in_mode].tolist()))

        assert keys("baseline") == keys("angle_aware")
        assert len(a.trials) == 2 * 2 * config.n_trials

    def test_total_predictions_reached(self):
        samples = quick_samples(60)
        config = EvalConfig(
            m_values=(15,), tests_per_trial=7, total_test_predictions=20, seed=2
        )
        result = run_evaluation(samples, quick_model(), config)
        entry = result.summary()["results"][0]
        assert entry["total_predictions"] >= 20
        assert entry["total_predictions"] - 7 < 20

    def test_tuning_and_test_rows_disjoint(self):
        n = 50
        config = EvalConfig(
            m_values=(30,), tests_per_trial=20, total_test_predictions=40, seed=3
        )
        for trial in range(config.n_trials):
            rng = np.random.default_rng([3, 30, trial])
            draw = rng.choice(n, size=50, replace=False)
            assert np.unique(draw).size == 50

    def test_perfect_model_on_duplicated_rows_gives_zero_rmse(self):
        # Every row shares one geometry; a zero-nugget flat model then
        # predicts the (deduplicated) shared SF value exactly, and because
        # all rows carry that same value the RMSE is exactly zero.
        samples = [mk_sf(1.25, east=40.0, north=-10.0) for _ in range(30)]
        model = CorrelationModel.with_uniform_kernels(
            0.0, 4.0, DedmParams(0.6, 5e-3, 5e-4), nugget=0.0
        )
        config = EvalConfig(
            m_values=(5,), tests_per_trial=10, total_test_predictions=10, seed=1
        )
        result = run_evaluation(samples, model, config)
        assert np.all(result.trials.rmse_db < 1e-6)

    def test_summary_with_floored_variance_is_strict_json(self, tmp_path):
        # Every geometry appears twice with different SF, so a test row
        # whose twin is in the tuning set gets a floored (zero) variance
        # and a nonzero error: its trial's zscore_sd is NaN, which the
        # summary writes as null, not as a bare NaN token.
        rng = np.random.default_rng(5)
        samples = [
            mk_sf(rng.normal(0.0, 2.0), east=float(east), north=float(north))
            for east, north in rng.uniform(-200.0, 200.0, (20, 2))
            for _ in range(2)
        ]
        config = EvalConfig(
            m_values=(20,), tests_per_trial=20, total_test_predictions=40,
            modes=("baseline",),
        )
        result = run_evaluation(samples, quick_model(nugget=0.0), config)
        assert np.isnan(result.trials.zscore_sd).all()
        path = tmp_path / "summary.json"
        write_json(path, result.summary())

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["results"][0]["median_zscore_sd"] is None
        assert doc["results"][0]["median_rmse_db"] > 0.0

    def test_small_dataset_rejected(self):
        config = EvalConfig(
            m_values=(30,), tests_per_trial=20, total_test_predictions=40
        )
        with pytest.raises(ValidationError):
            run_evaluation(quick_samples(49), quick_model(), config)

    def test_capped_model_modes_tie_exactly(self):
        samples = quick_samples(70, seed=31)
        model = quick_model()  # flat kernels: angular terms are exactly 1
        config = EvalConfig(
            m_values=(12,), tests_per_trial=8, total_test_predictions=24, seed=4
        )
        result = run_evaluation(samples, model, config)
        t = result.trials

        def by_trial(mode):
            in_mode = t.mode == mode
            return dict(zip(t.trial[in_mode].tolist(), t.rmse_db[in_mode].tolist()))

        assert by_trial("baseline") == by_trial("angle_aware")

    def test_angle_aware_beats_baseline_on_benchmark_subset(self):
        samples = gap_benchmark_sf()
        model = gap_benchmark_truth()
        config = EvalConfig(
            m_values=(150,), tests_per_trial=100, total_test_predictions=2000, seed=0
        )
        result = run_evaluation(samples, model, config)
        gap = result.median_rmse(150, "baseline") - result.median_rmse(
            150, "angle_aware"
        )
        # Pinned campaign: the gap at M=150 is 1.25 dB over the full run;
        # this 20-trial subset keeps a clear margin.
        assert gap > 0.3


class TestPerDatasetFeatures:
    """run_evaluation makes the duplicate ids and the kernel points once
    per dataset; every trial is still bitwise the solve on its drawn
    rows."""

    def test_trials_are_bitwise_the_drawn_rows_solves(self):
        # 100 gap-flight poses, each twice with SF 3 dB apart: most draws
        # hold some twins, which the solve averages into one row.
        rows = gap_benchmark_rows()[::20]
        twins = [dataclasses.replace(r, rsrp_dbm=r.rsrp_dbm + 3.0) for r in rows]
        samples = decompose_all([r for pair in zip(rows, twins) for r in pair])
        model = gap_benchmark_truth()
        config = EvalConfig(
            m_values=(40, 90), tests_per_trial=50, total_test_predictions=100, seed=7
        )
        got = run_evaluation(samples, model, config).trials
        expect, collapsed = [], 0
        for m in config.m_values:
            for trial in range(config.n_trials):
                rng = np.random.default_rng([config.seed, m, trial])
                draw = rng.choice(len(samples), size=m + 50, replace=False)
                train, test = samples[draw[:m]], samples[draw[m:]]
                collapsed += m - len(dedup_training(train)[1])
                for mode in config.modes:
                    w_hat, var, nugget = predict_sf_batch(
                        train, test.geometry, model.restricted(mode)
                    )
                    err = test.pl_est_dbm + w_hat - test.rsrp_dbm
                    sd = np.sqrt(var)
                    expect.append(
                        (
                            m, mode, trial, float(np.sqrt(np.mean(err**2))), nugget,
                            float(np.mean(np.abs(err) <= 1.96 * sd)),
                            float(np.std(err / sd)),
                            int(np.count_nonzero(var == 0.0)),
                        )
                    )
        assert collapsed > 0
        for name, column in zip(TRIAL_FIELDS, zip(*expect)):
            assert getattr(got, name).tolist() == list(column), name


class TestCalibration:
    def test_truth_model_is_calibrated_on_benchmark_subset(self):
        samples = gap_benchmark_sf()
        model = gap_benchmark_truth()
        config = EvalConfig(
            m_values=(150,),
            tests_per_trial=100,
            total_test_predictions=2000,
            seed=0,
            modes=("angle_aware",),
        )
        result = run_evaluation(samples, model, config)
        entry = result.summary()["results"][0]
        # Measured on this 20-trial subset: median coverage 0.950 and
        # median z-score SD 0.992 (seeds 1-3: 0.945-0.950, 0.998-1.017).
        assert 0.92 <= entry["median_pi95_coverage"] <= 0.98
        assert 0.9 <= entry["median_zscore_sd"] <= 1.1
        coverage = result.trials.pi95_coverage
        assert np.all((0.0 <= coverage) & (coverage <= 1.0))
        assert np.all(np.isfinite(result.trials.zscore_sd))

    def test_summary_medians_match_trials(self):
        config = EvalConfig(
            m_values=(12,), tests_per_trial=8, total_test_predictions=24, seed=4
        )
        result = run_evaluation(quick_samples(70, seed=31), quick_model(), config)
        for entry in result.summary()["results"]:
            coverage = result.values(entry["m"], entry["mode"], "pi95_coverage")
            sd = result.values(entry["m"], entry["mode"], "zscore_sd")
            assert coverage.size == entry["trials"] == 3
            assert entry["median_pi95_coverage"] == float(np.median(coverage))
            assert entry["median_zscore_sd"] == float(np.median(sd))


class TestFittedModel:
    def test_fitted_covariance_never_escalates(self):
        # The fitted model is a valid covariance, so every trial solves at
        # the model nugget; the pinned flight's worst trial reads 4.09 dB.
        samples = gap_benchmark_sf()
        model = fit_correlation_model(samples).model
        config = EvalConfig(
            m_values=(150, 350),
            tests_per_trial=100,
            total_test_predictions=800,
            modes=("elev_only", "angle_aware"),
        )
        result = run_evaluation(samples, model, config)
        for mode in config.modes:
            trials = result.trials[np.flatnonzero(result.trials.mode == mode)]
            assert len(trials) == 16
            assert trials.nugget_used.tolist() == [model.nugget] * 16
            assert trials.rmse_db.max() < 6.0
