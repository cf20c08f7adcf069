"""Correlation model: kernels, empirical profiles, distance decay, serialization."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from _recipes import (
    ANGLE_GRID_ELEV_R,
    ANGLE_GRID_TILT_Q,
    DEDM_RECOVERY_MAX_LAG,
    DEDM_RECOVERY_N_LAGS,
    DEDM_RECOVERY_TRUTH,
    SINGLE_EXP_MAX_LAG,
    SINGLE_EXP_N_LAGS,
    SINGLE_EXP_RATE,
    decompose_all,
    angle_grid_dataset,
    dedm_recovery_sf,
    gap_benchmark_sf,
    kernel_correlation,
    no_worse_than_trf,
    separation_mean,
    single_exp_sf,
)
from skyfade.correlation import (
    CORRELATION_TILE_ENTRIES,
    DEFAULT_ELEV_REPS,
    DEFAULT_MIN_CELL_COUNT,
    DEFAULT_TILT_REPS,
    MODES,
    Q_CAP_DEG,
    RATE_BOUNDS,
    RHO_FLOOR,
    AngleBins,
    CorrelationModel,
    Covariance,
    DedmParams,
    KernelPoints,
    _bin_cells,
    _estimate_profile,
    _fit_distance,
    _fit_rates,
    balance_resample,
    correlation_matrix,
    dedm_eval,
    deserialize_model,
    empirical_angular_correlation,
    empirical_correlogram,
    fit_correlation_model,
    load_model,
    save_model,
    serialize_model,
)
from skyfade.errors import (
    DegenerateCorrelationError,
    InsufficientCoverageError,
    InsufficientDataError,
    SchemaError,
    ValidationError,
)
from skyfade.fieldsim import sample_sf_field
from skyfade.geometry import Geometry, LinkGeometry
from skyfade.kriging import predict_sf_batch
from skyfade.propagation import SfSample, SfTable, sf_statistics

MODEL_V1 = Path(__file__).parent / "data" / "model_v1.json"


def mk_geom(east=0.0, north=0.0, theta=20.0, delta=0.0, up=30.0):
    d2d = math.hypot(east, north)
    return LinkGeometry(
        theta_deg=theta,
        theta_gs_deg=theta - delta,
        delta_deg=delta,
        d2d_m=d2d,
        d3d_m=math.hypot(d2d, up - 1.5),
        east_m=east,
        north_m=north,
        up_m=up,
    )


def mk_sf(w, east=0.0, north=0.0, theta=20.0, delta=0.0):
    return SfSample(
        geometry=mk_geom(east, north, theta, delta),
        sf_db=float(w),
        rsrp_dbm=float(w),
        pl_est_dbm=0.0,
    )


def sf_columns(east, north, w):
    """An SF table with the given positions and values; the angles are 0."""
    zero = np.zeros(np.size(w))
    geometry = Geometry(zero, zero, zero, zero, zero, east, north, zero)
    return SfTable(geometry, np.asarray(w, dtype=float), zero, zero)


class TestAngleBins:
    def test_default_shape(self):
        bins = AngleBins()
        assert bins.n_tilt == 5
        assert bins.n_elev == 4

    def test_half_open_semantics(self):
        bins = AngleBins()
        # The upper edge belongs to the bin; the outer tilt bin is unbounded.
        tilts = [-7.0, -6.999, 3.0, 3.0001, 100.0]
        assert bins.tilt_indices(tilts).tolist() == [0, 1, 2, 3, 4]
        assert bins.elev_indices([10.0, 10.1, 90.0]).tolist() == [0, 1, 3]

    def test_out_of_range_elevations(self):
        bins = AngleBins()
        with pytest.raises(ValidationError):
            bins.elev_indices([0.0])  # lower edge excluded
        with pytest.raises(ValidationError):
            bins.elev_indices([90.5])
        with pytest.raises(ValidationError):
            bins.elev_indices(np.array([20.0, math.nan]))

    def test_vector_indices_match_scalar(self):
        bins = AngleBins()
        deltas = np.array([-12.0, -7.0, -3.0, 0.0, 3.5, 8.0])
        assert bins.tilt_indices(deltas).tolist() == [
            int(bins.tilt_indices([d])[0]) for d in deltas
        ]

    def test_validation(self):
        with pytest.raises(ValidationError):
            AngleBins(elev_edges=(0.0, 30.0, 10.0, 90.0))
        with pytest.raises(ValidationError):
            AngleBins(elev_edges=(0.0, 45.0, 90.0), elev_reps=(20.0,))
        with pytest.raises(ValidationError):
            AngleBins(elev_edges=(0.0, 45.0, 90.0), elev_reps=(20.0, 44.0))

    @pytest.mark.parametrize(
        "reps, bad",
        [
            # Each outer tilt bin is unbounded on one side only.
            ((50.0, -5.0, 0.0, 5.0, -60.0), "50.0"),
            ((-10.0, -5.0, 0.0, 5.0, -60.0), "-60.0"),
            ((-math.inf, -5.0, 0.0, 5.0, 10.0), "-inf"),
            ((math.nan, -5.0, 0.0, 5.0, 10.0), "nan"),
        ],
    )
    def test_representative_outside_an_unbounded_bin(self, reps, bad):
        with pytest.raises(
            ValidationError, match=rf"^tilt representative {bad} outside bin"
        ):
            AngleBins(tilt_reps=reps)


class TestDistanceDecay:
    def test_unit_at_zero(self):
        assert dedm_eval(DedmParams(0.3, 0.05, 0.001), 0.0) == 1.0

    def test_pure_single_rate(self):
        params = DedmParams(1.0, 0.02, 5.0)
        for d in (0.0, 10.0, 137.5, 900.0):
            assert dedm_eval(params, d) == pytest.approx(
                math.exp(-0.02 * d), abs=1e-15
            )

    def test_mixture_oracle(self):
        params = DedmParams(0.6, 0.05, 0.005)
        for d in (1.0, 20.0, 250.0):
            expect = 0.6 * math.exp(-0.05 * d) + 0.4 * math.exp(-0.005 * d)
            assert dedm_eval(params, d) == pytest.approx(expect, abs=1e-15)

    def test_vector_matches_scalar(self):
        params = DedmParams(0.25, 0.1, 0.003)
        d = np.linspace(0.0, 300.0, 40)
        out = dedm_eval(params, d)
        assert out.shape == d.shape
        assert np.allclose(out, [dedm_eval(params, x) for x in d], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DedmParams(1.2, 0.1, 0.01)
        with pytest.raises(ValidationError):
            DedmParams(0.5, 0.0, 0.01)
        with pytest.raises(ValidationError):
            DedmParams(0.5, math.inf, 0.01)
        for bad in (-1.0, math.nan, [0.0, math.nan]):
            with pytest.raises(ValidationError, match="must be non-negative"):
                dedm_eval(DedmParams(0.5, 0.1, 0.01), bad)


def oracle_rate(cell):
    """Symmetric decay rate of one version-1 kernel cell ``{q_pos, q_neg}``
    (scales in degrees, "inf" allowed); 0 when absent (None) or capped."""
    if cell is None:
        return 0.0
    scales = (float(cell["q_pos"]), float(cell["q_neg"]))
    rates = [0.0 if q >= Q_CAP_DEG else 1.0 / q for q in scales]
    return 0.5 * (rates[0] + rates[1])


def as_version_1(model, tilt_cell, elev_cell):
    """``model``'s document in schema version 1, with one kernel cell
    everywhere in each table."""
    doc = json.loads(json.dumps(serialize_model(model)))
    del doc["tilt_rates"], doc["elev_rates"]
    nt, ne = model.bins.n_tilt, model.bins.n_elev
    doc["version"] = 1
    doc["tilt_kernels"] = [[tilt_cell] * ne for _ in range(nt)]
    doc["elev_kernels"] = [[elev_cell] * nt for _ in range(ne)]
    return doc


def oracle_warp(x, edges, rate_of_bin):
    """Integral of the rate from 0 to x, walking the bins in between."""
    lo_x, hi_x = min(0.0, x), max(0.0, x)
    total = 0.0
    for k in range(len(edges) - 1):
        lo, hi = max(edges[k], lo_x), min(edges[k + 1], hi_x)
        if hi > lo:
            total += rate_of_bin(k) * (hi - lo)
    return total if x >= 0.0 else -total


def oracle_correlation(model, gi, gj, mode="angle_aware"):
    """Model correlation of one pair of link geometries, from the rate
    tables with scalar math."""
    d = math.hypot(gi.east_m - gj.east_m, gi.north_m - gj.north_m)
    dedm = model.dedm
    r_d = dedm.a * math.exp(-dedm.p1 * d) + (1.0 - dedm.a) * math.exp(-dedm.p2 * d)
    if mode == "baseline":
        return r_d
    bins = model.bins

    def u_tilt(g):
        e = int(bins.elev_indices([g.theta_deg])[0])
        return oracle_warp(
            g.delta_deg, bins.tilt_edges, lambda t: model.tilt_rates[t, e]
        )

    def u_elev(g):
        t = int(bins.tilt_indices([g.delta_deg])[0])
        return oracle_warp(
            g.theta_deg, bins.elev_edges, lambda e: model.elev_rates[e, t]
        )

    expo = 0.0
    if mode in ("angle_aware", "tilt_only"):
        expo += abs(u_tilt(gi) - u_tilt(gj))
    if mode in ("angle_aware", "elev_only"):
        expo += abs(u_elev(gi) - u_elev(gj))
    return r_d * math.exp(-expo)


def pair(model, gi, gj, mode="angle_aware"):
    """The correlation of one pair under ``mode``."""
    return float(kernel_correlation(model, [gi], [gj], mode=mode)[0, 0])


class TestPiecewiseKernel:
    """One cell's decay rate r gives the kernel exp(-r |delta|) within the
    cell; version-1 scales load as the rate 1/2 (1/q+ + 1/q-)."""

    def test_matches_exponential(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0, 1.0, DedmParams(0.5, 0.01, 0.001), q_pos_deg=ANGLE_GRID_TILT_Q
        )
        value = pair(model, mk_geom(delta=0.0), mk_geom(delta=10.0), "tilt_only")
        assert value == pytest.approx(math.exp(-10.0 / 61.5), rel=1e-15)
        assert value == pytest.approx(0.84993, abs=5e-6)
        doc = as_version_1(model, {"q_pos": ANGLE_GRID_TILT_Q, "q_neg": 30.0}, None)
        back = deserialize_model(doc)
        assert np.all(back.tilt_rates == 0.5 * (1.0 / 61.5 + 1.0 / 30.0))
        assert np.all(back.elev_rates == 0.0)

    def test_elevation_scale(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0, 1.0, DedmParams(0.5, 0.01, 0.001), r_pos_deg=ANGLE_GRID_ELEV_R
        )
        value = pair(model, mk_geom(theta=20.0), mk_geom(theta=40.0), "elev_only")
        assert value == pytest.approx(math.exp(-20.0 / 39.2), rel=1e-15)
        assert value == pytest.approx(0.600373, abs=5e-6)

    def test_capped_kernel_is_exactly_one(self):
        for q in (Q_CAP_DEG, 2.0 * Q_CAP_DEG, math.inf):
            model = CorrelationModel.with_uniform_kernels(
                0.0, 1.0, DedmParams(0.5, 0.01, 0.001), q_pos_deg=q, r_pos_deg=q
            )
            assert np.all(model.tilt_rates == 0.0)
            assert np.all(model.elev_rates == 0.0)
        model = CorrelationModel.with_uniform_kernels(
            0.0, 1.0, DedmParams(0.5, 0.01, 0.001),
            q_pos_deg=Q_CAP_DEG, r_pos_deg=2.0 * Q_CAP_DEG,
        )
        geoms = edge_case_geoms(60, seed=39)
        base = kernel_correlation(model, geoms, mode="baseline")
        for mode in MODES:
            assert np.array_equal(kernel_correlation(model, geoms, mode=mode), base)
            assert np.array_equal(
                kernel_correlation(model, geoms[:20], geoms[20:], mode=mode),
                base[:20, 20:],
            )

    def test_huge_uncapped_constant_is_near_one(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0, 1.0, DedmParams(0.5, 0.01, 0.001), q_pos_deg=999999.0
        )
        value = pair(model, mk_geom(delta=0.0), mk_geom(delta=0.1), "tilt_only")
        assert 0.9999998 <= value < 1.0

    def test_vector_eval(self):
        rate = 0.5 * (1.0 / 15.0 + 1.0 / 5.0)
        model = CorrelationModel(
            0.0, 1.0, DedmParams(0.5, 0.01, 0.001), tilt_rates=np.full((5, 4), rate)
        )
        others = [mk_geom(delta=d) for d in (0.0, -2.0, 8.0)]
        out = kernel_correlation(model, [mk_geom(delta=0.0)], others, mode="tilt_only")
        assert np.allclose(
            out[0], [1.0, math.exp(-2.0 * rate), math.exp(-8.0 * rate)], atol=1e-15
        )

    def test_validation(self):
        dedm = DedmParams(0.5, 0.01, 0.001)
        for q in (0.0, -2.0, math.nan):
            with pytest.raises(ValidationError, match="decay constants must be positive"):
                CorrelationModel.with_uniform_kernels(0.0, 1.0, dedm, q_pos_deg=q)
            with pytest.raises(ValidationError, match="decay constants must be positive"):
                CorrelationModel.with_uniform_kernels(0.0, 1.0, dedm, r_pos_deg=q)
        for rate in (-0.1, math.nan, math.inf):
            table = np.zeros((4, 5))
            table[1, 2] = rate
            with pytest.raises(ValidationError, match="elev_rates must be finite"):
                CorrelationModel(0.0, 1.0, dedm, elev_rates=table)


def cell_coded_model():
    """Model whose decay rates encode their own (ref, cond) cell: each is
    :func:`cell_rate` of two scales computed from the cell's indices."""
    bins = AngleBins()
    tilt = [
        [cell_rate(10.0 + t + 5.0 * e, 5.0 + t + 2.0 * e) for e in range(bins.n_elev)]
        for t in range(bins.n_tilt)
    ]
    elev = [
        [cell_rate(20.0 + 3.0 * e + t, 8.0 + e + t) for t in range(bins.n_tilt)]
        for e in range(bins.n_elev)
    ]
    return CorrelationModel(
        mu=0.0,
        sigma2=4.0,
        dedm=DedmParams(0.5, 0.01, 0.001),
        bins=bins,
        tilt_rates=tilt,
        elev_rates=elev,
    )


def cell_rate(q_pos, q_neg):
    return 0.5 * (1.0 / q_pos + 1.0 / q_neg)


class TestModelEvaluation:
    def test_tilt_warp_hand_values(self):
        model = cell_coded_model()
        # theta=20 -> elevation bin 1, so tilt bin t has q+ = 15 + t, q- = 7 + t.
        rate = {t: cell_rate(15.0 + t, 7.0 + t) for t in range(5)}

        def at(delta, theta=20.0):
            return mk_geom(theta=theta, delta=delta)

        # 0 -> 2 stays inside the (-3, 3] bin.
        assert pair(model, at(0.0), at(2.0), "tilt_only") == pytest.approx(
            math.exp(-2.0 * rate[2]), rel=1e-14
        )
        # -5 -> 5 crosses (-7, -3], (-3, 3] and (3, 7].
        expect = 2.0 * rate[1] + 6.0 * rate[2] + 2.0 * rate[3]
        assert pair(model, at(-5.0), at(5.0), "tilt_only") == pytest.approx(
            math.exp(-expect), rel=1e-14
        )
        # Equal tilt 5 in elevation bins 1 and 2 (q+ = 20 + t, q- = 9 + t
        # there): the warps differ, so the pair is separated.
        u1 = 3.0 * rate[2] + 2.0 * rate[3]
        u2 = 3.0 * cell_rate(22.0, 11.0) + 2.0 * cell_rate(23.0, 12.0)
        assert pair(model, at(5.0), at(5.0, theta=40.0), "tilt_only") == pytest.approx(
            math.exp(-abs(u1 - u2)), rel=1e-14
        )
        assert pair(model, at(0.0), at(0.0, theta=40.0), "tilt_only") == 1.0

    def test_elev_warp_hand_values(self):
        model = cell_coded_model()
        # delta=0 -> tilt bin 2, so elevation bin e has r+ = 22 + 3e, r- = 10 + e.
        rate = {e: cell_rate(22.0 + 3.0 * e, 10.0 + e) for e in range(4)}

        def at(theta):
            return mk_geom(theta=theta, delta=0.0)

        # 20 -> 25 stays inside the (10, 30] bin.
        assert pair(model, at(20.0), at(25.0), "elev_only") == pytest.approx(
            math.exp(-5.0 * rate[1]), rel=1e-14
        )
        # 5 -> 45 crosses (0, 10], (10, 30] and (30, 50].
        expect = 5.0 * rate[0] + 20.0 * rate[1] + 15.0 * rate[2]
        assert pair(model, at(5.0), at(45.0), "elev_only") == pytest.approx(
            math.exp(-expect), rel=1e-14
        )

    def test_full_correlation_is_symmetric(self):
        model = cell_coded_model()
        gi = mk_geom(10.0, -40.0, theta=15.0, delta=4.0)
        gj = mk_geom(-60.0, 25.0, theta=55.0, delta=-8.0)
        for mode in ("baseline", "angle_aware", "tilt_only", "elev_only"):
            assert pair(model, gi, gj, mode) == pair(model, gj, gi, mode)

    def test_mode_factorization(self):
        model = cell_coded_model()
        gi = mk_geom(0.0, -30.0, theta=25.0, delta=1.0)
        gj = mk_geom(50.0, 10.0, theta=42.0, delta=9.0)
        r_d = pair(model, gi, gj, "baseline")
        tilt = pair(model, gi, gj, "tilt_only")
        elev = pair(model, gi, gj, "elev_only")
        full = pair(model, gi, gj, "angle_aware")
        assert tilt * elev == pytest.approx(r_d * full, abs=1e-12)

    def test_matrix_matches_pairwise_eval(self):
        model = cell_coded_model()
        rng = np.random.default_rng(8)
        geoms = [
            mk_geom(
                rng.uniform(-200, 200),
                rng.uniform(-200, 200),
                theta=rng.uniform(1.0, 89.0),
                delta=rng.uniform(-15.0, 15.0),
            )
            for _ in range(12)
        ]
        for mode in ("baseline", "angle_aware", "tilt_only", "elev_only"):
            mat = kernel_correlation(model, geoms, mode=mode)
            for i, gi in enumerate(geoms):
                for j, gj in enumerate(geoms):
                    expect = oracle_correlation(model, gi, gj, mode)
                    assert abs(mat[i, j] - expect) <= 1e-12

    def test_matrix_diagonal_is_one(self):
        model = cell_coded_model()
        geoms = [mk_geom(e, 2 * e, theta=30.0, delta=5.0) for e in range(5)]
        mat = kernel_correlation(model, geoms, mode="angle_aware")
        assert np.all(np.diagonal(mat) == 1.0)

    def test_flat_kernels_reduce_to_distance_only(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0, 4.0, DedmParams(0.5, 0.01, 0.001)
        )
        rng = np.random.default_rng(9)
        geoms = [
            mk_geom(
                rng.uniform(-300, 300),
                rng.uniform(-300, 300),
                theta=rng.uniform(1.0, 89.0),
                delta=rng.uniform(-20.0, 20.0),
            )
            for _ in range(20)
        ]
        base = kernel_correlation(model, geoms, mode="baseline")
        for mode in ("angle_aware", "tilt_only", "elev_only"):
            assert np.array_equal(kernel_correlation(model, geoms, mode=mode), base)

    def test_absent_cells_fall_back_to_flat(self):
        model = CorrelationModel(mu=0.0, sigma2=4.0, dedm=DedmParams(0.5, 0.01, 0.001))
        assert np.all(model.tilt_rates == 0.0) and np.all(model.elev_rates == 0.0)
        gi = mk_geom(0.0, 0.0, theta=20.0, delta=-5.0)
        gj = mk_geom(30.0, 40.0, theta=60.0, delta=8.0)
        assert pair(model, gi, gj, "angle_aware") == dedm_eval(model.dedm, 50.0)

    def test_rectangular_matrix(self):
        model = cell_coded_model()
        ga = [mk_geom(0.0, 0.0, theta=10.0, delta=0.0)]
        gb = [
            mk_geom(20.0, 0.0, theta=25.0, delta=5.0),
            mk_geom(0.0, 90.0, theta=70.0, delta=-9.0),
        ]
        mat = kernel_correlation(model, ga, gb, mode="angle_aware")
        assert mat.shape == (1, 2)
        for j in range(2):
            assert abs(mat[0, j] - oracle_correlation(model, ga[0], gb[j])) <= 1e-12

    def test_unknown_mode(self):
        model = cell_coded_model()
        with pytest.raises(ValidationError):
            kernel_correlation(model, [mk_geom()], [mk_geom(1.0)], mode="spatial")

    def test_kernel_key_out_of_range(self):
        # The tables must cover exactly the (tilt, elevation) bin grid.
        for shape in ((8, 4), (4, 5), (5,)):
            with pytest.raises(ValidationError, match="tilt_rates must have shape"):
                CorrelationModel(
                    mu=0.0,
                    sigma2=1.0,
                    dedm=DedmParams(0.5, 0.1, 0.01),
                    tilt_rates=np.full(shape, 0.1),
                )


def edge_case_model():
    """Cell-coded model with absent, capped and infinite kernel scales,
    each converted to its rate (0 for absent cells and capped scales)."""
    base = cell_coded_model()
    tilt = base.tilt_rates.copy()
    elev = base.elev_rates.copy()
    tilt[0, 0] = oracle_rate(None)
    tilt[2, 1] = oracle_rate({"q_pos": Q_CAP_DEG, "q_neg": 7.0})
    tilt[3, 2] = oracle_rate({"q_pos": "inf", "q_neg": 4.0})
    tilt[4, 3] = oracle_rate({"q_pos": 2.0 * Q_CAP_DEG, "q_neg": "inf"})
    elev[1, 2] = oracle_rate(None)
    elev[2, 3] = oracle_rate({"q_pos": 6.0, "q_neg": Q_CAP_DEG})
    elev[0, 4] = oracle_rate({"q_pos": "inf", "q_neg": 3.0})
    return CorrelationModel(
        mu=base.mu, sigma2=base.sigma2, dedm=base.dedm, bins=base.bins,
        tilt_rates=tilt, elev_rates=elev,
    )


def edge_case_geoms(n, seed):
    """Random links; a third sit exactly on a bin edge, so angles repeat."""
    rng = np.random.default_rng(seed)
    edge_theta = (10.0, 30.0, 50.0, 90.0)
    edge_delta = (-7.0, -3.0, 3.0, 7.0)
    geoms = []
    for _ in range(n):
        if rng.uniform() < 1.0 / 3.0:
            theta, delta = rng.choice(edge_theta), rng.choice(edge_delta)
        else:
            theta, delta = rng.uniform(0.5, 90.0), rng.uniform(-15.0, 15.0)
        geoms.append(
            mk_geom(
                rng.uniform(-300.0, 300.0),
                rng.uniform(-300.0, 300.0),
                theta=float(theta),
                delta=float(delta),
            )
        )
    return geoms


def block_edge_indices(n, seed, width=None):
    """Both ends of ``range(n)`` and random indices, plus, given an output
    ``width`` columns wide, both sides of every edge between its tiles of
    whole rows."""
    edges = {0, n - 1}
    if width is not None:
        b = max(1, CORRELATION_TILE_ENTRIES // width)
        for start in range(b, n, b):
            edges.update((start - 1, start))
    rng = np.random.default_rng(seed)
    edges.update(rng.choice(n, size=8, replace=False).tolist())
    return sorted(edges)


class TestCorrelationKernel:
    """The blocked matrix kernel against the scalar pairwise oracle."""

    @pytest.mark.parametrize("mode", MODES)
    def test_square_matches_oracle(self, mode):
        model = edge_case_model()
        geoms = edge_case_geoms(700, seed=31)
        mat = kernel_correlation(model, geoms, mode=mode)
        assert mat.shape == (700, 700)
        # Nothing mirrors it: every entry is computed on its own from its
        # two points, and each step is symmetric in them.
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diagonal(mat) == 1.0)
        idx = block_edge_indices(700, seed=32, width=700)
        for i in idx:
            for j in idx:
                expect = oracle_correlation(model, geoms[i], geoms[j], mode)
                assert abs(mat[i, j] - expect) <= 1e-12

    @pytest.mark.parametrize("mode", MODES)
    def test_rectangular_matches_oracle(self, mode):
        model = edge_case_model()
        ga = edge_case_geoms(700, seed=33)
        gb = edge_case_geoms(333, seed=34)
        mat = kernel_correlation(model, ga, gb, mode=mode)
        assert mat.shape == (700, 333)
        for i in block_edge_indices(700, seed=35, width=333):
            for j in block_edge_indices(333, seed=36):
                expect = oracle_correlation(model, ga[i], gb[j], mode)
                assert abs(mat[i, j] - expect) <= 1e-12

    def test_memory_is_the_output_plus_tiles(self):
        # Two tile buffers of 32K entries (10 whole rows here) are 0.5 MB;
        # a temporary of 128 whole rows (3 MB here) would break the bound.
        n = 3000
        model = edge_case_model()
        geoms = Geometry.of(edge_case_geoms(n, seed=39))
        tracemalloc.start()
        try:
            kernel_correlation(model, geoms)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + 2 * 2**20

    def test_rectangular_block_of_square(self):
        model = edge_case_model()
        geoms = edge_case_geoms(300, seed=37)
        full = kernel_correlation(model, geoms)
        part = kernel_correlation(model, geoms, geoms[100:250])
        assert np.array_equal(part, full[:, 100:250])

    @pytest.mark.parametrize("mode", ["angle_aware", "tilt_only", "elev_only"])
    def test_out_of_range_angles_rejected_on_either_side(self, mode):
        model = edge_case_model()
        good = edge_case_geoms(5, seed=38)
        for bad in (mk_geom(theta=0.0), mk_geom(theta=91.0), mk_geom(delta=math.nan)):
            with pytest.raises(ValidationError):
                kernel_correlation(model, good + [bad], mode=mode)
            with pytest.raises(ValidationError):
                kernel_correlation(model, good, [bad], mode=mode)
            with pytest.raises(ValidationError):
                kernel_correlation(model, [bad], good, mode=mode)


class TestCovariance:
    """The one covariance source: each block it builds against the scalar
    oracle and against the same slice of its whole matrix, at slices
    across the solve's 96-row tiles and across multiples of 256, some
    meeting the diagonal only in part."""

    SLICES = [
        (slice(90, 200), slice(50, 150)),
        (slice(0, 96), slice(0, 96)),
        (slice(96, 192), slice(0, 192)),
        (slice(250, 300), slice(200, 270)),
        (slice(5, 6), slice(None)),
        (slice(None), slice(255, 257)),
        (slice(None), slice(None)),
    ]

    @staticmethod
    def probes(part, n):
        """Indices of ``range(n)[part]`` to check against the oracle: both
        ends and both sides of every tile edge inside it."""
        lo, hi, _ = part.indices(n)
        cuts = {lo, hi - 1}
        for tile in (96, 256):
            for edge in range(tile, n, tile):
                cuts.update(i for i in (edge - 1, edge) if lo <= i < hi)
        return sorted(cuts)

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_blocks_match_the_oracle_and_the_whole_matrix(self, mode, cross):
        full = dataclasses.replace(edge_case_model(), nugget=0.25)
        model = full.restricted(mode)
        ga = edge_case_geoms(300, seed=49)
        gb = edge_case_geoms(280, seed=50) if cross else ga
        a = KernelPoints.of(model, ga)
        cov = Covariance(model, a, KernelPoints.of(model, gb)) if cross else Covariance(model, a)
        whole = cov[:, :]
        assert cov.shape == whole.shape == (300, len(gb))
        for rows, cols in self.SLICES:
            block = cov[rows, cols]
            assert np.array_equal(block, whole[rows, cols])
            r0, r1, _ = rows.indices(len(ga))
            c0, c1, _ = cols.indices(len(gb))
            probes = [(i, j) for i in self.probes(rows, len(ga)) for j in self.probes(cols, len(gb))]
            diagonal = [(i, i) for i in range(max(r0, c0), min(r1, c1))]
            for i, j in probes + diagonal:
                expect = model.sigma2 * oracle_correlation(full, ga[i], gb[j], mode)
                if i == j and not cross:
                    expect += model.nugget
                assert abs(block[i - r0, j - c0] - expect) <= 1e-12 * abs(expect), (i, j)


class TestKernelPoints:
    """A mode is a restricted model: a row set becomes
    :class:`KernelPoints` of it once, and the matrices take points only."""

    WIDTH = {"baseline": 0, "tilt_only": 1, "elev_only": 1, "angle_aware": 2}

    @pytest.mark.parametrize("mode", MODES)
    def test_point_slices_are_the_points_of_geometry_slices(self, mode):
        model = edge_case_model().restricted(mode)
        geoms = Geometry.of(edge_case_geoms(300, seed=42))
        points = KernelPoints.of(model, geoms)
        assert points.warped.shape == (300, self.WIDTH[mode])
        for j0, j1 in [(0, 128), (128, 256), (256, 300), (5, 6)]:
            part = KernelPoints.of(model, geoms[j0:j1])
            for name in ("east_m", "north_m", "warped"):
                assert np.array_equal(getattr(points[j0:j1], name), getattr(part, name))

    def test_points_are_not_made_points_again(self):
        model = edge_case_model()
        points = KernelPoints.of(model, edge_case_geoms(5, seed=43))
        with pytest.raises(TypeError):
            KernelPoints.of(model.restricted("baseline"), points)

    def test_sides_of_different_widths_are_rejected(self):
        """Each side's width must be the angle count of the model the
        matrix is built with; tilt_only and elev_only (both width 1) pass."""
        full = edge_case_model()
        geoms = edge_case_geoms(20, seed=44)
        models = {mode: full.restricted(mode) for mode in MODES}
        points = {mode: KernelPoints.of(models[mode], geoms) for mode in MODES}
        for ma in MODES:
            for mb in MODES:
                model = models[mb]
                for sides in ((points[ma],), (points[ma], points[mb]), (points[mb], points[ma])):
                    if self.WIDTH[ma] == self.WIDTH[mb]:
                        assert correlation_matrix(model, *sides).shape == (20, 20)
                        assert Covariance(model, *sides)[:, :].shape == (20, 20)
                        continue
                    with pytest.raises(ValidationError, match="another restriction"):
                        correlation_matrix(model, *sides)
                    with pytest.raises(ValidationError, match="another restriction"):
                        Covariance(model, *sides)[:, :]

    def test_geometries_are_not_points(self):
        model = edge_case_model()
        geoms = edge_case_geoms(5, seed=45)
        for rows in (geoms, Geometry.of(geoms)):
            with pytest.raises(AttributeError):
                correlation_matrix(model, rows)

    def test_baseline_points_accept_any_angle(self):
        model = edge_case_model()
        baseline = model.restricted("baseline")
        geoms = [mk_geom(theta=0.0), mk_geom(east=5.0, theta=0.0, delta=math.nan)]
        points = KernelPoints.of(baseline, geoms)
        assert points.warped.shape == (2, 0)
        assert np.array_equal(
            correlation_matrix(baseline, points),
            dedm_eval(model.dedm, np.array([[0.0, 5.0], [5.0, 0.0]])),
        )
        for mode in ("angle_aware", "tilt_only", "elev_only"):
            with pytest.raises(ValidationError):
                KernelPoints.of(model.restricted(mode), geoms)

    def test_flat_full_model_still_checks_angles(self):
        """All-zero tables used whole warp to zero, yet both angles are
        checked, as in every angular mode."""
        model = CorrelationModel.with_uniform_kernels(
            0.0, 9.0, DedmParams(0.6, 0.01, 0.001), nugget=1e-4
        )
        assert not model.tilt_rates.any() and not model.elev_rates.any()
        good = edge_case_geoms(5, seed=46)
        training = [SfSample(g, sf_db=0.0, rsrp_dbm=0.0, pl_est_dbm=0.0) for g in good]
        for bad in (mk_geom(delta=math.nan), mk_geom(theta=0.0), mk_geom(theta=91.0)):
            with pytest.raises(ValidationError):
                KernelPoints.of(model, good + [bad])
            with pytest.raises(ValidationError):
                predict_sf_batch(training, [bad], model)
            with pytest.raises(ValidationError):
                sample_sf_field(good + [bad], model, 0)

    def test_restricted_rejects_unknown_mode(self):
        model = edge_case_model()
        with pytest.raises(ValidationError, match=re.escape(str(MODES))):
            model.restricted("psychic")

    def test_restriction_does_not_bring_tables_back(self):
        model = edge_case_model()
        geoms = edge_case_geoms(5, seed=47)
        for mode in MODES:
            again = model.restricted(mode).restricted("angle_aware")
            assert KernelPoints.of(again, geoms).warped.shape == (5, self.WIDTH[mode])

    def test_copies_keep_the_restriction(self):
        """A copy of a restricted model is restricted to the same mode: it
        warps and checks only the angles the mode uses."""
        model = edge_case_model()
        geoms = edge_case_geoms(5, seed=48)
        for mode in MODES:
            restricted = model.restricted(mode)
            copy = dataclasses.replace(restricted, nugget=0.5)
            assert copy.nugget == 0.5
            for name in ("tilt_rates", "elev_rates"):
                assert (getattr(copy, name) is None) == (getattr(restricted, name) is None)
            points = KernelPoints.of(copy, geoms)
            assert points.warped.shape == (5, self.WIDTH[mode])
            assert np.array_equal(
                correlation_matrix(copy, points),
                correlation_matrix(restricted, KernelPoints.of(restricted, geoms)),
            )
        copy = dataclasses.replace(model.restricted("baseline"), nugget=0.5)
        assert KernelPoints.of(copy, [mk_geom(theta=0.0)]).warped.shape == (1, 0)


class TestBalanceResample:
    def test_quantile_interpolation(self):
        a, b = balance_resample([0.0, 2.0], [5.0, 1.0, 9.0, 3.0])
        assert np.allclose(a, [0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0], atol=1e-15)
        assert b.tolist() == [1.0, 3.0, 5.0, 9.0]

    def test_singleton_expands_constant(self):
        a, b = balance_resample([4.0], [1.0, 2.0, 3.0])
        assert a.tolist() == [4.0, 4.0, 4.0]

    def test_equal_lengths_only_sorted(self):
        a, b = balance_resample([3.0, 1.0, 2.0], [6.0, 4.0, 5.0])
        assert a.tolist() == [1.0, 2.0, 3.0]
        assert b.tolist() == [4.0, 5.0, 6.0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            balance_resample([], [1.0])

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(3)
        short = rng.normal(size=17)
        a, _ = balance_resample(short, rng.normal(size=100))
        assert a[0] == short.min()
        assert a[-1] == short.max()


class TestEmpiricalCorrelation:
    def test_identical_vectors(self):
        w = np.sort(np.random.default_rng(0).normal(2.0, 1.0, 50))
        assert empirical_angular_correlation(w, w, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_deviations(self):
        assert empirical_angular_correlation([1.0], [-1.0], 0.0) == -1.0

    def test_pinned_mixed_case(self):
        value = empirical_angular_correlation([0.0, 1.0], [1.0, 1.0], 0.0)
        assert value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert value == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = np.sort(rng.normal(size=40))
        b = np.sort(rng.normal(size=40))
        base = empirical_angular_correlation(a, b, 0.25)
        scaled = empirical_angular_correlation(3.0 * a, 3.0 * b, 0.75)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            empirical_angular_correlation([2.0, 1.0], [1.0, 2.0], 0.0)

    def test_constant_at_mean_rejected(self):
        with pytest.raises(DegenerateCorrelationError):
            empirical_angular_correlation([1.0, 1.0], [0.0, 2.0], 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            empirical_angular_correlation([1.0], [1.0, 2.0], 0.0)


def profiles(samples, mu, min_count=DEFAULT_MIN_CELL_COUNT):
    """The (tilt, elevation) profiles over the default bins, as the fit
    computes them: the tilt profile correlates the cell grid's rows, the
    elevation profile its columns."""
    cells, _ = _bin_cells(samples, AngleBins())
    return (
        _estimate_profile(cells, mu, min_count),
        _estimate_profile(cells.T, mu, min_count),
    )


class TestAngularProfiles:
    def test_single_cell_dataset(self):
        rng = np.random.default_rng(1)
        samples = [mk_sf(w, theta=20.0, delta=0.0) for w in rng.normal(size=40)]
        profile, _ = profiles(samples, 0.0)
        assert profile.counts[1, 2] == 40
        assert profile.counts.sum() == 40
        assert profile.rho[1, 2, 2] == 1.0
        mask = np.zeros_like(profile.rho, dtype=bool)
        mask[1, 2, 2] = True
        assert np.all(np.isnan(profile.rho[~mask]))

    def test_disjoint_halves_of_one_population_correlate(self):
        rng = np.random.default_rng(55)
        pool = rng.normal(-1.0, 2.0, 10000)
        mu = float(pool.mean())
        samples = [mk_sf(w, theta=20.0, delta=-5.0) for w in pool[:5000]]
        samples += [mk_sf(w, theta=20.0, delta=5.0) for w in pool[5000:]]
        profile, _ = profiles(samples, mu)
        assert profile.rho[1, 1, 3] > 0.95
        assert profile.rho[1, 3, 1] == profile.rho[1, 1, 3]

    def test_elev_profile_transposed_layout(self):
        rng = np.random.default_rng(56)
        samples = [mk_sf(w, theta=20.0, delta=-5.0) for w in rng.normal(size=60)]
        samples += [mk_sf(w, theta=40.0, delta=-5.0) for w in rng.normal(size=60)]
        _, profile = profiles(samples, 0.0)
        # Conditioning axis is the tilt bin (delta=-5 -> bin 1).
        assert profile.counts[1, 1] == 60
        assert profile.counts[1, 2] == 60
        assert np.isfinite(profile.rho[1, 1, 2])
        assert np.all(profile.counts[[0, 2, 3, 4], :] == 0)

    def test_min_count_exclusion(self):
        rng = np.random.default_rng(57)
        samples = [mk_sf(w, theta=20.0, delta=0.0) for w in rng.normal(size=50)]
        samples += [mk_sf(w, theta=20.0, delta=5.0) for w in rng.normal(size=29)]
        profile, _ = profiles(samples, 0.0, min_count=30)
        assert profile.counts[1, 3] == 29  # recorded ...
        assert np.isnan(profile.rho[1, 2, 3])  # ... but not correlated
        assert np.isnan(profile.rho[1, 3, 3])

    def test_out_of_range_samples_dropped(self):
        rng = np.random.default_rng(58)
        good = [mk_sf(w, theta=20.0, delta=0.0) for w in rng.normal(size=35)]
        bad = [mk_sf(0.0, theta=95.0, delta=0.0)]
        profile, _ = profiles(good + bad, 0.0)
        assert profile.counts.sum() == 35

    def test_angle_grid_recovery(self):
        rows, _truth = angle_grid_dataset()
        samples = decompose_all(rows)
        mu, _ = sf_statistics(samples)
        tilt, elev = profiles(samples, mu)
        t_mean = separation_mean(tilt.rho, DEFAULT_TILT_REPS, 10.0)
        e_mean = separation_mean(elev.rho, DEFAULT_ELEV_REPS, 20.0)
        # Truth kernels give 0.8499 at 10 deg tilt and 0.6004 at 20 deg
        # elevation separation; the sorted-pair estimator on this pinned
        # campaign lands at 0.874 and 0.590.
        assert 0.80 <= t_mean <= 0.90
        assert 0.55 <= e_mean <= 0.65


def oracle_fit_rate(rho, reps, cond, ref):
    """Per-cell loop over one profile row: the rate 1/2 (r+ + r-) of the
    log-domain fits toward larger and smaller representatives, or None
    when the row has no points."""
    # np.log, as the fit uses: math.log may differ in the last digit.
    log_rho = np.log(np.clip(rho[cond, ref], RHO_FLOOR, 1.0))
    rates = {}
    for toward_larger in (True, False):
        s_sum = log_sum = 0.0
        for other in range(len(reps)):
            value = rho[cond, ref, other]
            if other == ref or not math.isfinite(value):
                continue
            if (reps[other] > reps[ref]) != toward_larger:
                continue
            s = abs(reps[other] - reps[ref])
            s_sum += s * s
            log_sum += s * float(log_rho[other])
        if s_sum > 0.0:
            q = min(s_sum / -log_sum, Q_CAP_DEG) if -log_sum > 0.0 else Q_CAP_DEG
            rates[toward_larger] = 0.0 if q >= Q_CAP_DEG else 1.0 / q
    if not rates:
        return None
    pos = rates.get(True, rates.get(False))
    neg = rates.get(False, pos)
    return 0.5 * (pos + neg)


def fit_cell(points):
    """Rate fitted to one reference bin at 0 deg whose profile row holds
    ``points``, (signed separation, rho) pairs; positive separations lie
    toward larger angles."""
    reps = sorted([0.0] + [sep for sep, _ in points])
    ref = reps.index(0.0)
    rho = np.full((1, len(reps), len(reps)), np.nan)
    for sep, value in points:
        rho[0, ref, reps.index(sep)] = value
    rates = _fit_rates(rho, reps, "tilt", [])
    # The other reference rows have no points.
    assert np.all(np.delete(rates, ref, axis=0) == 0.0)
    return rates[ref, 0]


class TestKernelFit:
    def test_recovers_exact_exponential(self):
        pos = [(s, math.exp(-s / 30.0)) for s in (5.0, 10.0, 15.0)]
        neg = [(-s, math.exp(-s / 12.0)) for s in (5.0, 10.0, 15.0)]
        assert 1.0 / fit_cell(pos) == pytest.approx(30.0, abs=1e-9)
        assert 1.0 / fit_cell(neg) == pytest.approx(12.0, abs=1e-9)
        assert fit_cell(pos + neg) == 0.5 * (fit_cell(pos) + fit_cell(neg))

    def test_all_unit_correlations_hit_cap(self):
        assert fit_cell([(5.0, 1.0), (-10.0, 1.0)]) == 0.0

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n_cond, n_ref = int(rng.integers(1, 5)), int(rng.integers(2, 8))
            reps = sorted(rng.choice(np.arange(-40.0, 40.0), n_ref, replace=False))
            rho = rng.uniform(-0.3, 1.2, (n_cond, n_ref, n_ref))
            rho[rng.uniform(size=rho.shape) < 0.4] = np.nan
            rho[rng.uniform(size=rho.shape) < 0.1] = 1.0
            rates = _fit_rates(rho, reps, "tilt", [])
            assert rates.shape == (n_ref, n_cond)
            for cond in range(n_cond):
                for ref in range(n_ref):
                    expect = oracle_fit_rate(rho, reps, cond, ref)
                    assert rates[ref, cond] == (0.0 if expect is None else expect)

    def test_one_sided_data_inherits(self):
        # The empty direction takes the fitted one's rate, so the cell's
        # rate is 1/q and not 1/(2q).
        assert 1.0 / fit_cell([(10.0, math.exp(-1.0))]) == pytest.approx(10.0, abs=1e-9)

    def test_floor_clamps_tiny_correlations(self):
        assert 1.0 / fit_cell([(10.0, 1.0e-6)]) == pytest.approx(
            10.0 / (-math.log(1.0e-3)), rel=1e-12
        )

    def test_negative_correlations_clamped_at_floor(self):
        assert 1.0 / fit_cell([(10.0, -0.4)]) == pytest.approx(
            10.0 / (-math.log(1.0e-3)), rel=1e-12
        )

    def test_validation(self):
        # Equal representatives of two populated bins: a zero separation.
        rho = np.array([[[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]]])
        with pytest.raises(ValidationError, match="representatives"):
            _fit_rates(rho, (0.0, 3.0, 3.0), "tilt", [])
        # Without profile points every rate is 0, and each bin is named.
        warnings = []
        rates = _fit_rates(
            np.full((2, 3, 3), np.nan), (-5.0, 0.0, 5.0), "tilt", warnings
        )
        assert np.array_equal(rates, np.zeros((3, 2)))
        assert warnings == [
            f"tilt: conditioning bin {c} reference bins [0, 1, 2] have no usable"
            " pairs; kernels left absent"
            for c in (0, 1)
        ]


def oracle_correlogram(east, north, w, mu, sigma2, max_lag, n_lags):
    """Correlogram bins as one bincount per 512-row chunk over the chunk's
    pairs in row-major order, added to the totals chunk by chunk."""
    n = east.size
    i, j = np.triu_indices(n, 1)
    dx, dy = east[i] - east[j], north[i] - north[j]
    d = np.sqrt(dx * dx + dy * dy)
    prod = (w[i] - mu) * (w[j] - mu)
    bins = np.minimum((d / (max_lag / n_lags)).astype(np.int64), n_lags - 1)
    sums = np.zeros((2, n_lags))
    counts = np.zeros(n_lags, dtype=np.int64)
    for i0 in range(0, n, 512):
        kept = (i >= i0) & (i < i0 + 512) & (d < max_lag)
        sums[0] += np.bincount(bins[kept], weights=prod[kept], minlength=n_lags)
        sums[1] += np.bincount(bins[kept], weights=d[kept], minlength=n_lags)
        counts += np.bincount(bins[kept], minlength=n_lags)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(counts > 0, sums[0] / np.maximum(counts, 1) / sigma2, np.nan)
        lag = np.where(counts > 0, sums[1] / np.maximum(counts, 1), np.nan)
    return counts, rho, lag


class TestCorrelogram:
    def hand_samples(self):
        east = [0.0, 5.0, 12.0, 28.0]
        w = [2.0, -1.0, 3.0, 0.0]
        return [mk_sf(wi, east=e) for e, wi in zip(east, w)]

    def test_hand_computed_bins(self):
        gram = empirical_correlogram(
            self.hand_samples(), mu=1.0, sigma2=4.0, max_lag_m=30.0, n_lags=3
        )
        assert gram.counts.tolist() == [2, 2, 2]
        assert gram.rho.tolist() == [-0.75, 0.0, 0.125]
        assert gram.lag_m.tolist() == [6.0, 14.0, 25.5]

    def test_pairs_at_max_lag_excluded(self):
        samples = self.hand_samples() + [mk_sf(1.0, east=500.0)]
        gram = empirical_correlogram(samples, 1.0, 4.0, 30.0, 3)
        assert gram.counts.sum() == 6  # the faraway point pairs with nobody

    def test_empty_bins_reported(self):
        samples = [mk_sf(w, east=e) for e, w in ((0.0, 1.0), (2.0, -1.0), (3.0, 0.5))]
        with pytest.raises(InsufficientCoverageError) as err:
            empirical_correlogram(samples, 0.0, 1.0, 40.0, 4)
        assert err.value.missing == [1, 2, 3]

    def test_chunked_equals_brute_force(self):
        rng = np.random.default_rng(21)
        n = 600  # crosses the internal chunk boundary
        east = rng.uniform(-150.0, 150.0, n)
        north = rng.uniform(-150.0, 150.0, n)
        w = rng.normal(0.0, 2.0, n)
        samples = [
            mk_sf(w[i], east=float(east[i]), north=float(north[i])) for i in range(n)
        ]
        mu, sigma2, max_lag, n_lags = 0.3, 4.0, 200.0, 10
        gram = empirical_correlogram(samples, mu, sigma2, max_lag, n_lags)

        dx = east[:, None] - east[None, :]
        dy = north[:, None] - north[None, :]
        dist = np.sqrt(dx * dx + dy * dy)
        iu = np.triu_indices(n, 1)
        d = dist[iu]
        prod = np.outer(w - mu, w - mu)[iu]
        keep = d < max_lag
        idx = np.minimum((d[keep] / (max_lag / n_lags)).astype(int), n_lags - 1)
        counts = np.bincount(idx, minlength=n_lags)
        rho = np.bincount(idx, weights=prod[keep], minlength=n_lags) / counts / sigma2
        lag = np.bincount(idx, weights=d[keep], minlength=n_lags) / counts

        assert gram.counts.tolist() == counts.tolist()
        assert np.allclose(gram.rho, rho, atol=1e-12)
        assert np.allclose(gram.lag_m, lag, atol=1e-12)

    @pytest.mark.parametrize("block_pairs", [1, 700, 2**14])
    @pytest.mark.parametrize("n", [2, 3, 511, 512, 513, 1100])
    def test_matches_per_chunk_bincount(self, n, block_pairs, monkeypatch):
        # Integer positions put many pairs at d = 0, on lag edges and at
        # exactly max_lag; every third row is off the grid.
        rng = np.random.default_rng(n)
        east = rng.integers(0, 30, n).astype(float)
        north = rng.integers(0, 30, n).astype(float)
        east[::3] += rng.uniform(0.0, 1.0, east[::3].size)
        w = rng.normal(0.0, 2.0, n)
        mu, sigma2, max_lag, n_lags = 0.3, 4.0, 20.0, 8
        monkeypatch.setattr(
            "skyfade.correlation.CORRELOGRAM_BLOCK_PAIRS", block_pairs
        )
        monkeypatch.setattr("skyfade.correlation.EMPTY_LAG_TOL", 1.0)
        gram = empirical_correlogram(
            sf_columns(east, north, w), mu, sigma2, max_lag, n_lags
        )
        counts, rho, lag = oracle_correlogram(
            east, north, w, mu, sigma2, max_lag, n_lags
        )
        assert np.array_equal(gram.counts, counts)
        assert np.array_equal(gram.rho, rho, equal_nan=True)
        assert np.array_equal(gram.lag_m, lag, equal_nan=True)

    def test_pair_pass_memory_is_linear(self):
        n = 6000
        rng = np.random.default_rng(8)
        table = sf_columns(
            rng.uniform(-300.0, 300.0, n),
            rng.uniform(-300.0, 300.0, n),
            rng.normal(0.0, 3.0, n),
        )
        tracemalloc.start()
        try:
            empirical_correlogram(table, 0.0, 9.0, 300.0 * math.sqrt(2.0), 24)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 512 * n * 8

    def test_validation(self):
        samples = self.hand_samples()
        for max_lag in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"max lag, got {max_lag}"):
                empirical_correlogram(samples, 0.0, 1.0, max_lag, 3)
        with pytest.raises(ValidationError):
            empirical_correlogram(samples, 0.0, 1.0, 30.0, 0)
        with pytest.raises(DegenerateCorrelationError):
            empirical_correlogram(samples, 0.0, 0.0, 30.0, 3)
        with pytest.raises(ValidationError):
            empirical_correlogram(samples[:1], 0.0, 1.0, 30.0, 3)


class TestDistanceDecayFit:
    def test_two_rate_truth_recovered(self):
        samples = dedm_recovery_sf()
        fitted = _fit_distance(samples, DEDM_RECOVERY_MAX_LAG, DEDM_RECOVERY_N_LAGS)[3]
        assert fitted.p1 >= fitted.p2
        grid = np.linspace(0.0, DEDM_RECOVERY_MAX_LAG, 451)
        dev = np.max(
            np.abs(dedm_eval(fitted, grid) - dedm_eval(DEDM_RECOVERY_TRUTH, grid))
        )
        assert dev < 0.05  # pinned campaign: 0.023

    def test_single_rate_truth_recovered_as_curve(self):
        samples = single_exp_sf()
        fitted = _fit_distance(samples, SINGLE_EXP_MAX_LAG, SINGLE_EXP_N_LAGS)[3]
        grid = np.linspace(0.0, SINGLE_EXP_MAX_LAG, 251)
        dev = np.max(
            np.abs(dedm_eval(fitted, grid) - np.exp(-SINGLE_EXP_RATE * grid))
        )
        # A mixture fit over a single-rate truth need not recover the triple,
        # only the curve; the pinned campaign lands within 0.001 of it.
        assert dev < 0.05

    def test_constant_sf_rejected(self):
        samples = [mk_sf(1.5, east=10.0 * i) for i in range(10)]
        with pytest.raises(DegenerateCorrelationError):
            _fit_distance(samples, None, 24)

    def test_no_extent_rejected(self):
        rng = np.random.default_rng(2)
        samples = [mk_sf(w) for w in rng.normal(size=10)]
        with pytest.raises(ValidationError):
            _fit_distance(samples, None, 24)

    def test_too_few_lags_rejected(self):
        rng = np.random.default_rng(2)
        samples = [mk_sf(w, east=5.0 * i) for i, w in enumerate(rng.normal(size=20))]
        with pytest.raises(ValidationError):
            _fit_distance(samples, 50.0, 2)


def half_diagonal(samples):
    """The fit's default max lag: half the bounding-box diagonal."""
    g = SfTable.of(samples).geometry
    return 0.5 * math.hypot(np.ptp(g.east_m), np.ptp(g.north_m))


@pytest.fixture(scope="module")
def gap_fit():
    samples = SfTable.of(gap_benchmark_sf())
    return samples, _fit_distance(samples, None, 24)


class TestDedmFit:
    """The numpy-only DEDM fit against scipy's least squares as oracle,
    and its stability on a fast rate that no lag resolves."""

    @pytest.mark.parametrize(
        "recipe, max_lag, n_lags",
        [
            (dedm_recovery_sf, DEDM_RECOVERY_MAX_LAG, DEDM_RECOVERY_N_LAGS),
            (single_exp_sf, SINGLE_EXP_MAX_LAG, SINGLE_EXP_N_LAGS),
        ],
    )
    def test_recipes_no_worse_than_trf(self, recipe, max_lag, n_lags):
        _, _, gram, fitted = _fit_distance(recipe(), max_lag, n_lags)
        mask = gram.counts > 0
        assert no_worse_than_trf(fitted, gram.lag_m[mask], gram.rho[mask], max_lag)

    def test_gap_flight_no_worse_than_trf(self, gap_fit):
        samples, (_, _, gram, fitted) = gap_fit
        mask = gram.counts > 0
        lags, rho = gram.lag_m[mask], gram.rho[mask]
        assert no_worse_than_trf(fitted, lags, rho, half_diagonal(samples))

    def test_unresolved_fast_rate_is_stable(self, gap_fit):
        # The gap flight's first lag lies far beyond the fast decay length,
        # so the fast rate is not identifiable and sits on its bound.
        # Last-bit noise on the SF must not move the weight, the slow rate,
        # the fitted curve or that bound.
        samples, (_, _, gram, base) = gap_fit
        noise = 1e-13 * np.random.default_rng(9).standard_normal(len(samples))
        noisy = dataclasses.replace(samples, sf_db=samples.sf_db + noise)
        fitted = _fit_distance(noisy, None, 24)[3]
        assert fitted.a == pytest.approx(base.a, rel=1e-6)
        assert fitted.p2 == pytest.approx(base.p2, rel=1e-6)
        lags = gram.lag_m[gram.counts > 0]
        assert np.max(np.abs(dedm_eval(fitted, lags) - dedm_eval(base, lags))) < 1e-9
        assert fitted.p1 == base.p1 == RATE_BOUNDS[1]

    def test_unresolved_lone_rate_is_stable(self):
        # White noise (the SF of test_single_elev_bin_warns_but_fits): the
        # fit is one exponential (a = 1) that is negligible at every lag,
        # so no lag resolves its rate.  Last-bit noise on the SF must not
        # move it, and the curve must not underflow to 0 within the max lag.
        rng = np.random.default_rng(60)
        east = rng.uniform(0.0, 400.0, 2000)
        samples = sf_columns(east, np.zeros(2000), rng.normal(0.0, 2.0, 2000))
        base = _fit_distance(samples, 300.0, 8)[3]
        for seed in range(4):
            noise = 1e-13 * np.random.default_rng(seed).standard_normal(len(samples))
            noisy = dataclasses.replace(samples, sf_db=samples.sf_db + noise)
            assert _fit_distance(noisy, 300.0, 8)[3] == base
        assert base.a == 1.0
        assert dedm_eval(base, 300.0) > 0.0


class TestModelFit:
    def test_fit_on_angle_grid(self):
        rows, _ = angle_grid_dataset(n=1200)
        samples = decompose_all(rows)
        fit = fit_correlation_model(samples, max_lag_m=200.0, n_lags=10)
        mu, sigma2 = sf_statistics(samples)
        assert fit.model.mu == mu
        assert fit.model.sigma2 == sigma2
        assert fit.model.nugget == pytest.approx(1e-6 * sigma2)
        assert np.any(fit.model.tilt_rates > 0.0)
        assert np.any(fit.model.elev_rates > 0.0)
        # The report artifacts cover the whole bin grid.
        assert fit.tilt_profile.rho.shape == (4, 5, 5)
        assert fit.elev_profile.rho.shape == (5, 4, 4)
        assert fit.correlogram.counts.sum() > 0

    def test_negative_min_count_rejected(self):
        """A negative floor used to fit the same model as 0."""
        rows, _ = angle_grid_dataset(n=300)
        samples = decompose_all(rows)
        with pytest.raises(ValidationError, match="min count must not be negative: -5"):
            fit_correlation_model(samples, max_lag_m=200.0, n_lags=10, min_count=-5)
        fit = fit_correlation_model(samples, max_lag_m=200.0, n_lags=10, min_count=0)
        assert fit.excluded_cells == []

    def test_single_elev_bin_warns_but_fits(self):
        rng = np.random.default_rng(60)
        east = rng.uniform(0.0, 400.0, 2000)
        w = rng.normal(0.0, 2.0, 2000)
        samples = [
            mk_sf(
                w[i],
                east=float(east[i]),
                theta=20.0 + float(rng.uniform(-1, 1)),
                delta=float(rng.uniform(-6, 6)),
            )
            for i in range(2000)
        ]
        fit = fit_correlation_model(samples, max_lag_m=300.0, n_lags=8)
        assert any("elevation" in msg for msg in fit.warnings)
        # Evaluation still works: absent cells fall back to the flat kernel.
        value = pair(fit.model, samples[0].geometry, samples[1].geometry)
        assert 0.0 < value <= 1.0

    def test_excluded_cells_reported(self):
        rng = np.random.default_rng(61)
        east = rng.uniform(0.0, 300.0, 400)
        samples = [
            mk_sf(float(rng.normal()), east=float(east[i]), theta=20.0, delta=0.0)
            for i in range(400)
        ]
        samples += [mk_sf(0.5, east=10.0, theta=40.0, delta=0.0)] * 5
        fit = fit_correlation_model(samples, max_lag_m=200.0, n_lags=8)
        assert {
            "elev_bin": 2,
            "tilt_bin": 2,
            "count": 5,
            "min_count": 30,
        } in fit.excluded_cells

    def test_out_of_bin_samples_counted_in_a_warning(self):
        rng = np.random.default_rng(62)
        east = rng.uniform(0.0, 300.0, 400)
        samples = [
            mk_sf(float(rng.normal()), east=float(east[i]), theta=20.0, delta=0.0)
            for i in range(400)
        ]
        fit = fit_correlation_model(samples, max_lag_m=200.0, n_lags=8)
        assert not any("outside the angle bins" in msg for msg in fit.warnings)
        samples.append(mk_sf(0.3, east=50.0, theta=95.0, delta=0.0))
        fit = fit_correlation_model(samples, max_lag_m=200.0, n_lags=8)
        dropped = [msg for msg in fit.warnings if "outside the angle bins" in msg]
        assert dropped == [
            "1 sample(s) outside the angle bins left out of the angular profiles"
        ]
        assert fit.tilt_profile.counts.sum() == 400


def reference_cells(samples, bins):
    """Per-sample binning loop: {(elev bin, tilt bin): SF list}, dropped."""
    cells, dropped = {}, 0
    g = samples.geometry
    for theta, delta, w in zip(g.theta_deg, g.delta_deg, samples.sf_db.tolist()):
        try:
            key = (
                int(bins.elev_indices([theta])[0]),
                int(bins.tilt_indices([delta])[0]),
            )
        except ValidationError:
            dropped += 1
            continue
        cells.setdefault(key, []).append(w)
    return cells, dropped


def reference_profiles(samples, bins, mu, min_count):
    """(tilt, elevation) profiles from the per-sample binning reference."""
    cells, _ = reference_cells(samples, bins)
    floor = max(min_count, 1)
    profiles = []
    for n_cond, n_ref, key in (
        (bins.n_elev, bins.n_tilt, lambda c, r: (c, r)),
        (bins.n_tilt, bins.n_elev, lambda c, r: (r, c)),
    ):
        counts = np.zeros((n_cond, n_ref), dtype=int)
        rho = np.full((n_cond, n_ref, n_ref), np.nan)
        for c in range(n_cond):
            for i in range(n_ref):
                counts[c, i] = len(cells.get(key(c, i), []))
        for c in range(n_cond):
            for i in range(n_ref):
                if counts[c, i] < floor:
                    continue
                rho[c, i, i] = 1.0
                for j in range(i + 1, n_ref):
                    if counts[c, j] < floor:
                        continue
                    wa, wb = balance_resample(cells[key(c, i)], cells[key(c, j)])
                    try:
                        value = empirical_angular_correlation(wa, wb, mu)
                    except DegenerateCorrelationError:
                        continue
                    rho[c, i, j] = rho[c, j, i] = value
        profiles.append((rho, counts))
    return profiles


class TestOnePassFit:
    """``fit_correlation_model`` equals its parts computed on their own."""

    @pytest.mark.parametrize("max_lag_m", [200.0, None])
    def test_equals_its_parts(self, max_lag_m):
        rows, _ = angle_grid_dataset(n=1200)
        table = decompose_all(rows)
        # Two copies of row 7, with an out-of-bin elevation and a non-finite
        # tilt: both are dropped.
        samples = table[np.r_[np.arange(len(table)), 7, 7]]
        samples.geometry.theta_deg[-2:] = (95.0, 20.0)
        samples.geometry.delta_deg[-2:] = (0.0, math.inf)
        samples.sf_db[-2:] = 1.25
        bins = AngleBins()
        fit = fit_correlation_model(samples, bins=bins, max_lag_m=max_lag_m, n_lags=10)

        mu, sigma2 = sf_statistics(samples)
        assert (fit.model.mu, fit.model.sigma2) == (mu, sigma2)
        if max_lag_m is None:
            east = samples.geometry.east_m.tolist()
            north = samples.geometry.north_m.tolist()
            max_lag_m = 0.5 * math.hypot(
                max(east) - min(east), max(north) - min(north)
            )
        gram = empirical_correlogram(samples, mu, sigma2, max_lag_m, 10)
        for got, want in (
            (fit.correlogram.lag_m, gram.lag_m),
            (fit.correlogram.rho, gram.rho),
            (fit.correlogram.counts, gram.counts),
        ):
            assert np.array_equal(got, want, equal_nan=True)

        cells, dropped = _bin_cells(samples, bins)
        ref_cells, ref_dropped = reference_cells(samples, bins)
        assert dropped == ref_dropped == 2
        for key, values in np.ndenumerate(cells):
            assert np.array_equal(values, ref_cells.get(key, []))  # sample order
        (tilt_rho, tilt_counts), (elev_rho, elev_counts) = reference_profiles(
            samples, bins, mu, DEFAULT_MIN_CELL_COUNT
        )
        assert tilt_counts.sum() == len(samples) - 2
        assert np.array_equal(fit.tilt_profile.counts, tilt_counts)
        assert np.array_equal(fit.tilt_profile.rho, tilt_rho, equal_nan=True)
        assert np.array_equal(fit.elev_profile.counts, elev_counts)
        assert np.array_equal(fit.elev_profile.rho, elev_rho, equal_nan=True)
        assert "2 sample(s) outside the angle bins" in fit.warnings[0]

    @pytest.mark.parametrize(
        "make, kwargs, error, message",
        [
            (lambda: [mk_sf(1.0, east=3.0)], {}, InsufficientDataError, "at least 2"),
            (
                lambda: [mk_sf(1.5, east=10.0 * i) for i in range(10)],
                {},
                DegenerateCorrelationError,
                "constant SF",
            ),
            (
                lambda: [mk_sf(0.1 * i) for i in range(10)],
                {},
                ValidationError,
                "no horizontal extent",
            ),
            (
                lambda: [mk_sf(0.1 * i, east=5.0 * i) for i in range(20)],
                {"max_lag_m": 50.0, "n_lags": 2},
                ValidationError,
                "at least 3 lags",
            ),
        ],
    )
    def test_degenerate_inputs_raise_typed_errors(self, make, kwargs, error, message):
        with pytest.raises(error, match=message):
            fit_correlation_model(make(), **kwargs)


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        model = cell_coded_model()
        doc = json.loads(json.dumps(serialize_model(model)))
        assert doc["version"] == 2
        back = deserialize_model(doc)
        assert back.mu == model.mu
        assert back.sigma2 == model.sigma2
        assert back.dedm == model.dedm
        assert back.bins == model.bins
        assert back.tilt_rates.tobytes() == model.tilt_rates.tobytes()
        assert back.elev_rates.tobytes() == model.elev_rates.tobytes()
        assert back.nugget == model.nugget

    def test_infinities_encoded_as_strings(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0, 1.0, DedmParams(0.5, 0.1, 0.01)
        )
        doc = serialize_model(model)
        assert doc["tilt_rates"][0][0] == 0.0
        assert doc["bins"]["tilt_edges"][0] == "-inf"
        back = deserialize_model(json.loads(json.dumps(doc)))
        assert back.bins.tilt_edges[0] == -math.inf
        # Version 1 wrote unbounded scales as "inf": no decay.
        cell = {"q_pos": "inf", "q_neg": "inf"}
        back = deserialize_model(as_version_1(model, cell, cell))
        assert np.all(back.tilt_rates == 0.0) and np.all(back.elev_rates == 0.0)

    def test_absent_cells_round_trip_as_null(self):
        model = cell_coded_model()
        back = deserialize_model(as_version_1(model, None, {"q_pos": 8.0, "q_neg": 2.0}))
        assert np.all(back.tilt_rates == 0.0)
        assert np.all(back.elev_rates == 0.5 * (1.0 / 8.0 + 1.0 / 2.0))
        doc = serialize_model(back)
        assert doc["tilt_rates"][2][1] == 0.0

    def test_version_1_fixture_loads_to_its_rates(self):
        doc = json.loads(MODEL_V1.read_text())
        assert doc["version"] == 1
        model = load_model(MODEL_V1)
        tables = {"tilt_kernels": model.tilt_rates, "elev_kernels": model.elev_rates}
        for key, table in tables.items():
            expect = np.array([[oracle_rate(cell) for cell in row] for row in doc[key]])
            assert table.tobytes() == expect.tobytes()
        # The file holds the edge-case model; written again it is version 2
        # and gives the identical correlation matrix.
        assert model.tilt_rates.tobytes() == edge_case_model().tilt_rates.tobytes()
        assert model.elev_rates.tobytes() == edge_case_model().elev_rates.tobytes()
        back = deserialize_model(json.loads(json.dumps(serialize_model(model))))
        geoms = edge_case_geoms(200, seed=41)
        for mode in MODES:
            assert np.array_equal(
                kernel_correlation(back, geoms, mode=mode),
                kernel_correlation(model, geoms, mode=mode),
            )

    @pytest.mark.parametrize(
        "mode, unused",
        [("baseline", "tilt_rates"), ("tilt_only", "elev_rates"), ("elev_only", "tilt_rates")],
    )
    def test_restricted_model_is_refused_naming_the_unused_table(self, mode, unused, tmp_path):
        model = cell_coded_model().restricted(mode)
        message = f"cannot serialize a restricted model: {unused} is unused"
        with pytest.raises(ValidationError, match=message):
            serialize_model(model)
        with pytest.raises(ValidationError, match=message):
            save_model(model, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()
        # angle_aware uses both tables: it is written as the whole model.
        whole = serialize_model(cell_coded_model())
        assert serialize_model(cell_coded_model().restricted("angle_aware")) == whole

    @pytest.mark.parametrize("field", ["sigma2", "nugget"])
    def test_infinite_variance_rejected(self, field):
        doc = serialize_model(cell_coded_model())
        doc[field] = "inf"
        with pytest.raises(ValidationError, match=f"finite.*{field}|{field}.*finite"):
            deserialize_model(doc)

    def test_missing_field_named(self):
        doc = serialize_model(cell_coded_model())
        del doc["mu"]
        with pytest.raises(Exception) as err:
            deserialize_model(doc)
        assert "mu" in str(err.value)

    def test_missing_nested_field_named(self):
        doc = serialize_model(cell_coded_model())
        del doc["dedm"]["p2"]
        with pytest.raises(Exception) as err:
            deserialize_model(doc)
        assert "dedm.p2" in str(err.value)

    def test_version_mismatch_rejected(self):
        doc = serialize_model(cell_coded_model())
        doc["version"] = 99
        with pytest.raises(Exception) as err:
            deserialize_model(doc)
        assert "version" in str(err.value)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("tilt_kernels", 1, 2), 5, "tilt_kernels[1][2]"),
            (("tilt_kernels",), 3, "tilt_kernels"),
            (("dedm",), 3, "dedm"),
            (("mu",), None, "mu"),
            (("bins", "elev_edges", 2), "ten", "bins.elev_edges[2]"),
            (("tilt_rates", 1, 2), "five", "tilt_rates[1][2]"),
            (("elev_rates", 0, 3), None, "elev_rates[0][3]"),
            (("tilt_rates",), 3, "tilt_rates"),
            (("version",), True, "version"),
        ],
    )
    def test_wrong_json_type_named(self, path, value, field):
        if path[0].endswith("_kernels"):  # a version-1 field
            doc = json.loads(MODEL_V1.read_text())
        else:
            doc = json.loads(json.dumps(serialize_model(cell_coded_model())))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(SchemaError) as err:
            deserialize_model(doc)
        assert err.value.field == field
        assert f"'{field}'" in str(err.value)

    def test_kernel_shape_mismatch_rejected(self):
        doc = serialize_model(cell_coded_model())
        doc["tilt_rates"] = doc["tilt_rates"][:3]
        with pytest.raises(Exception):
            deserialize_model(doc)

    def test_save_load_file(self, tmp_path):
        model = cell_coded_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.dedm == model.dedm
        assert back.tilt_rates.tobytes() == model.tilt_rates.tobytes()
        geoms = edge_case_geoms(50, seed=40)
        assert np.array_equal(
            kernel_correlation(back, geoms), kernel_correlation(model, geoms)
        )

    def test_byte_order_mark_is_dropped(self, tmp_path):
        model = cell_coded_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert serialize_model(load_model(path)) == serialize_model(model)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(Exception) as err:
            load_model(path)
        assert "JSON" in str(err.value)
