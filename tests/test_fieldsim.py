"""Synthetic flights, correlated field draws, and dataset synthesis."""

import dataclasses
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _recipes import (
    BUDGET,
    assemble_lower,
    built_entries,
    decompose_all,
    fidelity_case,
    gap_benchmark_truth,
    kernel_correlation,
    kernel_covariance,
    lower_entries,
    pose_columns,
)
from skyfade import correlation, kriging
from skyfade.correlation import (
    MODES,
    AngleBins,
    CorrelationModel,
    Covariance,
    DedmParams,
    KernelPoints,
    correlation_matrix,
    deserialize_model,
)
from skyfade.errors import NotPositiveDefiniteError, RowErrors, ValidationError
from skyfade.fieldsim import (
    MAX_FIELD_SAMPLES,
    FlightSpec,
    SimConfig,
    generate_trajectory,
    sample_sf_field,
    synthesize_dataset,
    truth_sidecar,
)
from skyfade.geometry import project_enu, tilt_geometry
from skyfade.propagation import link_rsrp
from test_correlation import mk_geom


def flat_truth(sigma2=4.0, nugget=4e-6, rate=1e-3):
    return CorrelationModel.with_uniform_kernels(
        0.0, sigma2, DedmParams(1.0, rate, 1e-4), nugget=nugget
    )


def small_config(seed=0, n=120, excitation=12.0, noise=0.0):
    flight = FlightSpec(
        pitch_excitation_deg=excitation,
        roll_excitation_deg=excitation,
    )
    return SimConfig(
        seed=seed,
        n_samples=n,
        truth=flat_truth(),
        budget=BUDGET,
        flight=flight,
        noise_std_db=noise,
    )


def trajectory_enu(config):
    points = generate_trajectory(config)
    return points, [
        project_enu((p.lat_deg, p.lon_deg, p.alt_m), config.budget.origin)
        for p in points
    ]


def trajectory_geometry(points):
    """Link geometry of trajectory points against the test budget's mast."""
    return RowErrors.strict(
        tilt_geometry, pose_columns(points), BUDGET.tx_enu, BUDGET.origin
    )


class TestValidation:
    def test_flight_spec(self):
        with pytest.raises(ValidationError):
            FlightSpec(path="spiral")
        with pytest.raises(ValidationError):
            FlightSpec(east_extent_m=(100.0, -100.0))
        with pytest.raises(ValidationError):
            FlightSpec(speed_mps=0.0)
        with pytest.raises(ValidationError):
            FlightSpec(pitch_excitation_deg=91.0)
        with pytest.raises(ValidationError):
            FlightSpec(n_passes=1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"altitude_m": math.nan}, "altitude_m"),
            ({"east_extent_m": (-math.inf, 300.0)}, "east_extent_m"),
            ({"north_extent_m": (-300.0, math.nan)}, "north_extent_m"),
            ({"speed_mps": math.inf}, "speed_mps"),
            ({"speed_mps": math.nan}, "speed_mps"),
            ({"sample_interval_s": math.inf}, "sample_interval_s"),
        ],
    )
    def test_flight_spec_non_finite(self, kwargs, field):
        """An infinite speed or interval never ends the waypoint walk, and a
        NaN one parks every sample at the start pose."""
        with pytest.raises(ValidationError, match=f"flight {field} must be finite"):
            FlightSpec(**kwargs)

    @pytest.mark.parametrize("path", ["lawnmower", "waypoints"])
    @pytest.mark.parametrize(
        "east, north",
        [
            # Every waypoint lies within np.allclose of every other.
            ((1000.0, 1000.001), (1000.0, 1000.001)),
            # Wider than one tolerance (0.01 m here), but no waypoint lies
            # beyond it from a random start near the middle: the waypoints
            # path hung at seed 6.
            ((1000.0, 1000.015), (1000.0, 1000.000001)),
        ],
    )
    def test_flight_box_within_the_walk_tolerance(self, path, east, north):
        """The walk skips waypoints np.allclose to its position, so it
        never ended in such a box; each skipped waypoint counts toward
        fieldsim.MAX_STEP_LEGS."""
        flight = FlightSpec(east_extent_m=east, north_extent_m=north, path=path)
        for seed in (0, 6):
            config = SimConfig(
                seed=seed, n_samples=3, truth=flat_truth(), budget=BUDGET, flight=flight
            )
            t0 = time.perf_counter()
            with pytest.raises(ValidationError, match="flight box too small for the step"):
                generate_trajectory(config)
            assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("path", ["lawnmower", "waypoints"])
    def test_flight_box_past_the_bound_is_walked(self, path):
        # A 10 m step crosses at most 200 legs (lawnmower) or 450
        # (waypoints) over these seeds, within fieldsim.MAX_STEP_LEGS.
        flight = FlightSpec(
            east_extent_m=(1000.0, 1000.05), north_extent_m=(1000.0, 1000.000001), path=path
        )
        for seed in range(8):
            config = SimConfig(
                seed=seed, n_samples=3, truth=flat_truth(), budget=BUDGET, flight=flight
            )
            assert len(generate_trajectory(config)) == 3

    @pytest.mark.parametrize("path", ["lawnmower", "waypoints"])
    def test_flight_box_three_tolerances_wide_is_walked(self, path):
        """A 3 cm box at 1000 m is three np.allclose tolerances wide; a rule
        on FlightSpec's extents used to reject it, though it can be walked."""
        flight = FlightSpec(
            east_extent_m=(1000.0, 1000.03), north_extent_m=(1000.0, 1000.03), path=path
        )
        for seed in range(8):
            config = SimConfig(
                seed=seed, n_samples=3, truth=flat_truth(), budget=BUDGET, flight=flight
            )
            assert len(generate_trajectory(config)) == 3

    @pytest.mark.parametrize("path", ["lawnmower", "waypoints"])
    def test_flight_box_small_against_the_step_fails_fast(self, path):
        """A 1 mm box passes FlightSpec, but each 10 m step crosses some
        10^4 legs; walking 1000 samples would take minutes."""
        flight = FlightSpec(east_extent_m=(0.0, 0.001), north_extent_m=(0.0, 0.001), path=path)
        config = SimConfig(
            seed=0, n_samples=1000, truth=flat_truth(), budget=BUDGET, flight=flight
        )
        t0 = time.perf_counter()
        with pytest.raises(ValidationError, match="flight box too small for the step"):
            generate_trajectory(config)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_sim_config_non_finite_noise(self, noise):
        with pytest.raises(ValidationError, match="noise standard deviation"):
            SimConfig(
                seed=0, n_samples=10, truth=flat_truth(), budget=BUDGET, noise_std_db=noise
            )

    def test_sim_config(self):
        with pytest.raises(ValidationError):
            SimConfig(seed=0, n_samples=1, truth=flat_truth(), budget=BUDGET)
        with pytest.raises(ValidationError):
            SimConfig(
                seed=0,
                n_samples=10,
                truth=flat_truth(),
                budget=BUDGET,
                noise_std_db=-0.5,
            )
        with pytest.raises(ValidationError):
            SimConfig(
                seed=0,
                n_samples=10,
                truth=flat_truth(),
                budget=BUDGET,
                flight=FlightSpec(altitude_m=1.0),
            )

    def test_field_size_cap(self):
        geoms = [mk_geom(float(i)) for i in range(MAX_FIELD_SAMPLES + 1)]
        with pytest.raises(ValidationError):
            sample_sf_field(geoms, flat_truth(), 0)
        with pytest.raises(ValidationError):
            sample_sf_field([], flat_truth(), 0)


class TestTrajectory:
    def test_deterministic(self):
        config = small_config(seed=5)
        assert generate_trajectory(config) == generate_trajectory(config)

    def test_stays_in_box_at_altitude(self):
        config = small_config(seed=1, n=400)
        points, enu = trajectory_enu(config)
        e0, e1 = config.flight.east_extent_m
        n0, n1 = config.flight.north_extent_m
        for p, pos in zip(points, enu):
            assert e0 - 1e-6 <= pos[0] <= e1 + 1e-6
            assert n0 - 1e-6 <= pos[1] <= n1 + 1e-6
            assert pos[2] == pytest.approx(config.flight.altitude_m, abs=1e-6)
        assert [p.time_s for p in points] == [
            k * config.flight.sample_interval_s for k in range(400)
        ]

    def test_step_length_bounded_by_speed(self):
        config = small_config(seed=2, n=200)
        _, enu = trajectory_enu(config)
        step = config.flight.speed_mps * config.flight.sample_interval_s
        for a, b in zip(enu, enu[1:]):
            chord = math.hypot(b[0] - a[0], b[1] - a[1])
            assert chord <= step + 1e-6

    def test_zero_excitation_means_level_flight(self):
        config = small_config(seed=3, n=150, excitation=0.0)
        points = generate_trajectory(config)
        for p in points:
            assert p.pitch_deg == 0.0
            assert p.roll_deg == 0.0
        assert np.abs(trajectory_geometry(points).delta_deg).max() < 1e-9

    def test_excitation_covers_all_tilt_bins(self):
        config = small_config(seed=0, n=600)
        deltas = trajectory_geometry(generate_trajectory(config)).delta_deg
        bins = AngleBins()
        assert set(bins.tilt_indices(deltas).tolist()) == {0, 1, 2, 3, 4}

    def test_waypoint_path_is_deterministic_and_bounded(self):
        flight = FlightSpec(path="waypoints")
        config = SimConfig(
            seed=11, n_samples=80, truth=flat_truth(), budget=BUDGET, flight=flight
        )
        points, enu = trajectory_enu(config)
        assert points == generate_trajectory(config)
        for pos in enu:
            assert -300.0 - 1e-6 <= pos[0] <= 300.0 + 1e-6
            assert -300.0 - 1e-6 <= pos[1] <= 300.0 + 1e-6


class TestFieldDraw:
    def test_marginal_law(self):
        truth = CorrelationModel.with_uniform_kernels(
            -3.0, 4.0, DedmParams(1.0, 1e-3, 1e-4), nugget=0.0
        )
        geom = mk_geom(10.0, 20.0, theta=30.0, delta=2.0)
        draws = np.array(
            [float(sample_sf_field([geom], truth, [1000, k])[0]) for k in range(5000)]
        )
        # Standard errors: 0.028 for the mean, 0.08 for the variance.
        assert abs(float(draws.mean()) - -3.0) < 0.05 * 2.0
        assert float(draws.var()) == pytest.approx(4.0, rel=0.10)

    def test_perfectly_correlated_pair_is_equal(self):
        truth = flat_truth(nugget=0.0)
        geom = mk_geom(5.0, -8.0, theta=25.0, delta=1.0)
        w = sample_sf_field([geom, geom], truth, 42)
        assert abs(float(w[0] - w[1])) <= 1e-9

    def test_duplicate_seed_reproduces_field(self):
        truth = flat_truth()
        geoms = [mk_geom(10.0 * i, 5.0 * i, theta=20.0 + i) for i in range(8)]
        assert np.array_equal(
            sample_sf_field(geoms, truth, 7), sample_sf_field(geoms, truth, 7)
        )
        assert not np.array_equal(
            sample_sf_field(geoms, truth, 7), sample_sf_field(geoms, truth, 8)
        )

    def test_field_statistics_match_truth(self):
        config, truth = fidelity_case()
        geoms = trajectory_geometry(generate_trajectory(config))
        r_truth = kernel_correlation(truth, geoms)
        draws = np.stack(
            [sample_sf_field(geoms, truth, [77, k]) for k in range(500)]
        )
        r_emp = np.corrcoef(draws.T)
        # Pinned campaign: the largest entrywise deviation is 0.053 with
        # every truth correlation at 0.53 or above.
        assert float(np.max(np.abs(r_emp - r_truth))) < 0.12
        assert abs(float(draws.mean()) - truth.mu) < 0.3
        assert float(draws.var()) == pytest.approx(truth.sigma2, rel=0.15)


def lawnmower_geometry(n, truth):
    """Link geometry of an n-sample lawnmower flight over a 600 m box."""
    config = SimConfig(seed=0, n_samples=n, truth=truth, budget=BUDGET)
    return trajectory_geometry(generate_trajectory(config))


def eigh_draw(cov, truth, seed):
    """The spectral-square-root draw of an untouched covariance."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    g = np.random.default_rng(seed).standard_normal(cov.shape[0])
    return truth.mu + factor @ g


class TestBlockedCholesky:
    @settings(max_examples=30)
    @given(
        n=st.sampled_from([1, 2, 255, 256, 257, 600]),
        seed=st.integers(0, 2**32 - 1),
        ridge=st.floats(1e-3, 1.0),
    )
    def test_factors_lower_triangle_in_place(self, n, seed, ridge):
        """Backward error at rounding level and numpy's factor to 1e-10,
        with C's lower block rows stubbed into :func:`correlation_matrix`;
        the factor overwrites the blocks it is given in place and leaves
        C bitwise as it was.  The stub reads each row's index from its
        east coordinate."""
        x = np.random.default_rng(seed).standard_normal((n, n))
        cov = x @ x.T / n + ridge * np.eye(n)
        before = cov.copy()
        blocks = []

        def stub(_model, a, b):
            blocks.append(cov[np.ix_(a.east_m.astype(int), b.east_m.astype(int))])
            return blocks[-1]

        truth = flat_truth(sigma2=1.0, nugget=0.0)
        points = KernelPoints.of(truth, [mk_geom(float(i), 0.0) for i in range(n)])
        with mock.patch.object(correlation, "correlation_matrix", stub):
            rows, _ = kriging._cholesky_rows(Covariance(truth, points), 0.0)
        assert all(row is block for row, block in zip(rows, blocks, strict=True))
        lower = assemble_lower(rows)
        scale = float(np.abs(cov).max())
        assert float(np.abs(lower @ lower.T - cov).max()) <= 1e-12 * scale
        assert float(np.abs(lower - np.linalg.cholesky(cov)).max()) <= 1e-10
        assert np.array_equal(cov, before)

    def test_draw_matches_full_factor(self):
        truth = gap_benchmark_truth()
        geoms = lawnmower_geometry(600, truth)
        cov = kernel_covariance(truth, geoms)
        g = np.random.default_rng(5).standard_normal(600)
        expected = truth.mu + np.linalg.cholesky(cov) @ g
        w = sample_sf_field(geoms, truth, 5)
        assert float(np.abs(w - expected).max()) <= 1e-10

    def test_semidefinite_past_first_panel_is_the_eigh_draw(self):
        """Rows 10 and 500 share one geometry and there is no nugget: the
        factor fails after the first panel, and the draw is the spectral
        one."""
        truth = dataclasses.replace(gap_benchmark_truth(), nugget=0.0)
        index = np.arange(600)
        index[500] = 10
        geoms = lawnmower_geometry(600, truth)[index]
        cov = kernel_covariance(truth, geoms)
        # The first tile factors, so the failure comes in a later panel.
        np.linalg.cholesky(cov[:256, :256])
        with pytest.raises(np.linalg.LinAlgError):
            kriging._cholesky_rows(cov, 0.0)
        w = sample_sf_field(geoms, truth, 9)
        assert np.array_equal(w, eigh_draw(cov, truth, 9))

    def test_indefinite_in_second_panel_raises(self, monkeypatch):
        """The first block row's factor leaves row t + 50 the pivot
        1 - 2**2, so the factor fails in its second block row; the spectral
        fallback then builds the square matrix and finds it indefinite.
        The stub, in place of every correlation the source builds, reads
        each row's index from its east coordinate."""
        t = kriging._TILE
        cov = np.eye(300)
        cov[t + 50, 5] = cov[5, t + 50] = 2.0
        built = []

        def stub(_model, a, b):
            rows, cols = a.east_m.astype(int), b.east_m.astype(int)
            built.append((rows[0], rows[-1] + 1, cols.size))
            return cov[np.ix_(rows, cols)]

        monkeypatch.setattr(correlation, "correlation_matrix", stub)
        geoms = [mk_geom(float(i), 0.0) for i in range(300)]
        with pytest.raises(NotPositiveDefiniteError):
            sample_sf_field(geoms, flat_truth(), 1)
        assert built == [(0, t, t), (t, 2 * t, 2 * t), (0, 300, 300)]

    def test_draw_holds_one_matrix(self):
        """The traced peak of a 3000-sample draw stays within 0.6 n x n
        matrices: the factor's block rows are the lower triangle, half of
        one, and the square covariance factored in place would trace one;
        numpy's own Cholesky would trace two."""
        truth = gap_benchmark_truth()
        geoms = lawnmower_geometry(3000, truth)
        tracemalloc.start()
        try:
            sample_sf_field(geoms, truth, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 8 * 3000**2

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [1, 95, 96, 97, 600])
    def test_block_rows_are_the_square_matrix_rows(self, mode, n):
        """Each lower block row the factor reads, a rectangular covariance
        plus the nugget on its diagonal tile, is bitwise that block row of
        the source's whole matrix and of the correlations built with the
        sides swapped, transposed."""
        truth = gap_benchmark_truth().restricted(mode)
        points = KernelPoints.of(truth, lawnmower_geometry(max(n, 2), truth)[:n])
        source = Covariance(truth, points)
        square = source[:, :]
        assert source.shape == square.shape == (n, n)
        for k0 in range(0, n, kriging._TILE):
            k1 = min(k0 + kriging._TILE, n)
            row = source[k0:k1, :k1]
            assert np.array_equal(row, square[k0:k1, :k1])
            swapped = truth.sigma2 * correlation_matrix(truth, points[:k1], points[k0:k1]).T
            swapped[:, k0:k1][np.diag_indices(k1 - k0)] += truth.nugget
            assert np.array_equal(row, swapped)

    @pytest.mark.parametrize("n", [1, 96, 97, 600])
    def test_draw_builds_the_lower_triangle_once(self, n):
        """A positive definite draw builds C's lower block rows once, L(n)
        entries, and never the whole matrix, which up to one tile is its
        one block row."""
        truth = gap_benchmark_truth()
        geoms = lawnmower_geometry(max(n, 2), truth)[:n]
        with built_entries() as shapes:
            sample_sf_field(geoms, truth, 3)
        assert sum(r * c for r, c in shapes) == lower_entries(n)
        assert n <= kriging._TILE or (n, n) not in shapes

    def test_semidefinite_draw_holds_two_matrices(self):
        """The spectral fallback scales the eigenvectors in place: the
        covariance and the eigenvectors trace about two n x n matrices,
        where a separate scaled copy would trace three."""
        n = 1000
        truth = dataclasses.replace(gap_benchmark_truth(), nugget=0.0)
        index = np.arange(n)
        index[900] = 10
        geoms = lawnmower_geometry(n, truth)[index]
        tracemalloc.start()
        try:
            w = sample_sf_field(geoms, truth, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n**2
        assert np.array_equal(w, eigh_draw(kernel_covariance(truth, geoms), truth, 4))


class TestDatasetSynthesis:
    def test_bitwise_determinism(self):
        config = small_config(seed=6)
        a = synthesize_dataset(config)
        b = synthesize_dataset(config)
        assert a == b

    def test_decomposition_recovers_field_exactly(self):
        truth = CorrelationModel.with_uniform_kernels(
            0.0,
            9.0,
            DedmParams(0.6, 0.01, 0.001),
            q_pos_deg=1.0e6,
            r_pos_deg=1.0e6,
            nugget=1e-6 * 9.0,
        )
        config = SimConfig(seed=3, n_samples=400, truth=truth, budget=BUDGET)
        rows = synthesize_dataset(config)
        samples = decompose_all(rows)
        w_direct = sample_sf_field(samples.geometry, truth, [3, 2])
        assert float(np.max(np.abs(samples.sf_db - w_direct))) <= 1e-9

    def test_same_positions_different_fields_across_seeds(self):
        a = synthesize_dataset(small_config(seed=0, n=60, excitation=0.0))
        b = synthesize_dataset(small_config(seed=1, n=60, excitation=0.0))
        assert [(s.lat_deg, s.lon_deg, s.alt_m) for s in a] == [
            (s.lat_deg, s.lon_deg, s.alt_m) for s in b
        ]
        assert any(x.rsrp_dbm != y.rsrp_dbm for x, y in zip(a, b))

    def test_noise_stream_is_separate_and_additive(self):
        noisy = synthesize_dataset(small_config(seed=4, n=100, noise=1.5))
        clean = synthesize_dataset(small_config(seed=4, n=100, noise=0.0))
        noise = np.random.default_rng([4, 3]).normal(0.0, 1.5, 100)
        observed = np.array([a.rsrp_dbm - b.rsrp_dbm for a, b in zip(noisy, clean)])
        assert np.allclose(observed, noise, atol=1e-9)

    def test_rsrp_equals_two_ray_plus_field(self):
        config = small_config(seed=8, n=50)
        rows = synthesize_dataset(config)
        samples = decompose_all(rows)
        est = RowErrors.strict(link_rsrp, samples.geometry, BUDGET)
        rsrp = np.array([row.rsrp_dbm for row in rows])
        assert rsrp == pytest.approx(est + samples.sf_db, abs=1e-9)


class TestTruthSidecar:
    def test_doc_is_a_model_plus_sim_section(self):
        config = small_config(seed=12, n=64, noise=0.25)
        doc = truth_sidecar(config)
        back = deserialize_model(doc)
        assert back.sigma2 == config.truth.sigma2
        assert back.dedm == config.truth.dedm
        assert doc["sim"]["seed"] == 12
        assert doc["sim"]["n_samples"] == 64
        assert doc["sim"]["noise_std_db"] == 0.25
        assert doc["sim"]["rng"] == "numpy-pcg64"

    def test_restricted_truth_is_refused(self):
        config = dataclasses.replace(
            small_config(seed=12, n=64), truth=flat_truth().restricted("tilt_only")
        )
        with pytest.raises(ValidationError, match="elev_rates is unused"):
            truth_sidecar(config)
