"""Frame projection, Euler rotations, and body-frame tilt extraction."""

import math

import numpy as np
import pytest

from _recipes import pose_columns
from skyfade.errors import RowErrors, UndefinedGeometryError, ValidationError
from skyfade.geometry import (
    EARTH_RADIUS_M,
    MeasurementSample,
    _project,
    enu_to_geodetic,
    euler_zyx_matrices,
    project_enu,
    tilt_geometry,
)

ORIGIN = (35.72, -78.70, 0.0)


def sample_at(east, north, alt, yaw=0.0, pitch=0.0, roll=0.0):
    lat, lon, _ = enu_to_geodetic(np.array([east, north, alt]), ORIGIN)
    return MeasurementSample(
        time_s=0.0,
        lat_deg=lat,
        lon_deg=lon,
        alt_m=alt,
        yaw_deg=yaw,
        pitch_deg=pitch,
        roll_deg=roll,
        rsrp_dbm=-80.0,
    )


TX_ENU = np.array([0.0, 0.0, 1.5])


def tilt_of(samples):
    """:func:`tilt_geometry` of the samples in one call; a bad row raises."""
    return RowErrors.strict(tilt_geometry, pose_columns(samples), TX_ENU, ORIGIN)


def elevation(uav_enu, tx_enu):
    """Elevation of a UAV at ``uav_enu`` seen from ``tx_enu``, through
    :func:`tilt_geometry`.  The level UAV sits above the frame origin and
    the transmitter moves by the UAV's horizontal offset, so the offsets
    are exact and no projection rounding enters."""
    east, north, up = uav_enu
    tx = np.asarray(tx_enu, dtype=float) - [east, north, 0.0]
    poses = pose_columns([sample_at(0.0, 0.0, up)])
    return float(RowErrors.strict(tilt_geometry, poses, tx, ORIGIN).theta_deg[0])


class TestProjection:
    def test_origin_projects_to_zero(self):
        assert np.all(project_enu(ORIGIN, ORIGIN) == 0.0)

    def test_one_millidegree_north(self):
        enu = project_enu((ORIGIN[0] + 1e-3, ORIGIN[1], 0.0), ORIGIN)
        expected = EARTH_RADIUS_M * math.radians(1e-3)  # 111.19 m
        assert enu[1] == pytest.approx(expected, abs=1e-9)
        assert abs(enu[0]) < 1e-9
        assert expected == pytest.approx(111.1949, abs=1e-3)

    def test_longitude_scaled_by_cos_latitude(self):
        enu = project_enu((ORIGIN[0], ORIGIN[1] + 1e-3, 0.0), ORIGIN)
        expected = (
            EARTH_RADIUS_M * math.cos(math.radians(ORIGIN[0])) * math.radians(1e-3)
        )
        assert enu[0] == pytest.approx(expected, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            enu = rng.uniform(-4000.0, 4000.0, 3)
            back = project_enu(enu_to_geodetic(enu, ORIGIN), ORIGIN)
            assert np.allclose(back, enu, atol=1e-6)

    def test_rejects_out_of_range_coordinates(self):
        with pytest.raises(ValidationError):
            project_enu((91.0, 0.0, 0.0), ORIGIN)
        with pytest.raises(ValidationError):
            project_enu((0.0, 181.0, 0.0), ORIGIN)
        with pytest.raises(ValidationError):
            project_enu((0.0, 0.0, 0.0), (0.0, float("nan"), 0.0))

    @pytest.mark.parametrize(
        "origin, message",
        [
            ((95.0, 0.0, 0.0), "origin latitude out of range: 95.0"),
            ((0.0, 181.0, 0.0), "origin longitude out of range: 181.0"),
        ],
    )
    def test_origin_out_of_range_raises_once(self, origin, message):
        """A bad origin raises before any row is looked at, rather than
        flagging every row."""
        with pytest.raises(ValidationError, match=message):
            project_enu((0.0, 0.0, 0.0), origin)
        lat = np.array([35.7, 95.0, 35.8])
        errors = RowErrors()
        with pytest.raises(ValidationError, match=message):
            _project(lat, np.zeros(3), np.zeros(3), origin, errors)
        assert not errors

    def test_column_inverse_is_the_rows_inverse(self):
        """enu_to_geodetic on columns gives bitwise what it gives each row
        on its own."""
        rng = np.random.default_rng(11)
        east, north, up = rng.uniform(-4000.0, 4000.0, (3, 500))
        lat, lon, alt = enu_to_geodetic((east, north, up), ORIGIN)
        rows = np.array([enu_to_geodetic(p, ORIGIN) for p in zip(east, north, up)])
        assert rows.tobytes() == np.column_stack((lat, lon, alt)).tobytes()


class TestElevation:
    def test_forty_five_degrees(self):
        assert elevation([100.0, 0.0, 101.5], TX_ENU) == pytest.approx(45.0, abs=1e-12)

    def test_sign_follows_height_difference(self):
        below = elevation([100.0, 0.0, 0.5], TX_ENU)
        assert below < 0.0

    def test_directly_overhead_is_ninety(self):
        assert elevation([0.0, 0.0, 50.0], TX_ENU) == 90.0

    def test_coincident_points_rejected(self):
        with pytest.raises(
            UndefinedGeometryError, match="UAV and transmitter positions coincide"
        ):
            elevation(TX_ENU.copy(), TX_ENU)


def quaternion_matrix(yaw_deg, pitch_deg, roll_deg):
    """Independent rotation oracle via Hamilton quaternion composition."""

    def axis_quat(axis, angle_deg):
        half = math.radians(angle_deg) / 2.0
        q = np.zeros(4)
        q[0] = math.cos(half)
        q[1 + axis] = math.sin(half)
        return q

    def multiply(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )

    q = multiply(
        multiply(axis_quat(2, yaw_deg), axis_quat(1, pitch_deg)),
        axis_quat(0, roll_deg),
    )
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestEulerMatrix:
    def test_identity_at_zero(self):
        identity = euler_zyx_matrices([0.0], [0.0], [0.0])
        assert identity.shape == (1, 3, 3)
        assert np.allclose(identity[0], np.eye(3), atol=1e-15)

    def test_orthonormal_with_unit_determinant(self):
        rng = np.random.default_rng(11)
        yaw, pitch, roll = rng.uniform(-180.0, 180.0, (100, 3)).T
        r = euler_zyx_matrices(yaw, pitch, roll)
        gram = np.einsum("nji,njk->nik", r, r)
        assert np.allclose(gram, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(np.ones(100), abs=1e-12)

    def test_matches_quaternion_oracle_over_1000_poses(self):
        rng = np.random.default_rng(13)
        angles = np.array(
            [
                (
                    rng.uniform(-180.0, 180.0),
                    rng.uniform(-90.0, 90.0),
                    rng.uniform(-180.0, 180.0),
                )
                for _ in range(1000)
            ]
        )
        oracle = np.array([quaternion_matrix(*a) for a in angles])
        worst = np.abs(euler_zyx_matrices(*angles.T) - oracle).max()
        assert worst < 1e-6

    def test_columns_match_quaternion_oracle_over_1000_poses(self):
        rng = np.random.default_rng(17)
        n = 1000
        yaw = rng.uniform(-180.0, 180.0, n)
        pitch = rng.uniform(-90.0, 90.0, n)
        roll = rng.uniform(-180.0, 180.0, n)
        oracle = np.array([quaternion_matrix(*a) for a in zip(yaw, pitch, roll)])

        matrices = euler_zyx_matrices(yaw, pitch, roll)
        assert matrices.shape == (n, 3, 3)
        assert np.abs(matrices - oracle).max() < 1e-12

        # The tilt of the same poses, one call, against the oracle's rotation
        # of the unit line of sight (NED) into the body frame.
        east = rng.uniform(-2000.0, 2000.0, n)
        north = rng.uniform(-2000.0, 2000.0, n)
        alt = rng.uniform(5.0, 150.0, n)
        lat, lon = np.array(
            [enu_to_geodetic(np.array(p), ORIGIN)[:2] for p in zip(east, north, alt)]
        ).T
        poses = {
            "lat_deg": lat, "lon_deg": lon, "alt_m": alt,
            "yaw_deg": yaw, "pitch_deg": pitch, "roll_deg": roll,
        }
        errors = RowErrors()
        geom = tilt_geometry(poses, TX_ENU, ORIGIN, errors)
        assert not errors
        assert len(geom) == n
        los = TX_ENU - np.column_stack((geom.east_m, geom.north_m, geom.up_m))
        d3d = np.linalg.norm(los, axis=1)
        los_ned = np.column_stack((los[:, 1], los[:, 0], -los[:, 2])) / d3d[:, None]
        body = np.einsum("nij,ni->nj", oracle, los_ned)
        theta_gs = np.degrees(np.arctan2(body[:, 2], np.hypot(body[:, 0], body[:, 1])))
        theta = np.degrees(np.arcsin(los_ned[:, 2]))  # down the LOS = UAV above
        assert np.abs(geom.d3d_m - d3d).max() < 1e-9
        assert np.abs(geom.theta_gs_deg - theta_gs).max() < 1e-9
        assert np.abs(geom.theta_deg - theta).max() < 1e-9
        assert np.array_equal(geom.delta_deg, geom.theta_deg - geom.theta_gs_deg)


class TestTilt:
    def test_level_pose_zero_tilt_for_any_yaw(self):
        yaws = (-180.0, -135.0, -30.0, 0.0, 45.0, 90.0, 179.0)
        geom = tilt_of([sample_at(120.0, -80.0, 40.0, yaw=yaw) for yaw in yaws])
        assert np.abs(geom.delta_deg).max() < 1e-9
        assert geom.theta_gs_deg == pytest.approx(geom.theta_deg, abs=1e-9)

    def test_pitch_toward_transmitter_dead_ahead(self):
        # Transmitter due north; nose-down pitch (negative) raises the
        # line of sight in the body frame, so delta equals minus pitch.
        pitches = np.array([-10.0, -5.0, -1.0, 2.5, 8.0])
        geom = tilt_of(
            [sample_at(0.0, -150.0, 40.0, yaw=0.0, pitch=p) for p in pitches]
        )
        assert geom.delta_deg == pytest.approx(-pitches, abs=1e-9)

    def test_roll_toward_transmitter_abeam(self):
        # Transmitter abeam to starboard while heading north: rolling
        # right wing down by gamma tilts the antenna boresight toward the
        # transmitter by exactly gamma.
        gammas = np.array([-12.0, -4.0, 3.0, 9.0])
        geom = tilt_of(
            [sample_at(-200.0, 0.0, 60.0, yaw=0.0, roll=g) for g in gammas]
        )
        assert geom.delta_deg == pytest.approx(gammas, abs=1e-9)

    def test_distances_and_elevation_consistent(self):
        geom = tilt_of([sample_at(300.0, -400.0, 51.5)])
        assert geom.d2d_m[0] == pytest.approx(500.0, abs=1e-6)
        assert geom.d3d_m[0] == pytest.approx(math.hypot(500.0, 50.0), abs=1e-6)
        assert geom.theta_deg[0] == pytest.approx(
            math.degrees(math.atan2(50.0, 500.0)), abs=1e-9
        )

    def test_yaw_offset_with_level_airframe_keeps_theta_gs(self):
        geom = tilt_of(
            [
                sample_at(250.0, 100.0, 80.0, yaw=yaw)
                for yaw in np.linspace(-180.0, 179.0, 25)
            ]
        )
        values = {round(v, 9) for v in geom.theta_gs_deg.tolist()}
        assert len(values) == 1


class TestMeasurementSample:
    def test_angle_wrapping(self):
        s = sample_at(10.0, 10.0, 30.0, yaw=270.0, roll=-190.0)
        assert s.yaw_deg == -90.0
        assert s.roll_deg == 170.0

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValidationError):
            MeasurementSample(
                time_s=0.0,
                lat_deg=95.0,
                lon_deg=0.0,
                alt_m=10.0,
                yaw_deg=0.0,
                pitch_deg=0.0,
                roll_deg=0.0,
                rsrp_dbm=-80.0,
            )

    def test_rejects_pitch_beyond_vertical(self):
        with pytest.raises(ValidationError):
            MeasurementSample(
                time_s=0.0,
                lat_deg=0.0,
                lon_deg=0.0,
                alt_m=10.0,
                yaw_deg=0.0,
                pitch_deg=91.0,
                roll_deg=0.0,
                rsrp_dbm=-80.0,
            )

    def test_rejects_non_finite_altitude(self):
        with pytest.raises(ValidationError):
            MeasurementSample(
                time_s=0.0,
                lat_deg=0.0,
                lon_deg=0.0,
                alt_m=float("inf"),
                yaw_deg=0.0,
                pitch_deg=0.0,
                roll_deg=0.0,
                rsrp_dbm=-80.0,
            )
