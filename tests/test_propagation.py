"""Two-ray received power, antenna gain tables, and SF decomposition."""

import cmath
import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest

from _recipes import BUDGET, ORIGIN, decompose_all, pose_columns, same_geometry
from skyfade import propagation
from skyfade.errors import (
    InsufficientDataError,
    RowErrors,
    SchemaError,
    ValidationError,
)
from skyfade.geometry import (
    LinkGeometry,
    MeasurementSample,
    enu_to_geodetic,
    tilt_geometry,
)
from skyfade.propagation import (
    SPEED_OF_LIGHT,
    GainTable,
    LinkBudget,
    SfTable,
    decompose,
    sf_statistics,
    two_ray_power,
    two_ray_rsrp,
)


def geometry_for(d2d, uav_alt, tx_alt=1.5):
    return LinkGeometry(
        theta_deg=math.degrees(math.atan2(uav_alt - tx_alt, d2d)),
        theta_gs_deg=math.degrees(math.atan2(uav_alt - tx_alt, d2d)),
        delta_deg=0.0,
        d2d_m=d2d,
        d3d_m=math.hypot(d2d, uav_alt - tx_alt),
        east_m=d2d,
        north_m=0.0,
        up_m=uav_alt,
    )


def reference_two_ray(d2d, uav_alt, tx_alt, budget):
    """Independent field-sum oracle using explicit complex arithmetic."""
    lam = SPEED_OF_LIGHT / budget.freq_hz
    k = 2.0 * math.pi / lam
    d1 = math.hypot(d2d, uav_alt - tx_alt)
    d2 = math.hypot(d2d, uav_alt + tx_alt)
    theta_los = math.degrees(math.atan2(uav_alt - tx_alt, d2d))
    grazing = math.degrees(math.atan2(uav_alt + tx_alt, d2d))
    g1 = 10.0 ** (
        (budget.gain_tx.lookup(theta_los) + budget.gain_uav.lookup(-theta_los)) / 20.0
    )
    g2 = 10.0 ** (
        (budget.gain_tx.lookup(-grazing) + budget.gain_uav.lookup(-grazing)) / 20.0
    )
    field = g1 * cmath.exp(-1j * k * d1) / d1
    field += budget.reflection * g2 * cmath.exp(-1j * k * d2) / d2
    return (
        budget.tx_power_dbm
        + 20.0 * math.log10(lam / (4.0 * math.pi))
        + 20.0 * math.log10(abs(field))
    )


class TestTwoRay:
    def test_zero_reflection_reduces_to_free_space(self):
        budget = LinkBudget(tx_lat_deg=35.72, tx_lon_deg=-78.70, reflection=0.0)
        rng = np.random.default_rng(31)
        for _ in range(200):
            d2d = rng.uniform(10.0, 5000.0)
            alt = rng.uniform(2.0, 300.0)
            geom = geometry_for(d2d, alt)
            expected = (
                budget.tx_power_dbm
                + 20.0 * math.log10(budget.wavelength_m / (4.0 * math.pi * geom.d3d_m))
            )
            assert two_ray_rsrp(geom, alt, 1.5, budget) == pytest.approx(
                expected, abs=1e-9
            )

    def test_matches_complex_field_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            d2d = rng.uniform(20.0, 3000.0)
            alt = rng.uniform(5.0, 150.0)
            geom = geometry_for(d2d, alt)
            assert two_ray_rsrp(geom, alt, 1.5, BUDGET) == pytest.approx(
                reference_two_ray(d2d, alt, 1.5, BUDGET), abs=1e-9
            )

    def test_oracle_agreement_with_directional_gains(self):
        budget = LinkBudget(
            tx_lat_deg=35.72,
            tx_lon_deg=-78.70,
            gain_tx=GainTable(angles_deg=(-90.0, 0.0, 90.0), gains_dbi=(-3.0, 5.0, 1.0)),
            gain_uav=GainTable(angles_deg=(-90.0, 90.0), gains_dbi=(2.0, -2.0)),
            reflection=complex(-0.7, 0.2),
        )
        for d2d, alt in ((150.0, 30.0), (800.0, 90.0), (2500.0, 45.0)):
            geom = geometry_for(d2d, alt)
            assert two_ray_rsrp(geom, alt, 1.5, budget) == pytest.approx(
                reference_two_ray(d2d, alt, 1.5, budget), abs=1e-9
            )

    def test_columns_match_complex_field_oracle(self):
        directional = LinkBudget(
            tx_lat_deg=35.72,
            tx_lon_deg=-78.70,
            gain_tx=GainTable(angles_deg=(-90.0, 0.0, 90.0), gains_dbi=(-3.0, 5.0, 1.0)),
            gain_uav=GainTable(angles_deg=(-90.0, 90.0), gains_dbi=(2.0, -2.0)),
            reflection=complex(-0.7, 0.2),
        )
        rng = np.random.default_rng(41)
        d2d = rng.uniform(20.0, 3000.0, 500)
        alt = rng.uniform(5.0, 150.0, 500)
        alt[[17, 300]] = (0.0, -4.0)  # at and below the ground plane
        for budget in (BUDGET, directional):
            errors = RowErrors()
            power = two_ray_power(d2d, np.hypot(d2d, alt - 1.5), alt, 1.5, budget, errors)
            assert sorted(errors) == [17, 300]
            assert {str(e) for e in errors.values()} == {
                "antenna heights must be above the ground plane"
            }
            ok = np.flatnonzero(alt > 0.0)
            expected = [reference_two_ray(d2d[i], alt[i], 1.5, budget) for i in ok]
            assert power[ok] == pytest.approx(expected, abs=1e-9)

    def test_far_field_slope_is_fourth_power(self):
        # at 915 MHz the breakpoint 4*h1*h2/lambda sits near 500 m, so the
        # last decade of the sweep is fully inside the d^-4 asymptote
        budget = LinkBudget(tx_lat_deg=35.72, tx_lon_deg=-78.70, freq_hz=915e6)
        alt = 28.0
        d = np.logspace(math.log10(10 * alt), math.log10(1000 * alt), 400)
        power = np.array(
            [two_ray_rsrp(geometry_for(x, alt), alt, 1.5, budget) for x in d]
        )
        last_decade = d >= 100 * alt
        slope = np.polyfit(np.log10(d[last_decade]), power[last_decade], 1)[0]
        assert slope == pytest.approx(-40.0, abs=1.0)

    def test_rejects_non_positive_heights(self):
        geom = geometry_for(100.0, 30.0)
        with pytest.raises(ValidationError):
            two_ray_rsrp(geom, 0.0, 1.5, BUDGET)
        with pytest.raises(ValidationError):
            two_ray_rsrp(geom, 30.0, -1.0, BUDGET)


class TestGainTable:
    def test_isotropic_is_flat(self):
        table = GainTable.isotropic(3.0)
        assert table.lookup(-90.0) == 3.0
        assert table.lookup(17.3) == 3.0

    def test_knots_exact_and_midpoints_interpolated(self):
        table = GainTable(angles_deg=(-90.0, 0.0, 90.0), gains_dbi=(-10.0, 4.0, 0.0))
        assert table.lookup(0.0) == 4.0
        assert table.lookup(-90.0) == -10.0
        assert table.lookup(45.0) == pytest.approx(2.0, abs=1e-12)

    def test_requires_full_elevation_coverage(self):
        with pytest.raises(ValidationError):
            GainTable(angles_deg=(-45.0, 45.0), gains_dbi=(0.0, 0.0))

    def test_requires_increasing_angles(self):
        with pytest.raises(ValidationError):
            GainTable(angles_deg=(-90.0, 10.0, 10.0, 90.0), gains_dbi=(0.0,) * 4)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "gain.csv"
        path.write_text("angle_deg,gain_dbi\n-90,-5\n0,6.5\n90,1\n")
        table = GainTable.from_csv(path)
        assert table.angles_deg == (-90.0, 0.0, 90.0)
        assert table.lookup(0.0) == 6.5

    def test_csv_rejects_short_rows(self, tmp_path):
        path = tmp_path / "gain.csv"
        path.write_text("-90\n90\n")
        with pytest.raises(SchemaError):
            GainTable.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"elevation\n(deg)",gain_dbi\n-90,-3\nx,1\n90,3\n', "non-numeric row 4"),
            ('"elevation\n(deg)",gain_dbi\n-90,-3\n\n7\n90,3\n', "row 5 has fewer"),
        ],
    )
    def test_csv_names_bad_rows_by_file_line(self, tmp_path, text, message):
        """A quoted header cell over two lines does not shift the line
        number of a later bad row, and blank lines count."""
        path = tmp_path / "gain.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            GainTable.from_csv(path)


class TestLinkBudget:
    def test_wavelength(self):
        assert BUDGET.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 3.32e9, rel=1e-12)

    def test_rejects_reflection_above_unity(self):
        with pytest.raises(ValidationError):
            LinkBudget(tx_lat_deg=0.0, tx_lon_deg=0.0, reflection=complex(0.9, 0.9))

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ValidationError):
            LinkBudget(tx_lat_deg=0.0, tx_lon_deg=0.0, freq_hz=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tx_lat_deg", math.nan),
            ("tx_lon_deg", math.inf),
            ("tx_alt_m", math.nan),
            ("antenna_height_m", math.inf),
            ("tx_power_dbm", -math.inf),
            ("freq_hz", math.inf),
            ("freq_hz", math.nan),
            ("reflection", complex(math.nan, 0.0)),
        ],
    )
    def test_rejects_non_finite(self, field, value):
        kwargs = {"tx_lat_deg": 0.0, "tx_lon_deg": 0.0, field: value}
        with pytest.raises(ValidationError, match=f"link budget {field} must be finite"):
            LinkBudget(**kwargs)

    def test_origin_property(self):
        assert BUDGET.origin == ORIGIN

    @pytest.mark.parametrize(
        "field, value, bounds",
        [
            ("tx_lat_deg", 95.0, "[-90, 90]"),
            ("tx_lat_deg", -90.5, "[-90, 90]"),
            ("tx_lon_deg", 181.0, "[-180, 180]"),
            ("tx_lon_deg", -180.5, "[-180, 180]"),
        ],
    )
    def test_rejects_transmitter_out_of_range(self, field, value, bounds):
        kwargs = {"tx_lat_deg": 0.0, "tx_lon_deg": 0.0, field: value}
        match = re.escape(f"link budget {field} must lie in {bounds}: {value}")
        with pytest.raises(ValidationError, match=match):
            LinkBudget(**kwargs)

    def test_accepts_the_range_ends(self):
        for lat, lon in ((-90.0, -180.0), (90.0, 180.0)):
            assert LinkBudget(tx_lat_deg=lat, tx_lon_deg=lon).origin == (lat, lon, 0.0)


class TestDecomposition:
    def sample_at(self, east, north, alt, rsrp):
        lat, lon, _ = enu_to_geodetic(np.array([east, north, alt]), ORIGIN)
        return MeasurementSample(
            time_s=0.0,
            lat_deg=lat,
            lon_deg=lon,
            alt_m=alt,
            yaw_deg=0.0,
            pitch_deg=0.0,
            roll_deg=0.0,
            rsrp_dbm=rsrp,
        )

    def test_estimate_plus_residual_reproduces_measurement(self):
        sample = self.sample_at(200.0, -120.0, 45.0, -71.25)
        sf = decompose_all([sample])
        assert sf.pl_est_dbm[0] + sf.sf_db[0] == pytest.approx(
            sample.rsrp_dbm, abs=1e-12
        )
        assert sf.rsrp_dbm.tolist() == [sample.rsrp_dbm]

    def test_link_geometry_matches_decomposition_geometry(self):
        samples = [
            self.sample_at(80.0, 60.0, 35.0, -70.0),
            self.sample_at(-20.0, 140.0, 60.0, -75.0),
        ]
        geom = RowErrors.strict(
            tilt_geometry, pose_columns(samples), BUDGET.tx_enu, BUDGET.origin
        )
        assert same_geometry(decompose_all(samples).geometry, geom)

    def test_statistics_match_numpy(self):
        rng = np.random.default_rng(5)
        values = rng.normal(-2.0, 3.0, 400)
        table = decompose_all(
            [self.sample_at(50.0 + i, 40.0, 30.0, -70.0) for i in range(values.size)]
        )
        shifted = SfTable(table.geometry, values, table.rsrp_dbm, table.pl_est_dbm)
        mu, var = sf_statistics(shifted)
        assert mu == pytest.approx(float(np.mean(values)), abs=1e-12)
        assert var == pytest.approx(float(np.var(values, ddof=1)), abs=1e-12)

    def test_statistics_require_two_samples(self):
        table = decompose_all([self.sample_at(50.0, 40.0, 30.0, -70.0)])
        with pytest.raises(InsufficientDataError):
            sf_statistics(table)


GEOMETRY_FIELDS = [f.name for f in dataclasses.fields(LinkGeometry)]


def scattered_poses(n, seed):
    """n pose and RSRP columns around the transmitter, every attitude
    angle varied."""
    rng = np.random.default_rng(seed)
    lat, lon = BUDGET.tx_lat_deg, BUDGET.tx_lon_deg
    return {
        "time_s": np.arange(n, dtype=float),
        "lat_deg": lat + rng.uniform(-0.004, 0.004, n),
        "lon_deg": lon + rng.uniform(-0.004, 0.004, n),
        "alt_m": rng.uniform(5.0, 150.0, n),
        "yaw_deg": rng.uniform(-180.0, 180.0, n),
        "pitch_deg": rng.uniform(-40.0, 40.0, n),
        "roll_deg": rng.uniform(-40.0, 40.0, n),
        "rsrp_dbm": rng.uniform(-110.0, -60.0, n),
    }


class TestBlockedDecomposition:
    """decompose carries DECOMPOSE_BLOCK_ROWS rows at a time; every column
    and every row error is that of one block over all rows."""

    B = 7

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
    def test_blocks_are_bitwise_one_block(self, n):
        poses = scattered_poses(n, seed=n)
        lat, lon = BUDGET.tx_lat_deg, BUDGET.tx_lon_deg
        below = "antenna heights must be above the ground plane"
        coincide = "UAV and transmitter positions coincide"
        # Rows failing decompose's rules, in up to three blocks, with the
        # error each leaves when nothing flagged it before.
        failing = {
            0: ((lat, lon, BUDGET.antenna_height_m), coincide),
            self.B - 1: ((lat + 0.001, lon, -5.0), below),
            self.B + 1: ((95.0, lon, 30.0), "latitude out of range: 95.0"),
            2 * self.B + 2: ((lat, lon, -3.0), below),
        }
        for row, (pose, _message) in failing.items():
            if row < n:
                poses["lat_deg"][row], poses["lon_deg"][row], poses["alt_m"][row] = pose
        # Rows flagged before the call keep their errors: row 0, which
        # decompose fails too, and row 2, which it passes.
        flagged = {0: ValidationError("flagged first"), 2: ValidationError("flagged")}
        outcomes = []
        for block in (self.B, n):
            errors = RowErrors(flagged)
            with mock.patch.object(propagation, "DECOMPOSE_BLOCK_ROWS", block):
                table = decompose(poses, BUDGET, errors)
            columns = [getattr(table.geometry, name) for name in GEOMETRY_FIELDS]
            columns += [table.sf_db, table.rsrp_dbm, table.pl_est_dbm]
            outcomes.append(([c.tobytes() for c in columns], errors))
        (got, got_errors), (ref, ref_errors) = outcomes
        assert got == ref
        messages = {row: message for row, (_pose, message) in failing.items() if row < n}
        messages |= {row: str(error) for row, error in flagged.items()}
        assert {i: str(e) for i, e in got_errors.items()} == messages
        assert {i: (type(e), str(e)) for i, e in ref_errors.items()} == {
            i: (type(e), str(e)) for i, e in got_errors.items()
        }
        assert all(got_errors[i] is flagged[i] for i in flagged)
