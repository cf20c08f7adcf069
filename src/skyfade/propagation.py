"""Two-ray ground-reflection path model and shadow-fading decomposition.

The deterministic received-power estimate coherently sums the direct ray
and a single ground-reflected ray (flat earth, image source):

    E = sqrt(G_los) * exp(-j*k*d_los) / d_los
      + Gamma * sqrt(G_ref) * exp(-j*k*d_ref) / d_ref

    rsrp_est = P_tx + 20*log10(lambda / (4*pi)) + 20*log10(|E|)

with k = 2*pi*f0/c.  Per-ray gains combine the transmitter and UAV antenna
patterns evaluated at each ray's departure and arrival elevations.  With
Gamma = 0 this reduces exactly to free-space path loss; with Gamma = -1 the
far field rolls off at -40 dB per decade of horizontal distance.

Shadow fading is defined in the received-power domain as the residual
w = z - rsrp_est of the measured RSRP z against this estimate.

The estimate (:func:`two_ray_power`, :func:`link_rsrp`) and the
decomposition (:func:`decompose`) are written once, on columns, and a
decomposed dataset is an :class:`SfTable`.  :func:`decompose` carries
:data:`DECOMPOSE_BLOCK_ROWS` rows at a time through projection, tilt and
two-ray estimate into preallocated output columns, so its temporaries
are those of one block whatever the row count.  Two row
shapes stay:
:func:`two_ray_rsrp` is a one-row :func:`two_ray_power` for checking the
model link by link, and :class:`SfSample` is one decomposed measurement,
packed into columns by :meth:`SfTable.of`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import InsufficientDataError, RowErrors, SchemaError, ValidationError
from .geometry import _POSE_RULES, Columns, Geometry, LinkGeometry, tilt_geometry
from .schema import open_csv

SPEED_OF_LIGHT = 299792458.0
#: Pose rows :func:`decompose` takes through the whole per-row pipeline at
#: a time.  A block's temporaries are about 1.5 MB (the rotation stack
#: alone is 72 bytes a row); the outputs cost 80 bytes a row.  With
#: blocks of 1024 or 65536 rows, 40,000 rows took 25-40% longer.
DECOMPOSE_BLOCK_ROWS = 4096
_GEOMETRY_FIELDS = tuple(f.name for f in fields(Geometry))


@dataclass(frozen=True)
class GainTable:
    """Antenna gain versus elevation angle, linearly interpolated.

    ``angles_deg`` must be strictly increasing and span [-90, 90] so any
    physical elevation can be looked up; table knots are reproduced exactly.
    """

    angles_deg: tuple[float, ...]
    gains_dbi: tuple[float, ...]

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        gains = np.asarray(self.gains_dbi, dtype=float)
        if angles.ndim != 1 or angles.shape != gains.shape or angles.size < 2:
            raise ValidationError("gain table needs matching angle/gain vectors")
        if not (np.all(np.isfinite(angles)) and np.all(np.isfinite(gains))):
            raise ValidationError("gain table contains non-finite entries")
        if np.any(np.diff(angles) <= 0.0):
            raise ValidationError("gain table angles must be strictly increasing")
        if angles[0] > -90.0 or angles[-1] < 90.0:
            raise ValidationError("gain table must cover [-90, 90] degrees")
        object.__setattr__(self, "angles_deg", tuple(angles.tolist()))
        object.__setattr__(self, "gains_dbi", tuple(gains.tolist()))

    @classmethod
    def isotropic(cls, gain_dbi: float = 0.0) -> "GainTable":
        return cls(angles_deg=(-90.0, 90.0), gains_dbi=(gain_dbi, gain_dbi))

    @classmethod
    def from_csv(cls, path: str | Path) -> "GainTable":
        """Load a two-column CSV of (elevation_deg, gain_dbi) rows.

        The file is UTF-8 text.  Blank rows are skipped, and a non-numeric
        first non-blank row is treated as a header and skipped.  A bad row is
        named by the file line it ends on, as for measurement CSVs.
        """
        with open_csv(path) as fh:
            reader = csv.reader(fh)
            rows = [
                (reader.line_num, row)
                for row in reader
                if any(cell.strip() for cell in row)
            ]
        angles: list[float] = []
        gains: list[float] = []
        for k, (n, row) in enumerate(rows):
            if len(row) < 2:
                raise SchemaError(f"{path}: row {n} has fewer than 2 columns")
            try:
                angle, gain = float(row[0]), float(row[1])
            except ValueError:
                if k == 0:
                    continue  # header row
                raise SchemaError(f"{path}: non-numeric row {n}")
            angles.append(angle)
            gains.append(gain)
        if len(angles) < 2:
            raise SchemaError(f"{path}: need at least two gain rows")
        return cls(angles_deg=tuple(angles), gains_dbi=tuple(gains))

    def lookup(self, elevation_deg):
        """Gain in dBi at the given elevation(s); exact at table knots."""
        return np.interp(elevation_deg, self.angles_deg, self.gains_dbi)


@dataclass(frozen=True)
class LinkBudget:
    """Transmitter-side constants of the propagation model.

    ``tx_alt_m`` is the ground altitude at the mast; the antenna phase
    center sits ``antenna_height_m`` above it.  ``reflection`` is the
    complex ground reflection coefficient (default -1, perfect reflector
    with phase inversion; 0 disables the reflected ray).  Every number
    must be finite, and the transmitter position a valid latitude and
    longitude.
    """

    tx_lat_deg: float
    tx_lon_deg: float
    tx_alt_m: float = 0.0
    antenna_height_m: float = 1.5
    tx_power_dbm: float = 30.0
    freq_hz: float = 3.32e9
    reflection: complex = -1.0
    gain_tx: GainTable = field(default_factory=GainTable.isotropic)
    gain_uav: GainTable = field(default_factory=GainTable.isotropic)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, GainTable) and not np.isfinite(value):
                raise ValidationError(f"link budget {f.name} must be finite: {value}")
        for name, (_field, lo, hi, _message) in zip(("tx_lat_deg", "tx_lon_deg"), _POSE_RULES):
            if not lo <= getattr(self, name) <= hi:
                raise ValidationError(
                    f"link budget {name} must lie in [{lo:g}, {hi:g}]: {getattr(self, name)}"
                )
        if self.freq_hz <= 0.0:
            raise ValidationError(f"carrier frequency must be positive: {self.freq_hz}")
        if abs(self.reflection) > 1.0 + 1e-12:
            raise ValidationError(f"|reflection| must be <= 1: {self.reflection}")
        if self.antenna_height_m <= 0.0:
            raise ValidationError("antenna height must be positive")

    @property
    def origin(self) -> tuple[float, float, float]:
        return (self.tx_lat_deg, self.tx_lon_deg, self.tx_alt_m)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.freq_hz

    @property
    def tx_enu(self) -> np.ndarray:
        """Transmitter antenna phase center in the ENU frame about ``origin``."""
        return np.array([0.0, 0.0, self.antenna_height_m])


@dataclass(frozen=True)
class SfSample:
    """One measurement split into deterministic and shadow-fading parts.

    ``pl_est_dbm`` is the two-ray received-power estimate, so
    ``pl_est_dbm + sf_db`` reproduces the measured ``rsrp_dbm``.
    """

    geometry: LinkGeometry
    sf_db: float
    rsrp_dbm: float
    pl_est_dbm: float


@dataclass(frozen=True, eq=False)
class SfTable(Columns):
    """Many decomposed measurements: the :class:`SfSample` fields as 1-d
    arrays, with the geometry as a :class:`Geometry`."""

    geometry: Geometry
    sf_db: np.ndarray
    rsrp_dbm: np.ndarray
    pl_est_dbm: np.ndarray

    @classmethod
    def of(cls, samples) -> SfTable:
        """Columns of a sequence of :class:`SfSample`; an :class:`SfTable`
        is returned as it is."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        values = np.array(
            [(s.sf_db, s.rsrp_dbm, s.pl_est_dbm) for s in samples], dtype=float
        ).reshape(-1, 3)
        return cls(Geometry.of([s.geometry for s in samples]), *values.T.copy())


def two_ray_power(d2d, d_los, uav_alt, tx_alt, budget: LinkBudget, errors: RowErrors):
    """Two-ray received power in dBm, one value per link.

    Parameters
    ----------
    d2d, d_los : array
        Horizontal and slant distances of each link.
    uav_alt, tx_alt : array or float
        Antenna heights above the flat reflecting ground plane.
    budget : LinkBudget
        Power, carrier, reflection coefficient and antenna patterns.
    errors : RowErrors
        Receives, in this order: a height not above the ground plane, a
        non-positive slant distance, and a field that cancels exactly.
    """
    errors.flag(
        (uav_alt <= 0.0) | (tx_alt <= 0.0),
        lambda _i: ValidationError("antenna heights must be above the ground plane"),
    )
    errors.flag(
        d_los <= 0.0,
        lambda _i: ValidationError("line-of-sight distance must be positive"),
    )
    d_ref = np.hypot(d2d, uav_alt + tx_alt)
    k = 2.0 * math.pi / budget.wavelength_m

    # Direct ray: the UAV sits at +theta_los from the transmitter and the
    # transmitter at -theta_los from the UAV.
    theta_los = np.degrees(np.arctan2(uav_alt - tx_alt, d2d))
    g_los_db = budget.gain_tx.lookup(theta_los) + budget.gain_uav.lookup(-theta_los)
    # Reflected ray: both ends look down at the specular point with the
    # common grazing angle of the image construction.
    grazing = np.degrees(np.arctan2(uav_alt + tx_alt, d2d))
    g_ref_db = budget.gain_tx.lookup(-grazing) + budget.gain_uav.lookup(-grazing)

    with np.errstate(invalid="ignore", divide="ignore"):
        e_field = np.sqrt(10.0 ** (g_los_db / 10.0)) * np.exp(-1j * k * d_los) / d_los
        if budget.reflection != 0.0:
            e_field += (
                budget.reflection
                * np.sqrt(10.0 ** (g_ref_db / 10.0))
                * np.exp(-1j * k * d_ref)
                / d_ref
            )
        magnitude = np.abs(e_field)
        errors.flag(
            magnitude == 0.0,
            lambda _i: ValidationError(
                "two-ray field magnitude vanished (perfect null)"
            ),
        )
        return (
            budget.tx_power_dbm
            + 20.0 * math.log10(budget.wavelength_m / (4.0 * math.pi))
            + 20.0 * np.log10(magnitude)
        )


def two_ray_rsrp(
    geometry: LinkGeometry,
    uav_alt_m: float,
    tx_alt_m: float,
    budget: LinkBudget,
) -> float:
    """Two-ray received power in dBm for one link: a one-row
    :func:`two_ray_power` on the geometry's distances."""
    d2d, d_los = np.array([geometry.d2d_m]), np.array([geometry.d3d_m])
    power = RowErrors.strict(two_ray_power, d2d, d_los, uav_alt_m, tx_alt_m, budget)
    return float(power[0])


def link_rsrp(geometry: Geometry, budget: LinkBudget, errors: RowErrors):
    """Two-ray estimate of each link: the UAV at its height above the
    transmitter ground plane, the antenna at the mast height."""
    return two_ray_power(
        geometry.d2d_m, geometry.d3d_m, geometry.up_m, budget.antenna_height_m,
        budget, errors,
    )


def decompose(poses, budget: LinkBudget, errors: RowErrors) -> SfTable:
    """Geometry, two-ray estimate and SF residual of every pose row.

    ``poses`` holds the pose columns and ``rsrp_dbm``; rows recorded in
    ``errors`` carry meaningless values.  The rows go through in blocks of
    :data:`DECOMPOSE_BLOCK_ROWS`, each written into the output columns;
    every value is computed from its own row, so the blocks do not change
    a bit of the result.  A block's errors join ``errors`` at the block's
    row offset, and a row that already has an error keeps it.
    """
    rsrp = poses["rsrp_dbm"]
    n = len(rsrp)
    geometry = Geometry(*np.empty((len(_GEOMETRY_FIELDS), n)))
    estimate = np.empty(n)
    for r0 in range(0, n, DECOMPOSE_BLOCK_ROWS):
        rows = slice(r0, r0 + DECOMPOSE_BLOCK_ROWS)
        block_errors = RowErrors()
        block = tilt_geometry(
            {name: column[rows] for name, column in poses.items()},
            budget.tx_enu, budget.origin, block_errors,
        )
        estimate[rows] = link_rsrp(block, budget, block_errors)
        for name in _GEOMETRY_FIELDS:
            getattr(geometry, name)[rows] = getattr(block, name)
        for i, error in block_errors.items():
            errors.setdefault(r0 + i, error)
    return SfTable(geometry, rsrp - estimate, rsrp, estimate)


def sf_statistics(samples) -> tuple[float, float]:
    """Mean and unbiased variance of the shadow-fading values.

    Raises :class:`InsufficientDataError` for fewer than two samples.
    """
    w = SfTable.of(samples).sf_db
    if w.size < 2:
        raise InsufficientDataError(f"need at least 2 SF samples, got {w.size}")
    return float(np.mean(w)), float(np.var(w, ddof=1))
