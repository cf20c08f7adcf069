"""Link geometry between a ground transmitter and a maneuvering UAV.

Frames and conventions used throughout the package:

* World frame: local east-north-up (ENU) meters, origin at the transmitter
  ground position, built from geodetic coordinates with an equirectangular
  spherical-Earth projection (radius 6371 km).  Good to well under a meter
  over the few-kilometer extents this package targets.
* Attitude: intrinsic Z-Y-X Euler angles (yaw, pitch, roll), right handed.
  Yaw is the compass heading of the body x axis (0 = north, 90 = east),
  pitch is positive nose up, roll is positive right side down.  The rotation
  is composed in a north-east-down (NED) frame where this sequence is the
  aerospace standard; ENU vectors are swapped into NED before rotating.
* Elevation ``theta``: angle of the UAV above the transmitter's horizontal
  plane, measured at the transmitter antenna.
* ``theta_gs``: depression of the transmitter below the UAV body's
  horizontal plane, i.e. where the airframe "sees" the ground station.
* Tilt ``delta = theta - theta_gs``: zero for a level airframe, positive
  when the body plane leans toward the transmitter.

Data moves as columns: :class:`Geometry` holds the :class:`LinkGeometry`
fields of many links as 1-d arrays, and poses travel as a mapping from the
pose field names to 1-d arrays.  The pose rules (:func:`check_poses`), the
rotation (:func:`euler_zyx_matrices`) and the projection and tilt
(:func:`tilt_geometry`) are written once, on arrays; failing rows go into a
:class:`~skyfade.errors.RowErrors`.

Rows remain only at the edges.  :class:`MeasurementSample` is one logged
measurement, the row type of synthesized datasets and of the dataset
writer; its checks are a one-row :func:`check_poses`.  :class:`LinkGeometry`
is one link, the single Kriging target, packed into columns by
:meth:`Geometry.of`.  :func:`project_enu` maps one position from the
geodetic frame to ENU, for callers that place waypoints or check a pose
by hand; :func:`enu_to_geodetic` maps back, one position or columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import RowErrors, UndefinedGeometryError, ValidationError

EARTH_RADIUS_M = 6371000.0
_FINITE = np.finfo(float).max
# The pose rules in the order they are checked: (field, lowest and highest
# allowed value, message).  Every bound rejects NaN; a finite one, infinity.
_POSE_RULES = (
    ("lat_deg", -90.0, 90.0, "latitude out of range: {}"),
    ("lon_deg", -180.0, 180.0, "longitude out of range: {}"),
    ("alt_m", -_FINITE, _FINITE, "altitude not finite: {}"),
    ("pitch_deg", -90.0, 90.0, "pitch out of range: {}"),
    ("time_s", -_FINITE, _FINITE, "time_s not finite"),
    ("yaw_deg", -_FINITE, _FINITE, "yaw_deg not finite"),
    ("roll_deg", -_FINITE, _FINITE, "roll_deg not finite"),
)


def wrap_deg(angle):
    """Wrap angles to [-180, 180)."""
    wrapped = np.fmod(angle + 180.0, 360.0)
    return np.where(wrapped < 0.0, wrapped + 360.0, wrapped) - 180.0


def _check(columns, rules, prefix: str, errors: RowErrors) -> None:
    """Flag each row whose value breaks a rule, naming its first broken one
    (message prefixed by ``prefix``)."""
    values = np.array([columns[rule[0]] for rule in rules], dtype=float)
    values = values.reshape(len(rules), -1).T
    lo, hi = np.array([rule[1:3] for rule in rules]).T
    bad = ~((values >= lo) & (values <= hi))

    def first_broken(i):
        j = int(np.argmax(bad[i]))
        return ValidationError(prefix + rules[j][3].format(float(values[i, j])))

    errors.flag(bad.any(axis=1), first_broken)


def check_poses(poses, errors: RowErrors) -> None:
    """Flag the pose rows that break a :class:`MeasurementSample` rule.

    ``poses`` maps the pose field names to equal-length columns (or to
    single values).  In order: latitude in [-90, 90], longitude in
    [-180, 180], finite altitude, pitch in [-90, 90], and finite time, yaw
    and roll.
    """
    _check(poses, _POSE_RULES, "", errors)


@dataclass(frozen=True)
class MeasurementSample:
    """One timestamped RSRP measurement with UAV position and attitude.

    Yaw and roll are wrapped into [-180, 180) on construction; pitch must
    already lie in [-90, 90] (see :func:`check_poses`).
    """

    time_s: float
    lat_deg: float
    lon_deg: float
    alt_m: float
    yaw_deg: float
    pitch_deg: float
    roll_deg: float
    rsrp_dbm: float

    def __post_init__(self):
        RowErrors.strict(check_poses, vars(self))
        yaw, roll = wrap_deg(np.array([self.yaw_deg, self.roll_deg])).tolist()
        object.__setattr__(self, "yaw_deg", yaw)
        object.__setattr__(self, "roll_deg", roll)


@dataclass(frozen=True)
class LinkGeometry:
    """Derived geometry of one transmitter-UAV link.

    ``east_m``/``north_m``/``up_m`` locate the UAV in the ENU frame whose
    origin is the transmitter ground position; ``theta_deg``, ``d2d_m`` and
    ``d3d_m`` are measured against the transmitter antenna phase center.
    """

    theta_deg: float
    theta_gs_deg: float
    delta_deg: float
    d2d_m: float
    d3d_m: float
    east_m: float
    north_m: float
    up_m: float


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    """The field names of a dataclass, looked up once per class."""
    return tuple(f.name for f in fields(cls))


class Columns:
    """Base of the column types: dataclass fields holding one value per row
    each (a 1-d array or another column type).  ``len()`` counts the rows
    and an integer index array takes a subset; columns are not iterated."""

    __iter__ = None

    def __len__(self) -> int:
        return len(getattr(self, _field_names(type(self))[0]))

    def __getitem__(self, index):
        names = _field_names(type(self))
        return type(self)(*(getattr(self, name)[index] for name in names))


_LINK_FIELDS = tuple(f.name for f in fields(LinkGeometry))


@dataclass(frozen=True, eq=False)
class Geometry(Columns):
    """Geometry of many links: each :class:`LinkGeometry` field as a 1-d
    array."""

    theta_deg: np.ndarray
    theta_gs_deg: np.ndarray
    delta_deg: np.ndarray
    d2d_m: np.ndarray
    d3d_m: np.ndarray
    east_m: np.ndarray
    north_m: np.ndarray
    up_m: np.ndarray

    @classmethod
    def of(cls, geometries) -> Geometry:
        """Columns of a sequence of :class:`LinkGeometry`; a
        :class:`Geometry` is returned as it is."""
        if isinstance(geometries, cls):
            return geometries
        table = np.array(
            [[getattr(g, name) for name in _LINK_FIELDS] for g in geometries],
            dtype=float,
        ).reshape(-1, len(_LINK_FIELDS))
        return cls(*table.T.copy())


def _project(lat, lon, alt, origin, errors: RowErrors):
    """Equirectangular ENU columns (east, north, up) about ``origin``; an
    origin out of range raises ValidationError, rows out of range are
    flagged."""
    lat0, lon0, alt0 = origin
    RowErrors.strict(_check, {"lat_deg": lat0, "lon_deg": lon0}, _POSE_RULES[:2], "origin ")
    _check({"lat_deg": lat, "lon_deg": lon}, _POSE_RULES[:2], "", errors)
    east = EARTH_RADIUS_M * math.cos(math.radians(lat0)) * np.radians(lon - lon0)
    north = EARTH_RADIUS_M * np.radians(lat - lat0)
    return east, north, alt - alt0


def project_enu(
    position: tuple[float, float, float],
    origin: tuple[float, float, float],
) -> np.ndarray:
    """Project a geodetic position to ENU meters about ``origin``.

    Parameters
    ----------
    position, origin : (lat_deg, lon_deg, alt_m)
        Geodetic triples; altitudes share a common ground reference.

    Returns
    -------
    ndarray, shape (3,)
        (east, north, up) in meters.  ``project_enu(origin, origin)`` is
        exactly zero.

    Notes
    -----
    Equirectangular flat-earth projection on a sphere of radius 6371 km.
    Intended for horizontal extents below ~10 km around the origin.
    """
    lat, lon, alt = (np.array([v], dtype=float) for v in position)
    return np.concatenate(RowErrors.strict(_project, lat, lon, alt, origin))


def enu_to_geodetic(enu, origin: tuple[float, float, float]):
    """Inverse of :func:`project_enu` about the same origin: (lat_deg,
    lon_deg, alt_m) of ``enu`` = (east, north, up), each a number or an
    equal-length column.  Each entry is computed on its own, so a column
    gives bitwise what its rows give one at a time."""
    lat0, lon0, alt0 = origin
    east, north, up = enu
    lat = lat0 + np.degrees(north / EARTH_RADIUS_M)
    lon = lon0 + np.degrees(east / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon, alt0 + up


def _elevation(d_east, d_north, d_up, errors: RowErrors):
    """(elevation in degrees, horizontal distance) of UAV-minus-transmitter
    offsets; coincident points are flagged."""
    d2d = np.hypot(d_east, d_north)
    errors.flag(
        (d2d == 0.0) & (d_up == 0.0),
        lambda _i: UndefinedGeometryError("UAV and transmitter positions coincide"),
    )
    return np.degrees(np.arctan2(d_up, d2d)), d2d


def euler_zyx_matrices(yaw_deg, pitch_deg, roll_deg) -> np.ndarray:
    """Body-to-NED rotation matrices for intrinsic Z-Y-X Euler angles.

    Takes equal-length angle columns and returns an (n, 3, 3) stack, the
    product Rz(yaw) Ry(pitch) Rx(roll) written out per entry.
    """
    cy, sy = np.cos(np.radians(yaw_deg)), np.sin(np.radians(yaw_deg))
    cp, sp = np.cos(np.radians(pitch_deg)), np.sin(np.radians(pitch_deg))
    cr, sr = np.cos(np.radians(roll_deg)), np.sin(np.radians(roll_deg))
    return np.stack(
        [
            cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr,
            sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr,
            -sp, cp * sr, cp * cr,
        ],
        axis=-1,
    ).reshape(-1, 3, 3)


def tilt_geometry(poses, tx_enu, origin, errors: RowErrors) -> Geometry:
    """Link geometry of every pose row, including the body-frame tilt.

    ``poses`` holds the latitude, longitude, altitude and attitude columns;
    positions are projected about the geodetic ``origin`` (transmitter
    ground position), and ``tx_enu`` is the antenna phase center in that
    frame.  Out-of-range coordinates and UAVs at the transmitter go into
    ``errors``; the other columns of those rows are meaningless.

    The unit line of sight from the UAV to the transmitter is rotated into
    the body frame with the transpose of the body-to-world matrix;
    ``theta_gs`` is its depression below the body x-y plane.  For a level
    airframe this equals ``theta`` for any yaw, so the tilt ``delta``
    vanishes; pitching the nose down toward a transmitter dead ahead makes
    ``delta`` positive.
    """
    east, north, up = _project(
        poses["lat_deg"], poses["lon_deg"], poses["alt_m"], origin, errors
    )
    d_east, d_north, d_up = east - tx_enu[0], north - tx_enu[1], up - tx_enu[2]
    theta, d2d = _elevation(d_east, d_north, d_up, errors)
    d3d = np.sqrt(d_east * d_east + d_north * d_north + d_up * d_up)
    with np.errstate(invalid="ignore", divide="ignore"):
        # NED components of the unit vector from the UAV to the transmitter.
        los_ned = np.stack([-d_north, -d_east, d_up], axis=-1) / d3d[:, None]
    rotation = euler_zyx_matrices(
        poses["yaw_deg"], poses["pitch_deg"], poses["roll_deg"]
    )
    los_body = np.einsum("nij,ni->nj", rotation, los_ned)
    # NED z points down, so a positive z component means the transmitter
    # sits below the body horizontal plane.
    theta_gs = np.degrees(
        np.arctan2(los_body[:, 2], np.hypot(los_body[:, 0], los_body[:, 1]))
    )
    return Geometry(theta, theta_gs, theta - theta_gs, d2d, d3d, east, north, up)

