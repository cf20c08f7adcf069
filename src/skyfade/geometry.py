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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedGeometryError, ValidationError

EARTH_RADIUS_M = 6371000.0


def _wrap_deg(angle: float) -> float:
    """Wrap an angle to [-180, 180)."""
    wrapped = math.fmod(angle + 180.0, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    return wrapped - 180.0


@dataclass(frozen=True)
class MeasurementSample:
    """One timestamped RSRP measurement with UAV position and attitude.

    Yaw and roll are wrapped into [-180, 180) on construction; pitch must
    already lie in [-90, 90].
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
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValidationError(f"latitude out of range: {self.lat_deg}")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise ValidationError(f"longitude out of range: {self.lon_deg}")
        if not math.isfinite(self.alt_m):
            raise ValidationError(f"altitude not finite: {self.alt_m}")
        if not -90.0 <= self.pitch_deg <= 90.0:
            raise ValidationError(f"pitch out of range: {self.pitch_deg}")
        for name in ("time_s", "yaw_deg", "roll_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} not finite")
        object.__setattr__(self, "yaw_deg", _wrap_deg(self.yaw_deg))
        object.__setattr__(self, "roll_deg", _wrap_deg(self.roll_deg))

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.lat_deg, self.lon_deg, self.alt_m)


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
    lat, lon, alt = position
    lat0, lon0, alt0 = origin
    for value, lo, hi, name in (
        (lat, -90.0, 90.0, "latitude"),
        (lon, -180.0, 180.0, "longitude"),
        (lat0, -90.0, 90.0, "origin latitude"),
        (lon0, -180.0, 180.0, "origin longitude"),
    ):
        if not (math.isfinite(value) and lo <= value <= hi):
            raise ValidationError(f"{name} out of range: {value}")
    east = EARTH_RADIUS_M * math.cos(math.radians(lat0)) * math.radians(lon - lon0)
    north = EARTH_RADIUS_M * math.radians(lat - lat0)
    return np.array([east, north, alt - alt0], dtype=float)


def enu_to_geodetic(
    enu: np.ndarray,
    origin: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Inverse of :func:`project_enu` about the same origin."""
    lat0, lon0, alt0 = origin
    east, north, up = float(enu[0]), float(enu[1]), float(enu[2])
    lat = lat0 + math.degrees(north / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(east / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return (lat, lon, alt0 + up)


def compute_elevation(uav_enu: np.ndarray, tx_enu: np.ndarray) -> float:
    """Elevation angle of the UAV seen from the transmitter, in degrees.

    ``atan2(delta_up, d2d)``; the sign follows the up difference.  Raises
    :class:`UndefinedGeometryError` when the two points coincide.
    """
    d_east = float(uav_enu[0]) - float(tx_enu[0])
    d_north = float(uav_enu[1]) - float(tx_enu[1])
    d_up = float(uav_enu[2]) - float(tx_enu[2])
    d2d = math.hypot(d_east, d_north)
    if d2d == 0.0 and d_up == 0.0:
        raise UndefinedGeometryError("UAV and transmitter positions coincide")
    return math.degrees(math.atan2(d_up, d2d))


def euler_zyx_matrix(yaw_deg: float, pitch_deg: float, roll_deg: float) -> np.ndarray:
    """Body-to-NED rotation matrix for intrinsic Z-Y-X Euler angles."""
    cy, sy = math.cos(math.radians(yaw_deg)), math.sin(math.radians(yaw_deg))
    cp, sp = math.cos(math.radians(pitch_deg)), math.sin(math.radians(pitch_deg))
    cr, sr = math.cos(math.radians(roll_deg)), math.sin(math.radians(roll_deg))
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def _enu_to_ned(v: np.ndarray) -> np.ndarray:
    return np.array([v[1], v[0], -v[2]], dtype=float)


def compute_tilt(
    sample: MeasurementSample,
    tx_enu: np.ndarray,
    origin: tuple[float, float, float],
) -> LinkGeometry:
    """Full link geometry for one sample, including the body-frame tilt.

    Parameters
    ----------
    sample : MeasurementSample
        UAV state; its position is projected about ``origin``.
    tx_enu : ndarray, shape (3,)
        Transmitter antenna phase center in the same ENU frame.
    origin : (lat_deg, lon_deg, alt_m)
        Geodetic origin of the ENU frame (transmitter ground position).

    Returns
    -------
    LinkGeometry

    Notes
    -----
    The unit line-of-sight vector from the UAV to the transmitter is rotated
    from the world frame into the body frame with the transpose of the
    body-to-world matrix; ``theta_gs`` is its depression below the body x-y
    plane.  For a level airframe this equals ``theta`` for any yaw, so the
    tilt ``delta`` vanishes.  Pitching the nose down toward a transmitter
    dead ahead makes ``delta`` positive.
    """
    uav_enu = project_enu(sample.position, origin)
    theta = compute_elevation(uav_enu, tx_enu)

    los_enu = np.asarray(tx_enu, dtype=float) - uav_enu
    d3d = float(np.linalg.norm(los_enu))
    d2d = math.hypot(float(los_enu[0]), float(los_enu[1]))
    if d3d == 0.0:
        raise UndefinedGeometryError("UAV and transmitter positions coincide")

    los_ned = _enu_to_ned(los_enu / d3d)
    r_bw = euler_zyx_matrix(sample.yaw_deg, sample.pitch_deg, sample.roll_deg)
    los_body = r_bw.T @ los_ned
    horiz = math.hypot(float(los_body[0]), float(los_body[1]))
    # NED z points down, so a positive z component means the transmitter
    # sits below the body horizontal plane.
    theta_gs = math.degrees(math.atan2(float(los_body[2]), horiz))

    return LinkGeometry(
        theta_deg=theta,
        theta_gs_deg=theta_gs,
        delta_deg=theta - theta_gs,
        d2d_m=d2d,
        d3d_m=d3d,
        east_m=float(uav_enu[0]),
        north_m=float(uav_enu[1]),
        up_m=float(uav_enu[2]),
    )
