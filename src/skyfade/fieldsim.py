"""Synthetic flights and Gaussian shadow-fading fields with known truth.

A simulated dataset is built in three steps: a deterministic waypoint
walk produces timestamped poses (lawnmower or random-waypoint at fixed
altitude, with per-leg uniform pitch/roll excitation and yaw following
the leg heading); a correlated Gaussian field drawn from the truth model
supplies the shadow fading; the two-ray estimate plus optional white
noise turns that into measured RSRP rows.

All randomness flows from numpy's PCG64 generator seeded from the config
seed with fixed per-purpose stream offsets (trajectory, field, noise), so
a config reproduces its dataset bit for bit.

The field draw makes the rows :class:`KernelPoints` of the truth once and
never holds the whole n x n covariance.  It factors their
:class:`~skyfade.correlation.Covariance` as the Kriging solve does: the
block Cholesky (:func:`skyfade.kriging._cholesky_rows`, numpy alone)
reads the lower triangle a block row at a time, which the source builds
from the points when it is read, and overwrites each with L's rows.  So
5000 samples need about 100 MB, half the matrix, and the draw L @ g is
:func:`skyfade.kriging._lower_matvec` over those rows; only
:mod:`skyfade.kriging` knows the factor's tile layout.  A merely
semidefinite covariance falls back to a spectral square root (see
:func:`sample_sf_field`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .correlation import CorrelationModel, Covariance, KernelPoints, serialize_model
from .errors import NotPositiveDefiniteError, RowErrors, ValidationError
from .geometry import MeasurementSample, enu_to_geodetic, tilt_geometry
from .kriging import _cholesky_rows, _lower_matvec
from .propagation import LinkBudget, link_rsrp

RNG_ALGORITHM = "numpy-pcg64"
MAX_FIELD_SAMPLES = 5000
#: Most legs one sample's step may cross: a box tiny against the step fails.
MAX_STEP_LEGS = 1000
_STREAM_TRAJECTORY = 1
_STREAM_FIELD = 2
_STREAM_NOISE = 3


@dataclass(frozen=True)
class FlightSpec:
    """Fixed-altitude flight pattern inside an east/north box.

    ``path`` selects "lawnmower" (serpentine with ``n_passes`` parallel
    legs) or "waypoints" (uniform random waypoints).  Pitch and roll are
    redrawn per leg from zero-mean uniform distributions with the given
    half-amplitudes; yaw tracks the leg heading.
    """

    altitude_m: float = 28.0
    east_extent_m: tuple[float, float] = (-300.0, 300.0)
    north_extent_m: tuple[float, float] = (-300.0, 300.0)
    speed_mps: float = 10.0
    sample_interval_s: float = 1.0
    pitch_excitation_deg: float = 12.0
    roll_excitation_deg: float = 12.0
    path: str = "lawnmower"
    n_passes: int = 12

    def __post_init__(self):
        if self.path not in ("lawnmower", "waypoints"):
            raise ValidationError(f"unknown path kind: {self.path!r}")
        # A non-finite speed or interval would never end the waypoint walk.
        for name in (
            "altitude_m", "east_extent_m", "north_extent_m", "speed_mps", "sample_interval_s"
        ):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"flight {name} must be finite: {value}")
        if not (self.east_extent_m[0] < self.east_extent_m[1]):
            raise ValidationError("east extent must be a non-empty interval")
        if not (self.north_extent_m[0] < self.north_extent_m[1]):
            raise ValidationError("north extent must be a non-empty interval")
        if self.speed_mps <= 0.0 or self.sample_interval_s <= 0.0:
            raise ValidationError("speed and sample interval must be positive")
        for amp in (self.pitch_excitation_deg, self.roll_excitation_deg):
            if not 0.0 <= amp <= 90.0:
                raise ValidationError(f"excitation amplitude outside [0, 90]: {amp}")
        if self.n_passes < 2:
            raise ValidationError("need at least 2 lawnmower passes")


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to synthesize one dataset."""

    seed: int
    n_samples: int
    truth: CorrelationModel
    budget: LinkBudget
    flight: FlightSpec = field(default_factory=FlightSpec)
    noise_std_db: float = 0.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must not be negative: {self.seed}")
        if self.n_samples < 2:
            raise ValidationError("need at least 2 samples")
        if not 0.0 <= self.noise_std_db < math.inf:
            raise ValidationError(
                f"noise standard deviation must be finite and non-negative: {self.noise_std_db}"
            )
        if self.flight.altitude_m <= self.budget.antenna_height_m:
            raise ValidationError(
                "flight altitude must clear the transmitter antenna"
            )


@dataclass(frozen=True)
class TrajectoryPoint:
    """Pose at one sample instant, before any RSRP is attached."""

    time_s: float
    lat_deg: float
    lon_deg: float
    alt_m: float
    yaw_deg: float
    pitch_deg: float
    roll_deg: float

    @property
    def position(self) -> tuple[float, float, float]:
        return (self.lat_deg, self.lon_deg, self.alt_m)


_POSE_FIELDS = tuple(f.name for f in fields(TrajectoryPoint))


def _lawnmower_waypoints(spec: FlightSpec):
    e0, e1 = spec.east_extent_m
    rows = np.linspace(spec.north_extent_m[0], spec.north_extent_m[1], spec.n_passes)
    points = []
    for i, y in enumerate(rows):
        if i % 2 == 0:
            points.append((e0, y))
            points.append((e1, y))
        else:
            points.append((e1, y))
            points.append((e0, y))
    return points


def _walk(config: SimConfig) -> np.ndarray:
    """(n, 7) array of the flight's poses, one :class:`TrajectoryPoint`
    per row; see :func:`generate_trajectory`."""
    spec = config.flight
    rng = np.random.default_rng([config.seed, _STREAM_TRAJECTORY])

    if spec.path == "lawnmower":
        pattern = _lawnmower_waypoints(spec)

        def next_waypoint(k):
            return pattern[k % len(pattern)]

    else:
        e0, e1 = spec.east_extent_m
        n0, n1 = spec.north_extent_m

        def next_waypoint(_k):
            return (rng.uniform(e0, e1), rng.uniform(n0, n1))

    step = spec.speed_mps * spec.sample_interval_s

    def start_leg(pos, wp_index, last):
        """(index, waypoint, attitude) of the leg from ``pos`` to the first
        waypoint from ``wp_index`` on that is not np.allclose to ``pos``,
        which must come by waypoint ``last``."""
        while wp_index <= last:
            target = np.array(next_waypoint(wp_index), dtype=float)
            # np.allclose(target, pos) on scalars, without its array set-up.
            if not all(abs(t - p) <= 1e-8 + 1e-5 * abs(p)
                       for t, p in zip(target.tolist(), pos.tolist())):
                heading = math.degrees(math.atan2(target[0] - pos[0], target[1] - pos[1]))
                pitch = rng.uniform(-spec.pitch_excitation_deg, spec.pitch_excitation_deg)
                roll = rng.uniform(-spec.roll_excitation_deg, spec.roll_excitation_deg)
                return wp_index, target, (heading, pitch, roll)
            wp_index += 1
        raise ValidationError(f"flight box too small for the step: a {step:g} m"
                              f" step crosses over {MAX_STEP_LEGS} legs")

    pos = np.array(next_waypoint(0), dtype=float)
    wp_index, target, (yaw, pitch, roll) = start_leg(pos, 1, MAX_STEP_LEGS)
    rows = []
    for _ in range(config.n_samples):
        rows.append((pos[0], pos[1], yaw, pitch, roll))
        # Each leg the step crosses and each waypoint it skips moves the
        # index on by one.
        remaining, last = step, wp_index + MAX_STEP_LEGS
        while remaining > 0.0:
            leg = target - pos
            dist = float(np.hypot(leg[0], leg[1]))
            if dist <= remaining:
                pos = target.copy()
                remaining -= dist
                wp_index, target, (yaw, pitch, roll) = start_leg(pos, wp_index + 1, last)
            else:
                pos = pos + leg * (remaining / dist)
                remaining = 0.0
    walk = np.array(rows, dtype=float)
    up = np.full(len(walk), spec.altitude_m)
    lat, lon, alt = enu_to_geodetic((walk[:, 0], walk[:, 1], up), config.budget.origin)
    times = np.arange(len(walk)) * spec.sample_interval_s
    return np.column_stack((times, lat, lon, alt, walk[:, 2:]))


def generate_trajectory(config: SimConfig) -> list[TrajectoryPoint]:
    """Deterministic pose sequence for the configured flight.

    The walk advances speed * interval meters per sample along the
    waypoint polyline (cycling when a lawnmower pattern is exhausted) and
    redraws pitch and roll each time a new leg starts.  A step that
    crosses more than :data:`MAX_STEP_LEGS` legs, skipped waypoints
    included, raises ValidationError.
    """
    return [TrajectoryPoint(*row) for row in _walk(config).tolist()]


def _check_field_size(n: int) -> None:
    """The dense covariance caps a field draw at :data:`MAX_FIELD_SAMPLES`."""
    if n > MAX_FIELD_SAMPLES:
        raise ValidationError(
            f"field synthesis capped at {MAX_FIELD_SAMPLES} samples, got {n}"
        )


def sample_sf_field(geometries, truth: CorrelationModel, seed) -> np.ndarray:
    """Draw one realization of the SF field at the given geometries.

    The covariance sigma2 * r_hat + nugget * I of the truth model, which
    every model makes positive semidefinite, is factored as
    L L^T: a blocked, numpy-only Cholesky over its lower triangle, built a
    block row at a time, when it is positive definite, otherwise a
    spectral square root of the dense matrix with rounding-level negative
    eigenvalues clipped to zero (exact for merely semidefinite
    covariances, e.g. perfectly correlated duplicate geometries with no
    nugget).  Returns mu + L @ g with g standard normal from the seeded
    generator.
    """
    n = len(geometries)
    if n == 0:
        raise ValidationError("need at least one geometry")
    _check_field_size(n)
    points = KernelPoints.of(truth, geometries)
    g = np.random.default_rng(seed).standard_normal(n)

    cov = Covariance(truth, points)
    try:
        rows, _ = _cholesky_rows(cov, 0.0)
    except np.linalg.LinAlgError:
        pass  # the failed factor's rows are dropped with the exception
    else:
        return truth.mu + _lower_matvec(rows, g)
    cov = cov[:, :]
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] < -1.0e-8 * truth.sigma2:
        raise NotPositiveDefiniteError(
            f"covariance is indefinite (min eigenvalue {eigvals[0]:g})"
        )
    # Scaled in place, the eigenvectors are the square root: with the
    # covariance that makes two n x n buffers, not three.
    eigvecs *= np.sqrt(np.clip(eigvals, 0.0, None))
    return truth.mu + eigvecs @ g


def synthesize_dataset(config: SimConfig) -> list[MeasurementSample]:
    """Full synthetic dataset: poses, truth SF field, two-ray RSRP, noise.

    The emitted samples carry z = rsrp_est + w + noise, so decomposing
    them against the same link budget recovers the synthesized shadow
    fading (exactly, when the noise is zero).  More than
    :data:`MAX_FIELD_SAMPLES` rows fail before the walk; :class:`SimConfig`
    allows any size, since :func:`generate_trajectory` has no cap.
    """
    _check_field_size(config.n_samples)
    poses = _walk(config)
    budget = config.budget
    columns = dict(zip(_POSE_FIELDS, poses.T))
    geometry = RowErrors.strict(tilt_geometry, columns, budget.tx_enu, budget.origin)
    estimate = RowErrors.strict(link_rsrp, geometry, budget)
    w = sample_sf_field(geometry, config.truth, [config.seed, _STREAM_FIELD])
    # A scale of 0 draws exact zeros.
    noise = np.random.default_rng([config.seed, _STREAM_NOISE]).normal(
        0.0, config.noise_std_db, len(geometry)
    )
    rsrp = estimate + w + noise
    return [
        MeasurementSample(*row, z) for row, z in zip(poses.tolist(), rsrp.tolist())
    ]


def truth_sidecar(config: SimConfig) -> dict:
    """Sidecar document for a synthesized dataset.

    The top level is a valid model document (the truth model) extended
    with a ``sim`` section recording the seed and generator.
    """
    doc = serialize_model(config.truth)
    doc["sim"] = {
        "seed": config.seed,
        "rng": RNG_ALGORITHM,
        "n_samples": config.n_samples,
        "noise_std_db": config.noise_std_db,
    }
    return doc
