"""Angle-aware shadow-fading correlation model.

The correlation between two shadow-fading samples factors into a distance
term and two angular terms:

    r_hat(i, j) = R_d(d2d_ij) * exp(-|u_t(i) - u_t(j)|) * exp(-|u_e(i) - u_e(j)|)

``R_d`` is a double-exponential decay in horizontal separation.  The
angular terms are Laplace kernels in warped angles (the deformation
approach of Sampson & Guttorp 1992): u_t(i) integrates the tilt decay rate
from 0 to sample i's tilt, with the rate of each tilt bin read from the
tilt-rate table's column for sample i's own elevation bin, and u_e(i)
integrates the elevation rate the same way within sample i's tilt bin.
The model stores just these two tables, one rate in 1/deg per (angle bin,
conditioning bin) cell; capped and absent cells have rate 0.

exp(-|f(x) - f(y)|) is positive semidefinite for any map f, the DEDM is a
mixture of exponentials, and products of such kernels stay semidefinite
(Schur), so every model is a valid correlation with r_hat(i, i) = 1.  Two
samples in the same (tilt, elevation) cell decay at exactly the cell's
rate in each angle.  Samples in different cells may not: two samples with
the same tilt delta != 0 in elevation bins of different rates get a
nonzero tilt separation.

The rates are estimated from binned empirical correlations computed on
sorted, quantile-balanced sample vectors against the global SF mean: each
cell's rate is 1/2 (r+ + r-) of two log-domain least-squares fits, one
toward larger and one toward smaller angles.  The same sorted-pair
construction is exposed for reuse by the fitting code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCorrelationError,
    InsufficientCoverageError,
    SchemaError,
    ValidationError,
)
from .geometry import Geometry
from .propagation import SfTable, sf_statistics

MODES = ("baseline", "angle_aware", "tilt_only", "elev_only")

#: Decay constant assigned when the data shows no decay (all rho at 1).
Q_CAP_DEG = 1.0e6
#: Correlations are clamped to [RHO_FLOOR, 1] before log-domain fitting.
RHO_FLOOR = 1.0e-3
DEFAULT_MIN_CELL_COUNT = 30
DEFAULT_NUGGET_FACTOR = 1.0e-6
#: Output rows filled per pass by :func:`correlation_matrix`; bounds the
#: size of its per-block temporaries.
CORRELATION_BLOCK_ROWS = 128
SCHEMA_VERSION = 2

DEFAULT_TILT_EDGES = (-math.inf, -7.0, -3.0, 3.0, 7.0, math.inf)
DEFAULT_TILT_REPS = (-10.0, -5.0, 0.0, 5.0, 10.0)
DEFAULT_ELEV_EDGES = (0.0, 10.0, 30.0, 50.0, 90.0)
DEFAULT_ELEV_REPS = (5.0, 20.0, 40.0, 70.0)


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class AngleBins:
    """Tilt and elevation bin edges with per-bin representative angles.

    A value v falls in bin k when ``edges[k] < v <= edges[k+1]``; the outer
    tilt edges default to +-infinity so every tilt is covered, while
    elevations must lie in (0, 90].
    """

    tilt_edges: tuple[float, ...] = DEFAULT_TILT_EDGES
    tilt_reps: tuple[float, ...] = DEFAULT_TILT_REPS
    elev_edges: tuple[float, ...] = DEFAULT_ELEV_EDGES
    elev_reps: tuple[float, ...] = DEFAULT_ELEV_REPS

    def __post_init__(self):
        for edges, reps, label in (
            (self.tilt_edges, self.tilt_reps, "tilt"),
            (self.elev_edges, self.elev_reps, "elevation"),
        ):
            e = np.asarray(edges, dtype=float)
            if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0.0):
                raise ValidationError(f"{label} edges must be strictly increasing")
            if len(reps) != e.size - 1:
                raise ValidationError(
                    f"{label}: need {e.size - 1} representatives, got {len(reps)}"
                )
            for k, rep in enumerate(reps):
                lo, hi = e[k], e[k + 1]
                if math.isfinite(lo) and math.isfinite(hi) and not lo <= rep <= hi:
                    raise ValidationError(
                        f"{label} representative {rep} outside bin ({lo}, {hi}]"
                    )

    @property
    def n_tilt(self) -> int:
        return len(self.tilt_reps)

    @property
    def n_elev(self) -> int:
        return len(self.elev_reps)

    @staticmethod
    def _locate(values, edges) -> tuple[np.ndarray, np.ndarray]:
        """Bin indices and an in-range mask; indices are meaningless where
        the mask is False (non-finite or outside (edges[0], edges[-1]])."""
        v = np.asarray(values, dtype=float)
        e = np.asarray(edges, dtype=float)
        ok = np.isfinite(v) & (v > e[0]) & (v <= e[-1])
        return np.searchsorted(e[1:-1], v, side="left"), ok

    def _indices(self, values, edges, label: str) -> np.ndarray:
        idx, ok = self._locate(values, edges)
        if not np.all(ok):
            e = np.asarray(edges, dtype=float)
            bad = np.atleast_1d(np.asarray(values, dtype=float))[~np.atleast_1d(ok)]
            raise ValidationError(
                f"{label} value(s) outside ({e[0]}, {e[-1]}]: {bad[:5].tolist()}"
            )
        return idx

    def tilt_indices(self, delta_deg) -> np.ndarray:
        return self._indices(delta_deg, self.tilt_edges, "tilt")

    def elev_indices(self, theta_deg) -> np.ndarray:
        return self._indices(theta_deg, self.elev_edges, "elevation")


@dataclass(frozen=True)
class DedmParams:
    """Double-exponential distance decay a*exp(-p1*d) + (1-a)*exp(-p2*d)."""

    a: float
    p1: float
    p2: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValidationError(f"mixing weight a must be in [0, 1]: {self.a}")
        if not (self.p1 > 0.0 and self.p2 > 0.0):
            raise ValidationError(f"decay rates must be positive: {self.p1}, {self.p2}")
        if not (math.isfinite(self.p1) and math.isfinite(self.p2)):
            raise ValidationError("decay rates must be finite")


def dedm_eval(params: DedmParams, d2d_m):
    """Distance correlation at horizontal separation(s) ``d2d_m`` >= 0."""
    d = np.asarray(d2d_m, dtype=float)
    if np.any(d < 0.0):
        raise ValidationError("separations must be non-negative")
    out = params.a * np.exp(-params.p1 * d) + (1.0 - params.a) * np.exp(-params.p2 * d)
    return float(out) if np.isscalar(d2d_m) else out


def _q_rate(q_deg: float) -> float:
    """Decay rate 1/q of a decay constant in degrees; 0 for constants at or
    above :data:`Q_CAP_DEG` (infinity included), which mean "no observable
    decay"."""
    if not q_deg > 0.0:
        raise ValidationError(f"decay constants must be positive: {q_deg}")
    return 0.0 if q_deg >= Q_CAP_DEG else 1.0 / q_deg


def _rate_table(rates, shape: tuple[int, int], name: str) -> np.ndarray:
    """A read-only float copy of ``rates`` (zeros when None), checked to be
    finite and non-negative with ``shape``."""
    table = np.zeros(shape) if rates is None else np.array(rates, dtype=float)
    if table.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.all(np.isfinite(table) & (table >= 0.0)):
        raise ValidationError(f"{name} must be finite and non-negative")
    table.setflags(write=False)
    return table


@dataclass
class CorrelationModel:
    """Fitted SF statistics plus the distance and angular correlation terms.

    The angular terms are two decay-rate tables in 1/deg:
    ``tilt_rates[t, e]`` is the tilt rate of tilt bin t for samples in
    elevation bin e, shape (n_tilt, n_elev), and ``elev_rates[e, t]`` the
    elevation rate of elevation bin e for samples in tilt bin t, shape
    (n_elev, n_tilt).  Rates are finite and non-negative; a rate of 0
    means no angular decay (a capped, excluded or absent cell).  Omitted
    tables are all zero.  Instances are treated as immutable after
    construction, and the tables are stored read-only.
    """

    mu: float
    sigma2: float
    dedm: DedmParams
    bins: AngleBins = field(default_factory=AngleBins)
    tilt_rates: np.ndarray | None = None
    elev_rates: np.ndarray | None = None
    nugget: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma2 < math.inf):
            raise ValidationError(
                f"need finite mu and finite positive sigma2, got {self.mu}, {self.sigma2}"
            )
        if not 0.0 <= self.nugget < math.inf:
            raise ValidationError(f"nugget must be finite and non-negative: {self.nugget}")
        nt, ne = self.bins.n_tilt, self.bins.n_elev
        self.tilt_rates = _rate_table(self.tilt_rates, (nt, ne), "tilt_rates")
        self.elev_rates = _rate_table(self.elev_rates, (ne, nt), "elev_rates")

    @classmethod
    def with_uniform_kernels(
        cls,
        mu: float,
        sigma2: float,
        dedm: DedmParams,
        *,
        bins: AngleBins | None = None,
        q_pos_deg: float = math.inf,
        r_pos_deg: float = math.inf,
        nugget: float = 0.0,
    ) -> "CorrelationModel":
        """Model with one tilt rate 1/q_pos_deg and one elevation rate
        1/r_pos_deg everywhere (0 for constants at or above
        :data:`Q_CAP_DEG`).

        Defaults build flat kernels, which makes the full model coincide
        with the distance-only baseline.
        """
        bins = bins if bins is not None else AngleBins()
        return cls(
            mu=mu, sigma2=sigma2, dedm=dedm, bins=bins,
            tilt_rates=np.full((bins.n_tilt, bins.n_elev), _q_rate(q_pos_deg)),
            elev_rates=np.full((bins.n_elev, bins.n_tilt), _q_rate(r_pos_deg)),
            nugget=nugget,
        )


def _warp(x, edges, rates):
    """Warped angles u(x) = integral of the rate from 0 to x.

    ``rates`` is (len(x), n_bins): each sample's own row of per-bin rates.
    """
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    span = np.clip(x[:, None], lo, hi) - np.clip(0.0, lo, hi)
    return np.sum(rates * span, axis=1)


def _warped_angles(model, geoms, mode):
    """The warped angles ``mode`` uses, one array per angle.

    Validates both angles in every angular mode.
    """
    bins = model.bins
    bt = bins.tilt_indices(geoms.delta_deg)
    be = bins.elev_indices(geoms.theta_deg)
    out = []
    if mode in ("angle_aware", "tilt_only"):
        out.append(_warp(geoms.delta_deg, bins.tilt_edges, model.tilt_rates[:, be].T))
    if mode in ("angle_aware", "elev_only"):
        out.append(_warp(geoms.theta_deg, bins.elev_edges, model.elev_rates[:, bt].T))
    return out


def correlation_matrix(
    model: CorrelationModel,
    geoms_a,
    geoms_b=None,
    mode: str = "angle_aware",
) -> np.ndarray:
    """Dense model correlation between two sets of link geometries.

    Returns an (len(a), len(b)) matrix.  Each side is a :class:`Geometry`
    or a sequence of :class:`LinkGeometry`; ``geoms_b`` defaults to
    ``geoms_a``.

    Each sample's warped angles are computed once; an entry is then the
    distance term times one exponential of the summed absolute warped
    separations.  The output is filled in blocks of
    :data:`CORRELATION_BLOCK_ROWS` rows, so no other (len(a), len(b))
    array is allocated; in the square case only the upper triangle is
    computed and mirrored, which makes the result exactly symmetric.
    """
    check_mode(mode)
    square = geoms_b is None
    a = Geometry.of(geoms_a)
    b = a if square else Geometry.of(geoms_b)
    warps = []
    if mode != "baseline":
        u_a = _warped_angles(model, a, mode)
        u_b = u_a if square else _warped_angles(model, b, mode)
        warps = list(zip(u_a, u_b))

    ea, na, eb, nb = a.east_m, a.north_m, b.east_m, b.north_m
    out = np.empty((ea.size, eb.size))
    for r0 in range(0, ea.size, CORRELATION_BLOCK_ROWS):
        rows = slice(r0, r0 + CORRELATION_BLOCK_ROWS)
        cols = slice(r0 if square else 0, None)
        block = out[rows, cols]
        dist = np.hypot(
            ea[rows, None] - eb[None, cols], na[rows, None] - nb[None, cols]
        )
        r_d = dedm_eval(model.dedm, dist)
        if warps:
            expo = np.zeros_like(block)
            for wa, wb in warps:
                expo -= np.abs(wa[rows, None] - wb[None, cols])
            np.exp(expo, out=expo)
            np.multiply(r_d, expo, out=block)
        else:
            block[...] = r_d
        if square:
            out[rows.stop:, rows] = out[rows, rows.stop:].T
    return out


# ---------------------------------------------------------------------------
# Empirical estimation


def balance_resample(w_ref, w_other) -> tuple[np.ndarray, np.ndarray]:
    """Sort both vectors and equalize their lengths by quantile resampling.

    The shorter vector is replaced by its empirical quantile function
    sampled at evenly spaced order-statistic positions, i.e. linear
    interpolation of the sorted values onto the longer length.  The longer
    vector is returned sorted unchanged.
    """
    a = np.sort(np.asarray(w_ref, dtype=float))
    b = np.sort(np.asarray(w_other, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("both sample vectors must be non-empty")

    def expand(short: np.ndarray, n: int) -> np.ndarray:
        if short.size == n:
            return short
        if short.size == 1:
            return np.full(n, short[0])
        return np.interp(
            np.linspace(0.0, short.size - 1.0, n),
            np.arange(short.size, dtype=float),
            short,
        )

    n = max(a.size, b.size)
    return expand(a, n), expand(b, n)


def empirical_angular_correlation(w_ref, w_other, mu: float) -> float:
    """Correlation of two sorted SF vectors about the global mean ``mu``.

    Both deviations are taken from the shared dataset mean rather than the
    per-vector means, so systematic offsets between the two conditions
    lower the value.  Inputs must be equal-length and sorted ascending
    (the output of :func:`balance_resample`).
    """
    a = np.asarray(w_ref, dtype=float)
    b = np.asarray(w_other, dtype=float)
    if a.size != b.size or a.size == 0:
        raise ValidationError("inputs must be non-empty and equal length")
    if np.any(np.diff(a) < 0.0) or np.any(np.diff(b) < 0.0):
        raise ValidationError("inputs must be sorted ascending")
    da = a - mu
    db = b - mu
    na = math.sqrt(float(np.dot(da, da)))
    nb = math.sqrt(float(np.dot(db, db)))
    if na == 0.0 or nb == 0.0:
        raise DegenerateCorrelationError(
            "a sample vector is constant at the global mean"
        )
    return float(np.dot(da, db)) / (na * nb)


@dataclass
class AngularProfile:
    """Binned empirical correlations with per-cell population counts.

    ``rho`` has shape (n_cond, n_ref, n_ref) and holds NaN for cell pairs
    whose population fell below the minimum count; ``counts`` has shape
    (n_cond, n_ref).
    """

    rho: np.ndarray
    counts: np.ndarray


def _estimate_profile(cells, mu, min_count):
    """Sorted-pair correlations within each row of a (cond, ref) cell grid.

    ``cells[c, i]`` holds the SF values of conditioning bin c and
    reference bin i.
    """
    counts = np.array([[w.size for w in row] for row in cells], dtype=int)
    n_cond, n_ref = counts.shape
    floor = max(min_count, 1)
    rho = np.full((n_cond, n_ref, n_ref), np.nan)
    for c in range(n_cond):
        for i in range(n_ref):
            if counts[c, i] < floor:
                continue
            rho[c, i, i] = 1.0
            for j in range(i + 1, n_ref):
                if counts[c, j] < floor:
                    continue
                wa, wb = balance_resample(cells[c, i], cells[c, j])
                try:
                    value = empirical_angular_correlation(wa, wb, mu)
                except DegenerateCorrelationError:
                    continue
                rho[c, i, j] = value
                rho[c, j, i] = value
    return AngularProfile(rho=rho, counts=counts)


def _bin_cells(samples, bins: AngleBins):
    """Group SF values into the (elevation bin, tilt bin) grid in one pass.

    Returns ``(cells, dropped)``: ``cells`` is an (n_elev, n_tilt) object
    array whose entries hold each cell's SF values in sample order (empty
    where no sample fell), and ``dropped`` counts the samples left out
    because either angle lies outside the bins.
    """
    table = SfTable.of(samples)
    sf = table.sf_db
    e, e_ok = bins._locate(table.geometry.theta_deg, bins.elev_edges)
    t, t_ok = bins._locate(table.geometry.delta_deg, bins.tilt_edges)
    keep = e_ok & t_ok
    flat = e[keep] * bins.n_tilt + t[keep]
    order = np.argsort(flat, kind="stable")  # stable: sample order per cell
    sizes = np.bincount(flat, minlength=bins.n_elev * bins.n_tilt)
    cells = np.empty(sizes.size, dtype=object)
    for k, values in enumerate(np.split(sf[keep][order], np.cumsum(sizes)[:-1])):
        cells[k] = values
    return cells.reshape(bins.n_elev, bins.n_tilt), int(keep.size - keep.sum())


def estimate_tilt_profile(
    samples,
    bins: AngleBins,
    mu: float,
    min_count: int = DEFAULT_MIN_CELL_COUNT,
) -> AngularProfile:
    """Empirical tilt-bin correlation matrices, one per elevation bin.

    ``rho[e, i, j]`` is the sorted-pair correlation between the SF values
    observed in tilt bins i and j at elevation bin e; under-populated cells
    stay NaN (absent, not zero).
    """
    cells, _ = _bin_cells(samples, bins)
    return _estimate_profile(cells, mu, min_count)


def estimate_elev_profile(
    samples,
    bins: AngleBins,
    mu: float,
    min_count: int = DEFAULT_MIN_CELL_COUNT,
) -> AngularProfile:
    """Empirical elevation-bin correlation matrices, one per tilt bin.

    ``rho[t, i, j]`` correlates elevation bins i and j within tilt bin t;
    ``counts[t, e]`` gives the cell populations.
    """
    cells, _ = _bin_cells(samples, bins)
    return _estimate_profile(cells.T, mu, min_count)


# ---------------------------------------------------------------------------
# Distance-decay fitting


@dataclass
class Correlogram:
    """Binned normalized covariance versus horizontal separation.

    ``lag_m`` holds the mean pair distance per lag (NaN where empty),
    ``rho`` the normalized covariance, ``counts`` the pair populations.
    """

    lag_m: np.ndarray
    rho: np.ndarray
    counts: np.ndarray


def empirical_correlogram(
    samples,
    mu: float,
    sigma2: float,
    max_lag_m: float,
    n_lags: int,
    empty_tol: float = 0.2,
) -> Correlogram:
    """Normalized covariance of SF pairs binned by horizontal distance.

    Pairs are assigned to ``n_lags`` equal-width bins covering
    [0, max_lag_m); each pair contributes (w_i - mu)(w_j - mu)/sigma2.
    Raises :class:`InsufficientCoverageError` when more than ``empty_tol``
    of the lags are empty.
    """
    if n_lags < 1 or max_lag_m <= 0.0:
        raise ValidationError("need n_lags >= 1 and a positive max lag")
    if sigma2 <= 0.0:
        raise DegenerateCorrelationError("zero SF variance; correlogram undefined")
    table = SfTable.of(samples)
    east, north = table.geometry.east_m, table.geometry.north_m
    dev = table.sf_db - mu
    n = east.size
    if n < 2:
        raise ValidationError("need at least two samples")

    width = max_lag_m / n_lags
    prod_sum = np.zeros(n_lags)
    dist_sum = np.zeros(n_lags)
    count = np.zeros(n_lags, dtype=np.int64)
    chunk = 512
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        d = np.hypot(
            east[i0:i1, None] - east[None, i0:],
            north[i0:i1, None] - north[None, i0:],
        )
        upper = np.arange(i0, n)[None, :] > np.arange(i0, i1)[:, None]
        keep = upper & (d < max_lag_m)
        if not np.any(keep):
            continue
        dk = d[keep]
        idx = np.minimum((dk / width).astype(np.int64), n_lags - 1)
        pk = (dev[i0:i1, None] * dev[None, i0:])[keep]
        prod_sum += np.bincount(idx, weights=pk, minlength=n_lags)
        dist_sum += np.bincount(idx, weights=dk, minlength=n_lags)
        count += np.bincount(idx, minlength=n_lags)

    empty = np.flatnonzero(count == 0)
    if empty.size > empty_tol * n_lags:
        raise InsufficientCoverageError(
            f"{empty.size} of {n_lags} lag bins are empty", missing=empty.tolist()
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(count > 0, prod_sum / np.maximum(count, 1) / sigma2, np.nan)
        lag = np.where(count > 0, dist_sum / np.maximum(count, 1), np.nan)
    return Correlogram(lag_m=lag, rho=rho, counts=count)


def _fit_distance(samples, max_lag_m, n_lags, empty_tol=0.2):
    """SF statistics, correlogram and DEDM fit, each computed once.

    ``max_lag_m`` defaults to half the bounding-box diagonal of the sample
    positions.  Returns ``(mu, sigma2, correlogram, dedm)``.
    """
    # Imported here: scipy.optimize adds about 0.1 s to every command's
    # start-up, and only fitting uses it.
    from scipy.optimize import least_squares

    samples = SfTable.of(samples)
    mu, sigma2 = sf_statistics(samples)
    if sigma2 <= 0.0:
        raise DegenerateCorrelationError("constant SF; nothing to fit")
    if max_lag_m is None:
        east, north = samples.geometry.east_m, samples.geometry.north_m
        max_lag_m = 0.5 * math.hypot(
            float(east.max() - east.min()), float(north.max() - north.min())
        )
        if max_lag_m <= 0.0:
            raise ValidationError("samples have no horizontal extent")
    if n_lags < 3:
        raise ValidationError("need at least 3 lags to fit 3 parameters")

    gram = empirical_correlogram(samples, mu, sigma2, max_lag_m, n_lags, empty_tol)
    mask = gram.counts > 0
    lags = gram.lag_m[mask]
    rho = gram.rho[mask]

    def residual(x):
        a, p1, p2 = x
        return a * np.exp(-p1 * lags) + (1.0 - a) * np.exp(-p2 * lags) - rho

    x0 = np.array([0.5, 1.0 / (0.05 * max_lag_m), 1.0 / (0.7 * max_lag_m)])
    result = least_squares(
        residual,
        x0,
        bounds=([0.0, 1e-8, 1e-8], [1.0, 10.0, 10.0]),
        method="trf",
    )
    a, p1, p2 = result.x
    if p1 < p2:  # canonical order: fast component first
        a, p1, p2 = 1.0 - a, p2, p1
    return mu, sigma2, gram, DedmParams(a=float(a), p1=float(p1), p2=float(p2))


def fit_dedm(
    samples,
    max_lag_m: float | None = None,
    n_lags: int = 24,
    empty_tol: float = 0.2,
) -> DedmParams:
    """Fit the double-exponential distance decay to the correlogram.

    ``max_lag_m`` defaults to half the bounding-box diagonal of the sample
    positions.  The three parameters are estimated by bounded nonlinear
    least squares over the non-empty lags and returned with the faster
    decay first (p1 >= p2).
    """
    return _fit_distance(samples, max_lag_m, n_lags, empty_tol)[3]


# ---------------------------------------------------------------------------
# Full model fit


@dataclass
class FitResult:
    """Everything produced by a model fit, for reporting and export."""

    model: CorrelationModel
    tilt_profile: AngularProfile
    elev_profile: AngularProfile
    correlogram: Correlogram
    excluded_cells: list
    warnings: list


def _fit_rates(rho, reps, center_ref, single_center, label, warnings):
    """Decay-rate table (n_ref, n_cond) fitted to a profile ``rho`` of shape
    (n_cond, n_ref, n_ref).

    Each cell's rate is 1/2 (r+ + r-).  r+ is fitted to the finite profile
    points toward larger representatives, r- to those toward smaller ones:
    the log-domain least-squares constant q = sum(s^2) / (-sum(s ln rho)),
    with rho clamped to [RHO_FLOOR, 1], gives r = 1/q, and a fit that shows
    no decay (q capped at :data:`Q_CAP_DEG`) gives 0.  A direction with no
    points takes the other direction's rate; a cell with none has rate 0
    and is named in a warning.  With ``single_center`` every reference bin
    takes the rate fitted at ``center_ref``.
    """
    reps = np.asarray(reps, dtype=float)
    refs = [center_ref] if single_center else list(range(rho.shape[1]))
    r = rho[:, refs, :]  # (n_cond, n_fit, n_ref): each fitted row's points
    sep = reps[None, :] - reps[refs, None]  # other minus reference
    used = np.isfinite(r)
    used[:, np.arange(len(refs)), refs] = False
    if np.any(used & ~((np.abs(sep) > 0.0) & np.isfinite(sep))):
        raise ValidationError(
            f"{label}: representatives of bins with profile points must differ"
            " and be finite"
        )
    log_rho = np.log(np.clip(np.where(used, r, 1.0), RHO_FLOOR, 1.0))

    def direction(side):
        """The rate fitted to each row's points on one side, and whether
        the row has any."""
        s = np.where(side, np.abs(sep), 0.0)
        denom = -np.sum(s * log_rho, axis=-1)
        q = np.divide(
            np.sum(s * s, axis=-1), denom,
            out=np.full(denom.shape, np.inf), where=denom > 0.0,
        )
        return np.where(q < Q_CAP_DEG, 1.0 / q, 0.0), np.any(side, axis=-1)

    pos, has_pos = direction(used & (sep > 0.0))
    neg, has_neg = direction(used & (sep < 0.0))
    cell = 0.5 * (np.where(has_pos, pos, neg) + np.where(has_neg, neg, pos))
    empty = ~(has_pos | has_neg)
    for cond in np.flatnonzero(np.any(empty, axis=1)).tolist():
        if single_center:
            warnings.append(
                f"{label}: conditioning bin {cond} has no usable center-reference"
                " pairs; kernels left absent"
            )
        else:
            warnings.append(
                f"{label}: conditioning bin {cond} reference bins"
                f" {np.flatnonzero(empty[cond]).tolist()} have no usable pairs;"
                " kernels left absent"
            )
    return np.broadcast_to(cell, (rho.shape[0], rho.shape[1])).T


def fit_correlation_model(
    samples,
    *,
    bins: AngleBins | None = None,
    max_lag_m: float | None = None,
    n_lags: int = 24,
    min_count: int = DEFAULT_MIN_CELL_COUNT,
    single_center: bool = False,
    nugget_factor: float = DEFAULT_NUGGET_FACTOR,
) -> FitResult:
    """Estimate the full correlation model from decomposed SF samples.

    One pass over the data: the SF statistics, the distance correlogram
    (fitted to the DEDM) and the (elevation, tilt) cell grid are each
    computed once; the tilt profile correlates the grid's rows and the
    elevation profile its columns.  Each profile is then fitted to one
    decay-rate table.  With ``single_center`` each conditioning bin gets
    one rate fitted at the center reference bin (tilt: the bin containing
    zero tilt; elevation: the most populated bin), shared across reference
    bins.  Samples with an angle outside the bins are
    left out of the profiles and counted in a warning.
    """
    bins = bins if bins is not None else AngleBins()
    samples = SfTable.of(samples)
    mu, sigma2, gram, dedm = _fit_distance(samples, max_lag_m, n_lags)

    cells, dropped = _bin_cells(samples, bins)
    tilt_profile = _estimate_profile(cells, mu, min_count)
    elev_profile = _estimate_profile(cells.T, mu, min_count)

    excluded = []
    for e in range(bins.n_elev):
        for t in range(bins.n_tilt):
            count = int(tilt_profile.counts[e, t])
            if 0 < count < min_count:
                excluded.append(
                    {"elev_bin": e, "tilt_bin": t, "count": count, "min_count": min_count}
                )

    warnings: list[str] = []
    if dropped:
        warnings.append(
            f"{dropped} sample(s) outside the angle bins left out of the"
            " angular profiles"
        )
    try:
        center_tilt = int(bins.tilt_indices([0.0])[0])
    except ValidationError:
        center_tilt = bins.n_tilt // 2
    center_elev = int(np.argmax(elev_profile.counts.sum(axis=0)))

    tilt_rates = _fit_rates(
        tilt_profile.rho, bins.tilt_reps, center_tilt, single_center, "tilt", warnings
    )
    elev_rates = _fit_rates(
        elev_profile.rho, bins.elev_reps, center_elev, single_center, "elevation",
        warnings,
    )

    model = CorrelationModel(
        mu=mu,
        sigma2=sigma2,
        dedm=dedm,
        bins=bins,
        tilt_rates=tilt_rates,
        elev_rates=elev_rates,
        nugget=nugget_factor * sigma2,
    )
    return FitResult(
        model=model,
        tilt_profile=tilt_profile,
        elev_profile=elev_profile,
        correlogram=gram,
        excluded_cells=excluded,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Serialization


def _encode_number(x: float):
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def _decode_number(
    x, path: str, integer: bool = False, doc: str = "model document"
) -> float | int:
    """A JSON number, or the string "inf"/"-inf", at field ``path`` of a
    ``doc``.  Booleans are not numbers.  With ``integer`` the value must be
    integral (50.0 passes, 50.7 does not) and comes back as an int."""
    if isinstance(x, str) and x in ("inf", "-inf"):
        x = float(x)
    ok = isinstance(x, (int, float)) and not isinstance(x, bool)
    if ok and integer and isinstance(x, float):
        ok = x.is_integer()
    if not ok:
        kind = "an integer" if integer else "a number"
        raise SchemaError(f"{doc} field '{path}' must be {kind}, got {x!r}", field=path)
    return int(x) if integer else float(x)


def serialize_model(model: CorrelationModel) -> dict:
    """Model as a JSON-ready dict (schema version 2).

    The rate tables become nested lists, ``tilt_rates[tilt][elev]`` and
    ``elev_rates[elev][tilt]``; infinite bin edges are encoded as the
    strings "inf"/"-inf".
    """
    return {
        "version": SCHEMA_VERSION,
        "mu": model.mu,
        "sigma2": model.sigma2,
        "dedm": {"a": model.dedm.a, "p1": model.dedm.p1, "p2": model.dedm.p2},
        "bins": {
            "tilt_edges": [_encode_number(v) for v in model.bins.tilt_edges],
            "tilt_reps": list(model.bins.tilt_reps),
            "elev_edges": [_encode_number(v) for v in model.bins.elev_edges],
            "elev_reps": list(model.bins.elev_reps),
        },
        "tilt_rates": model.tilt_rates.tolist(),
        "elev_rates": model.elev_rates.tolist(),
        "nugget": model.nugget,
    }


def _require(doc, key: str, where: str):
    """``doc[key]``, where ``doc`` is the field at path ``where`` (empty
    at the top level, else ending in ".") and must be a JSON object."""
    if not isinstance(doc, dict):
        name = where.rstrip(".")
        raise SchemaError(f"model document field '{name}' must be a JSON object", field=name)
    if key not in doc:
        raise SchemaError(f"model document missing field '{where}{key}'", field=where + key)
    return doc[key]


def _require_list(doc, key: str, where: str) -> list:
    value = _require(doc, key, where)
    if not isinstance(value, list):
        raise SchemaError(
            f"model document field '{where}{key}' must be a list", field=where + key
        )
    return value


def _require_number(doc, key: str, where: str) -> float:
    return _decode_number(_require(doc, key, where), where + key)


def _require_numbers(doc, key: str, where: str) -> tuple[float, ...]:
    values = _require_list(doc, key, where)
    return tuple(_decode_number(v, f"{where}{key}[{k}]") for k, v in enumerate(values))


def deserialize_model(doc: dict) -> CorrelationModel:
    """Rebuild a model from its serialized form, schema version 2 or 1.

    Version 1 stored each cell's two decay scales ``{q_pos, q_neg}`` (or
    ``null``) under ``tilt_kernels``/``elev_kernels``; each cell loads as
    its rate 1/2 (1/q_pos + 1/q_neg), where scales at or above
    :data:`Q_CAP_DEG` and ``null`` cells contribute 0.

    Raises :class:`SchemaError` naming the first missing field or the
    first field of the wrong JSON type; unknown extra fields are ignored.
    """
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    version = _require(doc, "version", "")
    if version not in (1, SCHEMA_VERSION):
        raise SchemaError(f"unsupported model schema version: {version}")

    dedm_doc = _require(doc, "dedm", "")
    dedm = DedmParams(
        a=_require_number(dedm_doc, "a", "dedm."),
        p1=_require_number(dedm_doc, "p1", "dedm."),
        p2=_require_number(dedm_doc, "p2", "dedm."),
    )
    bins_doc = _require(doc, "bins", "")
    bins = AngleBins(
        tilt_edges=_require_numbers(bins_doc, "tilt_edges", "bins."),
        tilt_reps=_require_numbers(bins_doc, "tilt_reps", "bins."),
        elev_edges=_require_numbers(bins_doc, "elev_edges", "bins."),
        elev_reps=_require_numbers(bins_doc, "elev_reps", "bins."),
    )

    def v1_rate(cell, where):
        # Version 1 stored each cell as its {q_pos, q_neg} scales, or null.
        if cell is None:
            return 0.0
        q_pos = _require_number(cell, "q_pos", where + ".")
        q_neg = _require_number(cell, "q_neg", where + ".")
        return 0.5 * (_q_rate(q_pos) + _q_rate(q_neg))

    def table(key, n_rows, n_cols, cell_value):
        rows = _require_list(doc, key, "")
        if len(rows) != n_rows or any(
            not isinstance(r, list) or len(r) != n_cols for r in rows
        ):
            raise SchemaError(f"{key} shape does not match bins", field=key)
        return [
            [cell_value(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]

    keys, cell_value = ("tilt_rates", "elev_rates"), _decode_number
    if version == 1:
        keys, cell_value = ("tilt_kernels", "elev_kernels"), v1_rate
    tilt_rates = table(keys[0], bins.n_tilt, bins.n_elev, cell_value)
    elev_rates = table(keys[1], bins.n_elev, bins.n_tilt, cell_value)
    return CorrelationModel(
        mu=_require_number(doc, "mu", ""),
        sigma2=_require_number(doc, "sigma2", ""),
        dedm=dedm,
        bins=bins,
        tilt_rates=tilt_rates,
        elev_rates=elev_rates,
        nugget=_require_number(doc, "nugget", ""),
    )


def save_model(model: CorrelationModel, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(serialize_model(model), indent=2, sort_keys=True) + "\n"
    )


def load_model(path: str | Path) -> CorrelationModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return deserialize_model(doc)
