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

In the coordinates (east, north, u_t, u_e), which :class:`KernelPoints`
holds for a row set under one model, the model is a plain product of
kernels, and :func:`correlation_matrix` builds every correlation from such
points only.  :class:`Covariance` is the one covariance built from them,
the nugget included: the Kriging solve reads C and the target covariances
from it a block at a time, and the field draw factors it.

:func:`fit_correlation_model` is the one fit.  It fits the DEDM to the
distance correlogram by least squares, and each rate table to a binned
angular profile: empirical correlations computed on sorted,
quantile-balanced sample vectors against the global SF mean.  Each
cell's rate is 1/2 (r+ + r-) of two log-domain least-squares fits, one
toward larger and one toward smaller angles.

The DEDM fit uses numpy alone (:func:`_fit_dedm`).  It is separable: for
fixed rates the weight a is linear and solved in closed form (variable
projection, Golub & Pereyra 2003), which leaves a search over the two
log-rates: a grid for start points, then a bounded Levenberg-Marquardt
refinement from the best few of them and from one fixed start.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateCorrelationError,
    InsufficientCoverageError,
    SchemaError,
    ValidationError,
)
from .geometry import Columns, Geometry
from .propagation import SfTable, sf_statistics
from .schema import JsonObject, decode, encode_number, read_json, write_json

MODES = ("baseline", "angle_aware", "tilt_only", "elev_only")

#: Decay constant assigned when the data shows no decay (all rho at 1).
Q_CAP_DEG = 1.0e6
#: Correlations are clamped to [RHO_FLOOR, 1] before log-domain fitting.
RHO_FLOOR = 1.0e-3
DEFAULT_MIN_CELL_COUNT = 30
DEFAULT_NUGGET_FACTOR = 1.0e-6
#: Entries per output tile of :func:`correlation_matrix`: a tile is as
#: many whole rows as fit (one row if a row is longer).  Its temporaries
#: are two tiles, 512 KB.
CORRELATION_TILE_ENTRIES = 2**15
#: Pairs per row block of :func:`empirical_correlogram`; bounds its memory.
CORRELOGRAM_BLOCK_PAIRS = 2**14
#: Largest share of empty lag bins :func:`empirical_correlogram` accepts.
EMPTY_LAG_TOL = 0.2
#: Bounds of the fitted DEDM rates p1 and p2, in 1/m.
RATE_BOUNDS = (1.0e-8, 10.0)
#: Points per log-rate axis of the DEDM fit's start grid.
DEDM_GRID = 41
#: Grid starts refined per DEDM fit, besides the fixed start.
DEDM_STARTS = 4
#: Gauss-Newton steps that polish each grid row's slow rate.
DEDM_PROFILE_STEPS = 12
#: Most Levenberg-Marquardt steps per refinement.
DEDM_MAX_STEPS = 500
#: Most Gauss-Newton steps that settle the chosen fit.
DEDM_POLISH_STEPS = 8
#: Points of the log-rate grid that settles a lone unresolved DEDM rate.
LONE_RATE_GRID = 401
SCHEMA_VERSION = 2
#: How errors name a model document.
MODEL_DOC = "model document"

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
                if not (math.isfinite(rep) and lo <= rep <= hi):
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


#: The fields of :class:`AngleBins`, as config and model documents name them.
BIN_FIELDS = tuple(f.name for f in fields(AngleBins))


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
    if not np.all(d >= 0.0):
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


# The default of an omitted rate table, which the model makes all zero; a
# table of None instead marks its angle unused.
_ZERO_TABLE = object()


def _rate_table(rates, shape: tuple[int, int], name: str) -> np.ndarray:
    """A read-only float copy of ``rates`` (zeros when omitted), checked to
    be finite and non-negative with ``shape``."""
    table = np.zeros(shape) if rates is _ZERO_TABLE else np.array(rates, dtype=float)
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
    construction, and the tables are stored read-only.  A table of None
    marks its angle unused: not warped, not checked.  :meth:`restricted`
    makes such models, a copy (``dataclasses.replace``) keeps the
    restriction, and :func:`serialize_model` refuses them.
    """

    mu: float
    sigma2: float
    dedm: DedmParams
    bins: AngleBins = field(default_factory=AngleBins)
    tilt_rates: np.ndarray | None = _ZERO_TABLE
    elev_rates: np.ndarray | None = _ZERO_TABLE
    nugget: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0.0 < self.sigma2 < math.inf):
            raise ValidationError(
                f"need finite mu and finite positive sigma2, got {self.mu}, {self.sigma2}"
            )
        if not 0.0 <= self.nugget < math.inf:
            raise ValidationError(f"nugget must be finite and non-negative: {self.nugget}")
        nt, ne = self.bins.n_tilt, self.bins.n_elev
        if self.tilt_rates is not None:
            self.tilt_rates = _rate_table(self.tilt_rates, (nt, ne), "tilt_rates")
        if self.elev_rates is not None:
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

        Defaults build all-zero tables, whose matrices are bitwise those of
        the baseline restriction; the model still checks both angles.
        """
        bins = bins if bins is not None else AngleBins()
        return cls(
            mu=mu, sigma2=sigma2, dedm=dedm, bins=bins,
            tilt_rates=np.full((bins.n_tilt, bins.n_elev), _q_rate(q_pos_deg)),
            elev_rates=np.full((bins.n_elev, bins.n_tilt), _q_rate(r_pos_deg)),
            nugget=nugget,
        )

    def restricted(self, mode: str) -> CorrelationModel:
        """The model as ``mode`` uses it: ``baseline`` marks both rate tables
        unused, ``tilt_only`` the elevation one, ``elev_only`` the tilt one."""
        check_mode(mode)
        return replace(
            self,
            tilt_rates=self.tilt_rates if mode in ("angle_aware", "tilt_only") else None,
            elev_rates=self.elev_rates if mode in ("angle_aware", "elev_only") else None,
        )


def _warp(x, edges, rates):
    """Warped angles u(x) = integral of the rate from 0 to x.

    ``rates`` is (len(x), n_bins): each sample's own row of per-bin rates.
    """
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    span = np.clip(x[:, None], lo, hi) - np.clip(0.0, lo, hi)
    return np.sum(rates * span, axis=1)


@dataclass(frozen=True, eq=False)
class KernelPoints(Columns):
    """Rows in the kernel's own coordinates: ENU east and north, and one
    column of ``warped`` per angle the model uses (u_t before u_e; 0, 1 or
    2 columns, see :meth:`CorrelationModel.restricted`)."""

    east_m: np.ndarray
    north_m: np.ndarray
    warped: np.ndarray

    @classmethod
    def of(cls, model, geoms) -> KernelPoints:
        """The points of ``geoms`` (a :class:`Geometry` or a sequence of
        link geometries) under ``model``, which validates both angles when
        it uses either, even where its tables are all zero."""
        g, bins, warped = Geometry.of(geoms), model.bins, []
        if model.tilt_rates is not None or model.elev_rates is not None:
            bt, be = bins.tilt_indices(g.delta_deg), bins.elev_indices(g.theta_deg)
            if model.tilt_rates is not None:
                warped.append(_warp(g.delta_deg, bins.tilt_edges, model.tilt_rates[:, be].T))
            if model.elev_rates is not None:
                warped.append(_warp(g.theta_deg, bins.elev_edges, model.elev_rates[:, bt].T))
        return cls(g.east_m, g.north_m, np.array(warped).reshape(len(warped), len(g)).T)


def _distance(xa, ya, xb, yb, out=None, work=None):
    """Horizontal distances sqrt(dx*dx + dy*dy) from each point a to each
    point b, shape (len(a), len(b)).

    numpy's ``hypot`` is a scalar libm call per pair, several times the
    cost of this form.  Squares of ENU offsets in metres neither overflow
    nor, for offsets of a micrometre or more, underflow; the result is
    within a few ulp of ``hypot``, and exactly symmetric because
    (-dx)**2 == dx**2.  ``out`` and ``work``, when given, are same-shaped
    buffers written in place; the distances land in ``out``.
    """
    out = np.subtract(xa[:, None], xb[None, :], out=out)
    work = np.subtract(ya[:, None], yb[None, :], out=work)
    np.multiply(out, out, out=out)
    np.multiply(work, work, out=work)
    np.add(out, work, out=out)
    return np.sqrt(out, out=out)


def correlation_matrix(model: CorrelationModel, a: KernelPoints, b=None) -> np.ndarray:
    """Dense model correlation between two sets of :class:`KernelPoints`.

    Returns an (len(a), len(b)) matrix; ``b`` defaults to ``a``.  Either
    side's warped width not the model's angle count raises ValidationError;
    tilt_only and elev_only (both width 1) cannot be told apart.

    An entry is the distance term times one exponential of the summed
    absolute warped separations.  The output is filled in tiles of
    ``max(1, CORRELATION_TILE_ENTRIES // len(b))`` whole rows, so every
    pass runs along long contiguous rows.  Each tile's distances and DEDM
    terms are computed in the tile itself, and the angular exponent in two
    preallocated tile-sized buffers, which stay in cache; so no temporary
    grows with ``a``, nor with ``b`` until one output row holds more than
    :data:`CORRELATION_TILE_ENTRIES`.  Every entry is computed on its own
    from its two points, and each step is symmetric in them, so
    ``correlation_matrix(model, a)`` is exactly symmetric and any block of
    it is bitwise those entries.
    """
    b = a if b is None else b
    angles = (model.tilt_rates is not None) + (model.elev_rates is not None)
    if a.warped.shape[1] != angles or b.warped.shape[1] != angles:
        raise ValidationError("kernel points of another restriction: widths differ")
    warps = list(zip(a.warped.T, b.warped.T))
    ea, na, eb, nb = a.east_m, a.north_m, b.east_m, b.north_m
    out = np.empty((ea.size, eb.size))
    p1, p2, w1 = model.dedm.p1, model.dedm.p2, model.dedm.a
    t = max(1, CORRELATION_TILE_ENTRIES // max(1, eb.size))
    buffers = np.empty((2, min(t, ea.size) * eb.size))
    for r0 in range(0, ea.size, t):
        rows = slice(r0, r0 + t)
        # A tile of whole rows is contiguous: the distances and DEDM terms
        # are computed in it, the rest in flat buffers viewed at its shape.
        d = out[rows]
        e1, x = (buf[: d.size].reshape(d.shape) for buf in buffers)
        _distance(ea[rows], na[rows], eb, nb, d, e1)
        # dedm_eval(model.dedm, d), computed in place.
        np.multiply(d, -p1, out=e1)
        np.exp(e1, out=e1)
        e1 *= w1
        np.multiply(d, -p2, out=d)
        np.exp(d, out=d)
        d *= 1.0 - w1
        d += e1
        if warps:
            x.fill(0.0)
            for wa, wb in warps:
                np.subtract(wa[rows, None], wb[None, :], out=e1)
                np.abs(e1, out=e1)
                x -= e1
            np.exp(x, out=x)
            d *= x
    return out


class Covariance:
    """The model covariance between :class:`KernelPoints` ``a`` and ``b``
    (``b`` defaults to ``a``), read like an (len(a), len(b)) array.

    ``cov[rows, cols]``, for unit-step slices, is a new array holding
    sigma2 * :func:`correlation_matrix` of ``a[rows]`` against ``b[cols]``;
    with ``b`` omitted it is C, with the nugget added wherever a row meets
    its own column.  Nothing is held but the points: each block is built
    when it is read, and as every entry is computed on its own, a block is
    bitwise that slice of ``cov[:, :]``, the whole matrix.
    """

    def __init__(self, model: CorrelationModel, a: KernelPoints, b=None):
        self.shape = (len(a), len(a if b is None else b))
        self._model, self._a, self._b = model, a, b

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = index
        b = self._a if self._b is None else self._b
        cov = correlation_matrix(self._model, self._a[rows], b[cols])
        cov *= self._model.sigma2
        if self._b is None:
            r0, r1, _ = rows.indices(self.shape[0])
            c0, c1, _ = cols.indices(self.shape[1])
            diag = np.arange(max(r0, c0), min(r1, c1))
            cov[diag - r0, diag - c0] += self._model.nugget
        return cov


# ---------------------------------------------------------------------------
# Empirical estimation


def balance_resample(w_ref, w_other) -> tuple[np.ndarray, np.ndarray]:
    """Sort both vectors and equalize their lengths by quantile resampling.

    The shorter vector is replaced by its empirical quantile function
    sampled at evenly spaced order-statistic positions, i.e. linear
    interpolation of the sorted values onto the longer length.  The longer
    vector comes back sorted unchanged: ``np.interp`` returns a sample
    point's own value exactly, so one call serves every length.
    """
    a = np.sort(np.asarray(w_ref, dtype=float))
    b = np.sort(np.asarray(w_other, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("both sample vectors must be non-empty")
    n = max(a.size, b.size)
    return tuple(
        np.interp(np.linspace(0.0, v.size - 1.0, n), np.arange(v.size, dtype=float), v)
        for v in (a, b)
    )


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
) -> Correlogram:
    """Normalized covariance of SF pairs binned by horizontal distance.

    Pairs are assigned to ``n_lags`` equal-width bins covering
    [0, max_lag_m); each pair contributes (w_i - mu)(w_j - mu)/sigma2.
    Raises :class:`InsufficientCoverageError` when more than
    :data:`EMPTY_LAG_TOL` of the lags are empty.

    Memory is O(n): row blocks of about ``CORRELOGRAM_BLOCK_PAIRS`` pairs,
    whose distances :func:`_distance` computes.  The sums are bitwise one
    ``bincount`` per 512-row chunk over its pairs in row-major order, added
    chunk by chunk, whatever the block size: so the correlogram and the
    model fitted to it do not depend on how the pass bounds its memory,
    and a plain per-chunk reference pins every bit, which makes any change
    to the pass that moves an output show in the tests.
    """
    if n_lags < 1:
        raise ValidationError("need n_lags >= 1")
    if not 0.0 < max_lag_m < math.inf:
        raise ValidationError(f"need a positive finite max lag, got {max_lag_m}")
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
    above = ~np.tri(min(chunk, n), dtype=bool)  # column > row, sliced per block
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        prod_part, dist_part = np.zeros(n_lags), np.zeros(n_lags)
        r0 = i0
        while r0 < i1:
            r1 = min(r0 + max(1, CORRELOGRAM_BLOCK_PAIRS // (n - r0)), i1)
            d = _distance(east[r0:r1], north[r0:r1], east[r0:], north[r0:])
            keep = d < max_lag_m
            keep[:, : r1 - r0] &= above[: r1 - r0, : r1 - r0]
            dk = d[keep]
            pk = np.multiply(dev[r0:r1, None], dev[None, r0:], out=d)[keep]
            idx = np.minimum((dk / width).astype(np.int64), n_lags - 1)
            count += np.bincount(idx, minlength=n_lags)
            # add.at adds in index order, so each bin goes on adding its
            # pairs to its running chunk sum in row-major order, as one
            # bincount would.
            np.add.at(prod_part, idx, pk)
            np.add.at(dist_part, idx, dk)
            r0 = r1
        prod_sum += prod_part
        dist_sum += dist_part

    empty = np.flatnonzero(count == 0)
    if empty.size > EMPTY_LAG_TOL * n_lags:
        raise InsufficientCoverageError(
            f"{empty.size} of {n_lags} lag bins are empty", missing=empty.tolist()
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(count > 0, prod_sum / np.maximum(count, 1) / sigma2, np.nan)
        lag = np.where(count > 0, dist_sum / np.maximum(count, 1), np.nan)
    return Correlogram(lag_m=lag, rho=rho, counts=count)


def _projection(s, lags, rho):
    """The DEDM at log-rates ``s`` (..., 2) with its weight solved out.

    For fixed rates the curve a*e1 + (1-a)*e2 is linear in a, so the
    least-squares a is closed-form; it is clipped to [0, 1] (0.5 when the
    two rates coincide and a has no effect).  Returns ``(a, r, jac)``:
    that weight (...), the residuals (..., n) and their derivatives with
    respect to ``s``, (..., 2, n), the weight's own change included where
    it is not clipped (Golub & Pereyra 2003).
    """
    p = np.clip(np.exp(s), *RATE_BOUNDS)
    e = np.exp(-p[..., None] * lags)
    d = e[..., 0, :] - e[..., 1, :]
    t = rho - e[..., 1, :]
    dd = np.sum(d * d, axis=-1)
    a = np.divide(np.sum(d * t, axis=-1), dd, out=np.full(dd.shape, 0.5), where=dd > 0.0)
    a = np.clip(a, 0.0, 1.0)
    r = a[..., None] * d - t
    # d e_k / d s_k; each rate moves its own component, weighted by w_k.
    f = -p[..., None] * lags * e
    w = np.stack((a, 1.0 - a), axis=-1)
    # Where a is interior, d . r = 0 holds along the path, which gives
    # da/ds_k = -(sign_k f_k . r + w_k f_k . d) / (d . d).
    inner = (a > 0.0) & (a < 1.0) & (dd > 0.0)
    da = -(
        np.array([1.0, -1.0]) * np.sum(f * r[..., None, :], axis=-1)
        + w * np.sum(f * d[..., None, :], axis=-1)
    )
    da = np.divide(da, dd[..., None], out=np.zeros_like(da), where=inner[..., None])
    jac = w[..., None] * f + da[..., None] * d[..., None, :]
    return a, r, jac


def _grid_starts(lags, rho):
    """Start points for :func:`_refine`, from a grid over both log-rates.

    The reduced cost is scanned on a :data:`DEDM_GRID` square grid.  Its
    valleys can be narrower than a grid step, so each row's best slow rate
    is first polished by a few capped Gauss-Newton steps at the row's
    fixed fast rate.  The local minima of that profile, lowest first and
    each cost once, give up to :data:`DEDM_STARTS` starts.
    """
    lo, hi = np.log(RATE_BOUNDS)
    grid = np.linspace(lo, hi, DEDM_GRID)
    pairs = np.stack(np.broadcast_arrays(grid[:, None], grid[None, :]), axis=-1)
    _, r, _ = _projection(pairs, lags, rho)
    s = pairs[np.arange(grid.size), np.argmin(np.sum(r * r, axis=-1), axis=1)]
    _, r, jac = _projection(s, lags, rho)
    cost = np.sum(r * r, axis=-1)
    width = np.full(grid.size, grid[1] - grid[0])
    for _ in range(DEDM_PROFILE_STEPS):
        j = jac[:, 1]
        jj = np.sum(j * j, axis=-1)
        step = -np.divide(np.sum(j * r, axis=-1), jj, out=np.zeros_like(jj), where=jj > 0.0)
        trial = s.copy()
        trial[:, 1] = np.clip(s[:, 1] + np.clip(step, -width, width), lo, hi)
        _, r_new, jac_new = _projection(trial, lags, rho)
        cost_new = np.sum(r_new * r_new, axis=-1)
        better = cost_new < cost
        s[better], r[better], jac[better] = trial[better], r_new[better], jac_new[better]
        cost = np.where(better, cost_new, cost)
        width = np.where(better, width, width / 4.0)
    edge = np.concatenate(([np.inf], cost, [np.inf]))
    rows = np.flatnonzero((cost <= edge[:-2]) & (cost <= edge[2:]))
    rows = rows[np.argsort(cost[rows], kind="stable")]
    _, first = np.unique(cost[rows], return_index=True)
    return s[rows[np.sort(first)][:DEDM_STARTS]]


def _refine(s, lags, rho):
    """Projected Levenberg-Marquardt on the reduced problem from ``s``.

    A log-rate on its bound whose gradient points outward is held there;
    the step on the others uses Marquardt's diagonal scaling (floored, so
    a rate with no effect takes no step) and Nielsen's damping update, and
    is clipped to the box.  Stops when the step no longer moves ``s`` or
    the model predicts a gain below the cost's rounding.  Returns
    ``(s, a, cost)``.
    """
    lo, hi = np.log(RATE_BOUNDS)
    a, r, jac = _projection(s, lags, rho)
    cost = r @ r
    damping, growth = 1e-3, 2.0
    for _ in range(DEDM_MAX_STEPS):
        g = jac @ r
        h = jac @ jac.T
        free = ~(((s <= lo) & (g > 0.0)) | ((s >= hi) & (g < 0.0)))
        if not free.any():
            break
        scale = np.maximum(np.diag(h), 1e-10 * np.trace(h) + 1e-300)
        sub = np.ix_(free, free)
        while True:
            step = np.zeros(2)
            step[free] = np.linalg.solve(
                h[sub] + damping * np.diag(scale[free]), -g[free]
            )
            s_new = np.clip(s + step, lo, hi)
            moved = s_new - s
            predicted = -(2.0 * g @ moved + moved @ h @ moved)
            if not predicted > 1e-15 * cost:
                return s, a, cost
            a_new, r_new, jac_new = _projection(s_new, lags, rho)
            cost_new = r_new @ r_new
            if cost_new < cost:
                gain = (cost - cost_new) / predicted
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                growth = 2.0
                break
            damping *= growth
            growth *= 2.0
        s, a, r, jac, cost = s_new, a_new, r_new, jac_new, cost_new
        if np.all(np.abs(moved) <= 1e-13 * (np.abs(s) + 1e-13)):
            break
    return s, a, cost


def _polish(s, lags, rho):
    """Gauss-Newton steps from a refined ``s`` for as long as they halve.

    A cost test resolves the rates only to about the square root of its
    rounding error, while the gradient resolves them to the rounding error
    itself; so a converged fit is settled by steps toward zero gradient,
    with :func:`_refine`'s rule for rates on their bounds.  The first step
    must be below 1e-6 in log-rate: a larger one means a direction the
    lags do not resolve, which is left as it is.
    """
    lo, hi = np.log(RATE_BOUNDS)
    last = 2e-6
    for _ in range(DEDM_POLISH_STEPS):
        _, r, jac = _projection(s, lags, rho)
        g = jac @ r
        free = ~(((s <= lo) & (g > 0.0)) | ((s >= hi) & (g < 0.0)))
        if not free.any():
            break
        step = np.zeros(2)
        step[free] = np.linalg.lstsq(jac[free].T, -r, rcond=None)[0]
        size = np.max(np.abs(step))
        if not size < 0.5 * last:
            break
        s, last = np.clip(s + step, lo, hi), size
    return s


def _lone_rate(s, lags, rho, max_lag_m):
    """The log-rate of a one-exponential fit (a = 0 or 1), given its fitted
    log-rate ``s``, settled by a fixed rule where no lag resolves it.

    The largest rate considered is the upper rate bound or, if smaller,
    the rate whose curve reaches the smallest normal float at
    ``max_lag_m``, so the curve does not underflow to 0 within the lag
    range.  If moving ``s`` there raises the cost by less than one part in
    1e12, no lag resolves the rate: where the fit stopped along that flat
    valley depends on its start and on the last bits of the correlogram.
    The rate is then the smallest on a fixed :data:`LONE_RATE_GRID` point
    log grid up to that largest rate that costs at most one part in 1e12
    more than the lower of the two costs.  Otherwise ``s`` is kept.
    """
    lo, hi = np.log(RATE_BOUNDS)
    top = math.log(-math.log(np.finfo(float).tiny) / max_lag_m)
    grid = np.linspace(lo, np.clip(top, lo, hi), LONE_RATE_GRID)
    r = np.exp(-np.exp(np.append(grid, s))[:, None] * lags) - rho
    cost = np.sum(r * r, axis=1)
    if not cost[-2] <= cost[-1] * (1.0 + 1e-12):
        return s
    return grid[np.argmax(cost[:-1] <= min(cost[-2:]) * (1.0 + 1e-12))]


def _fit_dedm(lags, rho, max_lag_m) -> DedmParams:
    """Least-squares DEDM over correlogram points, numpy only.

    Variable projection: the weight a is solved out in closed form, which
    leaves a cost over the two rates, each in :data:`RATE_BOUNDS`.  Each
    rate is searched on a log scale, from the start (a, p1, p2) =
    (0.5, 1/(0.05 max_lag_m), 1/(0.7 max_lag_m)) and from
    :func:`_grid_starts`, by :func:`_refine`, and the lowest cost wins.
    A fast rate beside a slow component (a < 1) that no lag resolves
    (moving it to its upper bound raises the cost by less than one part
    in 1e12) is put on that bound, so the fit does not wander along a
    flat valley.  :func:`_polish` then settles the rates.  A weight of 0
    or 1 leaves one rate, which :func:`_lone_rate` settles where no lag
    resolves it, and the other is set equal to it.  The faster rate comes
    first (p1 >= p2).
    """
    lo, hi = np.log(RATE_BOUNDS)
    x0 = np.clip(np.log([1.0 / (0.05 * max_lag_m), 1.0 / (0.7 * max_lag_m)]), lo, hi)
    fits = [_refine(s, lags, rho) for s in (x0, *_grid_starts(lags, rho))]
    s, a, cost = min(fits, key=lambda fit: fit[2])
    if s[0] < s[1]:
        s, a = s[::-1], 1.0 - a

    def settle(moved):
        """``moved`` and its weight if it costs at most 1e-12 more."""
        a_moved, r, _ = _projection(moved, lags, rho)
        return (moved, a_moved) if r @ r <= cost * (1.0 + 1e-12) else (s, a)

    if a < 1.0:
        s, a = settle(np.array([hi, s[1]]))
    s, a = settle(_polish(s, lags, rho))
    if a in (0.0, 1.0):
        s = np.full(2, _lone_rate(s[0] if a == 1.0 else s[1], lags, rho, max_lag_m))
    p1, p2 = np.clip(np.exp(s), *RATE_BOUNDS).tolist()
    return DedmParams(a=float(a), p1=p1, p2=p2)


def _fit_distance(samples, max_lag_m, n_lags):
    """SF statistics, correlogram and DEDM fit, each computed once.

    ``max_lag_m`` defaults to half the bounding-box diagonal of the sample
    positions.  The three DEDM parameters are fitted over the non-empty
    lags by :func:`_fit_dedm`.  Returns ``(mu, sigma2, correlogram,
    dedm)``.
    """
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

    gram = empirical_correlogram(samples, mu, sigma2, max_lag_m, n_lags)
    mask = gram.counts > 0
    dedm = _fit_dedm(gram.lag_m[mask], gram.rho[mask], max_lag_m)
    return mu, sigma2, gram, dedm


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


def _fit_rates(rho, reps, label, warnings):
    """Decay-rate table (n_ref, n_cond) fitted to a profile ``rho`` of shape
    (n_cond, n_ref, n_ref).

    Each cell's rate is 1/2 (r+ + r-).  r+ is fitted to the finite profile
    points toward larger representatives, r- to those toward smaller ones:
    the log-domain least-squares constant q = sum(s^2) / (-sum(s ln rho)),
    with rho clamped to [RHO_FLOOR, 1], gives r = 1/q, and a fit that shows
    no decay (q capped at :data:`Q_CAP_DEG`) gives 0.  A direction with no
    points takes the other direction's rate; a cell with none has rate 0
    and is named in a warning.
    """
    reps = np.asarray(reps, dtype=float)
    sep = reps[None, :] - reps[:, None]  # other minus reference
    used = np.isfinite(rho) & ~np.eye(reps.size, dtype=bool)
    if np.any(used & ~((np.abs(sep) > 0.0) & np.isfinite(sep))):
        raise ValidationError(
            f"{label}: representatives of bins with profile points must differ"
            " and be finite"
        )
    log_rho = np.log(np.clip(np.where(used, rho, 1.0), RHO_FLOOR, 1.0))

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
        warnings.append(
            f"{label}: conditioning bin {cond} reference bins"
            f" {np.flatnonzero(empty[cond]).tolist()} have no usable pairs;"
            " kernels left absent"
        )
    return cell.T


def fit_correlation_model(
    samples,
    *,
    bins: AngleBins | None = None,
    max_lag_m: float | None = None,
    n_lags: int = 24,
    min_count: int = DEFAULT_MIN_CELL_COUNT,
) -> FitResult:
    """Estimate the full correlation model from decomposed SF samples.

    One pass over the data: the SF statistics, the distance correlogram
    (fitted to the DEDM) and the (elevation, tilt) cell grid are each
    computed once; the tilt profile correlates the grid's rows and the
    elevation profile its columns.  Each profile is then fitted to one
    decay-rate table, one rate per (reference bin, conditioning bin) cell.
    Samples with an angle outside the bins are left out of the profiles
    and counted in a warning.  The model's nugget is
    :data:`DEFAULT_NUGGET_FACTOR` times the SF variance.
    """
    if min_count < 0:
        raise ValidationError(f"min count must not be negative: {min_count}")
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
    tilt_rates = _fit_rates(tilt_profile.rho, bins.tilt_reps, "tilt", warnings)
    elev_rates = _fit_rates(elev_profile.rho, bins.elev_reps, "elevation", warnings)

    model = CorrelationModel(
        mu=mu,
        sigma2=sigma2,
        dedm=dedm,
        bins=bins,
        tilt_rates=tilt_rates,
        elev_rates=elev_rates,
        nugget=DEFAULT_NUGGET_FACTOR * sigma2,
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


def serialize_model(model: CorrelationModel) -> dict:
    """Model as a JSON-ready dict (schema version 2).

    The rate tables become nested lists, ``tilt_rates[tilt][elev]`` and
    ``elev_rates[elev][tilt]``; infinite bin edges are encoded as the
    strings "inf"/"-inf".  A restricted model (see
    :meth:`CorrelationModel.restricted`) with an unused table raises
    ValidationError naming it: the schema has no way to write one.
    """
    for name in ("tilt_rates", "elev_rates"):
        if getattr(model, name) is None:
            raise ValidationError(
                f"cannot serialize a restricted model: {name} is unused"
            )
    return {
        "version": SCHEMA_VERSION,
        "mu": model.mu,
        "sigma2": model.sigma2,
        "dedm": asdict(model.dedm),
        "bins": {
            name: [encode_number(v) for v in getattr(model.bins, name)]
            for name in BIN_FIELDS
        },
        "tilt_rates": model.tilt_rates.tolist(),
        "elev_rates": model.elev_rates.tolist(),
        "nugget": model.nugget,
    }


def deserialize_model(doc: dict) -> CorrelationModel:
    """Rebuild a model from its serialized form, schema version 2 or 1.

    Version 1 stored each cell's two decay scales ``{q_pos, q_neg}`` (or
    ``null``) under ``tilt_kernels``/``elev_kernels``; each cell loads as
    its rate 1/2 (1/q_pos + 1/q_neg), where scales at or above
    :data:`Q_CAP_DEG` and ``null`` cells contribute 0.

    Raises :class:`SchemaError` naming the first missing field or the
    first field of the wrong JSON type; unknown extra fields are ignored.
    """
    doc = JsonObject(doc, MODEL_DOC)
    version = doc.get("version", "integer")
    if version not in (1, SCHEMA_VERSION):
        raise SchemaError(f"unsupported model schema version: {version}")
    dedm = doc.section("dedm")
    dedm = DedmParams(**{f.name: dedm.get(f.name) for f in fields(DedmParams)})
    bins = doc.section("bins")
    bins = AngleBins(**{name: bins.list(name, "number") for name in BIN_FIELDS})

    def rate(cell, path):
        if version == SCHEMA_VERSION:
            return decode(cell, "number", path, MODEL_DOC)
        # Version 1 stored each cell as its {q_pos, q_neg} scales, or null.
        if cell is None:
            return 0.0
        cell = JsonObject(cell, MODEL_DOC, path)
        return 0.5 * (_q_rate(cell.get("q_pos")) + _q_rate(cell.get("q_neg")))

    def table(key, n_rows, n_cols):
        rows = doc.list(key)
        if len(rows) != n_rows or any(
            not isinstance(r, list) or len(r) != n_cols for r in rows
        ):
            raise SchemaError(f"{key} shape does not match bins", field=key)
        return [
            [rate(v, f"{key}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)
        ]

    suffix = "rates" if version == SCHEMA_VERSION else "kernels"
    tilt_rates = table(f"tilt_{suffix}", bins.n_tilt, bins.n_elev)
    elev_rates = table(f"elev_{suffix}", bins.n_elev, bins.n_tilt)
    return CorrelationModel(
        mu=doc.get("mu"),
        sigma2=doc.get("sigma2"),
        dedm=dedm,
        bins=bins,
        tilt_rates=tilt_rates,
        elev_rates=elev_rates,
        nugget=doc.get("nugget"),
    )


def save_model(model: CorrelationModel, path: str | Path) -> None:
    write_json(path, serialize_model(model))


def load_model(path: str | Path) -> CorrelationModel:
    return deserialize_model(read_json(path, MODEL_DOC))
