"""Angle-aware shadow-fading correlation model.

The correlation between two shadow-fading samples factors into a distance
term and two angular terms:

    r_raw(i, j) = R_d(d2d_ij) * R_tlt(delta_i, delta_j; theta_i)
                             * R_elv(theta_i, theta_j; delta_i)

``R_d`` is a double-exponential decay in horizontal separation.  The
angular terms are piecewise exponentials in the angle separation with
direction-dependent decay constants, looked up from per-bin kernel tables
conditioned on the reference sample's own angle bin.  Because the raw value
conditions on sample i, it is not symmetric; the model value used
everywhere downstream is the geometric mean

    r_hat(i, j) = sqrt(r_raw(i, j) * r_raw(j, i))

which restores symmetry and keeps r_hat(i, i) = 1.

Kernels are estimated from binned empirical correlations computed on
sorted, quantile-balanced sample vectors against the global SF mean; the
same sorted-pair construction is exposed for reuse by the fitting code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    DegenerateCorrelationError,
    InsufficientCoverageError,
    SchemaError,
    ValidationError,
)
from .geometry import Geometry, LinkGeometry
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
SCHEMA_VERSION = 1

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

    def tilt_index(self, delta_deg: float) -> int:
        return int(self.tilt_indices(np.asarray([delta_deg]))[0])

    def elev_index(self, theta_deg: float) -> int:
        return int(self.elev_indices(np.asarray([theta_deg]))[0])


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


@dataclass(frozen=True)
class PiecewiseExpKernel:
    """Direction-dependent exponential decay over an angle separation.

    ``q_pos_deg`` applies when the other sample's angle is at or above the
    reference angle, ``q_neg_deg`` when below.  Infinite decay constants are
    allowed and make the kernel identically 1.
    """

    q_pos_deg: float
    q_neg_deg: float

    def __post_init__(self):
        for q in (self.q_pos_deg, self.q_neg_deg):
            if not q > 0.0:
                raise ValidationError(f"decay constants must be positive: {q}")

    def eval(self, separation_deg, increasing):
        """Kernel value for |angle_j - angle_i| with the direction flag.

        Decay constants at or above the cap mean "no observable decay" and
        evaluate to exactly 1, so capped kernels reduce the model to its
        distance-only form with zero error.
        """
        sep = np.asarray(separation_deg, dtype=float)
        if np.any(sep < 0.0):
            raise ValidationError("separations must be non-negative")
        q = np.where(increasing, self.q_pos_deg, self.q_neg_deg)
        q = np.where(q >= Q_CAP_DEG, np.inf, q)
        out = np.exp(-sep / q)
        return float(out) if out.ndim == 0 else out


@dataclass
class CorrelationModel:
    """Fitted SF statistics plus the distance and angular correlation terms.

    Kernel tables are dictionaries keyed by (reference bin, conditioning
    bin) pairs: ``tilt_kernels[(tilt_bin_of_i, elev_bin_of_i)]`` and
    ``elev_kernels[(elev_bin_of_i, tilt_bin_of_i)]``.  A ``None`` entry
    records a cell the data could not populate; evaluation falls back to
    the no-decay cap there, i.e. treats the kernel as flat.  Instances are
    treated as immutable after construction.
    """

    mu: float
    sigma2: float
    dedm: DedmParams
    bins: AngleBins = field(default_factory=AngleBins)
    tilt_kernels: dict = field(default_factory=dict)
    elev_kernels: dict = field(default_factory=dict)
    nugget: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.sigma2 > 0.0):
            raise ValidationError(f"need finite mu and positive sigma2, got {self.mu}, {self.sigma2}")
        if not self.nugget >= 0.0:
            raise ValidationError(f"nugget must be non-negative: {self.nugget}")
        for key in self.tilt_kernels:
            t, e = key
            if not (0 <= t < self.bins.n_tilt and 0 <= e < self.bins.n_elev):
                raise ValidationError(f"tilt kernel key out of range: {key}")
        for key in self.elev_kernels:
            e, t = key
            if not (0 <= e < self.bins.n_elev and 0 <= t < self.bins.n_tilt):
                raise ValidationError(f"elevation kernel key out of range: {key}")
        self._arrays = None

    @classmethod
    def with_uniform_kernels(
        cls,
        mu: float,
        sigma2: float,
        dedm: DedmParams,
        *,
        bins: AngleBins | None = None,
        q_pos_deg: float = math.inf,
        q_neg_deg: float | None = None,
        r_pos_deg: float = math.inf,
        r_neg_deg: float | None = None,
        nugget: float = 0.0,
    ) -> "CorrelationModel":
        """Model with one tilt kernel and one elevation kernel everywhere.

        Defaults build unit (flat) kernels, which makes the full model
        coincide with the distance-only baseline.
        """
        bins = bins if bins is not None else AngleBins()
        q_neg = q_pos_deg if q_neg_deg is None else q_neg_deg
        r_neg = r_pos_deg if r_neg_deg is None else r_neg_deg
        tilt = {
            (t, e): PiecewiseExpKernel(q_pos_deg, q_neg)
            for t in range(bins.n_tilt)
            for e in range(bins.n_elev)
        }
        elev = {
            (e, t): PiecewiseExpKernel(r_pos_deg, r_neg)
            for e in range(bins.n_elev)
            for t in range(bins.n_tilt)
        }
        return cls(
            mu=mu, sigma2=sigma2, dedm=dedm, bins=bins,
            tilt_kernels=tilt, elev_kernels=elev, nugget=nugget,
        )

    def kernel_arrays(self):
        """Dense (q_pos, q_neg, r_pos, r_neg) lookup tables for bin pairs.

        Absent cells are filled with the no-decay cap, and every constant
        at or above the cap is promoted to infinity so capped kernels
        evaluate to exactly 1.  Shapes: tilt tables (n_tilt, n_elev),
        elevation tables (n_elev, n_tilt).
        """
        if self._arrays is None:
            nt, ne = self.bins.n_tilt, self.bins.n_elev
            qp = np.full((nt, ne), Q_CAP_DEG)
            qn = np.full((nt, ne), Q_CAP_DEG)
            rp = np.full((ne, nt), Q_CAP_DEG)
            rn = np.full((ne, nt), Q_CAP_DEG)
            for (t, e), kern in self.tilt_kernels.items():
                if kern is not None:
                    qp[t, e] = kern.q_pos_deg
                    qn[t, e] = kern.q_neg_deg
            for (e, t), kern in self.elev_kernels.items():
                if kern is not None:
                    rp[e, t] = kern.q_pos_deg
                    rn[e, t] = kern.q_neg_deg
            for table in (qp, qn, rp, rn):
                table[table >= Q_CAP_DEG] = np.inf
            self._arrays = (qp, qn, rp, rn)
        return self._arrays


def eval_r_tilt(
    model: CorrelationModel, delta_i: float, delta_j: float, theta_i: float
) -> float:
    """Tilt correlation term conditioned on sample i's tilt and elevation."""
    t = model.bins.tilt_index(delta_i)
    e = model.bins.elev_index(theta_i)
    qp, qn, _, _ = model.kernel_arrays()
    sep = abs(delta_j - delta_i)
    q = qp[t, e] if delta_j >= delta_i else qn[t, e]
    return math.exp(-sep / q)


def eval_r_elev(
    model: CorrelationModel, theta_i: float, theta_j: float, delta_i: float
) -> float:
    """Elevation correlation term conditioned on sample i's bins."""
    e = model.bins.elev_index(theta_i)
    t = model.bins.tilt_index(delta_i)
    _, _, rp, rn = model.kernel_arrays()
    sep = abs(theta_j - theta_i)
    r = rp[e, t] if theta_j >= theta_i else rn[e, t]
    return math.exp(-sep / r)


def eval_full_correlation(
    model: CorrelationModel,
    gi: LinkGeometry,
    gj: LinkGeometry,
    mode: str = "angle_aware",
) -> float:
    """Symmetrized model correlation between two link geometries.

    The raw directional products are combined with a geometric mean so the
    result does not depend on argument order.
    """
    check_mode(mode)
    d2d = math.hypot(gi.east_m - gj.east_m, gi.north_m - gj.north_m)
    r_d = dedm_eval(model.dedm, d2d)
    if mode == "baseline":
        return r_d
    raw_ij = raw_ji = 1.0
    if mode in ("angle_aware", "tilt_only"):
        raw_ij *= eval_r_tilt(model, gi.delta_deg, gj.delta_deg, gi.theta_deg)
        raw_ji *= eval_r_tilt(model, gj.delta_deg, gi.delta_deg, gj.theta_deg)
    if mode in ("angle_aware", "elev_only"):
        raw_ij *= eval_r_elev(model, gi.theta_deg, gj.theta_deg, gi.delta_deg)
        raw_ji *= eval_r_elev(model, gj.theta_deg, gi.theta_deg, gj.delta_deg)
    return r_d * math.sqrt(raw_ij * raw_ji)


def _inverse_rates(model, theta, delta):
    """Per-sample inverse decay rates (1/q+, 1/q-, 1/r+, 1/r-).

    Validates both angles; a capped or infinite constant gives rate 0.
    """
    bt = model.bins.tilt_indices(delta)
    be = model.bins.elev_indices(theta)
    qp, qn, rp, rn = model.kernel_arrays()
    return 1.0 / qp[bt, be], 1.0 / qn[bt, be], 1.0 / rp[be, bt], 1.0 / rn[be, bt]


def _add_exponent(expo, x_i, pos_i, neg_i, x_j, pos_j, neg_j):
    """Add the summed directional exponent of one angle to ``expo``.

    With s = x_j - x_i the raw terms of (i, j) and (j, i) together decay
    as max(s, 0) * (pos_i + neg_j) + max(-s, 0) * (neg_i + pos_j).
    """
    s = x_j[None, :] - x_i[:, None]
    up = np.maximum(s, 0.0)
    down = np.subtract(up, s, out=s)  # max(-s, 0), exactly
    up *= pos_i[:, None] + neg_j[None, :]
    down *= neg_i[:, None] + pos_j[None, :]
    expo += up
    expo += down


def correlation_matrix(
    model: CorrelationModel,
    geoms_a,
    geoms_b=None,
    mode: str = "angle_aware",
) -> np.ndarray:
    """Dense model correlation between two sets of link geometries.

    Vectorized equivalent of :func:`eval_full_correlation` applied to every
    pair; returns an (len(a), len(b)) matrix.  Each side is a
    :class:`Geometry` or a sequence of :class:`LinkGeometry`; ``geoms_b``
    defaults to ``geoms_a``.

    The geometric mean of the two raw products is evaluated as a single
    exponential, sqrt(exp(-x) * exp(-y)) = exp(-(x + y) / 2), from inverse
    decay rates looked up once per sample.  The output is filled in blocks
    of :data:`CORRELATION_BLOCK_ROWS` rows, so no other (len(a), len(b))
    array is allocated; in the square case only the upper triangle is
    computed and mirrored, which makes the result exactly symmetric.
    """
    check_mode(mode)
    square = geoms_b is None
    a = Geometry.of(geoms_a)
    b = a if square else Geometry.of(geoms_b)
    ea, na, ta, da = a.east_m, a.north_m, a.theta_deg, a.delta_deg
    eb, nb, tb, db = b.east_m, b.north_m, b.theta_deg, b.delta_deg
    angles = []
    if mode != "baseline":
        qp_a, qn_a, rp_a, rn_a = _inverse_rates(model, ta, da)
        qp_b, qn_b, rp_b, rn_b = (
            (qp_a, qn_a, rp_a, rn_a) if square else _inverse_rates(model, tb, db)
        )
        if mode in ("angle_aware", "tilt_only"):
            angles.append((da, qp_a, qn_a, db, qp_b, qn_b))
        if mode in ("angle_aware", "elev_only"):
            angles.append((ta, rp_a, rn_a, tb, rp_b, rn_b))

    out = np.empty((ea.size, eb.size))
    for r0 in range(0, ea.size, CORRELATION_BLOCK_ROWS):
        rows = slice(r0, r0 + CORRELATION_BLOCK_ROWS)
        cols = slice(r0 if square else 0, None)
        block = out[rows, cols]
        dist = np.hypot(
            ea[rows, None] - eb[None, cols], na[rows, None] - nb[None, cols]
        )
        r_d = dedm_eval(model.dedm, dist)
        if angles:
            expo = np.zeros_like(block)
            for x_a, pos_a, neg_a, x_b, pos_b, neg_b in angles:
                _add_exponent(
                    expo, x_a[rows], pos_a[rows], neg_a[rows],
                    x_b[cols], pos_b[cols], neg_b[cols],
                )
            expo *= -0.5
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


def fit_piecewise_kernel(
    separations_deg,
    rhos,
    increasing,
    rho_floor: float = RHO_FLOOR,
) -> PiecewiseExpKernel:
    """Closed-form least-squares fit of the direction-dependent decay.

    For each direction the decay constant solves the log-domain normal
    equation q = sum(s^2) / (-sum(s * ln(rho))) over that direction's
    points, with correlations clamped to [rho_floor, 1] first.  A direction
    with no points inherits the other's constant; no decay at all (every
    rho at 1) yields the cap.
    """
    sep = np.asarray(separations_deg, dtype=float)
    rho = np.asarray(rhos, dtype=float)
    inc = np.asarray(increasing, dtype=bool)
    if not (sep.shape == rho.shape == inc.shape) or sep.ndim != 1:
        raise ValidationError("separations, rhos and flags must match 1-d shapes")
    if sep.size == 0:
        raise ValidationError("no profile points to fit")
    if np.any(sep <= 0.0) or np.any(~np.isfinite(sep)):
        raise ValidationError("separations must be positive and finite")
    if np.any(~np.isfinite(rho)):
        raise ValidationError("correlations must be finite")
    rho = np.clip(rho, rho_floor, 1.0)

    def solve(mask: np.ndarray) -> float | None:
        if not np.any(mask):
            return None
        s = sep[mask]
        denom = -float(np.sum(s * np.log(rho[mask])))
        if denom <= 0.0:
            return Q_CAP_DEG
        return min(float(np.sum(s * s)) / denom, Q_CAP_DEG)

    q_pos = solve(inc)
    q_neg = solve(~inc)
    if q_pos is None and q_neg is None:
        raise ValidationError("no points in either direction")
    if q_pos is None:
        q_pos = q_neg
    if q_neg is None:
        q_neg = q_pos
    return PiecewiseExpKernel(q_pos_deg=q_pos, q_neg_deg=q_neg)


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


def _fit_kernel_table(profile, reps, center_ref, single_center, label, warnings):
    """Fit one kernel per (reference, conditioning) pair from a profile.

    ``profile.rho`` is (n_cond, n_ref, n_ref); returns a dict keyed by
    (ref, cond) with None for cells the data could not support.
    """
    n_cond = profile.rho.shape[0]
    n_ref = profile.rho.shape[1]
    table: dict[tuple[int, int], PiecewiseExpKernel | None] = {}
    for cond in range(n_cond):
        fitted: dict[int, PiecewiseExpKernel | None] = {}
        refs = [center_ref] if single_center else range(n_ref)
        for ref in refs:
            seps, rhos, incs = [], [], []
            for other in range(n_ref):
                if other == ref:
                    continue
                value = profile.rho[cond, ref, other]
                if not np.isfinite(value):
                    continue
                seps.append(abs(reps[other] - reps[ref]))
                rhos.append(value)
                incs.append(reps[other] > reps[ref])
            if not seps:
                fitted[ref] = None
                continue
            fitted[ref] = fit_piecewise_kernel(seps, rhos, incs)
        if single_center:
            kern = fitted[center_ref]
            if kern is None:
                warnings.append(
                    f"{label}: conditioning bin {cond} has no usable center-reference"
                    " pairs; kernels left absent"
                )
            for ref in range(n_ref):
                table[(ref, cond)] = kern
        else:
            none_refs = [r for r, k in fitted.items() if k is None]
            if none_refs:
                warnings.append(
                    f"{label}: conditioning bin {cond} reference bins {none_refs}"
                    " have no usable pairs; kernels left absent"
                )
            for ref in range(n_ref):
                table[(ref, cond)] = fitted[ref]
    return table


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
    elevation profile its columns.  Profile rows are then converted into
    per-bin piecewise kernels.  With ``single_center`` each conditioning
    bin gets one kernel fitted at the center reference bin (tilt: the bin
    containing zero tilt; elevation: the most populated bin) and shared
    across reference bins.  Samples with an angle outside the bins are
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
        center_tilt = bins.tilt_index(0.0)
    except ValidationError:
        center_tilt = bins.n_tilt // 2
    center_elev = int(np.argmax(elev_profile.counts.sum(axis=0)))

    tilt_kernels = _fit_kernel_table(
        tilt_profile, bins.tilt_reps, center_tilt, single_center, "tilt", warnings
    )
    elev_kernels = _fit_kernel_table(
        elev_profile, bins.elev_reps, center_elev, single_center, "elevation", warnings
    )

    model = CorrelationModel(
        mu=mu,
        sigma2=sigma2,
        dedm=dedm,
        bins=bins,
        tilt_kernels=tilt_kernels,
        elev_kernels=elev_kernels,
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


def _decode_number(x) -> float:
    if isinstance(x, str):
        if x in ("inf", "-inf"):
            return float(x)
        raise SchemaError(f"unexpected string number: {x!r}")
    return float(x)


def serialize_model(model: CorrelationModel) -> dict:
    """Model as a JSON-ready dict (schema version 1).

    Kernel tables become nested lists indexed [reference][conditioning]
    with ``null`` marking absent cells; infinite decay constants are
    encoded as the strings "inf"/"-inf".
    """

    def kernel_doc(kern):
        if kern is None:
            return None
        return {
            "q_pos": _encode_number(kern.q_pos_deg),
            "q_neg": _encode_number(kern.q_neg_deg),
        }

    nt, ne = model.bins.n_tilt, model.bins.n_elev
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
        "tilt_kernels": [
            [kernel_doc(model.tilt_kernels.get((t, e))) for e in range(ne)]
            for t in range(nt)
        ],
        "elev_kernels": [
            [kernel_doc(model.elev_kernels.get((e, t))) for t in range(nt)]
            for e in range(ne)
        ],
        "nugget": model.nugget,
    }


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"model document missing field '{where}{key}'", field=where + key)
    return doc[key]


def deserialize_model(doc: dict) -> CorrelationModel:
    """Rebuild a model from its serialized form.

    Raises :class:`SchemaError` naming the first missing field; unknown
    extra fields are ignored.
    """
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    version = _require(doc, "version", "")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported model schema version: {version}")

    dedm_doc = _require(doc, "dedm", "")
    dedm = DedmParams(
        a=_decode_number(_require(dedm_doc, "a", "dedm.")),
        p1=_decode_number(_require(dedm_doc, "p1", "dedm.")),
        p2=_decode_number(_require(dedm_doc, "p2", "dedm.")),
    )
    bins_doc = _require(doc, "bins", "")
    bins = AngleBins(
        tilt_edges=tuple(
            _decode_number(v) for v in _require(bins_doc, "tilt_edges", "bins.")
        ),
        tilt_reps=tuple(
            _decode_number(v) for v in _require(bins_doc, "tilt_reps", "bins.")
        ),
        elev_edges=tuple(
            _decode_number(v) for v in _require(bins_doc, "elev_edges", "bins.")
        ),
        elev_reps=tuple(
            _decode_number(v) for v in _require(bins_doc, "elev_reps", "bins.")
        ),
    )

    def kernel_from(cell, where):
        if cell is None:
            return None
        return PiecewiseExpKernel(
            q_pos_deg=_decode_number(_require(cell, "q_pos", where)),
            q_neg_deg=_decode_number(_require(cell, "q_neg", where)),
        )

    tilt_rows = _require(doc, "tilt_kernels", "")
    elev_rows = _require(doc, "elev_kernels", "")
    if len(tilt_rows) != bins.n_tilt or any(len(r) != bins.n_elev for r in tilt_rows):
        raise SchemaError("tilt_kernels shape does not match bins", field="tilt_kernels")
    if len(elev_rows) != bins.n_elev or any(len(r) != bins.n_tilt for r in elev_rows):
        raise SchemaError("elev_kernels shape does not match bins", field="elev_kernels")
    tilt_kernels = {
        (t, e): kernel_from(tilt_rows[t][e], f"tilt_kernels[{t}][{e}].")
        for t in range(bins.n_tilt)
        for e in range(bins.n_elev)
    }
    elev_kernels = {
        (e, t): kernel_from(elev_rows[e][t], f"elev_kernels[{e}][{t}].")
        for e in range(bins.n_elev)
        for t in range(bins.n_tilt)
    }

    return CorrelationModel(
        mu=_decode_number(_require(doc, "mu", "")),
        sigma2=_decode_number(_require(doc, "sigma2", "")),
        dedm=dedm,
        bins=bins,
        tilt_kernels=tilt_kernels,
        elev_kernels=elev_kernels,
        nugget=_decode_number(_require(doc, "nugget", "")),
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
