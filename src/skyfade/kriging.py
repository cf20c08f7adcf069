"""Ordinary Kriging of shadow fading under the correlation model.

For M tuning samples the weights solve the augmented system

    [ C   1 ] [ lambda ]   [ c0 ]
    [ 1^T 0 ] [  nu    ] = [ 1  ]

with C_ij = sigma2 * r_hat(i, j) + nugget * [i == j] and c0_i the model
covariance between tuning sample i and the target.  The unbiasedness row
forces the weights to sum to one; the predictor is lambda^T w and the
prediction variance is sigma2 - lambda^T c0 - nu, floored at zero.

Many targets share one factorization, and :func:`predict_sf_batch` and
:func:`predict_rsrp` return columns: one array per output, one entry per
target, and the one nugget the solve used.  Every solve goes through
:func:`_solve`, so a batch of one target is bitwise :func:`predict_sf`.

The solve factors C by Cholesky and removes the unbiasedness row by Schur
complement (Rasmussen & Williams 2006, Alg. 2.1; Cressie 1993, sec. 3.2):
with C [Y | a] = [c0 | 1], nu = (1^T Y - 1) / (1^T a) and
lambda = Y - a nu.  A solution is accepted only if the relative residual
of the augmented system, over every right-hand side, is below the
acceptance threshold.  When C is not numerically positive definite, or the
solution fails that test, the diagonal nugget is multiplied by 10 and the
factorization is tried again (diagonal loading), up to six escalations.
An indefinite covariance is therefore never accepted at the model's
nugget: the nugget actually used is recorded on the system, and callers
report it.

C is factored in place, so a solve holds one M x M matrix, not two.  The
factor overwrites one triangle and the shifted diagonal; after each
attempt, failed or not, the intact triangle is mirrored back over the
factored one, a block of columns at a time, and the saved diagonal is
written back, so the caller's matrix comes back bitwise as it went in.
That mirror needs C exactly symmetric: the solve checks this first and
raises ValidationError naming the first asymmetric entry, which no valid
covariance has.

A mode enters as the model restricted to it (only :func:`assemble_system`
takes a mode name).  The training rows and the targets are each made
kernel points once, and every covariance is built from them.  For k
targets :func:`predict_sf_batch` holds two large buffers: the M x M
matrix C and one (M, k + 1) buffer, into which c0 is built as [c0 | 1]
128 columns at a time, which the triangular solves overwrite with
[Y | a], and which then holds lambda over Y.  No separate c0 is kept:
past 128 targets, the one walk that forms the residual (reading the
explicit, intact C over every right-hand side) and lambda^T c0 builds
each 128-column block of c0 again from the points, which repeats only
the tile arithmetic and gives bitwise the same columns, as every entry
is computed on its own; up to 128 targets, c0 is one block, built once
and kept.  Every other temporary is an M x 128 or 128 x M tile, so
O(M x 128) whatever k is.

The factor and the triangular solves are numpy alone: an up-looking
block Cholesky over block rows of :data:`_TILE` rows
(:func:`_cholesky_rows`), each diagonal tile factored by numpy's
``cholesky`` and inverted once, its inverse then serving the tiles below
it and both triangular solves.  The factor asks for a block row of the
lower triangle only when it reaches it: the solve hands it views of C,
and the field draw in :mod:`fieldsim` builds each block row as it is
asked for, so it never holds the upper half.  The draw multiplies by the
factor with :func:`_lower_matvec`, so only this module knows the tile
layout.  The tiles stay below 128 rows because
numpy's OpenBLAS runs LAPACK multi-threaded from 128 up: on 2 vCPUs a
128 x 128 ``cholesky`` takes 2.9 ms and a 96 x 96 one 40 us.  The
tiles' own calls stay cheap that way, and the work that grows as M^3 runs
in matrix products, which use every core.  Everything runs in numpy's one
OpenBLAS: the solve loads no second linear-algebra library, whose import
cost ``predict`` and ``evaluate`` about 0.3 s and 28 MB at their first
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import (
    DEFAULT_NUGGET_FACTOR,
    CorrelationModel,
    KernelPoints,
    covariance_matrix,
)
from .errors import RowErrors, SingularSystemError, ValidationError
from .geometry import Geometry, LinkGeometry
from .propagation import LinkBudget, SfTable, link_rsrp

RESIDUAL_TOL = 1.0e-8
MAX_ESCALATIONS = 6
# Rows or columns per block in the symmetry check, the restore, the
# weights' formation, the residual and the variance.
_BLOCK = 128
_STRICT_LOWER = np.tri(_BLOCK, k=-1, dtype=bool)
# Rows per diagonal tile of the Cholesky factor; below 128, where numpy's
# LAPACK calls turn multi-threaded (see the module docstring).
_TILE = 96
_TILE_LOWER = np.tri(_TILE, dtype=bool)


@dataclass
class KrigingSystem:
    """One assembled (and optionally solved) ordinary Kriging system.

    ``cov`` includes the base nugget on its diagonal and ``target_cov`` is
    the (M,) covariance of the tuning samples with the one target; once
    solved, ``weights`` is (M,) and ``multiplier`` a float.
    """

    cov: np.ndarray
    target_cov: np.ndarray
    train_w: np.ndarray
    sigma2: float
    nugget: float
    weights: np.ndarray | None = None
    multiplier: float | None = None
    nugget_used: float | None = None


def dedup_training(samples) -> tuple[Geometry, np.ndarray]:
    """Collapse exactly duplicated training geometries.

    ``samples`` is an :class:`SfTable` or a sequence of SF samples.  The
    first occurrence keeps its position in the ordering and its SF value
    becomes the mean over all duplicates.
    """
    table = SfTable.of(samples)
    if len(table) == 0:
        return table.geometry, np.empty(0)
    g = table.geometry
    keys = np.column_stack(
        (g.east_m, g.north_m, g.up_m, g.theta_deg, g.theta_gs_deg, g.delta_deg)
    )
    _, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    # Renumber the unique rows in order of first occurrence.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    group = rank[inverse.ravel()]
    w = np.bincount(group, weights=table.sf_db) / np.bincount(group)
    return g[first[order]], w


def _spans(n):
    """(start, stop) of each block of :data:`_BLOCK` indices in range(n)."""
    return [(i0, min(i0 + _BLOCK, n)) for i0 in range(0, n, _BLOCK)]


class _TargetCovariance:
    """The (M, k) covariance between training points and k target points
    (:class:`KernelPoints`), built on request a block of columns at a time.

    ``self[:, j0:j1]`` is :func:`covariance_matrix` of the training points
    against ``targets[j0:j1]``; every entry is computed on its own, so a
    block is bitwise that slice of the whole matrix.  The solve reads a
    right-hand side only as ``rhs.shape`` and ``rhs[:, j0:j1]``, so an
    (M, k) array is its own block source.
    """

    def __init__(self, model, points, targets):
        self.shape = (len(points), len(targets))
        self._model, self._points, self._targets = model, points, targets

    def __getitem__(self, index):
        _rows, cols = index
        return covariance_matrix(self._model, self._points, self._targets[cols])


def _covariances(training, targets, model):
    """(w, cov, c0): deduplicated training SF values, training covariance
    with the base nugget on its diagonal, and the (M, len(targets))
    training-target covariance; None when there are no targets.  c0 is an
    array for up to :data:`_BLOCK` targets and otherwise a
    :class:`_TargetCovariance`, which builds it a block at a time."""
    if len(training) == 0:
        raise ValidationError("need at least one training sample")
    if len(targets) == 0:
        return None
    geoms, w = dedup_training(training)
    points = KernelPoints.of(model, geoms)
    targets = KernelPoints.of(model, targets)
    cov = covariance_matrix(model, points)
    if len(targets) > _BLOCK:
        return w, cov, _TargetCovariance(model, points, targets)
    return w, cov, covariance_matrix(model, points, targets)


def assemble_system(
    training,
    target: LinkGeometry,
    model: CorrelationModel,
    mode: str = "angle_aware",
) -> KrigingSystem:
    """Build the covariance blocks for one target.

    ``training`` is an :class:`SfTable` or a sequence of SF samples;
    duplicates are collapsed first, and ``mode`` restricts ``model``.
    """
    w, cov, c0 = _covariances(training, [target], model.restricted(mode))
    return KrigingSystem(
        cov=cov,
        target_cov=c0[:, 0],
        train_w=w,
        sigma2=model.sigma2,
        nugget=model.nugget,
    )


def _check_symmetric(cov):
    """Raise ValidationError naming the first (i, j), i <= j in row-major
    order, where C_ij != C_ji (a NaN is unequal to itself); compared one
    block of rows at a time."""
    for i0, i1 in _spans(cov.shape[0]):
        bad = cov[i0:i1, i0:] != cov[i0:, i0:i1].T
        if bad.any():
            i, j = (int(v) + i0 for v in np.argwhere(bad)[0])
            raise ValidationError(
                f"covariance is not symmetric: C[{i}, {j}] = {cov[i, j]!r}"
                f" but C[{j}, {i}] = {cov[j, i]!r}"
            )


def _restore_lower(work, diag):
    """Mirror the strict upper triangle of ``work`` over its strict lower
    one, a block of columns at a time, then write ``diag`` back."""
    m = work.shape[0]
    for j0, j1 in _spans(m):
        tile = work[j0:j1, j0:j1]
        np.copyto(tile, tile.T, where=_STRICT_LOWER[: j1 - j0, : j1 - j0])
        work[j1:, j0:j1] = work[j0:j1, j1:].T
    work[np.diag_indices(m)] = diag


def _cholesky_rows(n, block_row) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cholesky factor L (A = L L^T) of an n x n symmetric matrix A, a
    block row at a time; returns (rows, inverses): L's block rows and the
    inverses of its diagonal tiles, in order.

    ``block_row(k0, k1)`` returns a writable (k1 - k0, k1) array holding
    rows k0:k1 and columns :k1 of A, which is asked for only when the
    factor reaches it and is overwritten with the same rows of L; the
    strict upper part of its diagonal tile is neither used nor written.
    Up-looking block Cholesky (Golub & Van Loan, *Matrix Computations*,
    4th ed., sec. 4.2) over :data:`_TILE`-row tiles: in block row t, each
    earlier tile j becomes L_tj = (A_tj - L_t,<j L_j,<j^T) inv_j^T, and
    then A_tt - L_t,<t L_t,<t^T is factored and inverted.  Only the rows
    already factored are read, so the rows may be views of one matrix or
    separate arrays, with bitwise the same result; temporaries are
    _TILE x _TILE.  Raises ``np.linalg.LinAlgError`` at the first tile
    that is not positive definite, with that block row partly overwritten.
    """
    rows, inverses = [], []
    buf = np.empty((min(n, _TILE), min(n, _TILE)))
    for k0 in range(0, n, _TILE):
        k1 = min(k0 + _TILE, n)
        width = k1 - k0
        row = block_row(k0, k1)
        out = buf[:width]
        for j0, inv, done in zip(range(0, k0, _TILE), inverses, rows):
            block = row[:, j0 : j0 + _TILE]
            if j0:
                block -= np.matmul(row[:, :j0], done[:, :j0].T, out=out)
            np.copyto(block, np.matmul(block, inv.T, out=out))
        tile = row[:, k0:k1]
        if k0:
            prod = np.matmul(row[:, :k0], row[:, :k0].T, out=out[:, :width])
            l11 = np.linalg.cholesky(tile - prod)
        else:
            l11 = np.linalg.cholesky(tile)
        np.copyto(tile, l11, where=_TILE_LOWER[:width, :width])
        inverses.append(np.linalg.inv(l11))
        rows.append(row)
    return rows, inverses


def _cholesky_in_place(a) -> list[np.ndarray]:
    """Overwrite the lower triangle of the C-ordered symmetric matrix ``a``
    with its Cholesky factor L, reading only that triangle, and return the
    inverses of L's diagonal tiles: :func:`_cholesky_rows` on the views
    ``a[k0:k1, :k1]``.  The strict upper triangle of ``a`` is never
    written; a factor that fails leaves ``a`` partly overwritten.
    """
    return _cholesky_rows(a.shape[0], lambda k0, k1: a[k0:k1, :k1])[1]


def _cholesky_solve_in_place(a, inverses, b) -> None:
    """Overwrite ``b`` with C^-1 b, where :func:`_cholesky_in_place` left
    the factor L of C = L L^T in ``a`` and returned ``inverses``: forward
    with L, then back with L^T, one tile of rows at a time, through one
    (tile, k) temporary for k columns of ``b``."""
    n = a.shape[0]
    tiles = [(k0, min(k0 + _TILE, n), inv)
             for k0, inv in zip(range(0, n, _TILE), inverses)]
    tmp = np.empty((min(n, _TILE),) + b.shape[1:])
    for k0, k1, inv in tiles:
        rows, out = b[k0:k1], tmp[: k1 - k0]
        if k0:
            rows -= np.matmul(a[k0:k1, :k0], b[:k0], out=out)
        np.copyto(rows, np.matmul(inv, rows, out=out))
    for k0, k1, inv in reversed(tiles):
        rows, out = b[k0:k1], tmp[: k1 - k0]
        if k1 < n:
            rows -= np.matmul(a[k1:, k0:k1].T, b[k1:], out=out)
        np.copyto(rows, np.matmul(inv.T, rows, out=out))


def _lower_matvec(rows, g) -> np.ndarray:
    """L @ g for the block rows of L that :func:`_cholesky_rows` returned,
    a block row at a time."""
    out = np.empty(len(g))
    k0 = 0
    for row in rows:
        k1 = row.shape[1]
        tile = np.where(_TILE_LOWER[: k1 - k0, : k1 - k0], row[:, k0:k1], 0.0)
        out[k0:k1] = row[:, :k0] @ g[:k0] + tile @ g[k0:k1]
        k0 = k1
    return out


def _cholesky_schur(cov, rhs, shift):
    """Solve by Cholesky of C, eliminating the unbiasedness row.

    With C [Y | a] = [rhs | 1], the multipliers are the Schur complement
    solution nu = (1^T Y - 1) / (1^T a) and the weights are Y - a nu^T.
    Returns (lambda, nu), or None when C (diagonal shifted by ``shift``)
    is not numerically positive definite.  lambda is a view of the one
    (M, k + 1) buffer that holds the right-hand sides, the solution and
    then the weights.  ``rhs`` is an (M, k) array or a block source (see
    :class:`_TargetCovariance`), copied into the buffer and the weights
    formed a block of columns at a time.

    C is factored in place and given back bitwise as it came, whether or
    not the factor succeeds; this requires C to be exactly symmetric.
    """
    m, k = rhs.shape
    # The factor runs on a C-ordered matrix; any other layout is copied.
    work = np.ascontiguousarray(cov)
    diag = work.diagonal().copy()
    work[np.diag_indices(m)] += shift
    try:
        inverses = _cholesky_in_place(work)
        b = np.empty((m, k + 1))
        for j0, j1 in _spans(k):
            b[:, j0:j1] = rhs[:, j0:j1]
        b[:, k] = 1.0
        _cholesky_solve_in_place(work, inverses, b)
    except np.linalg.LinAlgError:
        return None
    finally:
        # The factor overwrote the lower triangle only; C = C^T restores it.
        _restore_lower(work, diag)
    lam, a = b[:, :k], b[:, k]
    nu = (lam.sum(axis=0) - 1.0) / a.sum()
    tile = np.empty((m, min(k, _BLOCK)))
    for j0, j1 in _spans(k):
        lam[:, j0:j1] -= np.multiply.outer(a, nu[j0:j1], out=tile[:, : j1 - j0])
    return lam, nu


def _explained(lam, c0, tile):
    """lambda^T c0 for one block of columns: the column sums of their
    elementwise product, formed in ``tile``."""
    return np.multiply(lam, c0, out=tile[:, : lam.shape[1]]).sum(axis=0)


def _residual_pass(cov, shift, rhs, lam, nu):
    """One walk over the columns of x = (lambda; nu), a block at a time,
    reading each block of ``rhs`` once (a block source builds it once).

    Returns (residual, scale, explained): the largest |A x - b| entry of
    the augmented system, the largest |rhs| entry, and lambda^T rhs per
    column (see :func:`_explained`).  C lambda is the product of the
    explicit C: each block is formed as (C lambda)^T = lambda^T C^T, which
    reads C itself through its transpose, into one reused (block, M)
    tile; the other block temporaries share one (M, block) tile.
    """
    m, k = lam.shape
    peaks = [np.abs(lam.sum(axis=0) - 1.0).max()]
    scales = []
    explained = np.empty(k)
    row_tile = np.empty((min(k, _BLOCK), m))
    col_tile = np.empty((m, min(k, _BLOCK)))
    for j0, j1 in _spans(k):
        block, c0 = lam[:, j0:j1], rhs[:, j0:j1]
        cols = col_tile[:, : j1 - j0]
        top = np.matmul(block.T, cov.T, out=row_tile[: j1 - j0])
        if shift:
            top += np.multiply(block, shift, out=cols).T
        top += nu[j0:j1, None]
        top -= c0.T
        peaks.append(np.abs(top, out=top).max())
        scales.append(np.abs(c0, out=cols).max())
        explained[j0:j1] = _explained(block, c0, col_tile)
    return float(np.max(peaks)), float(np.max(scales)), explained


def _finite(lam, nu):
    """Whether every weight and multiplier is finite, checked a block of
    columns at a time."""
    return bool(np.isfinite(nu).all()) and all(
        np.isfinite(lam[:, j0:j1]).all() for j0, j1 in _spans(lam.shape[1])
    )


def _solve(cov, rhs, sigma2, base_nugget):
    """Augmented solve with the escalation ladder; returns (lambda, nu,
    nugget, explained).

    ``cov`` already carries ``base_nugget`` on its diagonal and ``rhs`` is
    an (M, k) array or a block source (see :class:`_TargetCovariance`);
    lambda is (M, k), nu and explained (lambda^T rhs per column) are (k,).
    Each rung adds ``nugget - base_nugget`` to the diagonal and makes one
    Cholesky-Schur attempt, copying ``rhs`` into its buffer afresh; the
    first finite solution whose residual, relative to the largest |rhs|
    entry (or 1 if larger), passes is accepted, with explained from its
    residual pass.  A covariance that is not numerically positive definite
    at a rung moves up to the next one.  ``cov`` must be exactly symmetric
    (ValidationError otherwise); it is left unchanged.
    """
    m = cov.shape[0]
    _check_symmetric(cov)
    nugget = base_nugget
    for attempt in range(MAX_ESCALATIONS + 1):
        if attempt:
            nugget = DEFAULT_NUGGET_FACTOR * sigma2 if nugget == 0.0 else nugget * 10.0
        shift = nugget - base_nugget
        sol = _cholesky_schur(cov, rhs, shift)
        if sol is not None and _finite(*sol):
            residual, scale, explained = _residual_pass(cov, shift, rhs, *sol)
            if residual / max(scale, 1.0) < RESIDUAL_TOL:
                return (*sol, nugget, explained)
        del sol  # the next rung's buffer replaces, not joins, this one
    raise SingularSystemError(
        f"augmented system unsolvable after {MAX_ESCALATIONS} nugget escalations"
        f" (M={m}, final nugget={nugget:g})"
    )


def _solve_augmented(cov, rhs, sigma2, base_nugget):
    """:func:`_solve` as (solution, nugget), with the (M + 1, k) solution
    holding the weights over the multipliers in its last row."""
    lam, nu, nugget, _ = _solve(cov, rhs, sigma2, base_nugget)
    return np.vstack((lam, nu)), nugget


def solve_ok(system: KrigingSystem) -> KrigingSystem:
    """Solve an assembled system in place and return it.

    Fills ``weights``, ``multiplier`` and ``nugget_used``; raises
    :class:`SingularSystemError` if the escalation ladder is exhausted.
    """
    lam, nu, nugget, _ = _solve(
        system.cov, system.target_cov[:, None], system.sigma2, system.nugget
    )
    system.weights = lam[:, 0]
    system.multiplier = float(nu[0])
    system.nugget_used = nugget
    return system


@dataclass(frozen=True)
class Prediction:
    """Kriging output for one target of :func:`predict_sf`."""

    w_hat_db: float
    variance_db2: float
    nugget_used: float


def _estimates(lam, nu, w, explained, sigma2):
    """(w_hat, variance): lambda^T w and sigma2 - lambda^T c0 - nu, floored
    at zero, from lambda^T c0 per column."""
    return lam.T @ w, np.maximum(sigma2 - explained - nu, 0.0)


def predict_sf(system: KrigingSystem) -> Prediction:
    """Predictor and variance from a solved (or solvable) single system,
    formed as :func:`predict_sf_batch` forms each column."""
    if system.weights is None:
        solve_ok(system)
    lam, c0 = system.weights[:, None], system.target_cov[:, None]
    w_hat, variance = _estimates(
        lam, system.multiplier, system.train_w,
        _explained(lam, c0, np.empty_like(c0)), system.sigma2,
    )
    return Prediction(float(w_hat[0]), float(variance[0]), float(system.nugget_used))


def predict_sf_batch(
    training, targets, model: CorrelationModel
) -> tuple[np.ndarray, np.ndarray, float]:
    """Kriging predictions for many targets off one factorization.

    ``training`` is an :class:`SfTable` or a sequence of SF samples and
    ``targets`` a :class:`Geometry` or a sequence of link geometries.
    ``model`` is the model a mode restricts (:meth:`CorrelationModel.restricted`).
    Returns (w_hat, variance, nugget_used) with one entry per target.
    A batch of one target gives bitwise what :func:`solve_ok` and
    :func:`predict_sf` give; more targets share one factorization, and
    beyond C hold one (M, k + 1) buffer (see the module docstring).
    """
    blocks = _covariances(training, targets, model)
    if blocks is None:
        return np.empty(0), np.empty(0), model.nugget
    w, cov, c0 = blocks
    lam, nu, nugget, explained = _solve(cov, c0, model.sigma2, model.nugget)
    return (*_estimates(lam, nu, w, explained, model.sigma2), nugget)


def predict_rsrp(
    training, targets, budget: LinkBudget, model: CorrelationModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(w_hat, z_hat, variance, nugget_used) off one factorization: the
    :func:`predict_sf_batch` columns plus z_hat, the two-ray estimate plus
    the Kriged SF."""
    targets = Geometry.of(targets)
    w_hat, variance, nugget = predict_sf_batch(training, targets, model)
    z_hat = RowErrors.strict(link_rsrp, targets, budget) + w_hat
    return w_hat, z_hat, variance, nugget
