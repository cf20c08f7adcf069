"""Ordinary Kriging of shadow fading under the correlation model.

For M tuning samples the weights solve the augmented system

    [ C   1 ] [ lambda ]   [ c0 ]
    [ 1^T 0 ] [  nu    ] = [ 1  ]

with C_ij = sigma2 * r_hat(i, j) + nugget * [i == j] and c0_i the model
covariance between tuning sample i and the target.  The unbiasedness row
forces the weights to sum to one; the predictor is lambda^T w and the
prediction variance is sigma2 - lambda^T c0 - nu, floored at zero.

Kriging handles shadow fading only: a predicted RSRP is the target's
two-ray estimate, from :func:`skyfade.propagation.decompose`, plus its
Kriged SF, and callers form that sum.  Many targets share one
factorization, and :func:`predict_sf_batch` returns columns: one array
per output, one entry per target, and the one nugget the solve used.
Every prediction goes through :func:`_predict`, so a batch of one target
is bitwise :func:`predict_sf`.

The predictions need the weights only through lambda^T w and
lambda^T c0, so they are formed in dual form (Rasmussen & Williams 2006,
Alg. 2.1, with the ordinary Kriging term of Cressie 1993, sec. 3.2; "dual
kriging", Royer & Vieira 1984).  With C = L L^T, one solve
C [alpha | a] = [w | 1] serves every target; for a target with
covariances c0 and v = L^-1 c0,

    nu = (a^T c0 - 1) / (1^T a),    w_hat = c0^T alpha - nu 1^T alpha,
    variance = sigma2 - v^T v + nu^2 1^T a,

so each target costs one forward solve and no weights are formed.  The
acceptance shims :func:`solve_ok` and :func:`_solve_augmented`, which
return the weights, solve C [Y | a] = [c0 | 1] and eliminate the
unbiasedness row by Schur complement: nu = (1^T Y - 1) / (1^T a) and
lambda = Y - a nu.

Both go through one core, :func:`_solve`.  It factors C by Cholesky and
accepts a solution X of C X = B only if the largest |C X - B| entry,
relative to the largest |B| entry, is below the acceptance threshold.
When C is not numerically positive definite, or the solution fails that
test, the diagonal nugget is multiplied by 10 and the factorization is
tried again (diagonal loading), up to six escalations.  An indefinite
covariance is therefore never accepted at the model's nugget: the nugget
actually used is recorded on the system, and callers report it.

What C and c0 are, :class:`skyfade.correlation.Covariance` alone says:
:func:`predict_sf_batch` passes the training points' covariances as
sources, and :func:`solve_ok` the arrays of an assembled system.  The
solve reads either the same way, C only as its lower block rows
``cov[k0:k1, :k1]`` and c0 only as blocks of :data:`_BLOCK` columns, and
never writes them.  The factor's block rows are new arrays, built by the
source or copied from the array, with the rung's shift on their diagonal
tiles, and they are dropped once the predictions are formed.  The
residual check then reads C's lower block rows again, one at a time.
Every pass over L or C (the factor, both triangular solves and the
residual) sweeps the block rows, the back solve from the last one, and
gathers no column.  The source's C is exactly symmetric by construction.
An array must be too, since only its lower triangle is read: the solve
checks this first and raises ValidationError naming the first
asymmetric entry, which no valid covariance has.  Both forms of one C
give bitwise the same solution, residual and predictions.

A mode enters as the model restricted to it (only :func:`assemble_system`
takes a mode name).  The training rows and the targets are each made
kernel points once, and every covariance is built from them.  Exactly
duplicated training geometries collapse to their first row, with the mean
of their SF values (:func:`dedup_training`).  A caller that solves many
systems over subsets of one dataset, as :mod:`skyfade.evaluation` does,
prepares the inputs once for the whole dataset instead: the group ids of
equal geometries (:func:`duplicate_groups`) and the rows' kernel points.
Per system it then averages the drawn rows' duplicates
(:func:`average_duplicates`) and passes :class:`TrainingPoints` and target
:class:`KernelPoints` indexed out of them, which give bitwise what the
rows themselves give.  For k targets, :func:`predict_sf_batch` holds one
large buffer: L's lower triangle, as block rows that hold the diagonal
tiles' inverses in the tiles' places, while the targets are predicted;
the residual check that follows holds one block row of C at a time.  c0
is built once, an M x 128 block at a time, solved in place and dropped
before the next block is built, so the peak is L plus one block, and
beyond the two k-length outputs the memory does not grow with k.  Every
other temporary is an M x 2 pair of columns or a tile of at most 96 x M.

The factor and the triangular solves are numpy alone: an up-looking
block Cholesky over block rows of :data:`_TILE` rows
(:func:`_cholesky_rows`).  A block row's strip left of its diagonal tile
is a forward solve against the rows above it, run by the same
:func:`_forward_rows` as the solves; each diagonal tile is then factored
by numpy's ``cholesky`` and inverted once as a triangle, by halves
(:func:`_lower_inverse`).  The inverse is written over the tile, in the
block row itself, and serves the block rows below it and the triangular
solves; nothing else reads L's diagonal tiles, so no separate inverses
are kept.  The factor reads a block row of the lower triangle only when
it reaches it, so it never holds the upper half; the field draw in
:mod:`fieldsim` factors a :class:`~skyfade.correlation.Covariance` too
and multiplies by the factor with :func:`_lower_matvec`, which solves
against each stored inverse for the tile's share, so only this module
knows the tile layout.
The tiles stay below 128 rows because
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
    Covariance,
    KernelPoints,
)
from .errors import SingularSystemError, ValidationError
from .geometry import Columns, Geometry, LinkGeometry, first_occurrence_groups
from .propagation import SfTable

RESIDUAL_TOL = 1.0e-8
MAX_ESCALATIONS = 6
# Rows per block in the symmetry check, and targets per block of c0 in the
# predictions: each M x 128 block is built, solved in place and dropped
# before the next.
_BLOCK = 128
# Rows per diagonal tile of the Cholesky factor, and per block row of C
# in the residual; below 128, where numpy's LAPACK calls turn
# multi-threaded (see the module docstring).
_TILE = 96


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


def duplicate_groups(geometry: Geometry) -> np.ndarray:
    """Group id of each row of ``geometry``: rows share one exactly when
    they are equal in east, north, up, theta, theta_gs and delta.  The ids
    are numbered in order of first occurrence
    (:func:`~skyfade.geometry.first_occurrence_groups`)."""
    keys = np.column_stack(
        (
            geometry.east_m, geometry.north_m, geometry.up_m,
            geometry.theta_deg, geometry.theta_gs_deg, geometry.delta_deg,
        )
    )
    return first_occurrence_groups(keys)[1]


def average_duplicates(ids, values) -> tuple[np.ndarray, np.ndarray]:
    """(first, means) for rows with group ids ``ids``: the index of each
    group's first row, in order of first occurrence, and the mean of
    ``values`` over each group, in the same order.  Only which ids are
    equal matters, so the ids of a larger row set, indexed by some of its
    rows, give bitwise what those rows' own ids give."""
    first, group = first_occurrence_groups(ids)
    return first, np.bincount(group, weights=values) / np.bincount(group)


def dedup_training(samples) -> tuple[Geometry, np.ndarray]:
    """Collapse exactly duplicated training geometries.

    ``samples`` is an :class:`SfTable` or a sequence of SF samples.  The
    first occurrence keeps its position in the ordering and its SF value
    becomes the mean over all duplicates (:func:`duplicate_groups`,
    :func:`average_duplicates`).
    """
    table = SfTable.of(samples)
    if len(table) == 0:
        return table.geometry, np.empty(0)
    first, w = average_duplicates(duplicate_groups(table.geometry), table.sf_db)
    return table.geometry[first], w


@dataclass(frozen=True, eq=False)
class TrainingPoints(Columns):
    """Deduplicated training rows as the solve takes them: their
    :class:`KernelPoints` under one model and each row's SF value averaged
    over its duplicates.  ``len()`` is M, the order of the system."""

    points: KernelPoints
    sf_db: np.ndarray


def _spans(n, size=_BLOCK):
    """(start, stop) of each block of ``size`` indices in range(n)."""
    return [(i0, min(i0 + size, n)) for i0 in range(0, n, size)]


def _covariances(training, targets, model):
    """(w, cov, c0): deduplicated training SF values, and as
    :class:`Covariance` sources the training covariance, with the base
    nugget on its diagonal, and the (M, len(targets)) training-target
    covariance; None when there are no targets.  ``training`` may already
    be :class:`TrainingPoints` and ``targets`` :class:`KernelPoints` under
    ``model``."""
    if len(training) == 0:
        raise ValidationError("need at least one training sample")
    if len(targets) == 0:
        return None
    if not isinstance(training, TrainingPoints):
        geoms, w = dedup_training(training)
        training = TrainingPoints(KernelPoints.of(model, geoms), w)
    if not isinstance(targets, KernelPoints):
        targets = KernelPoints.of(model, targets)
    points = training.points
    return training.sf_db, Covariance(model, points), Covariance(model, points, targets)


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
        cov=cov[:, :],
        target_cov=c0[:, :][:, 0],
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


def _lower_inverse(lower) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, lower-triangular
    too, by blocks (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    sec. 3.1): with lower = [[A, 0], [B, D]] split at half its width, the
    inverse is [[inv(A), 0], [-inv(D) B inv(A), inv(D)]].  The halves are
    inverted by numpy's general ``inv``; the block above them is exactly
    zero.  On a 96-row tile this takes about 0.13 ms against 0.23 ms for
    ``inv`` of the whole tile, which ignores the triangle (2 vCPUs)."""
    h = lower.shape[0] // 2
    inv = np.zeros_like(lower)
    top, bottom = inv[:h, :h], inv[h:, h:]
    if h:  # a 1 x 1 tile has no top half
        top[...] = np.linalg.inv(lower[:h, :h])
    bottom[...] = np.linalg.inv(lower[h:, h:])
    np.matmul(bottom, lower[h:, :h] @ top, out=inv[h:, :h])
    np.negative(inv[h:, :h], out=inv[h:, :h])
    return inv


def _cholesky_rows(cov, shift) -> list[np.ndarray]:
    """Cholesky factor L (L L^T = C + shift I) of an n x n symmetric C, a
    block row at a time; returns its block rows, in order, each holding
    L's strip left of its diagonal tile and, in the tile's place, the
    inverse of L's diagonal tile.

    ``cov`` is an array or a :class:`Covariance`, read only as its lower
    block rows ``cov[k0:k1, :k1]``, each when the factor reaches it.  A
    block the source builds is used as it is, a view of an array is copied,
    and ``shift`` is added on its diagonal tile; ``cov`` itself is never
    written.  Each block row is then overwritten: its strip with the same
    rows of L and its diagonal tile with the tile inverse.
    Up-looking block Cholesky (Golub & Van Loan, *Matrix Computations*,
    4th ed., sec. 4.2) over :data:`_TILE`-row tiles: in block row t, the
    strip left of the diagonal tile satisfies L_t,<t^T = L_<t^-1 A_<t,t,
    a forward solve against the rows already factored, which
    :func:`_forward_rows` runs in place on the strip's transpose; then
    A_tt - L_t,<t L_t,<t^T is factored, and only its factor's inverse
    (:func:`_lower_inverse`) is kept.  Raises ``np.linalg.LinAlgError`` at
    the first tile that is not positive definite.
    """
    rows = []
    for k0, k1 in _spans(cov.shape[0], _TILE):
        row = np.require(cov[k0:k1, :k1], requirements="CO")
        row[:, k0:k1][np.diag_indices(k1 - k0)] += shift
        left, tile = row[:, :k0], row[:, k0:k1]
        _forward_rows(rows, left.T)
        tile[...] = _lower_inverse(np.linalg.cholesky(tile - left @ left.T))
        rows.append(row)
    return rows


def _forward_rows(rows, b) -> None:
    """Overwrite ``b`` with L^-1 b, where ``rows`` are what
    :func:`_cholesky_rows` returned for C = L L^T, one tile of rows at a
    time, through one (tile, k) temporary for k columns of ``b``.  ``b``
    may be a strided view, as the factor's transposed strip is.  Each
    tile of rows takes out the strip's product with the rows above, then
    multiplies by the tile inverse its block row holds; the first tile's
    product with no earlier rows adds exact zeros."""
    n = b.shape[0]
    tmp = np.empty((min(n, _TILE),) + b.shape[1:])
    for (k0, k1), row in zip(_spans(n, _TILE), rows):
        part, out = b[k0:k1], tmp[: k1 - k0]
        part -= np.matmul(row[:, :k0], b[:k0], out=out)
        np.copyto(part, np.matmul(row[:, k0:k1], part, out=out))


def _cholesky_solve_rows(rows, b) -> None:
    """Overwrite ``b`` with C^-1 b for C = L L^T: forward with L
    (:func:`_forward_rows`), then back with L^T by columns (Golub & Van
    Loan, *Matrix Computations*, 4th ed., sec. 3.1), from the last tile of
    rows to the first, so it too reads only the block rows: each tile's
    rows of b are solved with the transpose of the tile inverse the block
    row holds, and the strip left of it, transposed, then takes their
    share out of the rows above."""
    _forward_rows(rows, b)
    n = b.shape[0]
    tmp = np.empty((min(n, _TILE),) + b.shape[1:])
    for (k0, k1), row in reversed(list(zip(_spans(n, _TILE), rows))):
        part = b[k0:k1]
        np.copyto(part, np.matmul(row[:, k0:k1].T, part, out=tmp[: k1 - k0]))
        b[:k0] -= row[:, :k0].T @ part


def _lower_matvec(rows, g) -> np.ndarray:
    """L @ g for the block rows that :func:`_cholesky_rows` returned, a
    block row at a time: the strip's product plus L_tt g_t, solved
    against the tile inverse the block row holds."""
    out = np.empty(len(g))
    for (k0, k1), row in zip(_spans(len(g), _TILE), rows):
        out[k0:k1] = row[:, :k0] @ g[:k0] + np.linalg.solve(row[:, k0:k1], g[k0:k1])
    return out


def _residual(cov, shift, x, b) -> float:
    """The largest |(C + shift I) X - B| entry, (C + shift I) X formed from
    C's lower block rows ``cov[k0:k1, :k1]`` alone, as C = C^T allows
    (Golub & Van Loan, sec. 1.2): each adds its product with X to its own
    rows and, left of its diagonal tile, transposed, to the rows above.
    The block rows are read in order, one at a time, and each is dropped
    before the next is built."""
    cx = shift * x
    for k0, k1 in _spans(len(x), _TILE):
        row = cov[k0:k1, :k1]
        cx[k0:k1] += row @ x[:k1]
        cx[:k0] += row[:, :k0].T @ x[k0:k1]
        del row
    cx -= b
    return float(np.abs(cx, out=cx).max())


def _solve(cov, b, sigma2, base_nugget, outputs=None):
    """X = C^-1 B with the escalation ladder; returns (X, nugget, out).

    ``cov`` already carries ``base_nugget`` on its diagonal; it is an
    (M, M) array, which must be exactly symmetric (ValidationError
    otherwise), or a :class:`Covariance`, and it is never written.  ``b``
    is an (M, n) array.  Each rung adds ``nugget - base_nugget`` to the
    diagonal, factors (:func:`_cholesky_rows`) and solves a copy of B.
    While the factor is held, ``out = outputs(rows, X)``, ``rows`` as
    :func:`_cholesky_rows` returned them (None without ``outputs``); the
    factor is then dropped before the residual
    check builds C's block rows again.  The first finite X whose
    largest |C X - B| entry (:func:`_residual`), relative to the largest
    |B| entry (or 1 if larger), is below RESIDUAL_TOL is accepted.  A
    covariance that is not numerically positive definite at a rung moves
    up to the next one.  From a source, each rung builds C's lower
    triangle twice, once for the factor and once for the residual check:
    at M = 4000 each build takes about 0.11 s of a rung's 0.84 s (1000
    targets, 2 vCPUs), where a rung on an array copies or reads its rows
    instead.
    """
    m = cov.shape[0]
    if isinstance(cov, np.ndarray):
        _check_symmetric(cov)
    scale = max(float(np.abs(b).max()), 1.0)
    nugget = base_nugget
    for attempt in range(MAX_ESCALATIONS + 1):
        if attempt:
            nugget = DEFAULT_NUGGET_FACTOR * sigma2 if nugget == 0.0 else nugget * 10.0
        shift = nugget - base_nugget
        try:
            rows = _cholesky_rows(cov, shift)
        except np.linalg.LinAlgError:
            continue
        x = b.copy()
        _cholesky_solve_rows(rows, x)
        out = outputs(rows, x) if outputs else None
        del rows
        if np.isfinite(x).all() and _residual(cov, shift, x, b) / scale < RESIDUAL_TOL:
            return x, nugget, out
    raise SingularSystemError(
        f"augmented system unsolvable after {MAX_ESCALATIONS} nugget escalations"
        f" (M={m}, final nugget={nugget:g})"
    )


def _weights(cov, rhs, sigma2, base_nugget):
    """(lambda, nu, nugget): the augmented system's weights (M, k) and
    multipliers (k,) for the (M, k) right-hand sides ``rhs``, from one
    :func:`_solve` of C [Y | a] = [rhs | 1], eliminating the unbiasedness
    row by Schur complement."""
    b = np.column_stack((rhs, np.ones(len(rhs))))
    x, nugget, _ = _solve(cov, b, sigma2, base_nugget)
    y, a = x[:, :-1], x[:, -1:]
    nu = (y.sum(axis=0) - 1.0) / a.sum()
    return y - a * nu, nu, nugget


def _solve_augmented(cov, rhs, sigma2, base_nugget):
    """:func:`_weights` as (solution, nugget), with the (M + 1, k) solution
    holding the weights over the multipliers in its last row."""
    lam, nu, nugget = _weights(cov, rhs, sigma2, base_nugget)
    return np.vstack((lam, nu)), nugget


def solve_ok(system: KrigingSystem) -> KrigingSystem:
    """Solve an assembled system in place and return it.

    Fills ``weights``, ``multiplier`` and ``nugget_used``; raises
    :class:`SingularSystemError` if the escalation ladder is exhausted.
    """
    lam, nu, nugget = _weights(
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


def _predict(cov, c0, w, sigma2, base_nugget):
    """(w_hat, variance, nugget) for every target, in dual form (see the
    module docstring), the variance floored at zero.

    ``cov`` is C as :func:`_solve` takes it, ``c0`` the (M, k) target
    covariance, an array or a :class:`Covariance`, and ``w`` the (M,)
    training SF values.  One solve gives X = [alpha | a] = C^-1 [w | 1];
    each block of :data:`_BLOCK` targets then builds (or copies) its c0
    block once, takes c0^T X and forward-solves the block in place into
    v = L^-1 c0, while the factor is held, before the residual check.
    Each block is released before the next is built, so the factor's
    rows and one block are the most that is held.

    What the check on [w | 1] bounds: with R = [R_w | R_1] = C X - [w | 1],
    X solves [w | 1] + R exactly, and the check holds every |R| entry below
    RESIDUAL_TOL max(|w|, 1).  To first order, with lambda = C^-1 (c0 -
    nu 1) a target's weights, R_w moves its w_hat by lambda^T R_w, at
    most ||lambda||_1 max |R_w|; R_1 moves its nu by lambda^T R_1 / 1^T a,
    and so its w_hat by -1^T alpha times that and its variance by
    nu (2 lambda + nu a)^T R_1.  The forward solves of c0 run on the factor
    that solved [w | 1]; they are not checked target by target.
    """
    k = c0.shape[1]

    def outputs(rows, x):
        alpha_sum, a_sum = x.sum(axis=0)
        w_hat, variance = np.empty(k), np.empty(k)
        for j0, j1 in _spans(k):
            v = np.require(c0[:, j0:j1], requirements="CO")
            c0_alpha, c0_a = x.T @ v
            _forward_rows(rows, v)
            nu = (c0_a - 1.0) / a_sum
            w_hat[j0:j1] = c0_alpha - nu * alpha_sum
            variance[j0:j1] = sigma2 - np.einsum("ij,ij->j", v, v) + nu**2 * a_sum
            del v  # before the next block is built
        return w_hat, np.maximum(variance, 0.0)

    b = np.column_stack((w, np.ones(len(w))))
    _x, nugget, (w_hat, variance) = _solve(cov, b, sigma2, base_nugget, outputs)
    return w_hat, variance, nugget


def predict_sf(system: KrigingSystem) -> Prediction:
    """Predictor and variance of a single system, formed from its arrays
    as :func:`predict_sf_batch` forms each target's; solves the system
    first (:func:`solve_ok`) if it has no weights yet."""
    if system.weights is None:
        solve_ok(system)
    w_hat, variance, nugget = _predict(
        system.cov, system.target_cov[:, None], system.train_w, system.sigma2,
        system.nugget,
    )
    return Prediction(float(w_hat[0]), float(variance[0]), float(nugget))


def predict_sf_batch(
    training, targets, model: CorrelationModel
) -> tuple[np.ndarray, np.ndarray, float]:
    """Kriging predictions for many targets off one factorization.

    ``training`` is an :class:`SfTable` or a sequence of SF samples, or
    :class:`TrainingPoints` already made under ``model``, and ``targets``
    a :class:`Geometry` or a sequence of link geometries, or
    :class:`KernelPoints` already made under ``model``; prepared inputs
    give bitwise the results of the rows they were made from.  ``model``
    is the model a mode restricts (:meth:`CorrelationModel.restricted`).
    Returns (w_hat, variance, nugget_used) with one entry per target.
    A batch of one target gives bitwise what :func:`predict_sf` gives;
    more targets share one factorization.  C and c0 reach the solve as
    :class:`Covariance` sources, C read in lower block rows and c0 in
    blocks of :data:`_BLOCK` targets, never whole, which gives bitwise the
    results of the whole arrays (see :func:`_predict`).
    """
    blocks = _covariances(training, targets, model)
    if blocks is None:
        return np.empty(0), np.empty(0), model.nugget
    w, cov, c0 = blocks
    return _predict(cov, c0, w, model.sigma2, model.nugget)

