"""Ordinary Kriging: augmented solve, exactness, modes, and escalation."""

import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from _recipes import (
    BUDGET,
    assemble_lower,
    assert_tile_inverses,
    built_entries,
    decompose_all,
    kernel_correlation,
    kernel_covariance,
    lower_entries,
    same_geometry,
)
from skyfade import FlightSpec, SimConfig, correlation, kriging, synthesize_dataset
from skyfade.correlation import (
    MODES,
    Q_CAP_DEG,
    CorrelationModel,
    Covariance,
    DedmParams,
    KernelPoints,
)
from skyfade.errors import SingularSystemError, ValidationError
from skyfade.geometry import Geometry
from skyfade.kriging import (
    _BLOCK,
    _TILE,
    RESIDUAL_TOL,
    KrigingSystem,
    _cholesky_rows,
    _cholesky_solve_rows,
    _forward_rows,
    _predict,
    _residual,
    _solve,
    _solve_augmented,
    _weights,
    assemble_system,
    dedup_training,
    predict_sf,
    predict_sf_batch,
    solve_ok,
)
from skyfade.propagation import SfSample, SfTable
from test_correlation import mk_geom, mk_sf, oracle_correlation


def smooth_model(nugget=0.0, sigma2=9.0):
    return CorrelationModel.with_uniform_kernels(
        0.0,
        sigma2,
        DedmParams(0.6, 0.01, 0.001),
        q_pos_deg=40.0,
        r_pos_deg=50.0,
        nugget=nugget,
    )


def scattered_samples(n, seed, spread=200.0):
    rng = np.random.default_rng(seed)
    return [
        mk_sf(
            rng.normal(0.0, 3.0),
            east=float(rng.uniform(-spread, spread)),
            north=float(rng.uniform(-spread, spread)),
            theta=float(rng.uniform(5.0, 80.0)),
            delta=float(rng.uniform(-12.0, 12.0)),
        )
        for _ in range(n)
    ]


class TestAugmentedSolve:
    def test_two_sample_hand_solution(self):
        sigma2 = 4.0
        system = KrigingSystem(
            cov=sigma2 * np.array([[1.0, 0.5], [0.5, 1.0]]),
            target_cov=sigma2 * np.array([0.8, 0.2]),
            train_w=np.array([2.0, -1.0]),
            sigma2=sigma2,
            nugget=0.0,
        )
        solve_ok(system)
        assert system.weights == pytest.approx([1.1, -0.1], abs=1e-9)
        assert system.multiplier == pytest.approx(-0.25 * sigma2, abs=1e-9)
        pred = predict_sf(system)
        assert pred.w_hat_db == pytest.approx(1.1 * 2.0 - 0.1 * -1.0, abs=1e-9)
        assert pred.variance_db2 == pytest.approx(1.56, abs=1e-9)
        assert pred.nugget_used == 0.0

    def test_single_sample_weight_is_one(self):
        system = KrigingSystem(
            cov=np.array([[9.0]]),
            target_cov=np.array([3.0]),
            train_w=np.array([1.7]),
            sigma2=9.0,
            nugget=0.0,
        )
        pred = predict_sf(system)
        assert system.weights == pytest.approx([1.0], abs=1e-12)
        assert pred.w_hat_db == pytest.approx(1.7, abs=1e-12)

    def test_symmetric_pair_splits_evenly(self):
        sigma2 = 4.0
        system = KrigingSystem(
            cov=sigma2 * np.array([[1.0, 0.3], [0.3, 1.0]]),
            target_cov=sigma2 * np.array([0.6, 0.6]),
            train_w=np.array([1.0, 3.0]),
            sigma2=sigma2,
            nugget=0.0,
        )
        solve_ok(system)
        assert system.weights == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_generic_system_matches_direct_solve(self):
        model = smooth_model(nugget=1e-4)
        training = scattered_samples(5, seed=14)
        target = mk_geom(35.0, -60.0, theta=33.0, delta=3.0)
        system = solve_ok(assemble_system(training, target, model))
        m = len(training)
        aug = np.zeros((m + 1, m + 1))
        aug[:m, :m] = system.cov
        aug[:m, m] = 1.0
        aug[m, :m] = 1.0
        rhs = np.concatenate([system.target_cov, [1.0]])
        x = np.linalg.solve(aug, rhs)
        assert system.weights == pytest.approx(x[:m], abs=1e-9)
        assert system.multiplier == pytest.approx(x[m], abs=1e-9)

    def test_weights_sum_to_one(self):
        model = smooth_model(nugget=1e-5)
        training = scattered_samples(40, seed=15)
        for mode in ("baseline", "angle_aware"):
            target = mk_geom(10.0, 20.0, theta=25.0, delta=-2.0)
            system = solve_ok(assemble_system(training, target, model, mode))
            assert float(np.sum(system.weights)) == pytest.approx(1.0, abs=1e-9)

    def test_singular_system_escalates_nugget(self):
        sigma2 = 4.0
        system = KrigingSystem(
            cov=sigma2 * np.ones((2, 2)),  # perfectly correlated pair, no nugget
            target_cov=sigma2 * np.array([1.0, 1.0]),
            train_w=np.array([2.0, 4.0]),
            sigma2=sigma2,
            nugget=0.0,
        )
        solve_ok(system)
        assert system.nugget_used == pytest.approx(1e-6 * sigma2)
        assert system.weights == pytest.approx([0.5, 0.5], abs=1e-6)
        assert float(np.sum(system.weights)) == pytest.approx(1.0, abs=1e-9)


def augmented_direct(cov, rhs):
    """Reference solution of the augmented system by np.linalg.solve."""
    m = cov.shape[0]
    aug = np.zeros((m + 1, m + 1))
    aug[:m, :m] = cov
    aug[:m, m] = 1.0
    aug[m, :m] = 1.0
    b = np.vstack([rhs, np.ones((1, rhs.shape[1]))])
    return np.linalg.solve(aug, b)


def with_ones(rhs):
    """The right-hand sides [rhs | 1] the core solves for the shims."""
    return np.column_stack((rhs, np.ones(len(rhs))))


class TestSolvePaths:
    def test_cholesky_schur_matches_augmented_solve(self):
        model = smooth_model(nugget=1e-4)
        training = scattered_samples(60, seed=26)
        geoms = [s.geometry for s in training]
        cov = model.sigma2 * kernel_correlation(model, geoms)
        cov[np.diag_indices_from(cov)] += model.nugget
        # 300 targets take the weights' formation past one column block.
        for k in (7, 300):
            targets = [g.geometry for g in scattered_samples(k, seed=27)]
            rhs = model.sigma2 * kernel_correlation(model, geoms, targets)
            expect = augmented_direct(cov, rhs)
            lam, nu, nugget = _weights(cov, rhs, model.sigma2, model.nugget)
            assert nugget == model.nugget
            assert np.max(np.abs(np.vstack((lam, nu)) - expect)) <= 1e-9

    def test_augmented_shim_stacks_the_core_solution(self):
        cov, model = spd_covariance(200, seed=28)
        rhs = np.random.default_rng(28).standard_normal((200, 5))
        lam, nu, nugget = _weights(cov, rhs, model.sigma2, model.nugget)
        x, shim_nugget = _solve_augmented(cov, rhs, model.sigma2, model.nugget)
        assert shim_nugget == nugget
        assert np.array_equal(x, np.vstack((lam, nu)))

    def test_indefinite_covariance_exhausts_the_ladder(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        rhs = np.array([[0.5], [0.3]])
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_rows(cov, 0.0)
        system = KrigingSystem(
            cov=cov, target_cov=rhs[:, 0], train_w=np.array([1.0, 2.0]),
            sigma2=1.0, nugget=0.0,
        )
        # Rungs 0, 1e-6, ..., 0.1: the message names the last one tried.
        with pytest.raises(
            SingularSystemError,
            match=r"after 6 nugget escalations \(M=2, final nugget=0\.1\)",
        ):
            solve_ok(system)

    def test_mildly_indefinite_covariance_loads_the_diagonal(self):
        sigma2 = 4.0
        base = 1e-6 * sigma2
        corr = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.5], [0.9, 0.5, 1.0]])
        assert np.linalg.eigvalsh(corr)[0] == pytest.approx(-0.047, abs=1e-3)
        cov = sigma2 * corr
        cov[np.diag_indices(3)] += base
        rhs = sigma2 * np.array([[0.8, 0.1], [0.5, 0.7], [0.3, 0.2]])
        x, nugget, _ = _solve(cov, with_ones(rhs), sigma2, base)
        assert nugget > base
        # Accepted at the first rung that factors: 0.1 * sigma2; the rung
        # below it (0.01 * sigma2) is still indefinite.
        assert nugget == pytest.approx(0.1 * sigma2, rel=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_rows(cov, nugget / 10.0 - base)
        assert _residual(cov, nugget - base, x, with_ones(rhs)) < RESIDUAL_TOL
        lam, _nu, shim_nugget = _weights(cov, rhs, sigma2, base)
        assert shim_nugget == nugget
        assert np.sum(lam, axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)

    # The dual outputs against the augmented system solved whole: w_hat is
    # lambda^T w and sigma2 - variance is lambda^T c0 + nu, summed over
    # every row.  Past _BLOCK targets c0 comes in more than one block, and
    # 250 rows take three row blocks of the forward solve.
    @pytest.mark.parametrize("k", [1, 7, _BLOCK, _BLOCK + 1, 300, 600])
    def test_explained_is_lambda_t_rhs_over_every_row(self, k):
        cov, model = spd_covariance(250, seed=29)
        geoms = [s.geometry for s in scattered_samples(250, seed=29)]
        targets = [s.geometry for s in scattered_samples(k, seed=30)]
        rhs = model.sigma2 * kernel_correlation(model, geoms, targets)
        w = np.random.default_rng(k).normal(0.0, 3.0, 250)
        w_hat, variance, nugget = _predict(cov, rhs, w, model.sigma2, model.nugget)
        x = augmented_direct(cov, rhs)
        lam, nu = x[:-1], x[-1]
        assert nugget == model.nugget
        assert np.abs(w_hat - lam.T @ w).max() <= 1e-9
        assert np.all(variance > 0.0)
        explained = model.sigma2 - variance
        assert np.abs(explained - (lam * rhs).sum(axis=0) - nu).max() <= 1e-9

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_residual_is_the_explicit_augmented_product(self, k):
        # A 9-row C is one tile, whose lower block row is all of it: the
        # residual reads C itself, not C^T, so a non-symmetric C tells the
        # two apart.  _check_symmetric, not the residual, guards symmetry.
        m, shift = 9, 0.25
        rng = np.random.default_rng(k)
        cov = rng.standard_normal((m, m)) + m * np.eye(m)
        rhs = rng.standard_normal((m, k))
        rhs[:, -1] *= 100.0  # the worst column is the last
        x = rng.standard_normal((m, k + 1))
        expect = augmented_residual(cov, shift, rhs, x)
        assert abs(augmented_residual(cov.T, shift, rhs, x) - expect) > 0.1
        residual = _residual(cov, shift, x, with_ones(rhs))
        assert residual == pytest.approx(expect, rel=1e-12)

    # 2 * _TILE + 5 rows: three lower block rows of a symmetric C, the
    # last one short.  A Covariance source and its whole array, whose block
    # rows are views, give bitwise the same residual.
    @pytest.mark.parametrize("form", ["array", "source"])
    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_residual_over_row_blocks_is_the_explicit_augmented_product(self, k, form):
        m, shift = 2 * _TILE + 5, 0.25
        rng = np.random.default_rng(k)
        model = smooth_model(nugget=1e-4)
        geoms = [s.geometry for s in scattered_samples(m, seed=k)]
        source = Covariance(model, KernelPoints.of(model, geoms))
        array = source[:, :]
        rhs = rng.standard_normal((m, k))
        x = rng.standard_normal((m, k + 1))
        cov = source if form == "source" else array
        residual = _residual(cov, shift, x, with_ones(rhs))
        assert residual == _residual(array, shift, x, with_ones(rhs))
        assert residual == pytest.approx(
            augmented_residual(array, shift, rhs, x), rel=1e-12
        )

    def test_residual_holds_one_block_row_at_a_time(self):
        # The residual asks for C's lower block rows once each, in order,
        # and no block it was given is alive when it asks for the next.
        m = 3 * _TILE + 5
        cov = random_spd(m, seed=31)
        asked, alive, given = [], [], []

        class Recording:
            shape = cov.shape

            def __getitem__(self, index):
                asked.append(index[0].start)
                alive.append(sum(ref() is not None for ref in given))
                block = cov[index].copy()  # a new array, as a source builds
                given.append(weakref.ref(block))
                return block

        rng = np.random.default_rng(31)
        x, b = rng.standard_normal((m, 2)), rng.standard_normal((m, 2))
        residual = _residual(Recording(), 0.25, x, b)
        assert asked == list(range(0, m, _TILE))
        assert alive == [0] * len(asked)
        assert residual == _residual(cov, 0.25, x, b)

    def test_predict_holds_one_c0_block_at_a_time(self):
        # _predict asks for c0's blocks of _BLOCK targets once each, in
        # order, and no block it was given is alive when it asks for the
        # next: the peak is L plus one block.
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(150, seed=32))
        targets = Geometry.of([s.geometry for s in scattered_samples(3 * _BLOCK + 5, seed=33)])
        w, cov, c0 = kriging._covariances(training, targets, model)
        whole = c0[:, :]
        asked, alive, given = [], [], []

        class Recording:
            shape = whole.shape

            def __getitem__(self, index):
                asked.append(index[1].start)
                alive.append(sum(ref() is not None for ref in given))
                block = whole[index].copy()  # a new array, as a source builds
                given.append(weakref.ref(block))
                return block

        got = _predict(cov, Recording(), w, model.sigma2, model.nugget)
        assert asked == list(range(0, whole.shape[1], _BLOCK))
        assert alive == [0] * len(asked)
        assert_bitwise(got, _predict(cov, whole, w, model.sigma2, model.nugget))


def augmented_residual(cov, shift, rhs, x):
    """The largest |(C + shift I) X - [rhs | 1]| entry, formed whole."""
    return np.max(np.abs((cov + shift * np.eye(len(cov))) @ x - with_ones(rhs)))


def spd_covariance(m, seed):
    """A symmetric positive definite covariance over m scattered samples,
    with a small nugget on its diagonal, and the model that built it."""
    model = smooth_model(nugget=1e-4)
    geoms = [s.geometry for s in scattered_samples(m, seed=seed)]
    cov = model.sigma2 * kernel_correlation(model, geoms)
    cov[np.diag_indices_from(cov)] += model.nugget
    return cov, model


class TestInPlaceFactor:
    """The solver leaves the caller's covariance as it was: the factor
    works on new arrays, its block rows copied from the matrix."""

    def test_cholesky_schur_restores_cov_after_success(self):
        cov, model = spd_covariance(300, seed=40)
        rhs = np.random.default_rng(40).standard_normal((300, 3))
        before = cov.copy()
        _cholesky_rows(cov, 0.5)
        _solve_augmented(cov, rhs, model.sigma2, model.nugget)
        assert np.array_equal(cov, before)

    @pytest.mark.parametrize(
        "cov",
        [
            [[1.0, 2.0], [2.0, 1.0]],
            # The factor scales the first column before the second pivot fails.
            [[4.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1.0, 3.0, 2.0]],
        ],
    )
    def test_cholesky_schur_restores_cov_after_failed_factor(self, cov):
        cov = np.array(cov)
        before = cov.copy()
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_rows(cov, 0.0)
        assert np.array_equal(cov, before)

    def test_escalating_solve_restores_cov(self):
        sigma2 = 4.0
        base = 1e-6 * sigma2
        cov = sigma2 * np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.5], [0.9, 0.5, 1.0]])
        cov[np.diag_indices(3)] += base
        before = cov.copy()
        rhs = sigma2 * np.array([[0.8, 0.1], [0.5, 0.7], [0.3, 0.2]])
        _x, nugget = _solve_augmented(cov, rhs, sigma2, base)
        assert nugget > base
        assert np.array_equal(cov, before)

    def test_solve_ok_leaves_system_cov_unchanged(self):
        model = smooth_model(nugget=1e-4)
        training = scattered_samples(200, seed=41)
        target = mk_geom(15.0, -40.0, theta=30.0, delta=2.0)
        system = assemble_system(training, target, model)
        before, target_before = system.cov.copy(), system.target_cov.copy()
        solve_ok(system)
        assert np.array_equal(system.cov, before)
        # The predictions forward-solve a copy of the target covariances.
        predict_sf(system)
        assert np.array_equal(system.cov, before)
        assert np.array_equal(system.target_cov, target_before)

    def test_memory_layout_does_not_change_the_solution(self):
        cov, model = spd_covariance(150, seed=42)
        rhs = np.random.default_rng(42).standard_normal((150, 4))
        big = np.zeros((300, 300))
        big[::2, ::2] = cov
        layouts = [np.asfortranarray(cov), big[::2, ::2]]
        x, _nugget = _solve_augmented(cov, rhs, model.sigma2, model.nugget)
        for view in layouts:
            assert not view.flags.c_contiguous
            got, _nugget = _solve_augmented(view, rhs, model.sigma2, model.nugget)
            assert np.array_equal(got, x)
            assert np.array_equal(view, cov)

    @pytest.mark.parametrize("i, j", [(0, 1), (4, 199), (150, 3)])
    def test_asymmetric_cov_is_rejected_and_left_unchanged(self, i, j):
        cov, model = spd_covariance(200, seed=43)
        cov[i, j] = np.nextafter(cov[i, j], np.inf)
        before = cov.copy()
        first, second = min(i, j), max(i, j)
        with pytest.raises(
            ValidationError, match=rf"not symmetric: C\[{first}, {second}\]"
        ):
            _solve_augmented(cov, cov[:, :2], model.sigma2, model.nugget)
        assert np.array_equal(cov, before)

    def test_array_solve_holds_its_factor_and_no_copy(self):
        # Beside the caller's C the solve holds L's lower triangle, an
        # allowance of 4 * 96 + 128 columns for its tiles, and the
        # (M, k + 1) solution of [rhs | 1] (traced peak about 0.8 of the
        # bound); a copy of C would add 8 M^2 bytes, more than the bound.
        m, k = 1500, 20
        cov, model = spd_covariance(m, seed=44)
        rhs = np.random.default_rng(44).standard_normal((m, k))
        tracemalloc.start()
        try:
            _solve_augmented(cov, rhs, model.sigma2, model.nugget)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (m * m / 2 + (4 * _TILE + _BLOCK) * m) + 8 * (m + _TILE) * (k + 1)
        assert bound < 8 * m * m
        assert peak < bound


def escalating_training(m, seed):
    """m scattered samples plus a copy of the first at another height: the
    two stay apart in deduplication, but their covariance rows are equal
    (the model reads no height), so at a zero nugget C is singular."""
    samples = scattered_samples(m, seed=seed)
    g = samples[0].geometry
    twin = SfSample(
        geometry=mk_geom(g.east_m, g.north_m, g.theta_deg, g.delta_deg, up=g.up_m + 15.0),
        sf_db=1.0,
        rsrp_dbm=1.0,
        pl_est_dbm=0.0,
    )
    return SfTable.of(samples + [twin])


def full_array_path(training, targets, model):
    """(w_hat, variance, nugget) from :func:`_predict` on the whole (M, M)
    covariance and (M, k) target covariance arrays."""
    geoms, w = dedup_training(training)
    cov = kernel_covariance(model, geoms)
    c0 = kernel_covariance(model, geoms, targets)
    return _predict(cov, c0, w, model.sigma2, model.nugget)


def assert_bitwise(got, expect):
    assert np.array_equal(got[0], expect[0])
    assert np.array_equal(got[1], expect[1])
    assert got[2] == expect[2]


class TestBlockedTargetCovariance:
    """predict_sf_batch builds c0 once, a block of targets at a time, and
    forward-solves each block in place, holding no whole c0 array."""

    @pytest.mark.parametrize("k", [1, _BLOCK, _BLOCK + 1, 300])
    def test_batch_is_bitwise_the_full_array_path(self, k):
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(150, seed=50))
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=51)])
        expect = full_array_path(training, targets, model)
        assert expect[2] == model.nugget
        assert_bitwise(predict_sf_batch(training, targets, model), expect)

    @pytest.mark.parametrize("k", [_BLOCK, 300])
    def test_escalated_batch_is_bitwise_the_full_array_path(self, k):
        model = smooth_model(nugget=0.0)
        training = escalating_training(150, seed=52)
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=53)])
        expect = full_array_path(training, targets, model)
        assert expect[2] > model.nugget
        assert_bitwise(predict_sf_batch(training, targets, model), expect)

    def test_rung_after_a_solved_one_rebuilds_the_right_hand_side(self):
        # The first rung factors, solves in place and forward-solves the c0
        # blocks in place, and its residual check is made to reject it:
        # the next rung must solve [w | 1] and build c0 afresh.
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(150, seed=54))
        targets = Geometry.of([s.geometry for s in scattered_samples(300, seed=55)])
        real = kriging._residual

        def reject_first(*args):
            reject_first.calls += 1
            return math.inf if reject_first.calls == 1 else real(*args)

        results = []
        for run in (lambda: full_array_path(training, targets, model),
                    lambda: predict_sf_batch(training, targets, model)):
            reject_first.calls = 0
            with mock.patch.object(kriging, "_residual", reject_first):
                results.append(run())
            assert reject_first.calls == 2
        assert results[0][2] == 10.0 * model.nugget
        assert_bitwise(results[1], results[0])

    def test_each_block_is_built_once(self):
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(100, seed=56))
        targets = Geometry.of([s.geometry for s in scattered_samples(300, seed=57)])
        built = []
        count = np.zeros((100, 300), dtype=int)
        real = Covariance.__getitem__

        def record(self, index):
            if self.shape == count.shape:  # c0's source, not C's
                rows, cols = index
                built.append((rows.start, rows.stop, cols.start, cols.stop))
                count[index] += 1
            return real(self, index)

        with mock.patch.object(Covariance, "__getitem__", record):
            predict_sf_batch(training, targets, model)
        assert built == [
            (None, None, 0, 128), (None, None, 128, 256), (None, None, 256, 300),
        ]
        assert (count == 1).all()

    def test_each_point_set_is_warped_once(self):
        # u_t and u_e of the training rows and of the targets, however
        # many blocks of c0 are built from them.
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(100, seed=56))
        targets = Geometry.of([s.geometry for s in scattered_samples(300, seed=57)])
        with mock.patch.object(correlation, "_warp", wraps=correlation._warp) as warp:
            predict_sf_batch(training, targets, model)
        assert warp.call_count == 4

    def test_block_source_columns_are_the_whole_matrix_columns(self):
        model = smooth_model(nugget=1e-4)
        geoms, _w = dedup_training(SfTable.of(scattered_samples(70, seed=58)))
        targets = Geometry.of([s.geometry for s in scattered_samples(300, seed=59)])
        whole = model.sigma2 * kernel_correlation(model, geoms, targets)
        source = Covariance(
            model,
            KernelPoints.of(model, geoms),
            KernelPoints.of(model, targets),
        )
        assert source.shape == whole.shape
        for j0, j1 in [(0, 128), (128, 256), (256, 300), (5, 6)]:
            assert np.array_equal(source[:, j0:j1], whole[:, j0:j1])
        for i0, i1 in [(0, _TILE), (_TILE, 70), (3, 4)]:
            assert np.array_equal(source[i0:i1, :], whole[i0:i1, :])
            for j0, j1 in [(0, 128), (256, 300), (5, 6)]:
                assert np.array_equal(source[i0:i1, j0:j1], whole[i0:i1, j0:j1])

    def test_batch_holds_one_target_sized_buffer(self):
        # C's size (8 M^2 bytes; the solve holds at most its lower
        # triangle, as the factor's block rows) and an allowance of
        # four M x 128 tiles: a block of c0 and the covariance builds' tile
        # buffers.  The target-sized buffers left are the k-length outputs
        # and the targets' kernel points.  An (M, k + 1) buffer or the
        # whole c0 adds 8 M k bytes (6.4 MB here) and fails; the traced
        # peak is about 0.92 of the bound.
        m, k = 400, 2000
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(m, seed=60))
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=61)])
        tracemalloc.start()
        try:
            predict_sf_batch(training, targets, model)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m + 4 * 8 * m * _BLOCK

    def test_peak_does_not_grow_with_the_target_count(self):
        # Ten times the targets add their k-length outputs (150 KB here),
        # less than one M x 128 block of c0; an (M, k + 1) buffer would
        # add 36 MB.  The inputs are made before tracing, so the targets'
        # own kernel points are not counted.
        m = 500
        model = smooth_model(nugget=1e-4)
        geoms, w = dedup_training(SfTable.of(scattered_samples(m, seed=70)))
        training = kriging.TrainingPoints(KernelPoints.of(model, geoms), w)
        peaks = []
        for k in (1000, 10000):
            targets = [s.geometry for s in scattered_samples(k, seed=71)]
            points = KernelPoints.of(model, Geometry.of(targets))
            tracemalloc.start()
            try:
                predict_sf_batch(training, points, model)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 8 * m * _BLOCK


class TestCovarianceSource:
    """predict_sf_batch hands the solve C as its :class:`Covariance`, which
    gives bitwise the results of the whole array and is read only in
    lower block rows, never whole."""

    @pytest.mark.parametrize("k", [1, 7, _BLOCK + 1, 300])
    @pytest.mark.parametrize("escalated", [False, True])
    def test_source_path_is_bitwise_the_array_path(self, k, escalated):
        if escalated:
            model = smooth_model(nugget=0.0)
            training = escalating_training(250, seed=64)
        else:
            model = smooth_model(nugget=1e-4)
            training = SfTable.of(scattered_samples(250, seed=64))
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=65)])
        w, cov, c0 = kriging._covariances(training, targets, model)
        expect = _predict(cov[:, :], c0[:, :], w, model.sigma2, model.nugget)
        sources, reads = [], []
        real_covariances, real_read = kriging._covariances, Covariance.__getitem__

        def covariances(*args):
            blocks = real_covariances(*args)
            sources.append(blocks[1])
            return blocks

        def read(self, index):
            reads.append((self, index))
            return real_read(self, index)

        with mock.patch.object(kriging, "_covariances", covariances), \
                mock.patch.object(Covariance, "__getitem__", read):
            got = predict_sf_batch(training, targets, model)
        assert (expect[2] > model.nugget) == escalated
        assert_bitwise(got, expect)
        # Every read of C is a lower block row rows k0:k1, columns :k1.
        m = cov.shape[0]
        rows = [index for source, index in reads if source is sources[0]]
        assert rows
        for r, c in rows:
            assert r.start % _TILE == 0 and r.stop == min(r.start + _TILE, m)
            assert c == slice(None, r.stop)

    @pytest.mark.parametrize("k", [1, _BLOCK, _BLOCK + 1, 300])
    def test_batch_builds_the_lower_triangle_twice_and_c0_once_or_twice(self, k):
        # The factor and the residual each build C's lower block rows,
        # L(M) entries; c0 is built once at every k, a block of _BLOCK
        # targets at a time, and never whole.
        m = 250
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(m, seed=68))
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=69)])
        with built_entries() as shapes:
            predict_sf_batch(training, targets, model)
        assert sum(r * c for r, c in shapes) == 2 * lower_entries(m) + m * k
        assert (m, m) not in shapes
        assert all(c <= _BLOCK for r, c in shapes if r == m)

    def test_source_path_holds_no_whole_matrix(self):
        # L's block rows, 8 L(M) bytes with each tile inverse in its
        # diagonal tile's place; one M x 128 block of c0; and 8 M * 96
        # for the covariance builds' tiles and the solve's temporaries.
        # The residual check, which holds one (96, M) block row of C at a
        # time, runs after the factor is dropped.  The bound leaves no
        # room for C whole (8 M^2 bytes), an (M, k + 1) buffer beside the
        # factor, a second block of c0 or separate tile inverses
        # (8 M * 96); the traced peak is about 0.96 of it.
        m, k = 2000, 200
        model = smooth_model(nugget=1e-4)
        training = SfTable.of(scattered_samples(m, seed=66))
        targets = Geometry.of([s.geometry for s in scattered_samples(k, seed=67)])
        tracemalloc.start()
        try:
            predict_sf_batch(training, targets, model)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (lower_entries(m) + (_TILE + _BLOCK) * m)
        assert bound + 8 * m * k < 8 * m * m
        assert peak < bound


def random_spd(n, seed):
    """A well-conditioned symmetric positive definite n x n matrix."""
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x @ x.T / n + np.eye(n)


class TestTiledCholesky:
    """The one block Cholesky and its triangular solves, with scipy's
    LAPACK ``dpotrf``/``dpotrs`` as oracle."""

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5])
    def test_factor_and_solve_match_lapack(self, n):
        import scipy.linalg

        a = random_spd(n, seed=n)
        before = a.copy()
        rows = _cholesky_rows(a, 0.0)
        expect = scipy.linalg.cho_factor(a, lower=True)
        lower = assemble_lower(rows)
        assert np.abs(lower - np.tril(expect[0])).max() <= 1e-12 * np.abs(lower).max()
        assert len(rows) == -(-n // _TILE)
        assert_tile_inverses(rows, a)
        assert np.array_equal(a, before)
        for k in (1, 7, 130):
            rhs = np.random.default_rng(k).standard_normal((n, k))
            b = rhs.copy()
            _forward_rows(rows, b)
            x = scipy.linalg.solve_triangular(lower, rhs, lower=True)
            assert np.abs(b - x).max() <= 1e-12 * np.abs(x).max()
            b = rhs.copy()
            _cholesky_solve_rows(rows, b)
            x = scipy.linalg.cho_solve(expect, rhs)
            assert np.abs(b - x).max() <= 1e-12 * np.abs(x).max()

    @pytest.mark.parametrize("n", [_TILE + 1, 3 * _TILE + 5])
    @pytest.mark.parametrize("width", [5, _TILE])
    def test_forward_solve_of_a_transposed_strip(self, n, width):
        """The factor forward-solves each block row's strip in place through
        its transpose, a view with strided rows.  The view is overwritten
        and nothing else in its block row; the values are a C-ordered
        copy's to rounding.  Not bitwise: with numpy 2.4 and its OpenBLAS,
        widths 2 to 96 at n = 97 differ in the last bits, as the two
        layouts take different kernels."""
        rows = _cholesky_rows(random_spd(n, seed=n), 0.0)
        row = np.random.default_rng(width).standard_normal((width, n + width))
        before = row.copy()
        view = row[:, :n].T
        assert not view.flags.c_contiguous
        copy = np.ascontiguousarray(view)
        _forward_rows(rows, view)
        _forward_rows(rows, copy)
        assert np.abs(row[:, :n].T - copy).max() <= 1e-13 * np.abs(copy).max()
        assert np.array_equal(row[:, n:], before[:, n:])
        x = np.linalg.solve(assemble_lower(rows), before[:, :n].T)
        assert np.abs(copy - x).max() <= 1e-12 * np.abs(x).max()

    def test_tile_inverse_matches_general_inverse(self):
        """The diagonal tiles' triangular inverse, by halves, at every tile
        width."""
        for w in range(1, _TILE + 1):
            lower = np.linalg.cholesky(random_spd(w, seed=w))
            inv = kriging._lower_inverse(lower)
            expect = np.linalg.inv(lower)
            assert np.abs(inv - expect).max() <= 1e-12 * np.abs(expect).max(), w
            assert not inv[: w // 2, w // 2 :].any()

    @pytest.mark.parametrize("n", [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5])
    def test_rows_factor_separate_rows_as_views(self, n):
        """Block rows a :class:`Covariance` builds as separate arrays factor
        bitwise as the copied views of its whole array do, strips and tile
        inverses alike; each tile holds its factor's inverse, and L @ g
        over the rows is the product with L."""
        model = smooth_model(nugget=1e-4)
        geoms = [s.geometry for s in scattered_samples(n, seed=n)]
        source = Covariance(model, KernelPoints.of(model, geoms))
        whole = source[:, :]
        rows = _cholesky_rows(source, 0.0)
        views = _cholesky_rows(whole, 0.0)
        assert len(rows) == len(views) == -(-n // _TILE)
        for row, view in zip(rows, views):
            assert np.array_equal(row, view)
        assert_tile_inverses(rows, whole)
        g = np.random.default_rng(n).standard_normal(n)
        expect = assemble_lower(rows) @ g
        assert np.abs(kriging._lower_matvec(rows, g) - expect).max() <= 1e-12 * np.abs(expect).max()

    # The first failing pivot: the first row, a tile's last and first rows,
    # and a row inside the third tile.
    @pytest.mark.parametrize("k", [1, _TILE, _TILE + 1, 2 * _TILE + 3])
    def test_first_indefinite_minor_raises_and_restores(self, k):
        n = 3 * _TILE + 5
        a = random_spd(n, seed=k)
        # Lower the k-th pivot to -1: the leading (k - 1) x (k - 1) minor
        # stays positive definite and the k x k one is not.
        head, col = a[: k - 1, : k - 1], a[: k - 1, k - 1]
        a[k - 1, k - 1] = col @ np.linalg.solve(head, col) - 1.0
        np.linalg.cholesky(head)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a[:k, :k])
        before, asked = a.copy(), []

        class Recording:
            shape = a.shape

            def __getitem__(self, index):
                asked.append(index[0].start)
                return a[index]

        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_rows(Recording(), 0.0)
        # The factor stops in the block row that holds the k-th pivot, and
        # the matrix whose views it copied is as it was.
        assert asked == list(range(0, (k - 1) // _TILE * _TILE + 1, _TILE))
        assert np.array_equal(a, before)


class TestAssembly:
    def test_covariance_blocks_entrywise(self):
        model = smooth_model(nugget=2e-3)
        training = scattered_samples(3, seed=16)
        target = mk_geom(-25.0, 70.0, theta=40.0, delta=6.0)
        for mode in ("baseline", "angle_aware"):
            system = assemble_system(training, target, model, mode)
            geoms = [s.geometry for s in training]
            for i in range(3):
                for j in range(3):
                    expect = model.sigma2 * oracle_correlation(
                        model, geoms[i], geoms[j], mode
                    )
                    if i == j:
                        expect += model.nugget
                    assert system.cov[i, j] == pytest.approx(expect, abs=1e-12)
                assert system.target_cov[i] == pytest.approx(
                    model.sigma2
                    * oracle_correlation(model, geoms[i], target, mode),
                    abs=1e-12,
                )

    def test_duplicates_collapse_to_mean_keeping_first(self):
        g1 = mk_geom(0.0, 0.0, theta=20.0, delta=0.0)
        g2 = mk_geom(50.0, 0.0, theta=30.0, delta=5.0)
        samples = [
            SfSample(geometry=g1, sf_db=1.0, rsrp_dbm=0.0, pl_est_dbm=0.0),
            SfSample(geometry=g2, sf_db=5.0, rsrp_dbm=0.0, pl_est_dbm=0.0),
            SfSample(geometry=g1, sf_db=3.0, rsrp_dbm=0.0, pl_est_dbm=0.0),
        ]
        geoms, w = dedup_training(samples)
        assert same_geometry(geoms, Geometry.of([g1, g2]))
        assert w.tolist() == [2.0, 5.0]
        system = assemble_system(samples, mk_geom(10.0), smooth_model(nugget=1e-4))
        assert system.cov.shape == (2, 2)

    def test_dedup_matches_first_occurrence_loop(self):
        rng = np.random.default_rng(28)
        pool = [s.geometry for s in scattered_samples(30, seed=29)]
        samples = [
            SfSample(geometry=pool[int(i)], sf_db=float(rng.normal()), rsrp_dbm=0.0,
                     pl_est_dbm=0.0)
            for i in rng.integers(0, len(pool), size=200)
        ]
        values = {}
        for s in samples:
            values.setdefault(s.geometry, []).append(s.sf_db)
        geoms, w = dedup_training(samples)
        assert same_geometry(geoms, Geometry.of(list(values)))
        assert w == pytest.approx([np.mean(v) for v in values.values()], abs=1e-12)

    def test_empty_training_rejected(self):
        with pytest.raises(ValidationError):
            assemble_system([], mk_geom(), smooth_model())
        with pytest.raises(ValidationError):
            predict_sf_batch([], [mk_geom()], smooth_model())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            assemble_system(scattered_samples(2, 1), mk_geom(), smooth_model(), "best")


class TestExactness:
    def test_zero_nugget_interpolates_training_points(self):
        model = smooth_model(nugget=0.0)
        training = scattered_samples(12, seed=17)
        targets = [s.geometry for s in training]
        w_hat, variance, _ = predict_sf_batch(training, targets, model)
        expect = np.array([s.sf_db for s in training])
        assert np.max(np.abs(w_hat - expect)) < 1e-6
        assert np.max(variance) < 1e-6

    def test_permutation_invariance(self):
        model = smooth_model(nugget=1e-5)
        training = scattered_samples(25, seed=18)
        target = mk_geom(5.0, -15.0, theta=28.0, delta=1.0)
        pred = predict_sf(solve_ok(assemble_system(training, target, model)))
        rng = np.random.default_rng(0)
        shuffled = list(training)
        rng.shuffle(shuffled)
        pred2 = predict_sf(solve_ok(assemble_system(shuffled, target, model)))
        assert pred2.w_hat_db == pytest.approx(pred.w_hat_db, abs=1e-9)
        assert pred2.variance_db2 == pytest.approx(pred.variance_db2, abs=1e-9)


class TestModes:
    def test_capped_kernels_make_modes_identical(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0,
            9.0,
            DedmParams(0.6, 0.01, 0.001),
            q_pos_deg=Q_CAP_DEG,
            r_pos_deg=Q_CAP_DEG,
            nugget=1e-5,
        )
        training = scattered_samples(30, seed=19)
        target = mk_geom(12.0, 44.0, theta=50.0, delta=-7.0)
        base = assemble_system(training, target, model, "baseline")
        aware = assemble_system(training, target, model, "angle_aware")
        assert np.array_equal(base.cov, aware.cov)
        assert np.array_equal(base.target_cov, aware.target_cov)
        w_base, v_base, _ = predict_sf_batch(training, [target], model.restricted("baseline"))
        w_aware, v_aware, _ = predict_sf_batch(training, [target], model)
        assert w_base[0] == w_aware[0]
        assert v_base[0] == v_aware[0]

    def test_modes_differ_with_active_kernels(self):
        model = CorrelationModel.with_uniform_kernels(
            0.0,
            9.0,
            DedmParams(0.6, 0.01, 0.001),
            q_pos_deg=5.0,
            r_pos_deg=8.0,
            nugget=1e-5,
        )
        training = scattered_samples(30, seed=20)
        target = mk_geom(12.0, 44.0, theta=50.0, delta=-7.0)
        w_base, _, _ = predict_sf_batch(training, [target], model.restricted("baseline"))
        w_aware, _, _ = predict_sf_batch(training, [target], model)
        assert w_base[0] != w_aware[0]


class TestBatch:
    def test_batch_matches_single_target_path(self):
        model = smooth_model(nugget=1e-5)
        training = scattered_samples(20, seed=21)
        targets = [
            mk_geom(9.0, -3.0, theta=15.0, delta=2.0),
            mk_geom(-40.0, 61.0, theta=65.0, delta=-4.0),
            mk_geom(100.0, 100.0, theta=35.0, delta=9.0),
        ]
        # More than one column block of targets: the batch sums lambda^T c0
        # a block at a time.
        targets += [s.geometry for s in scattered_samples(300, seed=23)]
        w_hat, variance, nugget = predict_sf_batch(training, targets, model)
        for k, target in enumerate(targets):
            pred = predict_sf(solve_ok(assemble_system(training, target, model)))
            assert w_hat[k] == pytest.approx(pred.w_hat_db, abs=1e-9)
            assert variance[k] == pytest.approx(pred.variance_db2, abs=1e-9)
            assert nugget == pred.nugget_used
        # A batch of one target goes through the same solve and estimates.
        for mode in MODES:
            for target in targets[:200]:
                pred = predict_sf(solve_ok(assemble_system(training, target, model, mode)))
                w_one, var_one, nugget_one = predict_sf_batch(
                    training, [target], model.restricted(mode)
                )
                assert w_one[0] == pred.w_hat_db
                assert var_one[0] == pred.variance_db2
                assert nugget_one == pred.nugget_used

    def test_empty_targets(self):
        model = smooth_model(nugget=1e-5)
        w_hat, variance, nugget = predict_sf_batch(
            scattered_samples(4, seed=22), [], model
        )
        assert w_hat.size == 0
        assert variance.size == 0
        assert nugget == model.nugget

    def test_variance_non_negative(self):
        model = smooth_model(nugget=1e-5)
        training = scattered_samples(35, seed=23)
        targets = [g.geometry for g in scattered_samples(50, seed=24)]
        _, variance, _ = predict_sf_batch(training, targets, model)
        assert np.all(variance >= 0.0)


class TestAgainstPrior:
    def test_kriging_beats_two_ray_alone(self):
        truth = CorrelationModel.with_uniform_kernels(
            0.0,
            16.0,
            DedmParams(0.7, 2e-3, 2e-4),
            q_pos_deg=40.0,
            r_pos_deg=50.0,
            nugget=1e-6 * 16.0,
        )
        config = SimConfig(
            seed=9, n_samples=350, truth=truth, budget=BUDGET, flight=FlightSpec()
        )
        samples = decompose_all(synthesize_dataset(config))
        train, test = samples[:150], samples[150:]
        w_true = test.sf_db
        w_hat, _, _ = predict_sf_batch(train, test.geometry, truth)
        kriging_rmse = float(np.sqrt(np.mean((w_hat - w_true) ** 2)))
        prior_rmse = float(np.sqrt(np.mean(w_true**2)))
        # Pinned campaign: 3.33 dB versus 6.29 dB for the two-ray prior alone.
        assert kriging_rmse < 0.8 * prior_rmse
