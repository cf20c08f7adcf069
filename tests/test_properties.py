"""Property tests of the correlation model and the Kriging predictor on
random bins, decay-rate tables and geometries."""

import dataclasses
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _recipes import kernel_correlation, kernel_covariance, no_worse_than_trf
from skyfade.correlation import (
    MODES,
    Q_CAP_DEG,
    AngleBins,
    CorrelationModel,
    DedmParams,
    _distance,
    _fit_dedm,
    dedm_eval,
    deserialize_model,
    serialize_model,
)
from skyfade.fieldsim import sample_sf_field
from skyfade.kriging import predict_sf_batch
from skyfade.propagation import SfSample
from test_correlation import mk_geom

CAPPED = (Q_CAP_DEG, 2.0 * Q_CAP_DEG, math.inf)


def representatives(edges):
    """A representative inside each bin: the midpoint, or 1 degree inside
    the finite edge of an unbounded bin."""
    reps = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            reps.append(0.0)
        elif math.isinf(lo):
            reps.append(hi - 1.0)
        elif math.isinf(hi):
            reps.append(lo + 1.0)
        else:
            reps.append(0.5 * (lo + hi))
    return tuple(reps)


def inner_edges(lo, hi):
    return st.lists(
        st.floats(lo, hi, exclude_min=True, exclude_max=True), max_size=4, unique=True
    ).map(sorted)


@st.composite
def models(draw, capped_only=False):
    tilt_edges = (-math.inf, *draw(inner_edges(-20.0, 20.0)), math.inf)
    elev_edges = (0.0, *draw(inner_edges(0.0, 90.0)), 90.0)
    bins = AngleBins(
        tilt_edges=tilt_edges,
        tilt_reps=representatives(tilt_edges),
        elev_edges=elev_edges,
        elev_reps=representatives(elev_edges),
    )
    q = st.sampled_from(CAPPED)
    if not capped_only:
        q = st.one_of(st.floats(0.2, 200.0), q)
    # A cell's rate: 1/q, or 0 for an absent cell or a capped scale.
    cell = st.one_of(st.none(), q).map(
        lambda v: 0.0 if v is None or v >= Q_CAP_DEG else 1.0 / v
    )
    tilt = [[draw(cell) for _ in range(bins.n_elev)] for _ in range(bins.n_tilt)]
    elev = [[draw(cell) for _ in range(bins.n_tilt)] for _ in range(bins.n_elev)]
    rate = st.floats(1e-4, 1.0)
    return CorrelationModel(
        mu=0.0,
        sigma2=4.0,
        dedm=DedmParams(draw(st.floats(0.0, 1.0)), draw(rate), draw(rate)),
        bins=bins,
        tilt_rates=tilt,
        elev_rates=elev,
    )


geometries = st.lists(
    st.builds(
        mk_geom,
        east=st.floats(-300.0, 300.0),
        north=st.floats(-300.0, 300.0),
        theta=st.floats(0.0, 90.0, exclude_min=True),
        delta=st.floats(-30.0, 30.0),
    ),
    min_size=1,
    max_size=40,
)


@given(models(), geometries)
def test_every_mode_is_a_valid_correlation(model, geoms):
    n = len(geoms)
    for mode in MODES:
        r = kernel_correlation(model, geoms, mode=mode)
        assert np.array_equal(r, r.T)
        assert np.all(np.diagonal(r) == 1.0)
        assert np.linalg.eigvalsh(r)[0] >= -1e-12 * n


def zeroed(model, mode):
    """``model`` whole, with the tables ``mode`` leaves unused all zero (a
    table of None would mark its angle unused instead)."""
    tilt, elev = model.tilt_rates, model.elev_rates
    if mode not in ("angle_aware", "tilt_only"):
        tilt = np.zeros_like(tilt)
    if mode not in ("angle_aware", "elev_only"):
        elev = np.zeros_like(elev)
    return dataclasses.replace(model, tilt_rates=tilt, elev_rates=elev)


@given(models(capped_only=True), models(), geometries)
def test_capped_tables_equal_baseline(model, full, geoms):
    base = kernel_correlation(model, geoms, mode="baseline")
    for mode in MODES:
        assert np.array_equal(kernel_correlation(model, geoms, mode=mode), base)
    # More generally, each mode's restriction is bitwise the whole model
    # with the unused tables zeroed: square and rectangular matrices, and
    # the field draw, which factors the square one a block row at a time.
    full = dataclasses.replace(full, nugget=0.01 * full.sigma2)
    for mode in MODES:
        restricted, whole = full.restricted(mode), zeroed(full, mode)
        for rows in ((geoms,), (geoms, geoms[::2])):
            assert np.array_equal(
                kernel_covariance(restricted, *rows), kernel_covariance(whole, *rows)
            )
        assert np.array_equal(
            sample_sf_field(geoms, restricted, 7), sample_sf_field(geoms, whole, 7)
        )


@given(models(), geometries)
def test_json_round_trip_gives_the_identical_matrix(model, geoms):
    back = deserialize_model(json.loads(json.dumps(serialize_model(model))))
    for mode in MODES:
        assert np.array_equal(
            kernel_correlation(back, geoms, mode=mode),
            kernel_correlation(model, geoms, mode=mode),
        )


@st.composite
def sf_samples(draw):
    """Training samples on random geometries with random SF values."""
    geoms = draw(geometries)
    values = draw(
        st.lists(st.floats(-10.0, 10.0), min_size=len(geoms), max_size=len(geoms))
    )
    return [
        SfSample(geometry=g, sf_db=v, rsrp_dbm=v, pl_est_dbm=0.0)
        for g, v in zip(geoms, values)
    ]


@given(models(), sf_samples(), geometries, st.sampled_from(MODES))
def test_kriging_weights_sum_to_one(model, training, targets, mode):
    # With every training value 1 the predictor lambda^T w is the weight sum.
    ones = [dataclasses.replace(s, sf_db=1.0) for s in training]
    w_hat, _, _ = predict_sf_batch(ones, targets, model.restricted(mode))
    assert np.max(np.abs(w_hat - 1.0)) <= 1e-10


@given(
    models(),
    st.sampled_from((1e-4, 1e-2)),
    sf_samples(),
    geometries,
    st.sampled_from(MODES),
    st.data(),
)
def test_kriging_ignores_training_order(model, nugget, training, targets, mode, data):
    # A nugget keeps C well conditioned.  Without one, two rows the mode
    # cannot tell apart (equal but for tilt, in baseline) make C singular;
    # the ladder's 1e-6 sigma2 loading then leaves a condition number near
    # 1e6, and reordering the rows moves w_hat by about 1e-9 through
    # rounding alone.
    model = dataclasses.replace(model, nugget=nugget * model.sigma2).restricted(mode)
    order = data.draw(st.permutations(range(len(training))))
    w_hat, _, _ = predict_sf_batch(training, targets, model)
    shuffled = [training[i] for i in order]
    w_hat_shuffled, _, _ = predict_sf_batch(shuffled, targets, model)
    assert np.max(np.abs(w_hat_shuffled - w_hat)) <= 1e-9


@st.composite
def noisy_dedm_correlograms(draw):
    """(lags, rho, max lag): a DEDM sampled at 3-30 lags, one inside each
    of the fit's equal-width bins, plus Gaussian noise.  Each rate's decay
    length lies between 1/200 and 200 times the max lag."""
    n = draw(st.integers(3, 30))
    max_lag = draw(st.floats(20.0, 2000.0))
    offsets = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
    lags = (np.arange(n) + np.array(offsets)) * (max_lag / n)
    rate = st.floats(-2.3, 2.3).map(lambda x: 10.0**x / max_lag)
    truth = DedmParams(draw(st.floats(0.0, 1.0)), draw(rate), draw(rate))
    sd = draw(st.sampled_from((1e-4, 1e-2, 0.05, 0.2)))
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
    return lags, dedm_eval(truth, lags) + sd * noise, max_lag


@settings(max_examples=200)
@given(noisy_dedm_correlograms())
def test_dedm_fit_no_worse_than_trf(gram):
    lags, rho, max_lag = gram
    assert no_worse_than_trf(_fit_dedm(lags, rho, max_lag), lags, rho, max_lag)


# ENU coordinates in metres, each 0 or at least a micrometre in size: no
# squared offset overflows or underflows.
enu = st.one_of(st.just(0.0), st.floats(1e-6, 1e7), st.floats(-1e7, -1e-6))
points = st.lists(st.tuples(enu, enu), min_size=1, max_size=8)


@given(points, points, st.data())
def test_distance_symmetric_and_within_4_ulp_of_hypot(a, b, data):
    b = b + data.draw(st.lists(st.sampled_from(a), max_size=3))
    (xa, ya), (xb, yb) = np.array(a).T, np.array(b).T
    d = _distance(xa, ya, xb, yb)
    assert np.array_equal(d, _distance(xb, yb, xa, ya).T)
    for i, (x0, y0) in enumerate(a):
        for j, (x1, y1) in enumerate(b):
            h = math.hypot(x0 - x1, y0 - y1)
            assert abs(d[i, j] - h) <= 4.0 * math.ulp(h)
            if (x0, y0) == (x1, y1):
                assert d[i, j] == 0.0
