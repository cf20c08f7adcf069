"""Property tests of the correlation model and the Kriging predictor on
random bins, decay-rate tables and geometries."""

import dataclasses
import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from skyfade.correlation import (
    MODES,
    Q_CAP_DEG,
    AngleBins,
    CorrelationModel,
    DedmParams,
    correlation_matrix,
    deserialize_model,
    serialize_model,
)
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
        r = correlation_matrix(model, geoms, mode=mode)
        assert np.array_equal(r, r.T)
        assert np.all(np.diagonal(r) == 1.0)
        assert np.linalg.eigvalsh(r)[0] >= -1e-12 * n


@given(models(capped_only=True), geometries)
def test_capped_tables_equal_baseline(model, geoms):
    base = correlation_matrix(model, geoms, mode="baseline")
    for mode in MODES:
        assert np.array_equal(correlation_matrix(model, geoms, mode=mode), base)


@given(models(), geometries)
def test_json_round_trip_gives_the_identical_matrix(model, geoms):
    back = deserialize_model(json.loads(json.dumps(serialize_model(model))))
    for mode in MODES:
        assert np.array_equal(
            correlation_matrix(back, geoms, mode=mode),
            correlation_matrix(model, geoms, mode=mode),
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
    w_hat, _, _ = predict_sf_batch(ones, targets, model, mode)
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
    model = dataclasses.replace(model, nugget=nugget * model.sigma2)
    order = data.draw(st.permutations(range(len(training))))
    w_hat, _, _ = predict_sf_batch(training, targets, model, mode)
    shuffled = [training[i] for i in order]
    w_hat_shuffled, _, _ = predict_sf_batch(shuffled, targets, model, mode)
    assert np.max(np.abs(w_hat_shuffled - w_hat)) <= 1e-9
