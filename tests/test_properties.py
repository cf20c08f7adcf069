"""Property tests of the correlation model on random bins, kernel tables
and geometries."""

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
    PiecewiseExpKernel,
    correlation_matrix,
    deserialize_model,
    serialize_model,
)
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
    cell = st.one_of(st.none(), st.builds(PiecewiseExpKernel, q, q))
    tilt = {
        (t, e): draw(cell) for t in range(bins.n_tilt) for e in range(bins.n_elev)
    }
    elev = {
        (e, t): draw(cell) for e in range(bins.n_elev) for t in range(bins.n_tilt)
    }
    rate = st.floats(1e-4, 1.0)
    return CorrelationModel(
        mu=0.0,
        sigma2=4.0,
        dedm=DedmParams(draw(st.floats(0.0, 1.0)), draw(rate), draw(rate)),
        bins=bins,
        tilt_kernels=tilt,
        elev_kernels=elev,
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
