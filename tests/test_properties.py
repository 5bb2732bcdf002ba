"""Property tests over random small parameter sets (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimcube import ModelParams, RandomStream, simulate_counts, simulate_path, validate_params

unit = st.floats(0.0, 1.0)


@st.composite
def small_params(draw):
    """A valid small model mixing zero-variance, tiny-shape and ordinary severity cells."""
    n_i, n_j, n_k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lag = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_j, max_size=n_j)))
    eta = np.minimum.accumulate([1.0] + draw(st.lists(unit, min_size=n_k - 1, max_size=n_k - 1)))
    mean = np.array(draw(st.lists(st.floats(0.1, 100.0), min_size=n_j * n_k, max_size=n_j * n_k)))
    # severity shape = mean^2 / var: point mass, 1e-6 (draws underflow) or 0.1 to 10
    shape = np.array(
        draw(
            st.lists(
                st.sampled_from([math.inf, 1e-6]) | st.floats(0.1, 10.0),
                min_size=n_j * n_k,
                max_size=n_j * n_k,
            )
        )
    )
    return validate_params(
        ModelParams(
            occurrence_years=n_i,
            max_lag=n_j,
            max_runoff=n_k - 1,
            expected_counts=draw(st.lists(st.floats(0.0, 60.0), min_size=n_i, max_size=n_i)),
            lag_probs=lag / lag.sum(),
            survival=eta,
            pay_prob=draw(st.lists(unit, min_size=n_k, max_size=n_k)),
            severity_mean=mean.reshape(n_j, n_k),
            severity_var=(mean * mean / shape).reshape(n_j, n_k),
        )
    )


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=60, deadline=None)
@given(params=small_params(), seed=st.integers(0, 2**32 - 1))
def test_retained_amounts_split_the_plain_cell_totals(params, seed):
    plain = simulate_path(RandomStream(seed, 0), params)
    retained = simulate_path(RandomStream(seed, 0), params, retain_severities=True)
    assert np.array_equal(plain.claims.pay_counts, retained.claims.pay_counts)
    assert np.array_equal(plain.payments.payments, retained.payments.payments)

    nu, z = retained.claims.pay_counts, retained.payments.payments
    _, n_j, n_k = params.dims
    for j in range(n_j):
        for k in range(n_k):
            amounts = retained.severities.get((j, k), np.empty(0))
            assert amounts.size == nu[:, j, k].sum()
            assert np.all(np.isfinite(amounts)) and np.all(amounts >= 0)
            for i, segment in enumerate(np.split(amounts, np.cumsum(nu[:, j, k])[:-1])):
                assert math.fsum(segment) == pytest.approx(z[i, j, k], rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=60, deadline=None)
@given(params=small_params(), seed=st.integers(0, 2**32 - 1))
def test_counts_follow_the_shape_of_the_survival_curve(params, seed):
    counts = simulate_counts(RandomStream(seed, 0), params).counts
    eta = params.survival
    assert np.all(np.diff(counts, axis=2) <= 0)
    assert np.all(counts[:, :, eta == 0] == 0)
    plateau = np.flatnonzero(np.diff(eta) == 0) + 1
    assert np.array_equal(counts[:, :, plateau], counts[:, :, plateau - 1])
