import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from claimcube import (
    ClaimTensor,
    ModelParams,
    ParameterError,
    PaymentTensor,
    RandomStream,
    default_params,
    estimate_severity,
    gamma_shape_scale,
    make_expected_counts,
    simulate_counts,
    simulate_path,
    simulate_payments,
    validate_params,
)
from claimcube.model import MAX_WORLD_CELLS
from claimcube.streams import BINOMIAL, GAMMA


# --- expected count curve ---------------------------------------------------


def test_expected_counts_growth_curve():
    counts = make_expected_counts(150.0, 0.03, 15)
    assert counts[0] == 150.0
    assert counts[1] == pytest.approx(154.5)
    assert counts[14] == pytest.approx(150.0 * 1.03**14)


def test_expected_counts_degenerate_growth():
    assert np.array_equal(make_expected_counts(100.0, 0.0, 3), [100.0, 100.0, 100.0])
    assert np.array_equal(make_expected_counts(1.0, 1.0, 3), [1.0, 2.0, 4.0])


def test_expected_counts_rejects_bad_base():
    with pytest.raises(ParameterError):
        make_expected_counts(0.0, 0.03, 5)
    with pytest.raises(ParameterError):
        make_expected_counts(10.0, -1.0, 5)


# --- validation -------------------------------------------------------------


def test_valid_params_accepted(make_params):
    params = make_params(lag_probs=(0.5, 0.5), survival=(1.0, 0.5, 0.25))
    assert validate_params(params) is params


def test_lag_prob_sum_violation_is_reported():
    with pytest.raises(ParameterError, match="lag_probs") as raised:
        ModelParams(
            occurrence_years=2,
            max_lag=2,
            max_runoff=1,
            expected_counts=10.0,
            lag_probs=[0.5, 0.6],
            survival=[1.0, 0.5],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=0.0,
        )
    assert any("lag_probs sum" in e for e in raised.value.args)


def test_survival_monotonicity_violation_names_index():
    with pytest.raises(ParameterError) as raised:
        ModelParams(
            occurrence_years=2,
            max_lag=1,
            max_runoff=2,
            expected_counts=10.0,
            lag_probs=[1.0],
            survival=[1.0, 0.5, 0.6],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=0.0,
        )
    assert any("non-increasing at k=2" in e for e in raised.value.args)


def test_all_violations_collected():
    with pytest.raises(ParameterError) as raised:
        ModelParams(
            occurrence_years=2,
            max_lag=2,
            max_runoff=1,
            expected_counts=[-5.0, 10.0],
            lag_probs=[0.5, 0.6],
            survival=[0.9, 0.95],
            pay_prob=[0.5, 1.5],
            severity_mean=[[10.0, -1.0], [10.0, 10.0]],
            severity_var=[[1.0, 1.0], [1.0, -2.0]],
        )
    assert len(raised.value.args) >= 6
    assert str(raised.value) == "; ".join(raised.value.args)


#: Parameter sets built in code, from parameter arrays of kilobytes, whose
#: worlds are past MAX_WORLD_CELLS.
HUGE_WORLDS = {
    # 2**13 * 2**12 * 2 = 2**26 cells
    "2**26_cells": dict(
        occurrence_years=2**13, max_lag=2**12, max_runoff=1, lag_probs=np.full(2**12, 2.0**-12), survival=[1.0, 0.5]
    ),
    # 1 * 1025 * 2**15 cells, 0.1% past the bound: a per-cell copy of the
    # scalar severities would take 16 bytes per (j, k) cell
    "scalar_severities": dict(
        occurrence_years=1,
        max_lag=1025,
        max_runoff=2**15 - 1,
        lag_probs=np.full(1025, 1 / 1025),
        survival=np.linspace(1.0, 0.0, 2**15),
    ),
    # more occurrence years than numpy can broadcast a scalar to
    "2**70_years": dict(occurrence_years=2**70, max_lag=2, max_runoff=1, lag_probs=[0.5, 0.5], survival=[1.0, 0.5]),
}


@pytest.mark.parametrize("world", HUGE_WORLDS)
def test_world_built_in_code_is_bounded(world):
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as raised:
            ModelParams(**HUGE_WORLDS[world], expected_counts=1.0, pay_prob=0.5, severity_mean=10.0, severity_var=20.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dims = HUGE_WORLDS[world]
    cells = dims["occurrence_years"] * dims["max_lag"] * (dims["max_runoff"] + 1)
    assert cells > MAX_WORLD_CELLS
    assert raised.value.args == (
        f"occurrence_years: the world has I*J*(K+1) = {cells} cells, more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}",
    )
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


# Changes to the make_params set that break its rules, and the rules they break.
INVALID_SETS = {
    "lag_probs_sum_to_2": (dict(lag_probs=[1.2, 0.8]), ["lag_probs sum 2.0 != 1 (tolerance 1e-09)"]),
    "negative_severity_var": (
        dict(severity_var=[[20.0, 20.0, 20.0], [20.0, -1.0, 20.0]]),
        ["severity_var[1,1] = -1.0 is negative"],
    ),
    "pay_prob_1.5": (dict(pay_prob=1.5), [f"pay_prob[{k}] = 1.5 outside [0, 1]" for k in range(3)]),
    "expected_counts_nan": (dict(expected_counts=[40.0, np.nan, 40.0]), ["expected_counts contains non-finite values"]),
    "negative_lag_prob": (dict(lag_probs=[1.2, -0.2]), ["lag_probs[1] = -0.2 is negative"]),
    "survival_below_0": (dict(survival=[1.0, 0.5, -0.1]), ["survival[2] = -0.1 outside [0, 1]"]),
    "max_runoff_-1": (
        dict(max_runoff=-1, survival=[], pay_prob=[], severity_mean=np.empty((2, 0)), severity_var=np.empty((2, 0))),
        ["max_runoff must be an integer >= 0, got -1"],
    ),
    # 2**26 cells from kilobyte arrays, as in test_world_built_in_code_is_bounded
    "over_max_world_cells": (
        dict(
            occurrence_years=2**13,
            max_lag=2**12,
            max_runoff=1,
            expected_counts=1.0,
            lag_probs=np.full(2**12, 2.0**-12),
            survival=[1.0, 0.5],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=20.0,
        ),
        [f"occurrence_years: the world has I*J*(K+1) = {2**26} cells, more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}"],
    ),
}


@pytest.mark.parametrize("invalid", INVALID_SETS)
@pytest.mark.parametrize("build", ["direct", "replace"])
def test_a_set_that_breaks_a_rule_is_not_built(make_params, invalid, build):
    # The constructor raises every broken rule, before the kernel's constants
    # or any per-cell array are built, so no reader ever sees such a set.
    change, rules = INVALID_SETS[invalid]
    valid = make_params()
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError) as raised:
            make_params(**change) if build == "direct" else dataclasses.replace(valid, **change)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(raised.value.args) == rules
    assert str(raised.value) == "; ".join(rules)
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "key, value",
    [
        ("occurrence_years", 14.7),
        ("occurrence_years", "15"),
        ("max_lag", True),
        ("max_lag", np.float64(2.0)),
        ("max_runoff", 2.0),
        ("max_runoff", None),
        ("years", 2.5),
        ("years", True),
        ("years", "3"),
    ],
)
def test_a_dimension_must_be_an_integer(make_params, key, value):
    with pytest.raises(ParameterError, match=f"^{key} must be an integer"):
        if key == "years":
            make_expected_counts(150.0, 0.03, value)
        else:
            dataclasses.replace(make_params(), **{key: value})
    if key != "years":  # an integer below its minimum breaks the same rule
        with pytest.raises(ParameterError) as raised:
            dataclasses.replace(make_params(), **{key: -2})
        assert raised.value.args == (f"{key} must be an integer >= {0 if key == 'max_runoff' else 1}, got -2",)


def test_claims_built_in_code_are_bounded():
    def params(expected_counts):
        return ModelParams(
            occurrence_years=3,
            max_lag=1,
            max_runoff=0,
            expected_counts=expected_counts,
            lag_probs=[1.0],
            survival=[1.0],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=20.0,
        )

    params([2.0**61, 2.0**60, 2.0**60])
    with pytest.raises(ParameterError, match="expected_counts") as raised:
        params([2.0**61, 2.0**61, 2.0**52])
    assert raised.value.args == (f"expected_counts sum to {2.0**62 + 2.0**52!r} claims, more than 2**62",)


def test_severity_cells_that_overflow_are_named_built_in_code():
    mean, var = np.empty((2, 2)), np.empty((2, 2))
    mean[0, 0], var[0, 0] = 1e-300, 1e10  # the Gamma scale var / mean overflows
    mean[0, 1], var[0, 1] = 1e200, 1e-10  # the Gamma shape mean**2 / var overflows
    mean[1, 0], var[1, 0] = 1e154, 1.7e308  # var + mean**2 overflows
    mean[1, 1], var[1, 1] = 1e150, 0.0  # a point mass whose mean**2 is finite
    with pytest.raises(ParameterError, match=r"severity_mean\[0,0\]") as raised:
        ModelParams(
            occurrence_years=3,
            max_lag=2,
            max_runoff=1,
            expected_counts=5.0,
            lag_probs=[0.5, 0.5],
            survival=[1.0, 0.5],
            pay_prob=0.5,
            severity_mean=mean,
            severity_var=var,
        )
    names = [e.split(" = ")[0] for e in raised.value.args]
    assert names == ["severity_mean[0,0]", "severity_mean[0,1]", "severity_mean[1,0]"]


def test_severities_that_overflow_the_reserve_variance_are_named_built_in_code():
    # 15 expected claims and K + 1 = 2: the bound is 2 * 15 * 2**2 * (var + mean**2)
    def params(mean):
        means = np.ones((2, 2))
        means[1, 0] = mean
        return ModelParams(
            occurrence_years=3,
            max_lag=2,
            max_runoff=1,
            expected_counts=5.0,
            lag_probs=[0.5, 0.5],
            survival=[1.0, 0.5],
            pay_prob=0.5,
            severity_mean=means,
            severity_var=0.0,
        )

    params(1.2e153)
    with pytest.raises(ParameterError) as raised:
        params(1.3e153)
    assert len(raised.value.args) == 1
    assert raised.value.args[0].startswith("severity_mean[1,0] = 1.3e+153 with severity_var 0.0 overflows the reserve")


def test_survival_plateau_validates_without_warning(make_params):
    # A plateau only means that no claim closes in that year.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_params(survival=(1.0, 0.5, 0.5))
        make_params(max_runoff=3, survival=(1.0, 0.5, 0.5, 0.0))


def test_scalar_broadcast_convenience(make_params):
    params = make_params(expected_counts=25.0, pay_prob=0.3, severity_mean=8.0, severity_var=0.0)
    assert params.expected_counts.shape == (3,)
    assert params.pay_prob.shape == (3,)
    assert params.severity_mean.shape == (2, 3)


def test_params_arrays_are_immutable(make_params):
    params = make_params()
    with pytest.raises(ValueError):
        params.survival[1] = 0.9


def test_a_broadcast_scalar_is_a_read_only_view_of_its_own_copy(make_params):
    severity = np.array(10.0)
    params = make_params(severity_mean=severity)
    severity[()] = -1.0  # the caller's array is not the parameter set's
    assert params.severity_mean.shape == (2, 3) and (params.severity_mean == 10.0).all()
    assert params.severity_mean.strides == (0, 0)  # one value, not one per cell
    with pytest.raises(ValueError):
        params.severity_mean[0, 0] = 1.0
    with pytest.raises(ValueError):
        params.severity_mean.base[()] = 1.0


# --- count simulation -------------------------------------------------------


def test_all_claims_at_lag_zero_and_immediate_closure(make_params):
    params = make_params(max_lag=1, max_runoff=1, lag_probs=(1.0,), survival=(1.0, 0.0))
    tensor = simulate_counts(RandomStream(5, 0), params)
    assert np.all(tensor.counts[:, :, 1] == 0)
    # everything reported at lag 0: totals match the j = 0 slice
    assert np.array_equal(tensor.counts[:, 0, 0], tensor.counts[:, :, 0].sum(axis=1))


def test_zero_expected_counts_give_empty_world(make_params):
    params = make_params(expected_counts=0.0)
    tensor = simulate_counts(RandomStream(6, 0), params)
    assert tensor.counts.sum() == 0


def test_counts_monotone_along_runoff(make_params):
    params = make_params(occurrence_years=4, expected_counts=60.0)
    for rep in range(50):
        counts = simulate_counts(RandomStream(7, rep), params).counts
        assert np.all(np.diff(counts, axis=2) <= 0)


def test_cell_expectation_identity(make_params):
    # replicate mean of one cell approaches N * lag_prob * survival
    params = make_params(
        occurrence_years=1,
        max_lag=2,
        max_runoff=5,
        expected_counts=150.0,
        lag_probs=(0.4, 0.6),
        survival=(1.0, 0.8, 0.65, 0.5, 0.4, 0.3),
    )
    reps = 3000
    cell = np.empty(reps)
    for r in range(reps):
        cell[r] = simulate_counts(RandomStream(2025, r), params).counts[0, 0, 5]
    expected = 150.0 * 0.4 * 0.3
    se = cell.std(ddof=1) / math.sqrt(reps)
    assert abs(cell.mean() - expected) < 4 * se


def test_reported_totals_follow_poisson_mean(make_params):
    params = make_params(occurrence_years=2, expected_counts=(30.0, 50.0))
    reps = 2000
    totals = np.empty((reps, 2))
    for r in range(reps):
        totals[r] = simulate_counts(RandomStream(31, r), params).counts[:, :, 0].sum(axis=1)
    for i, nbar in enumerate((30.0, 50.0)):
        se = totals[:, i].std(ddof=1) / math.sqrt(reps)
        assert abs(totals[:, i].mean() - nbar) < 4 * se


def test_count_variance_and_runoff_covariance_match_poisson_thinning(make_params):
    # N_ijk is Poisson(lam_ij * s_k) and a thinning of N_ij0, so
    # Var(N_ijk) = Cov(N_ij0, N_ijk) = lam_ij * s_k; independent cells would
    # give the same variance but no covariance
    params = make_params(
        occurrence_years=2,
        max_lag=2,
        max_runoff=3,
        expected_counts=(30.0, 50.0),
        lag_probs=(0.4, 0.6),
        survival=(1.0, 0.7, 0.4, 0.15),
    )
    reps = 2000
    counts = np.stack([simulate_counts(RandomStream(41, r), params).counts for r in range(reps)])
    lam = np.outer(params.expected_counts, params.lag_probs)[:, :, None] * params.survival
    centred = counts - counts.mean(axis=0)
    for products in (centred * centred, centred[..., :1] * centred):
        estimate = products.sum(axis=0) / (reps - 1)
        se = products.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(estimate - lam) < 4 * se)


def test_counts_by_last_active_year_are_independent_poisson(make_params):
    # Split over its last active year L, a Poisson(lam_ij) column gives
    # independent Poisson(lam_ij * q_L) closing counts D_L, q_L = s_L - s_L+1
    # (Poisson colouring), and N_ijk = sum of D_L over L >= k.  So
    # Cov(N_ijk, N_ijl) = lam_ij * s_l for k <= l, distinct columns are
    # independent, and the D_L are uncorrelated with variance lam_ij * q_L.
    params = make_params(
        occurrence_years=2,
        max_lag=2,
        max_runoff=3,
        expected_counts=(30.0, 50.0),
        lag_probs=(0.4, 0.6),
        survival=(1.0, 0.7, 0.4, 0.15),
    )
    blocks, size = 8, 500
    reps = blocks * size
    counts = np.concatenate([simulate_counts(RandomStream(43, b), params, size=size).counts for b in range(blocks)])
    columns = counts.reshape(reps, -1, params.max_runoff + 1)  # (replicate, column (i, j), k)
    closing = columns - np.concatenate([columns[..., 1:], np.zeros_like(columns[..., :1])], axis=-1)
    lam = np.outer(params.expected_counts, params.lag_probs).reshape(-1, 1)
    survival = params.survival
    q = survival - np.append(survival[1:], 0.0)

    def assert_covariance(x, y, expected):
        products = (x - x.mean(axis=0)) * (y - y.mean(axis=0))
        estimate = products.sum(axis=0) / (reps - 1)
        se = products.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(estimate - expected) < 4 * se)

    k, l = np.triu_indices(params.max_runoff + 1)
    assert_covariance(columns[..., k], columns[..., l], lam * survival[l])
    c, d = np.triu_indices(columns.shape[1], 1)
    assert_covariance(columns[:, c, :, None], columns[:, d, None, :], 0.0)
    assert_covariance(closing[..., k], closing[..., l], np.where(k == l, lam * q[l], 0.0))


# --- payment simulation -----------------------------------------------------


def test_no_claims_no_payments(make_params):
    params = make_params(expected_counts=0.0)
    counts = simulate_counts(RandomStream(8, 0), params)
    pay_counts, payments = simulate_payments(RandomStream(8, 1), params, counts)
    assert pay_counts.sum() == 0
    assert payments.payments.sum() == 0.0


def test_degenerate_severities_pay_exactly_mean_times_count(make_params):
    params = make_params(pay_prob=1.0, severity_mean=2.5, severity_var=0.0)
    counts = simulate_counts(RandomStream(9, 0), params)
    pay_counts, payments = simulate_payments(RandomStream(9, 1), params, counts)
    assert np.array_equal(pay_counts, counts.counts)
    assert np.array_equal(payments.payments, counts.counts * 2.5)


def test_compound_mean_matches_oracle(make_params):
    # fixed 100 active claims in a single cell: E[Z] = N * p * EW = 500
    params = make_params(
        occurrence_years=1,
        max_lag=1,
        max_runoff=0,
        lag_probs=(1.0,),
        survival=(1.0,),
        pay_prob=0.5,
        severity_mean=10.0,
        severity_var=40.0,
    )
    counts = ClaimTensor(counts=np.full((1, 1, 1), 100, dtype=np.int64))
    reps = 10_000
    z = np.empty(reps)
    for r in range(reps):
        _, payments = simulate_payments(RandomStream(77, r), params, counts)
        z[r] = payments.payments[0, 0, 0]
    se = z.std(ddof=1) / math.sqrt(reps)
    assert abs(z.mean() - 500.0) < 3 * se


def test_compound_variance_matches_oracle(make_params):
    # same cell: Var(Z) = E[nu] Var(W) + Var(nu) EW^2 = 50*40 + 25*100 = 4500
    params = make_params(
        occurrence_years=1,
        max_lag=1,
        max_runoff=0,
        lag_probs=(1.0,),
        survival=(1.0,),
        pay_prob=0.5,
        severity_mean=10.0,
        severity_var=40.0,
    )
    counts = ClaimTensor(counts=np.full((1, 1, 1), 100, dtype=np.int64))
    reps = 10_000
    z = np.empty(reps)
    for r in range(reps):
        _, payments = simulate_payments(RandomStream(78, r), params, counts)
        z[r] = payments.payments[0, 0, 0]
    s = z.std(ddof=1)
    # delta-method SE of the sample std, as in criterion 03
    m4 = np.mean((z - z.mean()) ** 4)
    se = math.sqrt(max(m4 - s**4, 0.0)) / (2 * s * math.sqrt(reps))
    assert abs(s - math.sqrt(4500.0)) < 4 * se


def test_payment_counts_bounded_and_zero_payment_cells_pay_nothing(make_params):
    params = make_params(occurrence_years=4, expected_counts=80.0, pay_prob=0.4)
    for rep in range(30):
        path = simulate_path(RandomStream(11, rep), params)
        nu = path.claims.pay_counts
        assert np.all(nu >= 0)
        assert np.all(nu <= path.claims.counts)
        assert np.all(path.payments.payments >= 0)
        assert np.all(path.payments.payments[nu == 0] == 0.0)


def gather_scatter_payments(stream, params, counts):
    """The payment stage as a gather and scatter: one ``gamma(nu * shape, scale)``
    call over the paying stochastic cells in flat order, and ``nu`` times the
    mean in the zero-variance cells.  The reference for the in-place draw."""
    gens = stream.generators
    pay_counts = gens[BINOMIAL].binomial(counts.counts, params.pay_prob)
    mean, var = params.severity_mean, params.severity_var
    stochastic = var > 0.0
    payments = pay_counts * np.where(stochastic, 0.0, mean)
    drawn = np.flatnonzero((pay_counts > 0) & stochastic)
    jk = drawn % stochastic.size  # flat (world, i, j, k) index -> (j, k)
    shape, scale = gamma_shape_scale(mean.ravel()[jk], var.ravel()[jk])
    payments.reshape(-1)[drawn] = gens[GAMMA].gamma(shape * pay_counts.reshape(-1)[drawn], scale)
    return pay_counts, payments


def random_edge_params(rng):
    """A small parameter set with zero-variance cells, Gamma shapes below 1,
    ``pay_prob`` of 0 or 1 and zero expected counts, each drawn at random."""
    n_i, n_j, n_k = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    mean = rng.choice([0.01, 1.0, 10.0, 1e4], size=(n_j, n_k))
    shape = rng.choice([0.0, 1e-6, 0.05, 0.5, 1.0, 3.0, 1e3], size=(n_j, n_k))
    lags = rng.random(n_j) + 0.1
    return ModelParams(
        occurrence_years=n_i,
        max_lag=n_j,
        max_runoff=n_k - 1,
        expected_counts=rng.choice([0.0, 0.5, 5.0, 200.0], size=n_i),
        lag_probs=lags / lags.sum(),
        survival=np.concatenate([[1.0], np.sort(rng.random(n_k - 1))[::-1]]),
        pay_prob=rng.choice([0.0, 0.3, 0.9, 1.0], size=n_k),
        severity_mean=mean,
        severity_var=np.where(shape > 0, mean * mean / np.where(shape > 0, shape, 1.0), 0.0),
    )


def test_in_place_draw_equals_the_gather_scatter_draw_bit_for_bit():
    rng = np.random.default_rng(20261022)
    for case in range(150):
        params = random_edge_params(rng)
        size = [None, 1, 2, 3, 4][case % 5]
        counts = simulate_counts(RandomStream(case, 0), params, size)
        pay_counts, payments = simulate_payments(RandomStream(case, 1), params, counts)
        want_counts, want = gather_scatter_payments(RandomStream(case, 1), params, counts)
        assert pay_counts.tobytes() == want_counts.tobytes(), case
        assert payments.payments.dtype == want.dtype and payments.payments.tobytes() == want.tobytes(), case


# --- full paths -------------------------------------------------------------


def test_path_is_deterministic_per_stream(make_params):
    params = make_params(occurrence_years=4, expected_counts=70.0)
    a = simulate_path(RandomStream(42, 3), params)
    b = simulate_path(RandomStream(42, 3), params)
    assert np.array_equal(a.claims.counts, b.claims.counts)
    assert np.array_equal(a.claims.pay_counts, b.claims.pay_counts)
    assert np.array_equal(a.payments.payments, b.payments.payments)
    c = simulate_path(RandomStream(42, 4), params)
    assert not np.array_equal(a.payments.payments, c.payments.payments)


def test_retained_severities_reconcile_with_cell_totals(make_params):
    params = make_params(occurrence_years=4, expected_counts=50.0)
    path = simulate_path(RandomStream(12, 0), params, retain_severities=True)
    n_i, n_j, n_k = params.dims
    severities = dict(path.severities.items())
    for j in range(n_j):
        for k in range(n_k):
            amounts = severities.get((j, k), np.empty(0))
            assert amounts.size == path.claims.pay_counts[:, j, k].sum()
            assert math.fsum(amounts) == pytest.approx(
                path.payments.payments[:, j, k].sum(), rel=1e-12, abs=1e-12
            )


def test_retention_does_not_change_the_draw_sequence(make_params):
    params = make_params(occurrence_years=3, expected_counts=40.0)
    plain = simulate_path(RandomStream(13, 0), params)
    retained = simulate_path(RandomStream(13, 0), params, retain_severities=True)
    assert np.array_equal(plain.payments.payments, retained.payments.payments)


def test_default_portfolio_path_invariants():
    from claimcube import default_params

    params = default_params()
    path = simulate_path(RandomStream(99, 0), params)
    counts, nu, z = path.claims.counts, path.claims.pay_counts, path.payments.payments
    assert np.all(np.diff(counts, axis=2) <= 0)
    assert np.all((nu >= 0) & (nu <= counts))
    assert np.all(z >= 0)
    assert np.all(z[nu == 0] == 0.0)


def test_retained_severities_replay_per_stream(make_params):
    params = make_params(occurrence_years=3, expected_counts=40.0)
    a, b, c = (
        dict(simulate_path(RandomStream(14, stream_id), params, retain_severities=True).severities.items())
        for stream_id in (2, 2, 3)
    )
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[cell], b[cell]) for cell in a)
    assert any(cell not in c or not np.array_equal(a[cell], c[cell]) for cell in a)


def test_retention_leaves_the_plain_stream_where_a_plain_path_does(make_params):
    params = make_params(occurrence_years=3, expected_counts=40.0)
    plain, retained = RandomStream(16, 0), RandomStream(16, 0)
    simulate_path(plain, params)
    simulate_path(retained, params, retain_severities=True)
    assert [g.bit_generator.state for g in plain.generators] == [g.bit_generator.state for g in retained.generators]


def test_tiny_shape_retained_amounts_stay_finite_and_reconcile(make_params):
    # shape = 10^2 / 1e8 = 1e-6: standard Gamma draws underflow to 0, so whole
    # cells split a total whose individual draws are all zero
    params = make_params(occurrence_years=4, expected_counts=80.0, pay_prob=0.8, severity_var=1e8)
    positive_totals = 0
    for r in range(40):
        path = simulate_path(RandomStream(15, r), params, retain_severities=True)
        nu, z = path.claims.pay_counts, path.payments.payments
        positive_totals += int(np.count_nonzero(z))
        for (j, k), amounts in path.severities.items():
            assert np.all(np.isfinite(amounts)) and np.all(amounts >= 0)
            assert amounts.size == nu[:, j, k].sum()
            for i, segment in enumerate(np.split(amounts, np.cumsum(nu[:, j, k])[:-1])):
                assert math.fsum(segment) == pytest.approx(z[i, j, k], rel=1e-12, abs=0.0)
    assert positive_totals > 0


def test_runs_that_start_and_end_inside_the_pools_reconcile_cell_by_cell(make_params):
    # Pools in (j, k) order: ordinary, zero variance, tiny shape (1e-4: some
    # cells' draws all underflow and are lumped), tiny shape, ordinary, zero variance.
    mean = np.array([[10.0, 4.0, 5.0], [8.0, 12.0, 3.0]])
    shape = np.array([[2.0, np.inf, 1e-4], [1e-4, 0.5, np.inf]])
    params = make_params(
        occurrence_years=4, expected_counts=150.0, pay_prob=0.9, severity_mean=mean, severity_var=mean**2 / shape
    )
    lumped_pools = set()
    for r in range(20):
        path = simulate_path(RandomStream(17, r), params, retain_severities=True)
        replay = simulate_path(RandomStream(17, r), params, retain_severities=True).severities
        assert as_bytes(replay.items()) == as_bytes(path.severities.items())
        nu, z = path.claims.pay_counts, path.payments.payments
        # more than two runs of max(largest pool, cells): some run starts and ends mid-sequence
        assert nu.sum() > 2 * max(nu.sum(axis=0).max(), nu.size)
        for (j, k), amounts in path.severities.items():
            assert amounts.size == nu[:, j, k].sum()
            if shape[j, k] == np.inf:
                assert np.all(amounts == mean[j, k])
            for i, segment in enumerate(np.split(amounts, np.cumsum(nu[:, j, k])[:-1])):
                assert math.fsum(segment) == pytest.approx(z[i, j, k], rel=1e-12, abs=0.0)
                if shape[j, k] == 1e-4 and np.count_nonzero(segment) == 1 and segment.size > 1:
                    lumped_pools.add((j, k))
    assert lumped_pools == {(0, 2), (1, 0)}


def test_a_retained_world_is_drawn_and_read_in_one_run_of_memory():
    # A retained world holds no amount: reading them replays the split run by
    # run into two alternating buffers, so drawing the world and reading every
    # amount peak at a few run-sized arrays (about 86 B per payment of a run,
    # the world's tensors included), with no term per payment of the world.
    base = default_params()
    params = validate_params(dataclasses.replace(base, expected_counts=60 * base.expected_counts))
    estimate_severity(simulate_path(RandomStream(2025, 1), base, retain_severities=True))  # first-call set-up
    tracemalloc.start()
    try:
        path = simulate_path(RandomStream(2025, 0), params, retain_severities=True)
        estimate_severity(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nu = path.claims.pay_counts
    payments, run = int(nu.sum()), max(int(nu.sum(axis=0).max()), nu.size)
    assert payments > 500_000 and payments > 40 * run
    assert peak < 192 * run, f"peak {peak} B for {payments} payments, runs of {run}"


def multi_run_path(make_params):
    """A retained world whose split takes more than two runs of max(largest pool, cells)."""
    params = make_params(occurrence_years=4, expected_counts=150.0, pay_prob=0.9)
    path = simulate_path(RandomStream(19, 0), params, retain_severities=True)
    nu = path.claims.pay_counts
    assert nu.sum() > 2 * max(nu.sum(axis=0).max(), nu.size)
    return path


def as_bytes(pairs):
    return {cell: amounts.tobytes() for cell, amounts in pairs}


def test_every_read_replays_the_same_read_only_amounts(make_params):
    path = multi_run_path(make_params)
    severities = path.severities
    first = as_bytes(severities.items())
    # every pool with a payment, in ascending (j, k) order
    assert list(first) == [tuple(cell) for cell in np.argwhere(path.claims.pay_counts.sum(axis=0)).tolist()]
    assert as_bytes(severities.items()) == first
    for cell, amounts in severities.items():
        assert not amounts.flags.writeable
        assert amounts.tobytes() == first[cell]


def test_interleaved_replays_of_one_world_yield_the_same_amounts(make_params):
    severities = multi_run_path(make_params).severities
    serial = as_bytes(severities.items())
    interleaved = [
        ((a, x.tobytes()), (b, y.tobytes())) for (a, x), (b, y) in zip(severities.items(), severities.items())
    ]
    assert [first for first, _ in interleaved] == list(serial.items())
    assert all(first == second for first, second in interleaved)


def test_amounts_kept_from_one_pass_equal_a_fresh_replay(make_params):
    severities = multi_run_path(make_params).severities
    kept = dict(severities.items())
    # A view of a view aliases its run just as the pool does.
    tails = {cell: amounts[1:] for cell, amounts in severities.items()}
    fresh = as_bytes(severities.items())
    assert as_bytes(kept.items()) == fresh
    assert {cell: tail.tobytes() for cell, tail in tails.items()} == {
        cell: amounts[1:].tobytes() for cell, amounts in severities.items()
    }


def test_threads_reading_one_path_at_once_get_the_same_amounts():
    # More threads than cores, switching every microsecond: a buffer or
    # generator shared between reads would mix their amounts.
    base = default_params()
    params = validate_params(dataclasses.replace(base, expected_counts=20 * base.expected_counts))
    severities = simulate_path(RandomStream(20, 0), params, retain_severities=True).severities
    serial = as_bytes(severities.items())
    barrier = threading.Barrier(4, timeout=60)
    reads = []

    def read():
        barrier.wait()
        reads.append(as_bytes(severities.items()))

    threads = [threading.Thread(target=read, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [serial] * 4


def test_retained_worlds_of_one_stream_start_from_distinct_severity_states(make_params):
    params = make_params(occurrence_years=3, expected_counts=40.0)
    stream = RandomStream(21, 0)
    first = simulate_path(stream, params, retain_severities=True).severities.state
    second = simulate_path(stream, params, retain_severities=True).severities.state
    assert first == RandomStream(21, 0).severity_state()  # a stream's first world starts at the spawned state
    assert second != first and stream.severity_state() not in (first, second)


def test_plain_draw_memory_per_cell_is_bounded():
    # Every cell pays, so the payment stage draws every cell.  It draws the
    # totals in place in the payments array, so the peak is the world's three
    # 8-byte tensors and little more: 27 B per cell.  A per-cell gather of
    # the paying cells' index, shape or scale, a per-cell array of the count
    # draw kept past it, or one cached on the params, would add 8 B per cell
    # to the peak or to what is held after.
    n = 64
    params = validate_params(
        ModelParams(
            occurrence_years=n,
            max_lag=n,
            max_runoff=40,
            expected_counts=1e5,
            lag_probs=np.full(n, 1 / n),
            survival=np.linspace(1.0, 0.05, 41),
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=20.0,
        )
    )
    cells = n * n * 41
    stream = RandomStream(2026, 0)
    tracemalloc.start()
    try:
        path = simulate_path(stream, params, size=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(path.claims.pay_counts > 0)
    assert peak < 34 * cells, f"peak {peak / cells:.1f} B per cell"
    # the world's three 8-byte tensors and the params' kernel constants
    assert held < 26 * cells, f"{held / cells:.1f} B per cell held after the draw"


def test_million_claims_per_year_world_runs_in_bounded_memory():
    params = validate_params(dataclasses.replace(default_params(), expected_counts=1e6))
    tracemalloc.start()
    try:
        path = simulate_path(RandomStream(2024, 0), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.claims.pay_counts.sum() > 10**7
    assert peak < 16 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB"


def test_tensors_keep_their_own_frozen_copy():
    # Read-only views of writeable arrays: mutating the base afterwards must
    # not reach the tensors.
    counts = np.zeros((2, 2, 3), dtype=np.int64)
    amounts = np.zeros((2, 2, 3))
    frozen_view = amounts.view()
    frozen_view.flags.writeable = False
    claims = ClaimTensor(np.broadcast_to(counts, counts.shape), np.broadcast_to(counts, counts.shape))
    payments = PaymentTensor(frozen_view)
    counts += 5
    amounts += 5.0
    for arr in (claims.counts, claims.pay_counts, payments.payments):
        assert not arr.any() and not arr.flags.writeable
