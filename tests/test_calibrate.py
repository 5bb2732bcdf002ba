import math
import re
import warnings

import numpy as np
import pytest

import claimcube
from claimcube import (
    ClaimTensor,
    EstimationError,
    ModelParams,
    ParameterError,
    PaymentTensor,
    RandomStream,
    SimulationPath,
    calibrated_params,
    estimate_lag_probs,
    estimate_pay_prob,
    estimate_severity,
    estimate_survival,
    simulate_path,
    validate_params,
)


def hand_path(params, counts, pay_counts=None, severities=None):
    counts = np.asarray(counts, dtype=np.int64)
    pay = np.zeros_like(counts) if pay_counts is None else np.asarray(pay_counts, dtype=np.int64)
    return SimulationPath(
        params=params,
        claims=ClaimTensor(counts=counts, pay_counts=pay),
        payments=PaymentTensor(payments=np.zeros(counts.shape)),
        severities=severities,
    )


def flat_params(n_i=1, n_j=2, n_k=1):
    return validate_params(
        ModelParams(
            occurrence_years=n_i,
            max_lag=n_j,
            max_runoff=n_k,
            expected_counts=10.0,
            lag_probs=np.full(n_j, 1.0 / n_j),
            survival=0.5 ** np.arange(n_k + 1, dtype=float),
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=5.0,
        )
    )


# --- lag probabilities ---------------------------------------------------------


def test_all_claims_at_lag_zero():
    params = flat_params(n_j=3)
    counts = np.zeros(params.dims, dtype=np.int64)
    counts[0, 0, 0] = 7
    lam = estimate_lag_probs(hand_path(params, counts))
    assert np.array_equal(lam, [1.0, 0.0, 0.0])


def test_lag_probs_from_hand_counts():
    params = flat_params(n_j=2)
    counts = np.zeros(params.dims, dtype=np.int64)
    counts[0, 0, 0] = 60
    counts[0, 1, 0] = 40
    lam = estimate_lag_probs(hand_path(params, counts))
    assert lam[0] == pytest.approx(0.6)
    assert lam[1] == pytest.approx(0.4)
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)


def test_zero_claims_is_an_estimation_error():
    params = flat_params()
    empty = hand_path(params, np.zeros(params.dims, dtype=np.int64))
    with pytest.raises(EstimationError):
        estimate_lag_probs(empty)
    with pytest.raises(EstimationError):
        estimate_survival(empty)


# --- survival -------------------------------------------------------------------


def test_no_closures_estimates_all_ones(make_params):
    params = make_params(survival=(1.0, 1.0, 1.0), expected_counts=80.0)
    path = simulate_path(RandomStream(51, 0), params)
    assert np.array_equal(estimate_survival(path), [1.0, 1.0, 1.0])


def test_survival_from_hand_counts():
    params = validate_params(
        ModelParams(
            occurrence_years=1,
            max_lag=1,
            max_runoff=5,
            expected_counts=1000.0,
            lag_probs=[1.0],
            survival=[1.0, 0.8, 0.65, 0.5, 0.4, 0.3],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=5.0,
        )
    )
    counts = np.zeros(params.dims, dtype=np.int64)
    counts[0, 0, :] = [1000, 800, 650, 500, 400, 300]
    eta = estimate_survival(hand_path(params, counts))
    assert eta[0] == 1.0  # exactly, by construction
    assert eta[5] == pytest.approx(0.3)


# --- payment probability ----------------------------------------------------------


def test_pay_prob_one_everywhere(make_params):
    params = make_params(pay_prob=1.0, expected_counts=60.0)
    path = simulate_path(RandomStream(52, 0), params)
    p_hat = estimate_pay_prob(path)
    active = path.claims.counts.sum(axis=(0, 1))
    assert np.all(p_hat[active > 0] == 1.0)


def test_pay_prob_from_hand_counts():
    params = flat_params(n_j=1, n_k=3)
    counts = np.zeros(params.dims, dtype=np.int64)
    pay = np.zeros(params.dims, dtype=np.int64)
    counts[0, 0, 3] = 200
    pay[0, 0, 3] = 50
    p_hat = estimate_pay_prob(hand_path(params, counts, pay))
    assert p_hat[3] == pytest.approx(0.25)
    assert math.isnan(p_hat[1])  # no active claims there


# --- severities ---------------------------------------------------------------------


def test_severity_from_hand_payments():
    params = flat_params()
    path = hand_path(
        params,
        np.ones(params.dims, dtype=np.int64),
        severities={(0, 0): np.array([4.0, 6.0])},
    )
    mean, var = estimate_severity(path)
    assert mean[0, 0] == 5.0
    assert var[0, 0] == 2.0
    assert math.isnan(mean[1, 0])


def test_an_empty_pool_is_absent_without_a_warning():
    params = flat_params()
    path = hand_path(
        params,
        np.ones(params.dims, dtype=np.int64),
        severities={(0, 0): np.empty(0), (1, 0): np.array([3.0])},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, var = estimate_severity(path)
    assert np.isnan(mean[0, 0]) and np.isnan(var[0, 0])
    assert mean[1, 0] == 3.0 and np.isnan(var[1, 0])


@pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0,), "ab", (0.5, 0)])
def test_a_key_outside_the_cells_is_a_parameter_error_naming_it(key):
    params = flat_params()  # J = 2, K + 1 = 2
    path = hand_path(params, np.ones(params.dims, dtype=np.int64), severities={key: np.array([1.0, 2.0])})
    with pytest.raises(ParameterError, match=re.escape(f"severities: key {key!r} is outside")):
        estimate_severity(path)


def test_degenerate_severities_estimated_exactly(make_params):
    params = make_params(severity_mean=4.0, severity_var=0.0, expected_counts=60.0, pay_prob=0.8)
    path = simulate_path(RandomStream(53, 0), params, retain_severities=True)
    mean, var = estimate_severity(path)
    populated = ~np.isnan(mean)
    assert np.all(mean[populated] == 4.0)
    assert np.all(var[populated & ~np.isnan(var)] == 0.0)


def test_severity_requires_retention(make_params):
    path = simulate_path(RandomStream(54, 0), make_params())
    with pytest.raises(EstimationError, match="retain_severities"):
        estimate_severity(path)
    counts_only = SimulationPath(params=path.params, claims=ClaimTensor(path.claims.counts), payments=path.payments)
    with pytest.raises(EstimationError, match="^path has no payment counts; simulate payments first$"):
        estimate_pay_prob(counts_only)


# --- round trips ----------------------------------------------------------------


def big_stationary_params():
    lag = np.array([0.4, 0.3, 0.2, 0.1])
    eta = np.array([1.0, 0.75, 0.55, 0.4, 0.3, 0.22])
    p = np.array([0.1, 0.25, 0.35, 0.45, 0.5, 0.55])
    k = np.arange(6, dtype=float)
    ew = 24.0 + 6.0 * np.arange(4)[:, None] + 2.0 * k[None, :]
    return validate_params(
        ModelParams(
            occurrence_years=10,
            max_lag=4,
            max_runoff=5,
            expected_counts=10_000.0,
            lag_probs=lag,
            survival=eta,
            pay_prob=p,
            severity_mean=ew,
            severity_var=4.0 * ew,
        )
    )


def test_round_trip_recovers_parameters_at_scale():
    params = big_stationary_params()
    path = simulate_path(RandomStream(555, 0), params, retain_severities=True)

    lam_hat = estimate_lag_probs(path)
    assert np.max(np.abs(lam_hat - params.lag_probs)) <= 0.02
    assert lam_hat.sum() == pytest.approx(1.0, abs=1e-12)

    eta_hat = estimate_survival(path)
    assert eta_hat[0] == 1.0
    assert np.max(np.abs(eta_hat - params.survival)) <= 0.02
    assert np.all(np.diff(eta_hat) <= 0)

    p_hat = estimate_pay_prob(path)
    assert np.max(np.abs(p_hat - params.pay_prob)) <= 0.02


def test_estimators_do_not_perturb_the_path():
    params = big_stationary_params()
    path = simulate_path(RandomStream(556, 0), params, retain_severities=True)
    counts_before = path.claims.counts.copy()
    pay_before = path.claims.pay_counts.copy()
    estimate_lag_probs(path)
    estimate_survival(path)
    estimate_pay_prob(path)
    estimate_severity(path)
    assert np.array_equal(path.claims.counts, counts_before)
    assert np.array_equal(path.claims.pay_counts, pay_before)


def test_calibrated_params_revalidate(make_params):
    source = make_params(occurrence_years=4, expected_counts=200.0)
    path = simulate_path(RandomStream(57, 0), source, retain_severities=True)
    estimated = calibrated_params(path, fallback=source)
    assert validate_params(estimated) is estimated
    assert np.array_equal(estimated.expected_counts, source.expected_counts)


@pytest.mark.parametrize(
    "name",
    ["estimate_lag_probs", "estimate_survival", "estimate_pay_prob", "estimate_severity", "calibrated_params"],
)
def test_estimators_reject_a_block_and_name_themselves(make_params, name):
    block = simulate_path(RandomStream(58, 0), make_params(), retain_severities=True, size=3)
    fallback = (block.params,) if name == "calibrated_params" else ()
    with pytest.raises(ParameterError, match=f"^{name} takes one world, got a block of 3 worlds$"):
        getattr(claimcube, name)(block, *fallback)
