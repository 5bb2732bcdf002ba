import dataclasses
import math

import numpy as np
import pytest

from claimcube import (
    ClaimTensor,
    ModelParams,
    ParameterError,
    PaymentTensor,
    RandomStream,
    SimulationPath,
    analytic_reserve_moments,
    mean_claim_size,
    reserve_breakdown,
    simulate_path,
    total_known_payments,
    triangle_occurrence,
    triangle_reporting,
    validate_params,
)


def build_path(params, counts=None, pay_counts=None, payments=None):
    """Hand-assemble a SimulationPath from explicit tensors."""
    shape = params.dims
    counts = np.zeros(shape, dtype=np.int64) if counts is None else np.asarray(counts)
    pay_counts = np.zeros(shape, dtype=np.int64) if pay_counts is None else np.asarray(pay_counts)
    payments = np.zeros(shape) if payments is None else np.asarray(payments, dtype=float)
    return SimulationPath(
        params=params,
        claims=ClaimTensor(counts=counts, pay_counts=pay_counts),
        payments=PaymentTensor(payments=payments),
    )


def two_year_params():
    return validate_params(
        ModelParams(
            occurrence_years=2,
            max_lag=2,
            max_runoff=1,
            expected_counts=10.0,
            lag_probs=[0.7, 0.3],
            survival=[1.0, 0.5],
            pay_prob=0.5,
            severity_mean=10.0,
            severity_var=5.0,
        )
    )


# --- triangles ----------------------------------------------------------------


def test_zero_payments_give_zero_triangles():
    path = build_path(two_year_params())
    for tri in (triangle_occurrence(path), triangle_reporting(path)):
        known = ~np.isnan(tri.values)
        assert np.all(tri.values[known] == 0.0)
        assert tri.known_total == 0.0


def test_single_cell_projection_by_hand():
    # one payment of 7 at (i=1, j=0, k=1): occurrence row 1 development 1,
    # reporting year i+j = 1 run-off 1
    params = two_year_params()
    z = np.zeros(params.dims)
    z[0, 0, 1] = 7.0
    path = build_path(params, payments=z)

    occ = triangle_occurrence(path)
    assert occ.values[0, 1] == 7.0
    assert occ.values[0, 0] == 0.0 and occ.values[1, 0] == 0.0
    assert math.isnan(occ.values[1, 1])

    rep = triangle_reporting(path)
    assert rep.values[0, 1] == 7.0
    assert math.isnan(rep.values[1, 1])


def test_triangle_known_region_shape(make_params):
    params = make_params(occurrence_years=5, expected_counts=30.0)
    path = simulate_path(RandomStream(21, 0), params)
    tri = triangle_occurrence(path)
    n = params.occurrence_years
    for r in range(n):
        for c in range(n):
            assert math.isnan(tri.values[r, c]) == (r + c > n - 1)


def test_projection_partition_identity(make_params):
    params = make_params(occurrence_years=5, max_lag=3, lag_probs=(0.5, 0.3, 0.2), expected_counts=45.0)
    for rep in range(100):
        path = simulate_path(RandomStream(22, rep), params)
        occ = triangle_occurrence(path)
        rep_tri = triangle_reporting(path)
        total = total_known_payments(path)
        assert occ.known_total == total
        assert rep_tri.known_total == total
        # cell sums agree with the exact total to normal float tolerance
        assert np.nansum(occ.values) == pytest.approx(total, rel=1e-12)
        assert np.nansum(rep_tri.values) == pytest.approx(total, rel=1e-12)


# --- reserve breakdown ----------------------------------------------------------


def oracle_breakdown(path):
    """Exhaustive cell-by-cell classification, accumulating ascending (i,j,k)."""
    n_i, n_j, n_k = path.params.dims
    ibnr_vals, rep_vals = [], []
    ibnr_count = 0
    for i in range(1, n_i + 1):
        for j in range(n_j):
            for k in range(n_k):
                z = path.payments.payments[i - 1, j, k]
                if i + j > n_i:
                    ibnr_vals.append(z)
                    if k == 0:
                        ibnr_count += int(path.claims.counts[i - 1, j, 0])
                elif i + j + k > n_i:
                    rep_vals.append(z)
    ibnr = math.fsum(ibnr_vals)
    rep = math.fsum(rep_vals)
    return ibnr_count, ibnr, rep, ibnr + rep


def test_breakdown_matches_hand_classification():
    # I=2, J=2, K=1: cells with i+j>2 are IBNR, known iff i+j+k<=2
    params = two_year_params()
    z = np.arange(1.0, 9.0).reshape(params.dims)  # distinct values per cell
    n = np.ones(params.dims, dtype=np.int64)
    path = build_path(params, counts=n, payments=z)
    breakdown = reserve_breakdown(path)
    # IBNR columns: (i=2, j=1) only -> z[1,1,0] + z[1,1,1]; ibnr_count = n[1,1,0]
    assert breakdown.ibnr_count == 1
    assert breakdown.ibnr_reserve == z[1, 1, 0] + z[1, 1, 1]
    # reported future: i+j<=2 and i+j+k>2 -> (1,1,1) and (2,0,1)
    assert breakdown.reported_reserve == z[0, 1, 1] + z[1, 0, 1]
    assert breakdown.total_reserve == breakdown.ibnr_reserve + breakdown.reported_reserve


def test_block_breakdown_compares_and_hashes_by_identity():
    # Array fields have no truth value, so a field-wise == would raise.
    breakdown = reserve_breakdown(simulate_path(RandomStream(26, 0), two_year_params(), size=3))
    assert breakdown.total_reserve.shape == (3,)
    assert breakdown == breakdown and breakdown != dataclasses.replace(breakdown)
    assert hash(breakdown) == hash(breakdown)


def test_no_lag_means_no_ibnr(make_params):
    params = make_params(max_lag=1, lag_probs=(1.0,), expected_counts=50.0)
    for rep in range(20):
        breakdown = reserve_breakdown(simulate_path(RandomStream(23, rep), params))
        assert breakdown.ibnr_count == 0
        assert breakdown.ibnr_reserve == 0.0


def test_immediate_settlement_means_no_reserve(make_params):
    params = make_params(
        max_lag=1, lag_probs=(1.0,), max_runoff=1, survival=(1.0, 0.0), expected_counts=50.0
    )
    # all payments land at k=0 <= I for every occurrence year
    for rep in range(20):
        path = simulate_path(RandomStream(24, rep), params)
        assert np.all(path.payments.payments[:, :, 1] == 0.0)
        assert reserve_breakdown(path).total_reserve == 0.0


def test_breakdown_equals_oracle_on_random_worlds(make_params):
    params = make_params(occurrence_years=3, max_lag=3, lag_probs=(0.5, 0.3, 0.2), expected_counts=25.0)
    for rep in range(50):
        path = simulate_path(RandomStream(25, rep), params)
        breakdown = reserve_breakdown(path)
        assert (
            breakdown.ibnr_count,
            breakdown.ibnr_reserve,
            breakdown.reported_reserve,
            breakdown.total_reserve,
        ) == oracle_breakdown(path)


def test_every_cell_classified_exactly_once():
    for n_i, n_j, n_k in [(1, 1, 1), (2, 3, 2), (3, 2, 3), (4, 4, 1)]:
        i = np.arange(1, n_i + 1)[:, None, None]
        j = np.arange(n_j)[None, :, None]
        k = np.arange(n_k)[None, None, :]
        known = (i + j + k) <= n_i
        ibnr = np.broadcast_to(((i + j) > n_i), known.shape)
        reported_future = (~ibnr) & ((i + j + k) > n_i)
        assert np.all(known.astype(int) + ibnr.astype(int) + reported_future.astype(int) == 1)


# --- mean claim size ------------------------------------------------------------


def test_mean_claim_size_zero_payments():
    params = two_year_params()
    path = build_path(params, counts=np.ones(params.dims, dtype=np.int64))
    assert np.all(mean_claim_size(path)[~np.isnan(mean_claim_size(path))] == 0.0)


def test_mean_claim_size_single_payment():
    params = two_year_params()
    z = np.zeros(params.dims)
    n = np.zeros(params.dims, dtype=np.int64)
    z[0, 0, 0] = 12.0
    n[0, 0, 0] = 1
    path = build_path(params, counts=n, payments=z)
    mcs = mean_claim_size(path)
    assert mcs[0, 0] == 12.0
    assert math.isnan(mcs[1, 1])  # no active claims there


def test_mean_claim_size_matches_double_sum_oracle(make_params):
    params = make_params(occurrence_years=3, expected_counts=40.0)
    path = simulate_path(RandomStream(26, 0), params)
    n_i, n_j, n_k = params.dims
    mcs = mean_claim_size(path)
    for j in range(n_j):
        for k in range(n_k):
            denom = sum(path.claims.counts[i, j, k] for i in range(n_i))
            numer = sum(
                path.payments.payments[i, j, l] for i in range(n_i) for l in range(k, n_k)
            )
            if denom == 0:
                assert math.isnan(mcs[j, k])
            else:
                assert mcs[j, k] == pytest.approx(numer / denom, rel=1e-12)


@pytest.mark.parametrize("function", [mean_claim_size, total_known_payments], ids=lambda f: f.__name__)
def test_one_world_functions_reject_a_block(make_params, function):
    block = simulate_path(RandomStream(59, 0), make_params(), size=3)
    with pytest.raises(ParameterError, match=f"^{function.__name__} takes one world, got a block of 3 worlds$"):
        function(block)


# --- analytic moments -----------------------------------------------------------


def brute_force_mean(params, which):
    """Independent triple-loop expectation sum over classified future cells."""
    n_i, n_j, n_k = params.dims
    total = 0.0
    for i in range(1, n_i + 1):
        for j in range(n_j):
            for k in range(n_k):
                ibnr = i + j > n_i
                future = ibnr or (i + j + k > n_i)
                pick = (
                    (which == "ibnr_reserve" and ibnr)
                    or (which == "reported_reserve" and future and not ibnr)
                    or (which == "total_reserve" and future)
                )
                if pick:
                    total += (
                        params.expected_counts[i - 1]
                        * params.lag_probs[j]
                        * params.survival[k]
                        * params.pay_prob[k]
                        * params.severity_mean[j, k]
                    )
    return total


def covariance_oracle_variance(params, which):
    """Variance assembled cell by cell from the payment-count covariances.

    Within one (occurrence, lag) column of future cells K, with
    Lambda = N * lag_prob:  Var = sum_{k in K} Lambda eta_k p_k (Var+EW^2)
    + 2 sum_{k<l in K} Lambda eta_l (p_k EW_k)(p_l EW_l); columns add.
    """
    n_i, n_j, n_k = params.dims
    eta, p = params.survival, params.pay_prob
    total = 0.0
    for i in range(1, n_i + 1):
        for j in range(n_j):
            lam = params.expected_counts[i - 1] * params.lag_probs[j]
            if which == "ibnr_reserve":
                ks = list(range(n_k)) if i + j > n_i else []
            elif which == "reported_reserve":
                ks = [k for k in range(n_k) if i + j <= n_i and i + j + k > n_i]
            else:
                ks = [k for k in range(n_k) if i + j + k > n_i]
            ew = params.severity_mean[j]
            var = params.severity_var[j]
            for a, k in enumerate(ks):
                total += lam * eta[k] * p[k] * (var[k] + ew[k] ** 2)
                for l in ks[a + 1 :]:
                    total += 2.0 * lam * eta[l] * (p[k] * ew[k]) * (p[l] * ew[l])
    return total


def test_zero_pay_prob_gives_zero_moments(make_params):
    params = make_params(pay_prob=0.0)
    moments = analytic_reserve_moments(params)
    for name in ("ibnr_reserve", "reported_reserve", "total_reserve"):
        assert moments[name].mean == 0.0
        assert moments[name].variance == 0.0


def test_hand_enumerated_total_reserve_mean():
    # single future cell (i=2, j=0, k=1): 100 * 1 * 0.5 * 0.2 * 10 = 100
    params = validate_params(
        ModelParams(
            occurrence_years=2,
            max_lag=1,
            max_runoff=1,
            expected_counts=[100.0, 100.0],
            lag_probs=[1.0],
            survival=[1.0, 0.5],
            pay_prob=[0.2, 0.2],
            severity_mean=10.0,
            severity_var=0.0,
        )
    )
    assert analytic_reserve_moments(params)["total_reserve"].mean == pytest.approx(100.0)


def test_analytic_mean_equals_brute_force_on_random_parameters():
    rng = np.random.default_rng(123)
    for _ in range(25):
        n_i = int(rng.integers(1, 5))
        n_j = int(rng.integers(1, 4))
        k_max = int(rng.integers(0, 4))
        lag = rng.random(n_j) + 0.05
        eta = np.minimum.accumulate(np.concatenate([[1.0], rng.random(k_max)]))
        params = validate_params(
            ModelParams(
                occurrence_years=n_i,
                max_lag=n_j,
                max_runoff=k_max,
                expected_counts=rng.uniform(0.0, 50.0, n_i),
                lag_probs=lag / lag.sum(),
                survival=eta,
                pay_prob=rng.random(k_max + 1),
                severity_mean=rng.uniform(0.5, 30.0, (n_j, k_max + 1)),
                severity_var=rng.uniform(0.0, 60.0, (n_j, k_max + 1)),
            )
        )
        moments = analytic_reserve_moments(params)
        for which in ("ibnr_reserve", "reported_reserve", "total_reserve"):
            assert moments[which].mean == pytest.approx(brute_force_mean(params, which), rel=1e-10)
            assert moments[which].variance == pytest.approx(
                covariance_oracle_variance(params, which), rel=1e-10
            )


def test_ibnr_count_moments_are_poisson(make_params):
    params = make_params(occurrence_years=2, expected_counts=(20.0, 30.0), lag_probs=(0.6, 0.4))
    moments = analytic_reserve_moments(params)
    # IBNR columns: (i=1, j>=1 impossible since 1+1=2<=2) -> only (i=2, j=1)
    expected = 30.0 * 0.4
    assert moments["ibnr_count"].mean == pytest.approx(expected)
    assert moments["ibnr_count"].variance == pytest.approx(expected)


def test_mc_mean_matches_analytic(make_params):
    params = make_params(occurrence_years=4, expected_counts=50.0)
    moments = analytic_reserve_moments(params)
    reps = 2000
    totals = np.empty(reps)
    for r in range(reps):
        totals[r] = reserve_breakdown(simulate_path(RandomStream(27, r), params)).total_reserve
    se = totals.std(ddof=1) / math.sqrt(reps)
    assert abs(totals.mean() - moments["total_reserve"].mean) < 3 * se
