import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from claimcube import (
    ClaimTensor,
    ModelParams,
    ParameterError,
    PaymentTensor,
    RandomStream,
    default_params,
    make_expected_counts,
    param_errors,
    run_monte_carlo,
    simulate_counts,
    simulate_path,
    simulate_payments,
    validate_params,
)
from claimcube.model import MAX_WORLD_CELLS


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


def test_lag_prob_sum_violation_is_reported(make_params):
    params = ModelParams(
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
    errs = param_errors(params)
    assert any("lag_probs sum" in e for e in errs)
    with pytest.raises(ParameterError, match="lag_probs"):
        validate_params(params)


def test_survival_monotonicity_violation_names_index():
    params = ModelParams(
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
    errs = param_errors(params)
    assert any("non-increasing at k=2" in e for e in errs)


def test_all_violations_collected():
    params = ModelParams(
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
    errs = param_errors(params)
    assert len(errs) >= 6


def test_world_built_in_code_is_bounded():
    # 2**13 * 2**12 * 2 = 2**26 cells, from parameter arrays of kilobytes
    params = ModelParams(
        occurrence_years=2**13,
        max_lag=2**12,
        max_runoff=1,
        expected_counts=1.0,
        lag_probs=np.full(2**12, 2.0**-12),
        survival=[1.0, 0.5],
        pay_prob=0.5,
        severity_mean=10.0,
        severity_var=20.0,
    )
    assert params.occurrence_years * params.max_lag * 2 > MAX_WORLD_CELLS
    assert param_errors(params) == [
        f"occurrence_years: the world has I*J*(K+1) = {2**26} cells, more than MAX_WORLD_CELLS = {MAX_WORLD_CELLS}"
    ]
    with pytest.raises(ParameterError, match="MAX_WORLD_CELLS"):
        validate_params(params)
    with pytest.raises(ParameterError, match="MAX_WORLD_CELLS"):
        run_monte_carlo(params, 1, 0, ("total_reserve",))


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

    assert param_errors(params([2.0**61, 2.0**60, 2.0**60])) == []
    too_many = params([2.0**61, 2.0**61, 2.0**52])
    assert param_errors(too_many) == [f"expected_counts sum to {2.0**62 + 2.0**52!r} claims, more than 2**62"]
    with pytest.raises(ParameterError, match="expected_counts"):
        validate_params(too_many)
    with pytest.raises(ParameterError, match="expected_counts"):
        run_monte_carlo(too_many, 1, 0, ("total_reserve",))


def test_survival_plateau_warns(make_params):
    with pytest.warns(UserWarning, match="plateau"):
        make_params(survival=(1.0, 0.5, 0.5))


def test_scalar_broadcast_convenience(make_params):
    params = make_params(expected_counts=25.0, pay_prob=0.3, severity_mean=8.0, severity_var=0.0)
    assert params.expected_counts.shape == (3,)
    assert params.pay_prob.shape == (3,)
    assert params.severity_mean.shape == (2, 3)


def test_params_arrays_are_immutable(make_params):
    params = make_params()
    with pytest.raises(ValueError):
        params.survival[1] = 0.9


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


# --- payment simulation -----------------------------------------------------


def test_no_claims_no_payments(make_params):
    params = make_params(expected_counts=0.0)
    counts = simulate_counts(RandomStream(8, 0), params)
    pay_counts, payments, _ = simulate_payments(RandomStream(8, 1), params, counts)
    assert pay_counts.sum() == 0
    assert payments.payments.sum() == 0.0


def test_degenerate_severities_pay_exactly_mean_times_count(make_params):
    params = make_params(pay_prob=1.0, severity_mean=2.5, severity_var=0.0)
    counts = simulate_counts(RandomStream(9, 0), params)
    pay_counts, payments, _ = simulate_payments(RandomStream(9, 1), params, counts)
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
        _, payments, _ = simulate_payments(RandomStream(77, r), params, counts)
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
        _, payments, _ = simulate_payments(RandomStream(78, r), params, counts)
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
    for j in range(n_j):
        for k in range(n_k):
            amounts = path.severities.get((j, k), np.empty(0))
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
    a = simulate_path(RandomStream(14, 2), params, retain_severities=True).severities
    b = simulate_path(RandomStream(14, 2), params, retain_severities=True).severities
    c = simulate_path(RandomStream(14, 3), params, retain_severities=True).severities
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


def test_retained_world_memory_is_its_amounts_plus_one_run():
    # The retained amounts take 8 B per payment.  Everything else the draw
    # holds at once (the plain world, the normalisation of one run) is bounded
    # by max(largest pool, cells), not by the number of payments.
    base = default_params()
    params = validate_params(dataclasses.replace(base, expected_counts=60 * base.expected_counts))
    simulate_path(RandomStream(2025, 1), base, retain_severities=True)  # first-call set-up, untraced
    tracemalloc.start()
    try:
        path = simulate_path(RandomStream(2025, 0), params, retain_severities=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nu = path.claims.pay_counts
    payments, run = int(nu.sum()), max(int(nu.sum(axis=0).max()), nu.size)
    assert payments > 500_000
    assert peak < 8 * payments + 192 * run, f"peak {peak} B for {payments} payments, runs of {run}"


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
