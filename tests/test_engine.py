import math

import numpy as np
import pytest

from claimcube import (
    EmpiricalDistribution,
    ParameterError,
    analytic_reserve_moments,
    build_risk_report,
    expected_shortfall,
    run_monte_carlo,
    value_at_risk,
)


def dist(values, name="stat"):
    return EmpiricalDistribution(np.asarray(values, dtype=float), statistic_name=name)


# --- risk measure definitions -------------------------------------------------


def test_var_is_the_rank_ceil_level_r_order_statistic():
    assert value_at_risk(dist(range(1, 101)), 0.95) == 95.0


def test_var_on_single_sample():
    assert value_at_risk(dist([7.0]), 0.3) == 7.0
    assert value_at_risk(dist([7.0]), 0.99) == 7.0


def test_var_median_of_three():
    assert value_at_risk(dist([1.0, 2.0, 3.0]), 0.5) == 2.0


def test_es_is_mean_of_tail():
    assert expected_shortfall(dist(range(1, 101)), 0.95) == 98.0


def test_es_of_constant_samples():
    assert expected_shortfall(dist([3.0] * 10), 0.9) == 3.0


def test_es_dominates_var_on_random_sets():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        samples = rng.lognormal(2.0, 1.0, n) if rng.random() < 0.5 else rng.normal(0, 5, n)
        d = dist(samples)
        for level in rng.uniform(0.01, 0.99, 3):
            assert expected_shortfall(d, level) >= value_at_risk(d, level)


def test_var_and_es_monotone_in_level():
    rng = np.random.default_rng(78)
    d = dist(rng.normal(size=500))
    levels = np.linspace(0.05, 0.99, 20)
    vars_ = [value_at_risk(d, a) for a in levels]
    ess = [expected_shortfall(d, a) for a in levels]
    assert np.all(np.diff(vars_) >= 0)
    assert np.all(np.diff(ess) >= 0)


def test_level_must_be_inside_unit_interval():
    d = dist([1.0, 2.0])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ParameterError):
            value_at_risk(d, bad)


def test_empty_distribution_is_a_state_error():
    empty = dist([])
    with pytest.raises(ValueError):
        value_at_risk(empty, 0.5)
    with pytest.raises(ValueError):
        build_risk_report(empty, ())


# --- summary statistics ---------------------------------------------------------


def test_summary_of_constant_samples():
    stats = build_risk_report(dist([2.0, 2.0, 2.0]), ())
    assert stats.mean == 2.0
    assert stats.std_dev == 0.0


def test_summary_uses_unbiased_std():
    stats = build_risk_report(dist([1.0, 3.0]), ())
    assert stats.mean == 2.0
    assert stats.std_dev == pytest.approx(math.sqrt(2.0))


def test_single_sample_std_is_zero_with_warning():
    with pytest.warns(UserWarning, match="single replicate"):
        stats = build_risk_report(dist([5.0]), ())
    assert stats.mean == 5.0
    assert stats.std_dev == 0.0


def test_samples_are_sorted_on_construction():
    d = dist([3.0, 1.0, 2.0])
    assert np.array_equal(d.samples, [1.0, 2.0, 3.0])
    assert d.replicate_count == 3


# --- the MC driver --------------------------------------------------------------


def test_single_replicate_distribution(make_params):
    params = make_params()
    out = run_monte_carlo(params, 1, master_seed=5)
    assert all(d.replicate_count == 1 for d in out.values())


def test_scheduling_invariance(make_params):
    params = make_params(occurrence_years=4, expected_counts=60.0)
    serial = run_monte_carlo(params, 40, master_seed=6, workers=1)
    threaded = run_monte_carlo(params, 40, master_seed=6, workers=4)
    for name in serial:
        assert np.array_equal(serial[name].samples, threaded[name].samples)


def test_unknown_statistic_rejected(make_params):
    with pytest.raises(ParameterError, match="unknown statistics"):
        run_monte_carlo(make_params(), 2, 1, statistics=("nope",))


def test_known_payments_statistic_available(make_params):
    out = run_monte_carlo(make_params(), 3, 1, statistics=("known_payments", "total_reserve"))
    assert out["known_payments"].replicate_count == 3
    assert np.all(out["known_payments"].samples >= 0)


def test_empirical_mean_approaches_analytic_with_shrinking_bands(make_params):
    params = make_params(
        occurrence_years=3,
        expected_counts=40.0,
        lag_probs=(0.7, 0.3),
        survival=(1.0, 0.5, 0.2),
        pay_prob=(0.3, 0.4, 0.5),
    )
    analytic = analytic_reserve_moments(params)["total_reserve"].mean
    bands = {}
    for reps in (100, 1000, 10_000):
        samples = run_monte_carlo(params, reps, master_seed=7)["total_reserve"].samples
        band = 3 * samples.std(ddof=1) / math.sqrt(reps)
        bands[reps] = band
        assert abs(samples.mean() - analytic) < band
    assert bands[10_000] < bands[1000] < bands[100]


def test_risk_report_invariant(make_params):
    params = make_params(occurrence_years=4, expected_counts=60.0)
    d = run_monte_carlo(params, 200, master_seed=8)["total_reserve"]
    report = build_risk_report(d, (0.5, 0.75, 0.9, 0.95), analytic_reserve_moments(params)["total_reserve"])
    for level in report.value_at_risk:
        assert report.expected_shortfall[level] >= report.value_at_risk[level]
    assert report.analytic_mean is not None
    assert report.analytic_std is not None
    assert report.replicate_count == 200
