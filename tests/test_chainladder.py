import dataclasses
import math

import numpy as np
import pytest

import claimcube.chainladder
import claimcube.engine

from claimcube import (
    EstimationError,
    ModelParams,
    ParameterError,
    Triangle,
    block_replicates,
    chain_ladder,
    compare_2d_3d,
    cumulate,
    replicate_path,
    reserve_breakdown,
    triangle_occurrence,
    triangle_reporting,
    validate_params,
)
from claimcube.presets import default_params


def incremental(values, horizon=None):
    values = np.asarray(values, dtype=float)
    return Triangle(values, "occurrence", "incremental", horizon or values.shape[0])


def cumulative(values, horizon=None):
    values = np.asarray(values, dtype=float)
    return Triangle(values, "occurrence", "cumulative", horizon or values.shape[0])


nan = math.nan


# --- cumulate --------------------------------------------------------------------


def test_cumulate_zero_triangle():
    tri = cumulate(incremental([[0.0, 0.0], [0.0, nan]]))
    assert tri.values[0, 0] == 0.0 and tri.values[0, 1] == 0.0
    assert math.isnan(tri.values[1, 1])
    assert tri.form == "cumulative"


def test_cumulate_prefix_sums():
    tri = cumulate(incremental([[10.0, 5.0, 1.0], [2.0, 3.0, nan], [4.0, nan, nan]]))
    assert list(tri.values[0]) == [10.0, 15.0, 16.0]
    assert tri.values[1, 1] == 5.0


def test_cumulate_matches_row_prefix_sums():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        vals = rng.uniform(0, 100, (n, n))
        r, c = np.indices(vals.shape)
        vals[r + c > n - 1] = nan
        cum = cumulate(incremental(vals)).values
        for m in range(n):
            for k in range(n):
                expected = math.fsum(vals[m, : k + 1]) if m + k <= n - 1 else nan
                assert cum[m, k] == pytest.approx(expected, rel=1e-12, nan_ok=True)


def test_form_mismatch_rejected():
    with pytest.raises(ParameterError):
        cumulate(cumulative([[1.0, 1.0], [1.0, nan]]))
    with pytest.raises(ParameterError):
        chain_ladder(incremental([[1.0, 1.0], [1.0, nan]]))


# --- chain ladder ----------------------------------------------------------------


def test_two_by_two_fixture():
    # f = 1.5, completed cell 180, reserve 60
    result = chain_ladder(cumulative([[100.0, 150.0], [120.0, nan]]))
    assert result.development_factors[0] == pytest.approx(1.5)
    assert result.completed[1, 1] == pytest.approx(180.0)
    assert result.reserve_per_row[1] == pytest.approx(60.0)
    assert result.total_reserve_estimate == pytest.approx(60.0)


def test_fully_developed_row_has_zero_reserve():
    result = chain_ladder(cumulative([[100.0, 150.0], [120.0, nan]]))
    assert result.reserve_per_row[0] == 0.0


def test_single_row_rejected():
    with pytest.raises(EstimationError, match="2 rows"):
        chain_ladder(cumulative([[100.0]]))


def test_zero_volume_column_names_the_column():
    with pytest.raises(EstimationError, match="column 0"):
        chain_ladder(cumulative([[0.0, 0.0, 0.0], [0.0, 0.0, nan], [0.0, nan, nan]]))


def test_fully_unknown_row_names_the_row():
    with pytest.raises(EstimationError, match="row 2: it has no known cumulative value"):
        chain_ladder(cumulative([[50.0, 80.0, 90.0], [nan, nan, nan], [55.0, 85.0, nan]]))


def test_completed_triangle_agrees_on_known_region():
    vals = np.array([[50.0, 80.0, 90.0], [60.0, 95.0, nan], [55.0, nan, nan]])
    result = chain_ladder(cumulative(vals))
    known = ~np.isnan(vals)
    assert np.array_equal(result.completed[known], vals[known])
    assert np.all(result.development_factors >= 0)


def test_chain_ladder_exact_on_multiplicative_triangles():
    # rows proportional to one development pattern: CL reproduces the
    # completed values to round-off
    rng = np.random.default_rng(32)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        volumes = rng.uniform(10, 200, n)
        pattern = np.cumsum(rng.uniform(0.1, 1.0, n))
        full = volumes[:, None] * pattern[None, :]
        vals = full.copy()
        r, c = np.indices(vals.shape)
        vals[r + c > n - 1] = nan
        result = chain_ladder(cumulative(vals))
        assert np.allclose(result.completed, full, rtol=1e-10)
        expected_total = sum(full[m, -1] - full[m, n - 1 - m] for m in range(n))
        assert result.total_reserve_estimate == pytest.approx(expected_total, rel=1e-10)


def test_stack_notes_the_error_of_its_failing_member():
    good = [[100.0, 150.0], [120.0, nan]]
    zero = [[0.0, 5.0], [0.0, nan]]
    note = "cannot estimate development factor for column 0: zero cumulative volume"
    with pytest.raises(EstimationError, match=f"^{note}$"):
        chain_ladder(cumulative(zero))
    result = chain_ladder(cumulative([good, zero], horizon=2))
    assert result.failures == ("", note)
    assert result.total_reserve_estimate[0] == chain_ladder(cumulative(good)).total_reserve_estimate == 60.0
    assert math.isnan(result.total_reserve_estimate[1])


def test_stack_members_must_share_one_known_region():
    stack = [[[100.0, 150.0], [120.0, nan]], [[100.0, nan], [120.0, nan]]]
    with pytest.raises(ParameterError, match="share one known region"):
        chain_ladder(cumulative(stack, horizon=2))


def test_stack_without_columns_is_a_parameter_error():
    # a triangle without columns raises its note; a stack of them has no fit to return
    with pytest.raises(EstimationError, match="cannot complete row 1"):
        chain_ladder(cumulative(np.empty((2, 0)), horizon=2))
    with pytest.raises(ParameterError, match="at least one column"):
        chain_ladder(cumulative(np.empty((3, 2, 0)), horizon=2))


def test_stack_fit_carries_the_world_axis():
    stack = cumulative([[[100.0, 150.0], [120.0, nan]], [[10.0, 30.0], [20.0, nan]]], horizon=2)
    result = chain_ladder(stack)
    assert result.development_factors.shape == (2, 1)
    assert result.completed.shape == (2, 2, 2)
    assert result.reserve_per_row.shape == (2, 2)
    assert result.total_reserve_estimate.tolist() == [60.0, 40.0]


# --- 2D vs 3D comparison -----------------------------------------------------------


def poisson_only_params():
    # lag 0 only, no closures, certain yearly payment of a fixed amount, and
    # run-off that ends inside the triangle: the only randomness is Poisson
    return validate_params(
        ModelParams(
            occurrence_years=4,
            max_lag=1,
            max_runoff=3,
            expected_counts=400.0,
            lag_probs=[1.0],
            survival=[1.0, 1.0, 1.0, 1.0],
            pay_prob=1.0,
            severity_mean=5.0,
            severity_var=0.0,
        )
    )


def test_degenerate_model_makes_chain_ladder_exact_per_replicate():
    params = poisson_only_params()
    comparison = compare_2d_3d(params, replicates=30, master_seed=41)
    for name in ("chain_ladder_occurrence", "chain_ladder_reporting"):
        truths = comparison.truths[comparison.summary[name].target]
        assert comparison.estimates[name].tolist() == pytest.approx(truths.tolist(), rel=1e-9)
        assert comparison.summary[name].replicates_failed == 0
        assert abs(comparison.summary[name].bias) < 1e-6


def test_empty_world_comparison_is_exact(make_params):
    params = make_params(expected_counts=0.0)
    comparison = compare_2d_3d(params, replicates=5, master_seed=42)
    # chain ladder cannot run on all-zero triangles; failures are recorded,
    # never raised, and the analytic estimator is exactly right
    summary = comparison.summary
    assert summary["analytic_3d_mean"].bias == 0.0
    assert summary["chain_ladder_occurrence"].replicates_failed == 5
    for name, estimates in comparison.estimates.items():
        assert all(note for estimate, note in zip(estimates, comparison.notes[name]) if math.isnan(estimate))


def test_one_occurrence_year_fails_every_chain_ladder_fit(make_params):
    comparison = compare_2d_3d(make_params(occurrence_years=1), replicates=5, master_seed=45)
    for name in ("chain_ladder_occurrence", "chain_ladder_reporting"):
        estimates, notes = comparison.estimates[name], comparison.notes[name]
        assert len(estimates) == len(notes) == 5
        assert np.isnan(estimates).all()
        assert set(notes) == {"chain ladder needs at least 2 rows, got 1"}
        assert comparison.summary[name].replicates_failed == 5


def test_one_row_per_estimator_per_replicate(make_params):
    params = make_params(occurrence_years=4, expected_counts=60.0)
    reps = 8
    comparison = compare_2d_3d(params, replicates=reps, master_seed=43)
    assert set(comparison.estimates) == set(comparison.notes) == set(comparison.summary)
    assert set(comparison.truths) == {summary.target for summary in comparison.summary.values()}
    columns = [*comparison.truths.values(), *comparison.estimates.values()]
    assert all(column.dtype == np.float64 and column.shape == (reps,) for column in columns)
    assert all(len(notes) == reps for notes in comparison.notes.values())
    assert not any(column.flags.writeable for column in columns)
    for name, summary in comparison.summary.items():
        assert summary.replicates_ok + summary.replicates_failed == reps


def test_stationary_portfolio_comparison_is_sane():
    # stationary portfolio: finite estimates; the reporting-triangle CL is
    # scored against the reported reserve and stays in its neighbourhood
    # (no sharper numeric target asserted)
    params = validate_params(
        ModelParams(
            occurrence_years=6,
            max_lag=3,
            max_runoff=2,
            expected_counts=500.0,
            lag_probs=[0.5, 0.3, 0.2],
            survival=[1.0, 0.5, 0.25],
            pay_prob=[0.6, 0.5, 0.4],
            severity_mean=10.0,
            severity_var=40.0,
        )
    )
    reps = 150
    comparison = compare_2d_3d(params, replicates=reps, master_seed=44)
    truths = comparison.truths["reported_reserve"]
    errors = comparison.estimates["chain_ladder_reporting"] - truths
    assert comparison.summary["chain_ladder_reporting"].replicates_failed == 0
    for summary in comparison.summary.values():
        assert math.isfinite(summary.bias) and math.isfinite(summary.rmse)
    se = errors.std(ddof=1) / math.sqrt(reps)
    bias = comparison.summary["chain_ladder_reporting"].bias
    assert abs(bias) < max(0.1 * truths.mean(), 4 * se)


def lone_scores(params, master_seed, r):
    """Replicate ``r``'s world drawn alone and fitted alone, as a
    ``(truths, estimates)`` pair; an estimate is an ``(estimate, note)`` pair."""
    path = replicate_path(params, master_seed, r)
    breakdown = reserve_breakdown(path)
    truths = {"total_reserve": breakdown.total_reserve, "reported_reserve": breakdown.reported_reserve}
    estimates = {}
    for name, project in (
        ("chain_ladder_occurrence", triangle_occurrence),
        ("chain_ladder_reporting", triangle_reporting),
    ):
        try:
            estimates[name] = (chain_ladder(cumulate(project(path))).total_reserve_estimate, "")
        except EstimationError as exc:
            estimates[name] = (math.nan, str(exc))
    return truths, estimates


def per_world_scores(params, replicates, master_seed):
    """The per-world scoring loop that block scoring replaced."""
    return [lone_scores(params, master_seed, r) for r in range(replicates)]


def test_mixed_failures_in_a_block_match_the_per_world_loop():
    # a sparse default portfolio: Chain-Ladder fails on some worlds of most
    # blocks, each at its own column, and succeeds on the rest
    params = validate_params(dataclasses.replace(default_params(), expected_counts=4.0))
    size, replicates = block_replicates(params), 30
    comparison = compare_2d_3d(params, replicates, master_seed=46)
    expected = per_world_scores(params, replicates, master_seed=46)

    for name in ("chain_ladder_occurrence", "chain_ladder_reporting"):
        target = comparison.summary[name].target
        estimates, notes, truths = comparison.estimates[name], comparison.notes[name], comparison.truths[target]
        assert len(estimates) == len(notes) == len(truths) == replicates
        failed = [bool(note) for note in notes]
        mixed = [0 < sum(failed[b : b + size]) < len(failed[b : b + size]) for b in range(0, replicates, size)]
        assert any(mixed)
        for estimate, note, truth, (expected_truths, expected_estimates) in zip(estimates, notes, truths, expected):
            expected_estimate, expected_note = expected_estimates[name]
            assert estimate.tobytes() == np.float64(expected_estimate).tobytes()
            assert note == expected_note
            assert truth == expected_truths[target]
        assert comparison.summary[name].replicates_failed == sum(failed)
        assert sum(failed) == sum(bool(scores[name][1]) for _, scores in expected)


def fitted_stack_worlds(monkeypatch):
    """The worlds of each stack that ``compare_2d_3d`` fits, in call order."""
    worlds, fit = [], claimcube.chainladder.chain_ladder

    def recording(tri):
        worlds.append(len(tri.values))
        return fit(tri)

    monkeypatch.setattr(claimcube.chainladder, "chain_ladder", recording)
    return worlds


@pytest.mark.parametrize("world", ["default", "sparse"])
def test_replicates_at_unit_boundaries_score_as_their_lone_fits(monkeypatch, world):
    # "sparse" is the sparse edge world of the CLI tests: Chain-Ladder fails
    # on many of its worlds, so units mix fitted and failed worlds.
    params = default_params()
    if world == "sparse":
        params = validate_params(dataclasses.replace(params, expected_counts=4.0))
    size, replicates, seed = block_replicates(params), 113, 47  # the last block holds 2 worlds
    monkeypatch.setattr(claimcube.engine.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    worlds = fitted_stack_worlds(monkeypatch)
    comparison = compare_2d_3d(params, replicates, seed)

    # One fit per orientation and unit; a unit is a run of several blocks.
    units = worlds[::2]
    assert worlds[1::2] == units and sum(units) == replicates
    assert len(units) > 2 and units[0] > size
    ends = np.cumsum(units)
    sides = sorted({0, replicates - 1, *ends[:-1] - 1, *ends[:-1]})
    for r in sides:
        truths, estimates = lone_scores(params, seed, r)
        for name, (estimate, note) in estimates.items():
            assert comparison.estimates[name][r].tobytes() == np.float64(estimate).tobytes()
            assert comparison.notes[name][r] == note
        for target, truth in truths.items():
            assert comparison.truths[target][r] == truth
    if world == "sparse":
        failed = [bool(note) for note in comparison.notes["chain_ladder_occurrence"]]
        assert all(0 < sum(failed[a:b]) < b - a for a, b in zip([0, *ends[:-1]], ends))

    # Threads get units of fewer blocks; the columns stay the same.
    for workers in (2, 4):
        worlds.clear()
        threaded = compare_2d_3d(params, replicates, seed, workers=workers)
        assert len(worlds) > 2 * len(units)
        for columns in ("truths", "estimates"):
            for key, column in getattr(comparison, columns).items():
                assert getattr(threaded, columns)[key].tobytes() == column.tobytes()
        assert threaded.notes == comparison.notes and threaded.summary == comparison.summary
