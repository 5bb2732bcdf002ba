import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import claimcube.engine
from claimcube import (
    EmpiricalDistribution,
    ModelParams,
    ParameterError,
    RandomStream,
    analytic_reserve_moments,
    block_replicates,
    build_risk_report,
    chain_ladder,
    compare_2d_3d,
    cumulate,
    default_params,
    expected_shortfall,
    replicate_path,
    reserve_breakdown,
    run_monte_carlo,
    simulate_path,
    total_known_payments,
    triangle_occurrence,
    value_at_risk,
)
from claimcube.aggregate import _world_statistics
from claimcube.engine import SUPPORTED_STATISTICS


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
    with pytest.raises(ValueError, match="^expected_shortfall of an empty distribution$"):
        expected_shortfall(empty, 0.5)
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


def test_summary_std_is_numpys_and_finite_where_the_squares_overflow():
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 1e6, 1e150):
        d = dist(scale * rng.gamma(0.5, 2.0, size=300))
        assert build_risk_report(d, ()).std_dev == float(d.samples.std(ddof=1))
    # deviations near 1e153: their squares overflow, and numpy's std is inf
    d = dist(1e153 * rng.gamma(0.5, 2.0, size=300))
    expected = 1e153 * float((d.samples / 1e153).std(ddof=1))
    assert build_risk_report(d, ()).std_dev == pytest.approx(expected, rel=1e-12)


def test_a_risk_report_checks_its_levels_once(monkeypatch):
    calls = []
    run_errors = claimcube.engine.run_errors
    monkeypatch.setattr(claimcube.engine, "run_errors", lambda **kw: calls.append(kw) or run_errors(**kw))
    levels = (0.5, 0.75, 0.9, 0.95)
    d = dist([4.0, 1.0, 3.0, 2.0])
    report = build_risk_report(d, levels)
    assert calls == [{"quantile_levels": levels}]
    assert report.value_at_risk == {a: value_at_risk(d, a) for a in levels}
    assert report.expected_shortfall == {a: expected_shortfall(d, a) for a in levels}


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


@pytest.mark.parametrize("workers", [0, -3, 2.5, "2", True])
def test_workers_below_one_rejected(make_params, workers):
    with pytest.raises(ParameterError, match="workers"):
        run_monte_carlo(make_params(), 2, 1, workers=workers)


@pytest.mark.parametrize("replicates", [0, -1, 2.5, "2"])
def test_bad_replicate_count_rejected(make_params, replicates):
    with pytest.raises(ParameterError, match="replicates"):
        run_monte_carlo(make_params(), replicates, 1)


@pytest.mark.parametrize("replicate", [-1, 2.5, None])
def test_bad_replicate_index_rejected(make_params, replicate):
    with pytest.raises(ParameterError, match="replicate must"):
        replicate_path(make_params(), 1, replicate)


@pytest.mark.parametrize("size", [0, -1, 2.5, False])
def test_bad_block_size_rejected(make_params, size):
    with pytest.raises(ParameterError, match="size"):
        simulate_path(RandomStream(1, 0), make_params(), size=size)


def pretend_cpus(monkeypatch, cpus):
    """Let the engine see ``cpus`` CPUs it may run on, whatever the host has."""
    monkeypatch.setattr(claimcube.engine.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def drawing_threads(params, replicates, workers):
    """The threads that drew the blocks of a run, and the most threads alive while it drew.

    A block drawn off the calling thread is held 20 ms, so the calling
    thread takes a block of its own wherever it draws.
    """
    caller, drawers, alive = threading.get_ident(), set(), []

    def per_unit(first, blocks):
        (block,) = blocks  # units of one block
        drawers.add(threading.get_ident())
        alive.append(threading.active_count())
        if threading.get_ident() != caller:
            time.sleep(0.02)
        return [first] * block.claims.counts.shape[0]

    blocks = claimcube.engine._replicate_loop(params, replicates, 9, per_unit, workers=workers)
    size = block_replicates(params)
    assert [first for block in blocks for first in block] == [r - r % size for r in range(replicates)]
    return drawers, max(alive)


def test_drawing_threads_are_bounded_by_blocks_and_cpus(monkeypatch):
    params = default_params()
    caller, before = threading.get_ident(), threading.active_count()

    def check(replicates, workers, threads):
        # At most `threads` draw, the caller among them, on `threads - 1` pool threads.
        drawers, alive = drawing_threads(params, replicates, workers)
        assert caller in drawers and len(drawers) <= threads and alive <= before + threads - 1

    def on_caller_alone(replicates, workers):
        assert drawing_threads(params, replicates, workers) == ({caller}, before)

    nine_blocks = 8 * block_replicates(params) + 1  # the last block of one world
    # The CPUs the process may run on cap the threads, not the machine's count.
    monkeypatch.setattr(claimcube.engine.os, "cpu_count", lambda: 64)
    pretend_cpus(monkeypatch, 8)
    check(nine_blocks, 10**6, 8)
    check(nine_blocks, 3, 3)
    check(2 * block_replicates(params), 10**6, 2)  # two blocks
    on_caller_alone(nine_blocks, 1)
    pretend_cpus(monkeypatch, 2)
    check(nine_blocks, 10**6, 2)
    pretend_cpus(monkeypatch, 1)
    on_caller_alone(nine_blocks, 10**6)
    # Where the OS keeps no affinity mask, the machine's count caps the threads.
    monkeypatch.delattr(claimcube.engine.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(claimcube.engine.os, "cpu_count", lambda: 2)
    check(nine_blocks, 10**6, 2)
    monkeypatch.setattr(claimcube.engine.os, "cpu_count", lambda: None)
    on_caller_alone(nine_blocks, 10**6)
    # A single block is drawn on one pool thread while the caller waits.
    pretend_cpus(monkeypatch, 8)
    drawers, alive = drawing_threads(params, block_replicates(params), 2)
    assert len(drawers) == 1 and caller not in drawers and alive == before + 1
    assert threading.active_count() == before


def units_handed_out(params, replicates, unit_blocks, workers):
    """Each unit's first replicate and the worlds of each of its blocks."""
    def per_unit(first, blocks):
        return first, [len(block.payments.payments) for block in blocks]

    return claimcube.engine._replicate_loop(params, replicates, 3, per_unit, workers=workers, unit_blocks=unit_blocks)


def test_units_are_runs_of_consecutive_blocks(monkeypatch):
    params = default_params()
    assert block_replicates(params) == 3
    pretend_cpus(monkeypatch, 2)
    # One drawing thread: units of unit_blocks blocks, the last holding the
    # rest, down to the short block of one world.
    assert units_handed_out(params, 31, 4, 1) == [(0, [3] * 4), (12, [3] * 4), (24, [3, 3, 1])]
    # Two drawing threads get at least 4 units each: 11 blocks make units of
    # one block, and 24 blocks units of at most 3.
    assert claimcube.engine._UNITS_PER_THREAD == 4
    assert units_handed_out(params, 31, 4, 2) == [(3 * b, [3 if b < 10 else 1]) for b in range(11)]
    assert units_handed_out(params, 3 * 24, 4, 2) == [(9 * u, [3] * 3) for u in range(8)]
    assert units_handed_out(params, 3 * 24, 2, 2) == [(6 * u, [3] * 2) for u in range(12)]


@pytest.mark.parametrize("failing", ["calling thread", "pool thread"])
def test_a_failing_block_stops_the_other_threads(monkeypatch, failing):
    # The failing thread fails once the other holds a block, and the other
    # holds that block until the failure: both hold one when it comes.
    pretend_cpus(monkeypatch, 2)
    params = default_params()
    caller, before = threading.get_ident(), threading.active_count()
    reduced, held, failed = [], threading.Event(), threading.Event()

    def per_unit(first, blocks):
        (block,) = blocks  # units of one block
        reduced.append(first)
        if (threading.get_ident() == caller) == (failing == "calling thread"):
            assert held.wait(timeout=60)
            failed.set()
            raise RuntimeError(f"block at replicate {first} failed")
        held.set()
        assert failed.wait(timeout=60)
        return [first] * block.claims.counts.shape[0]

    with pytest.raises(RuntimeError, match="failed"):
        claimcube.engine._replicate_loop(params, 40 * block_replicates(params), 4, per_unit, workers=2)
    assert 2 <= len(reduced) <= 3  # of 40 blocks: the two held, at most one taken before the stop
    assert threading.active_count() == before


@pytest.mark.parametrize("workers, cpus", [(1, 8), (4, 1)])
def test_a_failing_unit_stops_a_one_thread_sweep(monkeypatch, workers, cpus):
    # One worker, or one CPU, draws on the calling thread alone, through the
    # same loop as the threads: the unit that raises is the last one reduced.
    pretend_cpus(monkeypatch, cpus)
    params = default_params()
    caller, before = threading.get_ident(), threading.active_count()
    reduced = []

    def per_unit(first, blocks):
        (block,) = blocks  # units of one block
        assert threading.get_ident() == caller and threading.active_count() == before
        reduced.append(first)
        if len(reduced) == 4:
            raise RuntimeError(f"block at replicate {first} failed")
        return [first] * block.claims.counts.shape[0]

    size = block_replicates(params)
    with pytest.raises(RuntimeError, match=f"replicate {3 * size} failed"):
        claimcube.engine._replicate_loop(params, 10 * size, 4, per_unit, workers=workers)
    assert reduced == [0, size, 2 * size, 3 * size]
    assert threading.active_count() == before


def test_unknown_statistic_rejected(make_params):
    for statistics, message in (
        (("nope",), "statistics: unknown statistic 'nope'"),
        ((), "statistics must be a non-empty list"),  # a config with an empty list is rejected too
        ("total_reserve", "statistics must be a non-empty list"),  # not read as the names 't', 'o', ...
    ):
        with pytest.raises(ParameterError, match=message):
            run_monte_carlo(make_params(), 2, 1, statistics=statistics)


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


# --- replicate blocks -------------------------------------------------------------


def world_arrays(path):
    return path.claims.counts, path.claims.pay_counts, path.payments.payments


def per_replicate(params, replicates, seed, fn, unit_blocks=1):
    """``fn`` of every world the engine draws, in replicate order."""
    def per_unit(_, blocks):
        return [fn(claimcube.engine._world(block, b)) for block in blocks for b in range(len(block.payments.payments))]

    units = claimcube.engine._replicate_loop(params, replicates, seed, per_unit, unit_blocks=unit_blocks)
    return [world for unit in units for world in unit]


def block_sizes(params):
    size = block_replicates(params)
    return (1, size - 1, size, size + 1, 3 * size + 1)


@pytest.mark.parametrize("unit_blocks", [1, 2])
@pytest.mark.parametrize("params", ["default", "small"])
def test_engine_worlds_are_replicate_paths(params, unit_blocks, make_params):
    params = default_params() if params == "default" else make_params(occurrence_years=700)
    assert block_replicates(params) == (3 if params.occurrence_years == 15 else 7)
    for replicates in block_sizes(params):
        worlds = per_replicate(params, replicates, 31, world_arrays, unit_blocks)
        assert len(worlds) == replicates
        for r, engine_world in enumerate(worlds):
            for a, b in zip(engine_world, world_arrays(replicate_path(params, 31, r))):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_short_block_is_the_head_of_the_full_block():
    params = default_params()
    full = world_arrays(simulate_path(RandomStream(5, 2), params, size=7))
    for size in (1, 3):
        head = world_arrays(simulate_path(RandomStream(5, 2), params, size=size))
        assert all(np.array_equal(h, f[:size]) for h, f in zip(head, full))
    single = world_arrays(simulate_path(RandomStream(5, 2), params))
    assert all(np.array_equal(s, f[0]) for s, f in zip(single, full))


def reference_row(path):
    b = reserve_breakdown(path)
    return [
        float(b.ibnr_count),
        b.ibnr_reserve,
        total_known_payments(path),
        b.reported_reserve,
        b.total_reserve,
    ]


@pytest.mark.parametrize("params", ["default", "make_params"])
def test_block_statistics_equal_the_per_world_projections_bit_for_bit(params, make_params):
    params = default_params() if params == "default" else make_params(occurrence_years=5, expected_counts=80.0)
    names = SUPPORTED_STATISTICS
    assert names == ("ibnr_count", "ibnr_reserve", "known_payments", "reported_reserve", "total_reserve")
    replicates = 3 * block_replicates(params) + 1 if block_replicates(params) < 10 else 25
    def block_rows(_, blocks):
        (block,) = blocks  # units of one block
        stats = _world_statistics(block, names)
        return list(zip(*(stats[name] for name in names)))

    blocks = claimcube.engine._replicate_loop(params, replicates, 17, block_rows)
    rows = [row for block in blocks for row in block]
    expected = [reference_row(replicate_path(params, 17, r)) for r in range(replicates)]
    assert np.array(rows).tobytes() == np.array(expected).tobytes()

    dists = run_monte_carlo(params, replicates, 17, names)
    for c, name in enumerate(names):
        assert dists[name].samples.tobytes() == np.sort(np.array(expected)[:, c]).tobytes()

    comparison = compare_2d_3d(params, replicates, 17)
    for r in range(replicates):
        world = replicate_path(params, 17, r)
        breakdown = reserve_breakdown(world)
        for target, truths in comparison.truths.items():
            assert truths[r] == getattr(breakdown, target)
        fit = chain_ladder(cumulate(triangle_occurrence(world)))
        assert comparison.estimates["chain_ladder_occurrence"][r] == fit.total_reserve_estimate


def test_retained_replicate_inside_a_block_splits_its_own_totals():
    params = default_params()
    r = block_replicates(params) + 2  # the third world of block 1
    plain = replicate_path(params, 8, r)
    retained = replicate_path(params, 8, r, retain_severities=True)
    assert retained.payments.payments.tobytes() == plain.payments.payments.tobytes()
    totals = plain.payments.payments.sum(axis=0)
    for (j, k), amounts in retained.severities.items():
        assert amounts.size == plain.claims.pay_counts[:, j, k].sum()
        assert math.fsum(amounts) == pytest.approx(totals[j, k], rel=1e-12)


def test_worlds_handed_out_of_a_block_own_frozen_arrays():
    params = default_params()
    r = block_replicates(params) + 2  # the third world of block 1
    run = run_monte_carlo(params, r + 1, 8)
    retained = replicate_path(params, 8, r, retain_severities=True)
    for world in (replicate_path(params, 8, r), retained, run.first_world):
        for arr in world_arrays(world):
            assert arr.flags.owndata and not arr.flags.writeable
    # The retained amounts replay over copies of the world's own arrays, not views of its block.
    for arr, own in zip((retained.severities._pay_counts, retained.severities._payments), world_arrays(retained)[1:]):
        assert arr.flags.owndata and not arr.flags.writeable and arr.tobytes() == own.tobytes()


def test_retained_replicates_replay_from_distinct_severity_states():
    params = default_params()
    size = block_replicates(params)
    states = [replicate_path(params, 8, r, retain_severities=True).severities.state for r in range(2 * size)]
    assert all(a != b for n, a in enumerate(states) for b in states[:n])
    assert states[0] == RandomStream(8, 0).severity_state()  # replicate 0 replays as it always did


def test_replicate_is_checked_against_the_last_block_of_the_seed():
    params = default_params()
    last = block_replicates(params) * 2**64 - 1
    assert replicate_path(params, 8, last).claims.counts.shape == params.dims
    with pytest.raises(ParameterError, match=re.escape(f"replicate must be an integer in 0 .. {last}, got {last + 1}")):
        replicate_path(params, 8, last + 1)


def test_threaded_blocks_under_fast_switching_equal_the_serial_run(monkeypatch):
    # More threads than cores, switching every microsecond: a lost, repeated
    # or misplaced block would change the per-replicate rows or replicate 0's world.
    params = default_params()
    replicates = 8 * block_replicates(params) + 1  # nine blocks
    names = SUPPORTED_STATISTICS

    def block_rows(_, blocks):
        (block,) = blocks  # units of one block
        stats = _world_statistics(block, names)
        return list(zip(*(stats[name] for name in names)))

    def run(workers):
        rows = claimcube.engine._replicate_loop(params, replicates, 23, block_rows, workers=workers)
        distributions = run_monte_carlo(params, replicates, 23, names, workers=workers)
        first = [a.tobytes() for a in world_arrays(distributions.first_world)]
        return rows, [distributions[n].samples.tobytes() for n in names], first

    serial = run(1)
    pretend_cpus(monkeypatch, 8)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.extend(run(8) for _ in range(5)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert results == [serial] * 5


@pytest.mark.parametrize("workers", [1, 2])
def test_run_holds_the_world_of_replicate_zero(workers, monkeypatch):
    pretend_cpus(monkeypatch, 2)
    params = default_params()
    run = run_monte_carlo(params, 2 * block_replicates(params) + 1, 12, workers=workers)
    for a, b in zip(world_arrays(run.first_world), world_arrays(replicate_path(params, 12, 0))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- results by block -------------------------------------------------------------


def small_world(make_params):
    """The 3x2x3 world at 2 expected claims a year: 1820 worlds a block, few cells each."""
    params = make_params(expected_counts=2.0)
    assert block_replicates(params) == 1820
    return params


@pytest.mark.parametrize(
    "sweep, replicates, bound",
    [(run_monte_carlo, 50_000, 100), (compare_2d_3d, 20_000, 400)],
    ids=["run_monte_carlo", "compare_2d_3d"],
)
def test_sweep_memory_per_replicate_is_bounded(make_params, sweep, replicates, bound):
    # Four statistics hold 32 B a replicate in the blocks and 32 B in the
    # distributions.  Compare's five float columns and three note references
    # hold 64 B a replicate, twice over while the blocks are joined; one
    # Python object per replicate and column on the way would break the bound.
    params = small_world(make_params)
    sweep(params, 1, 3)  # fills the per-shape caches
    tracemalloc.start()
    try:
        sweep(params, replicates, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / replicates < bound


@pytest.mark.parametrize(
    "sweep, bound", [(run_monte_carlo, 68), (compare_2d_3d, 64)], ids=["run_monte_carlo", "compare_2d_3d"]
)
def test_sweep_memory_per_cell_is_bounded(sweep, bound):
    # A world of 2**20 cells in which every cell pays is a block of its own.
    # The block's three 8-byte tensors, the statistics' temporaries and, in
    # run_monte_carlo, the copy of replicate 0's world peak at 60 B per cell
    # (51 in compare_2d_3d).  A per-cell gather of the paying cells' index,
    # shape and scale in the payment draw would take both to 80.
    n_k = 2**18
    params = ModelParams(
        occurrence_years=2,
        max_lag=2,
        max_runoff=n_k - 1,
        expected_counts=1e5,
        lag_probs=[0.5, 0.5],
        survival=np.linspace(1.0, 0.05, n_k),
        pay_prob=0.5,
        severity_mean=10.0,
        severity_var=20.0,
    )
    cells = 4 * n_k
    assert block_replicates(params) == 1 and np.all(replicate_path(params, 3, 0).claims.pay_counts > 0)
    sweep(params, 1, 3)  # fills the per-shape caches
    tracemalloc.start()
    try:
        sweep(params, 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * cells, f"peak {peak / cells:.1f} B per cell"


def test_results_leave_the_arrays_as_python_numbers(make_params):
    # np.int64 and np.float64 compare equal to int and float, so only the
    # exact types show a numpy scalar leaking out of the block arrays.  A
    # block's breakdown keeps them: one 1-D array per field.
    params = small_world(make_params)
    world, block = replicate_path(params, 5, 0), simulate_path(RandomStream(5, 0), params, size=4)
    one, many = reserve_breakdown(world), reserve_breakdown(block)
    assert type(one.ibnr_count) is int
    assert {type(one.ibnr_reserve), type(one.reported_reserve), type(one.total_reserve)} == {float}
    for values in vars(many).values():
        assert type(values) is np.ndarray and values.shape == (4,)
    assert many.ibnr_count.dtype == np.int64
    assert {many.ibnr_reserve.dtype, many.reported_reserve.dtype, many.total_reserve.dtype} == {np.dtype(np.float64)}
    assert type(total_known_payments(world)) is float
