"""Property tests over random small parameter sets (hypothesis)."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from claimcube import (
    ClaimTensor,
    EstimationError,
    ModelParams,
    ParameterError,
    PaymentTensor,
    RandomStream,
    SimulationPath,
    Triangle,
    analytic_reserve_moments,
    calibrated_params,
    chain_ladder,
    config_from_params,
    cumulate,
    default_config,
    estimate_severity,
    param_errors,
    parse_config,
    reserve_breakdown,
    simulate_counts,
    simulate_path,
    total_known_payments,
    triangle_occurrence,
    triangle_reporting,
    validate_params,
)
from claimcube.aggregate import _per_claim_tail_moments

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


# numpy sums up to 8 values in a plain loop, then 8 accumulators, and splits
# pairwise above 128: pool sizes on both sides of each boundary.
pool_size = st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 256, 257]) | st.integers(1000, 5000)


@settings(max_examples=200, deadline=None)
@given(
    pools=st.lists(st.tuples(pool_size, st.floats(0.0, 4.0), st.integers(-3, 6)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_severity_estimates_equal_ndarray_mean_and_var_bit_for_bit(pools, seed):
    params = validate_params(
        ModelParams(
            occurrence_years=1,
            max_lag=2,
            max_runoff=2,
            expected_counts=1.0,
            lag_probs=[0.5, 0.5],
            survival=[1.0, 0.5, 0.25],
            pay_prob=0.5,
            severity_mean=1.0,
            severity_var=1.0,
        )
    )
    rng = np.random.default_rng(seed)
    severities = {
        divmod(p, 3): rng.lognormal(0.0, sigma, size) * 10.0**exponent
        for p, (size, sigma, exponent) in enumerate(pools)
    }
    empty = np.zeros(params.dims, dtype=np.int64)
    path = SimulationPath(params, ClaimTensor(empty, empty), PaymentTensor(np.zeros(params.dims)), severities)
    mean, var = estimate_severity(path)
    for (j, k), amounts in severities.items():
        assert mean[j, k] == amounts.mean()
        if amounts.size > 1:
            assert var[j, k] == amounts.var(ddof=1)
        else:
            assert math.isnan(var[j, k])


def _subnormal_floor(params) -> float:
    """The absolute rounding that subnormal intermediates can carry.

    A product that falls below the normal range is rounded to within an ulp
    of zero, and may then be multiplied by the other factors of its term: a
    column's Lambda, and one claim's tail moments, which are at most
    B = sum_k b_k (b_k = p_k E[W_jk]) and sum_k p_k E[W_jk^2] + 2 B^2.  Each
    of the I*J*(K+1) cells carries a few such roundings; a relative
    tolerance alone cannot hold there.
    """
    lam = params.expected_counts.max() * params.lag_probs.max()
    b = (params.pay_prob * params.severity_mean).sum(axis=1).max()
    b2 = (params.pay_prob * (params.severity_var + params.severity_mean**2)).sum(axis=1).max()
    return 2 * math.prod(params.dims) * math.ulp(0.0) * (1 + lam) * (1 + b2 + 2 * b * (1 + b))


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=200, deadline=None)
@given(params=small_params())
@example(
    # The exactly rounded mean is 5e-324; a left-to-right float product of the
    # terms underflows to 0.
    params=ModelParams(
        occurrence_years=1,
        max_lag=1,
        max_runoff=1,
        expected_counts=[0.5],
        lag_probs=[1.0],
        survival=[1.0, 1.0],
        pay_prob=[0.0, 5e-324],
        severity_mean=[[1.0, 2.0]],
        severity_var=[[0.0, 0.0]],
    )
)
def test_analytic_reserve_means_equal_the_cell_by_cell_expectation(params):
    n_i, n_j, n_k = params.dims
    cells = {"ibnr_count": [], "ibnr_reserve": [], "reported_reserve": []}
    world = []
    for i in range(1, n_i + 1):
        for j in range(n_j):
            lam = Fraction(params.expected_counts[i - 1]) * Fraction(params.lag_probs[j])
            if i + j > n_i:
                cells["ibnr_count"].append(lam)
            for k in range(n_k):
                mean = lam * Fraction(params.survival[k]) * Fraction(params.pay_prob[k])
                mean *= Fraction(params.severity_mean[j, k])
                world.append(mean)
                if i + j > n_i:
                    cells["ibnr_reserve"].append(mean)
                elif i + j + k > n_i:
                    cells["reported_reserve"].append(mean)
    cells["total_reserve"] = cells["ibnr_reserve"] + cells["reported_reserve"]
    moments = analytic_reserve_moments(params)
    scale = float(sum(world) + sum(cells["ibnr_count"]))
    tol = max(1e-12 * scale, _subnormal_floor(params))
    for name, terms in cells.items():
        assert moments[name].mean == pytest.approx(float(sum(terms, Fraction(0))), rel=1e-12, abs=tol), name


def _exact_second_moment(params, j: int, years) -> Fraction:
    """E[Y^2] of the payments of one lag-j claim in the run-off ``years``
    (ascending), exactly: sum_k eta_k p_k E[W_jk^2] + 2 sum_{k<l} eta_l b_k b_l
    with b_k = p_k E[W_jk], as A_k A_l = A_l for k < l."""
    eta = {k: Fraction(params.survival[k]) for k in years}
    pay = {k: Fraction(params.pay_prob[k]) for k in years}
    mean = {k: Fraction(params.severity_mean[j, k]) for k in years}
    b = {k: pay[k] * mean[k] for k in years}
    square = sum(eta[k] * pay[k] * (Fraction(params.severity_var[j, k]) + mean[k] ** 2) for k in years)
    cross = sum(eta[l] * b[k] * b[l] for k in years for l in years if k < l)
    return Fraction(square) + 2 * cross


def _early_heavy(years: int, expected_counts) -> ModelParams:
    """Zero-variance severities of 1e6 for k < 3 and 1e-3 after, K = 10."""
    return validate_params(
        ModelParams(
            occurrence_years=years,
            max_lag=1,
            max_runoff=10,
            expected_counts=expected_counts,
            lag_probs=[1.0],
            survival=np.linspace(1.0, 0.5, 11),
            pay_prob=1.0,
            severity_mean=[np.where(np.arange(11) < 3, 1e6, 1e-3)],
            severity_var=0.0,
        )
    )


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=200, deadline=None)
@given(params=small_params())
@example(params=_early_heavy(1, [10.0]))
@example(params=_early_heavy(6, [10.0, 10.0, 10.0, 10.0, 0.0, 0.0]))
def test_analytic_variances_equal_the_exact_tail_second_moments(params):
    n_i, n_j, n_k = params.dims
    floor = _subnormal_floor(params)
    _, second = _per_claim_tail_moments(params)
    for j in range(n_j):
        for t in range(n_k + 1):
            exact = _exact_second_moment(params, j, range(t, n_k))
            assert second[j, t] == pytest.approx(float(exact), rel=1e-12, abs=floor), (j, t)

    variance = {"ibnr_reserve": Fraction(0), "reported_reserve": Fraction(0)}
    for i in range(1, n_i + 1):
        for j in range(n_j):
            lam = Fraction(params.expected_counts[i - 1]) * Fraction(params.lag_probs[j])
            future = [k for k in range(n_k) if i + j + k > n_i]
            name = "ibnr_reserve" if i + j > n_i else "reported_reserve"
            variance[name] += lam * _exact_second_moment(params, j, future)
    variance["total_reserve"] = variance["ibnr_reserve"] + variance["reported_reserve"]
    moments = analytic_reserve_moments(params)
    for name, exact in variance.items():
        assert moments[name].variance == pytest.approx(float(exact), rel=1e-12, abs=floor), name


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


# --- exact sums over sparse payment tensors -------------------------------------

#: Payment amounts: mostly +0.0, with magnitudes far enough apart that a
#: naive float sum rounds differently from an exactly rounded one.
odd_amount = st.sampled_from([0.0, 1.0, 3.0, 1e16, 2.0**-60])
amount = st.one_of(st.just(0.0), st.just(0.0), st.just(0.0), odd_amount, st.floats(0.0, 1e18))


@st.composite
def sparse_world(draw):
    """A hand-built path: payments mostly +0.0, with one all-zero (i, j, k) box."""
    n_i, n_j, n_k = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    z = draw(hnp.arrays(float, (n_i, n_j, n_k), elements=amount, fill=st.nothing()))
    lo = [draw(st.integers(0, n - 1)) for n in (n_i, n_j, n_k)]
    hi = [draw(st.integers(a, n)) for a, n in zip(lo, (n_i, n_j, n_k))]
    z[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = 0.0
    counts = draw(hnp.arrays(np.int64, (n_i, n_j, n_k), elements=st.integers(0, 50)))
    params = ModelParams(
        occurrence_years=n_i,
        max_lag=n_j,
        max_runoff=n_k - 1,
        expected_counts=1.0,
        lag_probs=np.full(n_j, 1.0 / n_j),
        survival=np.ones(n_k),
        pay_prob=1.0,
        severity_mean=1.0,
        severity_var=0.0,
    )
    return SimulationPath(params, ClaimTensor(counts=counts), PaymentTensor(payments=z))


def cells_where(path, keep):
    """Payments of the cells (1-based i, j, k) that ``keep`` selects, ascending (i, j, k)."""
    n_i, n_j, n_k = path.params.dims
    z = path.payments.payments
    return [
        float(z[i - 1, j, k])
        for i in range(1, n_i + 1)
        for j in range(n_j)
        for k in range(n_k)
        if keep(i, j, k, n_i)
    ]


@settings(max_examples=300, deadline=None)
@given(path=sparse_world())
def test_reserve_sums_are_exact_and_decompose(path):
    breakdown = reserve_breakdown(path)
    ibnr = math.fsum(cells_where(path, lambda i, j, k, n: i + j > n))
    reported = math.fsum(cells_where(path, lambda i, j, k, n: i + j <= n < i + j + k))
    n_i, n_j, _ = path.params.dims
    counts = path.claims.counts
    ibnr_count = sum(int(counts[i - 1, j, 0]) for i in range(1, n_i + 1) for j in range(n_j) if i + j > n_i)
    assert breakdown.ibnr_count == ibnr_count
    assert breakdown.ibnr_reserve == ibnr
    assert breakdown.reported_reserve == reported
    assert breakdown.total_reserve == ibnr + reported


@settings(max_examples=300, deadline=None)
@given(path=sparse_world())
def test_triangles_partition_the_known_payments_exactly(path):
    n_i, n_j, n_k = path.params.dims
    known = math.fsum(cells_where(path, lambda i, j, k, n: i + j + k <= n))
    assert total_known_payments(path) == known
    for tri, row_col in (
        (triangle_occurrence(path), lambda i, j, k: (i - 1, j + k)),
        (triangle_reporting(path), lambda i, j, k: (i + j - 1, k)),
    ):
        assert tri.known_total == known
        # each known triangle cell is the plain ascending (i, j, k) sum of its cells
        expected = np.full((n_i, n_i), math.nan)
        expected[np.add.outer(np.arange(n_i), np.arange(n_i)) <= n_i - 1] = 0.0
        for i in range(1, n_i + 1):
            for j in range(n_j):
                for k in range(n_k):
                    if i + j + k <= n_i:
                        expected[row_col(i, j, k)] += path.payments.payments[i - 1, j, k]
        assert tri.values.tobytes() == expected.tobytes()


@st.composite
def sparse_block(draw):
    """A block of 1 to 5 hand-built worlds on the parameter set of one ``sparse_world``."""
    first = draw(sparse_world())
    dims = first.params.dims
    more = draw(st.integers(0, 4))
    payments = [first.payments.payments]
    payments += [draw(hnp.arrays(float, dims, elements=amount, fill=st.nothing())) for _ in range(more)]
    counts = [first.claims.counts]
    counts += [draw(hnp.arrays(np.int64, dims, elements=st.integers(0, 50))) for _ in range(more)]
    return SimulationPath(
        first.params, ClaimTensor(counts=np.stack(counts)), PaymentTensor(payments=np.stack(payments))
    )


@settings(max_examples=200, deadline=None)
@given(block=sparse_block())
def test_block_projections_equal_each_world_bit_for_bit(block):
    breakdown = reserve_breakdown(block)
    stacks = [triangle_occurrence(block), triangle_reporting(block)]
    stacks += [cumulate(tri) for tri in stacks]
    for w in range(len(block.payments.payments)):
        world = SimulationPath(
            block.params,
            ClaimTensor(counts=block.claims.counts[w]),
            PaymentTensor(payments=block.payments.payments[w]),
        )
        assert {name: values[w] for name, values in vars(breakdown).items()} == vars(reserve_breakdown(world))
        singles = [triangle_occurrence(world), triangle_reporting(world)]
        singles += [cumulate(tri) for tri in singles]
        for stack, single in zip(stacks, singles):
            assert stack.values[w].tobytes() == single.values.tobytes()
            assert stack.known_total is None


# --- Chain-Ladder against the row-by-row algorithm --------------------------------


def row_loop_chain_ladder(cum):
    """Reference Chain-Ladder: boolean-masked factor sums and a per-cell fill loop."""
    n_rows, n_cols = cum.shape
    if n_rows < 2:
        raise EstimationError(f"chain ladder needs at least 2 rows, got {n_rows}")
    factors = np.ones(max(n_cols - 1, 0))
    for n in range(n_cols - 1):
        both = ~np.isnan(cum[:, n]) & ~np.isnan(cum[:, n + 1])
        denom = float(cum[both, n].sum()) if both.any() else 0.0
        if denom == 0.0:
            raise EstimationError(f"cannot estimate development factor for column {n}: zero cumulative volume")
        factors[n] = float(cum[both, n + 1].sum()) / denom
    completed = cum.copy()
    latest = np.zeros(n_rows, dtype=np.int64)
    for r in range(n_rows):
        known_cols = np.nonzero(~np.isnan(cum[r]))[0]
        if known_cols.size == 0:
            raise EstimationError(f"cannot complete row {r + 1}: it has no known cumulative value")
        latest[r] = known_cols[-1]
        for n in range(latest[r] + 1, n_cols):
            completed[r, n] = completed[r, n - 1] * factors[n - 1]
    reserve_per_row = completed[:, -1] - cum[np.arange(n_rows), latest]
    return factors, completed, reserve_per_row, float(reserve_per_row.sum())


@st.composite
def cumulative_triangle(draw):
    """Cumulative values with zero columns, a latest known column per row (-1 for
    a row with no known cell) and scattered unknown (NaN) cells before it."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    steps = draw(hnp.arrays(float, (n_rows, n_cols), elements=odd_amount | st.floats(0.0, 1e6), fill=st.nothing()))
    rare = st.sampled_from([False, False, False, True])
    steps[:, draw(hnp.arrays(bool, n_cols, elements=rare, fill=st.nothing()))] = 0.0
    cum = np.cumsum(steps, axis=1)
    holes = draw(hnp.arrays(bool, (n_rows, n_cols), elements=rare, fill=st.nothing()))
    cum[holes] = math.nan
    unknown_tail = st.lists(st.integers(0, n_cols), min_size=n_rows, max_size=n_rows)
    for row, tail in zip(cum, draw(unknown_tail)):
        last = n_cols - 1 - tail
        if last >= 0 and math.isnan(row[last]):
            row[last] = draw(st.floats(0.0, 1e6))
        row[last + 1 :] = math.nan
    return cum


def outcome(fit, cum):
    try:
        return fit(cum)
    except EstimationError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(cum=cumulative_triangle())
def test_chain_ladder_equals_the_row_loop_bit_for_bit(cum):
    def fit(values):
        result = chain_ladder(Triangle(values, "occurrence", "cumulative", values.shape[0]))
        return (
            result.development_factors,
            result.completed,
            result.reserve_per_row,
            result.total_reserve_estimate,
        )

    got, want = outcome(fit, cum), outcome(row_loop_chain_ladder, cum)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        for a, b in zip(got[:3], want[:3]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()


@st.composite
def incremental_stack(draw):
    """1 to 5 incremental triangles of 2 to 20 rows and up to one column more,
    with zero columns, sharing one pattern of unknown (NaN) cells: scattered
    holes and an unknown tail per row, which may cover the whole row.

    Cell values come from a generator seeded by the draw: uniform, or one of
    a few drawn amounts (zeros and far-apart magnitudes among them), so that
    a large stack costs hypothesis a handful of draws, not one per cell.
    """
    worlds, n_rows = draw(st.integers(1, 5)), draw(st.integers(2, 20))
    n_cols = draw(st.integers(1, n_rows + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (worlds, n_rows, n_cols)
    palette = draw(st.lists(odd_amount | st.floats(0.0, 1e6), min_size=1, max_size=6))
    steps = np.where(rng.random(shape) < 0.4, rng.choice(palette, shape), rng.uniform(0.0, 1e6, shape))
    zero_columns, holes = draw(st.sampled_from([0.0, 0.02, 0.2])), draw(st.sampled_from([0.0, 0.05, 0.25]))
    steps[rng.random((worlds, 1, n_cols)).repeat(n_rows, axis=1) < zero_columns] = 0.0
    unknown = rng.random((n_rows, n_cols)) < holes
    # unknown tails: the run-off staircase (row m known up to column n_rows - m) or random
    if draw(st.booleans()):
        tails = np.maximum(n_cols - n_rows + np.arange(n_rows), 0)
    else:
        tails = rng.integers(0, n_cols + draw(st.integers(0, 1)), n_rows)
    for row, tail in zip(unknown, tails):
        row[n_cols - tail :] = True
    steps[:, unknown] = math.nan
    return steps


@settings(max_examples=300, deadline=None)
@given(steps=incremental_stack())
def test_stacked_chain_ladder_equals_each_member_bit_for_bit(steps):
    def fit(tri):
        result = chain_ladder(tri)
        return (
            result.development_factors,
            result.completed,
            result.reserve_per_row,
            np.asarray(result.total_reserve_estimate),
        )

    stack = cumulate(Triangle(steps, "occurrence", "incremental", steps.shape[1]))
    members = [cumulate(Triangle(member, "occurrence", "incremental", steps.shape[1])) for member in steps]
    for w, member in enumerate(members):
        assert stack.values[w].tobytes() == member.values.tobytes()

    got, want = outcome(fit, stack), [outcome(fit, member) for member in members]
    failures = [fitted for fitted in want if isinstance(fitted, str)]
    if failures:
        # the error of the first column (or row) at which some member fails alone
        assert got in failures
    else:
        assert not isinstance(got, str), got
        for w, fitted in enumerate(want):
            for a, b in zip(got, fitted):
                assert a[w].shape == b.shape and a[w].tobytes() == b.tobytes()


# --- configuration fuzz --------------------------------------------------------

#: JSON values of every type.  Integers stay within 10**6 (an occurrence-year
#: count under the world cap may be built as an array) apart from a few huge
#: ones: past int64, past float range, and past numpy's array-size limit.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.sampled_from([2**31, -(2**63), 2**63, 2**64, 2**70, 10**400])
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def fuzzed_config(draw):
    """The default configuration with random JSON values in random model and run keys."""
    mapping = default_config()
    keys = [("model", key) for key in mapping["model"]]
    keys += [("run", key) for key in ("replicates", "master_seed", "statistics", "quantile_levels", "output_dir")]
    for section, key in keys:
        if draw(st.booleans()):
            mapping[section][key] = draw(json_values)
    if draw(st.booleans()):
        mapping["model"]["expected_counts"] = draw(
            st.fixed_dictionaries({"base": json_scalars, "growth": json_scalars})
            | st.fixed_dictionaries({"values": json_values})
        )
    return mapping


@settings(max_examples=1000, deadline=None)
@given(mapping=fuzzed_config())
def test_config_fuzz_raises_only_parameter_errors(mapping):
    try:
        cfg = parse_config(mapping)
    except ParameterError:
        return
    assert cfg.params.dims == (cfg.params.occurrence_years, cfg.params.max_lag, cfg.params.max_runoff + 1)


# --- export and calibration round trips ------------------------------------------


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=200, deadline=None)
@given(params=small_params())
def test_config_export_round_trips_every_model_field_bit_for_bit(params):
    exported = json.dumps(config_from_params(params, replicates=1, master_seed=0), indent=2, sort_keys=True)
    loaded = parse_config(json.loads(exported)).params
    for field in dataclasses.fields(ModelParams):
        original, parsed = getattr(params, field.name), getattr(loaded, field.name)
        if isinstance(original, np.ndarray):
            assert parsed.shape == original.shape and parsed.tobytes() == original.tobytes(), field.name
        else:
            assert type(parsed) is type(original) and parsed == original, field.name


@pytest.mark.filterwarnings("ignore:survival curve plateaus")
@settings(max_examples=200, deadline=None)
@given(params=small_params(), seed=st.integers(0, 2**32 - 1))
def test_calibrated_params_of_a_retained_world_validate(params, seed):
    world = simulate_path(RandomStream(seed, 0), params, retain_severities=True)
    try:
        estimated = calibrated_params(world, fallback=params)
    except EstimationError:
        assert world.claims.counts[:, :, 0].sum() == 0  # only a world without claims has no estimate
        return
    assert param_errors(estimated) == []
