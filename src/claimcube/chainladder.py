"""Volume-weighted Chain-Ladder on projected triangles, and the 2D/3D study.

The development factor for column n is the volume-weighted ratio

    f_n = sum_m C[m, n+1] / sum_m C[m, n]

over the rows where both cells are known.  Future cells are filled forward
by C[m, n+1] = C[m, n] * f_n and the row reserve is the completed ultimate
minus the latest known cumulative value.  Rows known only at column 0 take
the product of all remaining factors.  A triangle with fewer than 2 rows, a
zero-volume column or a row with no known value cannot be fitted, and is an
:class:`EstimationError` naming the first of these it meets.

When the expected triangle is multiplicative (every row proportional to one
development pattern, e.g. a stationary portfolio), the factor estimates are
exact ratios of the pattern and Chain-Ladder reproduces the analytic reserve
to round-off.

:func:`cumulate` and :func:`chain_ladder` also take a stack of triangles with
a leading world axis, the projection of a block of worlds, whose members
share one known region.  Every sum, product and quotient is then taken over
the stack at once, on contiguous last-axis rows, in the order a single
triangle uses, so each member's result is bit-identical to its fit alone; a
single triangle is the stack of one.  A stack raises for no member: one that
cannot be fitted gets a NaN total and, as its note, the error it raises alone.
:func:`compare_2d_3d` projects each block of replicates with one call per
orientation, and fits a unit of consecutive blocks with one :func:`cumulate`
and one :func:`chain_ladder` per orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import (
    Triangle,
    analytic_reserve_moments,
    reserve_breakdown,
    triangle_occurrence,
    triangle_reporting,
)
from .engine import BLOCK_CELLS, _replicate_loop, _root_mean_square, block_replicates
from .errors import EstimationError, ParameterError
from .model import ModelParams

__all__ = [
    "ChainLadderResult",
    "Comparison",
    "EstimatorSummary",
    "chain_ladder",
    "compare_2d_3d",
    "cumulate",
]


def cumulate(tri: Triangle) -> Triangle:
    """Prefix-sum an incremental triangle (or stack) along development; NaNs stay NaN."""
    if tri.form != "incremental":
        raise ParameterError(f"cumulate expects an incremental triangle, got {tri.form!r}")
    vals = tri.values
    cum = np.where(np.isnan(vals), np.nan, np.nancumsum(vals, axis=-1))
    return Triangle(cum, tri.orientation, "cumulative", tri.horizon, tri.known_total)


@dataclass(eq=False)
class ChainLadderResult:
    """Factors, completed triangle and reserve estimates of one CL run.

    The fit of a stack carries the stack's leading world axis on every
    field; ``total_reserve_estimate`` is then an array of one total per world.
    """

    development_factors: np.ndarray  # factor [n] maps cumulative column n to n+1
    completed: np.ndarray
    reserve_per_row: np.ndarray
    total_reserve_estimate: float | np.ndarray
    failures: tuple[str, ...]  # [w] = the error world w's fit alone raises (its total is NaN), or ""


def chain_ladder(tri: Triangle) -> ChainLadderResult:
    """Estimate development factors and complete a cumulative triangle, or
    each member of a stack of them.

    A triangle that cannot be fitted raises an :class:`EstimationError`; a
    stack notes each member's error in ``failures`` instead.  The members of
    a stack must share one known region of at least one column.
    """
    if tri.form != "cumulative":
        raise ParameterError(f"chain_ladder expects a cumulative triangle, got {tri.form!r}")
    single = tri.values.ndim == 2
    cum = tri.values[None] if single else tri.values
    _, n_rows, n_cols = cum.shape
    unknown = np.isnan(cum)
    known = ~unknown[0]
    if (unknown != unknown[0]).any():
        raise ParameterError("chain_ladder expects the triangles of a stack to share one known region")
    failures = [f"chain ladder needs at least 2 rows, got {n_rows}" if n_rows < 2 else ""] * len(cum)

    # cols[n] is column n of every member, (worlds, rows).  The two sums of
    # factor n are last-axis sums of one contiguous (2, worlds, m) array,
    # which add the same elements in the same order as the 1-D sum of one
    # member's column (a strided or non-last-axis sum may not).
    cols = cum.transpose(2, 0, 1)
    both = known[:, :-1] & known[:, 1:]
    sums = np.empty((max(n_cols - 1, 0), 2, len(cum)))  # [n] = column n, n+1 sums over both[:, n]
    for n in range(n_cols - 1):
        np.add.reduce(cols[n : n + 2].compress(both[:, n], axis=-1), axis=-1, out=sums[n])
    for n, w in zip(*np.nonzero(sums[:, 0] == 0.0)):  # zero denominators, column by column
        failures[w] = failures[w] or f"cannot estimate development factor for column {n}: zero cumulative volume"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and NaN as IEEE gives them
        factors = sums[:, 1] / sums[:, 0]  # (columns - 1, worlds)

    unknown_rows = np.flatnonzero(~known.any(axis=1))
    if unknown_rows.size:
        note = f"cannot complete row {unknown_rows[0] + 1}: it has no known cumulative value"
        failures = [failure or note for failure in failures]
    if single and failures[0]:
        raise EstimationError(failures[0])
    if not n_cols:  # only a stack gets here without columns: a triangle has raised its note
        raise ParameterError("chain_ladder expects the triangles of a stack to have at least one column")
    latest = n_cols - 1 - np.argmax(known[:, ::-1], axis=1)

    # Fill forward column by column: each future cell is the cell before it
    # times that column's factor, one elementwise product over the stack.
    filled = cols.copy()
    future = latest < np.arange(n_cols)[:, None]  # (columns, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_cols):
            np.multiply(filled[n - 1], factors[n - 1, :, None], out=filled[n], where=future[n])
    completed = filled.transpose(1, 2, 0)
    factors = factors.T

    reserve_per_row = filled[-1] - cum[:, np.arange(n_rows), latest]
    totals = reserve_per_row.sum(axis=-1)
    if any(failures):
        totals[[bool(failure) for failure in failures]] = math.nan
    if single:
        return ChainLadderResult(factors[0], completed[0], reserve_per_row[0], float(totals[0]), tuple(failures))
    return ChainLadderResult(factors, completed, reserve_per_row, totals, tuple(failures))


@dataclass(frozen=True)
class EstimatorSummary:
    estimator: str
    target: str
    replicates_ok: int
    replicates_failed: int
    bias: float
    rmse: float


@dataclass(eq=False)
class Comparison:
    """Per-replicate columns of a sweep and a summary per estimator.

    ``truths[target]`` and ``estimates[estimator]`` are read-only float arrays
    in replicate order; an estimate is NaN where its fit failed, and
    ``notes[estimator]`` then holds the error it raised ("" elsewhere).
    """

    truths: dict[str, np.ndarray]
    estimates: dict[str, np.ndarray]
    notes: dict[str, tuple[str, ...]]
    summary: dict[str, EstimatorSummary]


#: Which reserve each estimator addresses.  Chain-Ladder on the reporting
#: triangle only ever sees claims reported by the horizon, so it is scored
#: against the reported reserve; the occurrence triangle and the analytic
#: mean target the total reserve.
ESTIMATOR_TARGETS = {
    "analytic_3d_mean": "total_reserve",
    "chain_ladder_occurrence": "total_reserve",
    "chain_ladder_reporting": "reported_reserve",
}


#: Triangle cells per orientation that one fit of :func:`compare_2d_3d`
#: takes at most (a block's, where those are more): a unit's stacks and
#: their fit's temporaries stay small next to one block's tensors.
_UNIT_CELLS = BLOCK_CELLS // 4


def _score_unit(_, blocks) -> tuple[dict[str, np.ndarray], dict[str, tuple[str, ...]]]:
    """Columns of a unit's worlds: the truth of each target, the Chain-Ladder estimates and notes.

    Each block gets its reserve breakdown and one triangle stack per
    orientation; each orientation's stacks of the unit are fitted at once.
    """
    breakdowns, stacks = [], {"chain_ladder_occurrence": [], "chain_ladder_reporting": []}
    for block in blocks:
        breakdowns.append(reserve_breakdown(block))
        stacks["chain_ladder_occurrence"].append(triangle_occurrence(block))
        stacks["chain_ladder_reporting"].append(triangle_reporting(block))
    values = {
        target: np.concatenate([getattr(breakdown, target) for breakdown in breakdowns])
        for target in ("total_reserve", "reported_reserve")
    }
    notes = {}
    for name, tris in stacks.items():
        stack = np.concatenate([tri.values for tri in tris])
        fit = chain_ladder(cumulate(Triangle(stack, tris[0].orientation, "incremental", tris[0].horizon)))
        values[name], notes[name] = fit.total_reserve_estimate, fit.failures
    return values, notes


def compare_2d_3d(params: ModelParams, replicates: int, master_seed: int, *, workers: int = 1) -> Comparison:
    """Score the 2D Chain-Ladder estimators and the analytic 3D mean
    against the simulated truth of every replicate.

    Each block of replicates is projected at once: one reserve breakdown and
    one triangle stack per orientation.  A unit of consecutive blocks, as
    many as keep each orientation's stacks within :data:`_UNIT_CELLS` cells,
    is fitted at once: per orientation one :func:`cumulate` and one
    :func:`chain_ladder` of its blocks' stacks.  The units are drawn and
    scored on up to ``workers`` threads, with the same result at any worker
    count.  Chain-Ladder failures (e.g. zero-volume columns) are noted on
    the affected replicate and excluded from bias/RMSE; they never abort the
    sweep.
    """
    n_i = params.occurrence_years
    unit_blocks = max(1, _UNIT_CELLS // (block_replicates(params) * n_i * n_i))
    units = _replicate_loop(params, replicates, master_seed, _score_unit, workers=workers, unit_blocks=unit_blocks)
    values = {key: np.concatenate([v[key] for v, _ in units]) for key in units[0][0]}
    notes = {name: tuple(note for _, n in units for note in n[name]) for name in units[0][1]}
    values["analytic_3d_mean"] = np.full(replicates, analytic_reserve_moments(params)["total_reserve"].mean)
    notes["analytic_3d_mean"] = ("",) * replicates
    for column in values.values():
        column.flags.writeable = False

    summary: dict[str, EstimatorSummary] = {}
    for name, target in ESTIMATOR_TARGETS.items():
        estimates = values[name]
        errors = (estimates - values[target])[~np.isnan(estimates)]  # a failed fit's estimate is NaN
        summary[name] = EstimatorSummary(
            estimator=name,
            target=target,
            replicates_ok=int(errors.size),
            replicates_failed=replicates - int(errors.size),
            bias=float(errors.mean()) if errors.size else math.nan,
            rmse=_root_mean_square(errors) if errors.size else math.nan,
        )
    return Comparison(
        truths={target: values[target] for target in ("total_reserve", "reported_reserve")},
        estimates={name: values[name] for name in ESTIMATOR_TARGETS},
        notes={name: notes[name] for name in ESTIMATOR_TARGETS},
        summary=summary,
    )
