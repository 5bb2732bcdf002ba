"""Volume-weighted Chain-Ladder on projected triangles, and the 2D/3D study.

The development factor for column n is the volume-weighted ratio

    f_n = sum_m C[m, n+1] / sum_m C[m, n]

over the rows where both cells are known.  Future cells are filled forward
by C[m, n+1] = C[m, n] * f_n and the row reserve is the completed ultimate
minus the latest known cumulative value.  Rows known only at column 0 take
the product of all remaining factors; a row with no known value cannot be
completed and is an :class:`EstimationError` naming the row.

When the expected triangle is multiplicative (every row proportional to one
development pattern, e.g. a stationary portfolio), the factor estimates are
exact ratios of the pattern and Chain-Ladder reproduces the analytic reserve
to round-off.

:func:`cumulate` and :func:`chain_ladder` also take a stack of triangles with
a leading world axis, the projection of a block of worlds, whose members
share one known region.  Every sum, product and quotient is then taken over
the stack at once, on contiguous last-axis rows, in the order a single
triangle uses, so each member's result is bit-identical to its fit alone; a
single triangle is the stack of one.  :func:`compare_2d_3d` scores each
block of replicates with one call per stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import (
    Triangle,
    analytic_reserve_moments,
    reserve_breakdown,
    triangle_occurrence,
    triangle_reporting,
)
from .engine import _replicate_loop
from .errors import EstimationError, ParameterError
from .model import ModelParams

__all__ = [
    "ChainLadderResult",
    "Comparison",
    "ComparisonRecord",
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


def chain_ladder(tri: Triangle) -> ChainLadderResult:
    """Estimate development factors and complete a cumulative triangle, or
    each member of a stack of them.

    The members of a stack must share one known region.  If any member
    cannot be fitted, the stack raises the :class:`EstimationError` of the
    first column (or row) at which some member fails alone.
    """
    if tri.form != "cumulative":
        raise ParameterError(f"chain_ladder expects a cumulative triangle, got {tri.form!r}")
    single = tri.values.ndim == 2
    cum = tri.values[None] if single else tri.values
    _, n_rows, n_cols = cum.shape
    if n_rows < 2:
        raise EstimationError(f"chain ladder needs at least 2 rows, got {n_rows}")
    unknown = np.isnan(cum)
    known = ~unknown[0]
    if (unknown != unknown[0]).any():
        raise ParameterError("chain_ladder expects the triangles of a stack to share one known region")

    # cols[n] is column n of every member, (worlds, rows).  The two sums of
    # factor n are last-axis sums of one contiguous (2, worlds, m) array,
    # which add the same elements in the same order as the 1-D sum of one
    # member's column (a strided or non-last-axis sum may not).
    cols = cum.transpose(2, 0, 1)
    both = known[:, :-1] & known[:, 1:]
    sums = np.empty((max(n_cols - 1, 0), 2, len(cum)))  # [n] = column n, n+1 sums over both[:, n]
    for n in range(n_cols - 1):
        np.add.reduce(cols[n : n + 2].compress(both[:, n], axis=-1), axis=-1, out=sums[n])
        if 0.0 in sums[n, 0].tolist():  # some member's denominator is zero
            raise EstimationError(
                f"cannot estimate development factor for column {n}: zero cumulative volume"
            )
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN as IEEE gives them
        factors = sums[:, 1] / sums[:, 0]  # (columns - 1, worlds)

    unknown_rows = np.flatnonzero(~known.any(axis=1))
    if unknown_rows.size:
        raise EstimationError(f"cannot complete row {unknown_rows[0] + 1}: it has no known cumulative value")
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
    if single:
        return ChainLadderResult(factors[0], completed[0], reserve_per_row[0], float(totals[0]))
    return ChainLadderResult(factors, completed, reserve_per_row, totals)


@dataclass(frozen=True)
class ComparisonRecord:
    replicate: int
    estimator: str
    target: str
    estimate: float  # NaN when the estimator failed on this replicate
    truth: float
    note: str = ""

    @property
    def error(self) -> float:
        return self.estimate - self.truth


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
    records: list[ComparisonRecord] = field(default_factory=list)
    summary: dict[str, EstimatorSummary] = field(default_factory=dict)


#: Which reserve each estimator addresses.  Chain-Ladder on the reporting
#: triangle only ever sees claims reported by the horizon, so it is scored
#: against the reported reserve; the occurrence triangle and the analytic
#: mean target the total reserve.
ESTIMATOR_TARGETS = {
    "analytic_3d_mean": "total_reserve",
    "chain_ladder_occurrence": "total_reserve",
    "chain_ladder_reporting": "reported_reserve",
}


def _chain_ladder_estimates(project, block) -> list[tuple[float, str]]:
    """``(estimate, note)`` of Chain-Ladder on the ``project`` triangle of each
    world of ``block``.

    The block's triangles are fitted as one stack.  If that fails, each
    member is fitted alone, so only the worlds that fail get a NaN estimate,
    each with its own note.
    """
    stack = cumulate(project(block))
    try:
        fit = chain_ladder(stack)
    except EstimationError:
        pass
    else:
        return [(estimate, "") for estimate in fit.total_reserve_estimate.tolist()]
    estimates = []
    for values in stack.values:
        member = Triangle(values, stack.orientation, stack.form, stack.horizon)
        try:
            estimates.append((chain_ladder(member).total_reserve_estimate, ""))
        except EstimationError as exc:
            estimates.append((math.nan, str(exc)))
    return estimates


def _score_block(_, block) -> list[tuple[dict, dict]]:
    """Simulated reserves and the Chain-Ladder ``(estimate, note)`` of each world of a block."""
    breakdown = reserve_breakdown(block)
    fits = {
        name: _chain_ladder_estimates(project, block)
        for name, project in (
            ("chain_ladder_occurrence", triangle_occurrence),
            ("chain_ladder_reporting", triangle_reporting),
        )
    }
    return [
        (
            {"total_reserve": total, "reported_reserve": reported},
            {name: estimates[w] for name, estimates in fits.items()},
        )
        for w, (total, reported) in enumerate(zip(breakdown.total_reserve, breakdown.reported_reserve))
    ]


def compare_2d_3d(params: ModelParams, replicates: int, master_seed: int) -> Comparison:
    """Score the 2D Chain-Ladder estimators and the analytic 3D mean
    against the simulated truth of every replicate.

    Each block of replicates is scored at once: one reserve breakdown, and
    per orientation one triangle stack and one Chain-Ladder fit.
    Chain-Ladder failures (e.g. zero-volume columns) are recorded on the
    affected replicate and excluded from bias/RMSE; they never abort the
    sweep.
    """
    scored = _replicate_loop(params, replicates, master_seed, _score_block)
    analytic = (analytic_reserve_moments(params)["total_reserve"].mean, "")
    records = []
    for r, (truths, estimates) in enumerate(scored):
        estimates["analytic_3d_mean"] = analytic
        for name, target in ESTIMATOR_TARGETS.items():
            estimate, note = estimates[name]
            records.append(ComparisonRecord(r, name, target, estimate, truths[target], note))

    summary: dict[str, EstimatorSummary] = {}
    for name, target in ESTIMATOR_TARGETS.items():
        own = [rec for rec in records if rec.estimator == name]
        errors = np.array([rec.error for rec in own if not math.isnan(rec.estimate)])
        summary[name] = EstimatorSummary(
            estimator=name,
            target=target,
            replicates_ok=int(errors.size),
            replicates_failed=len(own) - int(errors.size),
            bias=float(errors.mean()) if errors.size else math.nan,
            rmse=float(np.sqrt(np.mean(errors**2))) if errors.size else math.nan,
        )
    return Comparison(records=records, summary=summary)
